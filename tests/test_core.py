"""Tests for the generator pipeline and the isomorphism drivers."""

import hashlib
import json
import random
from functools import partial

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import (
    GraphMatcher,
    categorical_edge_match,
    categorical_node_match,
)

from trigiso import core
from trigiso.coloraut import annotate, build_structure_tree, cb, cb_tree
from trigiso.core import AutResult, aut_e_generators, is_isomorphic, lift
from trigiso.graphs import (
    GraphError, LabeledGraph, _maps_edges, build_x, is_graph_isomorphism, validate,
)
from trigiso.harness import (
    degree_sequence_graph,
    oracle_aut_e,
    random_relabeling,
    random_ternary_graph,
)
from trigiso.layers import LayerDecomposition, layer_sequence, refine
from trigiso.perm import (
    Coset,
    Permutation,
    coset_elements,
    enumerate_group,
    group_order,
    smoothness_violations,
)
from trigiso.phylo import (
    phylo_isomorphic,
    random_network,
    reversed_arc_network,
    swap_two_leaf_labels,
)

from graph_reference import record_graph_builds, reference_profile_tables, reference_splice
from test_graphs import EX1_A, EX1_B, EX2_A, EX2_B, graph_from_edges
from test_layers import reference_b_set, stacked_galls
from tower_cases import (
    CUBE,
    K4,
    _cfi,
    cfi_tower_cases,
    class_swap_work,
    complete_binary_tree,
    decide_tower_cases,
    every_level,
    recorded_towers,
    tower_calls,
    without_class_swap,
)
import tower_reference
from tower_reference import has_two_node_fiber, reference_run_tower, written_out


def _group(res: AutResult, n):
    gens = res.generators or (Permutation.identity(n),)
    return enumerate_group(gens)


def test_single_edge_group():
    g = LabeledGraph([0, 1], [(0, 1)])
    res = aut_e_generators(g, (0, 1))
    assert _group(res, 2) == {Permutation.identity(2), Permutation.transposition(2, 0, 1)}
    assert res.swap_witness is not None


def test_path_group_is_the_flip():
    g = LabeledGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    res = aut_e_generators(g, (1, 2))
    assert _group(res, 4) == {Permutation.identity(4), Permutation([3, 2, 1, 0])}


def test_six_cycle_group_is_the_reflection():
    g = LabeledGraph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    res = aut_e_generators(g, (0, 1))
    assert group_order(res.generators) == 2


def test_generators_preserve_structure():
    g = random_ternary_graph(9, 77)
    e = g.sorted_edges()[0]
    res = aut_e_generators(g, e)
    ids = list(res.node_order)
    pos = {v: i for i, v in enumerate(ids)}
    for gen in res.generators:
        # setwise edge fix
        assert {gen(pos[e[0]]), gen(pos[e[1]])} == {pos[e[0]], pos[e[1]]}
        # edges map to edges with equal labels, colors preserved
        for (u, v), lab in g.edges().items():
            mu, mv = ids[gen(pos[u])], ids[gen(pos[v])]
            assert g.has_edge(mu, mv) and g.label(mu, mv) == lab
        for v in ids:
            assert g.color(ids[gen(pos[v])]) == g.color(v)
    assert smoothness_violations(res.generators or (Permutation.identity(len(ids)),)) == []


def test_colored_base_edge_blocks_swap():
    g = LabeledGraph({0: 1, 1: 2, 2: 0, 3: 0}, [(0, 1), (0, 2), (1, 3)])
    res = aut_e_generators(g, (0, 1))
    assert res.swap_witness is None
    assert _group(res, 4) == {Permutation.identity(4)}


@pytest.mark.parametrize("seed", range(25))
def test_group_matches_oracle(seed):
    n = random.Random(seed).randint(2, 10)
    g = random_ternary_graph(n, 31 * seed)
    e = g.sorted_edges()[0]
    want = set(oracle_aut_e(g, e))
    res = aut_e_generators(g, e)
    assert _group(res, n) == want


def test_lift_identity_and_determinism():
    g = LabeledGraph(range(4), [(0, 1), (0, 2), (0, 3)])
    dec = layer_sequence(g.arrays, (0, 1))
    ident = Permutation.identity(dec.n)
    assert lift(dec, 1, ident) == ident
    # two-leaf fiber, parent fixed: leaves map in sorted order (identically)
    assert lift(dec, 1, ident)(2) == 2 and lift(dec, 1, ident)(3) == 3


def test_lift_path_flip():
    g = LabeledGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    dec = layer_sequence(g.arrays, (1, 2))
    flip12 = Permutation.from_mapping(4, {1: 2, 2: 1})
    lifted = lift(dec, 1, flip12)
    assert lifted == Permutation([3, 2, 1, 0])


def test_example_pair_positive_with_verified_mapping():
    g1 = graph_from_edges(EX1_A)
    g2 = graph_from_edges(EX1_B)
    res = is_isomorphic(g1, g2, want_mapping=True)
    assert res.isomorphic
    assert is_graph_isomorphism(g1, g2, res.mapping)
    published = {1: 2, 2: 1, 3: 7, 4: 4, 5: 5, 6: 6, 7: 3, 8: 8, 9: 9, 10: 10}
    assert is_graph_isomorphism(g1, g2, published)


def test_example_pair_negative():
    g1 = graph_from_edges(EX2_A)
    g2 = graph_from_edges(EX2_B)
    # equal counts and degree sequences: no pre-test can decide this pair
    assert g1.degree_sequence() == g2.degree_sequence()
    assert not is_isomorphic(g1, g2)


def test_relabelings_are_isomorphic():
    g = random_ternary_graph(12, 5)
    h, _ = random_relabeling(g, 6)
    res = is_isomorphic(g, h, want_mapping=True)
    assert res.isomorphic and is_graph_isomorphism(g, h, res.mapping)


def test_large_relabelled_graph_is_isomorphic():
    # Color refinement splits the joined graph into classes of two, a node
    # and its image, so every level group is trivial.
    g = random_ternary_graph(2048, 7)
    h, _ = random_relabeling(g, 8)
    res = is_isomorphic(g, h, want_mapping=True)
    assert res.isomorphic and is_graph_isomorphism(g, h, res.mapping)


@pytest.mark.parametrize("n_nodes", [127, 255, 511])
def test_relabelled_complete_binary_trees_are_isomorphic(n_nodes):
    # A positive with a large automorphism 2-group: every tower level splits
    # deep index-2 chains.
    g = complete_binary_tree(n_nodes)
    h, _ = random_relabeling(g, n_nodes)
    res = is_isomorphic(g, h, want_mapping=True)
    assert res.isomorphic and is_graph_isomorphism(g, h, res.mapping)


def test_complete_binary_tree_edge_group():
    # Fixing the edge (0, 1) fixes the root, so 14 of the 15 child swaps remain.
    res = aut_e_generators(complete_binary_tree(31), (0, 1))
    assert group_order(res.generators) == 1 << 14
    assert smoothness_violations(res.generators) == []


def test_symmetry_of_verdicts():
    for seed in range(12):
        n = random.Random(seed).randint(3, 9)
        g1 = random_ternary_graph(n, seed)
        g2 = random_ternary_graph(n, seed + 100)
        assert bool(is_isomorphic(g1, g2)) == bool(is_isomorphic(g2, g1))


def test_swap_variant_agrees_with_full():
    # The exchange-coset search of is_isomorphic against the full-group
    # route: the graphs are isomorphic exactly when, for some same-label
    # e2, a generator of the whole edge-fixing group of the joined graph
    # exchanges the two split nodes.
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(2, 11)
        g1 = random_ternary_graph(n, seed)
        if seed % 2:
            g2 = random_ternary_graph(n, seed + 999)
        else:
            g2, _ = random_relabeling(g1, seed)
        e1 = g1.sorted_edges()[0]
        full = any(
            aut_e_generators(sp.graph, sp.e).swap_witness is not None
            for sp in (
                reference_splice(g1, g2, e1, e2)
                for e2 in g2.sorted_edges()
                if g2.label(*e2) == g1.label(*e1)
            )
        )
        assert bool(is_isomorphic(g1, g2)) == full


def test_single_node_graphs():
    one = LabeledGraph({7: 3}, [])
    other = LabeledGraph({2: 3}, [])
    different = LabeledGraph({2: 4}, [])
    res = is_isomorphic(one, other, want_mapping=True)
    assert res.isomorphic and res.mapping == {7: 2}
    assert not is_isomorphic(one, different)
    assert not is_isomorphic(one, LabeledGraph([0, 1], [(0, 1)]))


def test_invalid_inputs_raise():
    disconnected = LabeledGraph([0, 1, 2, 3], [(0, 1), (2, 3)])
    ok = LabeledGraph([0, 1], [(0, 1)])
    with pytest.raises(GraphError):
        is_isomorphic(disconnected, ok)
    with pytest.raises(GraphError):
        aut_e_generators(ok, (0, 5))


def test_aut_rejects_reserved_labels():
    # An input edge labelled like a triangle-gadget edge (-1) must be refused
    # by the automorphism search before the tower is built, not confused with
    # the gadget's own edges.
    plain = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 6), (2, 8), (3, 9), (5, 7)]
    g = LabeledGraph(range(10), [(u, v, 0) for u, v in plain] + [(7, 8, -1), (7, 9, -1), (8, 9, -1)])
    with pytest.raises(GraphError, match="reserved label -1"):
        aut_e_generators(g, (0, 1))


@pytest.mark.parametrize("base", [K4, CUBE], ids=["k4", "cube"])
@pytest.mark.parametrize("twists", [1, 2, 3, 4])
def test_uncolored_cfi_pairs_decide_by_twist_parity(base, twists):
    # Color refinement cannot tell these pairs apart, so the towers decide.
    plain = _cfi(base)
    twisted = _cfi(base, random.Random(twists).sample(range(len(base)), twists))
    h, _ = random_relabeling(twisted, 9)
    res = is_isomorphic(plain, h, want_mapping=True)
    assert res.isomorphic == (twists % 2 == 0)
    if res.isomorphic:
        assert is_graph_isomorphism(plain, h, res.mapping)
    if base is K4 or res.isomorphic:
        vf2 = GraphMatcher(nx.Graph(plain.sorted_edges()), nx.Graph(h.sorted_edges()))
        assert vf2.is_isomorphic() == res.isomorphic
    else:
        # VF2 does not finish the 80-node negatives in minutes; an odd twist
        # count must still match a single twist.
        single = _cfi(base, {0})
        res = is_isomorphic(single, h, want_mapping=True)
        assert res.isomorphic and is_graph_isomorphism(single, h, res.mapping)


def test_every_tower_has_int32_node_colors():
    # `refine` ranks its classes as int32, the dtype of the tower's rows, so
    # the level's node-color check gathers four bytes a cell.
    cases = {**decide_tower_cases(40, 1), **cfi_tower_cases()}
    decs = [dec for towers in cases.values() for dec, _ in towers]
    assert len(decs) > 10
    assert {dec.view.colors.dtype for dec in decs} == {np.dtype(np.int32)}


def test_graph_decisions_build_no_graph(monkeypatch):
    # Splices exist only as array views: no decision constructs a graph, for
    # a relabelled positive and for a CFI negative whose pairings reach the
    # tower and die there.
    g = random_ternary_graph(64, 3)
    cases = [(g, random_relabeling(g, 3)[0], True)]
    cases.append((_cfi(K4), random_relabeling(_cfi(K4, {0}), 5)[0], False))
    towers = []
    real_build_x = core.build_x

    def counted_build_x(*args):
        towers.append(args)
        return real_build_x(*args)

    monkeypatch.setattr(core, "build_x", counted_build_x)
    built = record_graph_builds(monkeypatch)
    for g1, g2, want in cases:
        built.clear()
        towers.clear()
        assert is_isomorphic(g1, g2, want_mapping=True).isomorphic == want
        assert towers and not built


def test_colored_and_labeled_isomorphism():
    g1 = LabeledGraph({0: 1, 1: 0, 2: 2}, {(0, 1): 5, (1, 2): 6})
    same = LabeledGraph({10: 0, 11: 2, 12: 1}, {(10, 12): 5, (10, 11): 6})
    wrong_label = LabeledGraph({10: 0, 11: 2, 12: 1}, {(10, 12): 6, (10, 11): 5})
    assert is_isomorphic(g1, same).isomorphic
    assert not is_isomorphic(g1, wrong_label).isomorphic


def test_two_group_property():
    for seed in range(10):
        n = random.Random(seed).randint(3, 12)
        g = random_ternary_graph(n, seed + 500)
        res = aut_e_generators(g, g.sorted_edges()[0])
        order = group_order(res.generators or (Permutation.identity(n),))
        assert order is not None and order & (order - 1) == 0


# -- integer-coded level steps against frozenset references -------------------


def reference_extend(dec, elems, p: Permutation) -> list[int]:
    """Image of p on nodes and on the frozenset elements, ground set [0, n + |elems|)."""
    index = {elem: dec.n + i for i, elem in enumerate(elems)}
    img = [int(x) for x in p.image]
    for elem in elems:
        if isinstance(next(iter(elem)), tuple):
            img.append(index[frozenset((p(w), lab) for w, lab in elem)])
        else:
            img.append(index[frozenset(p(w) for w in elem)])
    return img


def reference_lift(dec, r, sigma: Permutation) -> Permutation:
    """Fiber-by-fiber lift over dicts keyed by (neighbor set, color)."""
    tower = written_out(dec)
    fibers: dict = {}
    for v in tower.fresh.get(r + 1, []):
        fibers.setdefault((tower.nbr_map[v], tower.colors[v]), []).append(v)
    img = np.array(sigma.image, dtype=np.int32)
    for (fset, color), members in fibers.items():
        targets = fibers.get((frozenset((sigma(w), lab) for w, lab in fset), color))
        if targets is None or len(targets) != len(members):
            raise GraphError("fiber mismatch")
        for u, v in zip(members, targets):
            img[u] = v
    return Permutation(img)


def _same_coset(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.rep == b.rep and len(a.sub) == len(b.sub) and all(
        x == y for x, y in zip(a.sub, b.sub)
    )


def _elements(coset) -> set:
    return set() if coset is None else coset_elements(coset)


def _coset(gens, rep) -> Coset:
    return Coset(Permutation(rep), tuple(Permutation(g) for g in gens))


def _spy_levels(monkeypatch, name="b_set") -> list:
    """Record (decomposition, r, input rows) of every `LayerDecomposition.<name>` call.

    By default that is every level that closes B_r.
    """
    levels = []
    real = getattr(LayerDecomposition, name)

    def spy(dec, r, images):
        levels.append((dec, r, images))
        return real(dec, r, images)

    monkeypatch.setattr(LayerDecomposition, name, spy)
    return levels


def _patch_solve(monkeypatch, solve) -> None:
    """Route the level solve of `_run_tower` and of `reference_run_tower` through `solve`."""
    monkeypatch.setattr(core, "cb_images", solve)
    monkeypatch.setattr(tower_reference, "cb_images", solve)


@pytest.mark.parametrize("n", [24, 40, 64])
@pytest.mark.parametrize("seed", range(3))
def test_extend_and_lift_match_frozenset_references(monkeypatch, n, seed):
    # Checked on the levels the decisions run, then on every level of the
    # same towers.
    levels = _spy_levels(monkeypatch)
    real_solve = core.cb_images
    real_lift = LayerDecomposition.lift_or_none
    lifts = []

    def checked_solve(gens, rep, points, colors):
        dec, r, images = levels[-1]
        elems = reference_b_set(dec, r, images)
        assert elems
        got = [row.tolist() for row in [*gens, rep]]
        assert got == [reference_extend(dec, elems, Permutation(p)) for p in images]
        return real_solve(gens, rep, points, colors)

    def checked_lift(dec, r, images):
        out = real_lift(dec, r, images)
        rows = np.reshape(images, (-1, dec.n))
        if out is None:
            with pytest.raises(GraphError):
                for sigma in rows:
                    reference_lift(dec, r, Permutation(sigma))
        else:
            for row, sigma in zip(np.reshape(out, (-1, dec.n)), rows):
                assert Permutation(row) == reference_lift(dec, r, Permutation(sigma))
        lifts.append(r)
        return out

    _patch_solve(monkeypatch, checked_solve)
    monkeypatch.setattr(LayerDecomposition, "lift_or_none", checked_lift)
    towers = decide_tower_cases(n, seed)
    assert levels and lifts
    every_level(towers)
    assert len(levels) > 3


def test_lift_raises_on_fiber_mismatch():
    # Swapping the base endpoints of this path sends node 2's neighbor set
    # {(0, 7)} to {(1, 7)}, which no entering node has.
    g = LabeledGraph(range(4), {(0, 1): 0, (0, 2): 7, (1, 3): 8})
    dec = layer_sequence(g.arrays, (0, 1))
    with pytest.raises(GraphError):
        lift(dec, 1, Permutation.transposition(4, 0, 1))
    # Same neighbor-set shape, but fibers of sizes 2 and 1.
    g = LabeledGraph(range(5), {(0, 1): 0, (0, 2): 7, (0, 3): 7, (1, 4): 7})
    dec = layer_sequence(g.arrays, (0, 1))
    with pytest.raises(GraphError):
        lift(dec, 1, Permutation.transposition(5, 0, 1))


@pytest.mark.parametrize("tree_reference", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_level_solve_over_elements_equals_solve_with_nodes(monkeypatch, tree_reference, seed):
    # The nodes of X_{r-1}, given non-neutral colors and added to the
    # points, change no level's coset: rep and every generator agree with
    # `cb` over the enlarged points, or with the tree-guided reference
    # `cb_tree` when `tree_reference` is set.  On the CFI splices `cb_tree`
    # returns another generating sequence of the same coset, so there the
    # cosets are compared as sets of elements.
    levels = _spy_levels(monkeypatch)
    solved = []
    real = core.cb_images

    def checked(gens, rep, points, colors):
        out, changed = real(gens, rep, points, colors)
        got = None if out is None else _coset(*out)
        dec, r = levels[-1][:2]
        n = dec.n
        coset = _coset(gens, rep)
        colors = [("n", c) for c in dec.view.colors.tolist()] + colors[n:].tolist()
        points = [v for v in range(n) if dec.level[v] <= r - 1] + points.tolist()
        if tree_reference:
            root = build_structure_tree(points, coset.sub)
            annotate(root, colors, neutral=0)
            want = cb_tree(coset, root, colors)
        else:
            want = cb(coset, points, colors)
        solved.append((dec, got, want))
        return out, changed

    _patch_solve(monkeypatch, checked)
    cases = decide_tower_cases(40, seed)
    assert solved
    every_level(cases)
    cfi = {id(dec) for dec, _ in cases["cfi"]}
    for dec, got, want in solved:
        if tree_reference and id(dec) in cfi:
            assert _elements(got) == _elements(want)
        else:
            assert _same_coset(got, want)


def test_node_color_check_raises():
    # The check reads the decomposition's node colors.  In this tree both
    # base endpoints have two children and each child one more, so level 1
    # leaves the kernel swaps (2 3) and (4 5) of the nodes entering at
    # level 2; recoloring node 3 there makes (2 3), a generator with
    # swap=False and with swap=True alike, move a node onto a node of
    # another color at level 2, while the base endpoints keep equal colors.
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)] + [(c, c + 4) for c in range(2, 6)]
    g = LabeledGraph(range(10), edges)
    dec = layer_sequence(g.arrays, (0, 1))
    assert dec.N == 3 and dec.kernel_generators(1).tolist() == [
        [0, 1, 3, 2, 4, 5, 6, 7, 8, 9],
        [0, 1, 2, 3, 5, 4, 6, 7, 8, 9],
    ]
    assert core._run_tower(dec, swap=True) is not None
    core._run_tower(dec, swap=False)
    dec.view = dec.view._replace(colors=np.array([0, 0, 0, 3, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(AssertionError, match="level 2: .* color"):
        core._run_tower(dec, swap=False)
    with pytest.raises(AssertionError, match="level 2: .* color"):
        core._run_tower(dec, swap=True)


# The base endpoints 0 and 1 differ in color, so the aut coset starts as
# the identity alone.  Node 4, entering at level 3, has the children 5 and
# 6, a two-node fiber, and each of them one child.  Levels 1 to 3 skip, the
# third adding the kernel swap (5 6); level 4 closes B_4 and lifts its two
# rows, (5 6) and the identity.
_LATE_KERNEL = LabeledGraph(
    {v: int(v == 0) for v in range(9)},
    [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5), (4, 6), (5, 7), (6, 8)],
)


def test_aut_coset_of_the_identity_alone_skips_its_level(monkeypatch):
    closes, lifts = _spy_levels(monkeypatch), _spy_levels(monkeypatch, "lift_or_none")
    dec = layer_sequence(_LATE_KERNEL.arrays, (0, 1))
    gens, rep = core._run_tower(dec, swap=False)
    assert [(r, len(rows)) for _, r, rows in closes + lifts] == [(4, 2), (4, 2)]
    assert gens.tolist() == [[0, 1, 2, 3, 4, 6, 5, 8, 7]]
    assert same_tower_result((gens, rep), reference_run_tower(dec, swap=False))
    # Refined aut towers: a level closes B_r and lifts only while its coset
    # holds more than the identity, and the generators are the reference
    # loop's, which filters the identity at every level.
    seen = set()
    graphs = [random_ternary_graph(n, seed) for n, seed in ((24, 0), (40, 1), (64, 2))]
    for g in [*graphs, complete_binary_tree(15)]:
        for e in g.sorted_edges()[::3]:
            dec = layer_sequence(refine(g.arrays, e), e)
            closes.clear()
            lifts.clear()
            got = core._run_tower(dec, swap=False)
            assert all(len(rows) > 1 for _, _, rows in closes + lifts)
            seen.add(bool(closes))
            assert same_tower_result(got, reference_run_tower(dec, swap=False))
    assert seen == {True, False}


def same_tower_result(got, want) -> bool:
    """Both None, or generators and representative equal in dtype, shape and value."""
    if got is None or want is None:
        return got is want
    return all(
        x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        for x, y in zip(got, want)
    )


def tower_equals_reference(dec) -> bool:
    """Whether `_run_tower` equals the reference loop, for both swap values."""
    return all(
        same_tower_result(core._run_tower(dec, swap), reference_run_tower(dec, swap))
        for swap in (False, True)
    )


def class_swap_taken(view, e) -> bool:
    """Whether `_class_swap` decides the swap tower of (view, e), whose e is a bridge.

    Asserts that `_tower(view, e, swap=True)`, with the class swap and
    without it, is the reference loop's witness on the refined view's
    tower, contracted onto the view.  σ is accepted exactly where every
    refined class holds two nodes (the `_class_swap` docstring); there it
    asserts that σ is that witness and that the written-out tower has no
    two-node fiber, as the `core` module docstring argues for a bridge.
    """
    refined = refine(view, e)
    dec = layer_sequence(refined, e)
    want = reference_run_tower(dec, swap=True)
    want = want and (core._contract(dec, want[1][None])[0],)
    for got in (core._tower(view, e, True), without_class_swap(core._tower, view, e, True)):
        assert same_tower_result(got if got is None else (got,), want)
    sigma = core._class_swap(refined, *dec.owner[list(dec.base_edge)].tolist())
    assert (sigma is not None) == (np.bincount(refined.colors) == 2).all()
    if sigma is not None:
        assert same_tower_result((sigma,), want) and not has_two_node_fiber(dec)
    return sigma is not None


def _splice_towers(g1: LabeledGraph, g2: LabeledGraph) -> list:
    """Towers of g1's first edge spliced against every edge of g2.

    Each splice gives the tower of its view and of its refined view.
    """
    a1, a2 = g1.arrays, g2.arrays
    e1, e = np.array([a1.u[0], a1.v[0]]), (g1.n_nodes, g1.n_nodes + 1)
    towers = []
    for u, v in zip(a2.u, a2.v):
        joined = build_x(a1, a2, e1, np.array([u, v]))
        towers += [(layer_sequence(view, e), True) for view in (joined, refine(joined, e))]
    return towers


def _aut_towers(g: LabeledGraph) -> list:
    """Towers of every third edge of g, on g's view and on the refined view."""
    return [
        (layer_sequence(view, e), True)
        for e in g.sorted_edges()[::3]
        for view in (g.arrays, refine(g.arrays, e))
    ]


def _decisions(g: LabeledGraph, others: list, aut: bool = False) -> None:
    """Decide g against each of `others` (graphs or networks), after its aut group."""
    if aut:
        aut_e_generators(g, g.sorted_edges()[0])
    decide = is_isomorphic if isinstance(g, LabeledGraph) else phylo_isomorphic
    for other in others:
        if other is not None:
            decide(g, other)


def _differential_cases():
    """(name, build): random graphs, positives, trees, networks and CFI pairs.

    `build()` returns the towers, built only when the test runs.
    """
    for n, seed in ((12, 0), (30, 1), (64, 2)):
        g = random_ternary_graph(n, seed)
        yield f"aut-{n}", partial(_aut_towers, g)
        if n < 64:
            yield f"relabel-{n}", partial(_splice_towers, g, random_relabeling(g, seed + 7)[0])
            yield f"random-pair-{n}", partial(
                _splice_towers, g, random_ternary_graph(n, seed + 100)
            )
    # Pairs whose unrefined splices are swap towers without two-node fibers
    # that die in the loop (5, 9 and 10 nodes).
    for n, seed, other in ((5, 6, 8), (9, 0, 23), (10, 0, 26)):
        pair = random_ternary_graph(n, seed), random_ternary_graph(n, other)
        yield f"tail-deaths-{n}", partial(_splice_towers, *pair)
    for n_nodes in (15, 31, 63):
        tree = complete_binary_tree(n_nodes)
        others = [random_relabeling(tree, n_nodes)[0]]
        yield f"tree-{n_nodes}", partial(recorded_towers, partial(_decisions, tree, others, True))
    for seed in range(3):
        net = random_network(33, seed=seed)
        others = [
            net.relabeled_nodes({v: 500 + v for v in net.nodes}),
            swap_two_leaf_labels(net, seed=seed),
            reversed_arc_network(net, seed=seed),
        ]
        yield f"networks-{seed}", partial(recorded_towers, partial(_decisions, net, others))
    for name, base, twists in (("k4", K4, 1), ("k4", K4, 2), ("cube", CUBE, 2)):
        others = [random_relabeling(_cfi(base, set(range(twists))), 9)[0]]
        yield f"cfi-{name}-{twists}", partial(
            recorded_towers, partial(_decisions, _cfi(base), others)
        )


@pytest.mark.parametrize(
    "build", [pytest.param(build, id=name) for name, build in _differential_cases()]
)
def test_rigid_tail_equals_reference_loop(build):
    # `_run_tower` is the reference loop's result, row for row, for both
    # swap values, towers whose aut coset skips levels included.
    towers = build()
    assert towers
    for dec, _ in towers:
        assert tower_equals_reference(dec)


@pytest.mark.parametrize("case", ["seed-0", "seed-1", "seed-2", "cfi"])
def test_class_swap_equals_reference_loop(case):
    # Every swap tower the recorded decisions ran, each a splice or a join,
    # through `_tower` with the class swap and without it
    # (`class_swap_taken`); every tower's level loop as well.  The swap
    # towers of the relabelled random graph and of the network twin take
    # the class swap; those of the tree and the CFI pairs keep kernels and
    # never reach it.
    if case == "cfi":
        cases = cfi_tower_cases(tower_calls)
    else:
        cases = decide_tower_cases(40, int(case[-1]), tower_calls)
    taken = set()
    for name, calls in cases.items():
        for view, e, swap, dec in calls:
            assert tower_equals_reference(dec)
            if swap and class_swap_taken(view, e):
                taken.add(name)
    assert taken == (set() if case == "cfi" else {"graph", "network"})


@pytest.mark.parametrize("seed", [0, 1, 2, "galls"])
def test_class_swap_on_network_joins_equals_reference_loop(seed):
    # The join of a network with a relabelled twin, with a copy whose two
    # leaf labels are swapped and with one whose arcs are reversed.  σ is
    # accepted on every twin, and wherever it is accepted σ is the loop's
    # witness and no level has a two-node fiber (`class_swap_taken`).
    net = stacked_galls(8) if seed == "galls" else random_network(33, seed=seed)
    others = [
        net.relabeled_nodes({v: 500 + v for v in net.nodes}),
        swap_two_leaf_labels(net, seed=0),
        reversed_arc_network(net, seed=0),
    ]
    taken = []
    for other in others:
        (view, e, swap, _), = tower_calls(lambda: phylo_isomorphic(net, other))
        taken.append(swap and class_swap_taken(view, e))
    assert taken[0]


# Neither graph has a two-node fiber, so the exchange coset holds one
# element at every level.  In the first, swapping the base endpoints sends
# node 4's neighbor set {(2, 1)} to {(3, 1)}, which no node has, so the
# level-2 filter empties the coset.  In the second, the lifts pair nodes
# 2, 3 with 4, 5, but only 2 and 3 are joined: the level-2 filter finds
# that cross edge's image missing.
_LIFT_DIES = LabeledGraph(range(6), {(0, 1): 0, (0, 2): 0, (1, 3): 0, (2, 4): 1, (3, 5): 2})
_EDGE_CHECK_FAILS = LabeledGraph(
    range(6), {(0, 1): 0, (0, 2): 5, (0, 3): 6, (1, 4): 5, (1, 5): 6, (2, 3): 0}
)


@pytest.mark.parametrize("g", [_LIFT_DIES, _EDGE_CHECK_FAILS], ids=["lift", "edge-check"])
def test_exchange_coset_dies_where_the_reference_loop_dies(monkeypatch, g):
    dec = layer_sequence(g.arrays, (0, 1))
    assert not has_two_node_fiber(dec)
    levels = _spy_levels(monkeypatch)
    assert core._run_tower(dec, swap=True) is None
    assert [r for _, r, _ in levels] == [1, 2]
    assert tower_equals_reference(dec)


def test_loop_checks_node_colors_at_every_level():
    # The lifts keep the colors they were built with.  On the path
    # 4-2-0-1-3-5 the exchange coset is (0 1), then (0 1)(2 3), then
    # (0 1)(2 3)(4 5); recoloring node 3 afterwards passes level 1, which
    # moves only 0 and 1, and fails the check at level 2.
    g = LabeledGraph(range(6), [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)])
    dec = layer_sequence(g.arrays, (0, 1))
    assert not has_two_node_fiber(dec) and dec.N >= 3
    assert core._run_tower(dec, swap=True)[1].tolist() == [1, 0, 3, 2, 5, 4]
    dec.view = dec.view._replace(colors=np.array([0, 0, 0, 3, 0, 0]))
    with pytest.raises(AssertionError, match="level 2: .* color"):
        core._run_tower(dec, swap=True)


# Neither graph has a two-node fiber, and their colors pair every node, as
# refined colors would, so the class swap is tried and found wanting.  On
# the path 2-0-1-3 it is (0 1)(2 3), which sends the edge {0, 2} of label 1
# onto {1, 3} of label 2; the exchange coset then runs the level loop and
# dies at level 1.  On the path 0-1-2-3-4-5 the classes are {0, 5},
# {1, 4} and {2, 3}, so it is the path's reversal: an automorphism, but
# one that sends the base endpoint 0 to 5, not to 1; the level loop then
# finds 0 and 1 in different classes at once.  Refined views never get
# this far: where their classes pair, σ is accepted (`_class_swap`).
_SWAP_MAPS_NO_EDGES = LabeledGraph({0: 0, 1: 0, 2: 1, 3: 1}, {(0, 1): 0, (0, 2): 1, (1, 3): 2})
_SWAP_MISSES_B = LabeledGraph({0: 0, 1: 1, 2: 2, 3: 2, 4: 1, 5: 0}, [(v, v + 1) for v in range(5)])


@pytest.mark.parametrize(
    "g,levels", [(_SWAP_MAPS_NO_EDGES, [1]), (_SWAP_MISSES_B, [])], ids=["edge-check", "base-edge"]
)
def test_failed_class_swap_falls_into_the_loop(monkeypatch, g, levels):
    dec = layer_sequence(g.arrays, (0, 1))
    assert not has_two_node_fiber(dec) and core._class_swap(g.arrays, 0, 1) is None
    seen = _spy_levels(monkeypatch)
    # `_tower` on the view as it is, its colors standing in for refined ones.
    monkeypatch.setattr(core, "refine", lambda view, e, tables=None: view)
    assert core._tower(g.arrays, (0, 1), swap=True) is None
    assert [r for _, r, _ in seen] == levels
    assert tower_equals_reference(dec)


def test_class_swap_off_a_bridge_exchanges_the_base_endpoints():
    # The base edge {0, 1} lies on the cycle 0-2-4-3-1, so it is no bridge.
    # The refined classes {0, 1}, {2, 3} and {4, 5} pair every node, and
    # the class swap σ = (0 1)(2 3)(4 5) is an automorphism exchanging 0
    # and 1, but so is (0 1)(2 3): nodes 4 and 5 form a two-node fiber, the
    # kernel swap (4 5) survives to the top, and the loop returns it as a
    # generator beside the representative (0 1)(2 3).  `_tower` tries the
    # class swap on every swap tower and returns σ, which is all it
    # promises: an automorphism of the view that sends 0 to 1.
    g = LabeledGraph(
        {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1},
        [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)],
    )
    refined = refine(g.arrays, (0, 1))
    dec = layer_sequence(refined, (0, 1))
    assert has_two_node_fiber(dec)
    gens, rep = core._run_tower(dec, swap=True)
    assert gens.tolist() == [[0, 1, 2, 3, 5, 4]] and rep.tolist() == [1, 0, 3, 2, 4, 5]
    sigma = core._tower(g.arrays, (0, 1), swap=True)
    assert sigma.tolist() == [1, 0, 3, 2, 5, 4]
    assert _maps_edges(sigma[None], g.arrays, g.arrays)[0]
    assert (g.arrays.colors.take(sigma) == g.arrays.colors).all()
    assert tower_equals_reference(dec)


def _lift_or_none_reference(dec, r, row) -> list | None:
    try:
        return reference_lift(dec, r, Permutation(row)).image.tolist()
    except GraphError:
        return None


@pytest.mark.parametrize("seed", range(3))
def test_row_lift_equals_array_lift_and_reference(seed):
    # On every level of recorded towers, each row lifted alone equals its
    # fiber-by-fiber reference lift, and the 2-D lift of all rows equals the
    # rows lifted alone: None as soon as one row finds no matching fiber.
    # The rows are the identity, the base edge's swap, the tower's
    # edge-fixing generators, and the nodes up to level r shuffled.
    rng = np.random.default_rng(seed)
    seen = set()
    for towers in decide_tower_cases(40, seed).values():
        for dec, _ in towers:
            ident = np.arange(dec.n, dtype=np.int32)
            flip = ident.copy()
            flip[list(dec.base_edge)] = dec.base_edge[::-1]
            gens, _ = reference_run_tower(dec, swap=False)
            for r in range(1, dec.N):
                low = np.flatnonzero(dec.level <= r)
                shuffled = ident.copy()
                shuffled[low] = rng.permutation(low)
                rows = np.array([ident, flip, *gens, shuffled], dtype=np.int32)
                alone = [dec.lift_or_none(r, row.copy()) for row in rows]
                assert [None if x is None else x.tolist() for x in alone] == [
                    _lift_or_none_reference(dec, r, row) for row in rows
                ]
                lifted = [x for x in alone if x is not None]
                whole = dec.lift_or_none(r, rows.copy())
                assert (whole is None) == (len(lifted) < len(rows))
                kept = rows[[x is not None for x in alone]]
                assert dec.lift_or_none(r, kept).tolist() == [x.tolist() for x in lifted]
                seen.add("pairs" if len(dec.kernel_generators(r)) else "singletons")
                seen.add("dead" if whole is None else "lifted")
    assert seen == {"pairs", "singletons", "dead", "lifted"}


@pytest.mark.parametrize("nodes", [65, 129, 193])
def test_network_twin_tower_is_one_class_swap(nodes):
    # Refinement pairs every node of a network twin's join, so its one
    # tower is decided by the class swap.  Its cost is pinned in units that
    # do not depend on the host: no lift, no B_r closure and no element
    # tables.  Its witness is the level loop's representative, contracted
    # onto the join.
    for seed in range(3):
        net = random_network(nodes, seed=seed)
        ids = list(net.nodes)
        random.Random(seed).shuffle(ids)
        twin = net.relabeled_nodes(dict(zip(net.nodes, ids)))
        towers, swaps, calls = class_swap_work(
            lambda: phylo_isomorphic(net, twin).isomorphic or pytest.fail()
        )
        assert len(towers) == 1
        (dec, swap), = towers
        assert swap and len(swaps) == 1 and swaps[0] is not None
        assert calls == [] and "_elements" not in vars(dec)
        gens, rep = core._run_tower(dec, swap=True)
        assert not len(gens) and np.array_equal(core._contract(dec, rep[None])[0], swaps[0])


# sha256 of the JSON outputs below.  Any change to a generator sequence or a
# mapping changes them, even one that keeps every verdict.
_PINNED_DIGESTS = {
    "aut": "a6113be35cc36800ecdffb189681a74c6e05b961dd763e0237d4dad22fdc42f3",
    "iso": "56db389abce1f861d98ec7afb5530e1666c9a90d350a9f644c84577616087afe",
    "phylo": "c1d2c80e526033b2185056ebb0d551c07cf4c1f0faf86bb5af41bffa50fb14c1",
    "trees": "dcebde94549fa59dd7dfe1765481ebc24adacf0e0f87c71a2f60570f35e12768",
}


def test_tower_outputs_match_pinned_digests():
    def digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj).encode()).hexdigest()

    aut = []
    for n in range(24, 54):
        g = random_ternary_graph(n, n)
        res = aut_e_generators(g, g.sorted_edges()[0])
        aut.append([[p.image.tolist() for p in res.generators], list(res.node_order)])
    iso = []
    for s in range(8):
        g = random_ternary_graph(64, s)
        h, _ = random_relabeling(g, 100 + s)
        iso.append(sorted(is_isomorphic(g, h, want_mapping=True).mapping.items()))
    nets = []
    for s in range(6):
        net = random_network(65, seed=s)
        twin = net.relabeled_nodes({v: 1000 + v for v in net.nodes})
        nets.append(sorted(phylo_isomorphic(net, twin, want_mapping=True).mapping.items()))
    # Random graphs rarely keep two kernel swaps of one level; trees keep many.
    trees = []
    for n in (31, 63):
        res = aut_e_generators(complete_binary_tree(n), (0, 1))
        trees.append([[p.image.tolist() for p in res.generators], list(res.node_order)])
    g = complete_binary_tree(127)
    h, _ = random_relabeling(g, 5)
    trees.append(sorted(is_isomorphic(g, h, want_mapping=True).mapping.items()))
    got = {"aut": digest(aut), "iso": digest(iso), "phylo": digest(nets), "trees": digest(trees)}
    assert got == _PINNED_DIGESTS


# -- the batched layer-profile filter against the per-edge reference ----------


class ReferenceLayerProfile:
    """Per-edge layer profile over dicts and tuples, the filter's reference.

    Level d is the sorted tuple of (color, sorted (label, step)) signatures
    of the nodes at BFS depth d from the edge, step the sign of the
    neighbor's depth minus the node's.
    """

    def __init__(self, g: LabeledGraph, e):
        self.adj = g.adjacency()
        self.colors = {v: g.color(v) for v in g.node_ids}
        self.dist = {e[0]: 1, e[1]: 1}
        self.frontier = [e[0], e[1]]
        self.levels = [self._level_sig(self.frontier)]

    def _level_sig(self, nodes):
        dist = self.dist
        sigs = []
        for v in nodes:
            dv = dist[v]
            incident = sorted(
                (lab, min(max(dist.get(w, dv + 1) - dv, -1), 1)) for w, lab in self.adj[v]
            )
            sigs.append((self.colors[v], tuple(incident)))
        return tuple(sorted(sigs))

    def level(self, d: int):
        """Signature of level d (0-based), or None past the last level."""
        while d >= len(self.levels) and self.frontier:
            nxt = []
            for v in self.frontier:
                for w, _ in self.adj[v]:
                    if w not in self.dist:
                        self.dist[w] = self.dist[v] + 1
                        nxt.append(w)
            self.frontier = nxt
            if nxt:
                self.levels.append(self._level_sig(nxt))
        return self.levels[d] if d < len(self.levels) else None


def reference_profiles_match(p1, p2) -> bool:
    d = 0
    while True:
        s1, s2 = p1.level(d), p2.level(d)
        if s1 != s2:
            return False
        if s1 is None:
            return True
        d += 1


def _candidates(g1, g2, e1):
    return [e2 for e2 in g2.sorted_edges() if g2.label(*e2) == g1.label(*e1)]


def filtered(g1, g2, e1=None):
    e1 = e1 or g1.sorted_edges()[0]
    t1, t2 = core._profile_tables(g1, g2)
    candidates = np.searchsorted(t2.ids, np.reshape(_candidates(g1, g2, e1), (-1, 2)))
    passed = core._profile_filter(t1, np.searchsorted(t1.ids, e1), t2, candidates)
    return [tuple(t2.ids[candidates[i]].tolist()) for i in passed]


def reference_filtered(g1, g2, e1=None):
    e1 = e1 or g1.sorted_edges()[0]
    p1 = ReferenceLayerProfile(g1, e1)
    return [
        e2 for e2 in _candidates(g1, g2, e1)
        if reference_profiles_match(p1, ReferenceLayerProfile(g2, e2))
    ]


def _recolored(g: LabeledGraph, seed: int, colors: int, labels: int) -> LabeledGraph:
    rng = random.Random(seed)
    return LabeledGraph(
        {v: rng.randrange(colors) for v in g.node_ids},
        {e: rng.randrange(labels) for e in g.sorted_edges()},
    )


def _two_switch(g: LabeledGraph, seed: int) -> LabeledGraph:
    """A connected degree-preserving switch ab, cd -> ac, bd of g.

    Colors stay, ab's label moves to ac and cd's to bd.
    """
    rng = random.Random(seed)
    edges = g.edges()
    keys = sorted(edges)
    while True:
        (a, b), (c, d) = rng.sample(keys, 2)
        if len({a, b, c, d}) < 4 or g.has_edge(a, c) or g.has_edge(b, d):
            continue
        new = dict(edges)
        new[min(a, c), max(a, c)] = new.pop((a, b))
        new[min(b, d), max(b, d)] = new.pop((c, d))
        h = LabeledGraph(g.colors(), new)
        if not validate(h):
            return h


def _vf2_isomorphic(g: LabeledGraph, h: LabeledGraph) -> bool:
    def graph(x):
        out = nx.Graph()
        out.add_nodes_from((v, {"color": c}) for v, c in x.colors().items())
        out.add_edges_from((u, v, {"label": lab}) for (u, v), lab in x.edges().items())
        return out

    node_match = categorical_node_match("color", None)
    edge_match = categorical_edge_match("label", None)
    return GraphMatcher(graph(g), graph(h), node_match, edge_match).is_isomorphic()


@pytest.mark.parametrize("block", range(4))
def test_verdicts_agree_with_vf2_on_two_colored_graphs(block):
    # A differential oracle at mid sizes: 25 seeds per block, each giving a
    # relabelled positive and a relabelled connected 2-switch, which keeps
    # degrees, colors and labels and is mostly a negative, on 13 to 150
    # nodes; 200 pairs in all.  Two colors and two labels leave refinement
    # work to do.  VF2 decides these quickly; on uncolored 150-node
    # negatives it does not.
    verdicts = []
    for seed in range(25 * block, 25 * block + 25):
        n = random.Random(seed).randint(13, 150)
        g = _recolored(random_ternary_graph(n, seed), seed, 2, 2)
        for other in (g, _two_switch(g, seed)):
            h = random_relabeling(other, seed)[0]
            got = is_isomorphic(g, h, want_mapping=True)
            assert got.isomorphic == _vf2_isomorphic(g, h), seed
            assert not got.isomorphic or is_graph_isomorphism(g, h, got.mapping)
            verdicts.append(got.isomorphic)
    assert verdicts.count(False) >= 20


def _path(n: int) -> LabeledGraph:
    return LabeledGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def _ladder(k: int, moebius: bool = False) -> LabeledGraph:
    """Circular ladder on 2k nodes, or with moebius=True its twisted form."""
    edges = [(i, k + i) for i in range(k)]
    edges += [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(k - 1, k), (0, 2 * k - 1)] if moebius else [(k - 1, 0), (2 * k - 1, k)]
    return LabeledGraph(range(2 * k), edges)


def _tree(n: int, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return LabeledGraph(range(n), edges)


def _profile_cases():
    # Paths p-x-a-b-y-q, x and y colored: every level has the same colors,
    # labels and steps, but x's leaf edge has label 2 in one and 1 in the
    # other, so only the pairing of labels with steps tells them apart.
    colors = {0: 0, 1: 0, 2: 1, 3: 2, 4: 0, 5: 0}
    yield (
        "label-step-pairing",
        LabeledGraph(colors, {(0, 1): 0, (0, 2): 1, (1, 3): 2, (2, 4): 2, (3, 5): 1}),
        LabeledGraph(colors, {(0, 1): 0, (1, 2): 2, (0, 3): 1, (2, 4): 1, (3, 5): 2}),
    )
    for seed in range(6):
        g = random_ternary_graph(30 + 7 * seed, seed)
        h, _ = random_relabeling(g, seed + 40)
        yield f"relabel-{seed}", g, h
        yield f"other-{seed}", g, random_ternary_graph(30 + 7 * seed, seed + 90)
        c = _recolored(g, seed, 3, 3)
        yield f"colored-{seed}", c, random_relabeling(c, seed)[0]
        yield f"colored-other-{seed}", c, _recolored(g, seed + 7, 3, 3)
        t = _tree(25 + seed, seed)
        yield f"tree-path-{seed}", t, _path(25 + seed)
        yield f"tree-{seed}", t, _tree(25 + seed, seed + 50)
        yield f"path-{seed}", _path(9 + seed), _path(9 + seed)
        cubic = degree_sequence_graph([3] * (40 + 2 * seed), seed)
        yield f"cubic-switch-{seed}", cubic, random_relabeling(_two_switch(cubic, seed), seed)[0]
        ladder = _ladder(8 + seed)
        yield f"ladder-{seed}", ladder, random_relabeling(ladder, seed)[0]
        for name, colored in (("colors", _recolored(ladder, seed, 2, 1)),
                              ("labels", _recolored(ladder, seed, 1, 2))):
            yield f"ladder-{name}-{seed}", colored, random_relabeling(colored, seed)[0]
        yield f"ladder-moebius-{seed}", ladder, _ladder(8 + seed, moebius=True)


    # Small unrelated graphs and small cubic switches share long profile
    # prefixes, so they tell apart the three step values.
    for seed in range(160):
        n = 6 + seed % 10
        yield f"small-{seed}", random_ternary_graph(n, seed), random_ternary_graph(n, seed + 500)
    for seed in range(12):
        cubic = degree_sequence_graph([3] * (8 + 2 * (seed % 6)), seed)
        yield f"small-cubic-switch-{seed}", cubic, _two_switch(cubic, seed)
    # One small graph under two random colorings, or two random labelings.
    for seed in range(60):
        base = random_ternary_graph(6 + seed % 10, seed)
        for name, colors, labels in (("colors", 2, 1), ("labels", 1, 2)):
            yield (f"small-{name}-{seed}", _recolored(base, seed, colors, labels),
                   _recolored(base, seed + 1000, colors, labels))


@pytest.mark.parametrize("name,g1,g2", list(_profile_cases()))
def test_profile_filter_matches_reference(name, g1, g2):
    assert filtered(g1, g2) == reference_filtered(g1, g2)


def test_profile_tables_match_dict_reference():
    # Byte for byte, over every case of the filter tests and graphs with
    # scattered ids; the tables' only consumer is the walk, whose codes the
    # filter tests check against the per-edge reference.
    cases = [(g1, g2) for _, g1, g2 in _profile_cases()]
    g = _recolored(random_ternary_graph(30, 1), 1, 3, 3)
    cases.append((g, g.relabeled({v: 1000 - 7 * v for v in g.node_ids})))
    for g1, g2 in cases:
        for tab, (index, nbr, labels, base) in zip(core._profile_tables(g1, g2),
                                                   reference_profile_tables(g1, g2)):
            assert tab.ids.tolist() == list(index)
            for got, want in ((tab.nbr, nbr), (tab.labels, labels), (tab.base, base)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_ids_and_colors_beyond_64_bits():
    # The array views hold such values with object dtype; the decision and
    # the generators are those of the same graph with small values.
    g = _recolored(random_ternary_graph(24, 5), 5, 3, 2)
    shift = {v: v + 2**64 for v in g.node_ids}
    big = LabeledGraph(
        {shift[v]: c * 2**70 for v, c in g.colors().items()},
        {(shift[u], shift[v]): lab for (u, v), lab in g.edges().items()},
    )
    h, _ = random_relabeling(big, 6)
    res = is_isomorphic(big, h, want_mapping=True)
    assert res.isomorphic and is_graph_isomorphism(big, h, res.mapping)
    e = g.sorted_edges()[0]
    small_gens = aut_e_generators(g, e).generators
    assert aut_e_generators(big, (shift[e[0]], shift[e[1]])).generators == small_gens


def test_profile_filter_matches_reference_from_every_edge():
    # Rooted anywhere, including edges whose profile has a different
    # number of levels than most candidates'.
    g = _recolored(random_ternary_graph(24, 3), 3, 2, 2)
    h = random_relabeling(g, 8)[0]
    for e1 in g.sorted_edges():
        assert filtered(g, h, e1) == reference_filtered(g, h, e1)
    t = _tree(20, 1)
    for e1 in t.sorted_edges():
        assert filtered(t, _path(20), e1) == reference_filtered(t, _path(20), e1)


@pytest.mark.parametrize("seed", range(8))
def test_profile_filter_keeps_the_image_of_e1(seed):
    g = _recolored(random_ternary_graph(40 + seed, seed), seed, 1 + seed % 3, 1 + seed % 2)
    h, mapping = random_relabeling(g, seed)
    e1 = g.sorted_edges()[0]
    image = tuple(sorted((mapping[e1[0]], mapping[e1[1]])))
    assert image in filtered(g, h, e1)


def test_profile_filter_blocks_give_the_same_edges(monkeypatch):
    cases = [(g1, g2) for _, g1, g2 in _profile_cases()]
    whole = [filtered(g1, g2) for g1, g2 in cases]
    assert any(len(c) > 1 for c in whole)
    for cells in (1, 40, 100):  # one candidate per block, then a few
        monkeypatch.setattr(core, "_PROFILE_CELLS", cells)
        assert [filtered(g1, g2) for g1, g2 in cases] == whole


def _spy_count_stage(monkeypatch):
    """Record [levels counted, rows in, rows out] for every `_count_stage` call."""
    calls = []
    grow, stage = core._grow_balls, core._count_stage

    def counting_grow(*args):
        calls[-1][0] += 1
        grow(*args)

    def recording_stage(t1, e1, t2, candidates):
        calls.append([0, len(candidates), None])
        live = stage(t1, e1, t2, candidates)
        calls[-1][2] = len(live)
        return live

    monkeypatch.setattr(core, "_grow_balls", counting_grow)
    monkeypatch.setattr(core, "_count_stage", recording_stage)
    return calls


def _distances(g: LabeledGraph) -> tuple[dict, np.ndarray]:
    """Node index and all-pairs BFS distances of g, n where unreachable."""
    index = {v: i for i, v in enumerate(g.node_ids)}
    n = len(index)
    slots = [[] for _ in range(n)]
    for u, v in g.sorted_edges():
        slots[index[u]].append(index[v])
        slots[index[v]].append(index[u])
    # Absent slots point at column n, which no source reaches.
    nbr = np.array([s + [n] * (3 - len(s)) for s in slots])
    reach = np.eye(n, n + 1, dtype=bool)
    far = np.full((n, n), n)
    d = 0
    while reach.any():
        far[reach[:, :n]] = d
        reach[:, :n] = reach[:, nbr].any(axis=2) & (far == n)
        d += 1
    return index, far


def _replayed_count_stage(g1, g2) -> tuple[int, int, int]:
    """Levels the count stage counts on `filtered(g1, g2)` and rows it leaves,
    then the levels a stage that stopped at its cost rule alone would count.

    Replays the stop rule from each candidate's level sizes, taken from
    distance matrices.  A level pays while live rows × nodes e1 has not
    reached is at least e1's remaining levels × (n+1)·⌈n/64⌉ words; it is
    counted while some row is live and it pays or the level before dropped
    a row.
    """
    e1 = g1.sorted_edges()[0]
    index1, far1 = _distances(g1)
    index2, far2 = _distances(g2)
    n = g2.n_nodes
    table = (n + 1) * -(-n // 64)
    near1 = np.minimum(far1[index1[e1[0]]], far1[index1[e1[1]]])
    depth = int(near1[near1 < g1.n_nodes].max()) + 1
    ends = np.array([(index2[a], index2[b]) for a, b in _candidates(g1, g2, e1)])
    near = np.minimum(far2[ends[:, 0]], far2[ends[:, 1]])
    replays = []
    for drop_aware in (True, False):
        live, dropped, levels = near, False, 0
        for d in range(1, depth):
            pays = len(live) * (n - np.count_nonzero(near1 < d)) >= (depth - d) * table
            if not len(live) or not (pays or drop_aware and dropped):
                break
            levels += 1
            keep = np.count_nonzero(live <= d, axis=1) == np.count_nonzero(near1 <= d)
            dropped = not keep.all()
            live = live[keep]
        replays.append((levels, len(live)))
    return *replays[0], replays[1][0]


def _count_stage_cases():
    # Cubic 2-switches leave early levels alike and differ further out.  A
    # circular ladder is vertex-transitive, and a tree against a path has
    # another depth from every edge.
    for n in (64, 128, 256):
        cubic = degree_sequence_graph([3] * n, n)
        for colors in (1, 2, 3):
            g = _recolored(cubic, n + colors, colors, 1)
            yield f"cubic-switch-{n}-{colors}", g, random_relabeling(_two_switch(g, n), n)[0]
    for k in (24, 32):
        ladder = _ladder(k)
        yield f"ladder-{k}", ladder, random_relabeling(ladder, k)[0]
    yield "ladder-moebius-32", _ladder(32), _ladder(32, moebius=True)
    yield "tree-path-64", _tree(64, 3), _path(64)
    # A positive keeps its true row live to the end, so the stage stops at
    # the first level that drops nothing and does not pay.
    for n in (256, 512):
        cubic = degree_sequence_graph([3] * n, n)
        for colors in (1, 3):
            g = _recolored(cubic, n + colors, colors, 1)
            yield f"cubic-relabel-{n}-{colors}", g, random_relabeling(g, n)[0]
    for seed in range(4):
        g = random_ternary_graph(128, seed)
        yield f"relabel-128-{seed}", g, random_relabeling(g, seed)[0]
        yield f"other-128-{seed}", g, random_ternary_graph(128, seed + 50)


@pytest.mark.parametrize("name,g1,g2", list(_count_stage_cases()))
def test_count_stage_keeps_the_walks_survivors(monkeypatch, name, g1, g2):
    calls = _spy_count_stage(monkeypatch)
    assert filtered(g1, g2) == reference_filtered(g1, g2)
    [(levels, rows_in, rows_out)] = calls
    assert levels > 0, "the count stage did not run"
    # The levels counted and the rows left are the stop rule's, replayed
    # from distance matrices; on positives the rule counts past the levels
    # that pay, since the levels before dropped rows.
    replayed_levels, replayed_rows, cost_rule_levels = _replayed_count_stage(g1, g2)
    assert (levels, rows_out) == (replayed_levels, replayed_rows)
    if "relabel" in name:
        assert levels > cost_rule_levels
    if name.startswith("ladder-") and "moebius" not in name:
        assert rows_out == rows_in
    if name.startswith("tree-path"):
        assert rows_out == 0


def test_count_stage_stays_off_where_it_does_not_pay_or_fit(monkeypatch):
    calls = _spy_count_stage(monkeypatch)
    g = degree_sequence_graph([3] * 64, 64)
    h = random_relabeling(_two_switch(g, 64), 64)[0]
    # Two rows of a 64-node pair: walking them costs less than a level of
    # 65-word ball updates.
    t1, t2 = core._profile_tables(g, h)
    ends = np.searchsorted(t2.ids, h.sorted_edges()[:2])
    list(core._profile_filter(t1, np.searchsorted(t1.ids, g.sorted_edges()[0]), t2, ends))
    # 768 rows against 129 levels of 4,104-word ball updates.
    ladder = _ladder(256)
    filtered(ladder, random_relabeling(ladder, 1)[0])
    assert calls == [[0, 2, 2], [0, 768, 768]]
    # The 64-node pair's stage takes 4 tables of 65 words and a block of
    # one row's two balls: 2,096 bytes.
    want = reference_filtered(g, h)
    for cells, runs in ((2095, False), (2096, True)):
        monkeypatch.setattr(core, "_PROFILE_CELLS", cells)
        calls.clear()
        assert filtered(g, h) == want
        assert (calls[0][0] > 0) == runs


def _spy_profile_walk(monkeypatch):
    """Record the number of rows of every `_profile_walk` call."""
    walked = []
    walk = core._profile_walk

    def recording_walk(tab, ends, alive):
        walked.append(len(ends))
        return walk(tab, ends, alive)

    monkeypatch.setattr(core, "_profile_walk", recording_walk)
    return walked


def test_count_stage_cost_pin(monkeypatch):
    # Rows of a 256-node cubic 2-switch pair handed to the signature walk:
    # e1's one row, then the candidate rows the count stage leaves of all
    # 384 edges.  The walk alone would take all 384.
    g = degree_sequence_graph([3] * 256, 256)
    h = random_relabeling(_two_switch(g, 256), 256)[0]
    walked = _spy_profile_walk(monkeypatch)
    assert filtered(g, h) == []
    assert walked == [1, 1]


def test_count_stage_cost_pin_on_switch_pairs(monkeypatch):
    # Eight cubic 2-switch pairs of 128 to 512 nodes, 4,128 candidate rows.
    # The stage counts on after every level that drops a row: 50 levels,
    # and the walk gets e1's row of each pair and 26 candidate rows.  The
    # cost rule alone would count 35 levels and leave the walk 102.
    walked = _spy_profile_walk(monkeypatch)
    calls = _spy_count_stage(monkeypatch)
    for k, n in enumerate((128, 192, 256, 320, 384, 448, 512, 512)):
        g = degree_sequence_graph([3] * n, n + k)
        filtered(g, random_relabeling(_two_switch(g, n), n)[0])
    assert sum(rows_in for _, rows_in, _ in calls) == 4128
    assert sum(levels for levels, _, _ in calls) == 50
    assert sum(walked) == 8 + 26


def test_is_isomorphic_runs_towers_block_by_block(monkeypatch):
    # Two accepted pairings fail their towers before the third succeeds; a
    # positive stops there, whatever the blocks.
    g = degree_sequence_graph([3] * 10, 30)
    h, _ = random_relabeling(g, 30)
    towers = []

    def recording_build_x(a1, a2, e1, e2):
        towers.append(tuple(a2.ids[e2].tolist()))
        return build_x(a1, a2, e1, e2)

    monkeypatch.setattr(core, "build_x", recording_build_x)
    calls = {}
    for cells in (core._PROFILE_CELLS, 11):  # one block, then one row per block
        monkeypatch.setattr(core, "_PROFILE_CELLS", cells)
        towers.clear()
        res = is_isomorphic(g, h, want_mapping=True)
        assert res.isomorphic and is_graph_isomorphism(g, h, res.mapping)
        calls[cells] = list(towers)
    first, rowwise = calls.values()
    assert first == rowwise == reference_filtered(g, h)[:3]


# -- orbit pruning of the candidate pairings against the unpruned loop --------


def unpruned_decision(g1: LabeledGraph, g2: LabeledGraph):
    """(verdict, mapping) of `is_isomorphic` with no orbit pruning.

    e1 and its candidates come from the joint refinement
    (`core._first_edge_candidates`).  Every candidate the per-edge reference
    filter keeps runs its splice tower, in sorted order, until one
    succeeds; the witness is read back as `is_isomorphic` reads it.
    """
    if not core._pretests_pass(g1, g2):
        return False, None
    a1, a2, n1 = g1.arrays, g2.arrays, g1.n_nodes
    selected = core._first_edge_candidates(*core._profile_tables(g1, g2))
    if selected is None:
        return False, None
    e1, candidates = selected
    p1 = ReferenceLayerProfile(g1, tuple(a1.ids[e1].tolist()))
    for e2 in candidates:
        if not reference_profiles_match(p1, ReferenceLayerProfile(g2, tuple(a2.ids[e2].tolist()))):
            continue
        joined = build_x(a1, a2, e1, e2)
        e = (n1, n1 + 1)
        dec = layer_sequence(refine(joined, e), e)
        result = core._run_tower(dec, swap=True)
        if result is not None:
            witness = core._contract(dec, result[1][None])[0]
            return True, dict(zip(a1.ids.tolist(), a2.ids[witness[:n1] - (n1 + 2)].tolist()))
    return False, None


def _bridged_cfi(base: list, twisted) -> LabeledGraph:
    """The plain and the `twisted` CFI graph over `base`, joined by one edge.

    The first edge of each part is subdivided and the two new nodes are
    joined.  The parts are not isomorphic, yet an edge of one and its
    counterpart in the other share their layer profile, so a pairing into
    the wrong part passes the filter and fails its tower.
    """
    plain, other = _cfi(base), _cfi(base, twisted)
    shift = plain.n_nodes
    edges = [
        [(u + k, v + k) for u, v in part.sorted_edges()] for k, part in ((0, plain), (shift, other))
    ]
    s, t = 2 * shift, 2 * shift + 1
    (u1, v1), (u2, v2) = edges[0].pop(0), edges[1].pop(0)
    joins = [(u1, s), (s, v1), (u2, t), (t, v2), (s, t)]
    return LabeledGraph(range(2 * shift + 2), edges[0] + edges[1] + joins)


def _pruning_cases():
    for name, base in (("k4", K4), ("cube", CUBE)):
        for twists in (1, 2, 3, 4):
            twisted = _cfi(base, random.Random(twists).sample(range(len(base)), twists))
            yield f"cfi-{name}-{twists}", _cfi(base), random_relabeling(twisted, 9)[0]
    for seed in (2, 3):
        bridged = _bridged_cfi(K4, {5})
        yield f"bridged-{seed}", bridged, random_relabeling(bridged, seed)[0]
    # Ids, colors and labels past 64 bits: object-dtype views reach the pruning.
    big = [
        LabeledGraph({v + 2**64: 2**70 for v in g.node_ids},
                     {(u + 2**64, v + 2**64): 2**65 for u, v in g.sorted_edges()})
        for g in (_cfi(K4), random_relabeling(_cfi(K4, {0}), 5)[0])
    ]
    yield "cfi-k4-1-big", *big
    for n_nodes in (15, 31, 63):
        tree = complete_binary_tree(n_nodes)
        yield f"tree-{n_nodes}", tree, random_relabeling(tree, n_nodes)[0]
    for seed in range(4):
        cubic = degree_sequence_graph([3] * (10 + 2 * seed), seed)
        yield f"cubic-{seed}", cubic, random_relabeling(cubic, seed)[0]
        yield f"cubic-other-{seed}", cubic, degree_sequence_graph([3] * (10 + 2 * seed), seed + 50)


@pytest.mark.parametrize("g1,g2", [pytest.param(*pair, id=name) for name, *pair in _pruning_cases()])
def test_pruned_decision_equals_unpruned_loop(g1, g2):
    res = is_isomorphic(g1, g2, want_mapping=True)
    assert (res.isomorphic, res.mapping) == unpruned_decision(g1, g2)


def test_cube_negative_builds_at_most_24_towers(monkeypatch):
    # One tower per orbit of the candidate edges, not one per candidate:
    # the unpruned loop builds 96 here.
    towers = []
    real_build_x = core.build_x

    def counted_build_x(*args):
        towers.append(args)
        return real_build_x(*args)

    monkeypatch.setattr(core, "build_x", counted_build_x)
    twisted = random_relabeling(_cfi(CUBE, {0}), 9)[0]
    assert not is_isomorphic(_cfi(CUBE), twisted).isomorphic
    assert 0 < len(towers) <= 24


def test_pruning_skips_a_failed_orbit_before_the_witness(monkeypatch):
    # The unpruned loop builds three towers here: two pairings into the
    # twisted part fail, then the witness.  The two failures share an
    # orbit, so the pruned decision builds only the first of them.
    bridged = _bridged_cfi(K4, {5})
    h = random_relabeling(bridged, 3)[0]
    towers = []
    real_build_x = core.build_x
    monkeypatch.setattr(core, "build_x", lambda *args: towers.append(args) or real_build_x(*args))
    assert is_isomorphic(bridged, h).isomorphic
    assert len(towers) == 2 and len(reference_filtered(bridged, h)) > 2


@pytest.mark.parametrize("check", ["automorphism", "candidate"])
def test_corrupted_pruning_generator_raises(monkeypatch, check):
    # A generator that is not an automorphism would merge orbits that differ
    # and skip a pairing that might succeed, a false negative no witness
    # check sees; the pruning refuses it.  With the automorphism check off,
    # the candidate check still catches this one.
    real_tower = core._tower

    def corrupted_tower(view, e, swap):
        rows = real_tower(view, e, swap)
        if swap:
            return rows
        bad = np.arange(rows.shape[1], dtype=np.int32)
        bad[[0, 1]] = 1, 0
        return np.vstack([rows, bad])

    monkeypatch.setattr(core, "_tower", corrupted_tower)
    if check == "candidate":
        monkeypatch.setattr(core, "_check_automorphisms", lambda view, rows: None)
    twisted = random_relabeling(_cfi(K4, {0}), 5)[0]
    with pytest.raises(AssertionError, match=check):
        is_isomorphic(_cfi(K4), twisted)


# -- the first edge and its candidates from the joint refinement ---------------


def _selection(g1: LabeledGraph, g2: LabeledGraph):
    """`core._first_edge_candidates` on ids: e1 and the set of candidate edges."""
    e1, candidates = core._first_edge_candidates(*core._profile_tables(g1, g2))
    ids1, ids2 = g1.arrays.ids, g2.arrays.ids
    return tuple(ids1[e1].tolist()), {tuple(ids2[e2].tolist()) for e2 in candidates}


def test_joint_histograms_decide_a_colored_negative(monkeypatch):
    # Same degrees, colors and labels, but only in h is a color-1 end next
    # to a color-1 node: refinement of the union separates the two sides,
    # so no profile is walked and no tower is built.
    edges = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]
    g = LabeledGraph({0: 1, 1: 0, 2: 0, 3: 1, 4: 2, 5: 1}, edges)
    h, _ = random_relabeling(LabeledGraph({0: 1, 1: 1, 2: 0, 3: 0, 4: 2, 5: 1}, edges), 4)
    assert core._pretests_pass(g, h)
    assert core._first_edge_candidates(*core._profile_tables(g, h)) is None

    def refuse(*args):
        raise AssertionError("the joint histograms decide this pair")

    monkeypatch.setattr(core, "_profile_filter", refuse)
    monkeypatch.setattr(core, "_tower", refuse)
    assert not is_isomorphic(g, h).isomorphic
    assert not is_isomorphic(h, g).isomorphic


@pytest.mark.parametrize("seed", range(4))
def test_uniform_cubic_candidates_are_every_same_label_edge(seed):
    # One color and one label: refinement splits nothing, so e1 is the
    # smallest edge and every edge of the second graph is a candidate.
    degrees = [3] * (10 + 2 * seed)
    g = degree_sequence_graph(degrees, seed)
    for h in (random_relabeling(g, seed)[0], degree_sequence_graph(degrees, seed + 50)):
        e1, candidates = core._first_edge_candidates(*core._profile_tables(g, h))
        assert tuple(g.arrays.ids[e1].tolist()) == g.sorted_edges()[0]
        assert [tuple(h.arrays.ids[e2].tolist()) for e2 in candidates] == h.sorted_edges()


@pytest.mark.parametrize("seed", range(6))
def test_selected_class_is_invariant_under_relabeling(seed):
    # The class depends on the graphs, not on their ids: relabelling the
    # second graph moves the candidates with it and keeps e1, and
    # relabelling the first keeps the candidates and picks e1 in the class.
    g = _recolored(random_ternary_graph(30, seed), seed, 2, 2)
    h, mapping = random_relabeling(g, seed)
    e1, cls = _selection(g, g)
    assert e1 in cls

    def moved(e, to):
        return tuple(sorted(to[v] for v in e))

    assert _selection(g, h) == (e1, {moved(e, mapping) for e in cls})
    first, same = _selection(h, g)
    assert same == cls and moved(first, {y: x for x, y in mapping.items()}) in cls


def test_lone_candidate_skips_the_profile_walk(monkeypatch):
    # Refinement leaves one candidate here: its tower runs with no walk and
    # finds the witness.
    g = random_ternary_graph(128, 1)
    h, _ = random_relabeling(g, 1001)
    assert len(_selection(g, h)[1]) == 1
    towers = []
    real_build_x = core.build_x
    monkeypatch.setattr(core, "build_x", lambda *args: towers.append(args) or real_build_x(*args))
    monkeypatch.setattr(core, "_profile_filter", lambda *args: pytest.fail("walked one candidate"))
    res = is_isomorphic(g, h, want_mapping=True)
    assert res.isomorphic and is_graph_isomorphism(g, h, res.mapping) and len(towers) == 1
