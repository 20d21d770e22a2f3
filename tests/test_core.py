"""Tests for the generator pipeline and the isomorphism drivers."""

import hashlib
import json
import random

import numpy as np
import pytest

from trigiso import core
from trigiso.coloraut import annotate, build_structure_tree, cb, cb_tree
from trigiso.core import AutResult, aut_e_generators, is_isomorphic, lift
from trigiso.graphs import GraphError, LabeledGraph, build_x, is_graph_isomorphism, validate
from trigiso.harness import (
    degree_sequence_graph,
    oracle_aut_e,
    oracle_isomorphic,
    random_relabeling,
    random_ternary_graph,
)
from trigiso.layers import LayerDecomposition, layer_sequence
from trigiso.perm import Coset, Permutation, enumerate_group, group_order, smoothness_violations
from trigiso.phylo import phylo_isomorphic, random_network

from test_graphs import EX1_A, EX1_B, EX2_A, EX2_B, graph_from_edges
from test_layers import decide_tower_cases, reference_b_set


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
    dec = layer_sequence(g, (0, 1))
    ident = Permutation.identity(dec.n)
    assert lift(dec, 1, ident) == ident
    # two-leaf fiber, parent fixed: leaves map in sorted order (identically)
    assert lift(dec, 1, ident)(2) == 2 and lift(dec, 1, ident)(3) == 3


def test_lift_path_flip():
    g = LabeledGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    dec = layer_sequence(g, (1, 2))
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


def complete_binary_tree(n_nodes):
    return LabeledGraph(
        range(n_nodes),
        [(i, c) for i in range(n_nodes) for c in (2 * i + 1, 2 * i + 2) if c < n_nodes],
    )


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
                build_x(g1, g2, e1, e2)
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
    fibers: dict = {}
    for v in dec.fresh.get(r + 1, []):
        fibers.setdefault((dec.nbr_map[v], dec.colors[v]), []).append(v)
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


def _coset(gens, rep) -> Coset:
    return Coset(Permutation(rep), tuple(Permutation(g) for g in gens))


def _spy_levels(monkeypatch) -> list:
    """Record (decomposition, r, input rows) of every level the tower runs."""
    levels = []
    real = LayerDecomposition.b_set

    def spy(dec, r, images):
        levels.append((dec, r, images))
        return real(dec, r, images)

    monkeypatch.setattr(LayerDecomposition, "b_set", spy)
    return levels


@pytest.mark.parametrize("n", [24, 40, 64])
@pytest.mark.parametrize("seed", range(3))
def test_extend_and_lift_match_frozenset_references(monkeypatch, n, seed):
    levels = _spy_levels(monkeypatch)
    real_solve = core.cb_images
    real_lift = LayerDecomposition.lift_image

    def checked_solve(gens, rep, points, colors):
        dec, r, images = levels[-1]
        elems = reference_b_set(dec, r, images)
        assert elems
        got = [row.tolist() for row in [*gens, rep]]
        assert got == [reference_extend(dec, elems, Permutation(p)) for p in images]
        return real_solve(gens, rep, points, colors)

    def checked_lift(dec, r, images):
        out = real_lift(dec, r, images)
        for row, sigma in zip(out, images):
            assert Permutation(row) == reference_lift(dec, r, Permutation(sigma))
        return out

    monkeypatch.setattr(core, "cb_images", checked_solve)
    monkeypatch.setattr(LayerDecomposition, "lift_image", checked_lift)
    decide_tower_cases(n, seed)
    assert len(levels) > 3


def test_lift_raises_on_fiber_mismatch():
    # Swapping the base endpoints of this path sends node 2's neighbor set
    # {(0, 7)} to {(1, 7)}, which no entering node has.
    g = LabeledGraph(range(4), {(0, 1): 0, (0, 2): 7, (1, 3): 8})
    dec = layer_sequence(g, (0, 1))
    with pytest.raises(GraphError):
        lift(dec, 1, Permutation.transposition(4, 0, 1))
    # Same neighbor-set shape, but fibers of sizes 2 and 1.
    g = LabeledGraph(range(5), {(0, 1): 0, (0, 2): 7, (0, 3): 7, (1, 4): 7})
    dec = layer_sequence(g, (0, 1))
    with pytest.raises(GraphError):
        lift(dec, 1, Permutation.transposition(5, 0, 1))


@pytest.mark.parametrize("tree_reference", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_level_solve_over_elements_equals_solve_with_nodes(monkeypatch, tree_reference, seed):
    # The nodes of X_{r-1}, given non-neutral colors and added to the
    # points, change no level's coset: rep and every generator agree with
    # `cb` over the enlarged points, or with the tree-guided reference
    # `cb_tree` when `tree_reference` is set.
    levels = _spy_levels(monkeypatch)
    solved = []
    real = core.cb_images

    def checked(gens, rep, points, colors):
        out, changed = real(gens, rep, points, colors)
        got = None if out is None else _coset(*out)
        dec, r = levels[-1][:2]
        n = dec.n
        coset = _coset(gens, rep)
        colors = [("n", c) for c in dec.colors] + colors[n:].tolist()
        points = [v for v in range(n) if dec.level_of[v] <= r - 1] + points.tolist()
        if tree_reference:
            root = build_structure_tree(points, coset.sub)
            annotate(root, colors, neutral=0)
            want = cb_tree(coset, root, colors)
        else:
            want = cb(coset, points, colors)
        assert _same_coset(got, want)
        solved.append(r)
        return out, changed

    monkeypatch.setattr(core, "cb_images", checked)
    decide_tower_cases(40, seed)
    assert solved


def test_node_color_check_raises():
    # The check reads the decomposition's node colors; giving the base
    # edge's endpoints different ones there makes the base swap (0 1), as
    # a generator or as the representative, move a node onto a node of
    # another color.
    g = LabeledGraph({0: 0, 1: 0, 2: 1, 3: 2}, [(0, 1), (0, 2), (0, 3)])
    dec = layer_sequence(g, (0, 1))
    core._run_tower(dec, swap=False)
    dec.node_colors = np.array([0, 3, 1, 2])
    with pytest.raises(AssertionError, match="color"):
        core._run_tower(dec, swap=False)
    with pytest.raises(AssertionError, match="color"):
        core._run_tower(dec, swap=True)


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
    return list(core._profile_filter(t1, e1, t2, _candidates(g1, g2, e1)))


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
    """A connected degree-preserving switch ab, cd -> ac, bd of g."""
    rng = random.Random(seed)
    edges = g.sorted_edges()
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) < 4 or g.has_edge(a, c) or g.has_edge(b, d):
            continue
        out = set(edges) - {(a, b), (c, d)} | {tuple(sorted(p)) for p in ((a, c), (b, d))}
        h = LabeledGraph(g.node_ids, out)
        if not validate(h):
            return h


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


def test_is_isomorphic_runs_towers_block_by_block(monkeypatch):
    # Two accepted pairings fail their towers before the third succeeds; a
    # positive stops there, whatever the blocks.
    g = degree_sequence_graph([3] * 10, 30)
    h, _ = random_relabeling(g, 30)
    towers = []

    def recording_build_x(g1, g2, e1, e2, **kw):
        towers.append(e2)
        return build_x(g1, g2, e1, e2, **kw)

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
