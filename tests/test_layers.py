"""Tests for the layer tower, the triangle rewrite, B_r closure, and kernels."""

import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trigiso import core, perm
from trigiso.core import aut_e_generators, is_isomorphic
from trigiso.graphs import (
    GADGET_LABEL,
    GraphError,
    LabeledGraph,
    build_x,
    format_graph_text,
    is_graph_isomorphism,
    parse_graph_text,
    validate,
)
from trigiso.harness import degree_sequence_graph, random_relabeling, random_ternary_graph
from trigiso.layers import LayerDecomposition, layer_sequence, refine
from trigiso.perm import Permutation, group_order
from trigiso.phylo import PhyloNetwork, phylo_isomorphic, random_network, reduce_to_colored

from graph_reference import graph_of_view
from tower_cases import (
    cfi_tower_cases, complete_binary_tree, decide_tower_cases, every_level, recorded_towers,
)
from tower_reference import (
    Level,
    WrittenOutTower,
    level_table,
    level_tables,
    lexsort_order,
    reference_layer_sequence,
    reference_refine,
    two_pass_b_set,
    working_graph,
    written_out,
)


def path4():
    return LabeledGraph(range(4), [(0, 1), (1, 2), (2, 3)])


def six_cycle():
    return LabeledGraph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def diamond_chain(k: int) -> LabeledGraph:
    # Diamonds t-l, t-r, l-b, r-b joined by edges b-t'; every diamond doubles
    # the number of shortest paths from the first edge to the nodes beyond it.
    edges = []
    for i in range(k):
        t, l, r, b = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(t, l), (t, r), (l, b), (r, b)]
        if i:
            edges.append((t - 1, t))
    return LabeledGraph(range(4 * k), edges)


def stacked_galls(k: int) -> PhyloNetwork:
    # Each gall x -> a -> h, x -> b -> h has equal sides; h's child is the
    # next gall's top, and a and b each carry one leaf.
    arcs, labels, top = [], {}, 0
    for i in range(k):
        a, b, h = top + 1, top + 2, top + 3
        arcs += [(top, a), (top, b), (a, h), (b, h), (a, top + 4), (b, top + 5)]
        labels.update({top + 4: f"a{i}", top + 5: f"b{i}"})
        arcs.append((h, top + 6))
        top += 6
    labels[top] = "end"
    return PhyloNetwork(arcs, labels)


def gadget_example():
    # v (node 5) has all three neighbors placed before it enters the tower.
    return LabeledGraph(
        range(6), [(0, 1), (0, 2), (1, 3), (1, 4), (5, 2), (5, 3), (5, 4)]
    )


def test_single_edge_tower():
    g = LabeledGraph([0, 1], [(0, 1)])
    dec = layer_sequence(g.arrays, (0, 1))
    assert dec.N == 1
    nodes, edges = written_out(dec).layer(1)
    assert nodes == frozenset({0, 1})
    assert edges == frozenset({frozenset({0, 1})})


def test_path_tower():
    dec = layer_sequence(path4().arrays, (1, 2))
    assert dec.N == 2
    assert dec.level.tolist() == [2, 1, 1, 2]
    tower = written_out(dec)
    nodes, edges = tower.layer(2)
    assert nodes == frozenset(range(4))
    assert len(edges) == 3
    assert tower.nbr_map[0] == frozenset({(1, 0)})
    assert tower.nbr_map[3] == frozenset({(2, 0)})


def test_six_cycle_tower():
    # Antipodal nodes 3 and 4 enter at level 3, each with a singleton
    # neighbor set; the edge between them is a cross edge of level 3 and
    # completes the tower at N = 4.
    dec = layer_sequence(six_cycle().arrays, (0, 1))
    assert dec.level.tolist() == [1, 1, 2, 3, 3, 2]
    assert dec.N == 4
    tower = written_out(dec)
    assert tower.nbr_map[3] == frozenset({(2, 0)})
    assert tower.nbr_map[4] == frozenset({(5, 0)})
    assert tower.cross.get(3) == {frozenset({3, 4}): 0}
    nodes3, edges3 = tower.layer(3)
    assert nodes3 == frozenset(range(6))
    assert frozenset({3, 4}) not in edges3
    nodes4, edges4 = tower.layer(4)
    assert frozenset({3, 4}) in edges4


def test_layers_monotone_and_exhaustive():
    for g, e in [(six_cycle(), (0, 1)), (path4(), (0, 1)), (gadget_example(), (0, 1))]:
        dec = layer_sequence(g.arrays, e)
        tower = written_out(dec)
        prev_nodes, prev_edges = tower.layer(1)
        first_level = {}
        for pair in prev_edges:
            first_level[pair] = 1
        for r in range(2, dec.N + 1):
            nodes, edges = tower.layer(r)
            assert prev_nodes <= nodes and prev_edges <= edges
            for pair in edges - prev_edges:
                first_level[pair] = r
                u, v = sorted(pair)
                if dec.level[u] == dec.level[v] and r > 1:
                    assert r == dec.level[u] + 1
            prev_nodes, prev_edges = nodes, edges
        assert prev_nodes == frozenset(range(dec.n))
        assert len(prev_edges) == len(dec.view.u)
        assert len(first_level) == len(dec.view.u)


def test_k4_has_no_gadget_nodes():
    # In K4 both non-base nodes enter at level 2 with only the two base
    # endpoints already placed, so no neighbor set reaches size 3; the
    # remaining edge is a cross edge.
    k4 = LabeledGraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    dec = layer_sequence(k4.arrays, (0, 1))
    assert working_graph(dec) == k4
    assert dec.owner.tolist() == [0, 1, 2, 3]
    tower = written_out(dec)
    assert all(len(f) <= 2 for f in tower.nbr_map.values())
    assert tower.cross.get(2) == {frozenset({2, 3}): 0}


def test_gadget_fires_and_is_valid():
    g = gadget_example()
    dec = layer_sequence(g.arrays, (0, 1))
    rewritten = working_graph(dec)
    assert rewritten.n_nodes == g.n_nodes + 2  # node 5 replaced by three corners
    problems = validate(rewritten)
    assert problems and all("reserved" in p for p in problems)
    assert max(rewritten.degree(v) for v in rewritten.node_ids) == 3
    gadget_edges = [
        e for e, lab in rewritten.edges().items() if lab == GADGET_LABEL
    ]
    assert gadget_edges == [(5, 6), (5, 7), (6, 7)]
    assert dec.owner.tolist() == [0, 1, 2, 3, 4, 5, 5, 5]
    assert all(len(f) <= 2 for f in written_out(dec).nbr_map.values())
    # corners inherit the replaced node's level and color
    for c in (5, 6, 7):
        assert dec.level[c] == 3
        assert dec.view.colors[c] == g.color(5)


def assert_working_view(dec: LayerDecomposition) -> None:
    """`dec.view` is a frozen view over ids 0..n-1 whose triangles carry `GADGET_LABEL`."""
    view, n = dec.view, dec.n
    assert not any(array.flags.writeable for array in view)
    assert np.array_equal(view.ids, np.arange(n))
    assert (view.u < view.v).all()
    assert np.array_equal(view.degrees, np.bincount(np.concatenate([view.u, view.v]), minlength=n))
    assert view.degrees.max() <= 3
    # Corners share their owner with two others; a triangle edge joins two
    # corners of one replaced node.
    corner = np.bincount(dec.owner)[dec.owner] == 3
    triangle = corner[view.u] & corner[view.v] & (dec.owner[view.u] == dec.owner[view.v])
    assert np.array_equal(view.labels == GADGET_LABEL, triangle)
    assert all("reserved" in p for p in validate(LabeledGraph._of(view)))


def test_working_graph_is_a_frozen_view():
    # Every tower of the recorded decisions, the CFI decisions and a few
    # network joins, refined splices included; the rewrite fires on some.
    cases = [cfi_tower_cases()] + [decide_tower_cases(40, seed) for seed in range(3)]
    for net in [random_network(33, seed=seed) for seed in range(3)] + [stacked_galls(8)]:
        twin = net.relabeled_nodes({v: 500 + v for v in net.nodes})
        cases.append({"network": recorded_towers(lambda: phylo_isomorphic(net, twin))})
    towers = [dec for case in cases for towers in case.values() for dec, _ in towers]
    for dec in towers:
        assert_working_view(dec)
    assert len(towers) > 60 and any(dec.n > dec.owner.max() + 1 for dec in towers)


def test_labels_past_64_bits_build_the_tower_of_their_ranks():
    # Node 5's three corner edges carry labels of 2^64 and more; the same
    # graph with those labels replaced by order-preserving small ones builds
    # the same tower, while the working graph reports the original labels.
    big = {e: 2**64 + lab for e, lab in {(2, 5): 2, (3, 5): 0, (4, 5): 1}.items()}
    small = {e: lab - 2**64 + 1 for e, lab in big.items()}
    plain = {e: 0 for e in gadget_example().sorted_edges() if 5 not in e}
    g_big, g_small = LabeledGraph(range(6), plain | big), LabeledGraph(range(6), plain | small)
    dec_big, dec_small = layer_sequence(g_big.arrays, (0, 1)), layer_sequence(g_small.arrays, (0, 1))
    assert dec_big.n == 8 and dec_big.owner.tolist() == dec_small.owner.tolist()
    big_levels, small_levels = level_tables(dec_big), level_tables(dec_small)
    for r in range(1, dec_big.N):
        for a, b in zip(big_levels[r], small_levels[r]):
            assert np.array_equal(a, b)
    to_small = {lab: small[e] for e, lab in big.items()}
    rewritten = working_graph(dec_big)
    assert sorted(rewritten.edges().values())[-3:] == sorted(big.values())
    assert {e: to_small.get(lab, lab) for e, lab in rewritten.edges().items()} == (
        working_graph(dec_small).edges()
    )
    assert {lab for lab in rewritten.edges().values() if lab > 0} == set(big.values())
    assert aut_e_generators(g_big, (0, 1)) == aut_e_generators(g_small, (0, 1))
    h, _ = random_relabeling(g_big, 3)
    res = is_isomorphic(g_big, h, want_mapping=True)
    assert res.isomorphic and is_graph_isomorphism(g_big, h, res.mapping)


@pytest.mark.parametrize(
    "colors", [[0, 0, 1, 1], [0, 0, 3, 3], [5, 5, 0, 0], [2**70, 2**70, 7, 7]],
    ids=["dense", "gap", "past-n", "past-64-bits"],
)
def test_color_ranks_are_dense(colors):
    # Colors dense from 0, as refinement gives them, are their own ranks;
    # colors with a gap, past the node count or past 64 bits are ranked.
    g = LabeledGraph(dict(enumerate(colors)), [(0, 1), (0, 2), (1, 3)])
    dec = layer_sequence(g.arrays, (0, 1))
    distinct = sorted(set(colors))
    assert dec.color_rank.tolist() == [distinct.index(c) for c in colors]
    assert dec.color_rank.dtype == np.int64 and dec.n_colors == len(distinct)


def test_build_checks_raise():
    # The tower does not validate; the entry points that build it do.
    disconnected = LabeledGraph(range(4), [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="disconnected"):
        aut_e_generators(disconnected, (0, 1))
    for e in ((0, 2), (2, 0), (0, 7), (-1, 1), (3, 2**70)):
        for build in (layer_sequence, refine):
            with pytest.raises(GraphError, match="not present"):
                build(path4().arrays, e)
    # 2^16 - 1 nodes and as many distinct labels: S = n·R passes 2^31.
    n = (1 << 16) - 1
    tree = LabeledGraph(range(n), {((c - 1) // 2, c): c for c in range(1, n)})
    with pytest.raises(GraphError, match="64-bit"):
        layer_sequence(tree.arrays, (0, 1))


def test_build_and_decision_leave_numpy_ma_unimported():
    # Plain np.unique imports numpy.ma, about 1.3 MB resident.
    code = (
        "import sys\n"
        "from trigiso import is_isomorphic\n"
        "from trigiso.harness import random_relabeling, random_ternary_graph\n"
        "from trigiso.layers import layer_sequence\n"
        "g = random_ternary_graph(64, 0)\n"
        "assert layer_sequence(g.arrays, g.sorted_edges()[0]).n > g.n_nodes\n"
        "assert is_isomorphic(g, random_relabeling(g, 1)[0], want_mapping=True)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_gadget_untouched_graph_returned_as_is():
    # No node of the six-cycle has three placed neighbors: the working graph
    # is the input itself.
    g = six_cycle()
    dec = layer_sequence(g.arrays, (0, 1))
    assert working_graph(dec) == g and dec.owner.tolist() == list(range(6))


def test_b_set_materializes_and_closes():
    dec = layer_sequence(path4().arrays, (1, 2))
    ident = Permutation.identity(dec.n)
    b, pos, colors = dec.b_set(1, ident.image[None])
    # r=1: no cross edges, two neighbor-set elements.
    want = written_out(dec).encode([frozenset({(1, 0)}), frozenset({(2, 0)})])
    assert b.tolist() == want.tolist()
    assert pos.tolist() == [[0, 1]] and colors.tolist() == level_table(dec, 1).colors.tolist()
    flip = Permutation([3, 2, 1, 0])
    b2, pos2, colors2 = dec.b_set(1, flip.image[None])
    assert b2.tolist() == b.tolist()  # the flip permutes the two elements
    # closure property: applying any generator keeps us inside B
    assert set(dec.move(flip.image[None], b2)[0].tolist()) == set(b2.tolist())
    assert pos2.tolist() == [[1, 0]] and colors2.tolist() == colors.tolist()


def test_b_set_closure_adds_orbit_images():
    dec = layer_sequence(six_cycle().arrays, (0, 1))
    cross_pair = int(written_out(dec).encode([frozenset({3, 4})])[0])
    swap = Permutation([1, 0, 5, 4, 3, 2])  # the reflection fixing the base edge
    assert cross_pair in dec.b_set(3, swap.image[None])[0].tolist()
    rogue = Permutation([0, 1, 2, 4, 3, 5])
    assert cross_pair in dec.b_set(3, rogue.image[None])[0].tolist()


def test_b_set_adds_unmaterialized_images():
    # Node 2 enters with neighbor set {(0, 5)}; moving 0 onto 1 gives the
    # unmaterialized set {(1, 5)}, which the closure adds.
    g = LabeledGraph(range(3), {(0, 1): 0, (0, 2): 5})
    dec = layer_sequence(g.arrays, (0, 1))
    swap = Permutation.transposition(3, 0, 1)
    want = written_out(dec).encode([frozenset({(0, 5)}), frozenset({(1, 5)})])
    keys, pos, colors = dec.b_set(1, swap.image[None])
    assert keys.tolist() == sorted(want.tolist())
    # The swap exchanges the two sets; the added one has the neutral color.
    assert pos.tolist() == [[1, 0]]
    assert colors.tolist() == [level_table(dec, 1).colors[0], 0]


def like_two_pass(got, dec, r, rows) -> bool:
    """Assert b_set's `got` equals `two_pass_b_set`, dtypes too; whether the closure grew."""
    want = two_pass_b_set(dec, r, rows)
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert (x == y).all()
    return len(got[0]) > len(level_table(dec, r).keys)


def test_b_set_equals_two_pass_on_rogue_rows():
    # The six-cycle's reflection and two rows that are no automorphisms:
    # one swaps the level-3 nodes, one moves node 2 onto 3, so the closure
    # adds the neighbor set {(3, 0)} to level 2 and the pair {2, 4} to
    # level 3, elements that the tower does not have.
    dec = layer_sequence(six_cycle().arrays, (0, 1))
    swap = [1, 0, 5, 4, 3, 2]
    rogue = [0, 1, 2, 4, 3, 5]
    grows = [0, 1, 3, 2, 4, 5]
    for r in range(1, dec.N):
        for perms in ([swap], [rogue], [swap, rogue], [grows], [swap, grows]):
            rows = np.array(perms, dtype=np.int32)
            grew = like_two_pass(dec.b_set(r, rows), dec, r, rows)
            assert grew == (r >= 2 and grows in perms)
    none = np.empty((0, dec.n), dtype=np.int32)
    assert like_two_pass(dec.b_set(2, none), dec, 2, none) is False


@pytest.mark.parametrize("case", ["decisions-0", "decisions-1", "cfi"])
def test_b_set_equals_two_pass_on_every_level_solve(monkeypatch, case):
    # The level solves of the decisions, then every level of their towers.
    # The CFI towers grow about half their closures.
    calls = []
    real = LayerDecomposition.b_set

    def checked(self, r, images):
        out = real(self, r, images)
        calls.append(like_two_pass(out, self, r, images))
        return out

    monkeypatch.setattr(LayerDecomposition, "b_set", checked)
    every_level(cfi_tower_cases() if case == "cfi" else decide_tower_cases(40, int(case[-1])))
    assert len(calls) > 3
    assert any(calls)


def test_encode_orders_like_sorted_member_tuples():
    dec = layer_sequence(gadget_example().arrays, (0, 1))
    labeled = [
        frozenset({(2, 0)}),
        frozenset({(1, 0), (3, 0)}),
        frozenset({(1, 0)}),
        frozenset({(3, 0), (4, 0)}),
    ]
    pairs = [frozenset({3, 4}), frozenset({2, 3})]
    keys = written_out(dec).encode(labeled + pairs).tolist()
    by_key = [e for _, e in sorted(zip(keys, labeled + pairs), key=lambda t: t[0])]
    want = sorted(labeled, key=lambda s: tuple(sorted(s)))
    want += sorted(pairs, key=lambda s: tuple(sorted(s)))
    assert by_key == want
    assert len(set(keys)) == len(keys)


def reference_b_set(dec, r, images) -> list:
    """Frozenset closure of the materialized elements of level r.

    `images` holds node images, one permutation per row.

    Neighbor sets (frozensets of (node, label) pairs) come first, then node
    pairs, each block sorted by its sorted member tuples.
    """
    tower = written_out(dec)
    f_elems = {tower.nbr_map[v] for v in tower.fresh.get(r + 1, [])}
    e_elems = set(tower.cross.get(r, {}))
    queue = list(f_elems) + list(e_elems)
    while queue:
        elem = queue.pop()
        labeled = isinstance(next(iter(elem)), tuple)
        for g in images:
            if labeled:
                img = frozenset((int(g[w]), lab) for w, lab in elem)
                pool = f_elems
            else:
                img = frozenset(int(g[w]) for w in elem)
                pool = e_elems
            if img not in pool:
                pool.add(img)
                queue.append(img)
    return sorted(f_elems, key=lambda s: tuple(sorted(s))) + sorted(
        e_elems, key=lambda s: tuple(sorted(s))
    )


@pytest.mark.parametrize("n", [24, 40, 64])
@pytest.mark.parametrize("seed", range(3))
def test_b_set_matches_frozenset_reference(monkeypatch, n, seed):
    # Checked on the levels the decisions run, then on every level of the
    # same towers, which the class swap and the aut tower's identity skip
    # leave out.
    calls = []
    real = LayerDecomposition.b_set

    def checked(self, r, images):
        out = real(self, r, images)
        want = written_out(self).encode(reference_b_set(self, r, images))
        assert out[0].tolist() == want.tolist()
        calls.append(r)
        return out

    monkeypatch.setattr(LayerDecomposition, "b_set", checked)
    towers = decide_tower_cases(n, seed)
    assert calls
    every_level(towers)
    assert len(calls) > 3


def test_kernel_generators():
    # Star with center 0: the two leaves beyond the base edge share a fiber.
    star = LabeledGraph(range(4), [(0, 1), (0, 2), (0, 3)])
    dec = layer_sequence(star.arrays, (0, 1))
    ker = dec.kernel_generators(1)
    assert len(ker) == 1
    assert Permutation(ker[0]) == Permutation.transposition(4, 2, 3)
    # all kernel elements restrict to the identity on X_1 and are involutions
    for k in map(Permutation, ker):
        assert k(0) == 0 and k(1) == 1
        assert group_order((k,)) == 2

    colored = LabeledGraph({0: 0, 1: 0, 2: 1, 3: 2}, [(0, 1), (0, 2), (0, 3)])
    dec_c = layer_sequence(colored.arrays, (0, 1))
    assert dec_c.kernel_generators(1).tolist() == []

    dec_p = layer_sequence(path4().arrays, (1, 2))
    assert dec_p.kernel_generators(1).tolist() == []  # distinct fibers
    with pytest.raises(ValueError):
        dec_p.kernel_generators(5)


def _recorded_level_towers() -> list:
    """Towers of decisions, CFI pairs, network twins, trees and two small graphs."""
    cases = [cfi_tower_cases()] + [decide_tower_cases(40, seed) for seed in range(3)]
    for seed in range(3):
        net = random_network(65, seed=seed)
        twin = net.relabeled_nodes({v: 1000 + v for v in net.nodes})
        cases.append({"network": recorded_towers(lambda: phylo_isomorphic(net, twin))})
    for depth in range(3, 8):
        tree = complete_binary_tree(2**depth - 1)
        cases.append({"tree": recorded_towers(lambda: aut_e_generators(tree, (0, 1)))})
    towers = [dec for case in cases for towers in case.values() for dec, _ in towers]
    path3 = LabeledGraph(range(3), [(0, 1), (1, 2)])
    return towers + [layer_sequence(g.arrays, (0, 1)) for g in (gadget_example(), path3)]


def test_kernel_generators_on_every_recorded_level():
    # A (t, n) int32 array with one transposition per two-node fiber, in
    # fiber order, on every level of the recorded towers; (0, n) where all
    # fibers are single nodes.  Every level r < N materializes an element,
    # so B_r never starts empty.
    shapes = set()
    for dec in _recorded_level_towers():
        for r, lev in level_tables(dec).items():
            assert len(lev.keys), (r, dec.N)
            starts = lev.start[lev.size == 2]
            want = np.arange(dec.n, dtype=np.int32)[None].repeat(len(starts), axis=0)
            for row, at in zip(want, starts):
                x, y = lev.members[at : at + 2]
                row[[x, y]] = y, x
            got = dec.kernel_generators(r)
            assert got.dtype == np.int32 and got.shape == want.shape
            assert np.array_equal(got, want)
            shapes.add(len(got) > 0)
    assert shapes == {False, True}


def test_fiber_of_three_nodes_raises():
    # Maximum degree 3 bounds every fiber by two nodes.  An unvalidated
    # degree-4 star breaks the bound: its three leaves beyond the base edge
    # share one neighbor set and one color, a fiber entering at level 2.
    star = LabeledGraph(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(AssertionError, match="more than two nodes enters at level 2"):
        layer_sequence(star.arrays, (0, 1))
    colored = LabeledGraph({0: 0, 1: 0, 2: 0, 3: 0, 4: 1}, star.edges())
    assert layer_sequence(colored.arrays, (0, 1)).kernel_generators(1).tolist() == [
        [0, 1, 3, 2, 4]
    ]


def test_kernel_respects_edge_labels():
    # Same neighbor, same color, different edge labels: not interchangeable.
    g = LabeledGraph(range(4), {(0, 1): 0, (0, 2): 1, (0, 3): 2})
    dec = layer_sequence(g.arrays, (0, 1))
    assert dec.kernel_generators(1).tolist() == []


# -- the array build against the written-out definition ---------------------


def _equality_pattern(colors) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(c, len(ids)) for c in colors]


def assert_tower_equals_written_out(g: LabeledGraph, e) -> LayerDecomposition:
    dec = layer_sequence(g.arrays, e)
    ref = reference_layer_sequence(g, e)
    assert working_graph(dec) == ref.graph
    assert (dec.base_edge, dec.N) == (ref.base_edge, ref.N)
    assert (dec.level.tolist(), dec.owner.tolist()) == (ref.level, ref.owner)
    tower = WrittenOutTower(ref.graph, ref.level, ref.base_edge, ref.N)
    assert (dec._R, dec._S, dec.n_colors) == (tower.R, tower.S, len(tower.color_rank))
    levels = level_tables(dec)
    assert sorted(levels) == list(range(1, dec.N))
    for r in range(1, dec.N):
        got, want = levels[r], tower.level_table(r)
        for name in Level._fields:
            field = getattr(got, name)
            if name == "colors":
                assert (field >= 1).all()
                assert _equality_pattern(field.tolist()) == _equality_pattern(want[name])
                continue
            assert np.array_equal(field, want[name]), (r, name)
        kernel = dec.kernel_generators(r)
        assert kernel.dtype == np.int32 and np.array_equal(kernel, tower.kernel(r))
    with pytest.raises(ValueError):
        dec.kernel_generators(dec.N)
    return dec


def assert_towers_equal_written_out(g: LabeledGraph, e) -> LayerDecomposition:
    """The written-out check on g's tower and on the tower of its refined view."""
    assert_tower_equals_written_out(graph_of_view(refine(g.arrays, e)), e)
    return assert_tower_equals_written_out(g, e)


def _recolored(g: LabeledGraph, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    colors = {v: rng.randrange(3) for v in g.node_ids}
    return LabeledGraph(colors, {e: rng.randrange(3) for e in g.sorted_edges()})


@pytest.mark.parametrize("n", [24, 40, 64, 128])
@pytest.mark.parametrize("seed", range(3))
def test_array_tower_equals_written_out_on_random_graphs(n, seed):
    fired = 0
    for g in (random_ternary_graph(n, seed), _recolored(random_ternary_graph(n, seed), seed)):
        edges = g.sorted_edges()
        for e in (edges[0], edges[len(edges) // 2], edges[-1]):
            fired += assert_towers_equal_written_out(g, e).n > g.n_nodes
    assert fired


def test_array_tower_equals_written_out_on_small_graphs():
    k4 = LabeledGraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    for g, e in [
        (k4, (0, 1)),
        (k4, (2, 3)),
        (gadget_example(), (0, 1)),
        (path4(), (1, 2)),
        (path4(), (0, 1)),
        (six_cycle(), (0, 1)),
        (LabeledGraph([0, 1], [(0, 1)]), (0, 1)),
        (diamond_chain(40), (0, 1)),
        (diamond_chain(40), (79, 80)),
    ]:
        assert_towers_equal_written_out(g, e)
    assert assert_tower_equals_written_out(gadget_example(), (0, 1)).n > 6


def test_towers_of_equal_shortest_path_chains_stay_small():
    # 2^40 shortest paths reach the end of the chain; a BFS that kept one
    # frontier entry per path would never finish.
    g = diamond_chain(40)
    assert layer_sequence(g.arrays, (0, 1)).level[-1] == 2 + 3 * 39
    h, _ = random_relabeling(g, 1)
    assert is_isomorphic(g, h)
    net = stacked_galls(40)
    assert phylo_isomorphic(net, net.relabeled_nodes({v: 1000 + v for v in net.nodes}))


def test_array_tower_equals_written_out_on_joined_graphs(monkeypatch):
    # The networks' joins reach the spy refined; the graph splices do not.
    joined = []
    real = core.layer_sequence

    def spy(view, e, tables=None):
        joined.append((graph_of_view(view), e))
        return real(view, e, tables)

    monkeypatch.setattr(core, "layer_sequence", spy)
    nets = [random_network(33, seed=seed) for seed in range(3)] + [stacked_galls(8)]
    for net in nets:
        assert phylo_isomorphic(net, net.relabeled_nodes({v: 500 + v for v in net.nodes}))
    assert len(joined) == len(nets)
    for seed in range(3):
        g = random_ternary_graph(40, seed)
        h, _ = random_relabeling(g, seed)
        e1, e2 = g.sorted_edges()[0], h.sorted_edges()[seed]
        view = build_x(
            g.arrays, h.arrays, np.searchsorted(g.arrays.ids, e1), np.searchsorted(h.arrays.ids, e2)
        )
        e = (g.n_nodes, g.n_nodes + 1)
        joined += [(graph_of_view(view), e), (graph_of_view(refine(view, e)), e)]
    for g, e in joined:
        assert_tower_equals_written_out(g, e)


# -- color refinement ---------------------------------------------------------


def _refine_cases():
    graphs = [
        g
        for n, seed in ((24, 0), (40, 1), (64, 2), (128, 0))
        for g in (random_ternary_graph(n, seed), _recolored(random_ternary_graph(n, seed), seed))
    ]
    # Network reductions hold the reserved labels and midpoint color -1.
    graphs += [reduce_to_colored(random_network(33, seed=seed))[0] for seed in range(3)]
    # Colors and labels past 2^63: the view holds them with object dtype.
    base = _recolored(random_ternary_graph(40, 3), 3)
    graphs.append(LabeledGraph(
        {v: 2**64 + c * 2**70 for v, c in base.colors().items()},
        {e: 2**63 + lab * 2**66 for e, lab in base.edges().items()},
    ))
    for g in graphs:
        edges = g.sorted_edges()
        yield from ((g, edges[0]), (g, edges[len(edges) // 2]), (g, edges[-1]))
    k4 = LabeledGraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    yield from [
        (k4, (2, 3)),
        (gadget_example(), (0, 1)),
        (path4(), (0, 1)),
        (six_cycle(), (0, 1)),
        (LabeledGraph([0, 1], [(0, 1)]), (0, 1)),
        (diamond_chain(10), (0, 1)),
        (LabeledGraph({0: 1, 1: 2, 2: 0, 3: 0}, [(0, 1), (0, 2), (1, 3)]), (0, 1)),
    ]


def test_refine_matches_written_out_refinement():
    for g, e in _refine_cases():
        view = g.arrays
        got = refine(view, e)
        assert got.colors.tolist() == reference_refine(g, e)
        assert not got.colors.flags.writeable
        assert all(x is y for x, y in zip(got, view) if x is not got.colors)


def test_refine_splits_colors_and_individualizes_the_base_edge():
    for g, e in _refine_cases():
        view = g.arrays
        got = refine(view, e).colors
        # Equal classes have equal input colors.
        assert len(set(zip(got.tolist(), view.colors.tolist()))) == len(set(got.tolist()))
        a, b = np.searchsorted(view.ids, e)
        assert set(np.flatnonzero(np.isin(got, got[[a, b]])).tolist()) == {a, b}
        if view.colors[a] != view.colors[b]:
            assert got[a] != got[b]


def test_one_more_round_splits_nothing():
    for g, e in _refine_cases():
        once = refine(g.arrays, e)
        assert reference_refine(graph_of_view(once), e) == once.colors.tolist()
        assert refine(once, e).colors.tolist() == once.colors.tolist()


def test_refine_commutes_with_relabelling():
    for g, e in _refine_cases():
        h, mapping = random_relabeling(g, 7)
        got = refine(g.arrays, e).colors
        moved = refine(h.arrays, (mapping[e[0]], mapping[e[1]])).colors
        at = np.searchsorted(h.arrays.ids, [mapping[v] for v in g.node_ids])
        assert moved[at].tolist() == got.tolist()


def distinct_label_cubic(n: int = 512) -> LabeledGraph:
    """An n-node cubic graph whose edge labels are all distinct.

    Node colors are drawn from 256 values.  With n = 512 this is the graph
    of `tests/data/cubic_512_distinct_labels.graph`: 768 labels, 222 colors
    occurring.
    """
    g = degree_sequence_graph([3] * n, 1)
    rng = random.Random("distinct-labels:1")
    edges = g.sorted_edges()
    labels = rng.sample(range(1, 10**6), len(edges))
    return LabeledGraph({v: rng.randrange(256) for v in range(n)}, dict(zip(edges, labels)))


def test_refine_ranks_rounds_too_wide_for_one_key(monkeypatch):
    # A round's digits (class, three slots) span count·R^3, R = L·n + 1.
    # Here R^3 alone is 6.1e16, and the first round starts from 223 or 224
    # classes, so its packed key would pass 2^63: `_row_ranks` must rank
    # the partial key before the last slot.  Without colors a graph with
    # distinct labels is discrete after one round from two classes, and
    # its key fits.  CI decides the same file against a relabelling.
    g = distinct_label_cubic()
    path = Path(__file__).parent / "data" / "cubic_512_distinct_labels.graph"
    assert path.read_text() == format_graph_text(g)
    n, L = g.n_nodes, len(set(g.edges().values()))
    assert (n, L) == (512, 768) and set(g.arrays.degrees.tolist()) == {3}
    assert n * (L * n + 1) ** 3 > 2**63
    ranked, dense_ranks = [], perm._dense_ranks
    monkeypatch.setattr(perm, "_dense_ranks", lambda key: ranked.append(len(key)) or dense_ranks(key))
    for e in (g.sorted_edges()[0], g.sorted_edges()[-1]):
        ranked.clear()
        assert refine(g.arrays, e).colors.tolist() == reference_refine(g, e)
        assert len(ranked) > 1  # a partial key was ranked, not only the final one
    h, _ = random_relabeling(g, 1)
    res = is_isomorphic(g, h, want_mapping=True)
    assert res.isomorphic and is_graph_isomorphism(g, h, res.mapping)


# -- the packed fiber and element order against two lexsorts -----------------


def assert_packed_order_is_exact(dec: LayerDecomposition, ranked: list) -> int:
    """Rebuild `dec`, compare its order with `lexsort_order`; keys ranked in the build.

    `ranked` is the list the test's `_dense_ranks` spy appends to.
    """
    want = lexsort_order(dec)
    ranked.clear()
    got = LayerDecomposition(dec.view, dec.level, dec.base_edge, dec.owner)
    staged = len(ranked)
    assert np.array_equal(got._members, want.members)
    assert np.array_equal(got._fiber_first, want.fiber_first)
    assert np.array_equal(got._size, want.size)
    keys, colors, e_at = got._elements
    assert np.array_equal(keys, want.keys) and np.array_equal(colors, want.colors)
    assert e_at == want.e_at.tolist()
    return staged


def _spy_dense_ranks(monkeypatch) -> list:
    """Record the length of every key `perm._dense_ranks` ranks."""
    ranked, dense_ranks = [], perm._dense_ranks
    monkeypatch.setattr(perm, "_dense_ranks", lambda key: ranked.append(len(key)) or dense_ranks(key))
    return ranked


def _order_cases() -> list:
    """Towers of decisions, of network joins, and of `cubic_512_distinct_labels.graph`."""
    towers = [
        dec for seed in range(3) for case in decide_tower_cases(40, seed).values()
        for dec, _ in case
    ]
    for seed in range(3):
        net = random_network(65, seed=seed)
        twin = net.relabeled_nodes({v: 1000 + v for v in net.nodes})
        towers += [dec for dec, _ in recorded_towers(lambda: phylo_isomorphic(net, twin))]
    path = Path(__file__).parent / "data" / "cubic_512_distinct_labels.graph"
    g = parse_graph_text(path.read_text())
    for e in (g.sorted_edges()[0], g.sorted_edges()[-1]):
        towers += [layer_sequence(g.arrays, e), layer_sequence(refine(g.arrays, e), e)]
    return towers


@pytest.mark.parametrize("bound", [None, 1 << 40], ids=["2^63", "2^40"])
def test_packed_order_equals_two_lexsorts(monkeypatch, bound):
    # Under 2^63 no build here stages a key.  With the bound lowered to
    # 2^40, the towers of the 512-node distinct-label graph do: S^2 alone
    # is 1.5e11 there.
    towers = _order_cases()
    ranked = _spy_dense_ranks(monkeypatch)
    if bound is not None:
        monkeypatch.setattr(perm, "_KEY_BOUND", bound)
    staged = [assert_packed_order_is_exact(dec, ranked) for dec in towers]
    assert len(towers) > 20 and any((dec._size == 2).any() for dec in towers)
    assert any(staged) == (bound is not None)


def test_packed_order_stages_keys_past_63_bits(monkeypatch):
    # 4,096 nodes and 6,144 distinct labels: the entering nodes' (level,
    # neighbor-set key, color rank) digits span more than 2^63, so the
    # build ranks the partial key before the color digit.
    g = distinct_label_cubic(4096)
    e = g.sorted_edges()[0]
    dec = layer_sequence(refine(g.arrays, e), e)
    assert (dec.N + 1) * dec._S**2 * dec.n_colors > 2**63
    assert assert_packed_order_is_exact(dec, _spy_dense_ranks(monkeypatch)) == 1
