"""Tests for the layer tower, the triangle rewrite, B_r closure, and kernels."""

import pytest

from trigiso.core import aut_e_generators, is_isomorphic
from trigiso.graphs import GADGET_LABEL, LabeledGraph, validate
from trigiso.harness import random_relabeling, random_ternary_graph
from trigiso.layers import LayerDecomposition, layer_sequence, triangle_gadget
from trigiso.perm import Permutation, group_order
from trigiso.phylo import phylo_isomorphic, random_network


def path4():
    return LabeledGraph(range(4), [(0, 1), (1, 2), (2, 3)])


def six_cycle():
    return LabeledGraph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def gadget_example():
    # v (node 5) has all three neighbors placed before it enters the tower.
    return LabeledGraph(
        range(6), [(0, 1), (0, 2), (1, 3), (1, 4), (5, 2), (5, 3), (5, 4)]
    )


def test_single_edge_tower():
    g = LabeledGraph([0, 1], [(0, 1)])
    dec = layer_sequence(g, (0, 1))
    assert dec.N == 1
    nodes, edges = dec.layer(1)
    assert nodes == frozenset({0, 1})
    assert edges == frozenset({frozenset({0, 1})})


def test_path_tower():
    dec = layer_sequence(path4(), (1, 2))
    assert dec.N == 2
    assert dec.level_of == [2, 1, 1, 2]
    nodes, edges = dec.layer(2)
    assert nodes == frozenset(range(4))
    assert len(edges) == 3
    assert dec.nbr_map[0] == frozenset({(1, 0)})
    assert dec.nbr_map[3] == frozenset({(2, 0)})


def test_six_cycle_tower():
    # Antipodal nodes 3 and 4 enter at level 3, each with a singleton
    # neighbor set; the edge between them is a cross edge of level 3 and
    # completes the tower at N = 4.
    dec = layer_sequence(six_cycle(), (0, 1))
    assert dec.level_of == [1, 1, 2, 3, 3, 2]
    assert dec.N == 4
    assert dec.nbr_map[3] == frozenset({(2, 0)})
    assert dec.nbr_map[4] == frozenset({(5, 0)})
    assert dec.cross.get(3) == {frozenset({3, 4}): 0}
    nodes3, edges3 = dec.layer(3)
    assert nodes3 == frozenset(range(6))
    assert frozenset({3, 4}) not in edges3
    nodes4, edges4 = dec.layer(4)
    assert frozenset({3, 4}) in edges4


def test_layers_monotone_and_exhaustive():
    for g, e in [(six_cycle(), (0, 1)), (path4(), (0, 1)), (gadget_example(), (0, 1))]:
        dec = layer_sequence(g, e)
        prev_nodes, prev_edges = dec.layer(1)
        first_level = {}
        for pair in prev_edges:
            first_level[pair] = 1
        for r in range(2, dec.N + 1):
            nodes, edges = dec.layer(r)
            assert prev_nodes <= nodes and prev_edges <= edges
            for pair in edges - prev_edges:
                first_level[pair] = r
                u, v = sorted(pair)
                if dec.level_of[u] == dec.level_of[v] and r > 1:
                    assert r == dec.level_of[u] + 1
            prev_nodes, prev_edges = nodes, edges
        assert prev_nodes == frozenset(range(dec.n))
        assert len(prev_edges) == dec.graph.n_edges
        assert len(first_level) == dec.graph.n_edges


def test_k4_has_no_gadget_nodes():
    # In K4 both non-base nodes enter at level 2 with only the two base
    # endpoints already placed, so no neighbor set reaches size 3; the
    # remaining edge is a cross edge.
    k4 = LabeledGraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert triangle_gadget(k4, (0, 1)) == k4
    dec = layer_sequence(k4, (0, 1))
    assert dec.gadget_triple == {}
    assert all(len(f) <= 2 for f in dec.nbr_map.values())
    assert dec.cross.get(2) == {frozenset({2, 3}): 0}


def test_gadget_fires_and_is_valid():
    g = gadget_example()
    rewritten = triangle_gadget(g, (0, 1))
    assert rewritten.n_nodes == g.n_nodes + 2  # node 5 replaced by three corners
    assert validate(rewritten, allow_reserved=True) == []
    assert max(rewritten.degree(v) for v in rewritten.node_ids) == 3
    gadget_edges = [
        e for e, lab in rewritten.edges().items() if lab == GADGET_LABEL
    ]
    assert len(gadget_edges) == 3
    dec = layer_sequence(g, (0, 1))
    assert set(dec.gadget_triple) == {5}
    assert all(len(f) <= 2 for f in dec.nbr_map.values())
    # corners inherit the replaced node's level and color
    for c in dec.gadget_triple[5]:
        assert dec.level_of[c] == 3
        assert dec.colors[c] == g.color(5)


def test_gadget_untouched_graph_returned_as_is():
    g = six_cycle()
    assert triangle_gadget(g, (0, 1)) is g


def test_b_set_materializes_and_closes():
    dec = layer_sequence(path4(), (1, 2))
    ident = Permutation.identity(dec.n)
    b = dec.b_set(1, ident.image[None])
    # r=1: no cross edges, two neighbor-set elements.
    assert b.tolist() == dec.encode([frozenset({(1, 0)}), frozenset({(2, 0)})]).tolist()
    flip = Permutation([3, 2, 1, 0])
    b2 = dec.b_set(1, flip.image[None])
    assert b2.tolist() == b.tolist()  # the flip permutes the two elements
    # closure property: applying any generator keeps us inside B
    assert set(dec.move(flip.image[None], b2)[0].tolist()) == set(b2.tolist())


def test_b_set_closure_adds_orbit_images():
    dec = layer_sequence(six_cycle(), (0, 1))
    cross_pair = int(dec.encode([frozenset({3, 4})])[0])
    swap = Permutation([1, 0, 5, 4, 3, 2])  # the reflection fixing the base edge
    assert cross_pair in dec.b_set(3, swap.image[None]).tolist()
    rogue = Permutation([0, 1, 2, 4, 3, 5])
    assert cross_pair in dec.b_set(3, rogue.image[None]).tolist()


def test_b_set_adds_unmaterialized_images():
    # Node 2 enters with neighbor set {(0, 5)}; moving 0 onto 1 gives the
    # unmaterialized set {(1, 5)}, which the closure adds.
    g = LabeledGraph(range(3), {(0, 1): 0, (0, 2): 5})
    dec = layer_sequence(g, (0, 1))
    swap = Permutation.transposition(3, 0, 1)
    want = dec.encode([frozenset({(0, 5)}), frozenset({(1, 5)})])
    assert dec.b_set(1, swap.image[None]).tolist() == sorted(want.tolist())


def test_encode_orders_like_sorted_member_tuples():
    dec = layer_sequence(gadget_example(), (0, 1))
    labeled = [
        frozenset({(2, 0)}),
        frozenset({(1, 0), (3, 0)}),
        frozenset({(1, 0)}),
        frozenset({(3, 0), (4, 0)}),
    ]
    pairs = [frozenset({3, 4}), frozenset({2, 3})]
    keys = dec.encode(labeled + pairs).tolist()
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
    f_elems = {dec.nbr_map[v] for v in dec.fresh.get(r + 1, [])}
    e_elems = set(dec.cross.get(r, {}))
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


def decide_tower_cases(n: int, seed: int):
    """Full-group towers, exchange-coset towers and a network twin."""
    g = random_ternary_graph(n, seed)
    aut_e_generators(g, g.sorted_edges()[0])
    h, _ = random_relabeling(g, seed)
    assert is_isomorphic(g, h)
    net = random_network(n // 2 + 1, seed=seed)
    twin = net.relabeled_nodes({v: 1000 + v for v in net.nodes})
    assert phylo_isomorphic(net, twin)


@pytest.mark.parametrize("n", [24, 40, 64])
@pytest.mark.parametrize("seed", range(3))
def test_b_set_matches_frozenset_reference(monkeypatch, n, seed):
    calls = []
    real = LayerDecomposition.b_set

    def checked(self, r, images):
        keys = real(self, r, images)
        assert keys.tolist() == self.encode(reference_b_set(self, r, images)).tolist()
        calls.append(r)
        return keys

    monkeypatch.setattr(LayerDecomposition, "b_set", checked)
    decide_tower_cases(n, seed)
    assert len(calls) > 3


def test_kernel_generators():
    # Star with center 0: the two leaves beyond the base edge share a fiber.
    star = LabeledGraph(range(4), [(0, 1), (0, 2), (0, 3)])
    dec = layer_sequence(star, (0, 1))
    ker = dec.kernel_generators(1)
    assert len(ker) == 1
    assert Permutation(ker[0]) == Permutation.transposition(4, 2, 3)
    # all kernel elements restrict to the identity on X_1 and are involutions
    for k in map(Permutation, ker):
        assert k(0) == 0 and k(1) == 1
        assert group_order((k,)) == 2

    colored = LabeledGraph({0: 0, 1: 0, 2: 1, 3: 2}, [(0, 1), (0, 2), (0, 3)])
    dec_c = layer_sequence(colored, (0, 1))
    assert dec_c.kernel_generators(1).tolist() == []

    dec_p = layer_sequence(path4(), (1, 2))
    assert dec_p.kernel_generators(1).tolist() == []  # distinct fibers
    with pytest.raises(ValueError):
        dec_p.kernel_generators(5)


def test_kernel_respects_edge_labels():
    # Same neighbor, same color, different edge labels: not interchangeable.
    g = LabeledGraph(range(4), {(0, 1): 0, (0, 2): 1, (0, 3): 2})
    dec = layer_sequence(g, (0, 1))
    assert dec.kernel_generators(1).tolist() == []
