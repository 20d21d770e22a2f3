"""Property tests of the decisions, the color filter, the contraction and the eNewick round trip.

Inputs come from the package's seeded generators, so a failing example is
reproduced by its seeds.  Colors and labels are drawn from a palette that
reaches past 64 bits, and ids are sometimes shifted past 64 bits, so the
same properties cover the object-dtype array views.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from trigiso.core import aut_e_generators, is_isomorphic
from trigiso.graphs import LabeledGraph, build_x, is_graph_isomorphism, validate
from trigiso.harness import degree_sequence_graph, random_relabeling, random_ternary_graph
from trigiso.layers import layer_sequence, refine
from trigiso.phylo import (
    PhyloNetwork,
    is_network_isomorphism,
    parse_enewick,
    phylo_isomorphic,
    random_network,
    write_enewick,
)

from test_coloraut import solved_like_the_reference
from test_core import _recolored, class_swap_taken, tower_equals_reference, unpruned_decision
from tower_cases import CUBE, K4, PETERSEN, _cfi

bounded = settings(derandomize=True, deadline=None, max_examples=30, database=None)
seeds = st.integers(0, 2**32 - 1)
PALETTE = (0, 1, 2, 2**63, 2**64 + 5)
# Taxon names with the characters eNewick must quote.
taxa = st.text("ab'(),: #;", min_size=1, max_size=3)


def _painted(g: LabeledGraph, colors: list, labels: list, shift: int) -> LabeledGraph:
    """g with ids shifted and colors and labels taken in sorted node and edge order."""
    return LabeledGraph(
        {v + shift: c for v, c in zip(g.node_ids, colors)},
        {(u + shift, v + shift): lab for (u, v), lab in zip(g.sorted_edges(), labels)},
    )


@st.composite
def graph_pairs(draw):
    """Two graphs of one size, painted with the same color and label sequences."""
    n = draw(st.integers(2, 24))
    first, second = (random_ternary_graph(n, draw(seeds)) for _ in range(2))
    colors = draw(st.lists(st.sampled_from(PALETTE[:3]), min_size=n, max_size=n))
    m = max(first.n_edges, second.n_edges)
    labels = draw(st.lists(st.sampled_from(PALETTE), min_size=m, max_size=m))
    shift = draw(st.sampled_from((0, 2**64)))
    return _painted(first, colors, labels, shift), _painted(second, colors, labels, shift)


@bounded
@given(graph_pairs(), seeds)
def test_is_isomorphic_is_invariant_under_relabelling_and_symmetric(pair, seed):
    g, k = pair
    h, _ = random_relabeling(g, seed)
    res = is_isomorphic(g, h, want_mapping=True)
    assert res.isomorphic and is_graph_isomorphism(g, h, res.mapping)
    verdict = is_isomorphic(g, k, want_mapping=True)
    assert is_isomorphic(k, g).isomorphic == verdict.isomorphic
    assert is_isomorphic(h, k).isomorphic == verdict.isomorphic
    if verdict.isomorphic:
        assert is_graph_isomorphism(g, k, verdict.mapping)


@bounded
@given(graph_pairs(), st.integers(0, 100))
def test_aut_e_generators_are_automorphisms_fixing_the_edge(pair, pick):
    g = pair[0]
    e = g.sorted_edges()[pick % g.n_edges]
    res = aut_e_generators(g, e)
    ids = list(res.node_order)
    assert ids == g.node_ids
    for gen in res.generators:
        mapping = {v: ids[gen(i)] for i, v in enumerate(ids)}
        assert is_graph_isomorphism(g, g, mapping)
        assert {mapping[e[0]], mapping[e[1]]} == set(e)
    if res.swap_witness is not None:
        assert ids[res.swap_witness(ids.index(e[0]))] == e[1]


@bounded
@given(graph_pairs(), st.integers(0, 100), seeds)
def test_refine_splits_colors_is_stable_and_commutes_with_relabelling(pair, pick, seed):
    g = pair[0]
    e = g.sorted_edges()[pick % g.n_edges]
    view = g.arrays
    got = refine(view, e).colors.tolist()
    # Equal classes have equal input colors; e's endpoints share no class with another node.
    assert len(set(zip(got, view.colors.tolist()))) == len(set(got))
    a, b = np.searchsorted(view.ids, e).tolist()
    assert {i for i, c in enumerate(got) if c in (got[a], got[b])} == {a, b}
    if view.colors[a] != view.colors[b]:
        assert got[a] != got[b]
    assert refine(refine(view, e), e).colors.tolist() == got
    h, mapping = random_relabeling(g, seed)
    moved = refine(h.arrays, (mapping[e[0]], mapping[e[1]])).colors
    assert moved[np.searchsorted(h.arrays.ids, [mapping[v] for v in g.node_ids])].tolist() == got


def _switched(g: LabeledGraph, seed: int) -> LabeledGraph | None:
    """g after one connected degree-preserving switch ab, cd -> ac, bd, if any.

    Colors stay, ab's label moves to ac and cd's to bd.
    """
    edges = g.sorted_edges()
    pairs = [(p, q) for i, p in enumerate(edges) for q in edges[i + 1 :]]
    random.Random(seed).shuffle(pairs)
    for (a, b), (c, d) in pairs:
        if len({a, b, c, d}) < 4 or g.has_edge(*sorted((a, c))) or g.has_edge(*sorted((b, d))):
            continue
        out = g.edges()
        out[min(a, c), max(a, c)] = out.pop((a, b))
        out[min(b, d), max(b, d)] = out.pop((c, d))
        h = LabeledGraph(g.colors(), out)
        if not validate(h):
            return h
    return None


# About one draw in ten reaches a second pairing, where the pruning starts.
@settings(bounded, max_examples=150)
@given(st.integers(2, 10), st.booleans(), st.booleans(), seeds, seeds)
def test_orbit_pruning_keeps_verdict_and_mapping(half, cubic, switch, seed, relabel):
    n = 2 * half
    g = degree_sequence_graph([3] * n, seed) if cubic else random_ternary_graph(n, seed)
    h = _switched(g, seed) if switch else g
    assume(h is not None)
    h, _ = random_relabeling(h, relabel)
    res = is_isomorphic(g, h, want_mapping=True)
    assert (res.isomorphic, res.mapping) == unpruned_decision(g, h)


def _colored_cfi(base: list, twisted) -> LabeledGraph:
    """`_cfi` with each node colored by its base vertex, as in the CFI benchmark."""
    g = _cfi(base, twisted)
    return LabeledGraph({v: v // 10 for v in g.node_ids}, g.sorted_edges())


@pytest.mark.parametrize("kind", ["colored", "switch", "cfi"])
@settings(bounded, max_examples=30)
@given(st.integers(3, 12), st.integers(1, 3), seeds, seeds)
def test_joint_selection_keeps_verdict_and_mapping(kind, half, palette, seed, relabel):
    # Colored graphs against a relabelled copy or a relabelled 2-switch, and
    # CFI pairs colored by base vertex: the decision equals the unpruned
    # loop over the per-edge reference filter, from the same e1 and
    # candidates, and a positive's witness verifies.
    if kind == "cfi":
        base = (K4, CUBE, PETERSEN)[half % 3]
        twisted = random.Random(seed).sample(range(len(base)), palette)
        g, h = _colored_cfi(base, ()), _colored_cfi(base, twisted)
    else:
        g = _recolored(random_ternary_graph(2 * half, seed), seed, palette, palette)
        h = _switched(g, seed) if kind == "switch" else g
        assume(h is not None)
    h, _ = random_relabeling(h, relabel)
    res = is_isomorphic(g, h, want_mapping=True)
    assert (res.isomorphic, res.mapping) == unpruned_decision(g, h)
    assert not res.isomorphic or is_graph_isomorphism(g, h, res.mapping)
    if kind != "switch":
        assert res.isomorphic == (kind == "colored" or palette % 2 == 0)


@settings(bounded, max_examples=100)
@given(graph_pairs(), st.booleans(), st.booleans(), st.integers(0, 100), seeds)
def test_splice_tower_equals_reference_loop(pair, relabel, refined, pick, seed):
    # A splice of g's first edge with an edge of a relabelled copy or of
    # another graph, towered with or without refinement: `_run_tower`
    # returns the reference loop's result, row for row, for both swap
    # values.  So does `_tower`, with the class swap and without it, and
    # where σ is accepted no level has a two-node fiber (`class_swap_taken`).
    g, k = pair
    if relabel:
        k, _ = random_relabeling(g, seed)
    a1, a2 = g.arrays, k.arrays
    j = pick % len(a2.u)
    joined = build_x(a1, a2, np.array([a1.u[0], a1.v[0]]), np.array([a2.u[j], a2.v[j]]))
    e = (g.n_nodes, g.n_nodes + 1)
    dec = layer_sequence(refine(joined, e) if refined else joined, e)
    assert tower_equals_reference(dec)
    class_swap_taken(joined, e)


@bounded
@given(st.integers(3, 65), st.sampled_from((0.0, 0.3, 1.0)), seeds, seeds)
def test_relabelled_network_twins_give_verified_mappings(n, hybrid_prob, seed, relabel):
    net = random_network(n, hybrid_prob=hybrid_prob, seed=seed)
    names = random.Random(relabel).sample(range(10 * net.n_nodes), net.n_nodes)
    twin = net.relabeled_nodes(dict(zip(net.nodes, names)))
    res = phylo_isomorphic(net, twin, want_mapping=True)
    assert res.isomorphic and is_network_isomorphism(net, twin, res.mapping)


@bounded
@given(st.integers(3, 41), seeds, st.lists(taxa, min_size=1))
def test_write_then_parse_enewick_round_trips(n, seed, names):
    net = random_network(n, seed=seed)
    labels = {v: names[i % len(names)] for i, v in enumerate(net.leaves)}
    net = PhyloNetwork(net.arcs, labels)
    text = write_enewick(net)
    back = parse_enewick(text)
    res = phylo_isomorphic(net, back, want_mapping=True)
    assert res.isomorphic and is_network_isomorphism(net, back, res.mapping)


# Generators of Z2 on a pair and of C4, V4 and D4 on four points, as images.
SMALL_2GROUPS = {
    "Z2": [[1, 0]],
    "C4": [[1, 2, 3, 0]],
    "V4": [[1, 0, 3, 2], [2, 3, 0, 1]],
    "D4": [[1, 2, 3, 0], [1, 0, 3, 2]],
}


@st.composite
def small_orbit_cosets(draw):
    """(gens, rep, points, colors): a 2-group coset on 2- and 4-point orbits.

    Each orbit carries one group of SMALL_2GROUPS on its points in a drawn
    order.  Up to three node columns come first, off the points; every row
    permutes them as drawn, so they ride along.  The generators may be
    replaced by products of neighbours, which generate a subgroup, and a row
    that fixes every point may join them.  The representative permutes each
    orbit, or all points, or all columns, so the filter cuts neither branch
    of a split, one or both.
    """
    n = draw(st.integers(0, 3))
    kinds = draw(st.lists(st.sampled_from(sorted(SMALL_2GROUPS)), min_size=1, max_size=4))
    m = n + sum(len(SMALL_2GROUPS[k][0]) for k in kinds)
    rows, orbits = [], []
    for kind in kinds:
        start = n + sum(map(len, orbits))
        orbit = draw(st.permutations(range(start, start + len(SMALL_2GROUPS[kind][0]))))
        for g in SMALL_2GROUPS[kind]:
            row = np.arange(m)
            row[orbit] = np.array(orbit)[g]
            rows.append(row)
        orbits.append(orbit)
    if draw(st.booleans()):
        rows = [a[b] for a, b in zip(rows, rows[1:] + rows[:1])]
    rows += [np.arange(m) for _ in range(draw(st.integers(0, 1)))]
    for row in rows:
        row[:n] = draw(st.permutations(range(n)))
    rep = np.arange(m)
    scope = draw(st.sampled_from(("orbits", "points", "columns")))
    for part in orbits if scope == "orbits" else [range(n, m)] if scope == "points" else [range(m)]:
        rep[list(part)] = draw(st.permutations(list(part)))
    colors = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    gens = np.array(draw(st.permutations(rows)), dtype=np.int32).reshape(len(rows), m)
    return gens, rep.astype(np.int32), np.arange(n, m), np.array(colors)


@settings(bounded, max_examples=300)
@given(small_orbit_cosets())
def test_cb_images_equals_the_reference_on_small_orbits(case):
    solved_like_the_reference(*case)
