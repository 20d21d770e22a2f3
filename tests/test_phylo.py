"""Tests for phylogenetic networks, the reduction, and eNewick round trips."""

import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import DiGraphMatcher, categorical_node_match

from trigiso import core, phylo
from trigiso.graphs import ARC_IN_LABEL, ARC_OUT_LABEL, MIDPOINT_COLOR, validate
from trigiso.harness import oracle_network_isomorphic
from trigiso.phylo import (
    NetworkError,
    NewickError,
    PhyloNetwork,
    is_network_isomorphism,
    parse_enewick,
    phylo_isomorphic,
    random_network,
    reduce_to_colored,
    reversed_arc_network,
    swap_two_leaf_labels,
    validate_network,
    write_enewick,
)

from graph_reference import record_graph_builds
from phylo_reference import reference_validate_network
from tower_cases import class_swap_work


def cherry():
    return PhyloNetwork([(0, 1), (0, 2)], {1: "a", 2: "b"})


def test_validate_cherry_ok():
    assert validate_network(cherry()) == []


def test_validate_reports_problems():
    bad_degree = PhyloNetwork(
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
        {3: "a", 4: "b"},
    )
    problems = validate_network(bad_degree)
    assert any("degree pair" in p for p in problems)

    two_roots = PhyloNetwork([(0, 1), (0, 2), (3, 1), (3, 2)], {1: "a", 2: "b"})
    assert any("root" in p for p in validate_network(two_roots))

    unlabeled = PhyloNetwork([(0, 1), (0, 2)], {1: "a"})
    assert any("unlabeled" in p for p in validate_network(unlabeled))


def test_validate_detects_cycles():
    cyclic = PhyloNetwork(
        [(0, 1), (0, 2), (1, 3), (3, 4), (4, 1), (4, 5), (3, 6)],
        {2: "a", 5: "b", 6: "c"},
    )
    assert any("cycle" in p for p in validate_network(cyclic))


def test_validate_network_matches_reference_on_mutants():
    # Random networks with arcs dropped, added or reversed and labels
    # removed: every kind of problem, in the reference's order.
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        net = random_network(5 + 2 * (seed % 8), seed=seed)
        arcs = set(net.arcs)
        for _ in range(rng.randrange(3)):
            u, v = rng.choice(sorted(arcs))
            arcs.discard((u, v))
            arcs.add(rng.choice([(v, u), (u, rng.choice(net.nodes)), (v, rng.choice(net.nodes))]))
        labels = {v: s for v, s in net.labels.items() if rng.random() < 0.9}
        mutant = PhyloNetwork(arcs, labels, nodes=net.nodes)
        problems = validate_network(mutant)
        assert problems == reference_validate_network(mutant), seed
        kinds.update(p.split()[0] for p in problems)
    assert validate_network(PhyloNetwork([])) == ["network has no nodes"]
    assert kinds == {"expected", "node", "leaf", "network"}
    # `labels` is a public dict: a label set to None later unlabels its leaf.
    net = cherry()
    leaf = min(net.labels)
    net.labels[leaf] = None
    assert validate_network(net) == reference_validate_network(net)
    assert validate_network(net) == [f"leaf {leaf} is unlabeled"]


def test_reduction_shape_and_colors():
    net = cherry()
    g, root = reduce_to_colored(net)
    assert g.n_nodes == net.n_nodes + net.n_arcs
    problems = validate(g)
    assert problems and all("reserved" in p for p in problems)
    assert root == 0
    labels = sorted(g.edges().values())
    assert labels.count(ARC_IN_LABEL) == net.n_arcs
    assert labels.count(ARC_OUT_LABEL) == net.n_arcs
    midpoints = [v for v in g.node_ids if g.color(v) == MIDPOINT_COLOR]
    assert len(midpoints) == net.n_arcs
    # shared interning: equal taxa get equal colors across networks
    intern = {}
    ga, _ = reduce_to_colored(cherry(), intern)
    gb, _ = reduce_to_colored(PhyloNetwork([(5, 6), (5, 7)], {6: "b", 7: "a"}), intern)
    a_color = {ga.color(v) for v in ga.node_ids} & {gb.color(v) for v in gb.node_ids}
    assert len(a_color - {0, MIDPOINT_COLOR}) == 2


def test_reduction_validates_unless_told_the_network_is_valid():
    cyclic = PhyloNetwork(
        [(0, 1), (0, 2), (1, 3), (3, 4), (4, 1), (4, 5), (3, 6)],
        {2: "a", 5: "b", 6: "c"},
    )
    with pytest.raises(NetworkError, match="cycle"):
        reduce_to_colored(cyclic)


def test_phylo_iso_reflexive_and_renamed():
    net = random_network(15, seed=3)
    assert phylo_isomorphic(net, net).isomorphic
    renamed = net.relabeled_nodes({v: v * 3 + 11 for v in net.nodes})
    res = phylo_isomorphic(net, renamed, want_mapping=True)
    assert res.isomorphic
    assert is_network_isomorphism(net, renamed, res.mapping)


def test_phylo_iso_builds_no_graph(monkeypatch):
    # The joined reduction of both networks reaches the tower as an array
    # view, so a decision constructs no graph, for a twin and for a leaf
    # swap that only the tower rejects.
    net = random_network(33, seed=4)
    twin = net.relabeled_nodes({v: 2 * v + 7 for v in net.nodes})
    swapped = swap_two_leaf_labels(net, seed=4)
    built = record_graph_builds(monkeypatch)
    for other, want in ((twin, True), (swapped, False)):
        built.clear()
        assert phylo_isomorphic(net, other, want_mapping=True).isomorphic == want
        assert len(built) == 0


def patch_wrong_witness(monkeypatch) -> None:
    """Make `phylo._tower` swap the images of the first network's first two nodes."""
    real = phylo._tower

    def tower(view, e, swap):
        witness = real(view, e, swap).copy()
        witness[[0, 1]] = witness[[1, 0]]
        return witness

    monkeypatch.setattr(phylo, "_tower", tower)


@pytest.mark.parametrize("want_mapping", [False, True])
def test_phylo_iso_verifies_its_witness_with_or_without_a_mapping(monkeypatch, want_mapping):
    # The witness is checked as a network isomorphism whether or not the
    # caller asks for the mapping, as `is_isomorphic` checks its own.
    net = random_network(33, seed=4)
    twin = net.relabeled_nodes({v: 2 * v + 7 for v in net.nodes})
    assert phylo_isomorphic(net, twin, want_mapping=want_mapping).isomorphic
    patch_wrong_witness(monkeypatch)
    with pytest.raises(AssertionError, match="witness failed network verification"):
        phylo_isomorphic(net, twin, want_mapping=want_mapping)


def test_phylo_iso_label_pretest():
    got = phylo_isomorphic(
        PhyloNetwork([(0, 1), (0, 2)], {1: "a", 2: "b"}),
        PhyloNetwork([(0, 1), (0, 2)], {1: "a", 2: "c"}),
    )
    assert not got.isomorphic


def test_phylo_iso_direction_sensitivity():
    net = random_network(11, seed=9)
    mutant = reversed_arc_network(net, seed=1)
    if mutant is not None:
        want = oracle_network_isomorphic(net, mutant)
        assert phylo_isomorphic(net, mutant).isomorphic == want


@pytest.mark.parametrize("seed", range(30))
def test_phylo_iso_matches_oracle(seed):
    rng = random.Random(seed)
    a = random_network(rng.choice([5, 7, 9, 11]), seed=seed)
    kind = seed % 4
    if kind == 0:
        b = a.relabeled_nodes({v: v + 50 for v in a.nodes})
    elif kind == 1:
        b = random_network(a.n_nodes, seed=seed + 4000)
    elif kind == 2:
        b = swap_two_leaf_labels(a, seed=seed)
    else:
        b = reversed_arc_network(a, seed=seed) or swap_two_leaf_labels(a, seed=seed)
    assert phylo_isomorphic(a, b).isomorphic == oracle_network_isomorphic(a, b)


def _digraph(net: PhyloNetwork) -> nx.DiGraph:
    out = nx.DiGraph()
    out.add_nodes_from((v, {"label": net.labels.get(v)}) for v in net.nodes)
    out.add_edges_from(net.arcs)
    return out


@pytest.mark.parametrize("hybrid_prob", [0.0, 0.3, 0.5, 0.9])
def test_verdicts_agree_with_digraph_matcher(hybrid_prob):
    # A differential oracle for networks: 18 networks of 9 to 65 nodes per
    # hybrid probability, each against a twin with shuffled ids, its
    # leaf-label swap, its arc reversal (none on a tree) and an unrelated
    # network of the same size; over 200 pairs in all.  networkx VF2 on
    # the digraphs, matching leaf labels, is independent of the reduction.
    same_label = categorical_node_match("label", None)
    verdicts = []
    for seed in range(18):
        rng = random.Random(seed)
        net = random_network(rng.randint(9, 65), hybrid_prob=hybrid_prob, seed=seed)
        ids = rng.sample(range(10 * net.n_nodes), net.n_nodes)
        others = [
            net.relabeled_nodes(dict(zip(net.nodes, ids))),
            swap_two_leaf_labels(net, seed=seed),
            reversed_arc_network(net, seed=seed),
            random_network(net.n_nodes, hybrid_prob=hybrid_prob, seed=seed + 1000),
        ]
        for other in filter(None, others):
            got = phylo_isomorphic(net, other, want_mapping=True)
            vf2 = DiGraphMatcher(_digraph(net), _digraph(other), same_label)
            assert got.isomorphic == vf2.is_isomorphic(), seed
            assert not got.isomorphic or is_network_isomorphism(net, other, got.mapping)
            verdicts.append(got.isomorphic)
    assert len(verdicts) >= 50 and 18 <= verdicts.count(True) < len(verdicts)


def test_parse_cherry_and_inner_taxa():
    net = parse_enewick("(a,b)r;")
    assert validate_network(net) == []
    assert sorted(net.labels.values()) == ["a", "b", "r"]
    assert net.label(net.root) == "r"


def test_parse_hybrid_tag():
    net = parse_enewick("((a,(b)#H1),(#H1,c));")
    assert validate_network(net) == []
    rets = net.reticulations()
    assert len(rets) == 1
    (r,) = rets
    assert [net.label(c) for c in net.children(r)] == ["b"]


def test_parse_quotes_and_lengths():
    net = parse_enewick("('Homo sapiens':1.5,'don''t':2)root:0.1;")
    assert sorted(net.labels.values()) == ["Homo sapiens", "don't", "root"]


def test_parse_errors_carry_position():
    with pytest.raises(NewickError) as exc:
        parse_enewick("(a,b")
    assert "line 1" in str(exc.value)
    with pytest.raises(NewickError):
        parse_enewick("(a,b);extra")
    with pytest.raises(NewickError):
        parse_enewick("(a,#X1);")
    with pytest.raises(NewickError):
        parse_enewick("((a)#H1,b);")  # tag appears once
    with pytest.raises(NewickError):
        parse_enewick("(a,,b);")


def test_parse_rejects_non_binary():
    with pytest.raises(NetworkError):
        parse_enewick("(a,b,c);")


def test_write_then_parse_roundtrip():
    for seed in range(15):
        net = random_network(random.Random(seed).choice([7, 11, 15, 21]), seed=seed)
        text = write_enewick(net)
        back = parse_enewick(text)
        assert phylo_isomorphic(net, back).isomorphic, text


def deep_caterpillar() -> PhyloNetwork:
    """The caterpillar ((…(l0,l1),…),l1500): 3,001 nodes, 1,500 levels deep."""
    text = "l0"
    for i in range(1, 1501):
        text = f"({text},l{i})"
    return parse_enewick(text + ";")


def test_deep_caterpillar_roundtrip_without_recursion():
    net = deep_caterpillar()
    assert net.n_nodes == 3001
    written = write_enewick(net)
    back = parse_enewick(written)
    assert back.arcs == net.arcs and back.labels == net.labels
    assert write_enewick(back) == written


def _deep_caterpillar_twin() -> tuple[PhyloNetwork, PhyloNetwork]:
    net = deep_caterpillar()
    names = random.Random(5).sample(range(10 * net.n_nodes), net.n_nodes)
    return net, net.relabeled_nodes(dict(zip(net.nodes, names)))


def test_deep_caterpillar_twin_is_isomorphic():
    # Refinement pairs every node of the join, so the class swap decides
    # this tower of about 3,000 levels.
    net, twin = _deep_caterpillar_twin()
    res = phylo_isomorphic(net, twin, want_mapping=True)
    assert res.isomorphic and is_network_isomorphism(net, twin, res.mapping)


def test_deep_caterpillar_twin_tower_is_one_class_swap():
    # The class swap's work pinned in units that do not depend on the host:
    # one tower, σ accepted, and no B_r closure and no lift.  The level
    # loop decides this tower as well, but about ten times slower.
    net, twin = _deep_caterpillar_twin()
    towers, swaps, calls = class_swap_work(
        lambda: phylo_isomorphic(net, twin).isomorphic or pytest.fail()
    )
    assert len(towers) == 1 and towers[0][1] and towers[0][0].N > 3000
    assert len(swaps) == 1 and swaps[0] is not None
    assert calls == []


def test_deep_caterpillar_twin_through_the_level_loop(monkeypatch):
    # With the class swap turned off, this tower of about 3,000 levels,
    # with no two-node fiber, runs the level loop to the top, and the
    # mapping is the same.
    net, twin = _deep_caterpillar_twin()
    want = phylo_isomorphic(net, twin, want_mapping=True).mapping
    loops = []
    real_run = core._run_tower

    def run(dec, swap):
        loops.append((dec.N, (dec._size == 2).any(), swap))
        return real_run(dec, swap)

    monkeypatch.setattr(core, "_class_swap", lambda view, a, b: None)
    monkeypatch.setattr(core, "_run_tower", run)
    res = phylo_isomorphic(net, twin, want_mapping=True)
    assert res.isomorphic and res.mapping == want
    assert len(loops) == 1 and loops[0][0] > 3000 and loops[0][1:] == (False, True)


def test_large_relabelled_network_twins_are_isomorphic():
    net = random_network(2049, seed=3)
    names = random.Random(4).sample(range(10 * net.n_nodes), net.n_nodes)
    twin = net.relabeled_nodes(dict(zip(net.nodes, names)))
    res = phylo_isomorphic(net, twin, want_mapping=True)
    assert res.isomorphic and is_network_isomorphism(net, twin, res.mapping)


def test_random_network_basics():
    net = random_network(21, seed=5)
    assert validate_network(net) == []
    assert net.n_nodes in (21, 22)  # odd targets are hit exactly
    assert random_network(10, seed=5).n_nodes == 11
    # determinism
    a = random_network(17, seed=9)
    b = random_network(17, seed=9)
    assert a.arcs == b.arcs and a.labels == b.labels
    with pytest.raises(NetworkError):
        random_network(2, seed=0)
    with pytest.raises(NetworkError):
        random_network(9, hybrid_prob=1.5, seed=0)


def test_random_network_zero_hybrid_prob_is_a_tree():
    net = random_network(25, hybrid_prob=0.0, seed=4)
    assert net.reticulations() == []
    assert net.n_arcs == net.n_nodes - 1


def test_random_network_soak():
    for seed in range(60):
        n = random.Random(seed).choice([5, 9, 15, 27, 41])
        net = random_network(n, seed=seed)
        assert validate_network(net) == []


def test_leaf_swap_keeps_digraph():
    net = random_network(15, seed=8)
    mutant = swap_two_leaf_labels(net, seed=1)
    assert mutant.arcs == net.arcs
    assert sorted(mutant.labels.values()) == sorted(net.labels.values())
