"""Tests of the benchmark's own builders, certificates, checks and tracing.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import (
    GraphMatcher,
    categorical_edge_match,
    categorical_node_match,
)
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

import instances
import run
import tracing
import trigiso
from trigiso.harness import degree_sequence_graph, random_relabeling, random_ternary_graph

BENCH_DIR = Path(__file__).resolve().parent.parent


def to_nx(g):
    out = nx.Graph()
    for v in g.node_ids:
        out.add_node(v, color=g.color(v))
    for (u, v), lab in g.edges().items():
        out.add_edge(u, v, label=lab)
    return out


def vf2_isomorphic(g1, g2) -> bool:
    return GraphMatcher(
        to_nx(g1),
        to_nx(g2),
        node_match=categorical_node_match("color", None),
        edge_match=categorical_edge_match("label", None),
    ).is_isomorphic()


def build(workload, seed, attempts):
    return [instances.build_pair(workload, seed, k, a) for k, a in enumerate(attempts)]


@pytest.mark.parametrize("workload", sorted(run.POOL_SIZE))
def test_instances_identical_under_fixed_seed(workload):
    texts = lambda pool: [(p.text1, p.text2) for p in pool]
    first = texts(build(workload, 7, [0, 0, 1]))
    assert first == texts(build(workload, 7, [0, 0, 1]))
    assert first != texts(build(workload, 8, [0, 0, 1]))


def test_relabel_seed_draws_the_relabelling_not_the_base_graph():
    a, b = instances.build_relabel(7, 3), instances.build_relabel(8, 3)
    assert a.text1 == b.text1
    assert a.text2 != b.text2
    assert instances.build_relabel(7, 4).text1 != a.text1


def test_pair_means_weigh_each_pool_pair_once():
    assert run.pair_means([1.0, 2.0, 4.0, 5.0, 6.0], 3) == [3.0, 4.0, 4.0]
    assert run.pair_means([1.0, 2.0], 3) == [1.0, 2.0]


def test_speed_factors_use_the_references_around_each_step():
    ref = run.REF_SECONDS
    assert run.speed_factors([ref, ref, ref / 2, ref / 2]) == pytest.approx([1.0, 4 / 3, 2.0])
    _, wall, scaled = run.timed_at_reference(sum, [1, 2])
    assert wall > 0 and scaled > 0


@pytest.mark.parametrize("workload", sorted(run.POOL_SIZE))
def test_pairs_pass_pretests_and_certify(workload):
    for pair in build(workload, 3, [0, 0]):
        assert instances.certify(workload, pair)


@pytest.mark.parametrize("n_base,seed", [(4, 0), (4, 1), (6, 0), (6, 1), (8, 0), (8, 1)])
def test_cfi_certificate_agrees_with_vf2(n_base, seed):
    pair = instances.build_cfi(seed, 0, n_base=n_base)
    assert pair.obj1.n_nodes == 10 * n_base
    assert not pair.answer
    assert not vf2_isomorphic(pair.obj1, pair.obj2)
    # The same base graph without the twist is isomorphic to the plain copy.
    rng = random.Random(f"cfi:{instances._instance_seed(seed, 0)}")
    base = instances.random_cubic_graph(n_base, rng)
    untwisted, _ = random_relabeling(instances.cfi_graph(base, n_base, frozenset()), seed)
    assert vf2_isomorphic(pair.obj1, untwisted)


GENERATORS = {
    "ternary": random_ternary_graph,
    "cubic": lambda n, seed: degree_sequence_graph([3] * n, seed),
}


# VF2 takes tens of seconds on some cubic negatives at 80 nodes, so cubic
# bases stop at 60.
@pytest.mark.parametrize("kind,n,seed", [
    ("ternary", 40, 1), ("ternary", 60, 2), ("ternary", 80, 3), ("ternary", 80, 4),
    ("cubic", 40, 1), ("cubic", 50, 2), ("cubic", 60, 3),
])
def test_switch_certificate_agrees_with_vf2(kind, n, seed):
    g = GENERATORS[kind](n, seed)
    separated = 0
    for attempt in range(3):
        switched = instances.two_switch(g, random.Random(f"test:{seed}:{attempt}"))
        assert switched.degree_sequence() == g.degree_sequence()
        assert not trigiso.validate(switched)
        if instances.distance_histograms(g) != instances.distance_histograms(switched):
            separated += 1
            assert not vf2_isomorphic(g, switched)
    assert separated


@pytest.mark.parametrize("n,seed", [(40, 0), (120, 1), (300, 2)])
def test_distance_histograms_match_scipy(n, seed):
    g = random_ternary_graph(n, seed)
    pos = {v: i for i, v in enumerate(g.node_ids)}
    rows = [pos[u] for u, v in g.edges()] + [pos[v] for u, v in g.edges()]
    cols = [pos[v] for u, v in g.edges()] + [pos[u] for u, v in g.edges()]
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    dist = shortest_path(adj, unweighted=True).astype(int)
    width = int(dist.max()) + 1
    expected = sorted(tuple(int(x) for x in np.bincount(r, minlength=width)) for r in dist)
    assert instances.distance_histograms(g) == expected


def test_mapping_checks_reject_broken_mappings():
    g = random_ternary_graph(40, 3)
    h, mapping = random_relabeling(g, 3)
    assert instances.graph_mapping_ok(g, h, mapping)
    # Edge {u, v} goes to a non-edge once v and w trade images.
    u, v = g.sorted_edges()[0]
    w = next(w for w in g.node_ids if w != u and not g.has_edge(u, w))
    broken = dict(mapping)
    broken[v], broken[w] = broken[w], broken[v]
    assert not instances.graph_mapping_ok(g, h, broken)
    assert not instances.graph_mapping_ok(g, h, None)

    net = trigiso.random_network(33, seed=2)
    ids = list(net.nodes)
    twin_map = dict(zip(ids, ids[::-1]))
    twin = net.relabeled_nodes(twin_map)
    assert instances.network_mapping_ok(net, twin, twin_map)
    leaves = sorted(net.leaves)
    broken = dict(twin_map)
    broken[leaves[0]], broken[leaves[1]] = broken[leaves[1]], broken[leaves[0]]
    assert not instances.network_mapping_ok(net, twin, broken)


def small_pool():
    cfi = instances.build_cfi(1, 0, n_base=6)
    g = random_ternary_graph(48, 1)
    h, _ = random_relabeling(g, 1)
    relabel = instances.Pair(
        "graph", trigiso.format_graph_text(g), trigiso.format_graph_text(h), True, g, h
    )
    net = trigiso.random_network(41, seed=1)
    ids = list(net.nodes)
    twin = net.relabeled_nodes(dict(zip(ids, ids[::-1])))
    network = instances.Pair(
        "network", trigiso.write_enewick(net), trigiso.write_enewick(twin), True, net, twin
    )
    return [cfi, relabel, network]


def test_traced_and_untraced_runs_agree():
    pool = small_pool()
    originals = {(o, a): o.__dict__[a] for o, a, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    plain, traced = [], []
    step = tracer.span(tracer.PAIR_SPAN, run.decide)
    for i, pair in enumerate(pool):
        plain.append(run.run_pair(trigiso, instances, pair, i))
        tracer.pair_id = i
        tracer.install()
        try:
            traced.append(run.run_pair(trigiso, instances, pair, i, step))
        finally:
            tracer.remove()
        assert all(o.__dict__[a] is f for (o, a), f in originals.items())
    assert [v for _, v, _ in plain] == [v for _, v, _ in traced] == [False, True, True]
    assert all(ok for _, _, ok in plain + traced)

    calls, _ = tracer.self_times()
    assert calls[tracer.PAIR_SPAN] == len(pool)
    assert calls["graphs.is_graph_isomorphism"] == 1
    assert calls["phylo.is_network_isomorphism"] == 1
    towers = tracer.calls_per_pair("layers.layer_sequence")
    assert all(towers[i] >= 1 for i in range(len(pool)))
    metrics = tracing.per_layer_metrics(tracer, len(pool))
    assert all(value >= 0 for value, _ in metrics.values())
    assert metrics["perm.orbit_partition.calls"][0] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph-cfi",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
