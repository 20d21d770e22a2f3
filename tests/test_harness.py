"""Tests for the oracles, the random generators, and the bench runner."""

import random

import pytest

from trigiso.graphs import LabeledGraph
from trigiso.harness import (
    bench_csv,
    bench_run,
    bench_summary,
    degree_sequence_graph,
    oracle_aut_e,
    oracle_isomorphic,
    random_relabeling,
    random_smooth_2group,
    random_ternary_graph,
)
from trigiso.perm import enumerate_group, group_order, smoothness_violations

from test_graphs import EX1_A, EX1_B, EX2_A, EX2_B, graph_from_edges


def test_oracle_reflexive_and_symmetric():
    g = random_ternary_graph(8, 3)
    assert oracle_isomorphic(g, g)
    h, _ = random_relabeling(g, 4)
    assert oracle_isomorphic(g, h) and oracle_isomorphic(h, g)


def test_oracle_on_example_pairs():
    assert oracle_isomorphic(graph_from_edges(EX1_A), graph_from_edges(EX1_B))
    assert not oracle_isomorphic(graph_from_edges(EX2_A), graph_from_edges(EX2_B))


def test_oracle_respects_colors_and_labels():
    a = LabeledGraph({0: 1, 1: 0}, [(0, 1)])
    b = LabeledGraph({0: 0, 1: 1}, [(0, 1)])
    c = LabeledGraph({0: 0, 1: 0}, [(0, 1)])
    assert oracle_isomorphic(a, b)
    assert not oracle_isomorphic(a, c)
    la = LabeledGraph([0, 1, 2], {(0, 1): 1, (1, 2): 2})
    lb = LabeledGraph([0, 1, 2], {(0, 1): 2, (1, 2): 1})
    assert oracle_isomorphic(la, lb)


def test_oracle_cap():
    g = random_ternary_graph(13, 0)
    with pytest.raises(ValueError):
        oracle_isomorphic(g, g)


def test_oracle_aut_e_square():
    square = LabeledGraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    auts = oracle_aut_e(square, (0, 1))
    # identity and the reflection through the fixed edge
    assert len(auts) == 2
    for a in auts:
        assert {a(0), a(1)} == {0, 1}


def test_oracle_aut_e_double_star():
    # two pendant pairs on the ends of the fixed edge: order 8
    g = LabeledGraph(range(6), [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    auts = oracle_aut_e(g, (0, 1))
    assert len(auts) == 8


def test_random_ternary_graph_contract():
    assert random_ternary_graph(2, 1).n_edges == 1
    g1 = random_ternary_graph(30, 9)
    g2 = random_ternary_graph(30, 9)
    assert g1 == g2  # determinism
    for seed in range(200):
        n = random.Random(seed).randint(2, 40)
        g = random_ternary_graph(n, seed)
        from trigiso.graphs import validate

        assert validate(g) == []


def test_degree_sequence_graph_cases():
    assert degree_sequence_graph([1, 1], 0).n_edges == 1
    assert degree_sequence_graph([1, 1, 1], 0) is None  # odd sum
    four_cycle = degree_sequence_graph([2, 2, 2, 2], 0)
    assert four_cycle is not None
    assert sorted(map(len, four_cycle.adjacency().values())) == [2, 2, 2, 2]
    assert four_cycle.n_edges == 4
    assert degree_sequence_graph([3, 1], 0) is None
    big = degree_sequence_graph([3] * 20, 7)
    assert big is not None and big.degree_sequence() == [3] * 20


def test_random_smooth_2group_is_smooth():
    for seed in range(25):
        sgs = random_smooth_2group(16, 1 << 8, seed)
        assert smoothness_violations(sgs) == []
        order = group_order(sgs)
        assert order is not None and order <= 1 << 8
        assert order & (order - 1) == 0


def test_bench_empty_and_isomorphic_modes():
    assert bench_run("isomorphic", [6], trials=0, seed=1) == []
    records = bench_run("isomorphic", [6, 8], trials=2, seed=1)
    assert len(records) == 4
    assert all(r.verdict for r in records)
    assert all(r.elapsed >= 0 for r in records)
    assert [(r.n, r.trial) for r in records] == [(6, 0), (6, 1), (8, 0), (8, 1)]


def test_bench_rejects_bad_mode():
    with pytest.raises(ValueError):
        bench_run("nope", [4], trials=1, seed=0)
    with pytest.raises(ValueError):
        bench_run("isomorphic", [], trials=1, seed=0)


def test_bench_csv_shape_and_determinism():
    a = bench_csv(bench_run("isomorphic", [6, 8], trials=2, seed=7))
    b = bench_csv(bench_run("isomorphic", [6, 8], trials=2, seed=7))
    assert a.splitlines()[0] == "n,trial,verdict,elapsed,mode"
    # identical seeds: identical rows except for the timing column
    strip = lambda text: [
        ",".join(col for i, col in enumerate(line.split(",")) if i != 3)
        for line in text.splitlines()
    ]
    assert strip(a) == strip(b)


def test_bench_summary_mentions_sizes():
    text = bench_summary(bench_run("isomorphic", [6, 8], trials=2, seed=3))
    assert "n=6" in text and "n=8" in text and "log2-ratio" in text
