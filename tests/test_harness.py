"""Tests for the oracles, the random generators, and the bench runner."""

import hashlib
import random

import pytest

from trigiso.graphs import LabeledGraph, format_graph_text
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
from trigiso.perm import group_order, smoothness_violations

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


def _mixed_degrees(n: int, seed: int) -> list[int]:
    """A third each of degrees 1, 2 and 3, shuffled, with an even sum."""
    degrees = [1] * (n // 3) + [2] * (n // 3) + [3] * (n - 2 * (n // 3))
    random.Random(seed).shuffle(degrees)
    if sum(degrees) % 2:
        degrees[degrees.index(3)] = 2
    return degrees


# sha256 of format_graph_text(degree_sequence_graph(...)).  The cubic 512-node
# cases are the benchmark's graph-switch bases at seed 1; the mixed sequences
# leave the first pairing disconnected, so the connectivity repair loop runs
# (5 to 41 rounds) before the graph is returned.
_DEGREE_SEQUENCE_DIGESTS = [
    ([3] * 512, 64, "244a491e8379e63143c9a57e867e3bd8e63a17b73ab9757e09be18e190eac9b9"),
    ([3] * 512, 65, "454414349194dcada46529537a8f773107079507669cff758c0103d16751889d"),
    ([3] * 512, 66, "bc1223f29128657665feaf934a49c98822af2a78e0bb93b247ed1e730ed0a19e"),
    (_mixed_degrees(45, 0), 0, "9446a77dd57cb5cf8332a90d1d3b79616378edf6fa40a136a422a2207887ae36"),
    (_mixed_degrees(45, 1), 1, "26550af8793cdb78a5ffccd02aa433e4f6d5d9aef45de8f16eb87135ef17a1ac"),
    (_mixed_degrees(90, 2), 2, "02fbb0c37e9f8681992380e897039f848a39f2ade0b1ce7b35163ecde704aed1"),
    (_mixed_degrees(120, 0), 0, "a31462e0d95f804f53126a832dba04f49060a4494ae2cd916a185f00941aa626"),
    (_mixed_degrees(150, 1), 1, "5f6889792c14b1a3967cd5484b79d7e0c0dc42a9f861b89dab7a0037b6f0db1d"),
]


@pytest.mark.parametrize("degrees, seed, digest", _DEGREE_SEQUENCE_DIGESTS)
def test_degree_sequence_graph_output_is_pinned(degrees, seed, digest):
    g = degree_sequence_graph(degrees, seed)
    assert hashlib.sha256(format_graph_text(g).encode()).hexdigest() == digest


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


@pytest.mark.parametrize("sizes", [[1], [8, 1], [0], [-4]])
def test_bench_rejects_sizes_below_two(sizes):
    with pytest.raises(ValueError, match="sizes must be at least 2 nodes"):
        bench_run("isomorphic", sizes, trials=1, seed=0)


@pytest.mark.parametrize("trials", [-1, -5])
def test_bench_rejects_negative_trials(trials):
    with pytest.raises(ValueError, match="trials must not be negative"):
        bench_run("isomorphic", [8], trials=trials, seed=0)


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
