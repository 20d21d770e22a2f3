"""Brute-force oracles, random input generators, and the benchmark runner.

The oracles are deliberately naive (backtracking over degree- and
color-compatible bijections with partial-edge pruning) and capped at twelve
nodes, so they stay obviously correct and fast enough to cross-check the
real pipeline over thousands of instances.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import LabeledGraph, require_valid
from .perm import Permutation, compose, enumerate_group, inverse

ORACLE_NODE_CAP = 12


# ---------------------------------------------------------------------------
# Backtracking oracles
# ---------------------------------------------------------------------------


def _bfs_order(g: LabeledGraph) -> list[int]:
    order = []
    seen = set()
    adj = g.adjacency()
    for start in g.node_ids:
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w, _ in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


def _extend_maps(g1, g2, order, pos, mapping, used, out, find_all):
    """Depth-first extension of a partial node bijection; prunes on edges."""
    if pos == len(order):
        out.append(dict(mapping))
        return not find_all
    u = order[pos]
    if u in mapping:
        return _extend_maps(g1, g2, order, pos + 1, mapping, used, out, find_all)
    adj1 = g1.adjacency()
    for v in g2.node_ids:
        if v in used:
            continue
        if g2.color(v) != g1.color(u) or g2.degree(v) != g1.degree(u):
            continue
        ok = True
        for w, lab in adj1[u]:
            if w in mapping:
                mw = mapping[w]
                if not g2.has_edge(v, mw) or g2.label(v, mw) != lab:
                    ok = False
                    break
        if not ok:
            continue
        mapping[u] = v
        used.add(v)
        if _extend_maps(g1, g2, order, pos + 1, mapping, used, out, find_all):
            return True
        del mapping[u]
        used.discard(v)
    return False


def _iso_maps(g1, g2, seeds, find_all):
    """All (or one) label/color-preserving isomorphisms extending any seed map."""
    if g1.n_nodes != g2.n_nodes or g1.n_edges != g2.n_edges:
        return []
    if sorted(g1.colors().values()) != sorted(g2.colors().values()):
        return []
    if g1.degree_sequence() != g2.degree_sequence():
        return []
    if sorted(g1.edges().values()) != sorted(g2.edges().values()):
        return []
    order = _bfs_order(g1)
    out: list[dict] = []
    for seed in seeds:
        ok = True
        for u, v in seed.items():
            if g1.color(u) != g2.color(v) or g1.degree(u) != g2.degree(v):
                ok = False
        if not ok:
            continue
        mapping = dict(seed)
        used = set(seed.values())
        # verify seed edge consistency
        for u in seed:
            for w, lab in g1.adjacency()[u]:
                if w in mapping and (
                    not g2.has_edge(mapping[u], mapping[w])
                    or g2.label(mapping[u], mapping[w]) != lab
                ):
                    ok = False
        if not ok:
            continue
        done = _extend_maps(g1, g2, order, 0, mapping, used, out, find_all)
        if done and not find_all:
            return out
    return out


def oracle_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Exact isomorphism verdict by backtracking; inputs capped at 12 nodes."""
    if max(g1.n_nodes, g2.n_nodes) > ORACLE_NODE_CAP:
        raise ValueError(f"oracle capped at {ORACLE_NODE_CAP} nodes")
    return bool(_iso_maps(g1, g2, [{}], find_all=False))


def oracle_aut_e(g: LabeledGraph, e: tuple[int, int]) -> list[Permutation]:
    """All automorphisms fixing e setwise, over the sorted-node-id indexing."""
    if g.n_nodes > ORACLE_NODE_CAP:
        raise ValueError(f"oracle capped at {ORACLE_NODE_CAP} nodes")
    a, b = e
    if not g.has_edge(a, b):
        raise ValueError(f"edge {e} not in graph")
    maps = _iso_maps(g, g, [{a: a, b: b}, {a: b, b: a}], find_all=True)
    ids = g.node_ids
    pos = {v: i for i, v in enumerate(ids)}
    perms = {
        Permutation([pos[m[v]] for v in ids]) for m in maps
    }
    return sorted(perms)


def oracle_network_isomorphic(n1, n2) -> bool:
    """Exact rooted-network isomorphism by backtracking; capped at 12 nodes.

    Searches label- and degree-class-compatible bijections in a root-first
    order, pruning on arc consistency against already mapped neighbors.
    """
    if max(n1.n_nodes, n2.n_nodes) > ORACLE_NODE_CAP:
        raise ValueError(f"oracle capped at {ORACLE_NODE_CAP} nodes")
    if n1.n_nodes != n2.n_nodes or n1.n_arcs != n2.n_arcs:
        return False
    if sorted(n1.labels.values()) != sorted(n2.labels.values()):
        return False

    def key(net, v):
        return (net.in_degree(v), net.out_degree(v), net.label(v))

    # BFS order from the root so every later node has a mapped parent.
    order = []
    seen = set(n1.roots)
    queue = list(n1.roots)
    while queue:
        v = queue.pop(0)
        order.append(v)
        for w in n1.children(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(order) != n1.n_nodes:
        return False

    def extend(pos, mapping, used):
        if pos == len(order):
            return True
        u = order[pos]
        for v in n2.nodes:
            if v in used or key(n1, u) != key(n2, v):
                continue
            ok = True
            for p in n1.parents(u):
                if p in mapping and v not in n2.children(mapping[p]):
                    ok = False
            for c in n1.children(u):
                if c in mapping and mapping[c] not in n2.children(v):
                    ok = False
            if not ok:
                continue
            mapping[u] = v
            used.add(v)
            if extend(pos + 1, mapping, used):
                return True
            del mapping[u]
            used.discard(v)
        return False

    return extend(0, {}, set())


# ---------------------------------------------------------------------------
# Random graphs
# ---------------------------------------------------------------------------


def random_ternary_graph(n: int, seed: int) -> LabeledGraph:
    """Connected random graph with max degree 3; deterministic under seed.

    Grows a random spanning tree under the degree cap, then sprinkles in
    extra edges between under-full nodes.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    rng = random.Random(f"ternary:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    deg = [0] * n
    edges: dict[tuple[int, int], int] = {}

    def add(u, v):
        key = (u, v) if u < v else (v, u)
        edges[key] = 0
        deg[u] += 1
        deg[v] += 1

    for i in range(1, n):
        candidates = [order[j] for j in range(i) if deg[order[j]] < 3]
        add(order[i], rng.choice(candidates))

    for _ in range(rng.randint(0, n)):
        pool = [v for v in range(n) if deg[v] < 3]
        if len(pool) < 2:
            break
        u, v = rng.sample(pool, 2)
        key = (u, v) if u < v else (v, u)
        if key not in edges:
            add(u, v)
    return LabeledGraph(range(n), edges)


def random_relabeling(g: LabeledGraph, seed: int) -> tuple[LabeledGraph, dict]:
    """A copy of g under a seeded random node-id permutation, plus the map."""
    rng = random.Random(f"relabel:{seed}")
    ids = g.node_ids
    shuffled = ids[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(ids, shuffled))
    return g.relabeled(mapping), mapping


def degree_sequence_graph(degrees: Sequence[int], seed: int) -> LabeledGraph | None:
    """A connected graph realizing the degree sequence, or None if infeasible.

    Stub pairing with rejection, then edge-swap repair for connectivity;
    all degrees must be in 1..3 and the usual parity/count conditions hold.
    """
    n = len(degrees)
    if n == 0 or any(d < 1 or d > 3 for d in degrees):
        return None
    total = sum(degrees)
    if total % 2 != 0 or total // 2 < n - 1:
        return None
    if n == 1:
        return None
    rng = random.Random(f"degseq:{seed}")

    def components(edges):
        adj = {v: [] for v in range(n)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen, comps = set(), []
        for s in range(n):
            if s in seen:
                continue
            comp, stack = {s}, [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            comps.append(comp)
        return comps

    for _attempt in range(60):
        stubs = [v for v in range(n) for _ in range(degrees[v])]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for u, v in zip(stubs[::2], stubs[1::2]):
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if not ok:
            continue
        # connectivity repair: swap endpoints across components
        for _ in range(6 * n):
            comps = components(edges)
            if len(comps) == 1:
                break
            comp0 = comps[0]
            inside = [e for e in edges if e[0] in comp0 and e[1] in comp0]
            outside = [e for e in edges if e[0] not in comp0 and e[1] not in comp0]
            if not inside or not outside:
                break
            a, b = rng.choice(inside)
            c, d = rng.choice(outside)
            e1 = (a, c) if a < c else (c, a)
            e2 = (b, d) if b < d else (d, b)
            if e1 in edges or e2 in edges or a == c or b == d:
                continue
            edges.discard((a, b) if a < b else (b, a))
            edges.discard((c, d) if c < d else (d, c))
            edges.add(e1)
            edges.add(e2)
        if len(components(edges)) == 1:
            g = LabeledGraph(range(n), {e: 0 for e in edges})
            if g.degree_sequence() == sorted(degrees):
                return g
    return None


# ---------------------------------------------------------------------------
# Random smooth 2-groups (test fuel for the coset machinery)
# ---------------------------------------------------------------------------


def _interval_swaps(n_points: int) -> list[Permutation]:
    """Block swaps of the iterated-wreath 2-group on a power-of-two point count."""
    if n_points & (n_points - 1):
        raise ValueError("point count must be a power of two")
    swaps = []
    size = 1
    while 2 * size <= n_points:
        for start in range(0, n_points, 2 * size):
            img = list(range(n_points))
            for i in range(size):
                img[start + i], img[start + size + i] = (
                    start + size + i,
                    start + i,
                )
            swaps.append(Permutation(img))
        size *= 2
    return swaps


def random_smooth_2group(
    n_points: int = 16, max_order: int = 1 << 8, seed: int = 0
) -> tuple[Permutation, ...]:
    """A random 2-group of order <= max_order with a genuinely smooth SGS.

    Random elements of a conjugated iterated-wreath group are closed into a
    subgroup (resampling on overflow), and a smooth generating sequence is
    extracted greedily: each new generator g satisfies g^2 in C and gCg^-1 = C
    for the group C generated so far, so every step has index exactly 2.
    """
    rng = random.Random(f"smooth2:{seed}")
    base = _interval_swaps(n_points)
    shuffle = Permutation(rng.sample(range(n_points), n_points))
    shuffle_inv = inverse(shuffle)
    pool = [compose(shuffle, compose(s, shuffle_inv)) for s in base]

    def random_element():
        k = rng.randint(1, 3)
        out = Permutation.identity(n_points)
        for g in rng.sample(pool, k):
            out = compose(out, g)
        return out

    candidates = [random_element() for _ in range(rng.randint(1, 3))]
    elements = None
    while candidates:
        elements = enumerate_group(candidates, cap=max_order)
        if elements is not None:
            break
        candidates.pop()
    if not candidates or elements is None:
        return (Permutation.identity(n_points),)

    # Greedy smooth extraction: in a 2-group every proper subgroup admits an
    # extension of index exactly two by an element of its normalizer.
    current = {Permutation.identity(n_points)}
    sgs: list[Permutation] = []
    while len(current) < len(elements):
        options = []
        for g in elements:
            if g in current:
                continue
            if compose(g, g) not in current:
                continue
            g_inv = inverse(g)
            if all(compose(g, compose(c, g_inv)) in current for c in current):
                options.append(g)
        options.sort()
        g = rng.choice(options)
        sgs.append(g)
        current |= {compose(g, c) for c in current}
    return tuple(sgs)


# ---------------------------------------------------------------------------
# Benchmark runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRecord:
    n: int
    trial: int
    verdict: bool
    elapsed: float
    mode: str


# Pairs the pretests decide time the pretests, not the pipeline, so the only
# mode is relabelled positives.
BENCH_MODES = ("isomorphic",)


def _bench_case(mode: str, n: int, trial: int, seed: int) -> BenchRecord:
    from . import core

    rng = random.Random(f"bench:{seed}:{mode}:{n}:{trial}")
    sub = rng.randrange(1 << 30)
    g1 = random_ternary_graph(n, sub)
    g2, _ = random_relabeling(g1, sub + 1)
    t0 = time.perf_counter()
    verdict = core.is_isomorphic(g1, g2).isomorphic
    elapsed = time.perf_counter() - t0
    return BenchRecord(n=n, trial=trial, verdict=verdict, elapsed=elapsed, mode=mode)


def bench_run(
    mode: str,
    sizes: Sequence[int],
    trials: int,
    seed: int,
) -> list[BenchRecord]:
    """Run the benchmark protocol; records are sorted by (mode, n, trial).

    Pairs are relabeled copies, so their verdicts are all true.  Verdicts
    (and hence the CSV apart from `elapsed`) are stable for a fixed seed.
    """
    if mode not in BENCH_MODES:
        raise ValueError(f"unknown bench mode {mode!r}; pick one of {BENCH_MODES}")
    if not sizes:
        raise ValueError("need at least one size")
    records = [_bench_case(mode, n, t, seed) for n in sizes for t in range(trials)]
    return sorted(records, key=lambda r: (r.mode, r.n, r.trial))


def bench_csv(records: Iterable[BenchRecord]) -> str:
    lines = ["n,trial,verdict,elapsed,mode"]
    for r in records:
        lines.append(f"{r.n},{r.trial},{str(r.verdict).lower()},{r.elapsed!r},{r.mode}")
    return "\n".join(lines) + "\n"


def bench_summary(records: Iterable[BenchRecord]) -> str:
    """Per-size medians and successive log2 ratios, one line per (mode, n)."""
    import math
    import statistics

    by_key: dict[tuple[str, int], list[float]] = {}
    for r in records:
        by_key.setdefault((r.mode, r.n), []).append(r.elapsed)
    lines = []
    prev: dict[str, float] = {}
    for mode, n in sorted(by_key):
        med = statistics.median(by_key[(mode, n)])
        ratio = ""
        if mode in prev and prev[mode] > 0 and med > 0:
            ratio = f" log2-ratio={math.log2(med / prev[mode]):.2f}"
        lines.append(f"{mode} n={n} median={med:.6f}s{ratio}")
        prev[mode] = med
    return "\n".join(lines)
