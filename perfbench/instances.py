"""Seeded instance builders, certificates and output checks for the benchmark.

`build_pair` takes the workload seed and a pair index and returns a `Pair`:
the two inputs as text in the format the public parser reads, the certified
verdict, and the objects the texts were written from, which the certificates
and the pretest checks use.  Builders use trigiso's own generators and
formatters; the certificates and the mapping checks are independent of
trigiso's verification code.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass

import trigiso
from trigiso.harness import degree_sequence_graph, random_relabeling, random_ternary_graph

RELABEL_NODES = 128
SWITCH_NODES = 512
CFI_BASE_VERTICES = 12
NETWORK_NODES = 193


class CertificateError(RuntimeError):
    """A built pair does not have the answer or the shape the workload needs."""


@dataclass(frozen=True)
class Pair:
    kind: str  # "graph" or "network"
    text1: str
    text2: str
    answer: bool
    obj1: object  # LabeledGraph or PhyloNetwork the text was written from
    obj2: object


def _instance_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# ---------------------------------------------------------------------------
# graph-relabel: a random ternary graph against a relabelled copy
# ---------------------------------------------------------------------------


def build_relabel(seed: int, index: int) -> Pair:
    """Base graph `index` of a fixed population, under a relabelling drawn from `seed`.

    `random_ternary_graph` draws its edge count anywhere from n-1 to 3n/2, and
    decision times of its graphs range over a factor of five, so base graphs
    drawn afresh for every seed made the seed, not the program, set a run's
    figures.  The seed still decides every node id of the second graph.
    """
    g = random_ternary_graph(RELABEL_NODES, index)
    h, _ = random_relabeling(g, _instance_seed(seed, index))
    return Pair(
        "graph", trigiso.format_graph_text(g), trigiso.format_graph_text(h), True, g, h
    )


# ---------------------------------------------------------------------------
# graph-switch: a connected, degree-preserving 2-switch of a cubic graph
# ---------------------------------------------------------------------------


def _connected(nodes, edges) -> bool:
    adj = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    start = next(iter(adj))
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(adj)


def level_signatures(g, e) -> list[tuple]:
    """Sorted (depth, colour, incident edges) of every node, by BFS from edge e.

    An incident edge is recorded as its label and whether the neighbour lies
    one level up, on the same level, or one level down.
    """
    adj = {v: [] for v in g.node_ids}
    for (u, v), lab in g.edges().items():
        adj[u].append((v, lab))
        adj[v].append((u, lab))
    depth = {e[0]: 0, e[1]: 0}
    queue = deque(e)
    while queue:
        x = queue.popleft()
        for y, _ in adj[x]:
            if y not in depth:
                depth[y] = depth[x] + 1
                queue.append(y)
    return sorted(
        (depth[v], g.color(v), tuple(sorted((lab, depth[w] - depth[v]) for w, lab in adj[v])))
        for v in g.node_ids
    )


def two_switch(g, rng: random.Random):
    """Replace edges {a,b}, {c,d} by {a,d}, {c,b}, keeping the graph connected.

    Degrees, colours and labels are unchanged, so the result passes every
    pretest of the original.  A switch that leaves the level signatures seen
    from g's smallest edge unchanged is redrawn: the layer-profile filter
    cannot cut the matching edge pairing then, and the pair would run a full
    tower, which is what the other graph workloads measure.
    """
    edges = g.edges()
    keys = sorted(edges)
    root = keys[0]
    before = level_signatures(g, root)
    while True:
        (a, b), (c, d) = rng.sample(keys[1:], 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or g.has_edge(a, d) or g.has_edge(c, b):
            continue
        new = dict(edges)
        lab1 = new.pop((min(a, b), max(a, b)))
        lab2 = new.pop((min(c, d), max(c, d)))
        new[(min(a, d), max(a, d))] = lab1
        new[(min(c, b), max(c, b))] = lab2
        if not _connected(g.node_ids, new):
            continue
        switched = trigiso.LabeledGraph(g.colors(), new)
        if level_signatures(switched, root) != before:
            return switched


def distance_histograms(g) -> list[tuple[int, ...]]:
    """Sorted per-node BFS distance histograms: an isomorphism invariant.

    Runs a BFS from every node at once: row v of `reached` is a bitset of the
    sources whose BFS has reached v, and the sources that reach v in round d
    are those at distance d from it.
    """
    import numpy as np

    ids = g.node_ids
    n = len(ids)
    pos = {v: i for i, v in enumerate(ids)}
    adj = g.adjacency()
    # Pad neighbour lists with the node itself, which adds no new sources.
    nbr = np.array([[pos[w] for w, _ in adj[v]] + [pos[v]] * (3 - len(adj[v])) for v in ids])
    reached = np.packbits(np.eye(n, dtype=bool), axis=1)
    columns = [np.ones(n, dtype=np.int64)]
    while True:
        grown = reached | np.bitwise_or.reduce(reached[nbr], axis=1)
        fresh = np.bitwise_count(grown & ~reached).sum(axis=1, dtype=np.int64)
        if not fresh.any():
            break
        columns.append(fresh)
        reached = grown
    return sorted(map(tuple, np.stack(columns, axis=1).tolist()))


def build_switch(seed: int, index: int, attempt: int) -> Pair:
    """A random cubic graph against a relabelled 2-switch of itself.

    `attempt` counts the redraws the certificate asked for.
    """
    s = _instance_seed(seed, index)
    for k in range(64):  # the generator gives up, returning None, on rare seeds
        g = degree_sequence_graph([3] * SWITCH_NODES, 64 * s + k)
        if g is not None:
            break
    else:
        raise CertificateError(f"graph-switch: no cubic graph for pair {index}")
    switched = two_switch(g, random.Random(f"switch:{s}:{attempt}"))
    h, _ = random_relabeling(switched, s)
    return Pair("graph", trigiso.format_graph_text(g), trigiso.format_graph_text(h), False, g, h)


# ---------------------------------------------------------------------------
# graph-cfi: Cai-Fürer-Immerman pair over a random cubic base graph
# ---------------------------------------------------------------------------


def random_cubic_graph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected simple cubic graph on n (even) vertices, by the pairing model."""
    if n < 4 or n % 2:
        raise ValueError("a cubic graph needs an even number of at least 4 vertices")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {
            (min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2]) if u != v
        }
        if len(edges) == 3 * n // 2 and _connected(range(n), edges):
            return sorted(edges)


def cfi_graph(base_edges, n_base: int, twisted: frozenset):
    """CFI graph of a cubic base graph, with the base edges in `twisted` twisted.

    Each base vertex v becomes 4 middle nodes (one per even subset of its three
    edge slots) and 6 end nodes a(v, slot, bit); a middle node for subset S is
    joined to a(v, s, 1) for s in S and a(v, s, 0) otherwise.  A base edge
    joins a(u, ., b) to a(v, ., b), or to a(v, ., 1 - b) when twisted.  Node
    colours mark base vertex and gadget position, so two CFI graphs of one
    connected base graph are isomorphic exactly when their twist counts have
    equal parity.
    """
    slots: dict[int, list[int]] = {v: [] for v in range(n_base)}
    for i, (u, v) in enumerate(base_edges):
        slots[u].append(i)
        slots[v].append(i)
    per = 10
    even = [(), (0, 1), (0, 2), (1, 2)]
    colors: dict[int, int] = {}
    edges: dict[tuple[int, int], int] = {}

    def end(v: int, slot: int, bit: int) -> int:
        return per * v + 4 + 2 * slot + bit

    for v in range(n_base):
        for k, subset in enumerate(even):
            m = per * v + k
            colors[m] = 4 * v + 1
            for slot in range(3):
                a = end(v, slot, 1 if slot in subset else 0)
                edges[(min(m, a), max(m, a))] = 0
        for slot in range(3):
            for bit in range(2):
                colors[end(v, slot, bit)] = 4 * v + 2 + slot
    for i, (u, v) in enumerate(base_edges):
        su, sv = slots[u].index(i), slots[v].index(i)
        flip = 1 if i in twisted else 0
        for bit in range(2):
            x, y = end(u, su, bit), end(v, sv, bit ^ flip)
            edges[(min(x, y), max(x, y))] = 0
    return trigiso.LabeledGraph(colors, edges)


def build_cfi(seed: int, index: int, n_base: int = CFI_BASE_VERTICES) -> Pair:
    s = _instance_seed(seed, index)
    rng = random.Random(f"cfi:{s}")
    base = random_cubic_graph(n_base, rng)
    plain = cfi_graph(base, n_base, frozenset())
    twisted = cfi_graph(base, n_base, frozenset({rng.randrange(len(base))}))
    h, _ = random_relabeling(twisted, s)
    return Pair(
        "graph", trigiso.format_graph_text(plain), trigiso.format_graph_text(h), False, plain, h
    )


# ---------------------------------------------------------------------------
# network-twin: a random network against a relabelled copy, via eNewick
# ---------------------------------------------------------------------------


def build_network_twin(seed: int, index: int) -> Pair:
    s = _instance_seed(seed, index)
    net = trigiso.random_network(NETWORK_NODES, seed=s)
    ids = list(net.nodes)
    shuffled = ids[:]
    random.Random(f"twin:{s}").shuffle(shuffled)
    twin = net.relabeled_nodes(dict(zip(ids, shuffled)))
    return Pair(
        "network", trigiso.write_enewick(net), trigiso.write_enewick(twin), True, net, twin
    )


PAIR_BUILDERS = {
    "graph-relabel": build_relabel,
    "graph-cfi": build_cfi,
    "network-twin": build_network_twin,
}


def build_pair(workload: str, seed: int, index: int, attempt: int = 0) -> Pair:
    """Pair `index` of a run; `attempt` counts the redraws its certificate asked for."""
    if workload == "graph-switch":
        return build_switch(seed, index, attempt)
    return PAIR_BUILDERS[workload](seed, index)


# ---------------------------------------------------------------------------
# Pretest shape and certificates
# ---------------------------------------------------------------------------


def _network_classes(net) -> tuple[int, int, int, int]:
    kinds = Counter((len(net.parents(v)), len(net.children(v))) for v in net.nodes)
    return kinds[(0, 2)], kinds[(1, 0)], kinds[(1, 2)], kinds[(2, 1)]


def pretest_shape(pair: Pair) -> tuple:
    """Everything trigiso's pretests compare, for each side of the pair."""

    def shape(x):
        if pair.kind == "graph":
            adj = Counter()
            for u, v in x.edges():
                adj[u] += 1
                adj[v] += 1
            return (
                x.n_nodes,
                x.n_edges,
                sorted(adj[v] for v in x.node_ids),
                sorted(x.colors().values()),
                sorted(x.edges().values()),
            )
        leaves = [v for v in x.nodes if not x.children(v)]
        return (
            x.n_nodes,
            x.n_arcs,
            _network_classes(x),
            sorted(x.labels.values()),
            sorted(str(x.label(v)) for v in leaves),
        )

    return shape(pair.obj1), shape(pair.obj2)


def certify(workload: str, pair: Pair) -> bool:
    """Whether the pair's certified answer is established independently of trigiso.

    Relabelled copies are isomorphic by construction and CFI pairs with one
    twist are not.  A 2-switch is certified non-isomorphic only when the sorted
    distance histograms differ; the caller redraws it otherwise.
    """
    s1, s2 = pretest_shape(pair)
    if s1 != s2:
        raise CertificateError(f"{workload}: pair would be decided by the pretests")
    if workload == "graph-switch":
        return distance_histograms(pair.obj1) != distance_histograms(pair.obj2)
    return True


# ---------------------------------------------------------------------------
# Output checks, independent of trigiso's own verification
# ---------------------------------------------------------------------------


def graph_mapping_ok(g1, g2, mapping) -> bool:
    """Edge-by-edge check that mapping is a colour- and label-preserving isomorphism."""
    if mapping is None or sorted(mapping) != g1.node_ids:
        return False
    if sorted(mapping.values()) != g2.node_ids:
        return False
    if any(g1.color(v) != g2.color(mapping[v]) for v in g1.node_ids):
        return False
    e1 = g1.edges()
    e2 = g2.edges()
    if len(e1) != len(e2):
        return False
    for (u, v), lab in e1.items():
        a, b = mapping[u], mapping[v]
        if e2.get((min(a, b), max(a, b))) != lab:
            return False
    return True


def network_mapping_ok(n1, n2, mapping) -> bool:
    """Arc-by-arc check that mapping is a label-preserving digraph isomorphism."""
    if mapping is None or sorted(mapping) != sorted(n1.nodes):
        return False
    if sorted(mapping.values()) != sorted(n2.nodes):
        return False
    if len(n1.arcs) != len(n2.arcs):
        return False
    if any((mapping[u], mapping[v]) not in n2.arcs for u, v in n1.arcs):
        return False
    return all(n1.labels.get(v) == n2.labels.get(mapping[v]) for v in n1.nodes)
