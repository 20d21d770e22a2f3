"""Edge-rooted layer towers of ternary graphs.

Given a graph X and a distinguished edge e = {a, b}, the tower is
X_1 = ({a,b}, {e}) and, for r >= 2, V(X_r) adds every neighbor of V(X_{r-1})
while E(X_r) holds every edge with at least one endpoint in V(X_{r-1}).
A node entering at level r+1 has a nonempty "neighbor set" f(v): its already
placed neighbors, remembered here together with the labels of the connecting
edges.  Edges whose endpoints sit at the same level ("cross edges") first
appear one level after their endpoints.

Nodes whose neighbor set would have size 3 are rewritten before the tower is
materialized: each such v is replaced by a labeled triangle v1, v2, v3 (one
corner per placed neighbor, triangle edges carrying a reserved label), which
bounds every neighbor set by 2 without changing the edge-fixing automorphism
group.  The rewrite cannot cascade: a replaced node has no later neighbors,
so levels of all other nodes are unaffected.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import GADGET_LABEL, GraphError, LabeledGraph, require_valid, _norm_edge
from .perm import Permutation


class LayerDecomposition:
    """The full tower of one (graph, edge) pair over dense node indices.

    Node indices 0..n-1 refer to the gadget-rewritten working graph; for a
    node kept from the input graph, `orig_id[i]` is its original id, and for
    a gadget corner it is None with `gadget_parent[i]` naming the replaced
    original node.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        base_edge_orig: tuple[int, int],
        orig_id: list,
        index_of: dict,
        gadget_triple: dict,
        gadget_parent: dict,
        level_of: list[int],
        n_levels: int,
    ):
        self.graph = graph
        self.base_edge_orig = base_edge_orig
        self.orig_id = orig_id
        self.index_of = index_of
        self.gadget_triple = gadget_triple
        self.gadget_parent = gadget_parent
        self.level_of = level_of
        self.N = n_levels
        self.n = graph.n_nodes
        self.base_edge = (index_of[base_edge_orig[0]], index_of[base_edge_orig[1]])
        self.L = max(level_of)
        self.colors = [graph.color(v) for v in range(self.n)]

        adj = graph.adjacency()
        self.adj = [adj[v] for v in range(self.n)]

        # Fresh nodes per level and labeled neighbor sets.
        self.fresh: dict[int, list[int]] = {}
        for v in range(self.n):
            self.fresh.setdefault(level_of[v], []).append(v)
        for r in self.fresh:
            self.fresh[r].sort()
        self.nbr_map: dict[int, frozenset] = {}
        for v in range(self.n):
            if level_of[v] > 1:
                self.nbr_map[v] = frozenset(
                    (w, lab) for w, lab in self.adj[v] if level_of[w] < level_of[v]
                )

        # Fibers of entering nodes, per level: keyed by the labeled neighbor
        # set alone and by (neighbor set, node color).
        self.fibers_set: dict[int, dict] = {}
        self.fibers_full: dict[int, dict] = {}
        for r in range(1, self.N):
            by_set: dict = {}
            by_full: dict = {}
            for v in self.fresh.get(r + 1, []):
                fset = self.nbr_map[v]
                by_set.setdefault(fset, []).append(v)
                by_full.setdefault((fset, self.colors[v]), []).append(v)
            self.fibers_set[r] = by_set
            self.fibers_full[r] = by_full

        # Cross edges: both endpoints at the same level; they belong to the
        # next layer.  The base edge itself is level 1 by definition.
        self.cross: dict[int, dict] = {}
        base = frozenset(self.base_edge)
        for (u, v), lab in graph.edges().items():
            if level_of[u] == level_of[v] and frozenset((u, v)) != base:
                self.cross.setdefault(level_of[u], {})[frozenset((u, v))] = lab

    # -- layers -------------------------------------------------------------

    def nodes_at_most(self, r: int) -> list[int]:
        return [v for v in range(self.n) if self.level_of[v] <= r]

    def layer(self, r: int) -> tuple[frozenset, frozenset]:
        """(nodes, edges) of X_r; edges as frozenset pairs of node indices."""
        if not 1 <= r <= self.N:
            raise ValueError(f"level {r} outside 1..{self.N}")
        nodes = frozenset(self.nodes_at_most(r))
        if r == 1:
            return nodes, frozenset({frozenset(self.base_edge)})
        edges = frozenset(
            frozenset((u, v))
            for (u, v) in self.graph.edges()
            if min(self.level_of[u], self.level_of[v]) <= r - 1
        )
        return nodes, edges

    # -- ground elements for the per-level solve ------------------------------

    def b_set(self, r: int, gens: Sequence[Permutation]) -> list:
        """Ordered B_r: prior nodes, entering neighbor sets, new edge pairs.

        The materialized elements (labeled neighbor sets of the level-(r+1)
        nodes, cross-edge pairs of level r, nodes of V(X_{r-1})) are closed
        under the node action of `gens`, so the result is stable under the
        group they generate.  Nodes come first, then neighbor-set elements
        (frozensets of (node, label) pairs), then pair elements (frozensets
        of nodes), each block deterministically sorted.
        """
        node_elems = [v for v in range(self.n) if self.level_of[v] <= r - 1]
        f_elems = set(self.fibers_set.get(r, {}).keys())
        e_elems = set(self.cross.get(r, {}).keys())

        queue = list(f_elems) + list(e_elems)
        while queue:
            elem = queue.pop()
            labeled = isinstance(next(iter(elem)), tuple)
            for g in gens:
                if labeled:
                    img = frozenset((int(g.image[w]), lab) for w, lab in elem)
                    pool = f_elems
                else:
                    img = frozenset(int(g.image[w]) for w in elem)
                    pool = e_elems
                if img not in pool:
                    pool.add(img)
                    queue.append(img)

        return (
            sorted(node_elems)
            + sorted(f_elems, key=lambda s: tuple(sorted(s)))
            + sorted(e_elems, key=lambda s: tuple(sorted(s)))
        )

    # -- kernel of the level restriction --------------------------------------

    def kernel_generators(self, r: int) -> list[Permutation]:
        """Transpositions of same-fiber, same-color nodes entering at level r+1.

        These generate the kernel of the restriction of the edge-fixing
        automorphisms of X_{r+1} to X_r.  Fibers compare the labeled neighbor
        sets, so the swaps preserve edge labels as well as node colors.
        """
        if r + 1 > self.N:
            raise ValueError(f"level {r + 1} beyond tower depth {self.N}")
        out = []
        for (_fset, _color), members in sorted(
            self.fibers_full.get(r, {}).items(),
            key=lambda kv: (tuple(sorted(kv[0][0])), kv[0][1]),
        ):
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    out.append(Permutation.transposition(self.n, members[i], members[j]))
        return out


def _bfs_levels(g: LabeledGraph, e: tuple[int, int]) -> dict:
    """Level of every node: 1 for e's endpoints, else 1 + min neighbor level."""
    a, b = e
    level = {a: 1, b: 1}
    frontier = [a, b]
    adj = g.adjacency()
    r = 1
    while frontier:
        nxt = []
        for v in frontier:
            for w, _ in adj[v]:
                if w not in level:
                    level[w] = r + 1
                    nxt.append(w)
        frontier = sorted(nxt)
        r += 1
    return level


def layer_sequence(
    g: LabeledGraph, e: tuple[int, int], validated: bool = False
) -> LayerDecomposition:
    """Build the full tower for (g, e), applying the triangle rewrite.

    Every node whose neighbor set would have size 3 is replaced by a labeled
    triangle, so every neighbor set of the returned tower has size 1 or 2.
    """
    if not validated:
        require_valid(g, allow_reserved=True)
    e = _norm_edge(*e)
    if not g.has_edge(*e):
        raise GraphError(f"edge {e} not present in graph")

    level_orig = _bfs_levels(g, e)
    adj = g.adjacency()

    gadget_nodes = []
    for v in g.node_ids:
        if level_orig[v] == 1:
            continue
        placed = [(w, lab) for w, lab in adj[v] if level_orig[w] < level_orig[v]]
        if len(placed) == 3:
            gadget_nodes.append(v)

    kept = [v for v in g.node_ids if v not in set(gadget_nodes)]
    index_of = {v: i for i, v in enumerate(kept)}
    orig_id: list = list(kept)
    nodes: dict[int, int] = {index_of[v]: g.color(v) for v in kept}
    level_of = [level_orig[v] for v in kept]
    gadget_triple: dict[int, tuple[int, int, int]] = {}
    gadget_parent: dict[int, int] = {}

    edges: dict[tuple[int, int], int] = {}
    for (u, v), lab in g.edges().items():
        if u in index_of and v in index_of:
            edges[_norm_edge(index_of[u], index_of[v])] = lab

    next_idx = len(kept)
    for v in sorted(gadget_nodes):
        placed = sorted(
            ((index_of[w], lab) for w, lab in adj[v] if level_orig[w] < level_orig[v])
        )
        corners = (next_idx, next_idx + 1, next_idx + 2)
        next_idx += 3
        for c, (w, lab) in zip(corners, placed):
            nodes[c] = g.color(v)
            orig_id.append(None)
            level_of.append(level_orig[v])
            gadget_parent[c] = v
            edges[_norm_edge(c, w)] = lab
        gadget_triple[v] = corners
        for i in range(3):
            for j in range(i + 1, 3):
                edges[_norm_edge(corners[i], corners[j])] = GADGET_LABEL

    working = LabeledGraph(nodes, edges)

    if working.n_nodes == 2:
        n_levels = 1
    else:
        n_levels = max(
            min(level_of[u], level_of[v]) + 1 for (u, v) in working.edges()
        )
        n_levels = max(n_levels, max(level_of))

    return LayerDecomposition(
        graph=working,
        base_edge_orig=e,
        orig_id=orig_id,
        index_of=index_of,
        gadget_triple=gadget_triple,
        gadget_parent=gadget_parent,
        level_of=level_of,
        n_levels=n_levels,
    )


def triangle_gadget(g: LabeledGraph, e: tuple[int, int]) -> LabeledGraph:
    """The gadget-rewritten graph with original node ids preserved.

    Nodes whose neighbor set (relative to the tower rooted at e) has size 3
    are replaced by labeled triangles; corner nodes get fresh ids above the
    input id range.  Graphs with no such node are returned unchanged.
    """
    dec = layer_sequence(g, e)
    if not dec.gadget_triple:
        return g
    fresh_base = max(g.node_ids) + 1
    rename: dict[int, int] = {}
    counter = 0
    for idx in range(dec.n):
        if dec.orig_id[idx] is not None:
            rename[idx] = dec.orig_id[idx]
        else:
            rename[idx] = fresh_base + counter
            counter += 1
    return dec.graph.relabeled(rename)
