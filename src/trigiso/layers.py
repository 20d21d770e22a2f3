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

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .graphs import GADGET_LABEL, GraphError, LabeledGraph, require_valid, _norm_edge
from .perm import _sorted_distinct


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

        # Cross edges: both endpoints at the same level; they belong to the
        # next layer.  The base edge itself is level 1 by definition.
        self.cross: dict[int, dict] = {}
        base = frozenset(self.base_edge)
        for (u, v), lab in graph.edges().items():
            if level_of[u] == level_of[v] and frozenset((u, v)) != base:
                self.cross.setdefault(level_of[u], {})[frozenset((u, v))] = lab

        # Integer codes of the tower elements (see `encode`).  Label rank
        # R - 1 marks the two halves of a node pair.
        self._label_rank = {
            lab: i for i, lab in enumerate(sorted(set(graph.edges().values())))
        }
        self._R = len(self._label_rank) + 1
        self._S = self.n * self._R
        if 2 * self._S * self._S >= 1 << 63:
            raise GraphError("graph too large for 64-bit tower element keys")
        self.node_colors = np.array(self.colors)
        self._color_rank = {c: i for i, c in enumerate(sorted(set(self.colors)))}
        self.n_colors = len(self._color_rank)
        self.levels = {r: self._level(r) for r in range(1, self.N)}

    # -- integer-coded elements ---------------------------------------------

    def encode(self, elems) -> np.ndarray:
        """Keys of tower elements, in the given order.

        An element is a labeled neighbor set (a frozenset of one or two
        (node, label) pairs) or a node pair (a frozenset of two nodes).
        Each member is coded as a half node·R + label rank (rank R - 1 for
        pair members); a singleton repeats its half.  The key is
        kind·S² + smaller half·S + larger half, kind 1 for pairs, so keys
        sort neighbor sets before pairs, and each kind like the sorted
        member tuples.
        """
        R, S = self._R, self._S
        halves = np.zeros((len(elems), 2), dtype=np.int64)
        kind = np.zeros(len(elems), dtype=np.int64)
        for i, elem in enumerate(elems):
            members = list(elem)
            if len(members) == 1:
                members *= 2
            for j, x in enumerate(members):
                if isinstance(x, tuple):
                    halves[i, j] = x[0] * R + self._label_rank[x[1]]
                else:
                    halves[i, j] = x * R + R - 1
                    kind[i] = 1
        return kind * S * S + halves.min(axis=1) * S + halves.max(axis=1)

    def move(self, images: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Keys of the images of elements under node maps, shape (k, len(keys)).

        `images` is a (k, n) array of node images, one permutation per row.
        """
        S, R = self._S, self._R
        rest = keys % (S * S)
        halves = np.stack([rest // S, rest % S], axis=-1)
        node = halves // R
        moved = halves + (images[:, node] - node) * R
        return (keys - rest) + moved.min(axis=-1) * S + moved.max(axis=-1)

    def element_colors(self, r: int, keys: np.ndarray) -> np.ndarray:
        """Color ids of level-r elements; 0, the neutral color, if unmaterialized."""
        level = self.levels[r]
        at = np.searchsorted(level.keys, keys).clip(max=len(level.keys) - 1)
        return np.where(level.keys[at] == keys, level.colors[at], 0)

    def lift_image(self, r: int, images: np.ndarray) -> np.ndarray:
        """Node images of the lifts of level-r automorphisms to level r+1.

        `images` holds node images in its last axis, one automorphism per
        row.  Each node entering at level r+1 goes to the node at its own
        position (in index order) of the fiber with the image neighbor set
        and the same color.  A missing target fiber, or one of another size,
        raises GraphError.
        """
        img = np.array(images, dtype=np.int32)
        level = self.levels.get(r)
        if level is None or not len(level.members):
            return img
        halves = img[..., level.fiber_nodes].astype(np.int64) * self._R + level.fiber_ranks
        moved = halves.min(axis=-1) * self._S + halves.max(axis=-1)
        at = np.searchsorted(level.set_keys, moved)
        target = at * self.n_colors + level.fiber_colors
        j = np.searchsorted(level.fiber_keys, target)
        if not ((level.set_keys[at] == moved) & (level.fiber_keys[j] == target)).all() or (
            level.size[j] != level.size
        ).any():
            raise GraphError("fiber mismatch while lifting: permutation was not certified")
        shift = np.repeat(level.start[j] - level.start, level.size, axis=-1)
        img[..., level.members] = level.members[shift + np.arange(len(level.members))]
        return img

    def _level(self, r: int) -> "_Level":
        entering = self.fresh.get(r + 1, [])
        sets = [self.nbr_map[v] for v in entering]
        set_keys, set_index = np.unique(self.encode(sets), return_inverse=True)
        ranks = [self._color_rank[self.colors[v]] for v in entering]
        fiber_of = set_index * self.n_colors + np.array(ranks, dtype=np.int64)
        order = np.argsort(fiber_of, kind="stable")
        fiber_keys, start, size = np.unique(
            fiber_of[order], return_index=True, return_counts=True
        )
        # Each fiber's neighbor set, to gather: halves = image[nodes]·R + ranks.
        fiber_sets = set_keys[fiber_keys // self.n_colors]
        fiber_halves = np.stack([fiber_sets // self._S, fiber_sets % self._S], axis=-1)

        # Colors: the sorted member colors of a neighbor set's nodes, the
        # label of a cross edge; ids from 1, 0 is left for the neutral color.
        ids: dict = {}
        sigs: list[list] = [[] for _ in set_keys]
        for i, v in zip(set_index, entering):
            sigs[i].append(self.colors[v])
        cross = self.cross.get(r, {})
        colors = [("f", tuple(sorted(sig))) for sig in sigs]
        colors += [("e", lab) for lab in cross.values()]
        keys = np.concatenate([set_keys, self.encode(list(cross))])
        by_key = np.argsort(keys)
        color_ids = np.array(
            [ids.setdefault(c, len(ids) + 1) for c in colors], dtype=np.int64
        )
        return _Level(
            keys=keys[by_key],
            colors=color_ids[by_key],
            set_keys=np.append(set_keys, _PAST_ALL_KEYS),
            fiber_keys=np.append(fiber_keys, _PAST_ALL_KEYS),
            fiber_nodes=fiber_halves // self._R,
            fiber_ranks=fiber_halves % self._R,
            fiber_colors=fiber_keys % self.n_colors,
            start=start,
            size=size,
            members=np.array(entering, dtype=np.int64)[order],
        )

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

    def b_set(self, r: int, images: np.ndarray) -> np.ndarray:
        """Sorted keys of B_r: the materialized elements of level r, closed.

        The materialized elements are the labeled neighbor sets of the nodes
        entering at level r+1 and the cross-edge pairs of level r (keys as in
        `encode`).  `images` is a (k, n) array of node images, one
        permutation per row.  The closure runs on keys, a whole frontier
        under all rows per round, so the result is stable under the group
        they generate.
        """
        level = self.levels.get(r)
        seen = level.keys if level is not None else np.empty(0, dtype=np.int64)
        if len(images) and len(seen):
            frontier = seen
            while len(frontier):
                moved = _sorted_distinct(self.move(images, frontier))
                frontier = np.setdiff1d(moved, seen, assume_unique=True)
                seen = np.sort(np.concatenate([seen, frontier]))
        return seen

    # -- kernel of the level restriction --------------------------------------

    def kernel_generators(self, r: int) -> np.ndarray:
        """Transpositions of same-fiber, same-color nodes entering at level r+1.

        These generate the kernel of the restriction of the edge-fixing
        automorphisms of X_{r+1} to X_r.  Fibers compare the labeled neighbor
        sets, so the swaps preserve edge labels as well as node colors.
        Returns a (t, n) array of node images, one transposition per row.
        """
        if r + 1 > self.N:
            raise ValueError(f"level {r + 1} beyond tower depth {self.N}")
        level = self.levels.get(r)
        pairs = []
        if level is not None:
            for s, z in zip(level.start.tolist(), level.size.tolist()):
                pairs += combinations(level.members[s : s + z].tolist(), 2)
        out = np.tile(np.arange(self.n, dtype=np.int32), (len(pairs), 1))
        for row, (u, v) in zip(out, pairs):
            row[u], row[v] = v, u
        return out


# Ends the lookup tables of `lift_image`, so a searchsorted index is always valid.
_PAST_ALL_KEYS = np.iinfo(np.int64).max


class _Level(NamedTuple):
    """Integer-coded elements and fibers of one tower level r.

    `keys` are the sorted keys of the materialized elements and `colors`
    their color ids.  A fiber is the set of nodes entering at level r+1 with
    one neighbor set and one color.  `set_keys` are the sorted distinct
    neighbor-set keys; fiber i is keyed `fiber_keys[i]` = (position of its
    neighbor set in `set_keys`) · C + `fiber_colors[i]`, C the number of
    node colors and the color a rank, and fibers are sorted by that key.
    Both key tables end with `_PAST_ALL_KEYS`.  `fiber_nodes` and
    `fiber_ranks` hold the two halves of each fiber's neighbor set (see
    `LayerDecomposition.encode`).  `members` lists the nodes
    of every fiber, fiber by fiber and each in index order; fiber i takes
    `size[i]` entries from `start[i]`.
    """

    keys: np.ndarray
    colors: np.ndarray
    set_keys: np.ndarray
    fiber_keys: np.ndarray
    fiber_nodes: np.ndarray
    fiber_ranks: np.ndarray
    fiber_colors: np.ndarray
    start: np.ndarray
    size: np.ndarray
    members: np.ndarray


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
