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
so levels of all other nodes are unaffected.  Maximum degree 3 also bounds
every fiber by two nodes (`LayerDecomposition.kernel_generators`).

The input is a graph's array view (`GraphArrays`), and so is the rewritten
working graph, `LayerDecomposition.view`.  One int array carries the
tower's results back to the input: `owner[i]` is the index, in the input
view, of the input node that working node i is or replaces.  A working-graph
automorphism contracts onto the input by sending input node `owner[i]` to
`owner[image of i]`.  The reserved triangle labels force corners onto
corners, so the three corners of a replaced node all move onto the corners
of one node; the contraction is well defined and a group isomorphism.

The tower is built by a few array passes over the edge list, with no loop
over nodes or elements.  Nodes take dense indices in id order; BFS levels
come from frontier expansion over a padded neighbor table; the rewritten
nodes are one mask (three neighbors at a lower level).  Every node's
neighbor-set key is computed at once, and one stable `np.lexsort` on (level,
neighbor-set key, color rank) groups the fibers of all levels; each level's
`_Level` is slices of these global arrays.  The colour solver compares
element colors only for equality, so any coding that gives equal colors to
exactly the equal classes yields the same tower: a neighbor set's color is
the dense rank of the sorted color multiset of its entering nodes (at most
3), and a cross edge's color is ranked apart from those, by its label.

Every decision builds its tower on `refine(view, e)`, not on the view
itself: the node colors are replaced by the stable classes of color
refinement (1-dimensional Weisfeiler-Leman) with e's endpoints
individualized.  This is exact.  The classes refine the input colors, and
refinement commutes with every automorphism that fixes e setwise, so both
views have the same edge-fixing automorphisms.  On most graphs the classes
are nearly singletons, so the partial graphs X_r of the middle levels lose
the symmetries that only their unplaced remainder would break.
`layer_sequence` itself does not refine: it builds the tower of the colors
it is given.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import GADGET_LABEL, GraphArrays, GraphError, _frozen, _norm_edge, _view
from .perm import _row_ranks, _sorted_distinct


class LayerDecomposition:
    """The full tower of one (graph, edge) pair over dense node indices.

    Node indices 0..n-1 refer to the gadget-rewritten working graph: the
    kept input nodes in id order, then the three corners of each replaced
    node, in id order of the replaced nodes.  `view` is that graph's frozen
    array view: ids equal to indices, u < v on every edge, `GADGET_LABEL` on
    the triangle edges.  Per working node, `owner` is the input node it is
    or replaces (module docstring) and `level` its tower level.  `levels[r]`
    holds the integer-coded elements and fibers of level r, 1 <= r < N; a
    fiber of more than two nodes raises AssertionError.  `rigid_from` is
    the first level r from which no level has a two-node fiber, so no level
    r' >= r has kernel generators: one more than the last level with such a
    fiber, or 1 if there is none.
    """

    def __init__(
        self,
        view: GraphArrays,
        level: np.ndarray,
        base_edge: tuple[int, int],
        owner: np.ndarray,
    ):
        """`view` is the working graph (`layer_sequence`); the rest are attributes."""
        self.view = view
        self.owner = owner
        self.base_edge = base_edge
        self.n = n = len(view.ids)
        self.level = level
        u, v = view.u, view.v
        lu, lv = level[u], level[v]
        self.N = 1 if n == 2 else int(max(np.minimum(lu, lv).max() + 1, level.max()))

        # Integer codes of the tower elements.  A neighbor set's members are
        # halves node·R + label rank, a pair's node·R + R - 1; a singleton
        # repeats its half.  The key is kind·S² + smaller half·S + larger
        # half, kind 1 for pairs, so keys sort neighbor sets before pairs
        # and each kind like the sorted member tuples.  Labels enter only as
        # dense ranks, so labels of any size build the same tables.
        label_values = _sorted_distinct(view.labels)
        rank = np.searchsorted(label_values, view.labels)
        self._R = R = len(label_values) + 1
        self._S = S = n * R
        if 2 * S * S >= 1 << 63:
            raise GraphError("graph too large for 64-bit tower element keys")
        palette = _sorted_distinct(view.colors)
        self.n_colors = C = len(palette)
        color_rank = np.searchsorted(palette, view.colors)

        # Every node's neighbor-set key from its edges to lower levels.
        src, dst = np.concatenate([u, v]), np.concatenate([v, u])
        half = dst * R + np.concatenate([rank, rank])
        low = level[dst] < level[src]
        lo, hi = np.full(n, S), np.zeros(n, dtype=np.int64)
        np.minimum.at(lo, src[low], half[low])
        np.maximum.at(hi, src[low], half[low])
        set_key = lo * S + hi

        # The fibers of every level: entering nodes sorted by (level, set
        # key, color rank), and by index within a fiber (lexsort is stable).
        entering = np.flatnonzero(level > 1)
        members = entering[
            np.lexsort((color_rank[entering], set_key[entering], level[entering]))
        ]
        m_level, m_set, m_rank = level[members], set_key[members], color_rank[members]
        new_set = np.ones(len(members), dtype=bool)
        new_set[1:] = (m_level[1:] != m_level[:-1]) | (m_set[1:] != m_set[:-1])
        new_fiber = new_set.copy()
        new_fiber[1:] |= m_rank[1:] != m_rank[:-1]
        set_first, fiber_first = np.flatnonzero(new_set), np.flatnonzero(new_fiber)
        set_of = np.cumsum(new_set) - 1
        set_keys, set_level = m_set[set_first], m_level[set_first]
        fiber_set, fiber_level = set_of[fiber_first], m_level[fiber_first]
        fiber_rank = m_rank[fiber_first]
        # Where the nodes entering at level r+1 begin, for r = 1 .. N.
        bounds = np.arange(2, self.N + 2)
        m_at = np.searchsorted(m_level, bounds)
        s_at = np.searchsorted(set_level, bounds)
        f_at = np.searchsorted(fiber_level, bounds)
        local_set = np.arange(len(set_first)) - s_at[set_level - 2]
        fiber_keys = local_set[fiber_set] * C + fiber_rank
        fiber_halves = np.stack([set_keys[fiber_set] // S, set_keys[fiber_set] % S], axis=-1)
        fiber_nodes, fiber_ranks = np.divmod(fiber_halves, R)
        start = fiber_first - m_at[fiber_level - 2]
        size = np.diff(np.append(fiber_first, len(members)))
        if (size > 2).any():
            at = int(fiber_level[size > 2][0])
            raise AssertionError(f"a fiber of more than two nodes enters at level {at}")
        # A two-node fiber entering at level r+1 gives level r a kernel swap.
        self.rigid_from = int(fiber_level[size == 2].max(initial=1))

        # Element colors: a set's sorted color-rank multiset, ranked densely
        # from 1; cross edges (same level, not the base edge, which is the
        # only edge inside level 1) after those, by label.
        width = int(np.diff(np.append(set_first, len(members))).max(initial=1))
        sig = np.full((len(set_first), width), -1)
        sig[set_of, np.arange(len(members)) - set_first[set_of]] = m_rank
        set_color = _row_ranks(sig) + 1
        cross = (lu == lv) & (lu > 1)
        cu, cv = u[cross], v[cross]
        elem_level = np.concatenate([set_level - 1, lu[cross]])
        elem_keys = np.concatenate([set_keys, S * S + (cu * R + R - 1) * S + cv * R + R - 1])
        elem_colors = np.concatenate([set_color, len(sig) + 1 + rank[cross]])
        order = np.lexsort((elem_keys, elem_level))
        elem_keys, elem_colors = elem_keys[order], elem_colors[order]
        e_at = np.searchsorted(elem_level[order], np.arange(1, self.N + 1))

        self.levels = {}
        for r in range(1, self.N):
            e, f = slice(e_at[r - 1], e_at[r]), slice(f_at[r - 1], f_at[r])
            self.levels[r] = _Level(
                keys=elem_keys[e],
                colors=elem_colors[e],
                set_keys=set_keys[s_at[r - 1] : s_at[r]],
                fiber_keys=fiber_keys[f],
                fiber_nodes=fiber_nodes[f],
                fiber_ranks=fiber_ranks[f],
                fiber_colors=fiber_rank[f],
                start=start[f],
                size=size[f],
                members=members[m_at[r - 1] : m_at[r]],
            )

    # -- integer-coded elements ---------------------------------------------

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

    def lift_or_none(self, r: int, images: np.ndarray) -> np.ndarray | None:
        """Node images of the lifts of level-r automorphisms to level r+1, or None.

        `images` holds node images in its last axis, one automorphism per
        row.  Each node entering at level r+1 goes to the node at its own
        position (in index order) of the fiber with the image neighbor set
        and the same color.  None if some row finds no target fiber, or one
        of another size.
        """
        img = np.array(images, dtype=np.int32)
        level = self.levels.get(r)
        if level is None or not len(level.members):
            return img
        halves = img[..., level.fiber_nodes].astype(np.int64) * self._R + level.fiber_ranks
        moved = halves.min(axis=-1) * self._S + halves.max(axis=-1)
        # Clipped, a searchsorted index past the last key reads a smaller key,
        # so it fails its comparison just as a missing key does.
        at = np.searchsorted(level.set_keys, moved).clip(max=len(level.set_keys) - 1)
        target = at * self.n_colors + level.fiber_colors
        j = np.searchsorted(level.fiber_keys, target).clip(max=len(level.fiber_keys) - 1)
        if not ((level.set_keys[at] == moved) & (level.fiber_keys[j] == target)).all() or (
            level.size[j] != level.size
        ).any():
            return None
        shift = np.repeat(level.start[j] - level.start, level.size, axis=-1)
        img[..., level.members] = level.members[shift + np.arange(len(level.members))]
        return img

    # -- ground elements for the per-level solve ------------------------------

    def b_set(self, r: int, images: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """B_r closed under node maps: (keys, positions, colors).

        B_r starts as the materialized elements of level r, the labeled
        neighbor sets of the nodes entering at level r+1 and the cross-edge
        pairs of level r.  `images` is a (k, n) array of node images, one
        permutation per row.  Returns the sorted keys of B_r closed under
        the rows, so stable under the group they generate; the (k, |B_r|)
        positions in those keys of every key's image under every row; and
        the element colors, the level's color ids for materialized keys and
        0, the neutral color, for keys the closure added.

        The level's keys are moved once and their images looked up by one
        `searchsorted`.  Images not found are the closure's next keys: they
        are taken sorted and distinct, moved in turn and inserted into the
        keys, the image table and the colors, until every image is found.
        So the result is returned only once `keys[positions]` equals every
        moved key, for every row and key.
        """
        level = self.levels.get(r)
        if level is None:
            keys = colors = np.empty(0, dtype=np.int64)
        else:
            keys, colors = level.keys, level.colors
        moved = self.move(images, keys)
        while True:
            pos = np.searchsorted(keys, moved)
            missing = keys[pos.clip(max=len(keys) - 1)] != moved
            if not missing.any():
                return keys, pos, colors
            new = _sorted_distinct(moved[missing])
            at = np.searchsorted(keys, new)
            keys = np.insert(keys, at, new)
            colors = np.insert(colors, at, 0)
            moved = np.insert(moved, at, self.move(images, new), axis=1)

    # -- kernel of the level restriction --------------------------------------

    def kernel_generators(self, r: int) -> np.ndarray:
        """Transpositions of the two-node fibers entering at level r+1.

        These generate the kernel of the restriction of the edge-fixing
        automorphisms of X_{r+1} to X_r.  Fibers compare the labeled neighbor
        sets, so the swaps preserve edge labels as well as node colors.  A
        fiber has one or two nodes: each member is a neighbor of some node x
        placed lower, and x has a neighbor not above it (a lower one, or the
        other base endpoint), so at most two of its three are above it.
        Returns a (t, n) array of node images, one row per two-node fiber.
        """
        if r + 1 > self.N:
            raise ValueError(f"level {r + 1} beyond tower depth {self.N}")
        level = self.levels.get(r)
        if level is None or not (level.size == 2).any():
            return np.empty((0, self.n), dtype=np.int32)
        pair = level.members[level.start[level.size == 2, None] + [0, 1]]
        out = np.tile(np.arange(self.n, dtype=np.int32), (len(pair), 1))
        out[np.arange(len(pair))[:, None], pair] = pair[:, ::-1]
        return out


# Level of the padding node of the neighbor table: never reached, never lower.
_FAR = np.iinfo(np.int64).max


class _Level(NamedTuple):
    """Integer-coded elements and fibers of one tower level r.

    `keys` are the sorted keys of the materialized elements and `colors`
    their color ids (ids from 1, equal exactly for equal colors).  A fiber
    is the set of nodes entering at level r+1 with one neighbor set and one
    color, one or two nodes.  `set_keys` are the sorted distinct neighbor-set
    keys; fiber i is keyed `fiber_keys[i]` = (position of its neighbor set
    in `set_keys`) · C + `fiber_colors[i]`, C the number of node colors and
    the color a rank, and fibers are sorted by that key.  `fiber_nodes` and
    `fiber_ranks` hold the two halves of each fiber's neighbor set, node and
    label rank.  `members` lists the nodes of every fiber, fiber by fiber and
    each in index order; fiber i takes `size[i]` entries from `start[i]`.
    Every field is a slice of one array over all levels.
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


def _bfs_levels(nbr: np.ndarray, a: int, b: int) -> np.ndarray:
    """Level of every node: 1 for a and b, else 1 + min neighbor level.

    `nbr` is the (n+1, D) neighbor table padded with node n, whose level is
    `_FAR`; frontiers expand one level per round.  Each frontier is made
    distinct: a node reached from several lower neighbors would otherwise
    appear once per shortest path from the base edge.
    """
    n = len(nbr) - 1
    level = np.zeros(n + 1, dtype=np.int64)
    level[n] = _FAR
    level[[a, b]] = 1
    frontier, r = np.array([a, b]), 1
    while len(frontier):
        reached = nbr[frontier].ravel()
        frontier = _sorted_distinct(reached[level[reached] == 0])
        r += 1
        level[frontier] = r
    return level


def _base_indices(view: GraphArrays, e: tuple[int, int]) -> tuple[int, int]:
    """Dense indices of e's endpoints in `view`; an absent e raises GraphError."""
    ids = view.ids
    e = _norm_edge(*e)
    a, b = np.searchsorted(ids, e).clip(max=len(ids) - 1).tolist()
    if ids[a] != e[0] or ids[b] != e[1] or not ((view.u == a) & (view.v == b)).any():
        raise GraphError(f"edge {e} not present in graph")
    return a, b


def _incidence(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded (n+1, D) tables of every node's neighbors and incident edges.

    Row i lists node i's edges in edge order, as the neighbor and the index
    of the edge; absent slots, and row n, hold neighbor n and edge -1.
    """
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    by_src = np.argsort(src, kind="stable")
    deg = np.bincount(src, minlength=n)
    slot = np.arange(len(src)) - (np.cumsum(deg) - deg)[src[by_src]]
    nbr = np.full((n + 1, int(deg.max(initial=0))), n)
    edge = np.full_like(nbr, -1)
    nbr[src[by_src], slot] = dst[by_src]
    edge[src[by_src], slot] = by_src % len(u)
    return nbr, edge


def refine(view: GraphArrays, e: tuple[int, int]) -> GraphArrays:
    """`view` with its colors replaced by the stable color-refinement classes.

    1-dimensional Weisfeiler-Leman refinement with e's endpoints
    individualized: the initial class of a node is 2·(rank of its color) +
    [it is an endpoint of e], and each round splits a class by the sorted
    (edge label, neighbor class) slots of its nodes.  Rounds stop when the
    number of classes stops growing; the new colors are the dense class
    ranks, int32 like the tower's rows, so the tower's node-color check
    gathers four bytes a cell.  Ranks are taken in sorted order of the
    classes' defining values, so relabelling the graph permutes the result
    with it.  The classes refine the input colors, and every automorphism
    fixing e setwise preserves them, so that group is the same for both
    views.  Callers validate, this function does not; an absent e raises
    GraphError.
    """
    a, b = _base_indices(view, e)
    ids, colors, u, v, lab, _ = view
    n = len(ids)
    nbr, edge = (table[:n] for table in _incidence(u, v, n))
    # A slot codes (label rank, neighbor class) as label rank·n + class, and
    # no edge as -1: classes are ranks below n, and the padding node n keeps
    # class 0 under the -1 of every absent slot.
    rank = np.searchsorted(_sorted_distinct(lab), lab)
    label = np.where(edge < 0, -1, rank[edge] * n)
    start = 2 * np.searchsorted(_sorted_distinct(colors), colors)
    start[[a, b]] += 1
    cls = np.append(np.searchsorted(_sorted_distinct(start), start), 0)
    count = int(cls.max()) + 1
    while count < n:
        slots = label + cls[nbr]
        slots.sort(axis=1)
        cls[:n] = _row_ranks(np.column_stack([cls[:n], slots]))
        count, last = int(cls.max()) + 1, count
        if count == last:
            break
    return _frozen(view._replace(colors=cls[:n].astype(np.int32)))


def layer_sequence(view: GraphArrays, e: tuple[int, int]) -> LayerDecomposition:
    """Build the full tower for (view, e), applying the triangle rewrite.

    `view` is the array view of a valid graph, reserved values allowed, and e
    one of its edges, by node ids.  Callers validate, this function does not;
    an absent e raises GraphError.  Every node whose neighbor set would have
    size 3 is replaced by a labeled triangle, so every neighbor set of the
    returned tower has size 1 or 2.  A replaced node's corners take its
    placed neighbors, sorted by (new index, label), in corner order.
    """
    a, b = _base_indices(view, e)
    ids, colors, u, v, lab, _ = view
    n = len(ids)
    nbr, edge = _incidence(u, v, n)
    level = _bfs_levels(nbr, a, b)
    lower = level[nbr[:n]] < level[:n, None]
    gadget = lower.sum(axis=1) == 3

    kept, replaced = np.flatnonzero(~gadget), np.flatnonzero(gadget)
    nk, ng = len(kept), len(replaced)
    index = np.zeros(n, dtype=np.int64)
    index[kept] = np.arange(nk)
    placed = index[nbr[replaced][lower[replaced]]].reshape(ng, 3)
    placed_labels = lab[edge[replaced][lower[replaced]]].reshape(ng, 3)
    by_index = np.argsort(placed, axis=1)  # distinct neighbors: (index, label) order
    corners = nk + np.arange(3 * ng).reshape(ng, 3)
    # Per replaced node: its three corner edges, then the triangle.  A
    # placed neighbor is a kept node, so its index is below every corner.
    gadget_u = np.hstack([np.take_along_axis(placed, by_index, axis=1), corners[:, [0, 0, 1]]])
    gadget_v = np.hstack([corners, corners[:, [1, 2, 2]]])
    gadget_labels = np.hstack(
        [np.take_along_axis(placed_labels, by_index, axis=1), np.full((ng, 3), GADGET_LABEL)]
    )
    keep = ~(gadget[u] | gadget[v])

    owner = np.concatenate([kept, np.repeat(replaced, 3)])
    working = _view(
        np.arange(len(owner)),
        colors[owner],
        np.concatenate([index[u[keep]], gadget_u.ravel()]),
        np.concatenate([index[v[keep]], gadget_v.ravel()]),
        np.concatenate([lab[keep], gadget_labels.ravel()]),
    )
    return LayerDecomposition(working, level[owner], (int(index[a]), int(index[b])), owner)
