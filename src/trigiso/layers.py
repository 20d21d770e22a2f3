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
over nodes or elements.  Nodes take dense indices in id order.  Every
node's incident edges are read from one adjacency format, three (neighbor,
label rank) slots per node sorted by label, padded with a node n
(`_slots`); it is the only one, built once per tower for the BFS, color
refinement and the rewrite, and by `core` for both inputs of a decision.
BFS levels come from frontier expansion over its neighbor table; the
rewritten nodes are one mask (three neighbors at a lower level).  Every
node's neighbor-set key is computed at once.  The fibers of all levels are
grouped by one stable `argsort` of one packed int64 key per entering node,
its (level, neighbor-set key, color rank) as digits of a mixed-radix number
(`perm._row_key`), and the elements of all levels likewise by (level, key);
a key that would pass 2^63 is ranked part way and packed on, so the order
is exactly that of the tuples.  Each level is a span of these global
arrays, and the element tables, which only the per-level solve reads, are
built on the tower's first `b_set`.  The colour solver compares element
colors only for equality, so any coding that gives equal colors to exactly
the equal classes yields the same tower: a neighbor set's color is the
dense rank of the sorted color multiset of its entering nodes (at most 3),
and a cross edge's color is ranked apart from those, by its label.

Every decision builds its tower on `refine(view, e)`, not on the view
itself: the node colors are replaced by the stable classes of color
refinement (1-dimensional Weisfeiler-Leman) with e's endpoints
individualized.  This is exact.  The classes refine the input colors, and
refinement commutes with every automorphism that fixes e setwise, so both
views have the same edge-fixing automorphisms.  On most graphs the classes
are nearly singletons, so the partial graphs X_r of the middle levels lose
the symmetries that only their unplaced remainder would break.
`layer_sequence` itself does not refine: it builds the tower of the colors
it is given.  A refinement round sorts one int64 key per node: a node's
class and its three sorted slot values are digits of one mixed-radix
number, ranked by one `argsort` (`perm._row_ranks`).  The digits stay
below their radices, so the packing preserves the lexicographic order of
the (class, slots) tuples and the new classes are exactly their dense
ranks; a key that would pass 2^63 is ranked part way and packed on.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .graphs import GADGET_LABEL, GraphArrays, GraphError, _frozen, _norm_edge, _view
from .perm import _row_key, _row_ranks, _sorted_distinct


class LayerDecomposition:
    """The full tower of one (graph, edge) pair over dense node indices.

    Node indices 0..n-1 refer to the gadget-rewritten working graph: the
    kept input nodes in id order, then the three corners of each replaced
    node, in id order of the replaced nodes.  `view` is that graph's frozen
    array view: ids equal to indices, u < v on every edge, `GADGET_LABEL` on
    the triangle edges.  Per working node, `owner` is the input node it is
    or replaces (module docstring), `level` its tower level and `color_rank`
    the dense rank of its color among the `n_colors` colors.  A fiber of
    more than two nodes raises AssertionError.  `rigid_from` is the first
    level r from which no level has a two-node fiber, so no level r' >= r
    has kernel generators: one more than the last level with such a fiber,
    or 1 if there is none.

    What is built when.  The constructor builds the fibers of all levels as
    global arrays, with each level's bounds in them (`_spans`): that is what
    `lift_or_none` and `kernel_generators` read.  The element keys and
    colors, which only `b_set` reads, are built on the tower's first `b_set`
    (`_elements`); a tower the class swap decides never builds them.
    """

    def __init__(
        self,
        view: GraphArrays,
        level: np.ndarray,
        base_edge: tuple[int, int],
        owner: np.ndarray,
    ):
        """`view` is the working graph (`layer_sequence`); the rest are attributes."""
        self.view, self.owner, self.base_edge, self.level = view, owner, base_edge, level
        self.n = n = len(view.ids)
        u, v = view.u, view.v
        self.N = N = 1 if n == 2 else int(max(np.minimum(level[u], level[v]).max() + 1, level.max()))

        # Integer codes of the tower elements.  A neighbor set's members are
        # halves node·R + label rank, a pair's node·R + R - 1; a singleton
        # repeats its half.  The key is kind·S² + smaller half·S + larger
        # half, kind 1 for pairs, so keys sort neighbor sets before pairs
        # and each kind like the sorted member tuples.  Labels enter only as
        # dense ranks, so labels of any size build the same tables.
        label_values = _sorted_distinct(view.labels)
        self._label_rank = rank = np.searchsorted(label_values, view.labels)
        self._R = R = len(label_values) + 1
        self._S = S = n * R
        if 2 * S * S >= 1 << 63:
            raise GraphError("graph too large for 64-bit tower element keys")
        colors = view.colors
        if 0 <= colors.min() and colors.max() < n and np.bincount(colors).all():
            color_rank = colors.astype(np.int64)  # refined colors are their own dense ranks
        else:
            color_rank = np.searchsorted(_sorted_distinct(colors), colors)
        self.color_rank = color_rank
        self.n_colors = C = int(color_rank.max()) + 1

        # Every node's neighbor-set key from its edges to lower levels.
        src, dst = np.concatenate([u, v]), np.concatenate([v, u])
        half = dst * R + np.concatenate([rank, rank])
        low = level[dst] < level[src]
        lo, hi = np.full(n, S), np.zeros(n, dtype=np.int64)
        np.minimum.at(lo, src[low], half[low])
        np.maximum.at(hi, src[low], half[low])
        set_key = lo * S + hi

        # The fibers of every level: entering nodes sorted by (level, set
        # key, color rank), one packed key and one stable argsort, so each
        # fiber lists its nodes in index order.
        entering = np.flatnonzero(level > 1)
        m_level, m_set, m_rank = level[entering], set_key[entering], color_rank[entering]
        order = _row_key((m_level, m_set, m_rank), (N + 1, S * S, C)).argsort(kind="stable")
        m_level, m_set, m_rank = (x.take(order) for x in (m_level, m_set, m_rank))
        self._members, self._member_ranks = entering.take(order), m_rank
        new_set = np.ones(len(order), dtype=bool)
        new_set[1:] = (m_level[1:] != m_level[:-1]) | (m_set[1:] != m_set[:-1])
        new_fiber = new_set.copy()
        new_fiber[1:] |= m_rank[1:] != m_rank[:-1]
        self._set_first = set_first = np.flatnonzero(new_set)
        self._fiber_first = fiber_first = np.flatnonzero(new_fiber)
        self._set_keys, self._set_level = m_set.take(set_first), m_level.take(set_first)
        fiber_set = set_first.searchsorted(fiber_first, side="right") - 1
        fiber_level, self._fiber_colors = m_level.take(fiber_first), m_rank.take(fiber_first)
        # Row r - 1 of `_spans` is where the members, sets and fibers of
        # level r begin, the nodes entering at level r+1, for r = 1 .. N+1;
        # so level r spans rows r - 1 and r.
        at = [x.searchsorted(np.arange(2, N + 3)) for x in (m_level, self._set_level, fiber_level)]
        self._spans = np.stack(at, axis=1).tolist()
        self._fiber_keys = (fiber_set - at[1].take(fiber_level - 2)) * C + self._fiber_colors
        halves = np.stack(np.divmod(self._set_keys.take(fiber_set), S), axis=-1)
        self._fiber_nodes, self._fiber_ranks = np.divmod(halves, R)
        self._size = size = np.diff(np.append(fiber_first, len(order)))
        if (size > 2).any():
            at = int(fiber_level[size > 2][0])
            raise AssertionError(f"a fiber of more than two nodes enters at level {at}")
        # A two-node fiber entering at level r+1 gives level r a kernel swap.
        self.rigid_from = int(fiber_level[size == 2].max(initial=1))

    @cached_property
    def _elements(self) -> tuple[np.ndarray, np.ndarray, list]:
        """Keys and colors of every level's materialized elements, and level bounds.

        Sorted by (level, key), one packed key and one stable argsort;
        level r's elements take [bounds[r-1], bounds[r]).  A set's color is
        its sorted color-rank multiset, ranked densely from 1; cross edges
        (same level, not the base edge, which is the only edge inside level
        1) are colored after those, by label.
        """
        S, R, N = self._S, self._R, self.N
        first, ranks = self._set_first, self._member_ranks
        size = np.diff(np.append(first, len(ranks)))
        sets = np.repeat(np.arange(len(first)), size)
        sig = np.full((int(size.max(initial=1)), len(first)), -1)
        sig[np.arange(len(ranks)) - first[sets], sets] = ranks
        set_color = _row_ranks(sig)[0] + 1
        u, v, lu = self.view.u, self.view.v, self.level[self.view.u]
        cross = (lu == self.level[v]) & (lu > 1)
        pairs = S * S + (u[cross] * R + R - 1) * S + v[cross] * R + R - 1
        elem_level = np.concatenate([self._set_level - 1, lu[cross]])
        keys = np.concatenate([self._set_keys, pairs])
        colors = np.concatenate([set_color, len(first) + 1 + self._label_rank[cross]])
        order = _row_key((elem_level, keys), (N + 1, 2 * S * S)).argsort(kind="stable")
        bounds = np.searchsorted(elem_level.take(order), np.arange(1, N + 2)).tolist()
        return keys.take(order), colors.take(order), bounds

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
        of another size.  The lift is written into `images` itself when it
        is an int32 array, which is then returned; other input is copied
        first.  A None leaves `images` as it was.
        """
        img = np.asarray(images, dtype=np.int32)
        (m0, s0, f0), (m1, s1, f1) = self._spans[r - 1 : r + 1]
        set_keys, fiber_keys = self._set_keys[s0:s1], self._fiber_keys[f0:f1]
        halves = img.take(self._fiber_nodes[f0:f1], axis=-1).astype(np.int64) * self._R
        halves += self._fiber_ranks[f0:f1]
        x, y = halves[..., 0], halves[..., 1]
        moved = np.minimum(x, y) * self._S + np.maximum(x, y)
        at = set_keys.searchsorted(moved)
        target = at * self.n_colors + self._fiber_colors[f0:f1]
        j = fiber_keys.searchsorted(target)
        # A searchsorted index past the last key reads the last, smaller
        # key under mode="clip", so it fails its comparison as a missing key does.
        missed = set_keys.take(at, mode="clip") != moved
        if np.count_nonzero(missed | (fiber_keys.take(j, mode="clip") != target)):
            return None
        first, size = self._fiber_first[f0:f1], self._size[f0:f1]
        source = first.take(j)
        if m1 - m0 > f1 - f0:  # a two-node fiber: check sizes, shift within fibers
            if np.count_nonzero(size.take(j) != size):
                return None
            source = (source - first).repeat(size, axis=-1) + np.arange(m0, m1)
        img[..., self._members[m0:m1]] = self._members.take(source)
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
        keys, colors, at = self._elements
        keys, colors = keys[at[r - 1] : at[r]], colors[at[r - 1] : at[r]]
        moved = self.move(images, keys)
        while True:
            pos = np.searchsorted(keys, moved)
            missing = keys.take(pos, mode="clip") != moved
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
        Returns a (t, n) array of node images, one row per two-node fiber;
        a level whose fibers are all single nodes returns (0, n) at once.
        """
        if r + 1 > self.N:
            raise ValueError(f"level {r + 1} beyond tower depth {self.N}")
        (m0, _, f0), (m1, _, f1) = self._spans[r - 1 : r + 1]
        if m1 - m0 == f1 - f0:  # every fiber is a single node
            return np.empty((0, self.n), dtype=np.int32)
        first = self._fiber_first[f0:f1][self._size[f0:f1] == 2]
        pair = self._members.take(first[:, None] + [0, 1])
        out = np.arange(self.n, dtype=np.int32)[None].repeat(len(pair), axis=0)
        out[np.arange(len(pair))[:, None], pair] = pair[:, ::-1]
        return out


# Level of the padding node of the slot tables: never reached, never lower.
_FAR = np.iinfo(np.int64).max


def _bfs_levels(nbr: np.ndarray, a: int, b: int) -> np.ndarray:
    """Level of every node: 1 for a and b, else 1 + min neighbor level.

    `nbr` is a neighbor table of `_slots`, padded with node n, whose level
    is `_FAR`; frontiers expand one level per round.  Each frontier is made
    distinct, with no sort: a node reached from several lower neighbors
    would otherwise appear once per shortest path from the base edge.  Each
    occurrence writes the complement of its position, a negative number,
    into the node's level, and only the occurrence whose value stays is
    kept; the frontier's level is written after.  The table is widened to
    int64 once, so no gather converts its indices.
    """
    n = len(nbr) - 1
    nbr = nbr.astype(np.int64)
    level = np.zeros(n + 1, dtype=np.int64)
    level[n] = _FAR
    level[[a, b]] = 1
    frontier, r = np.array([a, b]), 1
    while len(frontier):
        reached = nbr.take(frontier, axis=0).ravel()
        reached = reached[level.take(reached) == 0]
        mark = ~np.arange(len(reached))
        level[reached] = mark
        frontier = reached[level.take(reached) == mark]
        r += 1
        level[frontier] = r
    return level


def _slots(view: GraphArrays, palette: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every node's incident edges as three (neighbor, label rank) slots: (nbr, lab).

    Two contiguous (n+1, 3) int32 tables.  Row v holds v's edges sorted by
    (label rank, neighbor), a label's rank being its index in `palette`,
    sorted distinct values that hold every label of the view.  Absent
    slots come first as neighbor n, label rank -1, and row n, the padding
    node, holds only absent slots.  This is the one adjacency table: the
    BFS, color refinement of a view and of two views' union, the tower's
    triangle rewrite and the layer-profile walk all read it.
    """
    n = len(view.ids)
    rank = np.searchsorted(palette, view.labels)
    src, dst = np.concatenate([view.u, view.v]), np.concatenate([view.v, view.u])
    lab = np.concatenate([rank, rank])
    order = _row_key((src, lab, dst), (n, len(palette), n)).argsort(kind="stable")
    src, dst, lab = src.take(order), dst.take(order), lab.take(order)
    # Node v's edges take the last degree(v) slots of its row.
    col = np.arange(3, len(src) + 3) - np.cumsum(view.degrees).take(src)
    nbr = np.full((n + 1, 3), n, dtype=np.int32)
    labels = np.full((n + 1, 3), -1, dtype=np.int32)
    nbr[src, col], labels[src, col] = dst, lab
    return nbr, labels


def _edge_tables(view: GraphArrays, e: tuple[int, int]):
    """(a, b, nbr, lab, palette): e's endpoint indices in `view`, then its `_slots`.

    `palette` is the view's sorted distinct labels, which the slots rank.
    An absent e raises GraphError.  `refine` and `layer_sequence` take the
    result as `tables`, so a tower that refines computes it once.
    """
    ids = view.ids
    e = _norm_edge(*e)
    a, b = np.searchsorted(ids, e).clip(max=len(ids) - 1).tolist()
    if ids[a] != e[0] or ids[b] != e[1] or not ((view.u == a) & (view.v == b)).any():
        raise GraphError(f"edge {e} not present in graph")
    palette = _sorted_distinct(view.labels)
    return a, b, *_slots(view, palette), palette


def refine(view: GraphArrays, e: tuple[int, int], tables=None) -> GraphArrays:
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
    GraphError.  `tables`, when given, are `_edge_tables(view, e)`, whose
    slot tables the rounds read (`_refine_rounds`, which `core` also runs
    on the union of two graphs).
    """
    a, b, nbr, lab, _ = tables or _edge_tables(view, e)
    colors = view.colors
    start = 2 * np.searchsorted(_sorted_distinct(colors), colors)
    start[[a, b]] += 1
    classes = _sorted_distinct(start)
    cls, _ = _refine_rounds(np.searchsorted(classes, start), len(classes), nbr, lab)
    return _frozen(view._replace(colors=cls.astype(np.int32)))


def _refine_rounds(
    cls: np.ndarray, count: int, nbr: np.ndarray, lab: np.ndarray
) -> tuple[np.ndarray, int]:
    """Refinement rounds from dense classes until a round splits nothing.

    `cls` holds the n nodes' classes, dense ranks 0..count-1.  `nbr` and
    `lab` are slot tables as `_slots` builds them, of n rows or more: slot
    s of node v is an edge to node `nbr[v, s]` with label rank
    `lab[v, s]`, or absent, with neighbor n, the padding node of class 0,
    and rank -1.  A slot's value is label rank·n + 1 + neighbor class for
    an edge and 0 for an absent slot; with L = the largest rank + 1, it
    lies in [0, R), R = L·n + 1, and orders slots as (label, class) pairs
    with absent ones first.  Each round ranks the rows (class, sorted slot
    values) with `_row_ranks` under the radices (count, R, R, R); rounds
    stop when the number of classes stops growing or reaches n.  Returns
    the stable classes, dense ranks again, and their number.  The ranks
    follow the sorted order of the defining values, so permuting the nodes
    permutes the result with them.

    The slot neighbors and codes are laid out once as contiguous (3, n)
    arrays.  A round gathers the three slot values with one `take`, sorts
    them with a three-input min/max network, and ranks the rows (class,
    low, mid, top), passing the radices it knows, so no column is reduced.
    With count·R³ below 2^63 that is one packed int64 key and one `argsort`
    a round; above, `_row_ranks` ranks the partial key first.  Either way
    the ranks are the rows' lexicographic dense ranks, those of the sorted
    slot tuples.
    """
    n = len(cls)
    lab = lab[:n].astype(np.int64)
    R = (int(lab.max()) + 1) * n + 1
    slot_nbr = np.ascontiguousarray(nbr[:n].T)
    slot_code = np.ascontiguousarray(np.where(lab < 0, 0, lab * n + 1).T)
    cls = np.append(cls, 0)
    while count < n:
        x, y, z = slot_code + cls.take(slot_nbr)
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        mid, top = np.minimum(hi, z), np.maximum(hi, z)
        low, mid = np.minimum(lo, mid), np.maximum(lo, mid)
        last = count
        cls[:n], count = _row_ranks((cls[:n], low, mid, top), (count, R, R, R))
        if count == last:
            break
    return cls[:n], count


def layer_sequence(view: GraphArrays, e: tuple[int, int], tables=None) -> LayerDecomposition:
    """Build the full tower for (view, e), applying the triangle rewrite.

    `view` is the array view of a valid graph, reserved values allowed, and e
    one of its edges, by node ids.  Callers validate, this function does not;
    an absent e raises GraphError.  Every node whose neighbor set would have
    size 3 is replaced by a labeled triangle, so every neighbor set of the
    returned tower has size 1 or 2.  A replaced node's corners take its
    placed neighbors, sorted by (new index, label), in corner order.
    `tables`, when given, are `_edge_tables` of a view with the same edges,
    such as the one `refine` was given; the replaced nodes' corner edges
    take their labels from its slots, through its palette.
    """
    a, b, nbr, slot_labels, palette = tables or _edge_tables(view, e)
    ids, colors, u, v, lab, _ = view
    n = len(ids)
    level = _bfs_levels(nbr, a, b)
    lower = level[nbr[:n]] < level[:n, None]
    gadget = lower.sum(axis=1) == 3

    kept, replaced = np.flatnonzero(~gadget), np.flatnonzero(gadget)
    nk, ng = len(kept), len(replaced)
    index = np.zeros(n, dtype=np.int64)
    index[kept] = np.arange(nk)
    placed = index[nbr[replaced][lower[replaced]]].reshape(ng, 3)
    placed_labels = palette.take(slot_labels[replaced][lower[replaced]]).reshape(ng, 3)
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
