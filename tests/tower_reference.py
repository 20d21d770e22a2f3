"""The layer tower written out node by node, the reference for the array build.

`working_graph(dec)` builds the gadget-rewritten working graph from the
array view the tower holds, `dec.view`.
`written_out(dec)` rebuilds the tower's definitions (adjacency, fresh nodes,
labeled neighbor sets, cross edges, the layers X_r, the element keys, the
per-level tables and the kernel transpositions) from that graph and
`dec.level` with dicts, frozensets and per-node loops.
`level_table(dec, r)` slices the tower's own global arrays into the same
per-level tables as a `Level`, and `level_tables(dec)` does so for every level.
`reference_layer_sequence` is the per-node BFS and triangle rewrite,
`reference_refine` the per-node color refinement, `two_pass_b_set` the
closure of B_r and its image table in two passes, and `reference_run_tower`
the tower's level loop run at every level, with no early exit.
`reference_cb_images` is the color filter's general recursion run on every
point set, small ones included.  `reference_row_ranks` is the lexsort row
ranking that `perm._row_ranks` replaced with packed keys, and
`lexsort_order` the two-lexsort order of the tower's fibers and elements
that `LayerDecomposition` replaced with packed keys.
"""

from itertools import combinations
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from trigiso.coloraut import cb_images
from trigiso.graphs import GADGET_LABEL, LabeledGraph, _norm_edge
from trigiso.perm import block_halves, index2_images, inverse_image, orbit_labels, restricted

from graph_reference import graph_of_view


class Level(NamedTuple):
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
    Every field but `start` is a slice of one array over all levels.
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


def level_table(dec, r: int) -> Level:
    """Level r's tables, sliced from `dec`'s global arrays.

    Level r's elements take [bounds[r-1], bounds[r]) of `dec._elements`, and
    its sets, fibers and members take rows r-1 to r of `dec._spans`.
    """
    keys, colors, e_at = dec._elements
    fibers = (dec._fiber_keys, dec._fiber_nodes, dec._fiber_ranks, dec._fiber_colors)
    (m0, s0, f0), (m1, s1, f1) = dec._spans[r - 1 : r + 1]
    e, f = slice(e_at[r - 1], e_at[r]), slice(f0, f1)
    return Level(keys[e], colors[e], dec._set_keys[s0:s1], *(x[f] for x in fibers),
                 dec._fiber_first[f] - m0, dec._size[f], dec._members[m0:m1])


def level_tables(dec) -> dict[int, Level]:
    """Every level's tables, `level_table(dec, r)` for 1 <= r < N."""
    return {r: level_table(dec, r) for r in range(1, dec.N)}


class WrittenOutTower:
    """Definitions of the tower of `graph` over its node levels."""

    def __init__(self, graph: LabeledGraph, level: list, base_edge, N: int):
        self.graph, self.level, self.base_edge, self.N = graph, level, base_edge, N
        self.n = graph.n_nodes
        self.colors = [graph.color(v) for v in range(self.n)]
        adj = graph.adjacency()
        self.adj = [adj[v] for v in range(self.n)]
        self.fresh: dict[int, list[int]] = {}
        for v in range(self.n):
            self.fresh.setdefault(level[v], []).append(v)
        self.nbr_map: dict[int, frozenset] = {
            v: frozenset((w, lab) for w, lab in self.adj[v] if level[w] < level[v])
            for v in range(self.n)
            if level[v] > 1
        }
        # Cross edges: both endpoints at the same level; they belong to the
        # next layer.  The base edge itself is level 1 by definition.
        self.cross: dict[int, dict] = {}
        base = frozenset(base_edge)
        for (u, v), lab in graph.edges().items():
            if level[u] == level[v] and frozenset((u, v)) != base:
                self.cross.setdefault(level[u], {})[frozenset((u, v))] = lab
        self.label_rank = {
            lab: i for i, lab in enumerate(sorted(set(graph.edges().values())))
        }
        self.R = len(self.label_rank) + 1
        self.S = self.n * self.R
        self.color_rank = {c: i for i, c in enumerate(sorted(set(self.colors)))}

    def nodes_at_most(self, r: int) -> list[int]:
        return [v for v in range(self.n) if self.level[v] <= r]

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
            if min(self.level[u], self.level[v]) <= r - 1
        )
        return nodes, edges

    def encode(self, elems) -> np.ndarray:
        """Keys of tower elements, in the given order.

        An element is a labeled neighbor set (a frozenset of one or two
        (node, label) pairs) or a node pair (a frozenset of two nodes).
        Each member is coded as a half node·R + label rank (rank R - 1 for
        pair members); a singleton repeats its half.  The key is
        kind·S² + smaller half·S + larger half, kind 1 for pairs.
        """
        R, S = self.R, self.S
        halves = np.zeros((len(elems), 2), dtype=np.int64)
        kind = np.zeros(len(elems), dtype=np.int64)
        for i, elem in enumerate(elems):
            members = list(elem)
            if len(members) == 1:
                members *= 2
            for j, x in enumerate(members):
                if isinstance(x, tuple):
                    halves[i, j] = x[0] * R + self.label_rank[x[1]]
                else:
                    halves[i, j] = x * R + R - 1
                    kind[i] = 1
        return kind * S * S + halves.min(axis=1) * S + halves.max(axis=1)

    def level_table(self, r: int) -> dict:
        """The fields of `Level` for level r; `colors` as (color, ...) classes."""
        entering = self.fresh.get(r + 1, [])
        set_keys, set_index = np.unique(
            self.encode([self.nbr_map[v] for v in entering]), return_inverse=True
        )
        C = len(self.color_rank)
        ranks = [self.color_rank[self.colors[v]] for v in entering]
        fiber_of = set_index * C + np.array(ranks, dtype=np.int64)
        order = np.argsort(fiber_of, kind="stable")
        fiber_keys, start, size = np.unique(fiber_of[order], return_index=True, return_counts=True)
        fiber_sets = set_keys[fiber_keys // C]
        fiber_halves = np.stack([fiber_sets // self.S, fiber_sets % self.S], axis=-1)
        sigs: list[list] = [[] for _ in set_keys]
        for i, v in zip(set_index, entering):
            sigs[i].append(self.colors[v])
        cross = self.cross.get(r, {})
        classes = [("f", tuple(sorted(sig))) for sig in sigs]
        classes += [("e", lab) for lab in cross.values()]
        keys = np.concatenate([set_keys, self.encode(list(cross))])
        by_key = np.argsort(keys)
        return dict(
            keys=keys[by_key],
            colors=[classes[i] for i in by_key],
            set_keys=set_keys,
            fiber_keys=fiber_keys,
            fiber_nodes=fiber_halves // self.R,
            fiber_ranks=fiber_halves % self.R,
            fiber_colors=fiber_keys % C,
            start=start,
            size=size,
            members=np.array(entering, dtype=np.int64)[order],
        )

    def kernel(self, r: int) -> np.ndarray:
        """Same-fiber transpositions of the nodes entering at level r+1, one per row."""
        table = self.level_table(r)
        pairs = []
        for s, z in zip(table["start"].tolist(), table["size"].tolist()):
            pairs += combinations(table["members"][s : s + z].tolist(), 2)
        out = np.tile(np.arange(self.n, dtype=np.int32), (len(pairs), 1))
        for row, (u, v) in zip(out, pairs):
            row[u], row[v] = v, u
        return out


def working_graph(dec) -> LabeledGraph:
    """The working graph of a `LayerDecomposition`, whose view's ids are its indices."""
    return graph_of_view(dec.view)


def written_out(dec) -> WrittenOutTower:
    return WrittenOutTower(working_graph(dec), dec.level.tolist(), dec.base_edge, dec.N)


def reference_layer_sequence(g: LabeledGraph, e) -> SimpleNamespace:
    """The per-node build: BFS levels, the triangle rewrite and the depth N.

    `owner` gives each working node's input node as a position in the
    sorted input ids.
    """
    e = _norm_edge(*e)
    adj = g.adjacency()
    level_orig = {e[0]: 1, e[1]: 1}
    frontier, r = [e[0], e[1]], 1
    while frontier:
        nxt = []
        for v in frontier:
            for w, _ in adj[v]:
                if w not in level_orig:
                    level_orig[w] = r + 1
                    nxt.append(w)
        frontier, r = sorted(nxt), r + 1

    gadget_nodes = [
        v
        for v in g.node_ids
        if level_orig[v] > 1 and sum(level_orig[w] < level_orig[v] for w, _ in adj[v]) == 3
    ]
    kept = [v for v in g.node_ids if v not in set(gadget_nodes)]
    new_index = {v: i for i, v in enumerate(kept)}
    position = {v: i for i, v in enumerate(g.node_ids)}
    owner = [position[v] for v in kept]
    nodes = {new_index[v]: g.color(v) for v in kept}
    level = [level_orig[v] for v in kept]
    edges = {}
    for (u, v), lab in g.edges().items():
        if u in new_index and v in new_index:
            edges[_norm_edge(new_index[u], new_index[v])] = lab
    next_idx = len(kept)
    for v in sorted(gadget_nodes):
        placed = sorted(
            (new_index[w], lab) for w, lab in adj[v] if level_orig[w] < level_orig[v]
        )
        corners = (next_idx, next_idx + 1, next_idx + 2)
        next_idx += 3
        for c, (w, lab) in zip(corners, placed):
            nodes[c] = g.color(v)
            owner.append(position[v])
            level.append(level_orig[v])
            edges[_norm_edge(c, w)] = lab
        for i, j in combinations(range(3), 2):
            edges[_norm_edge(corners[i], corners[j])] = GADGET_LABEL
    working = LabeledGraph(nodes, edges)
    if working.n_nodes == 2:
        N = 1
    else:
        N = max(max(min(level[u], level[v]) + 1 for u, v in working.edges()), max(level))
    return SimpleNamespace(
        graph=working,
        base_edge=(new_index[e[0]], new_index[e[1]]),
        level=level,
        N=N,
        owner=owner,
    )


def reference_refine(g: LabeledGraph, e) -> list[int]:
    """Color refinement of g with e's endpoints individualized, node by node.

    Returns every node's class rank, nodes in id order.  A node starts in
    class (color, is an endpoint of e); a round gives it the pair of its
    class and the sorted (label rank, neighbor class) list of its edges,
    padded to three entries with (-1, -1) in front, and ranks the distinct
    pairs in sorted order.  Rounds stop when the number of classes stops
    growing.
    """
    e = _norm_edge(*e)
    adj = g.adjacency()
    label_rank = {lab: i for i, lab in enumerate(sorted(set(g.edges().values())))}

    def ranked(keys: dict) -> dict:
        rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
        return {v: rank[k] for v, k in keys.items()}

    cls = ranked({v: (g.color(v), v in e) for v in g.node_ids})
    while True:
        slots = {v: [(-1, -1)] * (3 - len(adj[v])) for v in g.node_ids}
        for v in g.node_ids:
            slots[v] += [(label_rank[lab], cls[w]) for w, lab in adj[v]]
        new = ranked({v: (cls[v], tuple(sorted(slots[v]))) for v in g.node_ids})
        if len(set(new.values())) == len(set(cls.values())):
            return [cls[v] for v in g.node_ids]
        cls = new


def reference_closure(dec, r: int, rows) -> np.ndarray:
    """Sorted keys of level r's materialized elements, closed under `rows`.

    A frontier closure: each round moves the keys found in the last one
    under every row and adds the images not seen yet.
    """
    seen = level_table(dec, r).keys
    frontier = seen if len(rows) else seen[:0]
    while len(frontier):
        moved = np.unique(dec.move(rows, frontier))
        frontier = moved[~np.isin(moved, seen)]
        seen = np.union1d(seen, frontier)
    return seen


def image_table(dec, r: int, rows, keys) -> tuple[np.ndarray, np.ndarray]:
    """The second pass over closed keys: (positions of their images, colors).

    Moves every key under every row and finds each image's position in
    `keys`, which must hold it (else AssertionError: B_r is not closed).  A
    key's color is its level color if the key is materialized, else 0.
    """
    moved = dec.move(rows, keys)
    pos = np.searchsorted(keys, moved).clip(max=len(keys) - 1)
    if not (keys[pos] == moved).all():
        raise AssertionError(f"level {r}: B_r is not closed")
    level = level_table(dec, r)
    at = np.searchsorted(level.keys, keys).clip(max=len(level.keys) - 1)
    return pos, np.where(level.keys[at] == keys, level.colors[at], 0)


def two_pass_b_set(dec, r: int, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`LayerDecomposition.b_set` in two passes: the closure, then the image table."""
    keys = reference_closure(dec, r, rows)
    return (keys, *image_table(dec, r, rows, keys))


def reference_run_tower(dec, swap: bool):
    """`trigiso.core._run_tower` without the aut tower's rigid exit: every level filters.

    Each level stacks the generators and the representative, checks their
    node colors, closes B_r (the keys of `dec.b_set`), moves every key
    again for its image table and looks up the colors (`image_table`),
    filters the coset with `cb_images` and lifts the survivors
    (`dec.lift_or_none`), then adds the level's kernel.  Returns
    (generators, representative) or None, as `_run_tower` does.
    """
    n = dec.n
    a, b = dec.base_edge
    node_colors = dec.view.colors
    same_color = node_colors[a] == node_colors[b]
    if swap and not same_color:
        return None
    ident = np.arange(n, dtype=np.int32)
    flip = ident.copy()
    flip[[a, b]] = b, a
    gens = flip[None] if same_color and not swap else np.empty((0, n), dtype=np.int32)
    rep = flip if swap else ident
    for r in range(1, dec.N):
        rows = np.vstack([gens, rep])
        if not (node_colors[rows] == node_colors).all():
            raise AssertionError(
                f"level {r}: a permutation moves a node onto a node of another color"
            )
        keys = dec.b_set(r, rows)[0]
        if len(keys):
            pos, elem_colors = image_table(dec, r, rows, keys)
            ext = np.concatenate([rows, (n + pos).astype(np.int32)], axis=1)
            colors = np.concatenate([np.zeros(n, dtype=np.int64), elem_colors])
            out, _ = cb_images(ext[:-1], ext[-1], np.arange(n, ext.shape[1]), colors)
            if out is None:
                if swap:
                    return None
                raise AssertionError("identity coset filtered to empty")
            rows = np.vstack(out)[:, :n]
        lifted = dec.lift_or_none(r, rows)
        if lifted is None:
            raise AssertionError(f"level {r}: a filtered permutation does not lift")
        rep = lifted[-1]
        moving = (lifted[:-1] != ident).any(axis=1)
        gens = np.concatenate([dec.kernel_generators(r), lifted[:-1][moving]])
    return gens, rep


def _reference_cb(coset, points, colors):
    """The color filter's recursion on any point set; (coset or None, changed).

    The color-multiset cut on the whole set; then the orbits, each cut and
    filtered in turn, or, on a transitive set, the index-2 split.
    """
    s = len(points)
    if not s:
        return coset, False
    gens, rep = coset
    here, there = colors[points], colors[rep[points]]
    a, b = np.sort(here), np.sort(there)
    if a[0] == a[-1] == b[0] == b[-1]:
        return coset, False
    if (a != b).any():
        return None, True
    images = restricted(gens, points)
    lab = orbit_labels(images)
    if not lab.any():
        return _reference_split(coset, points, images, colors)
    if (np.sort(here * s + lab) != np.sort(there * s + lab)).any():
        return None, True
    varied = np.zeros(s, dtype=bool)
    varied[lab[here != here[lab]]] = True
    cur, changed = coset, False
    for root in np.flatnonzero(varied):
        cur, ch = _reference_cb(cur, points[lab == root], colors)
        changed |= ch
        if cur is None:
            return None, True
    return cur, changed


def _reference_split(coset, points, images, colors):
    """Filter rep·H and rep·tau·H over the two blocks of `block_halves`, then merge."""
    gens, rep = coset
    left = block_halves(images)
    keep = left[images[:, 0]]
    moves = np.flatnonzero(~keep)
    h = index2_images(gens, keep)
    reps = (rep, rep[gens[moves[0]]])
    if len(points) == 2:
        p = points[0]
        return (h, reps[int(colors[rep[p]] != colors[p])]), True
    halves = points[left], points[~left]
    (c1, ch1), (c2, ch2) = (_reference_halves((h, r), halves, colors) for r in reps)
    if c1 is None or c2 is None:
        return (c2 if c1 is None else c1), True
    if not ch1 and not ch2:
        return coset, False
    (h1, rep1), (_, rep2) = c1, c2
    link = inverse_image(rep1)[rep2]
    if (link == np.arange(len(link))).all():
        return c1, True
    return (np.concatenate([h1, link[None]]), rep1), True


def _reference_halves(coset, halves, colors):
    changed = False
    for half in halves:
        coset, ch = _reference_cb(coset, half, colors)
        changed |= ch
        if coset is None:
            return None, True
    return coset, changed


def reference_cb_images(gens, rep, points, colors):
    """`trigiso.coloraut.cb_images` by the general recursion alone.

    The rows that fix every point are set aside and the others filtered,
    as `cb_images` once did; it now filters all rows, and a row that fixes
    every point keeps its place, so both give the same rows.  Returns
    (coset or None, changed), the input pair itself when nothing changed.
    """
    moving = np.flatnonzero((gens[:, points] != points).any(axis=1))
    out, changed = _reference_cb((gens[moving], rep), points, colors)
    if not changed:
        return (gens, rep), False
    if out is None:
        return None, True
    new, new_rep = out
    sub = gens.copy()
    sub[moving] = new[: len(moving)]
    return (np.concatenate([sub, new[len(moving) :]]), new_rep), True


def reference_row_ranks(table: np.ndarray) -> np.ndarray:
    """Dense ranks, from 0, of a 2-D table's rows in lexicographic order.

    Equal rows get equal ranks; a table without columns has one row class.
    """
    if not table.shape[1]:
        return np.zeros(len(table), dtype=np.int64)
    order = np.lexsort(table.T[::-1])
    rows = table[order]
    step = np.zeros(len(rows), dtype=np.int64)
    step[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    ranks = np.empty_like(step)
    ranks[order] = np.cumsum(step)
    return ranks


def lexsort_order(dec) -> SimpleNamespace:
    """The fiber and element order of `dec`'s tower by two `np.lexsort` calls.

    Entering nodes sorted by (level, neighbor-set key, color rank), stably,
    so by index within a fiber; fibers start where any of the three
    changes.  Elements are sorted by (level, key).  Returns the `members`,
    the fibers' first positions and sizes, `rigid_from`, and the element
    keys and colors with `e_at`, where each level's elements begin.
    """
    view, level, n = dec.view, dec.level, dec.n
    u, v = view.u, view.v
    lu, lv = level[u], level[v]
    rank = np.searchsorted(np.unique(view.labels), view.labels)
    R = int(rank.max(initial=-1)) + 2
    S = n * R
    color_rank = np.searchsorted(np.unique(view.colors), view.colors)
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    half = dst * R + np.concatenate([rank, rank])
    low = level[dst] < level[src]
    lo, hi = np.full(n, S), np.zeros(n, dtype=np.int64)
    np.minimum.at(lo, src[low], half[low])
    np.maximum.at(hi, src[low], half[low])
    set_key = lo * S + hi
    entering = np.flatnonzero(level > 1)
    members = entering[np.lexsort((color_rank[entering], set_key[entering], level[entering]))]
    m_level, m_set, m_rank = level[members], set_key[members], color_rank[members]
    new_set = np.ones(len(members), dtype=bool)
    new_set[1:] = (m_level[1:] != m_level[:-1]) | (m_set[1:] != m_set[:-1])
    new_fiber = new_set.copy()
    new_fiber[1:] |= m_rank[1:] != m_rank[:-1]
    set_first, fiber_first = np.flatnonzero(new_set), np.flatnonzero(new_fiber)
    size = np.diff(np.append(fiber_first, len(members)))
    set_size = np.diff(np.append(set_first, len(members)))
    sig = [tuple(m_rank[f : f + z]) for f, z in zip(set_first, set_size)]
    color_of = {s: i + 1 for i, s in enumerate(sorted(set(sig)))}
    cross = (lu == lv) & (lu > 1)
    cu, cv = u[cross], v[cross]
    elem_level = np.concatenate([m_level[set_first] - 1, lu[cross]])
    keys = np.concatenate([m_set[set_first], S * S + (cu * R + R - 1) * S + cv * R + R - 1])
    colors = np.concatenate([[color_of[s] for s in sig], len(sig) + 1 + rank[cross]])
    order = np.lexsort((keys, elem_level))
    return SimpleNamespace(
        members=members,
        fiber_first=fiber_first,
        size=size,
        rigid_from=int(m_level[fiber_first][size == 2].max(initial=1)),
        keys=keys[order],
        colors=colors[order].astype(np.int64),
        e_at=np.searchsorted(elem_level[order], np.arange(1, dec.N + 2)),
    )
