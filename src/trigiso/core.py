"""The isomorphism pipeline for ternary graphs.

Generators of the group of automorphisms fixing a distinguished edge are
computed level by level along the layer tower: the kernel of the restriction
to the previous layer is generated by same-fiber transpositions, and the
image of the restriction is exactly the part of the previous group that
preserves the colors of the materialized tower elements (neighbor sets and
new edge pairs).  That color filtering is delegated to the coset solver's
array entry `cb_images`, whose ground points B_r are those materialized
elements only, closed under the level's group and integer-coded by the
layer decomposition.  The nodes of the previous layer stay out of B_r:
every permutation reaching a level already preserves their colors, which
each level re-checks.  Surviving generators are lifted by matching fibers
in sorted order.

Each tower is built on the color-refined view of its graph
(`trigiso.layers.refine`), with the base edge's endpoints individualized.
The refined colors are invariant under every automorphism fixing the base
edge setwise and refine the input colors, so the edge-fixing group and
every verdict are those of the input, and every witness is an isomorphism
of the inputs.  What shrinks are the level groups of the partial graphs,
towards that final group.  `_tower` is the one place that refines, builds
the tower, runs the level loop and contracts the result; every decision
on graphs and on networks runs its towers through it.

Inside the tower every permutation is a row of an int32 image array, and
a level's coset is one (k+1, n) array: the k generators, then the
representative as the last row.  A level closes B_r under all rows in one
call (`LayerDecomposition.b_set`), which hands back the position of every
element's image under every row and the element colors with the keys, so
the level never moves an element twice.  It appends those positions to
every row as the B_r columns in one concatenation, filters, keeps the
first n columns and lifts all rows in one call, in place; the next level's
array is the kernel rows, then the lifted rows that move a node and the
lifted representative.  `_contract` maps rows back onto the input graph's
nodes as another int array, through the decomposition's `owner` map (see
`trigiso.layers`), so `Permutation` objects appear only at the boundary,
in `lift` and the results.

A swap tower is decided without the loop where refinement has paired every
node (`_class_swap`), as a search stops once refinement leaves nothing to
choose (McKay & Piperno, "Practical graph isomorphism, II", J. Symb.
Comput. 2014).  `_tower` tries it on every swap tower, on the refined
view.  If every color class holds exactly two nodes, let σ swap the two
nodes of each class.  σ is accepted when it sends the base endpoint a to b
and maps the labeled edges onto themselves, so it is an automorphism
exchanging a and b.  Every swap tower starts at a bridge: the join edge of
a splice, or of two networks' reductions, is the only edge between its
two sides.  So any automorphism exchanging a and b maps a's side onto
b's; it keeps the refined classes, so each class holds one node of each
side and it swaps them: it is σ.  Hence σ is the only such automorphism
of the view, and of the working graph, whose edge-fixing automorphisms
contract one to one onto the view's.  The loop's last coset is every
automorphism of the working graph that exchanges a and b, so its
representative, contracted, is σ, row for row, and σ is already over the
view's indices.  Such a tower has no two-node fiber either: a fiber's
nodes share a lower neighbor, so a side, and a color, so an owner, and the
corners of one replaced node have distinct lower neighbors.  A σ that is
not accepted leaves the tower to the loop, which then runs every level.
Off a bridge an accepted σ is still an automorphism exchanging a and b,
but the loop might have returned another.

Two graphs are isomorphic exactly when, after splitting one edge of each and
joining the split nodes, some automorphism of the joined graph fixing the
join edge exchanges the two split nodes.  `is_isomorphic` searches for one
directly: every level keeps only the coset of part-exchanging candidates
over the part-preserving subgroup, so an edge pairing that admits no
exchange dies at the first layer where the two sides differ.  Pairings are
node-index pairs of the two array views, the joined graph is only a view
(`build_x`), and a witness is read back onto the input ids with one gather.
`aut_e_generators` runs the same tower over the whole edge-fixing group.

The first edge and its candidates come from color refinement of both
graphs at once, on their disjoint union (`_first_edge_candidates`).  An
isomorphism of the two graphs, together with its inverse, is an
automorphism of the union, and the union's stable classes are invariant
under every automorphism, so the isomorphism maps each node onto a node of
its own class and each edge onto an edge of its own class (endpoint
classes and label).  Hence:

- where the two sides' class histograms differ there is no isomorphism,
  which is the 1-WL test;
- e1, an edge of the first graph in the second graph's smallest edge
  class, can only map onto the second graph's edges of that class, so
  those are all the pairings to try.  Choosing the smallest class is
  target-cell selection (McKay & Piperno 2014).  Class ranks follow sorted
  defining values, so the class and the candidates do not depend on node
  ids.

Before any tower, the layer-profile filter (`_profile_filter`) drops each
candidate whose BFS levels from its endpoints differ from e1's, in two
stages.  The count stage compares only the number of nodes at each level,
for every candidate at once, from bit-parallel node balls (Akiba, Iwata &
Yoshida, SIGMOD 2013): a candidate's nodes within distance d are the union
of its endpoints' balls of radius d.  It is exact: an isomorphism carrying
e1 onto e2 maps the nodes at each distance from e1 onto those at the same
distance from e2, so a level of another size rules the pairing out, and the
signature walk, which compares the nodes' signatures level by level, would
drop that candidate as well.  The walk then takes the candidates left, so
the survivors and their order are the walk's alone.  The count stage runs
level 1 only where that is cheaper than walking every candidate, and a
later level while it is cheaper than walking the rows still live or the
level before dropped a row; it stops once no row is live.  It runs only
where its tables fit in the walk's memory bound.

Pairings are pruned by automorphisms of the second graph.  If e2 admits no
isomorphism carrying e1 onto it, neither does σ(e2) for any automorphism σ
of the second graph, since composing with σ would give one.  So once a
pairing fails, `is_isomorphic` computes generators of the automorphisms
fixing one far edge of the second graph, with the same tower, and skips
every later pairing in the orbit of a failed one.  Any subgroup of the
automorphism group makes this exact: only failing towers are skipped, so
the first pairing that succeeds, its witness and every verdict are those of
the unpruned loop over the same candidates.  An automorphism of the second
graph extends, by the identity on the first, to one of the union, so it
keeps the union's classes and maps the candidates onto candidates, which
`_candidate_orbits` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The tower runs `cb_images`; `cb` and the tree names are bound here only
# because perfbench/tracing.py patches them in this module.
from .coloraut import annotate, build_structure_tree, cb, cb_images, cb_tree
from .graphs import (
    GraphArrays, GraphError, LabeledGraph, _maps_edges, _row_blocks, build_x,
    is_graph_isomorphism, require_valid,
)
from .layers import LayerDecomposition, _bfs_levels, _edge_tables, _refine_rounds, _slots
from .layers import layer_sequence, refine
from .perm import Permutation, _join, _row_key, _row_ranks, _sorted_distinct


def lift(dec: LayerDecomposition, r: int, sigma: Permutation) -> Permutation:
    """Extend a certified level-r automorphism to the next layer.

    Each node entering at level r+1 is sent to the node at the matching
    position (sorted by index) of the image fiber: same labeled neighbor set
    pushed through sigma, same color.  The restriction of the result back to
    level r is sigma again.  A missing target fiber, or one of another size,
    raises GraphError.
    """
    image = dec.lift_or_none(r, sigma.image.astype(np.int32))
    if image is None:
        raise GraphError("fiber mismatch while lifting: permutation was not certified")
    return Permutation(image, _checked=True)


def _run_tower(dec: LayerDecomposition, swap: bool):
    """Run the level loop; returns (generators, representative) or None.

    The loop holds each level's coset as one (k+1, n) int32 array of node
    images: the k generators, one per row, then the representative.  It
    returns the two parts of the last one, as views.  With swap=False the
    generators generate the full edge-fixing automorphism group of the
    working graph and the representative stays the identity.  With
    swap=True the generators generate the part-preserving subgroup and the
    representative tracks a part-exchanging coset element; returns None as
    soon as the exchange coset dies, which certifies that no automorphism
    exchanges the base edge's endpoints.

    Level r filters the coset over B_r only: the materialized elements of
    level r, the labeled neighbor sets of the nodes entering at r+1 and the
    cross-edge pairs of level r, closed under the level's permutations.
    They take the ground points [n, m) in key order.  B_r is never empty:
    nodes enter at r+1 below the top BFS level, and N passes that level only
    when cross edges sit on it.  `dec.b_set` returns them closed, with every
    row's image positions, which become the rows' B_r columns as they are,
    and their colors; it returns only once every image is found, so the
    closure is checked for every row and element.
    The nodes of X_{r-1} are not part of B_r: every permutation that
    reaches level r already preserves their colors, so a filter over them
    could remove nothing.  That premise is checked on every row at every
    level, and a violation raises AssertionError.  So does a filtered row
    that does not lift: the filter kept it because it maps the level's
    neighbor sets onto materialized ones of equal color, which is what the
    lift matches.

    An aut coset that is the identity alone skips its level: the identity
    keeps every color and lifts onto itself, so the level only adds its
    kernel.  A swap tower runs every level, or dies at one.
    """
    n, node_colors = dec.n, dec.view.colors
    a, b = dec.base_edge
    same_color = node_colors[a] == node_colors[b]
    if swap and not same_color:
        return None
    ident = np.arange(n, dtype=np.int32)
    flip = ident.copy()
    flip[[a, b]] = b, a
    # The coset as one row array, the generators and then the representative:
    # with swap=True, flip alone; else the identity over <flip>, or over no
    # generator when a and b differ in color.
    rows = flip[None] if swap else np.stack([flip, ident]) if same_color else ident[None]
    for r in range(1, dec.N):
        if not swap and len(rows) == 1:
            kernel = dec.kernel_generators(r)
            rows = np.concatenate([kernel, rows]) if len(kernel) else rows
            continue
        if not _colors_kept(node_colors, rows):
            raise AssertionError(
                f"level {r}: a permutation moves a node onto a node of another color")
        _, pos, elem_colors = dec.b_set(r, rows)
        ext = np.concatenate([rows, (n + pos).astype(np.int32)], axis=1)
        colors = np.concatenate([np.zeros(n, dtype=np.int64), elem_colors])
        out, _ = cb_images(ext[:-1], ext[-1], np.arange(n, ext.shape[1]), colors)
        if out is None:
            if swap:
                return None
            raise AssertionError("identity coset filtered to empty")
        rows = np.vstack([out[0][:, :n], out[1][:n]])
        # The lift is where a level peaks: free the wide arrays first.
        del ext, out, pos
        lifted = dec.lift_or_none(r, rows)
        if lifted is None:
            raise AssertionError(f"level {r}: a filtered permutation does not lift")
        keep = (lifted != ident).any(axis=1)
        keep[-1] = True  # the representative, even where it is the identity
        rows = np.concatenate([dec.kernel_generators(r), lifted[keep]])
    return rows[:-1], rows[-1]


def _class_swap(view: GraphArrays, a: int, b: int) -> np.ndarray | None:
    """The involution swapping the two nodes of every color class, when it exchanges a and b.

    `view` is a refined view (`refine`), whose colors are dense class
    ranks, and a, b are the base edge's endpoints, by index.  Returns that
    involution as an int32 row when every class holds exactly two nodes,
    it sends a to b and it maps the view's labeled edges onto themselves
    (`_maps_edges`); otherwise None.  On a refined view the last two hold
    wherever the classes pair: a and b, individualized together, form a
    class, and the stable classes are equitable, so the edges of one label
    between two two-node classes, or within one, are none, a matching or
    all of them, which σ keeps.  They are checked all the same.  σ swaps
    nodes of one color by construction; a σ that moves a node onto a node
    of another color raises AssertionError.
    """
    if (np.bincount(view.colors) != 2).any():
        return None
    order = view.colors.argsort()
    sigma = np.empty(len(order), dtype=np.int32)
    sigma[order[::2]], sigma[order[1::2]] = order[1::2], order[::2]
    if sigma[a] != b:
        return None
    if not _colors_kept(view.colors, sigma[None]):
        raise AssertionError("class swap: a permutation moves a node onto a node of another color")
    return sigma if _maps_edges(sigma[None], view, view)[0] else None


def _colors_kept(colors: np.ndarray, rows: np.ndarray) -> bool:
    """Whether every row of node images sends each node onto a node of its own color.

    The rows are compared in the blocks of `_row_blocks`, so the gathered
    colors of one block, not of all rows, bound the memory.  Each caller
    raises its own AssertionError when this fails.
    """
    return all((colors.take(rows[at]) == colors).all() for at in _row_blocks(rows, len(colors)))


def _contract(dec: LayerDecomposition, images: np.ndarray) -> np.ndarray:
    """Map working-graph automorphisms back onto the input graph's nodes.

    `images` holds one automorphism per row, and so does the result, over
    the indices of the input's array view: input node `owner[i]` goes to
    `owner[image of i]`.  The three corners of a replaced node share their
    owner and move onto the corners of one node (see `trigiso.layers`), so
    they write the same entry.
    """
    out = np.empty((len(images), int(dec.owner.max()) + 1), dtype=np.int32)
    out[:, dec.owner] = dec.owner.take(images)
    return out


def _tower(view: GraphArrays, e: tuple[int, int], swap: bool) -> np.ndarray | None:
    """One tower of `view` rooted at its edge e, contracted onto the view.

    Refines the view (`refine`), builds the layer tower, runs the level
    loop and maps its rows back onto the view's indices.  The refined view
    keeps the view's edges, so both steps share its `_edge_tables`.  A
    swap tower first tries the class swap on the refined view
    (`_class_swap`): an accepted σ exchanges e's endpoints, is already over
    the view's indices, and, where e is a bridge, is the loop's result
    (module docstring), so the loop is not run.  e is a pair of node ids.
    With swap=False returns the generators of the automorphisms fixing e
    setwise, the rows of a (k, n) int32 array and a smooth generating
    sequence.  With swap=True returns one row, an automorphism exchanging
    e's endpoints, or None if there is none.  Callers validate, this
    function does not.
    """
    tables = _edge_tables(view, e)
    refined = refine(view, e, tables)
    dec = layer_sequence(refined, e, tables)
    sigma = _class_swap(refined, *tables[:2]) if swap else None
    if sigma is not None:
        return sigma
    result = _run_tower(dec, swap)
    if result is None:
        return None
    return _contract(dec, result[1][None])[0] if swap else _contract(dec, result[0])


@dataclass(frozen=True)
class AutResult:
    """Generators of the edge-fixing automorphism group of a graph.

    `generators` act on positions into `node_order`, the sorted original
    node ids of the graph's array view; they form a smooth generating
    sequence.  `swap_witness`, when present, is a generator exchanging the
    endpoints of the base edge.
    """

    generators: tuple[Permutation, ...]
    node_order: tuple[int, ...]
    base_edge: tuple[int, int]
    swap_witness: Permutation | None


def aut_e_generators(g: LabeledGraph, e: tuple[int, int]) -> AutResult:
    """Smooth generators of the automorphisms of g that fix e setwise."""
    require_valid(g)
    contracted = tuple(Permutation(row) for row in _tower(g.arrays, e, swap=False))
    a, b = np.searchsorted(g.arrays.ids, e).tolist()
    return AutResult(
        generators=contracted,
        node_order=tuple(g.arrays.ids.tolist()),
        base_edge=(min(e), max(e)),
        swap_witness=next((s for s in contracted if s(a) == b), None),
    )


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    mapping: dict[int, int] | None = None

    def __bool__(self) -> bool:
        return self.isomorphic


# Cells of the (candidate edge, node) depth table one block of the
# layer-profile walk may fill, one int8 each; a block takes as many candidate
# edges as fit.  The count stage's uint64 tables stay under as many bytes.
_PROFILE_CELLS = 1 << 20
# Entries of the walk's depth table besides depth mod 3: a node not reached
# yet, and the padding node.
_UNSEEN, _ABSENT = 3, 4
# _DIGITS[d % 3][entry] is step + 1 for a neighbor of a depth-d node.
_DIGITS = np.array([[1, 0, 0, 2, 0], [0, 1, 0, 2, 0], [0, 0, 1, 2, 0]], dtype=np.int32)


class _ProfileTables(NamedTuple):
    """One graph's integer tables for the layer-profile filter.

    Row i is node `ids[i]`, the dense index of the graph's array view; row
    n is a padding node.  `nbr` and `labels` are the view's slot tables
    (`trigiso.layers._slots`), label ranks taken over both graphs' labels:
    row v holds v's incident edges as (neighbor, label rank) slots sorted
    by label rank and then neighbor, absent slots first with neighbor n
    and rank -1.  `base` ranks v's color together with its label sequence.
    """

    ids: np.ndarray
    nbr: np.ndarray
    labels: np.ndarray
    base: np.ndarray


def _profile_tables(g1: LabeledGraph, g2: LabeledGraph) -> list[_ProfileTables]:
    """Tables of both graphs; color, label and base ranks span their union."""
    views = (g1.arrays, g2.arrays)
    palette = _sorted_distinct(np.concatenate([a.colors for a in views]))
    label_palette = _sorted_distinct(np.concatenate([a.labels for a in views]))
    slots = [_slots(a, label_palette) for a in views]
    kinds = [
        np.column_stack([np.append(np.searchsorted(palette, a.colors), -1), labels])
        for a, (_, labels) in zip(views, slots)
    ]
    base, _ = _row_ranks(np.concatenate(kinds).T)
    cut = len(kinds[0])
    return [
        _ProfileTables(a.ids, nbr, labels, b)
        for a, (nbr, labels), b in zip(views, slots, (base[:cut], base[cut:]))
    ]


def _profile_walk(tab: _ProfileTables, ends: np.ndarray, alive: np.ndarray):
    """Level-synchronous BFS from every edge at once, one row per edge.

    `ends` holds each edge's endpoints as a row of node indices.  Yields,
    for each BFS level d (the edge's endpoints are level 0), the rows and
    signature codes of the nodes at level d, one entry per (row, node),
    ordered by row and then node.  A node's code is its `base` rank·27 plus
    three step digits.  Each of its three slots holds label·4 + step + 1,
    step the sign of depth(neighbor) - depth(node); an absent edge has label
    rank -1 and step -1, so slot -4.  The slots are sorted, which orders
    them by label and then step, and their low two bits, step + 1, are the
    digits, 0 for an absent edge.  Base and digits together fix the color
    and the sorted (label, step) multiset, so equal codes mean equal
    signatures.  Rows the consumer sets False in `alive` stop expanding.

    The depth table is flat, (row, node) at key row·(n+1) + node, and holds
    one int8 per cell: depth mod 3, `_UNSEEN`, or `_ABSENT` for the padding
    node.  A neighbor of a depth-d node sits at depth d-1, d or d+1, and
    when its step is read no node deeper than d has been entered, so the
    residue tells d-1 from d and an unseen neighbor is at d+1.  One gather
    of the neighbors' entries per level gives both the steps and the nodes
    of the next level.  Gathers use `take`, which numpy runs faster than
    fancy indexing.
    """
    width = len(tab.nbr)
    depth = np.full(len(ends) * width, _UNSEEN, dtype=np.int8)
    depth[width - 1 :: width] = _ABSENT
    key = (np.arange(len(ends))[:, None] * width + ends).ravel()
    depth[key] = 0
    nbr = tab.nbr.astype(np.int64)
    slot_base = 4 * tab.labels
    d = 0
    while len(key):
        rows, nodes = np.divmod(key, width)
        near = (key - nodes)[:, None] + nbr.take(nodes, axis=0)
        seen = depth.take(near)
        s = slot_base.take(nodes, axis=0) + _DIGITS[d % 3].take(seen)
        lo, hi = np.minimum(s[:, 0], s[:, 1]), np.maximum(s[:, 0], s[:, 1])
        mid, top = np.minimum(hi, s[:, 2]), np.maximum(hi, s[:, 2])
        low, mid = np.minimum(lo, mid), np.maximum(lo, mid)
        yield rows, tab.base.take(nodes) * 27 + ((low & 3) * 9 + (mid & 3) * 3 + (top & 3))
        fresh = (seen == _UNSEEN) & alive.take(rows)[:, None]
        key = _sorted_distinct(near[fresh])
        d += 1
        depth[key] = d % 3


def _grow_balls(balls: np.ndarray, slots: np.ndarray, near: np.ndarray) -> None:
    """Grow every node's ball by one level, in place.

    B_{d+1}(x) is B_d(x) ORed with B_d(y) for each slot neighbor y of x.
    `slots` holds the neighbor columns of a `_slots` table as three rows;
    `near` is a (3, n+1, words) buffer that takes their balls before any
    ball changes.  Take with mode="clip" writes straight into `out`; the
    indices are all in range, so it clips nothing.
    """
    np.take(balls, slots, axis=0, out=near, mode="clip")
    for rows in near:
        balls |= rows


def _count_stage(t1: _ProfileTables, e1, t2: _ProfileTables, candidates) -> np.ndarray:
    """Increasing indices of the candidate edges whose BFS level sizes match e1's.

    Bit-parallel balls, after the bit-parallel labels of Akiba, Iwata and
    Yoshida (SIGMOD 2013).  Row x of the (n+1, ⌈n/64⌉) uint64 ball table
    holds B_d(x), the second graph's nodes within distance d of node x, as
    bits: node y is bit y % 64 of word y // 64.  B_0(x) is {x}, and each
    level ORs the balls of x's three slot neighbors into B_d(x)
    (`_grow_balls`); the padding row n stays empty, so an absent slot adds
    nothing.  An edge's nodes within distance d are the OR of its
    endpoints' balls, so its level-d size is that ball's popcount minus the
    one at d-1.  e1's sizes come from `_bfs_levels` on the first graph.  A
    live row matched e1 at every level before d, so its ball at d-1 holds
    as many nodes as e1's; it is dropped where its ball at d holds another
    number of nodes than e1's, which is its first level of another size,
    a level only one of the two reaches included.

    Level d is counted while some row is live and either it pays or level
    d-1 dropped a row.  It pays while live rows × nodes e1 has not reached
    by d-1, the walk's work on them, is at least e1's remaining levels ×
    (n+1)·⌈n/64⌉, the words of the ball updates still to come.  That cost
    leaves out the walk's fixed cost per level, and a level that drops rows
    is mostly followed by more that do; so level 1 is counted only where it
    pays, and on most negatives the stage then counts on until no row is
    live, while on a positive, whose true row stays, it stops at the first
    level that drops nothing and no longer pays.  Where the stage's uint64
    tables would take more than `_PROFILE_CELLS` bytes, every row is
    returned as it is.  Those tables are the ball table, the buffer
    `_grow_balls` gathers into, and one block of candidate balls, which
    takes as many live rows as fit; every level reuses all three.
    """
    n = len(t2.nbr) - 1
    words = -(-n // 64)
    table = (n + 1) * words
    live = np.arange(len(candidates))
    # The balls and `near` take four tables, and a block two balls a row.
    block = min(len(live), (_PROFILE_CELLS // 8 - 4 * table) // (2 * words))
    # With fewer rows the loop's rule stops at d = 1, however few levels e1 has.
    if block < 1 or len(live) * (n - 2) < table:
        return live
    widths = np.bincount(_bfs_levels(t1.nbr, *e1)[:-1])[1:]
    balls = np.zeros((n + 1, words), dtype=np.uint64)
    nodes = np.arange(n, dtype=np.uint64)
    balls[nodes, nodes >> 6] = np.left_shift(1, nodes & 63, dtype=np.uint64)
    slots = np.ascontiguousarray(t2.nbr.T, dtype=np.intp)
    near = np.empty((3, n + 1, words), dtype=np.uint64)
    buf = np.empty(2 * block * words, dtype=np.uint64)
    # A product with ones sums each row's word counts faster than sum(axis=1).
    ones = np.ones(words, dtype=np.int32)
    ends = np.ascontiguousarray(candidates.T, dtype=np.intp)
    reached, dropped = int(widths[0]), False
    for d in range(1, len(widths)):
        pays = len(live) * (n - reached) >= (len(widths) - d) * table
        if not len(live) or not (pays or dropped):
            break
        _grow_balls(balls, slots, near)
        reached += int(widths[d])
        keep = np.empty(len(live), dtype=bool)
        for at in range(0, len(live), block):
            part = ends[:, at : at + block]
            pair = np.take(balls, part, axis=0, mode="clip",
                           out=buf[: part.size * words].reshape(2, -1, words))
            np.bitwise_or(pair[0], pair[1], out=pair[0])
            keep[at : at + block] = np.bitwise_count(pair[0]) @ ones == reached
        dropped = not keep.all()
        live, ends = live[keep], ends[:, keep]
    return live


def _profile_filter(t1: _ProfileTables, e1, t2: _ProfileTables, candidates):
    """Yield the indices of the candidate edges whose layer profile matches e1's.

    Level d of an edge's profile is the multiset of signatures of the nodes
    at BFS depth d from its endpoints; a node's signature is its color and,
    for each incident edge, the label and whether the neighbor sits at a
    smaller, equal, or larger depth.  Any isomorphism carrying e1 onto e2
    carries depth-d nodes onto depth-d nodes and preserves every signature,
    so a first differing level, or a different number of levels, rules the
    pairing out before any group machinery runs.

    Edges are pairs of node indices, rows of the tables: e1 is one pair and
    `candidates` a (k, 2) array of the second graph's edges, whose surviving
    row indices are yielded, in order.  Two stages run.  The count stage
    (`_count_stage`) drops, for every candidate at once, each row whose
    number of nodes at some BFS level differs from e1's, with bit-parallel
    balls, while a level pays for itself against the walk or the level
    before dropped a row.  The signature walk then takes the rows left:
    they walk together, one row each (see `_profile_walk`), and a row is
    dropped at its first level whose node count or sorted codes differ
    from e1's.  A row whose walk ends at another depth than e1's is dropped
    at the last level both reach, where only one side has nodes with a step
    +1 edge.
    So the walk drops every row the count stage drops, and running the
    count stage first, for any number of levels, leaves the survivors and
    their order as they are.  e1's levels come from the same walk as a
    batch of one, taken on demand: level d of e1 is walked only once some
    block's rows reach level d, and is kept for the later blocks, so the
    levels past the one where every row died, and every level where the
    count stage left no row, are never walked.
    Rows are walked in the given order, in blocks whose depth table stays
    under `_PROFILE_CELLS` cells (1 MiB of int8), so memory does not grow
    with the number of candidates; a block's survivors are yielded, in
    order, before the next block is walked.
    """
    walk = _profile_walk(t1, np.reshape(e1, (1, 2)), np.ones(1, dtype=bool))
    ref = []
    span = 27 * (int(max(t1.base.max(), t2.base.max())) + 1)
    live = _count_stage(t1, e1, t2, candidates)
    block = max(1, _PROFILE_CELLS // len(t2.nbr))
    for first in range(0, len(live), block):
        chunk = live[first : first + block]
        alive = np.ones(len(chunk), dtype=bool)
        for d, (rows, codes) in enumerate(_profile_walk(t2, candidates[chunk], alive)):
            if d == len(ref):
                level = next(walk, None)
                if level is None:
                    break
                ref.append(np.sort(level[1]))
            want = ref[d]
            alive &= np.bincount(rows, minlength=len(alive)) == len(want)
            sel = alive.take(rows)
            offset = rows[sel] * span  # rows come sorted, so sorting keeps them in place
            got = np.sort(offset + codes[sel]) - offset
            alive[alive] = (got.reshape(np.count_nonzero(alive), len(want)) == want).all(axis=1)
        yield from chunk[alive]


def _pretests_pass(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    if g1.n_nodes != g2.n_nodes or g1.n_edges != g2.n_edges:
        return False
    a1, a2 = g1.arrays, g2.arrays
    return all(
        np.array_equal(np.sort(x), np.sort(y))
        for x, y in ((a1.degrees, a2.degrees), (a1.colors, a2.colors), (a1.labels, a2.labels))
    )


def _first_edge_candidates(t1: _ProfileTables, t2: _ProfileTables):
    """e1 and its candidate edges, chosen by refining both graphs at once; or None.

    Refines the disjoint union of the two graphs (`_refine_rounds`), from
    the tables' `base` ranks: the first graph's nodes are indices 0..n1-1,
    the second's follow, and both padding rows become the union's one.  An
    edge's class is (its endpoint classes, sorted, and its label rank).
    Returns None when the two sides' node class histograms differ.
    Otherwise the target is the second graph's smallest edge class, ties by
    smallest class key; e1 is the first graph's lowest-(u, v) edge in it,
    an array of two node indices, and the candidates are the class's edges
    of the second graph, the rows of a (k, 2) array of node indices sorted
    by (u, v).  Every key is packed (`_row_key`) over both graphs' edges
    at once, so keys past 2^63 are ranked alike on both sides.
    """
    n1, n2 = len(t1.ids), len(t2.ids)
    n = n1 + n2
    nbr = np.concatenate([np.where(t1.nbr[:n1] == n1, n, t1.nbr[:n1]), t2.nbr[:n2] + n1])
    labels = np.concatenate([t1.labels[:n1], t2.labels[:n2]])
    n_labels = int(labels.max()) + 1
    # The padding rows alone hold base rank 0, so the nodes' ranks are dense from 1.
    base = np.concatenate([t1.base[:n1], t2.base[:n2]]) - 1
    cls, count = _refine_rounds(base, int(base.max()) + 1, nbr, labels)
    if not np.array_equal(np.bincount(cls[:n1], minlength=count),
                          np.bincount(cls[n1:], minlength=count)):
        return None
    # Each edge once, as the slot of its smaller end.  Rows run by node and
    # a row's slots by (label, neighbor), and a class has one label, so each
    # side's edges of one class come in (u, v) order.
    src = np.arange(n).repeat(3)
    dst = nbr.ravel()
    edge = np.flatnonzero((src < dst) & (dst < n))
    src, dst, lab = src.take(edge), dst.take(edge), labels.ravel().take(edge)
    x, y = cls.take(src), cls.take(dst)
    key = _row_key((np.minimum(x, y), np.maximum(x, y), lab), (count, count, n_labels))
    first = int(src.searchsorted(n1))
    ordered = np.sort(key[first:])
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    target = ordered[starts[np.diff(starts, append=len(ordered)).argmin()]]
    j = int(np.argmax(key[:first] == target))
    theirs = first + np.flatnonzero(key[first:] == target)
    return np.array([src[j], dst[j]]), np.stack([src.take(theirs), dst.take(theirs)], axis=1) - n1


def _check_automorphisms(view: GraphArrays, rows: np.ndarray) -> None:
    """Raise AssertionError unless every row is an automorphism of `view`.

    Each row must keep every node's color and map the labeled edges onto
    themselves (`_maps_edges`).  On a connected graph that also makes the
    row a bijection: a node it misses would have no incident edge left to
    be the image of.  Both checks run over row blocks (`_colors_kept`,
    `_maps_edges`), so neither gathers all rows at once.
    """
    if not (_colors_kept(view.colors, rows) and _maps_edges(rows, view, view).all()):
        raise AssertionError("a pruning generator is not an automorphism of the second graph")


def _candidate_orbits(a2: GraphArrays, candidates: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Orbit labels of the candidate edges under automorphisms of the second graph.

    `level` holds the BFS levels of the second graph's nodes from a tried
    candidate (`_bfs_levels`).  The automorphisms are those fixing the edge
    deepest from it: greatest level sum of its endpoints, then lowest
    (u, v).  Fixing a far edge leaves the group free to move the edges
    near the tried one.  `candidates` are the rows of a (k, 2) array of
    node indices sorted by (u, v); candidate i's label is the smallest
    index in its orbit.  The generators are checked to be automorphisms,
    and every mapped candidate to be a candidate, before they are used.
    """
    n = len(a2.ids)
    depth = level[a2.u] + level[a2.v]
    far = np.flatnonzero(depth == depth.max())
    j = far[np.lexsort((a2.v[far], a2.u[far]))[0]]
    rows = _tower(a2, (a2.ids[a2.u[j]], a2.ids[a2.v[j]]), swap=False)
    _check_automorphisms(a2, rows)
    keys = candidates[:, 0] * n + candidates[:, 1]
    x, y = rows[:, candidates[:, 0]].astype(np.int64), rows[:, candidates[:, 1]].astype(np.int64)
    moved = np.minimum(x, y) * n + np.maximum(x, y)
    pos = np.searchsorted(keys, moved).clip(max=len(keys) - 1)
    if not (keys[pos] == moved).all():
        raise AssertionError("a pruning generator maps a candidate edge onto a non-candidate")
    k = len(keys)
    return _join(np.arange(k), np.tile(np.arange(k), len(rows)), pos.ravel())


def is_isomorphic(
    g1: LabeledGraph,
    g2: LabeledGraph,
    want_mapping: bool = False,
) -> IsoResult:
    """Label- and color-preserving isomorphism test.

    Cheap pre-tests (node and edge counts, degree sequence, color and label
    multisets) short-circuit obvious mismatches.  Then both graphs are
    color-refined together, as one disjoint union.  Any isomorphism keeps the
    union's stable classes, so different per-side class histograms return
    False, and an edge can only map onto an edge of its own class (endpoint
    classes, label).  So e1, the first graph's lowest edge in the second
    graph's smallest edge class, is split against exactly the second graph's
    edges e2 of that class, in sorted order (`_first_edge_candidates`).  The
    layer-profile filter (`_profile_filter`) drops every e2 whose BFS levels
    differ from e1's, in two stages of bounded memory: a count stage drops,
    for all candidates at once, each e2 with a level of another size than
    e1's, from bit-parallel balls (`_count_stage`), while that is cheaper
    than the walk or the level before dropped an e2; then the signature
    walk compares the node signatures of the e2 left, level by level.  The
    walk would drop every e2 the count stage drops, so the survivors are
    the walk's alone.  A lone candidate skips the filter, since its tower
    decides it exactly as well.  For each surviving pairing, block by
    block, the exchange coset of the joined graph (automorphisms fixing the
    join edge that swap the two split nodes) is searched along the tower of
    its color-refined view.  The first pairing whose coset survives yields
    the witness, and no later block is walked; any returned mapping is
    re-verified before being surfaced.

    After the first failed pairing, the candidates are split into orbits of
    the second graph's automorphisms fixing one edge (`_candidate_orbits`),
    and a pairing in the orbit of a failed one is skipped: an automorphism
    carries one onto the other, so it would fail as well.  Those
    automorphisms keep the union's classes, so they map candidates onto
    candidates.  Only failing towers are skipped, so verdicts and witnesses
    are those of the unpruned loop over the same candidates.
    """
    require_valid(g1, "first graph")
    require_valid(g2, "second graph")
    if 1 in (g1.n_nodes, g2.n_nodes):
        same = g1.n_nodes == g2.n_nodes and np.array_equal(g1.arrays.colors, g2.arrays.colors)
        mapping = dict(zip(g1.node_ids, g2.node_ids)) if same and want_mapping else None
        return IsoResult(same, mapping)
    if not _pretests_pass(g1, g2):
        return IsoResult(False)

    a1, a2, n1 = g1.arrays, g2.arrays, g1.n_nodes
    t1, t2 = _profile_tables(g1, g2)
    selected = _first_edge_candidates(t1, t2)
    if selected is None:
        return IsoResult(False)
    e1, candidates = selected
    failed, orbit = [], None
    # A lone candidate goes straight to its tower, which dies at the first
    # level where the two sides differ.
    survivors = range(1) if len(candidates) == 1 else _profile_filter(t1, e1, t2, candidates)
    for i in survivors:
        if failed:
            if orbit is None:
                level = _bfs_levels(t2.nbr, *candidates[failed[0]])
                orbit = _candidate_orbits(a2, candidates, level)
            if orbit[i] in orbit[failed]:
                continue
        witness = _tower(build_x(a1, a2, e1, candidates[i]), (n1, n1 + 1), swap=True)
        if witness is None:
            failed.append(i)
            continue
        # The splice's ids are its indices; the second graph starts at n1 + 2.
        mapping = dict(zip(a1.ids.tolist(), a2.ids[witness[:n1] - (n1 + 2)].tolist()))
        if not is_graph_isomorphism(g1, g2, mapping):
            raise AssertionError("internal error: witness failed verification")
        return IsoResult(True, mapping if want_mapping else None)
    return IsoResult(False)


# Acceptance criterion 3 imports this name from `trigiso.core`; it is not
# re-exported from the package.
is_isomorphic_swap = is_isomorphic
