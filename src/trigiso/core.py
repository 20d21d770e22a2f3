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

Inside the tower every permutation is a row of an int32 image array: the
generators are one (k, n) array and the representative one row.  A level
appends the B_r columns to every row in one concatenation, filters, keeps
the first n columns and lifts all rows in one call.  `Permutation` objects
appear only at the boundary, in `lift`, `_contract` and the results.

Two graphs are isomorphic exactly when, after splitting one edge of each and
joining the split nodes, some automorphism of the joined graph fixing the
join edge exchanges the two split nodes.  `is_isomorphic` searches for one
directly: every level keeps only the coset of part-exchanging candidates
over the part-preserving subgroup, so an edge pairing that admits no
exchange dies at the first layer where the two sides differ.
`aut_e_generators` runs the same tower over the whole edge-fixing group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The tower runs `cb_images`; `cb` and the tree names are bound here only
# because perfbench/tracing.py patches them in this module.
from .coloraut import annotate, build_structure_tree, cb, cb_images, cb_tree
from .graphs import LabeledGraph, build_x, is_graph_isomorphism, require_valid
from .layers import LayerDecomposition, layer_sequence
from .perm import Permutation, _sorted_distinct


def lift(dec: LayerDecomposition, r: int, sigma: Permutation) -> Permutation:
    """Extend a certified level-r automorphism to the next layer.

    Each node entering at level r+1 is sent to the node at the matching
    position (sorted by index) of the image fiber: same labeled neighbor set
    pushed through sigma, same color.  The restriction of the result back to
    level r is sigma again.
    """
    return Permutation(dec.lift_image(r, sigma.image), _checked=True)


def _run_tower(dec: LayerDecomposition, swap: bool):
    """Run the level loop; returns (generators, representative) or None.

    Generators are a (k, n) int32 array of node images, one per row, and the
    representative is one such row.  With swap=False the generators
    generate the full edge-fixing automorphism group of the working graph
    and the representative stays the identity.  With swap=True the
    generators generate the part-preserving subgroup and the representative
    tracks a part-exchanging coset element; returns None as soon as the
    exchange coset dies, which certifies that no automorphism exchanges the
    base edge's endpoints.

    Level r filters the coset over B_r only: the materialized elements of
    level r, the labeled neighbor sets of the nodes entering at r+1 and the
    cross-edge pairs of level r, closed under the level's permutations.
    They take the ground points [n, m) in key order.  The nodes of X_{r-1}
    are not part of B_r: every permutation that reaches level r already
    preserves their colors, so a filter over them could remove nothing.
    That premise is checked on every row at every level, and a violation
    raises AssertionError.
    """
    n = dec.n
    a, b = dec.base_edge
    same_color = dec.colors[a] == dec.colors[b]
    if swap and not same_color:
        return None
    ident = np.arange(n, dtype=np.int32)
    flip = ident.copy()
    flip[[a, b]] = b, a
    gens = flip[None] if same_color and not swap else np.empty((0, n), dtype=np.int32)
    rep = flip if swap else ident
    for r in range(1, dec.N):
        rows = np.vstack([gens, rep])
        if not (dec.node_colors[rows] == dec.node_colors).all():
            raise AssertionError(
                f"level {r}: a permutation moves a node onto a node of another color"
            )
        keys = dec.b_set(r, rows)
        if len(keys):  # else nothing is materialized: the whole coset survives
            moved = dec.move(rows, keys)
            pos = np.searchsorted(keys, moved).clip(max=len(keys) - 1)
            if not (keys[pos] == moved).all():
                raise AssertionError(f"level {r}: B_r is not closed")
            ext = np.concatenate([rows, (n + pos).astype(np.int32)], axis=1)
            colors = np.concatenate([np.zeros(n, dtype=np.int64), dec.element_colors(r, keys)])
            out, _ = cb_images(ext[:-1], ext[-1], np.arange(n, ext.shape[1]), colors)
            if out is None:
                if swap:
                    return None
                raise AssertionError("identity coset filtered to empty")
            rows = np.vstack(out)[:, :n]
        lifted = dec.lift_image(r, rows)
        rep = lifted[-1]
        kernel = dec.kernel_generators(r)
        seen = {row.tobytes() for row in kernel}
        keep = []
        for i in np.flatnonzero((lifted[:-1] != ident).any(axis=1)).tolist():
            key = lifted[i].tobytes()
            if key not in seen:
                seen.add(key)
                keep.append(i)
        gens = np.concatenate([kernel, lifted[keep]])
    return gens, rep


def _original_positions(dec: LayerDecomposition):
    ids = sorted(set(dec.index_of) | set(dec.gadget_triple))
    pos = {v: i for i, v in enumerate(ids)}
    return ids, pos


def _contract(dec: LayerDecomposition, images: np.ndarray) -> list[Permutation]:
    """Map working-graph automorphisms back onto the input graph's nodes.

    `images` holds one automorphism per row.  Gadget corners collapse to
    their parent node; the reserved triangle labels force corners onto
    corners, so the parent map is well defined and the contraction is a
    group isomorphism.
    """
    ids, pos = _original_positions(dec)
    entry = [dec.index_of[v] if v in dec.index_of else dec.gadget_triple[v][0] for v in ids]
    owner = [oid if oid is not None else dec.gadget_parent[i] for i, oid in enumerate(dec.orig_id)]
    owner_pos = np.array([pos[v] for v in owner], dtype=np.int32)
    return [Permutation(row) for row in owner_pos[images[:, entry]]]


@dataclass(frozen=True)
class AutResult:
    """Generators of the edge-fixing automorphism group of a graph.

    `generators` act on positions into `node_order` (the sorted original
    node ids); they form a smooth generating sequence.  `swap_witness`, when
    present, is a generator exchanging the endpoints of the base edge.
    """

    generators: tuple[Permutation, ...]
    node_order: tuple[int, ...]
    base_edge: tuple[int, int]
    swap_witness: Permutation | None


def aut_e_generators(g: LabeledGraph, e: tuple[int, int]) -> AutResult:
    """Smooth generators of the automorphisms of g that fix e setwise."""
    dec = layer_sequence(g, e)
    gens, _ = _run_tower(dec, swap=False)
    contracted = _contract(dec, gens)
    ids, pos = _original_positions(dec)
    a, b = min(e), max(e)
    witness = next(
        (s for s in contracted if s(pos[a]) == pos[b]),
        None,
    )
    return AutResult(
        generators=tuple(contracted),
        node_order=tuple(ids),
        base_edge=(a, b),
        swap_witness=witness,
    )


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    mapping: dict[int, int] | None = None

    def __bool__(self) -> bool:
        return self.isomorphic


# Cells of the (candidate edge, node) distance table one block of the
# layer-profile filter may fill; a block takes as many candidate edges as fit.
_PROFILE_CELLS = 1 << 20
# Distance of a node the walk has not reached yet.
_UNSEEN = np.iinfo(np.int32).max


class _ProfileTables(NamedTuple):
    """One graph's integer tables for the layer-profile filter.

    Nodes take dense indices in id order (`index`); row n is a padding node.
    Row v of `nbr` and `labels` holds v's incident edges as (neighbor, label
    rank) slots sorted by label rank, absent slots first with neighbor n and
    rank -1.  `base` ranks v's color together with its label sequence.
    """

    index: dict
    nbr: np.ndarray
    labels: np.ndarray
    base: np.ndarray


def _profile_tables(g1: LabeledGraph, g2: LabeledGraph) -> list[_ProfileTables]:
    """Tables of both graphs; color, label and base ranks span their union."""
    graphs = (g1, g2)
    color_rank = _ranks(c for g in graphs for c in g.colors().values())
    label_rank = _ranks(lab for g in graphs for lab in g.edges().values())
    parts = []
    for g in graphs:
        ids = g.node_ids
        index = {v: i for i, v in enumerate(ids)}
        adj = g.adjacency()
        pad = [(-1, len(ids))] * 3
        slots = [
            pad[len(adj[v]) :] + sorted((label_rank[lab], index[w]) for w, lab in adj[v])
            for v in ids
        ] + [pad]
        kinds = [(color_rank[g.color(v)], *(lab for lab, _ in row)) for v, row in zip(ids, slots)]
        kinds.append((-1, -1, -1, -1))
        parts.append((index, np.array(slots, dtype=np.int32), kinds))
    base_rank = _ranks(kind for _, _, kinds in parts for kind in kinds)
    return [
        _ProfileTables(index, slots[:, :, 1], slots[:, :, 0],
                       np.array([base_rank[kind] for kind in kinds], dtype=np.int64))
        for index, slots, kinds in parts
    ]


def _ranks(values) -> dict:
    return {x: i for i, x in enumerate(sorted(set(values)))}


def _profile_walk(tab: _ProfileTables, edges, alive: np.ndarray):
    """Level-synchronous BFS from every edge at once, one row per edge.

    Yields, for each BFS level d (the edge's endpoints are level 0), the
    rows and signature codes of the nodes at level d, one entry per (row,
    node).  A node's code is its `base` rank·27 plus three step digits.
    Each of its three slots holds label·3 + step + 1, step the sign of
    dist(neighbor) - dist(node); an absent edge has label rank -1 and step
    -1, so slot -3.  The slots are sorted, which orders them by label and
    then step, and reduced mod 3 to digits, 0 for an absent edge.  Base
    and digits together fix the color and the sorted (label, step)
    multiset, so equal codes mean equal signatures.  Rows the consumer sets
    False in `alive` stop expanding.
    """
    k, n = len(edges), len(tab.index)
    dist = np.full((k, n + 1), _UNSEEN, dtype=np.int32)
    dist[:, n] = -1  # absent slots: step -1, so slot -3 and digit 0
    rows = np.repeat(np.arange(k, dtype=np.int64), 2)
    nodes = np.array([tab.index[v] for e in edges for v in e], dtype=np.int64)
    dist[rows, nodes] = 0
    d = 0
    while len(rows):
        nbr = tab.nbr[nodes]
        step = np.sign(dist[rows[:, None], nbr] - d)
        digits = np.sort(3 * tab.labels[nodes] + step + 1, axis=1) % 3
        yield rows, tab.base[nodes] * 27 + digits @ np.array([9, 3, 1])
        keep = alive[rows]
        rows, nbr = rows[keep], nbr[keep]
        fresh = dist[rows[:, None], nbr] == _UNSEEN
        key = _sorted_distinct((rows[:, None] * (n + 1) + nbr)[fresh])
        rows, nodes = np.divmod(key, n + 1)
        d += 1
        dist[rows, nodes] = d


def _profile_filter(t1: _ProfileTables, e1, t2: _ProfileTables, candidates):
    """Yield the candidate edges of the second graph whose layer profile matches e1's.

    Level d of an edge's profile is the multiset of signatures of the nodes
    at BFS depth d from its endpoints; a node's signature is its color and,
    for each incident edge, the label and whether the neighbor sits at a
    smaller, equal, or larger depth.  Any isomorphism carrying e1 onto e2
    carries depth-d nodes onto depth-d nodes and preserves every signature,
    so a first differing level, or a different number of levels, rules the
    pairing out before any group machinery runs.

    e1's levels come from the same walk as a batch of one.  The candidates
    walk together, one row each (see `_profile_walk`), and a row is dropped
    at its first level whose node count or sorted codes differ from e1's.
    A row whose walk ends at another depth than e1's is dropped at the last
    level both reach, where only one side has nodes with a step +1 edge.
    Candidates are taken in the given order, in blocks whose distance table
    stays under `_PROFILE_CELLS` cells (4 MiB of int32), so memory does not
    grow with the number of candidates; a block's survivors are yielded, in
    order, before the next block is walked.
    """
    ref = [np.sort(codes) for _, codes in _profile_walk(t1, [e1], np.ones(1, dtype=bool))]
    span = 27 * (int(max(t1.base.max(), t2.base.max())) + 1)
    block = max(1, _PROFILE_CELLS // (len(t2.index) + 1))
    for first in range(0, len(candidates), block):
        chunk = candidates[first : first + block]
        alive = np.ones(len(chunk), dtype=bool)
        for want, (rows, codes) in zip(ref, _profile_walk(t2, chunk, alive)):
            alive &= np.bincount(rows, minlength=len(chunk)) == len(want)
            sel = alive[rows]
            got = np.sort(rows[sel] * span + codes[sel]) % span
            alive[alive] = (got.reshape(np.count_nonzero(alive), len(want)) == want).all(axis=1)
        yield from (e2 for e2, ok in zip(chunk, alive) if ok)


def _pretests_pass(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    if g1.n_nodes != g2.n_nodes or g1.n_edges != g2.n_edges:
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    if sorted(g1.colors().values()) != sorted(g2.colors().values()):
        return False
    if sorted(g1.edges().values()) != sorted(g2.edges().values()):
        return False
    return True


def _extract_mapping(sp, witness: Permutation) -> dict[int, int]:
    inv2 = {x: v for v, x in sp.map2.items()}
    return {u: inv2[witness(sp.map1[u])] for u in sp.map1}


def is_isomorphic(
    g1: LabeledGraph,
    g2: LabeledGraph,
    want_mapping: bool = False,
) -> IsoResult:
    """Label- and color-preserving isomorphism test.

    Cheap pre-tests (node and edge counts, degree sequence, color and label
    multisets) short-circuit obvious mismatches.  Otherwise one edge e1 of
    the first graph is split against the same-label edges e2 of the second,
    in sorted order.  The layer-profile filter (`_profile_filter`) drops
    every e2 whose BFS level signatures differ from e1's; it walks the
    candidates together, in blocks of bounded memory.  For each surviving
    pairing, block by block, the exchange coset of the joined graph
    (automorphisms fixing the join edge that swap the two split nodes) is
    searched along the tower.  The first pairing whose coset survives
    yields the witness, and no later block is walked; any returned mapping
    is re-verified before being surfaced.
    """
    require_valid(g1, "first graph")
    require_valid(g2, "second graph")
    if g1.n_nodes == 1 or g2.n_nodes == 1:
        same = (
            g1.n_nodes == 1
            and g2.n_nodes == 1
            and g1.color(g1.node_ids[0]) == g2.color(g2.node_ids[0])
        )
        mapping = None
        if same and want_mapping:
            mapping = {g1.node_ids[0]: g2.node_ids[0]}
        return IsoResult(same, mapping)
    if not _pretests_pass(g1, g2):
        return IsoResult(False)

    e1 = g1.sorted_edges()[0]
    lab1 = g1.label(*e1)
    candidates = [e2 for e2 in g2.sorted_edges() if g2.label(*e2) == lab1]
    t1, t2 = _profile_tables(g1, g2)
    for e2 in _profile_filter(t1, e1, t2, candidates):
        sp = build_x(g1, g2, e1, e2, validated=True)
        dec = layer_sequence(sp.graph, sp.e, validated=True)
        result = _run_tower(dec, swap=True)
        if result is None:
            continue
        witness = _contract(dec, result[1][None])[0]
        mapping = _extract_mapping(sp, witness)
        if not is_graph_isomorphism(g1, g2, mapping):
            raise AssertionError("internal error: witness failed verification")
        return IsoResult(True, mapping if want_mapping else None)
    return IsoResult(False)


# Acceptance criterion 3 imports this name from `trigiso.core`; it is not
# re-exported from the package.
is_isomorphic_swap = is_isomorphic
