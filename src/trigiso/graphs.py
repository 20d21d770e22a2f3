"""Node-colored, edge-labeled undirected graphs of maximum degree three.

Node ids are non-negative integers (not necessarily contiguous); colors and
edge labels are small integers, with 0 meaning "uncolored"/"unlabeled".
Negative colors and labels are reserved for internal constructions (the
triangle gadget, arc-direction midpoints of the phylogenetic reduction):
`validate` rejects them in user input, and the text format never parses them.

Every pass over a whole graph (`validate`, the pretests, the choice of
candidate edges, the layer-profile tables, the layer tower and the check of
a witness) reads one array view, `LabeledGraph.arrays`: the node ids in
increasing order, their colors, every edge as a pair of dense indices into
those ids with its label (edges in insertion order), and the node degrees.
A graph read from text (`parse_graph_text`) holds only that view, built by
one scan of the text.  A graph built from Python objects holds two dicts,
node id -> color and sorted endpoint pair -> label, and builds its view on
first use.  Either form builds the other only when an accessor asks for it,
and caches it; a graph is never changed after construction, so neither goes
stale.  The arrays are shared by every caller and read-only: a pass that
needs to modify one works on a copy.  Ids, colors or labels beyond 64 bits
are held with object dtype.
The graphs a decision builds are views too: the splice (`build_x`) joins
two views by concatenation, and the tower's working graph (`trigiso.layers`)
and the network reduction are built as views.  `_maps_edges` is the one
check that a node map carries one view's labeled edges onto another's.
`validate` is strict, and only the public entry points call it.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .perm import _join, _sorted_distinct

# Reserved internal values; user graphs must stay non-negative.
GADGET_LABEL = -1
ARC_OUT_LABEL = -2
ARC_IN_LABEL = -3
ROOT_JOIN_LABEL = -4
MIDPOINT_COLOR = -1


class GraphError(ValueError):
    """Raised for malformed graphs or graph files."""


class GraphFormatError(GraphError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class LabeledGraph:
    """An undirected graph with per-node colors and per-edge labels.

    The edge store is keyed by the sorted endpoint pair, so parallel edges
    cannot be represented; loops can (and are reported by `validate`).
    The counts and `node_ids` read whichever form the graph holds; the
    other accessors read the dicts (module docstring).
    """

    __slots__ = ("_colors", "_edges", "_adj", "_arrays")

    def __init__(
        self,
        nodes: Mapping[int, int] | Iterable[int],
        edges: Mapping[tuple[int, int], int] | Iterable[tuple]  # (u, v[, label])
        = (),
    ):
        if isinstance(nodes, Mapping):
            self._colors = {int(v): int(c) for v, c in nodes.items()}
        else:
            self._colors = {int(v): 0 for v in nodes}
        self._edges: dict[tuple[int, int], int] | None = {}
        if isinstance(edges, Mapping):
            items = [(u, v, lab) for (u, v), lab in edges.items()]
        else:
            items = [e if len(e) == 3 else (e[0], e[1], 0) for e in edges]
        for u, v, lab in items:
            u, v, lab = int(u), int(v), int(lab)
            for w in (u, v):
                if w not in self._colors:
                    raise GraphError(f"edge endpoint {w} is not a declared node")
            self._edges[_norm_edge(u, v)] = lab
        self._adj: dict[int, list[tuple[int, int]]] | None = None
        self._arrays: GraphArrays | None = None

    @classmethod
    def _of(cls, arrays: "GraphArrays") -> "LabeledGraph":
        """A graph that holds only its read-only array view."""
        g = object.__new__(cls)
        g._colors, g._edges, g._adj, g._arrays = None, None, None, arrays
        return g

    def _dicts(self) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
        """The color and edge dicts; a graph read from text builds them here.

        Nodes come in id order and edges in the view's order.
        """
        if self._colors is None:
            a = self._arrays
            ends = zip(a.ids[a.u].tolist(), a.ids[a.v].tolist())
            self._colors = dict(zip(a.ids.tolist(), a.colors.tolist()))
            self._edges = dict(zip(ends, a.labels.tolist()))
        return self._colors, self._edges

    # -- accessors ----------------------------------------------------------

    @property
    def node_ids(self) -> list[int]:
        if self._arrays is None:
            return sorted(self._colors)
        return self._arrays.ids.tolist()

    @property
    def n_nodes(self) -> int:
        return len(self._colors) if self._arrays is None else len(self._arrays.ids)

    @property
    def n_edges(self) -> int:
        return len(self._edges) if self._arrays is None else len(self._arrays.u)

    def color(self, v: int) -> int:
        return self._dicts()[0][v]

    def colors(self) -> dict[int, int]:
        return dict(self._dicts()[0])

    def edges(self) -> dict[tuple[int, int], int]:
        return dict(self._dicts()[1])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self._dicts()[1])

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self._dicts()[1]

    def label(self, u: int, v: int) -> int:
        return self._dicts()[1][_norm_edge(u, v)]

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """Node -> sorted list of (neighbor, edge label)."""
        if self._adj is None:
            colors, edges = self._dicts()
            adj: dict[int, list[tuple[int, int]]] = {v: [] for v in colors}
            for (u, v), lab in edges.items():
                adj[u].append((v, lab))
                if u != v:
                    adj[v].append((u, lab))
            for v in adj:
                adj[v].sort()
            self._adj = adj
        return self._adj

    @property
    def arrays(self) -> "GraphArrays":
        """The cached array view (module docstring)."""
        if self._arrays is None:
            self._arrays = _graph_arrays(self._colors, self._edges)
        return self._arrays

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def degree_sequence(self) -> list[int]:
        return np.sort(self.arrays.degrees).tolist()

    def relabeled(self, mapping: Mapping[int, int]) -> "LabeledGraph":
        colors, edges = self._dicts()
        nodes = {mapping[v]: c for v, c in colors.items()}
        edges = {_norm_edge(mapping[u], mapping[v]): lab for (u, v), lab in edges.items()}
        return LabeledGraph(nodes, edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._dicts() == other._dicts()

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n_nodes}, m={self.n_edges})"


class GraphArrays(NamedTuple):
    """Array view of a `LabeledGraph`.

    Node i is `ids[i]`, the ids increasing, with color `colors[i]`.  Edge j
    joins nodes `u[j]` <= `v[j]` and carries `labels[j]`; edges keep the
    graph's insertion order.  `degrees[i]` counts node i's incident edges,
    a loop once.  The arrays are read-only.
    """

    ids: np.ndarray
    colors: np.ndarray
    u: np.ndarray
    v: np.ndarray
    labels: np.ndarray
    degrees: np.ndarray


def _graph_arrays(colors: dict, edges: dict) -> GraphArrays:
    n, m = len(colors), len(edges)
    ids = _ints(colors.keys(), n)
    by_id = np.argsort(ids, kind="stable")
    ids = ids[by_id]
    ends = np.fromiter(chain.from_iterable(edges), dtype=ids.dtype, count=2 * m)
    u, v = np.searchsorted(ids, ends).reshape(m, 2).T
    return _view(ids, _ints(colors.values(), n)[by_id], u, v, _ints(edges.values(), m))


def _view(ids, colors, u, v, labels) -> GraphArrays:
    """The frozen view of sorted ids, their colors, and edges as index pairs u <= v.

    An object-dtype column is narrowed to int64 where its values fit.
    """
    ids, colors, labels = (_ints(x, len(x)) if x.dtype == object else x for x in (ids, colors, labels))
    n = len(ids)
    degrees = np.bincount(u, minlength=n) + np.bincount(v[u != v], minlength=n)
    view = GraphArrays(ids, colors, u, v, labels, degrees)
    for array in view:
        array.setflags(write=False)
    return view


def _ints(values, count: int) -> np.ndarray:
    """int64 array of a re-iterable collection of ints; object dtype past 64 bits."""
    try:
        return np.fromiter(values, dtype=np.int64, count=count)
    except OverflowError:
        return np.fromiter(values, dtype=object, count=count)


# -- validation ---------------------------------------------------------------


def validate(g: LabeledGraph) -> list[str]:
    """Report every violation of the ternary-graph contract (empty = ok).

    Checks: non-empty, no loops, all degrees <= 3, connectivity, and no
    reserved negative colors or labels.  Edge problems come
    in edge insertion order, then node problems in id order.
    """
    if g.n_nodes == 0:
        return ["graph has no nodes"]
    a = g.arrays
    problems = []
    loop = a.u == a.v
    reserved = a.labels < 0
    for j in np.flatnonzero(loop | reserved).tolist():
        u, v = a.ids[a.u[j]], a.ids[a.v[j]]
        if loop[j]:
            problems.append(f"loop at node {u}")
        if reserved[j]:
            problems.append(f"edge ({u},{v}) uses reserved label {a.labels[j]}")
    reserved = a.colors < 0
    for i in np.flatnonzero(reserved | (a.degrees > 3)).tolist():
        if reserved[i]:
            problems.append(f"node {a.ids[i]} uses reserved color {a.colors[i]}")
        if a.degrees[i] > 3:
            problems.append(f"node {a.ids[i]} has degree {a.degrees[i]} > 3")
    missing = g.n_nodes - np.count_nonzero(_join(np.arange(g.n_nodes), a.u, a.v) == 0)
    if missing:
        problems.append(f"graph is disconnected ({missing} unreachable nodes)")
    return problems


def require_valid(g: LabeledGraph, what: str = "graph") -> None:
    problems = validate(g)
    if problems:
        raise GraphError(f"invalid {what}: " + "; ".join(problems))


# -- text format ---------------------------------------------------------------
#
#   # comment
#   node <id> [<color>]
#   edge <id> <id> [<label>]
#
# One directive per line.  Ids, colors and labels are non-negative integers
# in ASCII decimal digits, of any length, leading zeros allowed; no sign.
# Lines are those of `str.splitlines`: they end at \n, \r\n, \r, \v, \f,
# \x1c-\x1e, \x85, \u2028 or \u2029.  A '#' comments out the rest of its
# line, also right after a field (`node 1#x`).  Fields are separated by any
# run of `str.split` whitespace, tabs and Unicode spaces included, and lines
# that hold only whitespace or a comment are skipped.  A node is declared
# once, before any edge that names it; an edge is given once, in either
# orientation.  Faults are reported for the first bad line, with its number.

# Every other line break, and every other `str.split` whitespace character,
# as `str.translate` maps them once \r\n is \n.
_BLANKS = str.maketrans(
    dict.fromkeys("\v\f\r\x1c\x1d\x1e\x85\u2028\u2029", "\n")
    | dict.fromkeys("\t\x1f\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
                    "\u2008\u2009\u200a\u202f\u205f\u3000", " ")
)
_COMMENT = re.compile("#[^\n]*")
# The grammar of a text once every break is '\n', every line ends in one,
# comments are cut and every other whitespace character is a space.  The
# quantifiers are possessive (Python 3.11): a greedy match would keep a
# backtracking entry per line, about 0.7 KB a line, for nothing, since
# spaces, digits and directives are disjoint.
_LINES = re.compile(r"(?: *+(?:node(?: ++[0-9]++){1,2}+ *+|edge(?: ++[0-9]++){2,3}+ *+|)\n)*+")
# `np.fromstring` saturates at this value: a field that reads it is read again exactly.
_INT64_MAX = np.iinfo(np.int64).max


def parse_graph_text(text: str) -> LabeledGraph:
    """Read the text format (above) into a graph that holds only its array view.

    The text is normalised by three C-level passes that keep the lines of
    `str.splitlines` and the fields of `str.split`, and one regex match
    checks the grammar of every line.  `_scan` then reads every number at
    once and checks declarations and duplicates on the arrays.  A fault
    raises GraphFormatError for the first bad line, with its number.
    """
    plain = _COMMENT.sub("", text.replace("\r\n", "\n").translate(_BLANKS)) + "\n"
    end = _LINES.match(plain).end()
    view = _scan(plain[:end])
    if end < len(plain):
        line = plain.count("\n", 0, end) + 1
        raise GraphFormatError(_line_fault(text.splitlines()[line - 1]), line)
    if view is None:
        raise GraphFormatError("no nodes declared", 1)
    return LabeledGraph._of(view)


def _scan(body: str) -> "GraphArrays | None":
    """The view of a text whose every line passed the grammar; None if it has no lines.

    The directives become the markers -1 (node) and -2 (edge), and a
    marker -3 closes the text, so one `np.fromstring` reads it as records:
    a marker and its fields.  Where a record has no optional last field,
    the next marker stands in its place and, being negative, reads as 0.
    Fields past 2^63 - 1, which `np.fromstring` saturates, are read again
    as exact ints.  The first record that declares a node again, repeats an
    edge in either orientation, or names a node not declared by an earlier
    record raises GraphFormatError with the line of that record.
    """
    marked = body.replace("node", "-1").replace("edge", "-2") + " -3"
    vals = np.fromstring(marked, dtype=np.int64, sep=" ")
    if (vals == _INT64_MAX).any():
        vals = np.array([int(t) for t in marked.split()], dtype=object)
    starts = np.flatnonzero(vals < 0)[:-1]
    node = vals[starts] == -1
    record = np.arange(len(starts))
    at = starts[node]
    ids, colors = vals[at + 1], np.maximum(vals[at + 2], 0)
    at = starts[~node]
    ends = np.stack([vals[at + 1], vals[at + 2]])
    labels = np.maximum(vals[at + 3], 0)
    edge_record, n = record[~node], len(ids)
    if not n:  # no nodes at all: the first record, if any, is an edge
        if len(starts):
            raise _fault(body, 0, f"edge references undeclared node {ends[0, 0]}")
        return None
    by_id = np.argsort(ids, kind="stable")
    ids, declared = ids[by_id], record[node][by_id]
    pos = np.searchsorted(ids, ends).clip(max=n - 1)
    named = ids[pos] == ends
    known = named & (declared[pos] < edge_record)
    u, v = np.minimum(*pos), np.maximum(*pos)
    key = np.where(named.all(axis=0), u * n + v, -1 - np.arange(len(u)))
    order = np.argsort(key, kind="stable")
    again = order[1:][key[order[1:]] == key[order[:-1]]]
    repeated = np.flatnonzero(ids[1:] == ids[:-1]) + 1
    bad = np.concatenate([declared[repeated], edge_record[again], edge_record[~known.all(axis=0)]])
    if not len(bad):
        return _view(ids, colors[by_id], u, v, labels)
    first = int(bad.min())
    if node[first]:
        raise _fault(body, first, f"duplicate node {vals[starts[first] + 1]}")
    j = first - int(np.count_nonzero(node[:first]))
    a, b = ends[:, j].tolist()
    if j in again:
        raise _fault(body, first, f"duplicate edge {a} {b}")
    raise _fault(body, first, f"edge references undeclared node {a if not known[0, j] else b}")


def _fault(body: str, record: int, message: str) -> GraphFormatError:
    """The error for a record, counted over the non-blank lines of `body` from 0."""
    nonblank = [i for i, line in enumerate(body.split("\n"), 1) if line.strip()]
    return GraphFormatError(message, nonblank[record])


def _line_fault(line: str) -> str:
    """The message for a line that fails the grammar, read from its own text."""
    raw = line.split("#", 1)[0]
    parts = raw.split()
    kind, fields = parts[0], "".join(parts[1:])
    if fields and not (fields.isascii() and fields.isdigit()):
        return f"non-numeric field in {raw.strip()!r}"
    if kind == "node":
        return "node takes <id> [<color>]"
    if kind == "edge":
        return "edge takes <id> <id> [<label>]"
    return f"unknown directive {kind!r}"


def format_graph_text(g: LabeledGraph) -> str:
    """Canonical text form: sorted nodes, then sorted edges.

    Reserved negative values (internal constructions) raise GraphError: the
    text format cannot hold them.
    """
    out = []
    for v in g.node_ids:
        c = g.color(v)
        if c < 0:
            raise GraphError(f"node {v} carries reserved color {c}")
        out.append(f"node {v} {c}" if c else f"node {v}")
    for u, v in g.sorted_edges():
        lab = g.label(u, v)
        if lab < 0:
            raise GraphError(f"edge ({u},{v}) carries reserved label {lab}")
        out.append(f"edge {u} {v} {lab}" if lab else f"edge {u} {v}")
    return "\n".join(out) + "\n"


# -- the splice construction ---------------------------------------------------


def build_x(a1: GraphArrays, a2: GraphArrays, e1, e2) -> GraphArrays:
    """Split edge e1 of the first view and e2 of the second, and join the splits.

    e1 and e2 are edges of their views as pairs of node indices.  The result
    is the joined graph's view, whose ids are its indices 0..n1+n2+1: the
    first graph keeps 0..n1-1, the fresh split nodes are v1 = n1 and v2 =
    n1+1, and the second graph is shifted to n1+2..n1+n2+1.  Each split edge
    {a,b} becomes a-v and v-b, v its split node, carrying the original edge
    label; the joining edge {v1,v2} is unlabeled.  The original degrees are
    preserved and v1, v2 get degree 3, so the result is again ternary.  The
    edges are the kept edges of both graphs, then the four stubs and the
    join, each row with u <= v as in every view: the tower's cross-edge keys
    rely on it.  A pair that is not an edge of its view raises GraphError.
    """
    n1, shift = len(a1.ids), len(a1.ids) + 2
    (x1, y1), (x2, y2) = _norm_edge(*e1), _norm_edge(*e2)
    cut1, cut2 = (a1.u == x1) & (a1.v == y1), (a2.u == x2) & (a2.v == y2)
    if not (cut1.any() and cut2.any()):
        raise GraphError("a split edge is not present in its graph")
    # The stubs a-v1, b-v1, v2-a', v2-b', then the join v1-v2.
    stub_u, stub_v = [x1, y1, n1 + 1, n1 + 1, n1], [n1, n1, x2 + shift, y2 + shift, n1 + 1]
    stub_labels = [a1.labels[cut1].repeat(2), a2.labels[cut2].repeat(2), [0]]
    return _view(
        np.arange(shift + len(a2.ids)),
        np.concatenate([a1.colors, [0, 0], a2.colors]),
        np.concatenate([a1.u[~cut1], a2.u[~cut2] + shift, stub_u]),
        np.concatenate([a1.v[~cut1], a2.v[~cut2] + shift, stub_v]),
        np.concatenate([a1.labels[~cut1], a2.labels[~cut2], *stub_labels]),
    )


# -- isomorphism verification ---------------------------------------------------


def is_graph_isomorphism(
    g1: LabeledGraph, g2: LabeledGraph, mapping: Mapping[int, int]
) -> bool:
    """Check that `mapping` is a color- and label-preserving isomorphism.

    Reads the array views only.  The keys must be the first graph's ids and
    the values the second's, each exactly once, as ints; every node keeps
    its color; and the first graph's labeled edges map onto exactly the
    second's (`_maps_edges`).
    """
    a1, a2 = g1.arrays, g2.arrays
    n = len(a1.ids)
    if not len(mapping) == len(a2.ids) == n:
        return False
    keys, values = _exact_ints(mapping.keys(), n), _exact_ints(mapping.values(), n)
    if keys is None or values is None:
        return False
    by_key = np.argsort(keys, kind="stable")
    image = values[by_key]
    if not (np.array_equal(keys[by_key], a1.ids) and np.array_equal(np.sort(image), a2.ids)):
        return False
    p = np.searchsorted(a2.ids, image)
    return bool((a2.colors[p] == a1.colors).all() and _maps_edges(p[None], a1, a2)[0])


# Cells of the (row, edge) code table that one block of `_maps_edges` fills.
_EDGE_CHECK_CELLS = 1 << 16


def _maps_edges(rows: np.ndarray, a1: GraphArrays, a2: GraphArrays) -> np.ndarray:
    """Whether each row carries the labeled edges of `a1` onto exactly those of `a2`.

    Row i sends node j of `a1` to node `rows[i, j]` of `a2`, by index.  An
    edge is coded as one int from its sorted endpoints and its label's rank
    among both views' labels, so labels of any size compare as ints; a row
    maps the edges when the sorted codes of the images equal `a2`'s.  When
    `a1` is `a2`, as in an automorphism check, its labels are ranked once.
    Rows are checked in blocks of at most `_EDGE_CHECK_CELLS` (row, edge)
    cells, so the int64 codes of a block, not of all rows, bound the
    memory; a single row is always one block.  Node colors and bijectivity
    are the caller's to check.
    """
    if len(a1.u) != len(a2.u):
        return np.zeros(len(rows), dtype=bool)
    same = a1 is a2
    palette = _sorted_distinct(a2.labels if same else np.concatenate([a1.labels, a2.labels]))
    n, labels = len(a2.ids), len(palette)
    rank2 = np.searchsorted(palette, a2.labels)
    rank1 = rank2 if same else np.searchsorted(palette, a1.labels)

    def codes(x, y, rank):
        return (np.minimum(x, y) * n + np.maximum(x, y)) * labels + rank

    want = np.sort(codes(a2.u, a2.v, rank2))
    out = np.empty(len(rows), dtype=bool)
    for at in _row_blocks(rows, len(want)):
        x, y = (rows[at].take(ends, axis=1).astype(np.int64, copy=False) for ends in (a1.u, a1.v))
        out[at] = (np.sort(codes(x, y, rank1), axis=1) == want).all(axis=1)
    return out


def _row_blocks(rows: np.ndarray, width: int):
    """Slices of `rows` that fill at most `_EDGE_CHECK_CELLS` cells of `width` a row.

    Every block holds one row at least.
    """
    step = max(1, _EDGE_CHECK_CELLS // max(1, width))
    return (slice(first, first + step) for first in range(0, len(rows), step))


def _exact_ints(values, count: int) -> np.ndarray | None:
    """`_ints` of a collection that holds only ints, else None."""
    try:
        out = _ints(values, count)
    except (TypeError, ValueError):
        return None
    return out if out.tolist() == list(values) else None
