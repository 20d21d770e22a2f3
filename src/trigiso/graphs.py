"""Node-colored, edge-labeled undirected graphs of maximum degree three.

Node ids are non-negative integers (not necessarily contiguous); colors and
edge labels are small integers, with 0 meaning "uncolored"/"unlabeled".
Negative colors and labels are reserved for internal constructions (the
triangle gadget, arc-direction midpoints of the phylogenetic reduction):
`validate` rejects them in user input, and the text format never parses them.

A graph is stored as two dicts, node id -> color and sorted endpoint pair
-> label.  The whole-graph passes (`validate`, the pretests, the choice of
candidate edges, the layer-profile tables and the layer tower) read one
array view instead, `LabeledGraph.arrays`: the node ids in increasing order,
their colors, every edge as a pair of dense indices into those ids with its
label (edges in insertion order), and the node degrees.  The view is built
from the dicts on first use and cached; a graph is never changed after
construction, so it never goes stale.  The arrays are shared by every caller
and read-only: a pass that needs to modify one works on a copy.  Ids, colors
or labels beyond 64 bits are held with object dtype.
The splice (`build_x`) joins two views into a third by concatenation, so a
decision builds no graph beyond its inputs.  `validate` is strict, and only
the public entry points call it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .perm import _join

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
        self._edges: dict[tuple[int, int], int] = {}
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
    def _of(
        cls,
        colors: dict[int, int],
        edges: dict[tuple[int, int], int],
        arrays: "GraphArrays | None" = None,
    ) -> "LabeledGraph":
        """Adopt already converted dicts, and their array view if it is given.

        Colors are ints; edges map sorted int pairs to int labels.
        """
        g = object.__new__(cls)
        g._colors, g._edges, g._adj, g._arrays = colors, edges, None, arrays
        return g

    # -- accessors ----------------------------------------------------------

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._colors)

    @property
    def n_nodes(self) -> int:
        return len(self._colors)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def color(self, v: int) -> int:
        return self._colors[v]

    def colors(self) -> dict[int, int]:
        return dict(self._colors)

    def edges(self) -> dict[tuple[int, int], int]:
        return dict(self._edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self._edges

    def label(self, u: int, v: int) -> int:
        return self._edges[_norm_edge(u, v)]

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """Node -> sorted list of (neighbor, edge label)."""
        if self._adj is None:
            adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self._colors}
            for (u, v), lab in self._edges.items():
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
        nodes = {mapping[v]: c for v, c in self._colors.items()}
        edges = {_norm_edge(mapping[u], mapping[v]): lab for (u, v), lab in self._edges.items()}
        return LabeledGraph(nodes, edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._colors == other._colors and self._edges == other._edges

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
    degrees = np.bincount(u, minlength=n) + np.bincount(v[u != v], minlength=n)
    return _frozen(GraphArrays(
        ids=ids,
        colors=_ints(colors.values(), n)[by_id],
        u=u,
        v=v,
        labels=_ints(edges.values(), m),
        degrees=degrees,
    ))


def _frozen(view: GraphArrays) -> GraphArrays:
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
# ids, colors and labels are non-negative integers in ASCII decimal;
# duplicate edges are rejected.


def parse_graph_text(text: str) -> LabeledGraph:
    nodes: dict[int, int] = {}
    edges: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        parts = raw.split()
        if not parts:
            continue
        kind, arity = parts[0], len(parts) - 1
        fields = "".join(parts[1:])
        if fields and not (fields.isascii() and fields.isdigit()):
            raise GraphFormatError(f"non-numeric field in {raw.strip()!r}", lineno)
        if kind == "node":
            if arity not in (1, 2):
                raise GraphFormatError("node takes <id> [<color>]", lineno)
            v = int(parts[1])
            if v in nodes:
                raise GraphFormatError(f"duplicate node {v}", lineno)
            nodes[v] = int(parts[2]) if arity == 2 else 0
        elif kind == "edge":
            if arity not in (2, 3):
                raise GraphFormatError("edge takes <id> <id> [<label>]", lineno)
            u, v = int(parts[1]), int(parts[2])
            key = _norm_edge(u, v)
            if key in edges:
                raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
            if u not in nodes:
                raise GraphFormatError(f"edge references undeclared node {u}", lineno)
            if v not in nodes:
                raise GraphFormatError(f"edge references undeclared node {v}", lineno)
            edges[key] = int(parts[3]) if arity == 3 else 0
        else:
            raise GraphFormatError(f"unknown directive {kind!r}", lineno)
    if not nodes:
        raise GraphFormatError("no nodes declared", 1)
    return LabeledGraph._of(nodes, edges)


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
    return _frozen(GraphArrays(
        ids=np.arange(shift + len(a2.ids)),
        colors=np.concatenate([a1.colors, [0, 0], a2.colors]),
        u=np.concatenate([a1.u[~cut1], a2.u[~cut2] + shift, stub_u]),
        v=np.concatenate([a1.v[~cut1], a2.v[~cut2] + shift, stub_v]),
        labels=np.concatenate([a1.labels[~cut1], a2.labels[~cut2], *stub_labels]),
        degrees=np.concatenate([a1.degrees, [3, 3], a2.degrees]),
    ))


# -- isomorphism verification ---------------------------------------------------


def is_graph_isomorphism(
    g1: LabeledGraph, g2: LabeledGraph, mapping: Mapping[int, int]
) -> bool:
    """Check that `mapping` is a color- and label-preserving isomorphism."""
    if set(mapping.keys()) != set(g1.node_ids):
        return False
    if sorted(mapping.values()) != g2.node_ids:
        return False
    for v in g1.node_ids:
        if g1.color(v) != g2.color(mapping[v]):
            return False
    if g1.n_edges != g2.n_edges:
        return False
    for (u, v), lab in g1.edges().items():
        mu, mv = mapping[u], mapping[v]
        if not g2.has_edge(mu, mv) or g2.label(mu, mv) != lab:
            return False
    return True
