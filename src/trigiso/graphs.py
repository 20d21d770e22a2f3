"""Node-colored, edge-labeled undirected graphs of maximum degree three.

Node ids are non-negative integers (not necessarily contiguous); colors and
edge labels are small integers, with 0 meaning "uncolored"/"unlabeled".
Negative colors and labels are reserved for internal constructions (the
triangle gadget, arc-direction midpoints of the phylogenetic reduction):
`validate` rejects them in user input, and the text format never parses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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

    __slots__ = ("_colors", "_edges", "_adj")

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

    def has_node(self, v: int) -> bool:
        return v in self._colors

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

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def degree_sequence(self) -> list[int]:
        return sorted(len(nbrs) for nbrs in self.adjacency().values())

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


# -- validation ---------------------------------------------------------------


def validate(g: LabeledGraph, allow_reserved: bool = False) -> list[str]:
    """Report every violation of the ternary-graph contract (empty = ok).

    Checks: non-empty, no loops, all degrees <= 3, connectivity, and (for
    user input) no reserved negative colors or labels.
    """
    problems = []
    if g.n_nodes == 0:
        return ["graph has no nodes"]
    for (u, v), lab in g.edges().items():
        if u == v:
            problems.append(f"loop at node {u}")
        if lab < 0 and not allow_reserved:
            problems.append(f"edge ({u},{v}) uses reserved label {lab}")
    ids = g.node_ids
    adj = g.adjacency()
    for v in ids:
        if g.color(v) < 0 and not allow_reserved:
            problems.append(f"node {v} uses reserved color {g.color(v)}")
        if len(adj[v]) > 3:
            problems.append(f"node {v} has degree {len(adj[v])} > 3")
    if len(ids) > 1:
        seen = set()
        start = ids[0]
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y, _ in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(ids):
            missing = sorted(set(ids) - seen)
            problems.append(f"graph is disconnected ({len(missing)} unreachable nodes)")
    return problems


def require_valid(g: LabeledGraph, what: str = "graph", allow_reserved: bool = False) -> None:
    problems = validate(g, allow_reserved=allow_reserved)
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
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        fields = "".join(args)
        if fields and not (fields.isascii() and fields.isdigit()):
            raise GraphFormatError(f"non-numeric field in {line!r}", lineno)
        if kind == "node":
            if len(args) not in (1, 2):
                raise GraphFormatError("node takes <id> [<color>]", lineno)
            v = int(args[0])
            if v in nodes:
                raise GraphFormatError(f"duplicate node {v}", lineno)
            nodes[v] = int(args[1]) if len(args) == 2 else 0
        elif kind == "edge":
            if len(args) not in (2, 3):
                raise GraphFormatError("edge takes <id> <id> [<label>]", lineno)
            u, v = int(args[0]), int(args[1])
            key = _norm_edge(u, v)
            if key in edges:
                raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
            for w in (u, v):
                if w not in nodes:
                    raise GraphFormatError(f"edge references undeclared node {w}", lineno)
            edges[key] = int(args[2]) if len(args) == 3 else 0
        else:
            raise GraphFormatError(f"unknown directive {kind!r}", lineno)
    if not nodes:
        raise GraphFormatError("no nodes declared", 1)
    return LabeledGraph(nodes, edges)


def format_graph_text(g: LabeledGraph, allow_reserved: bool = False) -> str:
    """Canonical text form: sorted nodes, then sorted edges.

    Graphs carrying reserved negative values (internal constructions) can be
    dumped for debugging with allow_reserved=True, but such dumps are not
    re-parseable.
    """
    out = []
    for v in g.node_ids:
        c = g.color(v)
        if c < 0 and not allow_reserved:
            raise GraphError(f"node {v} carries reserved color {c}")
        out.append(f"node {v} {c}" if c else f"node {v}")
    for u, v in g.sorted_edges():
        lab = g.label(u, v)
        if lab < 0 and not allow_reserved:
            raise GraphError(f"edge ({u},{v}) carries reserved label {lab}")
        out.append(f"edge {u} {v} {lab}" if lab else f"edge {u} {v}")
    return "\n".join(out) + "\n"


# -- the splice construction ---------------------------------------------------


@dataclass(frozen=True)
class Splice:
    """Result of joining two graphs through split edges.

    `graph` has dense node ids 0..n1+n2+1: the first graph occupies 0..n1-1,
    the two fresh split nodes are v1 = n1 and v2 = n1+1, and the second
    graph is shifted to n1+2..n1+n2+1.  `map1`/`map2` send original node ids
    into the combined graph.
    """

    graph: LabeledGraph
    e: tuple[int, int]
    v1: int
    v2: int
    map1: dict[int, int]
    map2: dict[int, int]


def build_x(
    g1: LabeledGraph,
    g2: LabeledGraph,
    e1: tuple[int, int],
    e2: tuple[int, int],
    validated: bool = False,
) -> Splice:
    """Split e1 in g1 and e2 in g2 with fresh nodes v1, v2 and join them.

    Each split edge {a,b} becomes a-v1 and v1-b carrying the original edge
    label; the joining edge {v1,v2} is unlabeled.  The original degrees are
    preserved and v1, v2 get degree 3, so the result is again ternary.
    Callers that already validated both inputs pass validated=True.
    """
    if not validated:
        require_valid(g1, "first graph")
        require_valid(g2, "second graph")
    e1 = _norm_edge(*e1)
    e2 = _norm_edge(*e2)
    if not g1.has_edge(*e1):
        raise GraphError(f"edge {e1} not present in first graph")
    if not g2.has_edge(*e2):
        raise GraphError(f"edge {e2} not present in second graph")

    n1 = g1.n_nodes
    map1 = {v: i for i, v in enumerate(g1.node_ids)}
    v1, v2 = n1, n1 + 1
    map2 = {v: n1 + 2 + i for i, v in enumerate(g2.node_ids)}

    nodes = {map1[v]: g1.color(v) for v in g1.node_ids}
    nodes[v1] = 0
    nodes[v2] = 0
    nodes.update({map2[v]: g2.color(v) for v in g2.node_ids})

    edges: dict[tuple[int, int], int] = {}
    for (u, v), lab in g1.edges().items():
        if (u, v) != e1:
            edges[_norm_edge(map1[u], map1[v])] = lab
    for (u, v), lab in g2.edges().items():
        if (u, v) != e2:
            edges[_norm_edge(map2[u], map2[v])] = lab
    lab1 = g1.label(*e1)
    lab2 = g2.label(*e2)
    edges[_norm_edge(map1[e1[0]], v1)] = lab1
    edges[_norm_edge(map1[e1[1]], v1)] = lab1
    edges[_norm_edge(map2[e2[0]], v2)] = lab2
    edges[_norm_edge(map2[e2[1]], v2)] = lab2
    edges[(v1, v2)] = 0

    graph = LabeledGraph(nodes, edges)
    return Splice(graph=graph, e=(v1, v2), v1=v1, v2=v2, map1=map1, map2=map2)


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
