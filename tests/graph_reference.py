"""The graph checks written out over dicts, the references for the array view.

`reference_parse_graph_text` reads the text format line by line into two
dicts, with the messages and lines that `parse_graph_text` must give, and
`reference_is_graph_isomorphism` checks a mapping over the dict accessors.
`reference_validate` walks the edge dict, the node ids and the adjacency
lists, with a depth-first search for connectivity.  `reference_splice` joins
two graphs through split edges node by node, over dicts keyed by ids;
`graph_of_view` turns an array view (a splice's, say) back into a graph, and
`record_graph_builds` counts the graphs a call constructs.
`reference_profile_tables` builds the layer-profile tables node by node,
with per-node sorted slot lists and dict ranks of colors, labels and
(color, label sequence) kinds.  The references read only the dict
accessors of `LabeledGraph`.
"""

from types import SimpleNamespace

import numpy as np

from trigiso.graphs import (
    GraphError, GraphFormatError, LabeledGraph, _norm_edge, require_valid
)


def reference_parse_graph_text(text: str) -> LabeledGraph:
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
    return LabeledGraph(nodes, edges)


def reference_is_graph_isomorphism(g1, g2, mapping) -> bool:
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


def reference_validate(g) -> list[str]:
    problems = []
    if g.n_nodes == 0:
        return ["graph has no nodes"]
    for (u, v), lab in g.edges().items():
        if u == v:
            problems.append(f"loop at node {u}")
        if lab < 0:
            problems.append(f"edge ({u},{v}) uses reserved label {lab}")
    ids = g.node_ids
    adj = g.adjacency()
    for v in ids:
        if g.color(v) < 0:
            problems.append(f"node {v} uses reserved color {g.color(v)}")
        if len(adj[v]) > 3:
            problems.append(f"node {v} has degree {len(adj[v])} > 3")
    if len(ids) > 1:
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            x = stack.pop()
            for y, _ in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(ids):
            problems.append(f"graph is disconnected ({len(ids) - len(seen)} unreachable nodes)")
    return problems


def reference_splice(g1, g2, e1, e2) -> SimpleNamespace:
    """Split e1 in g1 and e2 in g2 with fresh nodes v1, v2 and join them.

    The joined `graph` has dense node ids 0..n1+n2+1: the first graph
    occupies 0..n1-1, the split nodes are v1 = n1 and v2 = n1+1, and the
    second graph is shifted to n1+2..n1+n2+1.  `map1`/`map2` send original
    node ids into the joined graph, and `e` is the join edge (v1, v2).
    """
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
    return SimpleNamespace(graph=graph, e=(v1, v2), map1=map1, map2=map2)


def graph_of_view(view) -> LabeledGraph:
    """The graph of an array view, its edges in the view's order."""
    ids, labels = view.ids.tolist(), view.labels.tolist()
    ends = zip(view.u.tolist(), view.v.tolist())
    return LabeledGraph(
        dict(zip(ids, view.colors.tolist())),
        {(ids[u], ids[v]): lab for (u, v), lab in zip(ends, labels)},
    )


def record_graph_builds(monkeypatch) -> list:
    """Patch `LabeledGraph` so that every graph constructed is appended to the returned list."""
    built = []
    real_init, real_of = LabeledGraph.__init__, LabeledGraph._of.__func__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def of(cls, *args):
        built.append(cls)
        return real_of(cls, *args)

    monkeypatch.setattr(LabeledGraph, "__init__", init)
    monkeypatch.setattr(LabeledGraph, "_of", classmethod(of))
    return built


def _ranks(values) -> dict:
    return {x: i for i, x in enumerate(sorted(set(values)))}


def reference_profile_tables(g1, g2) -> list[tuple]:
    """(index dict, nbr, labels, base) of both graphs, as `_ProfileTables` holds them."""
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
        (index, slots[:, :, 1], slots[:, :, 0],
         np.array([base_rank[kind] for kind in kinds], dtype=np.int64))
        for index, slots, kinds in parts
    ]
