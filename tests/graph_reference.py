"""The graph checks written out over dicts, the references for the array view.

`reference_validate` walks the edge dict, the node ids and the adjacency
lists, with a depth-first search for connectivity.
`reference_profile_tables` builds the layer-profile tables node by node,
with per-node sorted slot lists and dict ranks of colors, labels and
(color, label sequence) kinds.  Both read only the dict accessors of
`LabeledGraph`.
"""

import numpy as np


def reference_validate(g, allow_reserved: bool = False) -> list[str]:
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
