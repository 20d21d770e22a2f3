"""The phylo input path written out character by character and over dicts.

`reference_parse_enewick` is a recursive-descent eNewick parser that reads
one character at a time, with an explicit stack of open groups; its nodes
are numbered in occurrence order and the two occurrences of a hybrid tag
merge into the first.  `reference_validate_network` checks the network
contract with the per-node accessors of `PhyloNetwork`.  `reference_reduction`
builds the colored reduction of one or two networks as dicts, node by node
and arc by arc, and turns them into an array view with `_graph_arrays`;
`reference_is_network_isomorphism` checks a mapping over sets of arcs.
These are the references for the array-native code in `trigiso.phylo`.
"""

from trigiso.graphs import (
    ARC_IN_LABEL,
    ARC_OUT_LABEL,
    MIDPOINT_COLOR,
    ROOT_JOIN_LABEL,
    _graph_arrays,
)
from trigiso.phylo import NetworkError, NewickError, PhyloNetwork


def reference_validate_network(net) -> list[str]:
    """`validate_network` written out with the per-node accessors."""
    problems = []
    if net.n_nodes == 0:
        return ["network has no nodes"]
    roots = [v for v in net.nodes if net.in_degree(v) == 0]
    if len(roots) != 1:
        problems.append(f"expected exactly one root, found {len(roots)}")
    for v in net.nodes:
        if net.kind(v) == "invalid":
            problems.append(f"node {v} has degree pair ({net.in_degree(v)},{net.out_degree(v)})")
        if net.out_degree(v) == 0 and net.in_degree(v) > 0 and net.label(v) is None:
            problems.append(f"leaf {v} is unlabeled")
    indeg = {v: net.in_degree(v) for v in net.nodes}
    queue = [v for v in net.nodes if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in net.children(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != net.n_nodes:
        problems.append("network contains a directed cycle")
    return problems


class _Occurrence:
    __slots__ = ("node_id", "name", "tag", "children")

    def __init__(self, node_id):
        self.node_id = node_id
        self.name = None
        self.tag = None
        self.children = []


class _Parser:
    _SPECIALS = set("(),:;#'\t\r\n ")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.occurrences = []

    def error(self, message: str):
        upto = self.text[: self.pos]
        line = upto.count("\n") + 1
        column = self.pos - (upto.rfind("\n") + 1) + 1
        raise NewickError(message, line, column)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> PhyloNetwork:
        self.skip_ws()
        root = self.parse_subtree()
        self.skip_ws()
        if self.peek() != ";":
            self.error("expected ';' at end of network")
        self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing characters after ';'")
        return self.build(root)

    def parse_subtree(self) -> int:
        open_groups = []
        while True:
            occ = _Occurrence(len(self.occurrences))
            self.occurrences.append(occ)
            self.skip_ws()
            if self.peek() == "(":
                self.pos += 1
                open_groups.append(occ)
                continue
            self.parse_suffix(occ)
            while True:
                if not open_groups:
                    return occ.node_id
                group = open_groups[-1]
                group.children.append(occ.node_id)
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    break
                self.expect(")")
                open_groups.pop()
                self.parse_suffix(group)
                occ = group

    def parse_suffix(self, occ):
        self.skip_ws()
        if self.peek() == "'" or (self.peek() and self.peek() not in self._SPECIALS):
            occ.name = self.parse_name()
        if self.peek() == "#":
            occ.tag = self.parse_tag()
        if self.peek() == ":":
            self.pos += 1
            self.parse_number()
        if occ.name is None and occ.tag is None and not occ.children:
            self.error("empty node: expected a label, a group, or a hybrid tag")

    def parse_name(self) -> str:
        if self.peek() == "'":
            self.pos += 1
            out = []
            while True:
                if self.pos >= len(self.text):
                    self.error("unterminated quoted label")
                ch = self.text[self.pos]
                if ch == "'":
                    if self.text[self.pos : self.pos + 2] == "''":
                        out.append("'")
                        self.pos += 2
                        continue
                    self.pos += 1
                    break
                out.append(ch)
                self.pos += 1
            return "".join(out)
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in self._SPECIALS:
            self.pos += 1
        return self.text[start : self.pos]

    def parse_tag(self) -> str:
        self.expect("#")
        if self.peek() != "H":
            self.error("only hybrid tags of the form #H<number> are supported")
        self.pos += 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("hybrid tag is missing its number")
        return "H" + self.text[start : self.pos]

    def parse_number(self):
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in ".+-eE"
        ):
            self.pos += 1
        try:
            float(self.text[start : self.pos])
        except ValueError:
            self.error("malformed branch length")

    def build(self, root_id: int) -> PhyloNetwork:
        by_tag = {}
        for occ in self.occurrences:
            if occ.tag is not None:
                by_tag.setdefault(occ.tag, []).append(occ)
        merged = {}
        for tag, occs in sorted(by_tag.items()):
            if len(occs) != 2:
                self.error(f"hybrid tag #{tag} appears {len(occs)} times, expected 2")
            names = {o.name for o in occs if o.name is not None}
            if len(names) > 1:
                self.error(f"hybrid tag #{tag} carries conflicting labels")
            keep, drop = occs[0], occs[1]
            merged[drop.node_id] = keep.node_id
            keep.children = keep.children + drop.children
            if keep.name is None and drop.name is not None:
                keep.name = drop.name

        def resolve(i: int) -> int:
            return merged.get(i, i)

        arcs = []
        labels = {}
        for occ in self.occurrences:
            if occ.node_id in merged:
                continue
            if occ.name is not None:
                labels[occ.node_id] = occ.name
            for c in occ.children:
                arcs.append((occ.node_id, resolve(c)))
        net = PhyloNetwork(arcs, labels, nodes=[resolve(root_id)])
        problems = reference_validate_network(net)
        if problems:
            raise NetworkError("parsed network is not fully resolved: " + "; ".join(problems))
        return net


def reference_parse_enewick(text: str) -> PhyloNetwork:
    return _Parser(text).parse()


def _append_reduction(net, intern: dict, colors: dict, edges: dict) -> int:
    """Add the network's reduction to `colors` and `edges`; return its root's id.

    The network's nodes in sorted order take the next ids, then one midpoint
    per arc in sorted arc order.
    """
    base = len(colors)
    index = {v: base + i for i, v in enumerate(net.nodes)}
    for v in net.nodes:
        lab = net.label(v)
        colors[index[v]] = 0 if lab is None else intern.setdefault(lab, len(intern) + 1)
    for mid, (u, v) in enumerate(sorted(net.arcs), start=base + net.n_nodes):
        colors[mid] = MIDPOINT_COLOR
        edges[(index[u], mid)] = ARC_OUT_LABEL
        edges[(index[v], mid)] = ARC_IN_LABEL
    return index[net.root]


def reference_reduction(nets, intern=None):
    """The dict reduction of one network, or of two joined root to root.

    Returns the colors and edges dicts, their array view and the roots' ids.
    """
    intern = {} if intern is None else intern
    colors, edges = {}, {}
    roots = [_append_reduction(net, intern, colors, edges) for net in nets]
    if len(roots) == 2:
        edges[tuple(roots)] = ROOT_JOIN_LABEL
    return colors, edges, _graph_arrays(colors, edges), roots


def reference_is_network_isomorphism(n1, n2, mapping) -> bool:
    if set(mapping.keys()) != set(n1.nodes):
        return False
    if sorted(mapping.values()) != sorted(n2.nodes):
        return False
    if n1.n_arcs != n2.n_arcs:
        return False
    for u, v in n1.arcs:
        if (mapping[u], mapping[v]) not in n2.arcs:
            return False
    for v in n1.nodes:
        if n1.label(v) != n2.label(mapping[v]):
            return False
    return True
