"""Fully resolved rooted phylogenetic networks.

A network is a rooted binary DAG: one root of in/out degree (0,2), leaves
(1,0), tree nodes (1,2) and reticulate nodes (2,1), with every leaf labeled
by a taxon (inner labels and repeated labels are tolerated and treated as
plain colors).  Two networks are isomorphic when a directed-graph
isomorphism maps root to root and preserves all labels.

The isomorphism test reduces each network to an undirected ternary graph:
every arc u->v is subdivided by a midpoint of a reserved color, with the two
halves carrying reserved "out" and "in" edge labels, so that arc direction
survives as local edge-label structure.  Joining the two reductions by an
edge between their roots reduces network isomorphism to a single edge-fixing
automorphism computation on the joined graph: the networks are isomorphic
exactly when some automorphism fixing the joining edge exchanges the roots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import IsoResult, _contract, _run_tower
from .graphs import (
    ARC_IN_LABEL,
    ARC_OUT_LABEL,
    MIDPOINT_COLOR,
    ROOT_JOIN_LABEL,
    LabeledGraph,
)
from .layers import layer_sequence


class NetworkError(ValueError):
    """Raised for malformed networks or eNewick input."""


class NewickError(NetworkError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PhyloNetwork:
    """A rooted directed network with node labels (taxa on the leaves)."""

    __slots__ = ("nodes", "arcs", "labels", "_children", "_parents")

    def __init__(
        self,
        arcs: Iterable[tuple[int, int]],
        labels: Mapping[int, str] | None = None,
        nodes: Iterable[int] = (),
    ):
        self.arcs = frozenset((int(u), int(v)) for u, v in arcs)
        node_set = {u for a in self.arcs for u in a} | set(nodes)
        self.labels = {
            int(v): str(s) for v, s in (labels or {}).items() if s is not None
        }
        node_set |= set(self.labels)
        self.nodes = tuple(sorted(node_set))
        children: dict[int, list[int]] = {v: [] for v in self.nodes}
        parents: dict[int, list[int]] = {v: [] for v in self.nodes}
        for u, v in sorted(self.arcs):
            children[u].append(v)
            parents[v].append(u)
        self._children = children
        self._parents = parents

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def children(self, v: int) -> list[int]:
        return self._children[v]

    def parents(self, v: int) -> list[int]:
        return self._parents[v]

    def in_degree(self, v: int) -> int:
        return len(self._parents[v])

    def out_degree(self, v: int) -> int:
        return len(self._children[v])

    def label(self, v: int) -> str | None:
        return self.labels.get(v)

    @property
    def roots(self) -> list[int]:
        return [v for v in self.nodes if self.in_degree(v) == 0]

    @property
    def root(self) -> int:
        roots = self.roots
        if len(roots) != 1:
            raise NetworkError(f"network has {len(roots)} roots")
        return roots[0]

    @property
    def leaves(self) -> list[int]:
        return [v for v in self.nodes if self.out_degree(v) == 0]

    def reticulations(self) -> list[int]:
        return [v for v in self.nodes if self.in_degree(v) == 2]

    def kind(self, v: int) -> str:
        pair = (self.in_degree(v), self.out_degree(v))
        return {(0, 2): "root", (1, 0): "leaf", (1, 2): "tree", (2, 1): "reticulate"}.get(
            pair, "invalid"
        )

    def relabeled_nodes(self, mapping: Mapping[int, int]) -> "PhyloNetwork":
        return PhyloNetwork(
            arcs=((mapping[u], mapping[v]) for u, v in self.arcs),
            labels={mapping[v]: s for v, s in self.labels.items()},
            nodes=(mapping[v] for v in self.nodes),
        )

    def __repr__(self) -> str:
        return f"PhyloNetwork(n={self.n_nodes}, arcs={self.n_arcs})"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_network(net: PhyloNetwork) -> list[str]:
    """Report all violations of the fully resolved rooted network contract."""
    problems = []
    if net.n_nodes == 0:
        return ["network has no nodes"]
    roots = net.roots
    if len(roots) != 1:
        problems.append(f"expected exactly one root, found {len(roots)}")
    for v in net.nodes:
        if net.kind(v) == "invalid":
            problems.append(
                f"node {v} has degree pair ({net.in_degree(v)},{net.out_degree(v)})"
            )
        if net.out_degree(v) == 0 and net.in_degree(v) > 0 and net.label(v) is None:
            problems.append(f"leaf {v} is unlabeled")
    # cycle check (Kahn)
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


def require_valid_network(net: PhyloNetwork, what: str = "network") -> None:
    problems = validate_network(net)
    if problems:
        raise NetworkError(f"invalid {what}: " + "; ".join(problems))


def is_network_isomorphism(
    n1: PhyloNetwork, n2: PhyloNetwork, mapping: Mapping[int, int]
) -> bool:
    """Check a node bijection for arc direction and label preservation."""
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


# ---------------------------------------------------------------------------
# Reduction to a colored ternary graph
# ---------------------------------------------------------------------------


def reduce_to_colored(
    net: PhyloNetwork, intern: dict[str, int] | None = None
) -> tuple[LabeledGraph, int]:
    """Encode the network as an undirected colored graph, plus its root's id.

    Nodes keep interned taxon colors (equal strings get equal colors across
    every network sharing the `intern` table); each arc becomes a reserved-
    color midpoint whose two edges carry the reserved out/in labels.  The
    result has |V| + |arcs| nodes and maximum degree 3, and two networks are
    isomorphic exactly when their reductions admit a color- and label-
    preserving isomorphism matching the roots.
    """
    require_valid_network(net)
    if intern is None:
        intern = {}
    index = {v: i for i, v in enumerate(net.nodes)}
    colors: dict[int, int] = {}
    for v in net.nodes:
        lab = net.label(v)
        if lab is None:
            colors[index[v]] = 0
        else:
            colors[index[v]] = intern.setdefault(lab, len(intern) + 1)
    edges: dict[tuple[int, int], int] = {}
    mid = net.n_nodes
    for u, v in sorted(net.arcs):
        colors[mid] = MIDPOINT_COLOR
        a, b = index[u], index[v]
        edges[(min(a, mid), max(a, mid))] = ARC_OUT_LABEL
        edges[(min(b, mid), max(b, mid))] = ARC_IN_LABEL
        mid += 1
    return LabeledGraph(colors, edges), index[net.root]


def _class_counts(net: PhyloNetwork) -> tuple[int, int, int]:
    kinds = [net.kind(v) for v in net.nodes]
    return kinds.count("leaf"), kinds.count("tree"), kinds.count("reticulate")


def phylo_isomorphic(
    n1: PhyloNetwork,
    n2: PhyloNetwork,
    want_mapping: bool = False,
) -> IsoResult:
    """Isomorphism of rooted binary networks, as directed labeled graphs.

    The two reductions are joined by a root-to-root edge and the pipeline
    runs once, restricted to the coset of part-exchanging candidates; the
    networks are isomorphic exactly when that coset survives to the last
    layer.  A requested mapping is re-verified before being returned.
    """
    require_valid_network(n1, "first network")
    require_valid_network(n2, "second network")
    if (
        n1.n_nodes != n2.n_nodes
        or n1.n_arcs != n2.n_arcs
        or _class_counts(n1) != _class_counts(n2)
        or sorted(n1.labels.values()) != sorted(n2.labels.values())
        or sorted(n1.label(v) for v in n1.leaves) != sorted(n2.label(v) for v in n2.leaves)
    ):
        return IsoResult(False)

    intern: dict[str, int] = {}
    g1, r1 = reduce_to_colored(n1, intern)
    g2, r2 = reduce_to_colored(n2, intern)
    shift = g1.n_nodes
    nodes = g1.colors()
    nodes.update({v + shift: c for v, c in g2.colors().items()})
    edges = g1.edges()
    edges.update({(u + shift, v + shift): lab for (u, v), lab in g2.edges().items()})
    e = (min(r1, r2 + shift), max(r1, r2 + shift))
    edges[e] = ROOT_JOIN_LABEL
    joined = LabeledGraph(nodes, edges)

    dec = layer_sequence(joined, e, validated=True)
    result = _run_tower(dec, swap=True)
    if result is None:
        return IsoResult(False)
    if not want_mapping:
        return IsoResult(True)

    _, rep = result
    witness = _contract(dec, rep[None])[0]
    index1 = {v: i for i, v in enumerate(n1.nodes)}
    inv2 = {i + shift: v for i, v in enumerate(n2.nodes)}
    mapping = {v: inv2[witness(index1[v])] for v in n1.nodes}
    if not is_network_isomorphism(n1, n2, mapping):
        raise AssertionError("internal error: witness failed network verification")
    return IsoResult(True, mapping)


# ---------------------------------------------------------------------------
# eNewick
# ---------------------------------------------------------------------------


class _Occurrence:
    __slots__ = ("node_id", "name", "tag", "children")

    def __init__(self, node_id):
        self.node_id = node_id
        self.name: str | None = None
        self.tag: str | None = None
        self.children: list[int] = []


class _Parser:
    """Parser for the eNewick subset used here.

    Supported: nested parenthesized groups, unquoted and single-quoted
    labels, branch lengths (accepted, discarded), and hybrid tags #H<k>
    whose two occurrences merge into one reticulate node.
    """

    _SPECIALS = set("(),:;#'\t\r\n ")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.occurrences: list[_Occurrence] = []

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

    def parse(self) -> "PhyloNetwork":
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
        """Parse one subtree; open groups wait on a stack, so depth is unbounded."""
        open_groups: list[_Occurrence] = []
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

    def parse_suffix(self, occ: _Occurrence):
        """Label, hybrid tag and branch length after a leaf or a closed group."""
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

    def build(self, root_id: int) -> "PhyloNetwork":
        by_tag: dict[str, list[_Occurrence]] = {}
        for occ in self.occurrences:
            if occ.tag is not None:
                by_tag.setdefault(occ.tag, []).append(occ)
        merged: dict[int, int] = {}
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
        problems = validate_network(net)
        if problems:
            raise NetworkError(
                "parsed network is not fully resolved: " + "; ".join(problems)
            )
        return net


def parse_enewick(text: str) -> PhyloNetwork:
    """Parse an eNewick description into a validated network."""
    return _Parser(text).parse()


def _quote_label(label: str) -> str:
    if label and all(c not in _Parser._SPECIALS for c in label):
        return label
    return "'" + label.replace("'", "''") + "'"


def write_enewick(net: PhyloNetwork) -> str:
    """Serialize a valid network; reticulations become paired #H tags.

    Each reticulate node prints its subtree under its smallest parent and a
    bare tag stub under the other; children are ordered by node id, so the
    output is deterministic.
    """
    require_valid_network(net)
    tags = {v: f"H{i + 1}" for i, v in enumerate(sorted(net.reticulations()))}
    primary_parent = {v: min(net.parents(v)) for v in tags}

    # Iterative post-order: a node is rendered after its children, whose
    # strings wait on `done` in child order.
    done: list[str] = []
    stack: list[tuple[int, int | None, bool]] = [(net.root, None, False)]
    while stack:
        v, parent, expanded = stack.pop()
        if v in tags and parent is not None and parent != primary_parent[v]:
            done.append(f"#{tags[v]}")
            continue
        kids = sorted(net.children(v))
        if not expanded:
            stack.append((v, parent, True))
            stack.extend((c, v, False) for c in reversed(kids))
            continue
        out = ""
        if kids:
            out = "(" + ",".join(done[-len(kids) :]) + ")"
            del done[-len(kids) :]
        name = net.label(v)
        if name is not None:
            out += _quote_label(name)
        if v in tags:
            out += f"#{tags[v]}"
        done.append(out)
    return done[0] + ";"


# ---------------------------------------------------------------------------
# Random networks and mutants
# ---------------------------------------------------------------------------


def random_network(
    n_target: int, hybrid_prob: float = 0.5, seed: int = 0
) -> PhyloNetwork:
    """Random fully resolved rooted network with about n_target nodes.

    Grows from a cherry by repeated events: a speciation turns a random leaf
    into a tree node with two fresh leaves; a reticulation subdivides two
    arcs with a new tree node and a new reticulate node joined by an arc
    (resampled when it would close a cycle).  Every event adds two nodes, so
    node counts are always odd; an even target lands on n_target + 1.
    Leaves are labeled t0, t1, ... in sorted node order.  Deterministic
    under the seed.
    """
    if n_target < 3:
        raise NetworkError("a fully resolved network needs at least 3 nodes")
    if not 0 <= hybrid_prob <= 1:
        raise NetworkError("hybrid probability must lie in [0, 1]")
    rng = random.Random(f"network:{seed}")
    children: dict[int, list[int]] = {0: [1, 2], 1: [], 2: []}
    next_id = 3

    def arcs_list():
        return sorted((u, v) for u, kids in children.items() for v in kids)

    def reachable(src: int, dst: int) -> bool:
        stack, seen = [src], {src}
        while stack:
            x = stack.pop()
            if x == dst:
                return True
            for y in children[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    while len(children) < n_target:
        did_reticulate = False
        arcs = arcs_list()
        if rng.random() < hybrid_prob and len(arcs) >= 2:
            for _ in range(20):
                (u, v), (x, y) = rng.sample(arcs, 2)
                if reachable(y, u):
                    continue  # the new arc would close a directed cycle
                t, h = next_id, next_id + 1
                next_id += 2
                children[u].remove(v)
                children[u].append(t)
                children[t] = [v, h]
                children[x].remove(y)
                children[x].append(h)
                children[h] = [y]
                did_reticulate = True
                break
        if not did_reticulate:
            leaves = sorted(v for v, kids in children.items() if not kids)
            leaf = rng.choice(leaves)
            children[leaf] = [next_id, next_id + 1]
            children[next_id] = []
            children[next_id + 1] = []
            next_id += 2

    arcs = arcs_list()
    net0 = PhyloNetwork(arcs, {})
    labels = {v: f"t{i}" for i, v in enumerate(sorted(net0.leaves))}
    net = PhyloNetwork(arcs, labels)
    require_valid_network(net, "generated network")
    return net


def swap_two_leaf_labels(net: PhyloNetwork, seed: int = 0) -> PhyloNetwork:
    """Copy with two leaf labels transposed: same digraph, permuted taxa."""
    rng = random.Random(f"leafswap:{seed}")
    leaves = sorted(net.leaves)
    if len(leaves) < 2:
        return net
    a, b = rng.sample(leaves, 2)
    labels = dict(net.labels)
    labels[a], labels[b] = labels[b], labels[a]
    return PhyloNetwork(net.arcs, labels, nodes=net.nodes)


def reversed_arc_network(
    net: PhyloNetwork, seed: int = 0
) -> PhyloNetwork | None:
    """Copy with one arc reversed, if some reversal stays valid and acyclic.

    Only arcs from a tree node into a reticulate node can be reversed
    without breaking the degree classification; returns None when no such
    reversal yields a valid network.
    """
    rng = random.Random(f"arcrev:{seed}")
    arcs = sorted(net.arcs)
    rng.shuffle(arcs)
    for u, v in arcs:
        if net.kind(u) != "tree" or net.kind(v) != "reticulate":
            continue
        mutated = (net.arcs - {(u, v)}) | {(v, u)}
        candidate = PhyloNetwork(mutated, net.labels, nodes=net.nodes)
        if not validate_network(candidate):
            return candidate
    return None
