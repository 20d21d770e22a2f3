"""Fully resolved rooted phylogenetic networks.

A network is a rooted binary DAG: one root of in/out degree (0,2), leaves
(1,0), tree nodes (1,2) and reticulate nodes (2,1), with every leaf labeled
by a taxon (inner labels and repeated labels are tolerated and treated as
plain colors).  Two networks are isomorphic when a directed-graph
isomorphism maps root to root and preserves all labels.

A `PhyloNetwork` has three public attributes: `nodes`, its node ids in
increasing order; `arcs`, a frozenset of (tail, head) id pairs; and
`labels`, a dict from node id to label.  Nodes and arcs are never changed
after construction.  The whole-network passes read `structure`, an array
view of the arcs built once and cached (`NetworkStructure`): arc j runs
from node index `tail[j]` to `head[j]`, indices into `nodes`, with arcs in
increasing (tail, head) order; it holds the in- and out-degrees, the
root, the counts of leaves, tree and reticulate nodes, and the structural
half of validation (degree pairs, root count, directed cycles).  The
parser supplies the view directly; a network built from arcs derives it on
first use.  `labels` is not cached: it is a live, mutable dict, and
validation (unlabeled leaves), the pretests, the reduction and the mapping
check read it each time they run.  `roots`, `leaves` and `reticulations`
read the structure; the per-node accessors (`children`, `parents`,
`in_degree`, `kind`, ...) read adjacency lists built from `arcs` on first
use.

The isomorphism test reduces each network to an undirected ternary graph:
every arc u->v is subdivided by a midpoint of a reserved color, with the two
halves carrying reserved "out" and "in" edge labels, so that arc direction
survives as local edge-label structure.  Joining the two reductions by an
edge between their roots reduces network isomorphism to a single edge-fixing
automorphism computation on the joined graph: the networks are isomorphic
exactly when some automorphism fixing the joining edge exchanges the roots.
The joined reduction is built directly as one array view from both
structures.

eNewick (Cardona, Rosselló & Valiente, BMC Bioinformatics 9:532, 2008) is
read by one scan with a compiled token regex: the tokens are the four
delimiters ( ) , ;, runs of whitespace, unquoted and quoted labels, and `#`
or `:` with the run of label characters after it.  A loop with a stack of
open groups turns them into each node occurrence's parent, then one pass of
array operations merges the hybrid tags' occurrences and builds the arcs and
the structure (`parse_enewick` gives the grammar).
"""

from __future__ import annotations

import random
import re
from itertools import chain
from operator import itemgetter, ne
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .core import IsoResult, _tower
from .graphs import (
    ARC_IN_LABEL,
    ARC_OUT_LABEL,
    MIDPOINT_COLOR,
    ROOT_JOIN_LABEL,
    GraphArrays,
    LabeledGraph,
    _ints,
    _view,
)
# The towers run through `core._tower`; `layer_sequence` is bound here only
# because perfbench/tracing.py patches it in this module.
from .layers import layer_sequence


class NetworkError(ValueError):
    """Raised for malformed networks or eNewick input."""


class NewickError(NetworkError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# Node kind by (in-degree, out-degree); every other pair is invalid.
_KINDS = {(0, 2): "root", (1, 0): "leaf", (1, 2): "tree", (2, 1): "reticulate"}


class NetworkStructure(NamedTuple):
    """Array view of a network's nodes and arcs (module docstring); no labels.

    Node i is `ids[i]`, the ids increasing (int64, object past 64 bits).
    Arc j runs from node `tail[j]` to node `head[j]`, arcs in increasing
    (tail, head) order.  `n_roots` counts the nodes of in-degree 0, and
    `root` is the index of the only one, or -1.  `classes` counts the
    leaves, tree nodes and reticulate nodes.  `leaves` are the ids of the
    nodes of in-degree > 0 and out-degree 0, which validation requires to
    be labeled, and `invalid` the indices of the nodes whose degree pair is
    not a root's, leaf's, tree node's or reticulate node's.  `cyclic` is
    whether the arcs contain a directed cycle.  The arrays are read-only.
    """

    ids: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    indeg: np.ndarray
    outdeg: np.ndarray
    n_roots: int
    root: int
    classes: tuple[int, int, int]
    leaves: tuple
    invalid: tuple[int, ...]
    cyclic: bool


# Degree pairs coded min(in, 3)·4 + min(out, 3): the root (0,2) is 2, a leaf
# (1,0) 4, a tree node (1,2) 6 and a reticulate node (2,1) 9; a node of
# in-degree > 0 and out-degree 0 is 4, 8 or 12.
_VALID_PAIR = np.bincount([2, 4, 6, 9], minlength=16).astype(bool)
_SINK = np.bincount([4, 8, 12], minlength=16).astype(bool)


def _structure(ids: np.ndarray, tail: np.ndarray, head: np.ndarray) -> NetworkStructure:
    """The structure of the network on `ids` with sorted arcs tail -> head.

    Kahn's algorithm over the children lists (slices of `head`, whose arcs
    are sorted by tail) finds directed cycles: a node joins `order` when its
    last parent has, and all nodes join exactly when there is no cycle.
    """
    n = len(ids)
    indeg, outdeg = np.bincount(head, minlength=n), np.bincount(tail, minlength=n)
    pair = np.minimum(indeg, 3) * 4 + np.minimum(outdeg, 3)
    counts = np.bincount(pair, minlength=16).tolist()
    sources = np.flatnonzero(indeg == 0).tolist()
    left, heads, ends = indeg.tolist(), head.tolist(), np.cumsum(outdeg).tolist()
    starts = [0] + ends[:-1]
    order = list(sources)
    for i in order:
        for w in heads[starts[i] : ends[i]]:
            d = left[w] - 1
            left[w] = d
            if not d:
                order.append(w)
    view = NetworkStructure(
        ids=ids,
        tail=tail,
        head=head,
        indeg=indeg,
        outdeg=outdeg,
        n_roots=len(sources),
        root=sources[0] if len(sources) == 1 else -1,
        classes=(counts[4], counts[6], counts[9]),
        leaves=tuple(ids[_SINK[pair]].tolist()),
        invalid=tuple(np.flatnonzero(~_VALID_PAIR[pair]).tolist()),
        cyclic=len(order) != n,
    )
    for array in view[:5]:
        array.setflags(write=False)
    return view


class PhyloNetwork:
    """A rooted directed network with node labels (taxa on the leaves)."""

    __slots__ = ("nodes", "arcs", "labels", "_structure", "_children", "_parents")

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
        self._structure = self._children = self._parents = None

    @classmethod
    def _of(cls, nodes: tuple, arcs: frozenset, labels: dict, structure: NetworkStructure):
        """Adopt converted parts: sorted int ids, int arc pairs, str labels, their view."""
        net = object.__new__(cls)
        net.nodes, net.arcs, net.labels, net._structure = nodes, arcs, labels, structure
        net._children = net._parents = None
        return net

    @property
    def structure(self) -> NetworkStructure:
        """The cached array view of nodes and arcs (module docstring)."""
        if self._structure is None:
            ids = _ints(self.nodes, self.n_nodes)
            ends = np.fromiter(chain.from_iterable(self.arcs), ids.dtype, 2 * self.n_arcs)
            tail, head = np.searchsorted(ids, ends).reshape(-1, 2).T
            order = np.lexsort((head, tail))
            self._structure = _structure(ids, tail[order], head[order])
        return self._structure

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    def _adjacency(self) -> None:
        children: dict[int, list[int]] = {v: [] for v in self.nodes}
        parents: dict[int, list[int]] = {v: [] for v in self.nodes}
        for u, v in sorted(self.arcs):
            children[u].append(v)
            parents[v].append(u)
        self._children, self._parents = children, parents

    def children(self, v: int) -> list[int]:
        if self._children is None:
            self._adjacency()
        return self._children[v]

    def parents(self, v: int) -> list[int]:
        if self._parents is None:
            self._adjacency()
        return self._parents[v]

    def in_degree(self, v: int) -> int:
        return len(self.parents(v))

    def out_degree(self, v: int) -> int:
        return len(self.children(v))

    def label(self, v: int) -> str | None:
        return self.labels.get(v)

    def _where(self, mask: np.ndarray) -> list[int]:
        return [self.nodes[i] for i in np.flatnonzero(mask).tolist()]

    @property
    def roots(self) -> list[int]:
        return self._where(self.structure.indeg == 0)

    @property
    def root(self) -> int:
        roots = self.roots
        if len(roots) != 1:
            raise NetworkError(f"network has {len(roots)} roots")
        return roots[0]

    @property
    def leaves(self) -> list[int]:
        return self._where(self.structure.outdeg == 0)

    def reticulations(self) -> list[int]:
        return self._where(self.structure.indeg == 2)

    def kind(self, v: int) -> str:
        return _KINDS.get((self.in_degree(v), self.out_degree(v)), "invalid")

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
    """Report all violations of the fully resolved rooted network contract.

    The root count, the invalid degree pairs and the directed cycles come
    from the cached structure; the unlabeled leaves are read from `labels`
    now.  Problems come in that order, node problems by node id, a node's
    degree pair before its missing label.
    """
    if net.n_nodes == 0:
        return ["network has no nodes"]
    s, ids, labels = net.structure, net.nodes, net.labels
    problems = [] if s.n_roots == 1 else [f"expected exactly one root, found {s.n_roots}"]
    node_problems = [
        (ids[i], f"node {ids[i]} has degree pair ({s.indeg[i]},{s.outdeg[i]})") for i in s.invalid
    ]
    node_problems += [(v, f"leaf {v} is unlabeled") for v in s.leaves if labels.get(v) is None]
    problems += [p for _, p in sorted(node_problems, key=itemgetter(0))]
    if s.cyclic:
        problems.append("network contains a directed cycle")
    return problems


def require_valid_network(net: PhyloNetwork, what: str = "network") -> None:
    problems = validate_network(net)
    if problems:
        raise NetworkError(f"invalid {what}: " + "; ".join(problems))


def is_network_isomorphism(
    n1: PhyloNetwork, n2: PhyloNetwork, mapping: Mapping[int, int]
) -> bool:
    """Check a node bijection for arc direction and label preservation.

    Arcs are compared as sorted codes tail·n + head over node indices: the
    images of the first network's arcs must be exactly the second's.
    """
    if mapping.keys() != set(n1.nodes):
        return False
    images = [mapping[v] for v in n1.nodes]
    if sorted(images) != list(n2.nodes):
        return False
    if n1.n_arcs != n2.n_arcs:
        return False
    s1, s2 = n1.structure, n2.structure
    index = np.searchsorted(s2.ids, np.array(images, dtype=s2.ids.dtype))
    n = len(s2.ids)
    if not np.array_equal(np.sort(index[s1.tail] * n + index[s1.head]), s2.tail * n + s2.head):
        return False
    return not any(map(ne, map(n1.labels.get, n1.nodes), map(n2.labels.get, images)))


# ---------------------------------------------------------------------------
# Reduction to a colored ternary graph
# ---------------------------------------------------------------------------


def _reduction(
    nets: Iterable[PhyloNetwork], intern: dict[str, int]
) -> tuple[GraphArrays, list[int]]:
    """The array view of one network's reduction, or of two joined; with the roots' ids.

    Ids are indices.  Each network in turn takes the next ids: its nodes in
    sorted order, then one midpoint per arc in sorted arc order.  Nodes
    take interned label colors, 0 if unlabeled (equal strings get equal
    colors across every network sharing the `intern` table, codes from 1 in
    order of first appearance); midpoints take the reserved color.  Edges
    come arc by arc, tail-midpoint with the out label, then head-midpoint
    with the in label; two networks are joined by a last, root-to-root edge.
    The networks must be valid.
    """
    colors, u, v, roots = [], [], [], []
    base = 0
    for net in nets:
        s = net.structure
        n, m = len(s.ids), len(s.tail)
        taxa = map(net.labels.get, net.nodes)
        colors += [
            np.fromiter(
                (0 if lab is None else intern.setdefault(lab, len(intern) + 1) for lab in taxa),
                dtype=np.int64,
                count=n,
            ),
            np.full(m, MIDPOINT_COLOR),
        ]
        u.append(np.stack([s.tail, s.head], axis=1).ravel() + base)
        v.append(np.arange(base + n, base + n + m).repeat(2))
        roots.append(base + s.root)
        base += n + m
    labels = np.tile([ARC_OUT_LABEL, ARC_IN_LABEL], sum(map(len, v)) // 2)
    if len(roots) == 2:
        u.append(roots[:1])
        v.append(roots[1:])
        labels = np.append(labels, ROOT_JOIN_LABEL)
    return _view(
        np.arange(base), np.concatenate(colors), np.concatenate(u), np.concatenate(v), labels
    ), roots


def reduce_to_colored(
    net: PhyloNetwork, intern: dict[str, int] | None = None
) -> tuple[LabeledGraph, int]:
    """Encode one network as an undirected colored graph, plus its root's id.

    The public, validating wrapper of the reduction that `phylo_isomorphic`
    builds for both networks at once.  The result has |V| + |arcs| nodes
    and maximum degree 3, and two networks are isomorphic exactly when
    their reductions, colored through one shared `intern` table, admit a
    color- and label-preserving isomorphism matching the roots.
    """
    require_valid_network(net)
    view, (root,) = _reduction([net], {} if intern is None else intern)
    return LabeledGraph._of(view), root


def phylo_isomorphic(
    n1: PhyloNetwork,
    n2: PhyloNetwork,
    want_mapping: bool = False,
) -> IsoResult:
    """Isomorphism of rooted binary networks, as directed labeled graphs.

    The two reductions are joined by a root-to-root edge and one tower
    (`trigiso.core._tower`) runs, restricted to the coset of
    part-exchanging candidates; the
    networks are isomorphic exactly when that coset survives to the last
    layer.  The witness is re-verified, whether or not a mapping is asked
    for.
    """
    require_valid_network(n1, "first network")
    require_valid_network(n2, "second network")
    s1, s2 = n1.structure, n2.structure
    l1, l2 = n1.labels, n2.labels
    if (
        n1.n_nodes != n2.n_nodes
        or n1.n_arcs != n2.n_arcs
        or s1.classes != s2.classes
        or sorted(l1.values()) != sorted(l2.values())
        or sorted(map(l1.get, s1.leaves)) != sorted(map(l2.get, s2.leaves))
    ):
        return IsoResult(False)

    view, roots = _reduction([n1, n2], {})
    witness = _tower(view, tuple(roots), swap=True)
    if witness is None:
        return IsoResult(False)
    # The joined graph's ids are dense, so they are also its indices.
    images = s2.ids[witness[: n1.n_nodes] - (n1.n_nodes + n1.n_arcs)].tolist()
    mapping = dict(zip(n1.nodes, images))
    if not is_network_isomorphism(n1, n2, mapping):
        raise AssertionError("internal error: witness failed network verification")
    return IsoResult(True, mapping if want_mapping else None)


# ---------------------------------------------------------------------------
# eNewick
# ---------------------------------------------------------------------------

# The whitespace, and all characters that end an unquoted label.
_SPACE = " \t\r\n"
_SPECIALS = "(),:;#'" + _SPACE
_RUN = f"[^{re.escape(_SPECIALS)}]"
# The tokens, most frequent first.  Every character starts one, so the
# matches of `findall` tile the text and a token's position is the length of
# the tokens before it.  A quoted label ends at the first quote that is not
# doubled; a lone quote is an unterminated label.  `#` and `:` take the whole
# run of label characters after them, which the scan then checks.
_TOKEN = re.compile(
    rf"[(),]|{_RUN}+|#{_RUN}*|[{re.escape(_SPACE)}]+|;|:{_RUN}*|'[^']*(?:''[^']*)*'(?!')|'"
)
_EMPTY_NODE = "empty node: expected a label, a group, or a hybrid tag"

# Scanner states.  A node's suffix (label, hybrid tag, branch length, each
# optional, in this order and with no whitespace between them) is read in
# states _LABEL to _SUFFIXED, by what it has so far.
_NODE = 0  # a node starts: '(' opens a group, anything else is a leaf's suffix
_LABEL = 1  # nothing of the suffix yet; whitespace is skipped
_TAG = 2  # after a label
_LENGTH = 3  # after a hybrid tag
_SUFFIXED = 4  # after a branch length
_AFTER = 5  # a node inside a group ended: ',' or ')' follows
_END = 6  # the root ended: ';' follows
_DONE = 7  # after ';': only whitespace


def _error(text: str, pos: int, message: str) -> NewickError:
    line = text.count("\n", 0, pos) + 1
    return NewickError(message, line, pos - text.rfind("\n", 0, pos))


def _start(text: str, tok: str, rest: Iterator[str]) -> int:
    """Position of `tok`, the token before the unread tokens `rest` (consumed)."""
    return len(text) - len(tok) - sum(map(len, rest))


def _unexpected(groups: list) -> str:
    return "expected ')'" if groups else "expected ';' at end of network"


def _prefix(run: str, extra: str) -> int:
    """Length of the longest prefix of `run` of `str.isdigit` characters or `extra`."""
    return next((i for i, c in enumerate(run) if not (c.isdigit() or c in extra)), len(run))


def _tag_error(text: str, tok: str, rest: Iterator[str], groups: list) -> NewickError:
    """The error of a `#` token that is not H<digits>."""
    at = _start(text, tok, rest) + 1
    if tok[1:2] != "H":
        return _error(text, at, "only hybrid tags of the form #H<number> are supported")
    digits = _prefix(tok[2:], "")
    if not digits:
        return _error(text, at + 1, "hybrid tag is missing its number")
    # The tag ends inside the run, at a character that no suffix takes.
    return _error(text, at + 1 + digits, _unexpected(groups))


def _check_length(text: str, tok: str, rest: Iterator[str], groups: list, bare: bool) -> None:
    """Check a `:` token; `bare` is whether its node has neither label nor tag."""
    run = tok[1:]
    size = _prefix(run, ".+-eE")
    try:
        float(run[:size])
    except ValueError:
        raise _error(text, _start(text, tok, rest) + 1 + size, "malformed branch length") from None
    if size < len(run):
        at = _start(text, tok, rest) + 1 + size
        raise _error(text, at, _EMPTY_NODE if bare else _unexpected(groups))


def _scan(text: str) -> tuple[list[int], dict[int, str], list[tuple[int, str]]]:
    """One pass over the tokens: every occurrence's parent, the labels and the tags.

    Occurrences are numbered in the order their nodes start; the root is 0,
    with parent -1.  Open groups wait on a stack, so depth is unbounded.
    """
    tokens = iter(_TOKEN.findall(text))
    parent = [-1]
    names: dict[int, str] = {}
    tags: list[tuple[int, str]] = []
    groups: list[int] = []
    occ, state, bare = 0, _NODE, True
    for tok in tokens:
        if state == _NODE:
            if tok == "(":
                groups.append(occ)
                occ = len(parent)
                parent.append(groups[-1])
                continue
            if tok[0] in _SPACE:
                continue
            state, bare = _LABEL, True
        if state < _AFTER:
            c = tok[0]
            if c not in _SPECIALS:
                if state == _LABEL:
                    names[occ] = tok
                    state, bare = _TAG, False
                    continue
            elif c == "#":
                if state <= _TAG:
                    if tok[1:2] != "H" or not tok[2:].isdigit():
                        raise _tag_error(text, tok, tokens, groups)
                    tags.append((occ, tok[1:]))
                    state, bare = _LENGTH, False
                    continue
            elif c == ":":
                if state <= _LENGTH:
                    _check_length(text, tok, tokens, groups, bare)
                    state = _SUFFIXED
                    continue
            elif c == "'":
                if state == _LABEL:
                    if tok == "'":
                        raise _error(text, len(text), "unterminated quoted label")
                    names[occ] = tok[1:-1].replace("''", "'")
                    state, bare = _TAG, False
                    continue
            elif c in _SPACE and state == _LABEL:
                continue
            # The suffix ends before this token.
            if bare:
                raise _error(text, _start(text, tok, tokens), _EMPTY_NODE)
            state = _AFTER if groups else _END
        if state == _AFTER:
            if tok == ",":
                occ = len(parent)
                parent.append(groups[-1])
                state = _NODE
            elif tok == ")":
                occ = groups.pop()
                state, bare = _LABEL, False
            elif tok[0] not in _SPACE:
                raise _error(text, _start(text, tok, tokens), "expected ')'")
        elif state == _END and tok == ";":
            state = _DONE
        elif tok[0] not in _SPACE:
            message = "expected ';' at end of network" if state == _END else (
                "trailing characters after ';'")
            raise _error(text, _start(text, tok, tokens), message)
    if state < _AFTER:
        if state == _NODE or bare:
            raise _error(text, len(text), _EMPTY_NODE)
        state = _AFTER if groups else _END
    if state != _DONE:
        raise _error(text, len(text), _unexpected(groups))
    return parent, names, tags


def parse_enewick(text: str) -> PhyloNetwork:
    """Parse an eNewick description into a validated network.

    One scan with a compiled token regex reads this grammar, where ws is a
    run of spaces, tabs, CRs and LFs:

        network := ws? node ws? ';' ws?
        node    := '(' ws? node (ws? ',' ws? node)* ws? ')' suffix | suffix
        suffix  := ws? label? tag? (':' length)?
        label   := one or more characters other than ( ) , : ; # ' and ws
                 | "'" (any character but "'", or "''" for one quote)* "'"
        tag     := '#H' and one or more digits (str.isdigit)
        length  := digits and . + - e E, accepted by float(); discarded

    A leaf's suffix needs a label or a tag.  Nodes are numbered in the order
    they start in the text, from 0 for the root; the two occurrences of a
    hybrid tag merge into the first, a reticulate node whose children are
    those of both, so its number is that of the first.  A syntax error
    raises NewickError with its line and column; a text that parses into
    an invalid network raises NetworkError.  The network's structure
    (module docstring) is built here from the arcs' index arrays.
    """
    parent, names, tags = _scan(text)
    count = len(parent)
    by_tag: dict[str, list[int]] = {}
    for occ, tag in tags:
        by_tag.setdefault(tag, []).append(occ)
    rep = np.arange(count)
    for tag, occs in sorted(by_tag.items()):
        if len(occs) != 2:
            raise _error(text, len(text), f"hybrid tag #{tag} appears {len(occs)} times, expected 2")
        keep, drop = sorted(occs)
        name = names.pop(drop, None)
        if name is not None and names.setdefault(keep, name) != name:
            raise _error(text, len(text), f"hybrid tag #{tag} carries conflicting labels")
        rep[drop] = keep
    # Occurrence k > 0 is entered by one arc from its parent; both ends are
    # resolved to their tag's first occurrence, and repeated arcs merge.
    arcs = np.sort(rep[np.fromiter(parent, np.int64, count)[1:]] * count + rep[1:])
    distinct = np.ones(len(arcs), dtype=bool)
    np.not_equal(arcs[1:], arcs[:-1], out=distinct[1:])
    tail, head = np.divmod(arcs[distinct], count)
    kept = rep == np.arange(count)
    ids = np.flatnonzero(kept)
    index = np.cumsum(kept) - 1
    net = PhyloNetwork._of(
        tuple(ids.tolist()),
        frozenset(zip(tail.tolist(), head.tolist())),
        dict(sorted(names.items())),
        _structure(ids, index[tail], index[head]),
    )
    problems = validate_network(net)
    if problems:
        raise NetworkError("parsed network is not fully resolved: " + "; ".join(problems))
    return net


def _quote_label(label: str) -> str:
    if label and all(c not in _SPECIALS for c in label):
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

    leaves = sorted(v for v, kids in children.items() if not kids)
    net = PhyloNetwork(arcs_list(), {v: f"t{i}" for i, v in enumerate(leaves)})
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
