"""The array-native phylo path against its character-by-character and dict references."""

import random

import numpy as np
import pytest

from trigiso.graphs import GraphArrays
from trigiso.phylo import (
    NetworkError,
    NewickError,
    PhyloNetwork,
    _reduction,
    is_network_isomorphism,
    parse_enewick,
    random_network,
    reduce_to_colored,
    validate_network,
    write_enewick,
)

from phylo_reference import (
    reference_is_network_isomorphism,
    reference_parse_enewick,
    reference_reduction,
    reference_validate_network,
)

_EMPTY = "empty node: expected a label, a group, or a hybrid tag"
_NOT_RESOLVED = "parsed network is not fully resolved: "

# (case, text, line, column, message); line and column are None for the
# NetworkError of a text that parses into an invalid network.
ENEWICK_ERRORS = [
    ("empty-text", "", 1, 1, _EMPTY),
    ("blank-text", "  \n\t", 2, 2, _EMPTY),
    ("unclosed-group", "(a,b", 1, 5, "expected ')'"),
    ("unclosed-group-newline", "(a,\n b\n", 3, 1, "expected ')'"),
    ("crlf-unclosed", "(a,\r\nb", 2, 2, "expected ')'"),
    ("space-inside-label", "(a b,c);", 1, 4, "expected ')'"),
    ("semicolon-inside-group", "(a,b;", 1, 5, "expected ')'"),
    ("missing-semicolon", "(a,b)", 1, 6, "expected ';' at end of network"),
    ("second-group", "(a,b)(c,d);", 1, 6, "expected ';' at end of network"),
    ("label-after-space-and-label", "(a,b)r s;", 1, 8, "expected ';' at end of network"),
    ("trailing-text", "(a,b);extra", 1, 7, "trailing characters after ';'"),
    ("trailing-after-newline", "(a,b);\n\n  x", 3, 3, "trailing characters after ';'"),
    ("second-semicolon", "(a,b);;", 1, 7, "trailing characters after ';'"),
    ("tab-trailing", "(a,b);\t;", 1, 8, "trailing characters after ';'"),
    ("double-comma", "(a,,b);", 1, 4, _EMPTY),
    ("empty-group", "();", 1, 2, _EMPTY),
    ("trailing-comma", "(a,);", 1, 4, _EMPTY),
    ("leading-comma", "(,a);", 1, 2, _EMPTY),
    ("length-only", "(:1.5,a);", 1, 6, _EMPTY),
    ("length-only-junk", "(:1x,a);", 1, 4, _EMPTY),
    ("bare-semicolon", ";", 1, 1, _EMPTY),
    ("unterminated-quote", "('a,b);", 1, 8, "unterminated quoted label"),
    ("unterminated-escaped-quote", "('ab'',c);", 1, 11, "unterminated quoted label"),
    ("unterminated-quote-multiline", "(a,\n'b\nc);", 3, 4, "unterminated quoted label"),
    ("unterminated-at-root", "(a,b)'r", 1, 8, "unterminated quoted label"),
    ("quote-after-label", "(a'b',c);", 1, 3, "expected ')'"),
    ("quote-after-quote", "('a''b' 'c',d);", 1, 9, "expected ')'"),
    ("tag-not-hybrid", "(a,#X1);", 1, 5, "only hybrid tags of the form #H<number> are supported"),
    ("tag-lowercase", "(a,#h1);", 1, 5, "only hybrid tags of the form #H<number> are supported"),
    ("tag-space", "(a,# H1);", 1, 5, "only hybrid tags of the form #H<number> are supported"),
    ("tag-at-end", "(a,b)#", 1, 7, "only hybrid tags of the form #H<number> are supported"),
    ("tag-without-number", "(a,#H);", 1, 6, "hybrid tag is missing its number"),
    ("tag-letter-number", "(a,#Hx);", 1, 6, "hybrid tag is missing its number"),
    ("tag-trailing-letter", "((a,(b)#H1x),(#H1,c));", 1, 11, "expected ')'"),
    ("tag-trailing-letter-root", "((a,b)#H1,c)#H2y;", 1, 16, "expected ';' at end of network"),
    ("tag-superscript-letter", "((a,(b)#H1²x),(#H1,c));", 1, 12, "expected ')'"),
    ("tag-after-space", "((a,(b) x #H1),(#H1,c));", 1, 11, "expected ')'"),
    ("tag-after-length", "((a,(b):1#H1),(#H1,c));", 1, 10, "expected ')'"),
    ("length-malformed", "(a:1.2.3,b);", 1, 9, "malformed branch length"),
    ("length-empty", "(a:,b);", 1, 4, "malformed branch length"),
    ("length-e", "(a:e,b);", 1, 5, "malformed branch length"),
    ("length-space", "(a: 1,b);", 1, 4, "malformed branch length"),
    ("length-superscript", "(a:1²,b);", 1, 6, "malformed branch length"),
    ("length-trailing-letter", "(a:1x,b);", 1, 5, "expected ')'"),
    ("length-trailing-letter-root", "(a,b):1x;", 1, 8, "expected ';' at end of network"),
    ("tag-once", "((a)#H1,b);", 1, 12, "hybrid tag #H1 appears 1 times, expected 2"),
    ("tag-three-times", "((a,(b)#H1),((#H1,c),#H1));", 1, 28,
     "hybrid tag #H1 appears 3 times, expected 2"),
    ("repeated-tag-parent", "((#H1,#H1),(b)#H1);", 1, 20,
     "hybrid tag #H1 appears 3 times, expected 2"),
    ("tag-conflicting-labels", "((a,(b)x#H1),(y#H1,c));", 1, 24,
     "hybrid tag #H1 carries conflicting labels"),
    ("tag-errors-sorted", "(((a,(b)#H2),(#H2,c)),(d)#H10);", 1, 32,
     "hybrid tag #H10 appears 1 times, expected 2"),
    ("tag-number-kept-verbatim", "((a,(b)#H01),(#H1,c));", 1, 23,
     "hybrid tag #H01 appears 1 times, expected 2"),
    ("tag-errors-multiline", "((a,(b)#H1),\n(#H1,c),\n(d)#H3);", 3, 9,
     "hybrid tag #H3 appears 1 times, expected 2"),
    ("non-binary", "(a,b,c);", None, None, _NOT_RESOLVED + "node 0 has degree pair (0,3)"),
    ("unary-root", "((a,b));", None, None, _NOT_RESOLVED + "node 0 has degree pair (0,1)"),
    ("single-leaf", "a;", None, None, _NOT_RESOLVED + "node 0 has degree pair (0,0)"),
    ("self-loop", "(#H1,b)#H1;", None, None,
     _NOT_RESOLVED + "expected exactly one root, found 0; network contains a directed cycle"),
    ("cycle", "((a,(#H2)#H1),(#H1)#H2);", None, None,
     _NOT_RESOLVED + "network contains a directed cycle"),
    ("unlabeled-leaf-tag", "((a,#H1),(#H1,c));", None, None,
     _NOT_RESOLVED + "node 3 has degree pair (2,0); leaf 3 is unlabeled"),
    ("parallel-arcs", "((x#H1,#H1),b);", None, None,
     _NOT_RESOLVED + "node 1 has degree pair (1,1)"),
]


@pytest.mark.parametrize("text,line,column,message", [c[1:] for c in ENEWICK_ERRORS],
                         ids=[c[0] for c in ENEWICK_ERRORS])
def test_enewick_error_position_and_message(text, line, column, message):
    with pytest.raises(NetworkError) as info:
        parse_enewick(text)
    if line is None:
        assert type(info.value) is NetworkError and str(info.value) == message
    else:
        assert type(info.value) is NewickError
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == f"line {line}, column {column}: {message}"


def _outcome(parse, text):
    try:
        net = parse(text)
    except NetworkError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return net.nodes, net.arcs, net.labels


_NAMES = ["Homo sapiens", "don't", "a''b", "'", "x y z", "t(1)", "semi;colon", "", "#H1", "t:2"]


def _texts(seed: int) -> list[str]:
    """eNewick of one random network, plain and with whitespace, quotes and lengths."""
    rng = random.Random(seed)
    net = random_network(rng.choice([5, 9, 15, 27, 41]), hybrid_prob=(0, 0.5, 1)[seed % 3],
                         seed=seed)
    plain = write_enewick(net)
    labels = {v: rng.choice(_NAMES + [s]) for v, s in net.labels.items()}
    labels.update((v, rng.choice(_NAMES)) for v in rng.sample(net.nodes, 2) if v not in labels)
    quoted = write_enewick(PhyloNetwork(net.arcs, labels, nodes=net.nodes))
    spaced = []
    for ch in quoted:
        if ch in "(),;" and rng.random() < 0.3:
            spaced.append(rng.choice([" ", "\n", "\t", "\r\n", "  "]))
        spaced.append(ch)
    lengths = []
    for i, ch in enumerate(plain):
        lengths.append(ch)
        if plain[i + 1 : i + 2] in (",", ")") and rng.random() < 0.5:
            lengths.append(rng.choice([":1.5", ":0", ":2e-3", ":+.5", ":1E+2"]))
    return [plain, quoted, "".join(spaced), "".join(lengths)]


_ALPHABET = "(),;:#' \n\tH1e.-+x²٣"


def _mutants(text: str, rng: random.Random, count: int) -> list[str]:
    out = []
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        ch = rng.choice(_ALPHABET)
        if op == 0:
            out.append(text[:i] + ch + text[i:])
        elif op == 1 and i < len(text):
            out.append(text[:i] + ch + text[i + 1 :])
        else:
            out.append(text[:i] + text[i + 1 :])
    return out


def test_parser_matches_reference_on_written_networks_and_their_mutants():
    kinds = set()
    for seed in range(60):
        rng = random.Random(1000 + seed)
        for text in _texts(seed):
            for t in [text] + _mutants(text, rng, 20):
                got, want = _outcome(parse_enewick, t), _outcome(reference_parse_enewick, t)
                assert got == want, t
                kinds.add(want[1].split(": ", 1)[1].split()[0] if len(want) == 4 else "ok")
    # The mutants reach most kinds of error.
    assert {"ok", "expected", "trailing", "empty", "unterminated", "only", "hybrid",
            "malformed", "node"} <= kinds


def test_parser_matches_reference_on_exotic_digits():
    for text in ["((a,(b)#H²),(#H²,c));", "((a,(b)#H٣),(#H٣,c));", "(a:٣.٥,b);",
                 "(a:1²,b);", "((a,(b)#H1²),(#H1,c));", "((a,(b)#H1²x),(#H1²,c));"]:
        assert _outcome(parse_enewick, text) == _outcome(reference_parse_enewick, text), text


def test_parsed_structure_equals_structure_from_arcs():
    for seed in range(20):
        net = parse_enewick(_texts(seed)[1])
        rebuilt = PhyloNetwork(net.arcs, net.labels, nodes=net.nodes)
        for name, a, b in zip(net.structure._fields, net.structure, rebuilt.structure):
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            else:
                assert a == b, name


def _labelled_pair(seed: int):
    """A network with repeated and inner labels, and a second network of the same size."""
    rng = random.Random(seed)
    net = random_network(rng.choice([5, 9, 15, 27]), seed=seed)
    taxa = ["a", "b", "c"][: 1 + seed % 3]
    labels = {v: rng.choice(taxa) for v in net.leaves}
    labels.update((v, rng.choice(taxa + ["inner"])) for v in rng.sample(net.nodes, 3))
    n1 = PhyloNetwork(net.arcs, labels, nodes=net.nodes)
    kind = seed % 3
    if kind == 0:
        names = rng.sample(range(5 * net.n_nodes), net.n_nodes)
        n2 = n1.relabeled_nodes(dict(zip(net.nodes, names)))
    elif kind == 1:
        other = random_network(net.n_nodes, seed=seed + 500)
        n2 = PhyloNetwork(other.arcs, {v: rng.choice(taxa) for v in other.leaves})
    else:
        n2 = parse_enewick(write_enewick(n1))
    return n1, n2


def _assert_same_view(got: GraphArrays, want: GraphArrays):
    for name, a, b in zip(GraphArrays._fields, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
        assert not a.flags.writeable, name


def test_reduction_is_identical_to_dict_reference():
    for seed in range(40):
        n1, n2 = _labelled_pair(seed)
        _, _, want, want_roots = reference_reduction([n1, n2])
        got, roots = _reduction([n1, n2], {})
        _assert_same_view(got, want)
        assert roots == want_roots
        # The public single-network reduction, through one shared intern table.
        intern, ref_intern = {}, {}
        for net in (n1, n2):
            g, root = reduce_to_colored(net, intern)
            colors, edges, view, (ref_root,) = reference_reduction([net], ref_intern)
            assert root == ref_root and intern == ref_intern
            assert g.colors() == colors and list(g.edges().items()) == list(edges.items())
            _assert_same_view(g.arrays, view)


def test_reduction_reads_labels_live():
    net = parse_enewick("((a,b)x,c);")
    before, _ = _reduction([net], {})
    net.labels[0] = "root"
    after, _ = _reduction([net], {})
    assert before.colors[0] == 0 and after.colors[0] != 0
    del net.labels[2]
    assert validate_network(net) == reference_validate_network(net) == ["leaf 2 is unlabeled"]


def test_network_isomorphism_check_matches_reference():
    for seed in range(40):
        rng = random.Random(seed)
        n1, _ = _labelled_pair(seed)
        names = rng.sample(range(5 * n1.n_nodes), n1.n_nodes)
        n2 = n1.relabeled_nodes(dict(zip(n1.nodes, names)))
        good = dict(zip(n1.nodes, names))
        a, b = rng.sample(n1.nodes, 2)
        swapped = dict(good)
        swapped[a], swapped[b] = good[b], good[a]
        missing = dict(good)
        del missing[a]
        extra = dict(good)
        extra[-1] = -1
        doubled = dict(good)
        doubled[a] = good[b]
        foreign = dict(good)
        foreign[a] = -7
        relabeled = PhyloNetwork(n2.arcs, dict(n2.labels), nodes=n2.nodes)
        relabeled.labels[good[a]] = "other"
        for m, other in [(good, n2), (swapped, n2), (missing, n2), (extra, n2), (doubled, n2),
                         (foreign, n2), (good, relabeled), (good, n1)]:
            assert is_network_isomorphism(n1, other, m) == reference_is_network_isomorphism(
                n1, other, m
            )
        assert is_network_isomorphism(n1, n2, good)
