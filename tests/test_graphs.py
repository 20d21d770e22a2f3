"""Tests for the graph container, the text format, and the splice."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trigiso
from trigiso.graphs import (
    GraphError,
    GraphFormatError,
    LabeledGraph,
    _EDGE_CHECK_CELLS,
    _maps_edges,
    build_x,
    format_graph_text,
    is_graph_isomorphism,
    parse_graph_text,
    validate,
)
from trigiso import core
from trigiso.core import aut_e_generators, is_isomorphic
from trigiso.harness import random_relabeling, random_ternary_graph

from graph_reference import (
    graph_of_view,
    reference_is_graph_isomorphism,
    reference_parse_graph_text,
    reference_splice,
    reference_validate,
)
from tower_cases import complete_binary_tree

_SRC = Path(trigiso.__file__).resolve().parent.parent
_DATA = Path(__file__).resolve().parent / "data"

# Edge lists used throughout the suite (ten nodes each, max degree three).
EX1_A = [(1, 7), (1, 10), (2, 3), (2, 4), (3, 4), (4, 9), (5, 6), (6, 8), (7, 8), (7, 9), (8, 9)]
EX1_B = [(2, 3), (2, 10), (1, 7), (1, 4), (7, 4), (4, 9), (5, 6), (6, 8), (3, 8), (3, 9), (8, 9)]
EX2_A = [(1, 7), (1, 8), (1, 10), (2, 3), (3, 6), (4, 5), (5, 6), (6, 10), (7, 9), (7, 10), (8, 9)]
EX2_B = [(1, 7), (1, 9), (2, 3), (2, 5), (2, 10), (4, 5), (4, 6), (4, 10), (6, 8), (7, 8), (7, 10)]


def graph_from_edges(edge_list):
    nodes = sorted({u for e in edge_list for u in e})
    return LabeledGraph(nodes, edge_list)


def test_validate_single_edge_ok():
    g = LabeledGraph([0, 1], [(0, 1)])
    assert validate(g) == []


def test_validate_degree_violation():
    g = LabeledGraph(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert any("degree 4" in p for p in validate(g))


def test_validate_loop_and_disconnected():
    g = LabeledGraph([0, 1, 2], [(0, 0), (1, 2)])
    problems = validate(g)
    assert any("loop" in p for p in problems)
    assert any("disconnected" in p for p in problems)


def test_validate_reserved_values():
    g = LabeledGraph({0: 0, 1: -1}, {(0, 1): -2})
    problems = validate(g)
    assert any("reserved color" in p for p in problems)
    assert any("reserved label" in p for p in problems)
    assert all("reserved" in p for p in problems)


def test_validate_example_graphs():
    for edges in (EX1_A, EX1_B, EX2_A, EX2_B):
        g = graph_from_edges(edges)
        assert g.n_nodes == 10 and g.n_edges == 11
        assert validate(g) == []
    # Both graphs of the negative pair share this degree sequence, so the
    # verdict cannot come from a pre-test.
    assert graph_from_edges(EX2_A).degree_sequence() == [1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
    assert graph_from_edges(EX2_B).degree_sequence() == [1, 1, 2, 2, 2, 2, 3, 3, 3, 3]


def test_text_format_roundtrip():
    g = LabeledGraph({0: 0, 1: 2, 5: 0}, {(0, 1): 0, (1, 5): 7})
    text = format_graph_text(g)
    assert parse_graph_text(text) == g


def test_parse_rejects_duplicates_and_junk():
    with pytest.raises(GraphFormatError):
        parse_graph_text("node 0\nnode 1\nedge 0 1\nedge 1 0\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text("node 0\nnode 0\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text("node 0\nedge 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text("vertex 0\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text("node -3\n")
    # str.isdigit accepts these; the format takes ASCII decimal only.
    for field in ["\u00b2", "\u0663", "1\uff12", "\u2460"]:
        with pytest.raises(GraphFormatError, match="non-numeric"):
            parse_graph_text(f"node 0\nnode {field}\n")


# (case, text, line, message): every error `parse_graph_text` raises.  The
# first failing line wins, and within a line the numeric check comes first.
PARSE_ERRORS = [
    ("non-numeric", "node 0\nnode x\n", 2, "non-numeric field in 'node x'"),
    ("non-numeric-sign", "node +3\n", 1, "non-numeric field in 'node +3'"),
    ("non-numeric-before-arity", "node 0\nnode 1 x 3\n", 2, "non-numeric field in 'node 1 x 3'"),
    ("non-numeric-before-directive", "vertex x\n", 1, "non-numeric field in 'vertex x'"),
    ("non-numeric-comment-cut", "node 0\n  node 0x # note\n", 2, "non-numeric field in 'node 0x'"),
    ("node-without-id", "node\n", 1, "node takes <id> [<color>]"),
    ("node-three-fields", "node 0 1 2\n", 1, "node takes <id> [<color>]"),
    ("edge-one-field", "node 0\nedge 0\n", 2, "edge takes <id> <id> [<label>]"),
    ("edge-four-fields", "node 0\nnode 1\nedge 0 1 2 3\n", 3, "edge takes <id> <id> [<label>]"),
    ("duplicate-node", "node 0\nnode 1\nnode 0 2\n", 3, "duplicate node 0"),
    ("duplicate-edge", "node 0\nnode 1\nedge 0 1\nedge 0 1 5\n", 4, "duplicate edge 0 1"),
    ("duplicate-edge-reversed", "node 0\nnode 1\nedge 0 1\nedge 1 0\n", 4, "duplicate edge 1 0"),
    ("undeclared-first", "node 1\nedge 0 1\n", 2, "edge references undeclared node 0"),
    ("undeclared-second", "node 0\nedge 0 1\n", 2, "edge references undeclared node 1"),
    ("undeclared-both", "node 5\nedge 1 0\n", 2, "edge references undeclared node 1"),
    ("unknown-directive", "node 0\nvertex 0\n", 2, "unknown directive 'vertex'"),
    ("no-nodes-empty", "", 1, "no nodes declared"),
    ("no-nodes-comments", "# only a comment\n\n   \n", 1, "no nodes declared"),
    ("comments-and-blank-lines",
     "# header\n\nnode 0 # the first\n   \nnode 1#x\n# node 0\nnode 0\n", 7, "duplicate node 0"),
    ("comment-glued-to-number", "node 1#x\nnode 2#\nnode 1\n", 3, "duplicate node 1"),
    ("comment-glued-to-directive", "node 0\nnode#1\n", 2, "node takes <id> [<color>]"),
    ("crlf", "node 0\r\nnode 1\r\nedge 0 2\r\n", 3, "edge references undeclared node 2"),
    ("lone-cr", "node 0\rnode 0\r", 2, "duplicate node 0"),
    ("splitlines-breaks",
     "node 0\vnode 1\fnode 2\x1cnode 3\x1dnode 4\x1enode 5\x85node 6\u2028node 7\u2029node 3\n",
     9, "duplicate node 3"),
    ("break-ends-comment", "node 0 # a\x85node 0\n", 2, "duplicate node 0"),
    ("tab-separators", "node\t0\nnode\t1\t2\nedge\t0\t1\t2\t3\n", 3, "edge takes <id> <id> [<label>]"),
    ("unicode-spaces", "node\u30000\nnode\xa01\u2009\nedge 0\u2009 1 x\n", 3,
     "non-numeric field in 'edge 0\\u2009 1 x'"),
    ("unit-separator-is-a-space", "node\x1f0\nnode 0\n", 2, "duplicate node 0"),
    ("directive-glued-to-field", "node 0\nnode5\n", 2, "unknown directive 'node5'"),
    ("plural-directive", "node 0\nnodes 1\n", 2, "unknown directive 'nodes'"),
    ("plus-sign-in-edge", "node 0\nnode 6\nedge 0 +6\n", 3, "non-numeric field in 'edge 0 +6'"),
    ("leading-zeros", "node 007\nnode 7\n", 2, "duplicate node 7"),
    ("19-digit", "node 9223372036854775807\nnode 09223372036854775807\n", 2,
     "duplicate node 9223372036854775807"),
    ("20-digit", "node 18446744073709551616\nedge 18446744073709551616 18446744073709551617\n", 2,
     "edge references undeclared node 18446744073709551617"),
    ("duplicate-after-20-digit-label", "node 0\nnode 1\nedge 0 1 99999999999999999999\nedge 1 0\n", 4,
     "duplicate edge 1 0"),
    ("edge-before-node", "node 0\nedge 0 1\nnode 1\n", 2, "edge references undeclared node 1"),
    ("no-nodes-breaks-only", "\r\n\u2028\x85 \t", 1, "no nodes declared"),
    ("no-nodes-comments-only", "#node 0\n# edge 0 1", 1, "no nodes declared"),
]


@pytest.mark.parametrize("text,line,message", [c[1:] for c in PARSE_ERRORS],
                         ids=[c[0] for c in PARSE_ERRORS])
def test_parse_error_line_and_message(text, line, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph_text(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


# Pieces of generated texts: every line break of `str.splitlines`, `str.split`
# whitespace that is not a break, and fields that the format takes or rejects.
_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SPACES = [" ", "  ", "\t", "\x1f", "\xa0", "\u2009", "\u3000"]
_FIELDS = ["007", "00", "9223372036854775807", "09223372036854775808", "18446744073709551616",
           "99999999999999999999", "+6", "-1", "\u0663", "\u00b2", "x", "1#x"]
_DIRECTIVES = ["nodes", "node5", "vertex", "Node", "#", ""]


@st.composite
def graph_texts(draw):
    """Texts that mix valid lines with every feature and fault of the format.

    Most lines are well formed, over the ids 0..4, and most texts start by
    declaring nodes, so that many texts are accepted and the others fail on
    duplicates and declarations as well as on fields, arities and directives.
    """
    odd = st.integers(0, 15).map(lambda k: k == 0)
    sep = st.sampled_from(_SPACES)
    lines = []
    heads = draw(st.integers(0, 4))  # the first lines declare nodes, when well formed
    for i in range(heads + draw(st.integers(0, 5))):
        kind = "node" if i < heads else draw(st.sampled_from(["node", "edge", "edge", "edge"]))
        kind = draw(st.sampled_from(_DIRECTIVES)) if draw(odd) else kind
        arity = draw(st.integers(0, 4)) if draw(odd) else draw(st.integers(1, 2)) + (kind == "edge")
        fields = [draw(st.sampled_from(_FIELDS)) if draw(odd) else str(draw(st.integers(0, heads)))
                  for _ in range(arity)]
        if i < heads and fields and not draw(odd):
            fields[0] = str(i)
        line = kind + "".join(draw(sep) + f for f in fields)
        if draw(st.booleans()):
            line = draw(sep) + line + draw(sep)
        if draw(st.integers(0, 3)) == 0:
            line += draw(st.sampled_from(["#c", " # node 0", "#"]))
        lines.append(line)
    breaks = [draw(st.sampled_from(_BREAKS)) for _ in lines]
    return "".join(a + b for a, b in zip(lines, breaks)) + draw(st.sampled_from(["", "\n"]))


def _parse_outcome(parse, text):
    """(message, line) of a rejected text; the dicts and view of an accepted one."""
    try:
        g = parse(text)
    except GraphFormatError as exc:
        return str(exc), exc.line
    return g.colors(), list(g.edges().items()), [(a.dtype, a.tolist()) for a in g.arrays]


@settings(derandomize=True, deadline=None, max_examples=1000, database=None)
@given(graph_texts())
def test_parser_matches_the_line_by_line_reference(text):
    assert _parse_outcome(parse_graph_text, text) == _parse_outcome(reference_parse_graph_text, text)


@pytest.mark.parametrize("text", [
    "node 1#x\nnode 2#\nedge 1 2#y",
    "node 0\r\nnode 1 5\r\nedge 1 0 3\r\n",
    "node\t0\x1f\vnode 1\fnode\u30002\u2028edge 0\xa01\x85edge\u20092 1 7\u2029",
    "node 007 0010\nnode 8\nedge 8 7 000\n",
    "node 9223372036854775807\nnode 09223372036854775808\n"
    "edge 9223372036854775807 9223372036854775808 18446744073709551616\n",
    "node 5 99999999999999999999\nnode 4\nedge 4 5\n",
    "  \n# header\n\nnode 0\n   \n",
], ids=["comments", "crlf", "breaks-and-spaces", "leading-zeros", "19-and-20-digit",
        "20-digit-color", "blank-lines"])
def test_parser_accepts_what_the_reference_accepts(text):
    want = _parse_outcome(reference_parse_graph_text, text)
    assert not isinstance(want[0], str)
    assert _parse_outcome(parse_graph_text, text) == want


def test_parser_reads_every_whitespace_character_as_the_reference_does():
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    for c in spaces:
        for text in (f"node{c}0{c}1\nnode 1\nedge 0 1", f"node 0{c}node 1{c}edge{c}0 1"):
            assert (_parse_outcome(parse_graph_text, text)
                    == _parse_outcome(reference_parse_graph_text, text)), repr(c)


def test_parse_comments_and_colors():
    g = parse_graph_text("# a cherry\nnode 0 5\nnode 1\nnode 2 5\nedge 0 1 3\nedge 1 2 3\n")
    assert g.color(0) == 5 and g.color(1) == 0
    assert g.label(0, 1) == 3


def test_build_x_smallest_case():
    g = LabeledGraph([0, 1], [(0, 1)])
    view = build_x(g.arrays, g.arrays, (0, 1), (0, 1))
    x = graph_of_view(view)
    assert view.ids.tolist() == list(range(6)) and x.n_edges == 5
    assert x.has_edge(2, 3)  # the join v1-v2
    assert x.degree(2) == 3 and x.degree(3) == 3
    assert view.degrees.tolist() == [x.degree(v) for v in range(6)]
    assert sorted(x.degree_sequence()) == [1, 1, 1, 1, 3, 3]
    assert validate(x) == []
    for array in view:
        with pytest.raises(ValueError):
            array[:1] = 0


def test_build_x_preserves_degrees_and_counts():
    g1 = graph_from_edges(EX1_A)
    g2 = LabeledGraph(g1.node_ids, {(u, v): u + v for u, v in EX1_B})
    a1, a2 = g1.arrays, g2.arrays
    e1, e2 = np.searchsorted(a1.ids, (1, 7)), np.searchsorted(a2.ids, (2, 3))
    view = build_x(a1, a2, e1, e2)
    x = graph_of_view(view)
    assert x.n_nodes == g1.n_nodes + g2.n_nodes + 2
    assert validate(x) == []
    assert view.degrees.tolist() == a1.degrees.tolist() + [3, 3] + a2.degrees.tolist()
    assert view.degrees.tolist() == x.arrays.degrees.tolist()
    assert (view.u <= view.v).all()
    # split-edge labels carried over to the stubs
    v1, v2 = 10, 11
    assert x.label(e1[0], v1) == x.label(e1[1], v1) == g1.label(1, 7)
    assert x.label(v2, 12 + e2[0]) == x.label(v2, 12 + e2[1]) == g2.label(2, 3) == 5
    assert not x.has_edge(*e1) and not x.has_edge(12 + e2[0], 12 + e2[1])


def test_build_x_missing_edge():
    g = LabeledGraph([0, 1, 2], [(0, 1), (1, 2)])  # ids 0..2 are also the indices
    for e1, e2 in (((0, 2), (0, 1)), ((0, 1), (0, 2)), ((2, 2), (1, 0))):
        with pytest.raises(GraphError, match="not present"):
            build_x(g.arrays, g.arrays, e1, e2)


def test_build_x_matches_reference_splice_on_random_pairs():
    # Scattered ids, colors and labels, some past 2^64, and every edge of
    # the first graph split against a random edge of the second.
    rng = random.Random(5)
    checked = 0
    for seed in range(40):
        graphs = []
        for k in range(2):
            base = random_ternary_graph(rng.randint(2, 12), 10 * seed + k)
            big = 2**64 if rng.random() < 0.5 else 0
            ids = dict(zip(base.node_ids, rng.sample(range(big, big + 100), base.n_nodes)))
            graphs.append(LabeledGraph(
                {ids[v]: rng.choice([0, 1, big + 2]) for v in base.node_ids},
                {(ids[u], ids[v]): rng.choice([0, 3, big + 1]) for u, v in base.sorted_edges()},
            ))
        g1, g2 = graphs
        for e1 in g1.sorted_edges():
            e2 = rng.choice(g2.sorted_edges())
            ref = reference_splice(g1, g2, e1, e2)
            view = build_x(
                g1.arrays, g2.arrays, np.searchsorted(g1.arrays.ids, e1),
                np.searchsorted(g2.arrays.ids, e2),
            )
            assert view.ids.tolist() == ref.graph.node_ids
            assert view.colors.tolist() == [ref.graph.color(v) for v in ref.graph.node_ids]
            edges = zip(view.u.tolist(), view.v.tolist(), view.labels.tolist())
            assert {((u, v), lab) for u, v, lab in edges} == set(ref.graph.edges().items())
            assert view.degrees.tolist() == ref.graph.arrays.degrees.tolist()
            assert (view.u <= view.v).all() and len(view.u) == ref.graph.n_edges
            checked += 1
    assert checked > 100


def test_is_graph_isomorphism_accepts_published_witness():
    g1 = graph_from_edges(EX1_A)
    g2 = graph_from_edges(EX1_B)
    witness = {1: 2, 2: 1, 3: 7, 4: 4, 5: 5, 6: 6, 7: 3, 8: 8, 9: 9, 10: 10}
    assert is_graph_isomorphism(g1, g2, witness)


def test_is_graph_isomorphism_rejects_bad_maps():
    g1 = graph_from_edges(EX1_A)
    g2 = graph_from_edges(EX1_B)
    ident = {v: v for v in g1.node_ids}
    assert not is_graph_isomorphism(g1, g2, ident)
    assert not is_graph_isomorphism(g1, g2, {1: 2})
    colored = LabeledGraph({0: 1, 1: 0}, [(0, 1)])
    plain = LabeledGraph({0: 0, 1: 0}, [(0, 1)])
    assert not is_graph_isomorphism(colored, plain, {0: 0, 1: 1})


def _witness_cases(shift: int):
    """(case, g1, g2, mapping, verdict) around the published witness, ids shifted by `shift`."""
    g1 = LabeledGraph({v + shift: v % 2 for v in range(1, 11)},
                      {(u + shift, v + shift): u for u, v in EX1_A})
    witness = {1: 2, 2: 1, 3: 7, 4: 4, 5: 5, 6: 6, 7: 3, 8: 8, 9: 9, 10: 10}
    g2 = g1.relabeled({v + shift: witness[v] + shift for v in witness})
    good = {v + shift: witness[v] + shift for v in witness}
    a, b = 5 + shift, 6 + shift  # an edge of both graphs, fixed by the witness
    swapped_labels = LabeledGraph(g2.colors(), {**g2.edges(), (a, b): 99})
    recolored = LabeledGraph({**g2.colors(), a: 7}, g2.edges())
    missing = dict(list(good.items())[1:])
    extra = {**good, 11 + shift: 11 + shift}
    twice = {**good, a: good[b]}
    same_color_swap = {**good, 4 + shift: good[10 + shift], 10 + shift: good[4 + shift]}
    return [
        ("witness", g1, g2, good, True),
        ("missing-key", g1, g2, missing, False),
        ("extra-key", g1, g2, extra, False),
        ("non-bijective", g1, g2, twice, False),
        ("color-mismatch", g1, recolored, good, False),
        ("label-mismatch", g1, swapped_labels, good, False),
        ("non-edge-image", g1, g2, same_color_swap, False),
        ("float-key", g1, g2, {**missing, 1.5 + shift: good[1 + shift]}, False),
    ]


@pytest.mark.parametrize("shift", [0, 2**63, 2**64 + 3])
def test_is_graph_isomorphism_on_views_rejects_what_the_dict_reference_rejects(shift):
    for case, g1, g2, mapping, want in _witness_cases(shift):
        parsed = [parse_graph_text(format_graph_text(g)) for g in (g1, g2)]
        for x1, x2 in ((g1, g2), parsed):
            assert reference_is_graph_isomorphism(x1, x2, mapping) is want, case
            assert is_graph_isomorphism(x1, x2, mapping) is want, case
    # Every bijection between two small graphs, against the reference.
    g1 = LabeledGraph({shift: 1, shift + 1: 0, shift + 2: 1, shift + 3: 0},
                      {(shift, shift + 1): 2, (shift + 1, shift + 2): 2, (shift + 2, shift + 3): 0})
    g2 = g1.relabeled({v: 2 * shift + 10 - v for v in g1.node_ids})
    verdicts = []
    for image in itertools.permutations(g2.node_ids):
        mapping = dict(zip(g1.node_ids, image))
        verdicts.append(is_graph_isomorphism(g1, g2, mapping))
        assert verdicts[-1] == reference_is_graph_isomorphism(g1, g2, mapping), mapping
    assert sum(verdicts) == 1


@pytest.mark.parametrize("seed", range(12))
def test_maps_edges_agrees_with_the_dict_reference(seed):
    # Rows of several kinds, checked in one call against each second graph:
    # the relabelling, the relabelling composed with the first graph's
    # edge-fixing automorphisms, two nodes swapped, two nodes sent to one
    # node, and a random map.  The second graphs are the relabelled copy,
    # the copy with two labels of different edges swapped, with an edge
    # dropped, and with its labels moved past 2^64 (of another dtype when
    # the first graph's labels fit in int64).  Labels start at 0, 2^63 or
    # 2^64 + 3.  Random graphs take random colors and labels; complete
    # binary trees take them by depth and keep many automorphisms.  A row
    # is an isomorphism exactly when it keeps the colors and maps the
    # edges; the graphs are connected and of equal size, so a row that maps
    # the edges is a bijection.
    rng = random.Random(seed)
    shift = (0, 2**63, 2**64 + 3)[seed % 3]
    if seed % 2:
        base = random_ternary_graph(10 + 3 * seed, seed)
        colors = {v: rng.randrange(2) for v in base.node_ids}
        labels = {e: shift + rng.randrange(3) for e in base.sorted_edges()}
    else:
        base = complete_binary_tree(2 ** (seed % 3 + 3) - 1)
        colors = {v: (v + 1).bit_length() % 2 for v in base.node_ids}
        labels = {(u, v): shift + (u + 1).bit_length() % 3 for u, v in base.sorted_edges()}
    g = LabeledGraph(colors, labels)
    h, to_h = random_relabeling(g, seed + 1)
    edges = h.edges()
    e, f = next((e, f) for e, f in itertools.combinations(edges, 2) if edges[e] != edges[f])
    others = [
        h,
        LabeledGraph(h.colors(), {**edges, e: edges[f], f: edges[e]}),
        LabeledGraph(h.colors(), {k: lab for k, lab in edges.items() if k != e}),
        LabeledGraph(h.colors(), {k: lab + 2**64 for k, lab in edges.items()}),
    ]
    n = g.n_nodes
    iso = np.searchsorted(h.arrays.ids, [to_h[v] for v in g.node_ids])
    auts = aut_e_generators(g, g.sorted_edges()[0]).generators
    swapped, merged = iso.copy(), iso.copy()
    swapped[[0, 1]] = iso[[1, 0]]
    merged[0] = iso[1]
    rows = np.array(
        [iso, *(iso[p.image] for p in auts), swapped, merged, rng.sample(range(n), n)],
        dtype=np.int32,
    )
    verdicts = []
    for other in others:
        a1, a2 = g.arrays, other.arrays
        got = _maps_edges(rows, a1, a2) & (a2.colors[rows] == a1.colors).all(axis=1)
        want = [
            reference_is_graph_isomorphism(g, other, dict(zip(g.node_ids, a2.ids[row].tolist())))
            for row in rows
        ]
        assert got.tolist() == want
        verdicts.append(want)
    assert all(verdicts[0][: 1 + len(auts)]) and not any(verdicts[0][-3:-1])
    assert seed % 2 or len(auts) > 1
    assert not any(map(any, verdicts[1:]))
    # One view against itself ranks its labels once; an equal view that is
    # another object takes the two-view path, with the same verdicts.
    a1 = g.arrays
    own = np.array([range(n), *(p.image for p in auts), rng.sample(range(n), n)], dtype=np.int32)
    same = _maps_edges(own, a1, a1)
    assert same.tolist() == _maps_edges(own, a1, a1._replace()).tolist()
    assert same[: 1 + len(auts)].all()


def test_check_automorphisms_memory_is_one_row_block():
    # The 510 swap=False tower rows of the 1,023-node complete binary tree
    # fill eight blocks of `_maps_edges`.  The check holds the node-color
    # gather, about twice the int32 rows, and then one block's codes, a
    # few int64 per cell; checked in one pass the codes peaked at ten
    # times the rows.  The blocks give the one-pass result, also on rows
    # broken every 37th row, so that several blocks hold failing rows.
    view = complete_binary_tree(1023).arrays
    rows = core._tower(view, (0, 1), swap=False)
    assert len(rows) * len(view.u) > 4 * _EDGE_CHECK_CELLS
    tracemalloc.start()
    try:
        core._check_automorphisms(view, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * rows.nbytes + 64 * _EDGE_CHECK_CELLS
    bad = rows.copy()
    bad[::37, [5, 700]] = bad[::37, [700, 5]]  # an inner node and a leaf
    both = np.concatenate([rows, bad]).astype(np.int64)
    n = len(view.ids)

    def codes(x, y):
        return np.minimum(x, y) * n + np.maximum(x, y)  # every label is 0

    want = np.sort(codes(view.u, view.v))
    one_pass = (np.sort(codes(both[:, view.u], both[:, view.v]), axis=1) == want).all(axis=1)
    assert one_pass.sum() == len(rows) + len(bad) - len(bad[::37])
    assert _maps_edges(both, view, view).tolist() == one_pass.tolist()
    with pytest.raises(AssertionError):
        core._check_automorphisms(view, bad)


def _subtree_swaps(n_nodes: int) -> np.ndarray:
    """Rows swapping the two child subtrees of every node 1, 2, ... of a complete binary tree.

    Nodes are heap indices; the descendants of c at depth d below it are
    the 2^d nodes from (c + 1)·2^d - 1 on.
    """
    inner = range(1, (n_nodes - 1) // 2)
    rows = np.tile(np.arange(n_nodes, dtype=np.int32), (len(inner), 1))
    for row, i in zip(rows, inner):
        c1, c2, width = 2 * i + 1, 2 * i + 2, 1
        while (c2 + 1) * width - 1 < n_nodes:
            a, b = (c1 + 1) * width - 1, (c2 + 1) * width - 1
            row[a : a + width] = np.arange(b, b + width)
            row[b : b + width] = np.arange(a, a + width)
            width *= 2
    return rows


def test_check_automorphisms_colors_in_row_blocks():
    # The 4,095-node tree's 2,046 subtree swaps are 32 MiB of int32 rows.
    # Gathered at once, their int64 node colors alone took 64 MiB; compared
    # block by block the check peaks far below the rows themselves.
    tree = complete_binary_tree(4095)
    view = tree.arrays
    rows = _subtree_swaps(4095)
    assert rows.shape == (2046, 4095) and view.colors.dtype == np.int64
    tracemalloc.start()
    try:
        core._check_automorphisms(view, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    # Leaf 4094 recolored: the swaps at its ancestors move it onto a leaf
    # of another color and keep every edge.  One of them, last behind the
    # 2,036 rows that fix it, must still fail the check.
    recolored = view._replace(colors=np.where(view.ids == 4094, 1, 0))
    fixing = rows[rows[:, 4094] == 4094]
    assert len(fixing) == 2036 and _maps_edges(rows[-1:], view, view).all()
    core._check_automorphisms(recolored, fixing)
    with pytest.raises(AssertionError, match="not an automorphism"):
        core._check_automorphisms(recolored, np.concatenate([fixing, rows[-1:]]))


# -- the array view and the array checks against the dict references ------


def _random_graph(seed: int) -> LabeledGraph:
    """Up to 12 scattered ids; loops, repeated edges, degree > 3 and reserved values occur."""
    rng = random.Random(seed)
    ids = rng.sample(range(-5, 40), rng.randrange(13))
    edges = {}
    for _ in range(rng.randrange(2 * len(ids) + 1) if ids else 0):
        edges[(rng.choice(ids), rng.choice(ids))] = rng.randrange(-2, 4)
    return LabeledGraph({v: rng.randrange(-2, 4) for v in ids}, edges)


def test_validate_matches_dict_reference_on_random_graphs():
    graphs = [_random_graph(seed) for seed in range(600)]
    for g in graphs:
        assert validate(g) == reference_validate(g)
    # Every kind of problem occurred, and so did valid graphs.
    problems = [p for g in graphs for p in validate(g)]
    for kind in ("loop at", "reserved label", "reserved color", "has degree", "disconnected"):
        assert any(kind in p for p in problems), kind
    assert any(not validate(g) for g in graphs)


def test_validate_matches_reference_on_sparse_and_large_ids():
    path = LabeledGraph([2**70, 5, -3, 2**64], [(5, 2**70), (-3, 5)])
    for g in (path, path.relabeled({2**70: 2**70, 5: 5, -3: -3, 2**64: 7})):
        assert validate(g) == reference_validate(g)
    assert validate(path) == ["graph is disconnected (1 unreachable nodes)"]


def test_validate_finds_components_of_long_shuffled_paths():
    rng = random.Random(3)
    for n in (2, 3, 50, 2000):
        order = rng.sample(range(n), n)
        path = list(zip(order, order[1:]))
        assert validate(LabeledGraph(range(n), path)) == []
        if n > 3:
            cut = path[: n // 3] + path[n // 3 + 1 :]
            assert validate(LabeledGraph(range(n), cut)) == reference_validate(
                LabeledGraph(range(n), cut)
            )


def test_array_view_matches_the_dicts():
    g = LabeledGraph({7: 2, 3: 0, 10: -1, 5: 1}, {(10, 3): 4, (5, 7): 0, (3, 3): 2, (7, 10): 1})
    a = g.arrays
    assert a is g.arrays  # built once
    for array in a:  # shared, so read-only
        with pytest.raises(ValueError):
            array[:1] = 0
    assert a.ids.tolist() == g.node_ids
    assert a.colors.tolist() == [g.color(v) for v in g.node_ids]
    pairs = [(g.node_ids[u], g.node_ids[v]) for u, v in zip(a.u.tolist(), a.v.tolist())]
    assert pairs == list(g.edges()) and a.labels.tolist() == list(g.edges().values())
    assert a.degrees.tolist() == [g.degree(v) for v in g.node_ids]
    assert g.degree_sequence() == sorted(g.degree(v) for v in g.node_ids)
    big = LabeledGraph({2**70: 2**65, 0: 1}, {(0, 2**70): 2**64})
    assert big.arrays.ids.tolist() == [0, 2**70] and big.arrays.labels.tolist() == [2**64]


def test_parsed_graphs_hold_the_view_and_build_dicts_only_when_asked():
    # A graph read from text holds its view and no dicts until a dict
    # accessor asks; a decision on parsed graphs never asks, for a positive
    # and for a negative.  A graph built from Python objects builds no view
    # until asked.
    g = parse_graph_text("node 0\nnode 1\nedge 0 1\n")
    assert g._arrays is not None and g._colors is None and g._edges is None
    assert (g.n_nodes, g.n_edges, g.node_ids) == (2, 1, [0, 1])
    assert g._colors is None and g._edges is None
    assert g.label(0, 1) == 0 and g._colors == {0: 0, 1: 0} and g._edges == {(0, 1): 0}
    built = LabeledGraph([0, 1], [(0, 1)])
    assert built._arrays is None and built.node_ids == [0, 1] and built._arrays is None
    cube = (_DATA / "cfi_cube.graph").read_text()
    relabeled = format_graph_text(random_relabeling(parse_graph_text(cube), 3)[0])
    twisted = (_DATA / "cfi_cube_twist1.graph").read_text()
    for other, want in ((relabeled, True), (twisted, False)):
        g1, g2 = parse_graph_text(cube), parse_graph_text(other)
        assert is_isomorphic(g1, g2, want_mapping=True).isomorphic == want
        assert all(x._colors is None and x._edges is None for x in (g1, g2))


def test_import_loads_neither_scipy_nor_networkx():
    code = (
        "import sys, trigiso; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_package_exports_only_the_public_surface():
    assert sorted(trigiso.__all__) == [
        "AutResult", "GraphError", "GraphFormatError", "IsoResult", "LabeledGraph",
        "NetworkError", "NewickError", "Permutation", "PhyloNetwork", "aut_e_generators",
        "cycle_string", "format_graph_text", "is_isomorphic", "parse_enewick",
        "parse_graph_text", "phylo_isomorphic", "random_network", "random_ternary_graph",
        "validate", "validate_network", "write_enewick",
    ]
    for name in trigiso.__all__:
        assert getattr(trigiso, name) is not None


def test_format_rejects_reserved_values():
    with pytest.raises(GraphError, match="reserved color -1"):
        format_graph_text(LabeledGraph({0: -1, 1: 0}, [(0, 1)]))
    with pytest.raises(GraphError, match="reserved label -2"):
        format_graph_text(LabeledGraph([0, 1], {(0, 1): -2}))
