"""Tests for the graph container, the text format, and the splice."""

import pytest

from trigiso.graphs import (
    GraphError,
    GraphFormatError,
    LabeledGraph,
    build_x,
    format_graph_text,
    is_graph_isomorphism,
    parse_graph_text,
    validate,
)

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
    assert validate(g, allow_reserved=True) == []


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


def test_parse_comments_and_colors():
    g = parse_graph_text("# a cherry\nnode 0 5\nnode 1\nnode 2 5\nedge 0 1 3\nedge 1 2 3\n")
    assert g.color(0) == 5 and g.color(1) == 0
    assert g.label(0, 1) == 3


def test_build_x_smallest_case():
    g = LabeledGraph([0, 1], [(0, 1)])
    sp = build_x(g, g, (0, 1), (0, 1))
    x = sp.graph
    assert x.n_nodes == 6 and x.n_edges == 5
    assert x.has_edge(sp.v1, sp.v2)
    assert x.degree(sp.v1) == 3 and x.degree(sp.v2) == 3
    assert sorted(x.degree_sequence()) == [1, 1, 1, 1, 3, 3]
    assert validate(x) == []


def test_build_x_preserves_degrees_and_counts():
    g1 = graph_from_edges(EX1_A)
    g2 = graph_from_edges(EX1_B)
    sp = build_x(g1, g2, (1, 7), (2, 3))
    x = sp.graph
    assert x.n_nodes == g1.n_nodes + g2.n_nodes + 2
    assert validate(x) == []
    for v in g1.node_ids:
        assert x.degree(sp.map1[v]) == g1.degree(v)
    for v in g2.node_ids:
        assert x.degree(sp.map2[v]) == g2.degree(v)
    # split-edge labels carried over to the stubs
    a, b = 1, 7
    assert x.label(sp.map1[a], sp.v1) == g1.label(1, 7)


def test_build_x_missing_edge():
    g = LabeledGraph([0, 1, 2], [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        build_x(g, g, (0, 2), (0, 1))


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
