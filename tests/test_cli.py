"""Golden tests for the command-line surface: exit codes and verdict lines."""

import subprocess
import sys

import pytest

from trigiso.cli import main
from trigiso.graphs import LabeledGraph, format_graph_text, is_graph_isomorphism, parse_graph_text

from test_graphs import EX1_A, EX1_B, EX2_A, EX2_B, graph_from_edges


@pytest.fixture
def example_files(tmp_path):
    paths = {}
    for name, edges in [("1a", EX1_A), ("1b", EX1_B), ("2a", EX2_A), ("2b", EX2_B)]:
        p = tmp_path / f"ex{name}.graph"
        p.write_text(format_graph_text(graph_from_edges(edges)), encoding="utf-8")
        paths[name] = str(p)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_iso_positive_with_mapping(capsys, example_files):
    code, out, _ = run_cli(capsys, "iso", example_files["1a"], example_files["1b"], "--mapping")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "true"
    mapping_lines = [ln for ln in lines[:-1] if " -> " in ln]
    assert len(mapping_lines) == 10
    mapping = {}
    for ln in mapping_lines:
        u, v = ln.split(" -> ")
        mapping[int(u)] = int(v)
    assert is_graph_isomorphism(
        graph_from_edges(EX1_A), graph_from_edges(EX1_B), mapping
    )


def test_iso_negative(capsys, example_files):
    code, out, _ = run_cli(capsys, "iso", example_files["2a"], example_files["2b"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "false"


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "iso")[0] == 2


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "iso", str(tmp_path / "no.graph"), str(tmp_path / "no2.graph"))
    assert code == 3 and "error:" in err


def test_invalid_graph_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("node 0\nnode 1\nnode 2\nedge 0 1\n", encoding="utf-8")  # disconnected
    ok = tmp_path / "ok.graph"
    ok.write_text("node 0\nnode 1\nedge 0 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "iso", str(bad), str(ok))
    assert code == 3 and "disconnected" in err


def test_non_ascii_digit_is_input_error(capsys, tmp_path):
    p = tmp_path / "sup.graph"
    p.write_text("node \u00b2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "iso", str(p), str(p))
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "non-numeric" in err


def test_aut_prints_generators_in_original_ids(capsys, tmp_path):
    p = tmp_path / "path.graph"
    p.write_text("node 3\nnode 5\nnode 7\nnode 9\nedge 3 5\nedge 5 7\nedge 7 9\n")
    code, out, _ = run_cli(capsys, "aut", str(p), "--edge", "5,7")
    assert code == 0
    assert out.strip().splitlines() == ["(3 9)(5 7)"]


def test_aut_bad_edge_flag(capsys, tmp_path):
    p = tmp_path / "k2.graph"
    p.write_text("node 0\nnode 1\nedge 0 1\n")
    assert run_cli(capsys, "aut", str(p), "--edge", "0")[0] == 3
    assert run_cli(capsys, "aut", str(p), "--edge", "0,7")[0] == 3


def test_gen_graph_roundtrips(capsys, tmp_path):
    out_path = tmp_path / "g.graph"
    code, _, _ = run_cli(capsys, "gen", "graph", "2", "--seed", "1", "--out", str(out_path))
    assert code == 0
    g = parse_graph_text(out_path.read_text())
    assert g.n_nodes == 2 and g.n_edges == 1


def test_gen_network_and_phylo_iso(capsys, tmp_path):
    p1 = tmp_path / "n1.enwk"
    p2 = tmp_path / "n2.enwk"
    assert run_cli(capsys, "gen", "network", "11", "--seed", "3", "--out", str(p1))[0] == 0
    assert run_cli(capsys, "gen", "network", "11", "--seed", "3", "--out", str(p2))[0] == 0
    code, out, _ = run_cli(capsys, "phylo-iso", str(p1), str(p2), "--mapping")
    assert code == 0
    assert out.strip().splitlines()[-1] == "true"


def test_phylo_iso_negative(capsys, tmp_path):
    p1 = tmp_path / "n1.enwk"
    p2 = tmp_path / "n2.enwk"
    p1.write_text("(a,b);")
    p2.write_text("(a,c);")
    code, out, _ = run_cli(capsys, "phylo-iso", str(p1), str(p2))
    assert code == 0 and out.strip() == "false"


def test_phylo_iso_bad_newick(capsys, tmp_path):
    p1 = tmp_path / "n1.enwk"
    p1.write_text("(a,b,c);")
    p2 = tmp_path / "n2.enwk"
    p2.write_text("(a,b);")
    assert run_cli(capsys, "phylo-iso", str(p1), str(p2))[0] == 3


def test_internal_error_exit_code(capsys, monkeypatch, example_files):
    def broken(*args, **kwargs):
        raise AssertionError("internal error: witness failed\nverification")

    monkeypatch.setattr("trigiso.cli.is_isomorphic", broken)
    code, out, err = run_cli(capsys, "iso", example_files["1a"], example_files["1b"])
    assert code == 4
    assert out == ""
    assert err == "error: internal: internal error: witness failed verification\n"


def test_bench_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "bench.csv"
    code, _, err = run_cli(
        capsys,
        "bench", "--mode", "isomorphic", "--sizes", "6,8", "--trials", "1",
        "--seed", "5", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,trial,verdict,elapsed,mode"
    assert len(lines) == 3
    assert "median" in err


def test_bench_bad_sizes(capsys):
    assert run_cli(capsys, "bench", "--mode", "isomorphic", "--sizes", "a,b")[0] == 3


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "trigiso", "gen", "graph", "3", "--seed", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "edge" in proc.stdout
