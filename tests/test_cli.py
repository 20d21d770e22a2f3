"""Golden tests for the command-line surface: exit codes and verdict lines."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from trigiso import core
from trigiso.cli import main
from trigiso.graphs import format_graph_text, is_graph_isomorphism, parse_graph_text
from trigiso.harness import random_relabeling
from trigiso.layers import LayerDecomposition

from test_core import CUBE, _cfi
from tower_cases import PETERSEN, complete_binary_tree
from test_graphs import EX1_A, EX1_B, EX2_A, EX2_B, graph_from_edges
from test_phylo import patch_wrong_witness


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


@pytest.mark.parametrize("command", ["iso", "aut", "phylo-iso"])
def test_file_that_is_not_utf8_is_input_error(capsys, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    graph = tmp_path / "one.graph"
    graph.write_text("node 0\nnode 1\nedge 0 1\n", encoding="utf-8")
    net = tmp_path / "one.enwk"
    net.write_text("(a,b);\n", encoding="utf-8")
    argv = {
        "iso": ["iso", str(bad), str(graph)],
        "aut": ["aut", str(bad), "--edge", "0,1"],
        "phylo-iso": ["phylo-iso", str(net), str(bad)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1 and "UTF-8" in err


def test_aut_prints_generators_in_original_ids(capsys, tmp_path):
    p = tmp_path / "path.graph"
    p.write_text("node 3\nnode 5\nnode 7\nnode 9\nedge 3 5\nedge 5 7\nedge 7 9\n")
    code, out, _ = run_cli(capsys, "aut", str(p), "--edge", "5,7")
    assert code == 0
    assert out.strip().splitlines() == ["(3 9)(5 7)"]


BIG_LABEL_PATH = str(Path(__file__).parent / "data" / "big_label_path.graph")


def test_iso_and_aut_take_labels_past_64_bits(capsys):
    code, out, err = run_cli(capsys, "iso", BIG_LABEL_PATH, BIG_LABEL_PATH, "--mapping")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["0 -> 0", "1 -> 1", "2 -> 2", "true"]
    code, out, err = run_cli(capsys, "aut", BIG_LABEL_PATH, "--edge", "0,1")
    assert (code, out, err) == (0, "()\n", "")


def test_aut_refuses_a_graph_past_the_64_bit_element_keys(capsys, tmp_path):
    # The circular ladder on 38,000 nodes, with 57,000 distinct edge labels:
    # a valid cubic graph whose tower packs each element half as node·R +
    # label rank, R = 57,001, so 2·(n·R)² passes 2^63.  `aut` refuses it as
    # an input error, with one line that names the limit.
    k = 19_000
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)] + [(i, k + i) for i in range(k)]
    path = tmp_path / "ladder.graph"
    path.write_text(
        "".join(f"node {v}\n" for v in range(2 * k))
        + "".join(f"edge {u} {v} {j + 1}\n" for j, (u, v) in enumerate(edges)),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "aut", str(path), "--edge", "0,1")
    assert code == 3 and out == ""
    assert err == "error: graph too large for 64-bit tower element keys\n"


DATA = Path(__file__).parent / "data"


def _check_cfi_files(capsys, base, stem):
    plain, twisted = DATA / f"{stem}.graph", DATA / f"{stem}_twist1.graph"
    assert plain.read_text() == format_graph_text(_cfi(base))
    assert twisted.read_text() == format_graph_text(random_relabeling(_cfi(base, {0}), 9)[0])
    assert run_cli(capsys, "iso", str(plain), str(twisted)) == (0, "false\n", "")
    assert run_cli(capsys, "iso", str(plain), str(plain)) == (0, "true\n", "")


def test_cfi_cube_files_are_the_uncolored_cube_pair(capsys):
    # The CI job runs the console script on these files; they are the
    # colour-0 CFI graph over the 3-cube and its relabelled one-twist variant.
    _check_cfi_files(capsys, CUBE, "cfi_cube")


def test_cfi_petersen_files_are_the_uncolored_petersen_pair(capsys):
    # The same for the Petersen graph: 100 nodes, and the CI job's CFI
    # negative that runs the most towers.
    _check_cfi_files(capsys, PETERSEN, "cfi_petersen")


def test_spider_files_are_a_negative_only_refinement_separates(capsys):
    # The CI job's 1-WL negative: the spiders pass every pretest, and the
    # joint color refinement of both decides them with no tower.
    paths = [str(DATA / f"spider_{legs}.graph") for legs in ("113", "122")]
    g, h = (parse_graph_text(Path(p).read_text()) for p in paths)
    assert core._pretests_pass(g, h)
    assert core._first_edge_candidates(*core._profile_tables(g, h)) is None
    assert run_cli(capsys, "iso", *paths) == (0, "false\n", "")
    assert run_cli(capsys, "iso", paths[1], paths[1]) == (0, "true\n", "")


def test_tree_63_file_is_the_complete_binary_tree():
    # CI pins this tree's aut output on edge (0, 1): 30 generators, the
    # sibling swap below every inner node but the root.
    assert (DATA / "tree_63.graph").read_text() == format_graph_text(complete_binary_tree(63))


@pytest.mark.parametrize("stem", ["cfi_cube", "cfi_petersen", "tree_63"])
def test_aut_output_matches_the_pinned_file(capsys, stem):
    # The CI job compares the console script's output with these files byte
    # for byte, on the first edge of each graph file as awk reads it.
    graph = DATA / f"{stem}.graph"
    edge = next(",".join(ln.split()[1:3]) for ln in graph.read_text().splitlines() if ln[:5] == "edge ")
    code, out, err = run_cli(capsys, "aut", str(graph), "--edge", edge)
    assert (code, err) == (0, "")
    assert out == (DATA / f"{stem}.aut").read_text()


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


def test_hand_written_enewick_files(capsys):
    # The CI job runs the console script on these files: quoted labels with
    # spaces and '', branch lengths, line breaks and one hybrid tag, the same
    # network with its children reordered, and a truncated copy; and a
    # network whose two halves carry the same labels, reordered too.
    plain, reordered = DATA / "quoted.enwk", DATA / "quoted_reordered.enwk"
    truncated = DATA / "truncated.enwk"
    code, out, _ = run_cli(capsys, "phylo-iso", str(plain), str(reordered), "--mapping")
    assert code == 0 and out.splitlines()[-1] == "true"
    assert len(out.splitlines()) == 10  # nine nodes, then the verdict
    code, out, err = run_cli(capsys, "phylo-iso", str(plain), str(truncated))
    assert (code, out) == (3, "")
    assert err == f"error: {truncated}: line 2, column 33: expected ')'\n"
    repeated = [str(DATA / "repeated.enwk"), str(DATA / "repeated_reordered.enwk")]
    code, out, _ = run_cli(capsys, "phylo-iso", *repeated, "--mapping")
    assert code == 0 and out.splitlines()[-1] == "true"
    assert len(out.splitlines()) == 16  # fifteen nodes, then the verdict


@pytest.mark.parametrize("command", ["iso", "aut", "phylo-iso"])
def test_failed_level_lift_is_an_internal_error(capsys, monkeypatch, command):
    # The level filter keeps a row only if it maps the level's neighbor sets
    # onto materialized ones of equal color, so the lift of a kept row
    # cannot fail; if it does, a self-check broke: exit 4, neither an input
    # error nor a traceback.  Each input is symmetric enough for its towers
    # to reach the loop.
    monkeypatch.setattr(LayerDecomposition, "lift_or_none", lambda dec, r, images: None)
    cube = DATA / "cfi_cube.graph"
    # Its first edge, as the CI job reads it with awk.
    edge = next(",".join(ln.split()[1:3]) for ln in cube.read_text().splitlines() if ln[:5] == "edge ")
    argv = {
        "iso": ["iso", str(cube), str(cube)],
        "aut": ["aut", str(cube), "--edge", edge],
        "phylo-iso": ["phylo-iso", str(DATA / "repeated.enwk"), str(DATA / "repeated_reordered.enwk")],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.count("\n") == 1 and err.startswith("error: internal: level ")


@pytest.mark.parametrize("flags", [[], ["--mapping"]])
def test_phylo_iso_wrong_witness_is_an_internal_error(capsys, monkeypatch, flags):
    # Without --mapping too, the witness is verified before `true` is printed.
    quoted = [str(DATA / "quoted.enwk"), str(DATA / "quoted_reordered.enwk")]
    code, out, _ = run_cli(capsys, "phylo-iso", *quoted, *flags)
    assert code == 0 and out.splitlines()[-1] == "true"
    patch_wrong_witness(monkeypatch)
    code, out, err = run_cli(capsys, "phylo-iso", *quoted, *flags)
    assert (code, out) == (4, "")
    assert err.count("\n") == 1 and err.startswith("error: internal: ")


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
    # Sizes below a two-node graph and trial counts below one are input
    # errors, before any pair is drawn.
    for flags in (
        ("--sizes", "a,b"),
        ("--sizes", ","),
        ("--sizes", "1"),
        ("--sizes", "0"),
        ("--sizes", "8,1"),
        ("--sizes", "8", "--trials", "-1"),
        ("--sizes", "8", "--trials", "0"),
    ):
        code, out, err = run_cli(capsys, "bench", "--mode", "isomorphic", *flags)
        assert (code, out) == (3, ""), flags
        assert err.count("\n") == 1 and err.startswith("error: --"), flags


def test_out_of_memory_exit_code(capsys, monkeypatch, example_files):
    def starved(*args, **kwargs):
        raise MemoryError("Unable to allocate 96 MiB for\nan array")

    monkeypatch.setattr("trigiso.cli.is_isomorphic", starved)
    code, out, err = run_cli(capsys, "iso", example_files["1a"], example_files["1b"])
    assert (code, out) == (5, "")
    assert err == "error: out of memory: Unable to allocate 96 MiB for an array\n"


def test_iso_under_a_memory_cap_exits_5(tmp_path):
    # The 8,191-node complete binary tree against a relabelled copy: the
    # tower's generator rows over the 16,384 working nodes outgrow a 512 MiB
    # address space.  numpy's import fits with one BLAS thread.
    resource = pytest.importorskip("resource")
    g = complete_binary_tree(8191)
    paths = [tmp_path / "tree.graph", tmp_path / "relabelled.graph"]
    for path, graph in zip(paths, (g, random_relabeling(g, 1)[0])):
        path.write_text(format_graph_text(graph), encoding="utf-8")
    cap = 512 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "trigiso", "iso", *map(str, paths)],
        capture_output=True,
        text=True,
        preexec_fn=limit,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr


_FUZZ_SOURCES = {
    "iso": ["spider_113.graph", "big_label_path.graph", "cfi_cube.graph", "tree_63.graph"],
    "phylo-iso": ["quoted.enwk", "repeated.enwk"],
}
_FUZZ_SOURCES["aut"] = _FUZZ_SOURCES["iso"]
_FUZZ_NUMBERS = [str((1 << 63) - 1), str(1 << 63), str(1 << 64), str(10**30)]
_FUZZ_EDGES = ["0,0", "1,2,3", "a,b", "18446744073709551616,1"]


def _mutant(text: str, rng: random.Random) -> str:
    """`text` truncated, with one character replaced, a line dropped or doubled,
    a delimiter inserted, or one number replaced by a wide or zero-padded one."""
    at = rng.randrange(len(text) + 1)
    lines = text.splitlines(keepends=True)
    line = rng.randrange(len(lines))
    kind = rng.randrange(6)
    if kind == 0:
        return text[:at]
    if kind == 1:
        return text[:at] + rng.choice("0 9-x#(),;:'\n\t") + text[at + 1 :]
    if kind == 2:
        return "".join(lines[:line] + lines[line + 1 :])
    if kind == 3:
        return "".join(lines[: line + 1] + lines[line:])
    if kind == 4:
        return text[:at] + rng.choice(" \t\n,;:()#'") + text[at:]
    numbers = list(re.finditer(r"\d+", text))
    if not numbers:
        return text[:at]
    m = rng.choice(numbers)
    wide = rng.choice(_FUZZ_NUMBERS + ["000" + m.group()])
    return text[: m.start()] + wide + text[m.end() :]


@pytest.mark.parametrize("command", ["iso", "phylo-iso", "aut"])
def test_fuzzed_inputs_end_in_a_documented_exit_code(capsys, tmp_path, command):
    # Mutants of the committed inputs, decided in-process against the
    # original, and for `aut` with the original's first edge or a malformed
    # or absent one.  Every call returns 0, 2 or 3 and raises nothing; an
    # input error prints exactly one `error: ` line and nothing on stdout.
    rng = random.Random(f"fuzz-{command}")
    sources = [DATA / name for name in _FUZZ_SOURCES[command]]
    texts = [path.read_text(encoding="utf-8") for path in sources]
    mutant = tmp_path / "mutant"
    codes = set()
    for i in range(150 if command == "aut" else 200):
        k = rng.randrange(len(sources))
        mutant.write_text(_mutant(texts[k], rng), encoding="utf-8")
        if command == "aut":
            first = next(ln.split()[1:3] for ln in texts[k].splitlines() if ln[:5] == "edge ")
            edge = rng.choice(_FUZZ_EDGES + [",".join(first)] * 2)
            argv = ["aut", str(mutant), "--edge", edge]
        else:
            pair = [str(mutant), str(sources[k])]
            argv = [command, *(pair if i % 2 else pair[::-1])]
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2, 3), (argv, err)
        if code == 3:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
        if code == 0 and command != "aut":
            assert out.splitlines()[-1] in ("true", "false")
        codes.add(code)
    assert {0, 3} <= codes


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "trigiso", "gen", "graph", "3", "--seed", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "edge" in proc.stdout
