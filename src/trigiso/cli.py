"""Command-line interface.

Exit codes: 0 = the command ran (for the isomorphism commands the verdict is
the last stdout line, `true` or `false`); 2 = usage error; 3 = unreadable or
invalid input; 4 = internal error: any AssertionError, that is one of the
pipeline's own self-checks failed (a witness that does not verify; in the
tower an identity coset filtered to empty, a permutation that moves a node
onto another color, a filtered level permutation that does not lift, a
fiber of more than two nodes; a pruning generator that is not an
automorphism of the second graph or maps a candidate edge onto a
non-candidate; the color solver's preconditions "B not stable" and
"index2_sgs precondition violated"), reported as one `error: internal: ...`
line on stderr; 5 = out of memory, one `error: out of memory: ...` line.
Output is plain text with no color, and all randomness comes from explicit
--seed flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import aut_e_generators, is_isomorphic
from .graphs import GraphError, format_graph_text, parse_graph_text
from .harness import BENCH_MODES, bench_csv, bench_run, bench_summary, random_ternary_graph
from .perm import cycle_string
from .phylo import (
    NetworkError,
    parse_enewick,
    phylo_isomorphic,
    random_network,
    write_enewick,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4
EXIT_MEMORY = 5


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _load_graph(path: str):
    try:
        return parse_graph_text(_read(path))
    except GraphError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_network(path: str):
    try:
        return parse_enewick(_read(path))
    except NetworkError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigiso",
        description="Isomorphism of ternary graphs and rooted binary phylogenetic networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_iso = sub.add_parser("iso", help="test two graph files for isomorphism")
    p_iso.add_argument("first")
    p_iso.add_argument("second")
    p_iso.add_argument("--mapping", action="store_true", help="print a witness mapping")

    p_aut = sub.add_parser("aut", help="generators of the edge-fixing automorphisms")
    p_aut.add_argument("graph")
    p_aut.add_argument("--edge", required=True, metavar="U,V")

    p_phylo = sub.add_parser("phylo-iso", help="test two eNewick files for isomorphism")
    p_phylo.add_argument("first")
    p_phylo.add_argument("second")
    p_phylo.add_argument("--mapping", action="store_true")

    p_gen = sub.add_parser("gen", help="generate random inputs")
    gen_sub = p_gen.add_subparsers(dest="what", required=True)
    g_graph = gen_sub.add_parser("graph")
    g_graph.add_argument("n", type=int)
    g_graph.add_argument("--seed", type=int, default=0)
    g_graph.add_argument("--out")
    g_net = gen_sub.add_parser("network")
    g_net.add_argument("n", type=int)
    g_net.add_argument("--hybrid-prob", type=float, default=0.5)
    g_net.add_argument("--seed", type=int, default=0)
    g_net.add_argument("--out")

    p_bench = sub.add_parser("bench", help="run the benchmark protocol")
    p_bench.add_argument("--mode", required=True, choices=BENCH_MODES)
    p_bench.add_argument("--sizes", required=True, metavar="a,b,c")
    p_bench.add_argument("--trials", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out")
    return parser


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"--edge takes two comma-separated ids, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"--edge ids must be integers, got {text!r}") from exc


def _seed_ok(seed: int):
    if not 0 <= seed < 1 << 64:
        raise InputError("seeds are 64-bit unsigned integers")


def _cmd_pair(args) -> int:
    """`iso` on two graph files or `phylo-iso` on two eNewick files."""
    # The decision is looked up here, when the command runs, so that the
    # module's name can be patched.
    if args.command == "iso":
        load, decide, error = _load_graph, is_isomorphic, GraphError
    else:
        load, decide, error = _load_network, phylo_isomorphic, NetworkError
    first, second = load(args.first), load(args.second)
    try:
        res = decide(first, second, want_mapping=args.mapping)
    except error as exc:
        raise InputError(str(exc)) from exc
    if args.mapping and res.mapping is not None:
        for u in sorted(res.mapping):
            print(f"{u} -> {res.mapping[u]}")
    print("true" if res.isomorphic else "false")
    return EXIT_OK


def _cmd_aut(args) -> int:
    g = _load_graph(args.graph)
    edge = _parse_edge(args.edge)
    try:
        res = aut_e_generators(g, edge)
    except GraphError as exc:
        raise InputError(str(exc)) from exc
    for gen in res.generators:
        print(cycle_string(gen, res.node_order))
    if not res.generators:
        print("()")
    return EXIT_OK


def _cmd_gen(args) -> int:
    _seed_ok(args.seed)
    if args.what == "graph":
        if args.n < 2:
            raise InputError("graph generation needs n >= 2")
        _emit(format_graph_text(random_ternary_graph(args.n, args.seed)), args.out)
    else:
        try:
            net = random_network(args.n, hybrid_prob=args.hybrid_prob, seed=args.seed)
        except NetworkError as exc:
            raise InputError(str(exc)) from exc
        _emit(write_enewick(net) + "\n", args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    _seed_ok(args.seed)
    try:
        sizes = [int(x) for x in args.sizes.split(",") if x]
    except ValueError as exc:
        raise InputError(f"--sizes must be comma-separated integers: {exc}") from exc
    if not sizes or min(sizes) < 2:
        raise InputError("--sizes must name sizes of at least 2 nodes")
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    records = bench_run(args.mode, sizes, trials=args.trials, seed=args.seed)
    _emit(bench_csv(records), args.out)
    print(bench_summary(records), file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "iso": _cmd_pair,
    "aut": _cmd_aut,
    "phylo-iso": _cmd_pair,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        detail = " ".join(str(exc).split()) or "assertion failed"
        print(f"error: internal: {detail}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:
        detail = " ".join(str(exc).split()) or "no detail"
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return EXIT_MEMORY


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
