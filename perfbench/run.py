"""Closed-loop benchmark of whole isomorphism decisions through trigiso's public API.

    python3 perfbench/run.py --workload graph-relabel --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process, one thread, one pair at a time:
each pair is parsed from text and decided with default arguments
(`is_isomorphic(..., want_mapping=True)` or `phylo_isomorphic(...)`), then its
verdict and mapping are checked against the benchmark's own certificate.
With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
decides every pair twice, once untraced and once with per-layer spans
installed, and prints the per-layer metrics.  The last line of
standard output is one JSON object; the exit code is 0 only when every
verdict and mapping checked out.  Keep assertions on: do not run under -O.

Times are reported at reference speed.  A shared host's own speed drifted
by a third or more within minutes, so every timed step is bracketed by runs
of a fixed pure-Python reference loop that does not touch trigiso, and its
seconds are scaled by REF_SECONDS over the reference's measured time around
it: they are the seconds the step takes on a machine where `reference()`
takes REF_SECONDS.  The plain wall-clock figures are printed too, above the
JSON line.
"""

import argparse
import dataclasses
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
MAX_REDRAWS = 20
# Nominal seconds of one `reference()` call.  On a shared 2-core x86-64 Linux
# container with CPython 3.11 it took 0.015-0.04 s, as the host's load came
# and went; scaled times read as that host's wall seconds when it ran slow.
REF_SECONDS = 0.03

# Distinct pairs built per run; a run cycles through them.  graph-relabel's
# pool is small enough that a 20-second run decides all of it at least once;
# the others are sized so that a run decides each pair at most about once.
POOL_SIZE = {
    "graph-relabel": 40,
    "graph-switch": 128,
    "graph-cfi": 32,
    "network-twin": 48,
}
# Workloads whose every pair must reach the tower.
TOWER_WORKLOADS = {"graph-relabel", "graph-cfi", "network-twin"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_trigiso():
    if not (SRC / "trigiso" / "__init__.py").is_file():
        _fail(f"no trigiso sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import trigiso

    if Path(trigiso.__file__).resolve().parent != (SRC / "trigiso").resolve():
        _fail(f"imported trigiso from {trigiso.__file__}, not from {SRC}")
    import instances
    import tracing

    return trigiso, instances, tracing


def reference() -> int:
    """Fixed pure-Python work, independent of trigiso, that paces the host."""
    rng = random.Random(7)
    counts: dict[int, int] = {}
    acc = 0
    for i in range(16000):
        k = rng.randrange(2000)
        counts[k] = counts.get(k, 0) + 1
        acc += len({k, i & 255, (k * 31) & 1023}) + sum(t for t in (k, i) if t & 1)
    return acc + len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))


def time_reference() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def timed_at_reference(step, *args):
    """Run `step(*args)` between two reference runs.

    Returns its result, its wall seconds and its seconds at reference speed.
    """
    before = time_reference()
    t0 = perf_counter()
    out = step(*args)
    wall = perf_counter() - t0
    return out, wall, wall * REF_SECONDS / ((before + time_reference()) / 2)


def decide(trigiso, kind: str, text1: str, text2: str):
    """One user-visible decision: parse both inputs, then decide them."""
    if kind == "graph":
        x1 = trigiso.parse_graph_text(text1)
        x2 = trigiso.parse_graph_text(text2)
        return x1, x2, trigiso.is_isomorphic(x1, x2, want_mapping=True)
    x1 = trigiso.parse_enewick(text1)
    x2 = trigiso.parse_enewick(text2)
    return x1, x2, trigiso.phylo_isomorphic(x1, x2, want_mapping=True)


def run_pair(trigiso, instances, pair, i: int, step=decide):
    """Decide one pair and check the answer; returns (seconds, verdict or None, ok).

    Only the parse and decide calls are inside the timed region.
    """
    t0 = perf_counter()
    try:
        x1, x2, res = step(trigiso, pair.kind, pair.text1, pair.text2)
    except Exception:
        elapsed = perf_counter() - t0
        print(f"pair {i}: exception\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, None, False
    elapsed = perf_counter() - t0
    ok = res.isomorphic == pair.answer
    if not ok:
        print(f"pair {i}: verdict {res.isomorphic}, certified {pair.answer}", file=sys.stderr)
    elif pair.answer:
        check = instances.graph_mapping_ok if pair.kind == "graph" else instances.network_mapping_ok
        ok = check(x1, x2, res.mapping)
        if not ok:
            print(f"pair {i}: the returned mapping fails the check", file=sys.stderr)
    return elapsed, res.isomorphic, ok


def pair_means(times: list[float], pool_size: int) -> list[float]:
    """Mean seconds of each pool pair decided, where decision i was pair i % pool_size.

    Metrics are taken over these, so a pair decided twice because the run
    wrapped round the pool weighs no more than one decided once.
    """
    by_pair: dict[int, list[float]] = {}
    for i, t in enumerate(times):
        by_pair.setdefault(i % pool_size, []).append(t)
    return [statistics.fmean(ts) for ts in by_pair.values()]


def run_plain(trigiso, instances, pool, seconds: float):
    """Closed loop: decide the pool's pairs in turn, one at a time, for `seconds`.

    A reference run precedes every pair and follows the last one.  Returns the
    results and, per pair, the factor that turns its wall seconds into seconds
    at reference speed.
    """
    results, ref = [], [time_reference()]
    start = perf_counter()
    while perf_counter() - start < seconds:
        i = len(results)
        results.append(run_pair(trigiso, instances, pool[i % len(pool)], i))
        ref.append(time_reference())
    return results, speed_factors(ref)


def speed_factors(ref: list[float]) -> list[float]:
    """Per step between reference runs k and k+1: REF_SECONDS over their mean."""
    return [2 * REF_SECONDS / (a + b) for a, b in zip(ref, ref[1:])]


def run_traced(trigiso, instances, pool, seconds: float, tracer):
    """Decide each pair untraced and traced, alternating which goes first.

    Returns the untraced and the traced results, entry i of both being pair i,
    and per pair the speed factor of the references around its two decisions.
    """
    step = tracer.span(tracer.PAIR_SPAN, decide)
    plain, traced, ref = [], [], [time_reference()]
    start = perf_counter()
    while perf_counter() - start < seconds:
        i = len(plain)
        pair = pool[i % len(pool)]
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(run_pair(trigiso, instances, pair, i))
                continue
            tracer.pair_id = i
            tracer.install()
            try:
                traced.append(run_pair(trigiso, instances, pair, i, step))
            finally:
                tracer.remove()
        ref.append(time_reference())
    return plain, traced, speed_factors(ref)


def import_seconds() -> float:
    """Wall seconds for a fresh interpreter to start and import trigiso."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import trigiso"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - t0


def set_up(instances, workload: str, seed: int):
    """Build and certify the run's pool; returns it with the set-up seconds.

    Pairs the certificate cannot settle are redrawn.  The pool keeps only the
    texts, so that peak memory belongs to the decisions.  Set-up time is the
    median of SETUP_REPEATS interpreter starts with the import, in wall seconds,
    plus the median of SETUP_REPEATS builds of the certified pool at reference
    speed; certification is not counted.  The import is mostly process start
    and library loading, which the reference loop does not pace: scaling it
    made it spread more, not less.
    """
    pool, attempts = [], []
    for k in range(POOL_SIZE[workload]):
        for attempt in range(MAX_REDRAWS):
            pair = instances.build_pair(workload, seed, k, attempt)
            if instances.certify(workload, pair):
                break
        else:
            _fail(f"pair {k} still uncertified after {MAX_REDRAWS} draws")
        pool.append(dataclasses.replace(pair, obj1=None, obj2=None))
        attempts.append(attempt)
    texts = [(p.text1, p.text2) for p in pool]

    def build():
        return [
            (pair.text1, pair.text2)
            for pair in (instances.build_pair(workload, seed, k, attempt)
                         for k, attempt in enumerate(attempts))
        ]

    build_s, import_s = [], []
    for _ in range(SETUP_REPEATS):
        rebuilt, _, scaled = timed_at_reference(build)
        build_s.append(scaled)
        if rebuilt != texts:
            _fail("two builds from the same seed differ")
        import_s.append(import_seconds())
    return pool, statistics.median(import_s) + statistics.median(build_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL_SIZE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    trigiso, instances, tracing = _import_trigiso()
    try:
        pool, setup_s = set_up(instances, args.workload, args.seed)
    except instances.CertificateError as exc:
        _fail(str(exc))

    if args.trace == 0:
        results, speed = run_plain(trigiso, instances, pool, args.seconds)
        correct = all(ok for _, _, ok in results)
        wall = [t for t, _, _ in results]
        times = pair_means([t * f for t, f in zip(wall, speed)], len(pool))
        wall = pair_means(wall, len(pool))
        print(f"wall clock: pairs_per_s {len(wall) / sum(wall):.6g} 1/s, "
              f"pair_s_p50 {statistics.median(wall):.6g} s, "
              f"host speed vs reference {statistics.median(speed):.4g}")
        metrics = {
            "pairs_per_s": (len(times) / sum(times), "1/s"),
            "pair_s_p50": (statistics.median(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer = tracing.Tracer()
        plain, traced, speed = run_traced(trigiso, instances, pool, args.seconds, tracer)
        results = plain + traced
        correct = all(ok for _, _, ok in results)
        if [v for _, v, _ in plain] != [v for _, v, _ in traced]:
            print("traced and untraced verdicts differ", file=sys.stderr)
            correct = False
        n = len(traced)
        positives = sum(1 for _, v, _ in traced if v)
        verifier = ("graphs.is_graph_isomorphism" if pool[0].kind == "graph"
                    else "phylo.is_network_isomorphism")
        calls, _ = tracer.self_times()
        if calls[verifier] != positives:
            print(f"{verifier} ran {calls[verifier]} times for {positives} positive pairs",
                  file=sys.stderr)
            correct = False
        if args.workload in TOWER_WORKLOADS:
            towers = tracer.calls_per_pair("layers.layer_sequence")
            idle = [i for i in range(n) if towers[i] == 0]
            if idle:
                print(f"pairs {idle} never reached the tower", file=sys.stderr)
                correct = False
        metrics = tracing.per_layer_metrics(tracer, n, speed)
        overhead = sum(t for t, _, _ in traced) / sum(t for t, _, _ in plain) - 1
        metrics["trace_overhead"] = (overhead, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    failed = sum(1 for _, _, ok in results if not ok)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"pairs: {len(results)} attempted, {failed} failed, "
          f"error_rate {failed / len(results):.6g}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
