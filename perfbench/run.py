"""ncphase benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum-large --seed 1 --seconds 30 --trace 0

The run imports the package from ``src/`` next to this directory, generates
the workload's operations from the seed, and repeats whole passes over them
until the next pass would end after ``--seconds``.  Every operation's output
is checked against the golden results in ``golden/``.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics instead.  The lines before it list every metric by name,
with its unit, for a reader.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# Each probe is a fresh interpreter timed from spawn to ready; setup_s is
# their median.  They run between passes, spread over the run, so that they
# sample the machine's speed at several moments.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
# One BLAS thread: on a 2-vCPU machine an N=16 spectrum took 0.08-0.28 s over
# 8 calls with two threads and 0.067-0.074 s with one (README.md, "Noise").
BLAS_THREADS = "1"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics BENCHMARK.json gates and the JSON line carries.  On
# a shared virtual machine the CPU's speed can switch between two levels
# 1.6x apart, in phases of seconds to minutes, so whole runs can land on
# either level.  A quantile of one run (median or tail) then jumps between
# the levels from run to run; the throughput, a mean over the run, moves
# least (README.md, "Noise").  Every metric is printed.
GATED = ("setup_s", "ops_per_s", "peak_rss_mb")


def prepare_environment() -> None:
    """Pin BLAS threads and put the repository's ``src`` first on the path.

    Exits with status 1 when the package source is missing, so a copy of the
    benchmark alone never reports a result.
    """
    package = ROOT / "src" / "ncphase" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no package source at {package.parent}")
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))


@dataclass
class Pass:
    wall: float
    samples: list  # (op, latency in s, parts)
    failed: int


def run_pass(workload, ops: list, golden: dict, tracer=None) -> Pass:
    """Run every operation once, timed, then check the outputs untimed."""
    clock = time.perf_counter
    raws, latencies, parts = [], [], []
    started = clock()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        begun = clock()
        try:
            raw = workload.execute(op)
        except Exception as exc:  # a crashing operation fails; the run goes on
            raw = exc
        latencies.append(clock() - begun)
        raws.append(raw)
        parts.append({} if isinstance(raw, BaseException) else workload.parts(op, raw))
    wall = clock() - started
    failed = 0
    for op, raw in zip(ops, raws):
        if not workload.check(op, raw, golden):
            failed += 1
            reason = f": {raw!r}" if isinstance(raw, BaseException) else ""
            print(f"perfbench: {workload.name} operation {op.key} failed{reason}", file=sys.stderr)
    return Pass(wall, list(zip(ops, latencies, parts)), failed)


def tally(passes: list) -> tuple:
    """(operations attempted, operations failed) over all passes."""
    return sum(len(p.samples) for p in passes), sum(p.failed for p in passes)


def repeat(run_round, seconds: float) -> list:
    """Whole rounds until the next one would end after ``seconds``; at least one."""
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(run_round())
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond it.

    Nearest rank: the r-th smallest of n samples is the 100 r / n percentile
    and has n - r samples beyond it, so r = n - 10.  Below 22 samples that
    rank falls under the upper median, n // 2 + 1, which is used instead, so
    the tail never reads below the median.  Returns (value, percentile,
    samples beyond).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first timed operation."""
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup", repr(spawned)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def end_to_end(workload, passes: list, setup_s: float) -> tuple:
    """(metrics, extras): the END_TO_END metrics, then details and the
    metrics that apply to this workload only, each as name -> (value, unit)."""
    walls = [p.wall for p in passes]
    samples = [sample for p in passes for sample in p.samples]
    latencies = [latency for _op, latency, _parts in samples]
    attempted = len(samples)
    tail_s, percentile, beyond = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": attempted / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extras = {
        "op_tail_percentile": (percentile, "%"),
        "op_tail_samples_beyond": (beyond, "count"),
        "op_samples": (attempted, "count"),
        "passes": (len(passes), "count"),
    }
    extras.update(workload.extras(samples, sum(walls)))
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, extras


def traced_rounds(workload, ops: list, golden: dict, seconds: float, seed: int) -> tuple:
    """Alternate untraced and traced passes; returns (passes, per-layer metrics)."""
    from tracing import PER_LAYER, Tracer, layer_metrics  # loads numpy: after prepare_environment

    tracer = Tracer()
    untraced, traced, layers, first_spans = [], [], [], None

    def run_round():
        untraced.append(run_pass(workload, ops, golden))
        tracer.reset()
        with tracer.installed():
            traced.append(run_pass(workload, ops, golden, tracer))
        layers.append(layer_metrics(tracer.spans, tracer.counts))
        nonlocal first_spans
        if first_spans is None:
            first_spans = tracer.spans

    repeat(run_round, seconds)
    per_layer = {}
    for name, (unit, _better) in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            value = (statistics.median(p.wall for p in traced)
                     / statistics.median(p.wall for p in untraced) - 1)
        elif unit == "s":
            value = statistics.median(layer[name] for layer in layers)
        else:  # counts repeat exactly from pass to pass
            value = layers[0][name]
        per_layer[name] = (value, unit)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{workload.name}-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(first_spans, handle)
    return untraced + traced, per_layer


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    import ncphase
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    ncphase.build_hamiltonian()
    ops = workload.generate(args.seed)
    golden = workload.load_golden()
    if args.probe_setup is not None:
        print(time.time() - args.probe_setup)
        return 0

    try:
        workload.warm_up(ops)
    except Exception:  # the same operation fails, and is counted, in the passes
        pass

    if args.trace:
        passes, metrics = traced_rounds(workload, ops, golden, args.seconds, args.seed)
        extras = {}
    else:
        probes, started = [], time.perf_counter()

        def run_round():
            timed = run_pass(workload, ops, golden)
            due = len(probes) * args.seconds / SETUP_PROBES
            if len(probes) < SETUP_PROBES and time.perf_counter() - started >= due:
                probes.append(probe_setup(args.workload, args.seed))
            return timed

        passes = repeat(run_round, args.seconds)
        probes += [probe_setup(args.workload, args.seed)
                   for _ in range(SETUP_PROBES - len(probes))]
        metrics, extras = end_to_end(workload, passes, statistics.median(probes))

    attempted, failed = tally(passes)
    extras["failed_ratio"] = (failed / attempted, "ratio")
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {attempted} operations, {failed} failed")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                    if args.trace or name in GATED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
