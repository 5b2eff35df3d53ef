"""Run one workload of the eccbounds benchmark and print its result.

    python3 perfbench/run.py --workload certify-expander --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one process each

The program is imported from ``src/`` next to this directory.  The run sets
up its inputs from the seed, attempts whole rounds of operations for at
least ``--seconds``, then checks every output against the independent
reference.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Times are scaled to the reference speed defined in ``calibrate.py``; the
readable summary on standard error also gives the unscaled wall times.
"""
import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calibrate import Pacer

PACER = Pacer()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
WORKLOADS = ("certify-expander", "chain-sharpness", "batch-sweep", "bound-grid")
SETUP_REPEATS = 5
IMPORT_REPEATS = 11
# run in a fresh interpreter: how long importing the program and the
# workloads takes there, in nanoseconds
_IMPORT_PROBE = """\
import sys, time
t0 = time.perf_counter_ns()
sys.path[:0] = sys.argv[1:]
import eccbounds, workloads
print(time.perf_counter_ns() - t0)
"""


class Latencies:
    """Every op latency of a run, pooled in constant memory: a histogram on
    a log scale with buckets 0.1% wide, so the median of a million short
    ops costs no more memory than that of ten long ones."""

    STEPS = 1000  # buckets per factor of e

    def __init__(self):
        self.counts: Counter = Counter()
        self.n = 0

    def add(self, ns: float) -> None:
        self.counts[math.floor(math.log(max(ns, 1.0)) * self.STEPS)] += 1
        self.n += 1

    def median(self) -> float:
        """Interpolated within the bucket that holds the middle rank."""
        half, seen = self.n / 2, 0
        for bucket in sorted(self.counts):
            count = self.counts[bucket]
            if seen + count >= half:
                return math.exp((bucket + (half - seen) / count) / self.STEPS)
            seen += count
        raise ValueError("no latencies")


def _import_s() -> float:
    """Import ``eccbounds`` and the workloads in ``IMPORT_REPEATS`` fresh
    interpreters; median scaled seconds.  One import per process would be
    a single sample of a noisy few tens of milliseconds."""
    scaled = []
    for _ in range(IMPORT_REPEATS):
        # A kernel run alongside the child would compete with it and read
        # slow, so the pacer pauses; stopping and restarting it runs the
        # kernel just before and just after the child instead.
        PACER.stop()
        try:
            t0 = time.perf_counter_ns()
            out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
                                 capture_output=True, text=True, check=True).stdout
            t1 = time.perf_counter_ns()
        finally:
            PACER.start()
        scaled.append(PACER.scaled(t0, t1, int(out.split()[-1])))
    return statistics.median(scaled) / 1e9


def _setup(wl, work: Path) -> float:
    """Build the inputs ``SETUP_REPEATS`` times; median scaled seconds."""
    scaled = []
    for i in range(SETUP_REPEATS):
        s0 = PACER.stolen_ns
        t0 = time.perf_counter_ns()
        wl.setup(work / f"setup{i}")
        t1 = time.perf_counter_ns()
        scaled.append(PACER.scaled(t0, t1, t1 - t0 - (PACER.stolen_ns - s0)))
    return statistics.median(scaled) / 1e9


def _timed_rounds(wl, seconds: float, tracer=None) -> dict:
    """Attempt whole rounds until ``seconds`` have passed.

    Without a tracer every round is timed plainly.  With one, rounds
    alternate untraced and traced, in whole pairs, so the run measures the
    tracing overhead itself.
    """
    import workloads
    if tracer is not None:
        from spans import instrument

    stats = {"attempted": 0, "failed": 0, "errors": [], "rounds": 0,
             "latency": Latencies(), "raw_latency": Latencies(),
             "round_s": {False: [], True: []}, "scaled_s": 0.0, "raw_s": 0.0,
             "ops_per_round": 0}
    start = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        ops = wl.round(r)
        timings = []  # (start, end, wall ns without kernel runs) per op
        with instrument(tracer, workloads.TRACED_NAMES) if traced else contextlib.nullcontext():
            for i, op in enumerate(ops):
                if traced:
                    tracer.op_id += 1
                s0 = PACER.stolen_ns
                t0 = time.perf_counter_ns()
                try:
                    op()
                except Exception as exc:  # an op that fails is counted, not fatal
                    stats["failed"] += 1
                    if len(stats["errors"]) < 5:
                        stats["errors"].append(f"round {r} op {i}: {type(exc).__name__}: {exc}")
                t1 = time.perf_counter_ns()
                timings.append((t0, t1, t1 - t0 - (PACER.stolen_ns - s0)))
        raw = [ns for _, _, ns in timings]
        scaled = [PACER.scaled(*t) for t in timings]
        if traced:
            tracer.end_round(sum(scaled) / sum(raw))
        stats["round_s"][traced].append(sum(scaled) / 1e9)
        stats["scaled_s"] += sum(scaled) / 1e9
        stats["raw_s"] += sum(raw) / 1e9
        for ns, raw_ns in zip(scaled, raw):
            stats["latency"].add(ns)
            stats["raw_latency"].add(raw_ns)
        stats["rounds"] += 1
        stats["attempted"] += len(ops)
        stats["ops_per_round"] = len(ops)
        r += 1
        if time.perf_counter() - start >= seconds and (tracer is None or r % 2 == 0):
            break
    stats["elapsed"] = time.perf_counter() - start
    return stats


def run_one(args) -> int:
    if not (SRC / "eccbounds" / "__init__.py").is_file():
        print(f"perfbench: no eccbounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ECCB_THREADS", None)  # batch runs with its default thread count
    import eccbounds
    import workloads

    if Path(eccbounds.__file__).resolve().parent != (SRC / "eccbounds").resolve():
        print(f"perfbench: imported eccbounds from {eccbounds.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = RUNS / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = workloads.BY_NAME[args.workload](args.seed)
        setup_s = _import_s() + _setup(wl, work)
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer(lambda: PACER.stolen_ns)
        stats = _timed_rounds(wl, args.seconds, tracer)
        PACER.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        mismatches = wl.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = stats["attempted"] - stats["failed"]
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": done / stats["scaled_s"], "unit": "1/s"},
            "op_p50_ms": {"value": stats["latency"].median() / 1e6, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        from spans import layer_metrics
        plain, traced = stats["round_s"][False], stats["round_s"][True]
        overhead_ms = ((statistics.median(traced) - statistics.median(plain)) * 1e3
                       / stats["ops_per_round"])
        metrics = layer_metrics(tracer, len(traced), len(traced) * stats["ops_per_round"],
                                overhead_ms)
        RUNS.mkdir(exist_ok=True)
        trace_path = RUNS / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.dump(trace_path)
        print(f"spans -> {trace_path} ({len(tracer.spans)} of {tracer.next_id} kept)",
              file=sys.stderr)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{stats['rounds']} rounds, {stats['attempted']} ops attempted, "
          f"{stats['failed']} failed, {stats['elapsed']:.2f} s wall", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6f} {m['unit']}", file=sys.stderr)
    print(f"  unscaled: ops_per_s {done / stats['raw_s']:.6f}, op_p50_ms "
          f"{stats['raw_latency'].median() / 1e6:.6f}", file=sys.stderr)
    rounds_s = stats["round_s"][False] + stats["round_s"][True]
    print(f"  scaled seconds per round: median {statistics.median(rounds_s):.4f}, "
          f"range {min(rounds_s):.4f}-{max(rounds_s):.4f}", file=sys.stderr)
    for bg in getattr(wl, "graphs", ()):
        print(f"  input {bg.name}: sha256 {bg.sha256()}", file=sys.stderr)
    for line in stats["errors"] + mismatches[:20]:
        print(f"  ! {line}", file=sys.stderr)
    if len(mismatches) > 20:
        print(f"  ! ... {len(mismatches) - 20} more mismatches", file=sys.stderr)

    print(json.dumps({"correct": not mismatches, "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<32} {m['value']:>14.6f} {m['unit']}")
    print(json.dumps(results))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":  # the workloads' own processes do the measuring
        return run_all(args)
    PACER.start()
    try:
        return run_one(args)
    finally:
        PACER.stop()


if __name__ == "__main__":
    sys.exit(main())
