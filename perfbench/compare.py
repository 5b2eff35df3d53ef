"""Compare two commits on the benchmark, run in alternating pairs.

    python3 perfbench/compare.py run --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \\
        --out pairs.jsonl [--pairs 10]
    python3 perfbench/compare.py report pairs.jsonl

``run`` executes each checkout's own ``perfbench/run.py`` (the two copies
must be identical) once per pair and workload of ``BENCHMARK.json``,
alternating which side goes first, with seed ``pair + 1`` on both sides of a
pair, and appends one JSON line per run to ``--out``.  ``report`` reads such
a file and prints, per workload and end-to-end metric, each side's median
and quartiles, the share of pairs the change won (ties count for neither)
and a verdict.  It exits 1 if a workload has no complete pair.  The verdicts,
the first that holds:

- wrong: a run of the change failed its checks, or a larger share of the
  change's ops failed than of the parent's; this is given for every metric
  of the workload;
- improved: at least ten pairs were run, the change wins at least 9/10 of
  them and its median is better than the parent's by more than the
  parent's interquartile spread;
- unresolved: either side's interquartile spread, as a share of its median,
  is wider than the metric's bound, and not every change run beats every
  parent run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unchanged: otherwise.

Bounds and directions come from ``BENCHMARK.json`` next to this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((checkout / "perfbench").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def cmd_run(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    if _bench_digest(sides["parent"]) != _bench_digest(sides["change"]):
        print("compare: the two checkouts carry different benchmark code", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = pair + 1
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in names:
                for side in order:
                    proc = subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload", name,
                         "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                         "--trace", "0"],
                        cwd=sides[side], capture_output=True, text=True, check=False)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        print(f"compare: {side} {name} seed {seed} exited {proc.returncode}\n"
                              f"{proc.stderr}", file=sys.stderr)
                        return 2
                    out.write(json.dumps({"side": side, "workload": name, "pair": pair,
                                          "seed": seed, "result": json.loads(lines[-1])}) + "\n")
                    out.flush()
                    print(f"pair {pair} {name} {side} done", file=sys.stderr)
    return cmd_report(argparse.Namespace(results=args.out))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, lower_is_better: bool, bound: float):
    """Verdict and won share for one metric of runs that all passed their
    checks; ``parent``/``change`` by pair."""
    sign = 1 if lower_is_better else -1  # sign * (a - b) > 0: a is worse than b
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = _quartiles(parent)
    cq1, cq3 = _quartiles(change)
    spread = max((pq3 - pq1) / abs(pm), (cq3 - cq1) / abs(cm))
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (len(pairs) >= 10 and sign * (pm - cm) > 0 and wins >= math.ceil(0.9 * len(pairs))
            and abs(pm - cm) > pq3 - pq1):
        return "improved", wins / len(pairs)
    if spread > bound and not all_better:
        return "unresolved", wins / len(pairs)
    if sign * (cm - pm) > bound * abs(pm):
        return "worse", wins / len(pairs)
    return "unchanged", wins / len(pairs)


def cmd_report(args) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = [json.loads(line) for line in Path(args.results).read_text().splitlines() if line]
    print(f"{'workload':<18} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>5}  verdict")
    status = 0
    for w in spec["workloads"]:
        by_side = {side: {r["pair"]: r["result"] for r in runs
                          if r["workload"] == w["name"] and r["side"] == side}
                   for side in ("parent", "change")}
        pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
        if not pairs:
            print(f"{w['name']:<18} no pair of parent and change runs", file=sys.stderr)
            status = 1
            continue
        failed_share = {side: sum(by_side[side][p]["failed"] for p in pairs)
                        / sum(by_side[side][p]["attempted"] for p in pairs)
                        for side in ("parent", "change")}
        blocked = (failed_share["change"] > failed_share["parent"]
                   or not all(by_side["change"][p]["correct"] for p in pairs))
        for m in spec["end_to_end"]:
            parent = [by_side["parent"][p]["metrics"][m["name"]]["value"] for p in pairs]
            change = [by_side["change"][p]["metrics"][m["name"]]["value"] for p in pairs]
            v, won = verdict(parent, change, m["better"] == "lower", m["bound"])
            if blocked:
                v = "wrong"
            cols = []
            for vals in (parent, change):
                q1, q3 = _quartiles(vals)
                cols.append(f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}] {m['unit']}")
            print(f"{w['name']:<18} {m['name']:<12} {cols[0]:<34} {cols[1]:<34} "
                  f"{won:>5.0%}  {v}")
        for side in ("parent", "change"):
            res = [by_side[side][p] for p in pairs]
            failed = sum(r["failed"] for r in res)
            attempted = sum(r["attempted"] for r in res)
            wrong = sum(1 for r in res if not r["correct"])
            print(f"{'':<18} {side}: {failed}/{attempted} ops failed, "
                  f"{wrong} of {len(res)} runs with failed checks")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run both checkouts in alternating pairs, then report")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--out", required=True, help="JSONL file the runs are appended to")
    r.add_argument("--pairs", type=int, default=10)
    r.set_defaults(func=cmd_run)
    p = sub.add_parser("report", help="print the verdicts for a JSONL file of runs")
    p.add_argument("results")
    p.set_defaults(func=cmd_report)
    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
