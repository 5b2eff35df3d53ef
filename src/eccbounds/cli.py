"""Command-line surface: compute, bound, certify, generate, chain, batch.

Exit codes: 0 success / all checks hold, 1 usage error, 2 unreadable or
invalid input, 3 the requested operation does not apply to the input,
4 a bound violation or failed certificate chain was found.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import UPPER_BOUND_IDS, evaluate_all, measure
from .certify import NotCertifiableError, _UnionFind, certify
# certify_odd and certify_even stay importable from here: the benchmark's
# tracer (perfbench/spans.py) looks both names up in this module
from .certify import certify_even, certify_odd  # noqa: F401
from .extremal import _dec, chain_graph, sharpness_rows_to_csv, sharpness_report
from .generators import GenerationFailure, GeneratorConfig, emit_edge_list, generate_measured
from .graph import (
    DisconnectedGraphError,
    EdgeListParseError,
    Graph,
    _edge_list_pairs,
    _emitted_graph,
    eccentricity_profile,
)
# these stay importable from here for the same tracer, which also wraps girth
# in every module that measures a graph
from .generators import random_min_degree_girth  # noqa: F401
from .graph import girth, parse_edge_list  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INAPPLICABLE = 3
EXIT_VIOLATION = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_graph(path: str, certifying: bool = False) -> Graph:
    """The graph of an edge-list file, or of stdin for ``-``.  Text as
    ``eccb generate`` writes it takes the fast path; the rest goes to the line
    parser.  A header ``n m`` with ``m < n - 1`` cannot be connected, so it
    raises before ``n`` vertices are allocated; when ``certifying``, a forest
    raises what certify would."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    g = _emitted_graph(data)  # None when m < n - 1, among others
    if g is not None:
        return g
    n, pairs = _edge_list_pairs(data)
    if len(pairs) < n - 1:
        if certifying:
            distinct = {(u, v) if u < v else (v, u) for u, v in pairs}
            uf = _UnionFind({x for e in distinct for x in e})
            if all(uf.union(u, v) for u, v in distinct):
                raise NotCertifiableError("graph is acyclic: nothing to certify")
        raise DisconnectedGraphError(f"{len(pairs)} edges cannot connect {n} vertices")
    return Graph.from_edges(n, pairs)


def _girth_str(g_val) -> str:
    return "acyclic" if g_val is None else str(g_val)


# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    g = _read_graph(args.input)
    measured = measure(g)  # the profile raises on disconnected input
    prof, p = measured.profile, measured.params
    if args.json:
        payload = {
            "n": p.n,
            "m": g.m,
            "minDegree": p.delta,
            "maxDegree": p.Delta,
            "girth": p.g,
            "ecc": list(prof.ecc),
            "total": prof.total,
            "avec": str(prof.avec),
            "avecDecimal": _dec(prof.avec),
            "radius": prof.radius,
            "diameter": prof.diameter,
        }
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(f"n={p.n} m={g.m} minDeg={p.delta} maxDeg={p.Delta} girth={_girth_str(p.g)}")
        print(f"avec={prof.avec} ({_dec(prof.avec)}) radius={prof.radius} "
              f"diameter={prof.diameter} total={prof.total}")
    return EXIT_OK


def cmd_bound(args) -> int:
    g = _read_graph(args.input)
    results = evaluate_all(g)
    if args.only:
        wanted = args.only.lower()
        results = [r for r in results if r.bound.value.lower() == wanted]
        if not results:
            ids = ", ".join(b.value for b in UPPER_BOUND_IDS)
            print(f"unknown bound id {args.only!r}; choose from {ids}", file=sys.stderr)
            return EXIT_USAGE
    if args.json:
        print(json.dumps([r.to_json_dict() for r in results],
                         sort_keys=True, separators=(",", ":")))
        return EXIT_OK
    for r in results:
        if r.applicable:
            sat = "satisfied" if r.satisfied else "VIOLATED"
            print(f"{r.bound.value:<22} {str(r.value):<14} ({_dec(r.value)})  {sat}")
        else:
            print(f"{r.bound.value:<22} not applicable: {r.reason}")
    return EXIT_OK


def cmd_certify(args) -> int:
    g = _read_graph(args.input, certifying=True)
    cert = certify(g, use_max_degree=args.maxdeg)  # a forest raises: exit 3
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = "stdin" if args.input == "-" else Path(args.input).stem
    out_path = out_dir / f"{stem}.cert.json"
    text = cert.to_json()
    out_path.write_text(text + "\n")
    if args.json:
        print(text)
    print(f"{cert.bound_id}: allStepsHold={cert.all_steps_hold} "
          f"bound={cert.chain['finalBound']} avec={cert.chain['avecG']} -> {out_path}")
    return EXIT_OK if cert.all_steps_hold else EXIT_VIOLATION


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(n=args.n, delta=args.delta, g=args.g, seed=args.seed)
    out = generate_measured(cfg)  # the generator's re-verification measured the girth
    if isinstance(out, GenerationFailure):
        print(f"generation failed after {out.restarts} restarts "
              f"({out.attempts} attempts): {out.reason}")
        return EXIT_VIOLATION if args.strict else EXIT_OK
    graph, measured_girth = out
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"gen_n{args.n}_d{args.delta}_g{args.g}_s{args.seed}.el"
    path.write_text(emit_edge_list(graph, cfg))
    print(f"n={graph.n} m={graph.m} minDeg={graph.min_degree()} girth={measured_girth} -> {path}")
    return EXIT_OK


def cmd_chain(args) -> int:
    if args.report and args.delta < 3:  # the girth bound is singular below 3
        print(f"sharpness report needs minimum degree >= 3, got delta={args.delta}",
              file=sys.stderr)
        return EXIT_INAPPLICABLE
    try:
        graph, spec = chain_graph(args.delta, args.g, args.k)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INAPPLICABLE
    prof = eccentricity_profile(graph)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"chain_d{args.delta}_g{args.g}_k{args.k}.el"
    path.write_text(emit_edge_list(graph))
    print(f"n={graph.n} m={graph.m} diameter={prof.diameter} radius={prof.radius} "
          f"avec={prof.avec} ({_dec(prof.avec)}) -> {path}")
    if args.report:
        rows = sharpness_report(args.delta, args.g, range(1, args.k + 1))
        report_path = out_dir / f"sharpness_d{args.delta}_g{args.g}.csv"
        report_path.write_text(sharpness_rows_to_csv(rows))
        print(f"sharpness table for k=1..{args.k} -> {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# batch

def _batch_sources(args):
    """Yield (graphId, item) pairs in deterministic order; an item is a
    Measured graph, a GenerationFailure, or the EdgeListParseError,
    DisconnectedGraphError or OSError of its file."""
    if args.dir:
        files = sorted(Path(args.dir).glob("*.el"))
        if not files:
            raise FileNotFoundError(f"no .el files in {args.dir}")
        for f in files:
            try:
                yield f.stem, measure(_read_graph(str(f)))
            except (EdgeListParseError, DisconnectedGraphError, OSError) as exc:
                yield f.stem, exc
    else:
        for i in range(args.count):
            cfg = GeneratorConfig(n=args.n, delta=args.delta, g=args.g,
                                  seed=args.seed * 1_000_003 + i)
            out = generate_measured(cfg)  # the girth it re-verified is the row's girth
            yield f"gen-{i:04d}", out if isinstance(out, GenerationFailure) else measure(*out)


# row statuses of inputs that could not be read or fully processed
_BAD_INPUT_STATUSES = ("parse-error", "disconnected", "unreadable", "not-certifiable")


def _batch_row(graph_id: str, item) -> dict:
    """One report row; a bad input gets a row whose status says why."""
    if isinstance(item, GenerationFailure):
        return {"graphId": graph_id, "status": "generation-failure"}
    if isinstance(item, EdgeListParseError):
        print(f"{graph_id}: input error: {item}", file=sys.stderr)
        return {"graphId": graph_id, "status": f"parse-error:{item.line}"}
    if isinstance(item, DisconnectedGraphError):
        print(f"{graph_id}: graph is disconnected", file=sys.stderr)
        return {"graphId": graph_id, "status": "disconnected"}
    if isinstance(item, OSError):
        print(f"{graph_id}: unreadable: {item}", file=sys.stderr)
        return {"graphId": graph_id, "status": "unreadable"}
    # a Measured graph: measured once by _batch_sources, for bounds and certificate
    p, avec = item.params, item.profile.avec
    results = {r.bound.value: r for r in evaluate_all(item)}
    status, cert_ok = "ok", ""
    try:
        cert = certify(item)
        cert_ok = "true" if cert.all_steps_hold else "false"
    except NotCertifiableError:
        status = "not-certifiable"  # the bounds still apply; the certificate does not
    return {
        "graphId": graph_id,
        "status": status,
        "n": p.n,
        "minDeg": p.delta,
        "maxDeg": p.Delta,
        "girth": _girth_str(p.g),
        "avec": str(avec),
        "avecDecimal": _dec(avec),
        "bounds": results,
        "certificateOk": cert_ok,
    }


def _batch_csv(rows) -> str:
    cols = ["graphId", "status", "n", "minDeg", "maxDeg", "girth", "avec", "avecDecimal"]
    bound_cols = []
    for bid in UPPER_BOUND_IDS:
        bound_cols.extend([bid.value, f"{bid.value}_ok"])
    header = ",".join(cols + bound_cols + ["certificateOk"])
    lines = [header]
    for row in rows:
        cells = [str(row.get(c, "")) for c in cols]
        bounds = row.get("bounds", {})
        for bid in UPPER_BOUND_IDS:
            r = bounds.get(bid.value)
            if r is None or not r.applicable:
                cells.extend(["", ""])
            else:
                cells.extend([str(r.value), "true" if r.satisfied else "false"])
        cells.append(str(row.get("certificateOk", "")))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_batch(args) -> int:
    rows = [_batch_row(gid, item) for gid, item in _batch_sources(args)]
    rows.sort(key=lambda r: r["graphId"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "report.csv"
    report.write_text(_batch_csv(rows))

    failures = sum(1 for r in rows if r["status"] == "generation-failure")
    bad_inputs = sum(1 for r in rows if r["status"].startswith(_BAD_INPUT_STATUSES))
    violations = 0
    for r in rows:
        for br in r.get("bounds", {}).values():
            if br.applicable and br.satisfied is False:
                violations += 1
        if r.get("certificateOk") == "false":
            violations += 1
    print(f"{len(rows)} rows -> {report}  "
          f"(violations={violations}, generationFailures={failures})")
    if violations:
        return EXIT_VIOLATION
    if failures and args.strict:
        return EXIT_VIOLATION
    if bad_inputs and args.strict:
        return EXIT_INPUT
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="eccb", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="eccentricity profile, girth, degrees")
    c.add_argument("input", help="edge-list file, or - for stdin")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_compute)

    b = sub.add_parser("bound", help="evaluate every applicable upper bound")
    b.add_argument("input")
    b.add_argument("--json", action="store_true")
    b.add_argument("--only", help="restrict to one bound id, e.g. Eq1")
    b.set_defaults(func=cmd_bound)

    ce = sub.add_parser("certify", help="run and verify the proof pipeline")
    ce.add_argument("input")
    ce.add_argument("--json", action="store_true")
    ce.add_argument("--maxdeg", action="store_true",
                    help="certify the max-degree-aware variant")
    ce.add_argument("--out", default=".", help="directory for the certificate JSON")
    ce.set_defaults(func=cmd_certify)

    ge = sub.add_parser("generate", help="random graph with degree/girth floors")
    ge.add_argument("--n", type=int, required=True)
    ge.add_argument("--delta", type=int, required=True)
    ge.add_argument("--g", type=int, required=True)
    ge.add_argument("--seed", type=int, default=0)
    ge.add_argument("--out", default=".")
    ge.add_argument("--strict", action="store_true",
                    help="exit nonzero when generation fails")
    ge.set_defaults(func=cmd_generate)

    ch = sub.add_parser("chain", help="chained extremal construction")
    ch.add_argument("--delta", type=int, required=True)
    ch.add_argument("--g", type=int, required=True)
    ch.add_argument("--k", type=int, required=True)
    ch.add_argument("--out", default=".")
    ch.add_argument("--report", action="store_true",
                    help="also write the sharpness CSV for k'=1..k")
    ch.set_defaults(func=cmd_chain)

    ba = sub.add_parser("batch", help="bound + certificate sweep with CSV report")
    ba.add_argument("--dir", help="directory of .el files to sweep")
    ba.add_argument("--n", type=int)
    ba.add_argument("--delta", type=int)
    ba.add_argument("--g", type=int)
    ba.add_argument("--count", type=int)
    ba.add_argument("--seed", type=int, default=0)
    ba.add_argument("--out", default=".")
    ba.add_argument("--strict", action="store_true",
                    help="exit 4 on a generation failure, 2 on a parse-error, "
                         "disconnected, unreadable or not-certifiable row")
    ba.set_defaults(func=cmd_batch)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "batch" and not args.dir:
        missing = [f for f in ("n", "delta", "g", "count") if getattr(args, f) is None]
        if missing:
            parser.error(f"batch needs --dir or a generator spec; missing: {', '.join(missing)}")
        if args.count < 0:
            parser.error(f"batch needs --count >= 0, got {args.count}")
    try:
        return args.func(args)
    except (EdgeListParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DisconnectedGraphError:
        print("graph is disconnected", file=sys.stderr)
        return EXIT_INPUT
    except NotCertifiableError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INAPPLICABLE
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
