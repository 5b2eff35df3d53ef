"""The four workloads of the eccbounds benchmark.

Each workload builds its inputs from the seed (``setup``), hands out one
round of operations (``round``; every run attempts whole rounds of the same
operations) and, after the timed pass, checks what the operations produced
against the independent reference in ``reference.py`` (``check``, which
returns one message per mismatch).  An operation is one call into the
program; it raises when the program reports a failure.

The program's entry points are looked up through this module's globals at
call time, so the traced run can wrap them here (see ``TRACED_NAMES``).
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from eccbounds.bounds import (
    GraphParams,
    bound_legacy,
    bound_thm_girth,
    bound_thm_girth_maxdeg,
    lower_bound_chain,
)
from eccbounds.cli import main as eccb_main
from eccbounds.extremal import chain_graph, sharpness_report

import inputs
import reference

_THIS = sys.modules[__name__]

# names of this module that the traced run wraps, with their span names
TRACED_NAMES = (
    (_THIS, "eccb_main", "cli"),
    (_THIS, "sharpness_report", "extremal.sharpness"),
    (_THIS, "bound_thm_girth", "bounds.eval"),
    (_THIS, "bound_thm_girth_maxdeg", "bounds.eval"),
    (_THIS, "bound_legacy", "bounds.eval"),
    (_THIS, "lower_bound_chain", "bounds.eval"),
)


class OpFailed(RuntimeError):
    pass


def _eccb(argv: list[str]) -> None:
    """One in-process ``eccb`` invocation; its console output is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = eccb_main(argv)
    if rc != 0:
        raise OpFailed(f"eccb {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")


def _degrees(n: int, edges) -> tuple[int, int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return min(deg), max(deg)


def _mismatch(where: str, field: str, got, want) -> str:
    return f"{where}: {field} is {got}, reference says {want}"


def _write_inputs(graphs, into: Path) -> dict[str, Path]:
    into.mkdir(parents=True)
    paths = {}
    for bg in graphs:
        paths[bg.name] = into / f"{bg.name}.el"
        paths[bg.name].write_text(bg.edge_list())
    return paths


class CertifyExpander:
    """``eccb certify`` on n=1000, delta=3 graphs of girth 5 and 6."""

    name = "certify-expander"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, into: Path) -> None:
        self.graphs = inputs.build_set(inputs.EXPANDER_SPECS, self.seed)
        self.paths = _write_inputs(self.graphs, into / "inputs")
        self.out = into / "certs"
        # every graph once plain and once --maxdeg, the mode alternating op by op
        self.plan = [(bg, (i + p) % 2 == 1)
                     for p in range(2) for i, bg in enumerate(self.graphs)]

    def round(self, _r: int):
        return [self._op(bg, maxdeg) for bg, maxdeg in self.plan]

    def _op(self, bg, maxdeg: bool):
        argv = ["certify", str(self.paths[bg.name]), "--out", str(self._out_dir(maxdeg))]
        if maxdeg:
            argv.append("--maxdeg")
        return lambda: _eccb(argv)

    def _out_dir(self, maxdeg: bool) -> Path:
        return self.out / ("maxdeg" if maxdeg else "plain")

    def check(self) -> list[str]:
        bad = []
        for bg in self.graphs:
            _, avec = reference.diameter_and_avec(bg.n, bg.edges)
            gi = reference.nx_girth(bg.n, bg.edges)
            delta, Delta = _degrees(bg.n, bg.edges)
            for maxdeg in (False, True):
                where = f"{bg.name} ({'--maxdeg' if maxdeg else 'plain'})"
                path = self._out_dir(maxdeg) / f"{bg.name}.cert.json"
                if not path.is_file():
                    bad.append(f"{where}: no certificate written")
                    continue
                cert = json.loads(path.read_text())
                want = (reference.girth_bound_maxdeg(bg.n, delta, Delta, gi) if maxdeg
                        else reference.girth_bound(bg.n, delta, gi))
                for field, got, ref in (
                    ("allStepsHold", cert["allStepsHold"], True),
                    ("avecG", Fraction(cert["chain"]["avecG"]), avec),
                    ("girth", cert["girth"], gi),
                    ("finalBound", Fraction(cert["chain"]["finalBound"]), want),
                    ("treeEdges is a spanning tree",
                     reference.is_spanning_tree(bg.n, cert["treeEdges"], bg.edges), True),
                ):
                    if got != ref:
                        bad.append(_mismatch(where, field, got, ref))
        return bad


class ChainSharpness:
    """``sharpness_report`` rows for Moore chains (3,5,k) and (3,6,k)."""

    name = "chain-sharpness"
    CHAINS = [(3, 5, k) for k in range(1, 61)] + [(3, 6, k) for k in range(1, 46)]

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, into: Path) -> None:
        # the chains are fixed; the seed sets the order they are measured in
        self.plan = list(self.CHAINS)
        random.Random(self.seed).shuffle(self.plan)
        self.rows = {}

    def round(self, _r: int):
        return [self._op(key) for key in self.plan]

    def _op(self, key):
        def op():
            self.rows[key] = sharpness_report(key[0], key[1], [key[2]])[0]
        return op

    def check(self) -> list[str]:
        bad = []
        for delta, g, k in self.CHAINS:
            where = f"chain ({delta},{g},{k})"
            row = self.rows.get((delta, g, k))
            if row is None:
                bad.append(f"{where}: no row")
                continue
            n, edges = reference.chain_edges(delta, g, k)
            ref_diam, ref_avec = reference.diameter_and_avec(n, edges)
            graph, _ = chain_graph(delta, g, k)
            diam, avec = reference.diameter_and_avec(graph.n, graph.edges)
            lower = reference.chain_lower(n, delta, g)
            upper = reference.girth_bound(n, delta, g)
            checks = [
                ("n", row.n, n),
                ("avec", row.avec, ref_avec),
                ("avec of the program's chain", avec, ref_avec),
                ("lower", row.lower, lower),
                ("upper", row.upper, upper),
                ("lower <= avec <= upper", lower <= row.avec <= upper, True),
            ]
            if k >= 2:
                want = 5 * (k - 1) if g == 5 else 6 * (k - 1) + 1
                checks += [("diameter", diam, want), ("reference diameter", ref_diam, want)]
            bad += [_mismatch(where, f, got, ref) for f, got, ref in checks if got != ref]
        return bad


class BatchSweep:
    """In-process ``eccb batch``: two generator sweeps and one ``--dir`` sweep."""

    name = "batch-sweep"
    COUNT = 16
    GEN_SWEEPS = (("gen-g5", 5, 300), ("gen-g6", 6, 400))  # (label, girth, n), delta 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, into: Path) -> None:
        self.graphs = inputs.build_set(inputs.SMALL_SPECS, self.seed)
        self.corpus = into / "corpus"
        _write_inputs(self.graphs, self.corpus)
        self.out = into / "out"
        self.rounds = 0

    def _argv(self, label: str):
        if label == "dir":
            return ["batch", "--dir", str(self.corpus)]
        _, g, n = next(s for s in self.GEN_SWEEPS if s[0] == label)
        return ["batch", "--delta", "3", "--g", str(g), "--n", str(n),
                "--count", str(self.COUNT), "--seed", str(self.seed)]

    def round(self, r: int):
        # a fresh output directory per round, so the reports can be compared
        self.rounds = r + 1
        return [self._op(label, r) for label in ("gen-g5", "gen-g6", "dir")]

    def _op(self, label: str, r: int):
        argv = self._argv(label) + ["--out", str(self.out / label / str(r))]
        return lambda: _eccb(argv)

    def check(self) -> list[str]:
        bad = []
        by_name = {bg.name: bg for bg in self.graphs}
        for label in ("gen-g5", "gen-g6", "dir"):
            reports = [self.out / label / str(r) / "report.csv" for r in range(self.rounds)]
            reports = [p.read_bytes() for p in reports if p.is_file()]
            if not reports:
                bad.append(f"{label}: no report.csv")
                continue
            if any(rep != reports[0] for rep in reports):
                bad.append(f"{label}: report.csv differs between invocations")
            rows = list(csv.DictReader(io.StringIO(reports[0].decode())))
            want_rows = len(self.graphs) if label == "dir" else self.COUNT
            if len(rows) != want_rows:
                bad.append(_mismatch(label, "row count", len(rows), want_rows))
            for row in rows:
                bad += self._check_row(f"{label} row {row['graphId']}", row,
                                       by_name.get(row["graphId"]) if label == "dir" else None)
        return bad

    @staticmethod
    def _check_row(where: str, row: dict, bg) -> list[str]:
        if row["status"] != "ok":
            return [_mismatch(where, "status", row["status"], "ok")]
        bad = []
        n, delta, Delta = int(row["n"]), int(row["minDeg"]), int(row["maxDeg"])
        gi = None if row["girth"] == "acyclic" else int(row["girth"])
        avec = Fraction(row["avec"])
        if row["certificateOk"] != "true":
            bad.append(_mismatch(where, "certificateOk", row["certificateOk"], "true"))
        for bid, want in reference.all_upper(n, delta, Delta, gi).items():
            cell, ok = row[bid], row[f"{bid}_ok"]
            if want is None:
                if cell or ok:
                    bad.append(_mismatch(where, bid, cell, "not applicable"))
            elif cell == "" or Fraction(cell) != want:
                bad.append(_mismatch(where, bid, cell, want))
            elif not (avec <= want and ok == "true"):
                bad.append(_mismatch(where, f"{bid} >= avec", f"{want} vs {avec} ({ok})", True))
        if bg is not None:
            _, ref_avec = reference.diameter_and_avec(bg.n, bg.edges)
            ref_delta, ref_Delta = _degrees(bg.n, bg.edges)
            for field, got, ref in (("avec", avec, ref_avec), ("n", n, bg.n),
                                    ("minDeg", delta, ref_delta), ("maxDeg", Delta, ref_Delta),
                                    ("girth", gi, reference.nx_girth(bg.n, bg.edges))):
                if got != ref:
                    bad.append(_mismatch(where, field, got, ref))
        return bad


class BoundGrid:
    """One bound evaluator call per op over a (delta, g, n) grid."""

    name = "bound-grid"
    KINDS = ("ThmGirth", "ThmGirthMaxDeg", "LowerChain") + reference.LEGACY_IDS

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, into: Path) -> None:
        rng = random.Random(self.seed)
        points = []
        for delta in range(3, 51):
            for g in range(3, 13):
                order = reference.moore_k(delta, g) if g % 2 else reference.moore_l(delta, g)
                for _ in range(2):
                    k = rng.randint(1, 40)
                    n = k * order
                    Delta = min(delta + rng.randint(0, 3), n - 1)
                    points.append((k, GraphParams(n=n, delta=delta, Delta=Delta, g=g)))
        self.calls = [(kind, k, p) for k, p in points for kind in self.KINDS]
        self.results = [None] * len(self.calls)
        self.ops = [self._op(i, kind, k, p) for i, (kind, k, p) in enumerate(self.calls)]

    def round(self, _r: int):
        return self.ops

    def _op(self, i: int, kind: str, k: int, p: GraphParams):
        results = self.results
        if kind == "ThmGirth":
            def op():
                results[i] = bound_thm_girth(p).value
        elif kind == "ThmGirthMaxDeg":
            def op():
                results[i] = bound_thm_girth_maxdeg(p).value
        elif kind == "LowerChain":
            def op():
                results[i] = lower_bound_chain(p, k)
        else:
            def op():
                results[i] = bound_legacy(p, kind).value
        return op

    def check(self) -> list[str]:
        bad = []
        for (kind, k, p), got in zip(self.calls, self.results):
            if kind == "ThmGirth":
                want = reference.girth_bound(p.n, p.delta, p.g)
            elif kind == "ThmGirthMaxDeg":
                want = reference.girth_bound_maxdeg(p.n, p.delta, p.Delta, p.g)
            elif kind == "LowerChain":
                want = reference.chain_lower(p.n, p.delta, p.g)
            else:
                want = reference.legacy(kind, p.n, p.delta, p.Delta, p.g)
            if got != want:
                where = f"{kind} at n={p.n} delta={p.delta} Delta={p.Delta} g={p.g}"
                bad.append(_mismatch(where, "value", got, want))
        return bad


BY_NAME = {w.name: w for w in (CertifyExpander, ChainSharpness, BatchSweep, BoundGrid)}
