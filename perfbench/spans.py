"""Span tracing of the program's layers, from the benchmark's own files.

Nothing in ``src/`` is edited.  :func:`instrument` replaces a public name of
``eccbounds`` in the namespace of the module that looks it up at call time
(for example ``eccbounds.certify.eccentricity_profile``, which
``certify_odd`` reads from its own module globals) with a wrapper that
records a span, and puts every original back on exit.  Spans are kept in
memory, aggregated into per-layer figures as they end, and written out as
JSONL when the run ends.

A layer's self time is its span time minus the time of the spans it opened.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from pathlib import PosixPath

import eccbounds.bounds
import eccbounds.certify
import eccbounds.cli
import eccbounds.extremal
import eccbounds.generators

# (module, public name it looks up, span name); the profile span is renamed
# graph.profile_tree when its input is a tree
_WRAPPED_NAMES = (
    [(m, "eccentricity_profile", "graph.profile")
     for m in (eccbounds.cli, eccbounds.bounds, eccbounds.certify, eccbounds.extremal)]
    + [(m, "girth", "graph.girth")
       for m in (eccbounds.cli, eccbounds.bounds, eccbounds.certify, eccbounds.extremal,
                 eccbounds.generators)]
    + [
        (eccbounds.cli, "parse_edge_list", "graph.parse"),
        (eccbounds.certify, "bfs_distances", "graph.bfs"),
        (eccbounds.certify, "multi_source_distances", "graph.bfs"),
        (eccbounds.generators, "is_connected", "graph.bfs"),
        (eccbounds.extremal, "bound_thm_girth", "bounds.eval"),
        (eccbounds.extremal, "lower_bound_chain", "bounds.eval"),
        (eccbounds.cli, "evaluate_all", "bounds.evaluate_all"),
        (eccbounds.certify, "build_packing", "certify.anchor"),
        (eccbounds.certify, "build_spaced_matching", "certify.anchor"),
        (eccbounds.certify, "build_spanning_tree_from_packing", "certify.tree"),
        (eccbounds.cli, "certify_odd", "certify"),
        (eccbounds.cli, "certify_even", "certify"),
        (eccbounds.certify.PackingCertificate, "to_json", "certify.json"),
        (eccbounds.certify.MatchingCertificate, "to_json", "certify.json"),
        (eccbounds.extremal, "chain_graph", "extremal.chain"),
        (eccbounds.cli, "random_min_degree_girth", "generators.random"),
    ]
)

# kept spans; the rest are aggregated but not written out
SPAN_CAP = 50_000


class Tracer:
    """Spans and per-layer sums; ``stolen`` reads the time the calibration
    kernel has taken so far, which span times leave out."""

    def __init__(self, stolen):
        self.stolen = stolen
        self.spans: list[tuple] = []
        self.next_id = 0
        self.stack: list[list] = []  # [id, name, start_ns, child_ns, stolen_at_start]
        self.op_id = -1
        self.total_ns: Counter = Counter()  # scaled, summed over ended rounds
        self.self_ns: Counter = Counter()
        self.round_total_ns: Counter = Counter()  # wall time, this round
        self.round_self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.seen_graphs: set = set()

    def end_round(self, scale: float):
        """Fold the round's span times in, multiplied by ``scale`` (scaled
        over wall time of the round's ops).  Graphs are told apart within a
        round: each round profiles the same inputs again."""
        for name, ns in self.round_total_ns.items():
            self.total_ns[name] += ns * scale
        for name, ns in self.round_self_ns.items():
            self.self_ns[name] += ns * scale
        self.round_total_ns.clear()
        self.round_self_ns.clear()
        self.counts["graph.profile.distinct"] += len(self.seen_graphs)
        self.seen_graphs = set()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, name, time.perf_counter_ns(), 0, self.stolen()]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            dur = end - frame[2] - (self.stolen() - frame[4])
            self.round_total_ns[name] += dur
            self.round_self_ns[name] += dur - frame[3]
            self.calls[name] += 1
            if self.stack:
                self.stack[-1][3] += dur
            if sid < SPAN_CAP:
                self.spans.append((sid, name, frame[2], end, parent, self.op_id))

    def wrap(self, fn, name: str):
        if name == "graph.profile":
            @functools.wraps(fn)
            def traced(g, *args, **kwargs):
                self.seen_graphs.add((g.n, g.edges))
                self.counts["graph.profile.all_calls"] += 1
                with self.span("graph.profile_tree" if g.m == g.n - 1 else "graph.profile"):
                    return fn(g, *args, **kwargs)
        elif name == "certify.anchor":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    out = fn(*args, **kwargs)
                self.counts["certify.anchor.members"] += len(out)
                return out
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return traced

    def counting_path(self):
        """A ``Path`` class for ``eccbounds.cli`` that counts bytes written."""
        tracer = self

        class CountingPath(PosixPath):
            def write_text(self, data, *args, **kwargs):
                tracer.counts["cli.bytes_written"] += len(data.encode())
                return super().write_text(data, *args, **kwargs)

        return CountingPath

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for sid, name, start, end, parent, op in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent, "op": op}) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer, extra=()):
    """Swap traced wrappers in for the program's names; restore them on exit.

    ``extra`` lists further ``(namespace, name, span)`` triples, such as the
    benchmark module's own references to the program's entry points.
    """
    saved = []
    try:
        for owner, attr, span_name in list(_WRAPPED_NAMES) + list(extra):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, span_name))
        saved.append((eccbounds.cli, "Path", eccbounds.cli.Path))
        eccbounds.cli.Path = tracer.counting_path()
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, rounds: int, ops: int, overhead_ms: float) -> dict:
    """Per-layer figures: scaled times in ms per op, counts per round."""
    def ms(name, table=tracer.total_ns):
        return table[name] / 1e6 / ops

    def per_round(value):
        return value / rounds

    evals = tracer.calls["bounds.eval"]
    profiles = tracer.counts["graph.profile.all_calls"]
    values = {
        "graph.profile.ms": (ms("graph.profile"), "ms"),
        "graph.profile.calls": (per_round(tracer.calls["graph.profile"]), "count"),
        "graph.profile_tree.ms": (ms("graph.profile_tree"), "ms"),
        "graph.profile.distinct_ratio": (
            tracer.counts["graph.profile.distinct"] / profiles if profiles else 0.0, "ratio"),
        "graph.girth.ms": (ms("graph.girth"), "ms"),
        "graph.girth.calls": (per_round(tracer.calls["graph.girth"]), "count"),
        "graph.parse.ms": (ms("graph.parse"), "ms"),
        "graph.bfs.calls": (per_round(tracer.calls["graph.bfs"]), "count"),
        "graph.bfs.ms": (ms("graph.bfs"), "ms"),
        "bounds.eval.calls": (per_round(evals), "count"),
        "bounds.eval.us_per_call": (
            tracer.total_ns["bounds.eval"] / 1e3 / evals if evals else 0.0, "us"),
        "bounds.evaluate_all.self_ms": (ms("bounds.evaluate_all", tracer.self_ns), "ms"),
        "certify.anchor.ms": (ms("certify.anchor"), "ms"),
        "certify.anchor.members": (per_round(tracer.counts["certify.anchor.members"]), "count"),
        "certify.tree.ms": (ms("certify.tree"), "ms"),
        "certify.self_ms": (ms("certify", tracer.self_ns), "ms"),
        "certify.json.ms": (ms("certify.json"), "ms"),
        "extremal.chain.ms": (ms("extremal.chain"), "ms"),
        "extremal.sharpness.self_ms": (ms("extremal.sharpness", tracer.self_ns), "ms"),
        "generators.random.ms": (ms("generators.random"), "ms"),
        "generators.random.calls": (per_round(tracer.calls["generators.random"]), "count"),
        "cli.self_ms": (ms("cli", tracer.self_ns), "ms"),
        "cli.bytes_written": (per_round(tracer.counts["cli.bytes_written"]), "bytes"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
