"""Command-line surface: outputs, files, exit codes, determinism."""
from __future__ import annotations

import argparse
import io
import json
import os
import random
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import pytest

import eccbounds as eb
from eccbounds import cli
from eccbounds.cli import _batch_row, _read_graph, main
from eccbounds.graph import _edge_list_pairs
from conftest import UnionFind, caterpillar


@pytest.fixture()
def petersen_file(tmp_path):
    p = tmp_path / "petersen.el"
    p.write_text(eb.emit_edge_list(eb.petersen_graph()))
    return p


@pytest.fixture()
def k33_file(tmp_path):
    p = tmp_path / "k33.el"
    p.write_text(eb.emit_edge_list(eb.complete_bipartite(3, 3)))
    return p


# ---------------------------------------------------------------------------
# compute

def test_compute_petersen(petersen_file, capsys):
    assert main(["compute", str(petersen_file)]) == 0
    out = capsys.readouterr().out
    assert "n=10" in out and "girth=5" in out and "avec=2" in out


def test_compute_json(petersen_file, capsys):
    assert main(["compute", str(petersen_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["avec"] == "2" and payload["girth"] == 5
    assert payload["minDegree"] == payload["maxDegree"] == 3


def test_compute_p5_fraction(tmp_path, capsys):
    p = tmp_path / "p5.el"
    p.write_text(eb.emit_edge_list(eb.path_graph(5)))
    assert main(["compute", str(p)]) == 0
    assert "avec=16/5 (3.200000)" in capsys.readouterr().out


def test_compute_disconnected_exits_2(tmp_path, capsys):
    p = tmp_path / "disc.el"
    p.write_text("4 2\n0 1\n2 3\n")
    assert main(["compute", str(p)]) == 2
    assert "disconnected" in capsys.readouterr().err


def test_compute_missing_file_exits_2(capsys):
    assert main(["compute", "/nonexistent/graph.el"]) == 2


def test_compute_malformed_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.el"
    p.write_text("3 1\n0 0\n")
    assert main(["compute", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bound

def test_bound_petersen(petersen_file, capsys):
    assert main(["bound", str(petersen_file)]) == 0
    out = capsys.readouterr().out
    assert "ThmGirthOdd" in out and "37/4" in out and "satisfied" in out


def test_bound_k33(k33_file, capsys):
    assert main(["bound", str(k33_file)]) == 0
    lines = {ln.split()[0]: ln for ln in capsys.readouterr().out.splitlines()}
    assert lines["ThmGirthEven"].split()[1] == "7"
    assert "satisfied" in lines["ThmGirthEven"]
    assert lines["Eq2"].split()[1] == "8"


def test_bound_only_filter(petersen_file, capsys):
    assert main(["bound", str(petersen_file), "--only", "eq1"]) == 0
    out = capsys.readouterr().out
    assert "Eq1" in out and "ThmGirthOdd" not in out


def test_bound_only_unknown_exits_1(petersen_file, capsys):
    assert main(["bound", str(petersen_file), "--only", "EqX"]) == 1


def test_bound_json(k33_file, capsys):
    assert main(["bound", str(k33_file), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_id = {r["bound"]: r for r in rows}
    assert by_id["ThmGirthEven"]["value"] == "7"
    assert by_id["ThmGirthEven"]["satisfied"] is True
    assert by_id["Eq2"]["value"] == "8"


# ---------------------------------------------------------------------------
# certify

def test_certify_petersen(petersen_file, tmp_path, capsys):
    out_dir = tmp_path / "certs"
    assert main(["certify", str(petersen_file), "--out", str(out_dir)]) == 0
    cert_path = out_dir / "petersen.cert.json"
    payload = json.loads(cert_path.read_text())
    assert payload["allStepsHold"] is True and payload["variant"] == "odd"
    assert "allStepsHold=True" in capsys.readouterr().out


def test_certify_even_variant(k33_file, tmp_path):
    out_dir = tmp_path / "certs"
    assert main(["certify", str(k33_file), "--out", str(out_dir)]) == 0
    payload = json.loads((out_dir / "k33.cert.json").read_text())
    assert payload["variant"] == "even"


def test_certify_maxdeg_flag(k33_file, tmp_path):
    out_dir = tmp_path / "certs"
    assert main(["certify", str(k33_file), "--maxdeg", "--out", str(out_dir)]) == 0
    payload = json.loads((out_dir / "k33.cert.json").read_text())
    assert payload["boundId"] == "ThmGirthMaxDegEven"


def test_certify_low_degree_exits_3(tmp_path, capsys):
    p = tmp_path / "c6.el"
    p.write_text(eb.emit_edge_list(eb.cycle_graph(6)))
    assert main(["certify", str(p), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "minimum degree 2 below 3: not certifiable\n"


def test_certify_acyclic_exits_3(tmp_path, capsys):
    p = tmp_path / "p4.el"
    p.write_text(eb.emit_edge_list(eb.path_graph(4)))
    assert main(["certify", str(p), "--out", str(tmp_path)]) == 3


@pytest.fixture()
def caterpillar_file(tmp_path):
    p = tmp_path / "caterpillar.el"
    p.write_text(eb.emit_edge_list(caterpillar(8000)))
    return p


# the girth's per-root search alone took about 16 s on this tree

def test_compute_large_tree_is_acyclic(caterpillar_file, capsys):
    start = time.perf_counter()
    assert main(["compute", str(caterpillar_file)]) == 0
    assert time.perf_counter() - start < 2.0
    out = capsys.readouterr().out
    assert out.startswith("n=16000 m=15999 minDeg=1 maxDeg=3 girth=acyclic\n")


def test_certify_large_tree_exits_3(caterpillar_file, tmp_path, capsys):
    start = time.perf_counter()
    assert main(["certify", str(caterpillar_file), "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == "graph is acyclic: nothing to certify\n"


def test_certify_measures_girth_once(petersen_file, k33_file, tmp_path, monkeypatch):
    calls = []
    real = eb.girth
    counting = lambda g: calls.append(g) or real(g)  # noqa: E731
    for module in ("eccbounds.cli", "eccbounds.certify"):
        monkeypatch.setattr(sys.modules[module], "girth", counting)
    for argv in ([str(petersen_file)], [str(k33_file), "--maxdeg"]):
        calls.clear()
        assert main(["certify", *argv, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1


def test_certify_disconnected_forest_exits_3_before_connectivity(tmp_path, capsys):
    p = tmp_path / "forest.el"
    p.write_text("5 2\n0 1\n2 3\n")
    assert main(["certify", str(p), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "graph is acyclic: nothing to certify\n"
    assert not list(tmp_path.glob("*.cert.json"))


def test_certify_json_prints_the_written_certificate(petersen_file, tmp_path, capsys):
    assert main(["certify", str(petersen_file), "--json", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    assert printed == (tmp_path / "petersen.cert.json").read_text()[:-1]


def test_certify_deterministic_bytes(petersen_file, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["certify", str(petersen_file), "--out", str(d1)]) == 0
    assert main(["certify", str(petersen_file), "--out", str(d2)]) == 0
    assert (d1 / "petersen.cert.json").read_bytes() == (d2 / "petersen.cert.json").read_bytes()


# ---------------------------------------------------------------------------
# generate / chain

def test_generate_writes_parseable_file(tmp_path, capsys):
    assert main(["generate", "--n", "24", "--delta", "3", "--g", "5",
                 "--seed", "5", "--out", str(tmp_path)]) == 0
    path = tmp_path / "gen_n24_d3_g5_s5.el"
    g = eb.parse_edge_list(path.read_text())
    assert g.min_degree() >= 3 and eb.girth(g) >= 5


def test_generated_file_takes_the_fast_path(tmp_path, capsys, monkeypatch):
    # the bytes eccb generate writes, provenance comment included, never
    # reach the line parser, and give the graph it would give
    assert main(["generate", "--n", "60", "--delta", "3", "--g", "5",
                 "--seed", "7", "--out", str(tmp_path)]) == 0
    path = tmp_path / "gen_n60_d3_g5_s7.el"
    assert path.read_bytes().splitlines()[-1] == b"# seed=7 delta=3 g=5"
    want = eb.Graph.from_edges(*_edge_list_pairs(path.read_bytes()))

    def refuse(text):
        raise AssertionError("line parser called")
    for module in ("eccbounds.cli", "eccbounds.graph"):
        monkeypatch.setattr(sys.modules[module], "_edge_list_pairs", refuse)
    assert _read_graph(str(path)) == want
    assert eb.parse_edge_list(path.read_bytes()) == want


@pytest.mark.parametrize("text, certifying, error", [
    ("4 2\n0 1\n2 3\n", False, eb.DisconnectedGraphError),
    ("4 2\n0 1\n2 3\n", True, eb.NotCertifiableError),
    ("5 3\n0 1\n0 2\n1 2\n", True, eb.DisconnectedGraphError),
], ids=["forest", "forest-certifying", "triangle-certifying"])
def test_emitted_short_header_still_raises_on_read(text, certifying, error, tmp_path):
    # text the fast path would take but for m < n - 1
    p = tmp_path / "short.el"
    p.write_text(text)
    with pytest.raises(error):
        _read_graph(str(p), certifying=certifying)


def test_random_short_headers_raise_what_a_union_find_says(tmp_path):
    # m < n - 1 listed lines, repeats and both orientations among them, on a
    # few ends of a larger header: certify's reader calls the graph acyclic
    # exactly when no distinct pair closes a cycle
    rng = random.Random(29)
    seen = Counter()
    p = tmp_path / "short.el"
    for _ in range(300):
        n = rng.randint(3, 40)
        ends = rng.sample(range(n), rng.randint(2, min(n, 8)))
        pairs = []
        for _ in range(rng.randint(0, n - 2)):
            if pairs and rng.random() < 0.3:
                u, v = rng.choice(pairs)  # a repeat, perhaps reversed
                pairs.append((v, u) if rng.random() < 0.5 else (u, v))
            else:
                pairs.append(tuple(rng.sample(ends, 2)))
        uf = UnionFind(range(n))
        acyclic = all(uf.union(u, v) for u, v in {tuple(sorted(pair)) for pair in pairs})
        p.write_text(f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs))
        error = eb.NotCertifiableError if acyclic else eb.DisconnectedGraphError
        with pytest.raises(error):
            _read_graph(str(p), certifying=True)
        seen[error] += 1
    assert min(seen.values()) > 50


def test_generate_measures_girth_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = eb.girth
    counting = lambda g: calls.append(g) or real(g)  # noqa: E731
    for module in ("eccbounds.cli", "eccbounds.generators"):
        monkeypatch.setattr(sys.modules[module], "girth", counting)
    assert main(["generate", "--n", "60", "--delta", "3", "--g", "5", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    g = eb.parse_edge_list((tmp_path / "gen_n60_d3_g5_s7.el").read_text())
    assert f"girth={real(g)} -> " in capsys.readouterr().out


def test_generate_impossible_records_failure(capsys):
    assert main(["generate", "--n", "4", "--delta", "3", "--g", "4"]) == 0
    assert "generation failed" in capsys.readouterr().out


def test_generate_impossible_strict_exits_4(capsys):
    assert main(["generate", "--n", "4", "--delta", "3", "--g", "4", "--strict"]) == 4


def test_chain_command(tmp_path, capsys):
    assert main(["chain", "--delta", "3", "--g", "5", "--k", "3",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "n=30" in out and "diameter=10" in out
    g = eb.parse_edge_list((tmp_path / "chain_d3_g5_k3.el").read_text())
    assert g.n == 30


def test_chain_with_report(tmp_path, capsys):
    assert main(["chain", "--delta", "3", "--g", "6", "--k", "2",
                 "--out", str(tmp_path), "--report"]) == 0
    csv_text = (tmp_path / "sharpness_d3_g6.csv").read_text()
    assert csv_text.splitlines()[0].startswith("k,n,avec")


def test_chain_report_below_degree_3_exits_3_before_writing(tmp_path, capsys):
    # the sharpness table needs the girth bound, singular at delta=2
    assert main(["chain", "--delta", "2", "--g", "5", "--k", "3",
                 "--out", str(tmp_path), "--report"]) == 3
    assert list(tmp_path.iterdir()) == []
    assert "delta=2" in capsys.readouterr().err


def test_chain_uncataloged_exits_3(capsys):
    assert main(["chain", "--delta", "4", "--g", "5", "--k", "2"]) == 3


@pytest.mark.parametrize("k", ["0", "-2"])
def test_chain_k_below_one_exits_1(k, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--delta", "3", "--g", "5", "--k", k, "--out", str(tmp_path), "--report"])
    assert exc.value.code == 1
    assert f"--k >= 1, got {k}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# batch

def test_batch_generator_spec(tmp_path, capsys):
    assert main(["batch", "--delta", "3", "--g", "5", "--n", "40",
                 "--count", "5", "--seed", "7", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    header = lines[0].split(",")
    assert "avec" in header and "ThmGirthOdd" in header and "certificateOk" in header
    assert all(row.split(",")[1] == "ok" for row in lines[1:])


def test_batch_deterministic_bytes(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    args = ["batch", "--delta", "3", "--g", "4", "--n", "30", "--count", "4", "--seed", "3"]
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()


def test_batch_directory_mode(tmp_path, capsys):
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "petersen.el").write_text(eb.emit_edge_list(eb.petersen_graph()))
    (src / "k33.el").write_text(eb.emit_edge_list(eb.complete_bipartite(3, 3)))
    assert main(["batch", "--dir", str(src), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("k33,") and lines[2].startswith("petersen,")


def test_batch_empty_directory_exits_2(tmp_path, capsys):
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "notes.txt").write_text("no edge lists here\n")
    assert main(["batch", "--dir", str(src), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"input error: no .el files in {src}\n"


def test_generate_invalid_spec_exits_2(capsys):
    assert main(["generate", "--n", "3", "--delta", "3", "--g", "5"]) == 2
    assert capsys.readouterr().err == "input error: need delta >= 2, g >= 3, n >= delta + 1\n"


def _violated_bound(monkeypatch):
    """Make the first applicable bound of every graph read unsatisfied."""
    real = cli.evaluate_all

    def evaluate_all(g):
        results = real(g)
        k = next(i for i, r in enumerate(results) if r.applicable)
        results[k] = results[k]._replace(satisfied=False)
        return results
    monkeypatch.setattr(cli, "evaluate_all", evaluate_all)


def _failing_certificate(monkeypatch):
    monkeypatch.setattr(cli, "certify", lambda m: types.SimpleNamespace(all_steps_hold=False))


@pytest.mark.parametrize("breaks", [_violated_bound, _failing_certificate],
                         ids=["bound", "certificate"])
def test_batch_counts_a_violation_and_exits_4(breaks, petersen_file, tmp_path, monkeypatch,
                                              capsys):
    breaks(monkeypatch)
    out = tmp_path / "out"
    assert main(["batch", "--dir", str(petersen_file.parent), "--out", str(out)]) == 4
    assert "(violations=1, generationFailures=0)" in capsys.readouterr().out


def test_batch_generation_failures_strict(tmp_path, capsys):
    args = ["batch", "--delta", "3", "--g", "4", "--n", "4", "--count", "2",
            "--seed", "1", "--out", str(tmp_path)]
    assert main(args) == 0                      # failures recorded, not fatal
    assert main(args + ["--strict"]) == 4


@pytest.fixture
def mixed_dir(tmp_path):
    """One good edge list, two malformed ones (a bad token and a bad byte,
    both on line 3) and one disconnected."""
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "good.el").write_text(eb.emit_edge_list(eb.petersen_graph()))
    (src / "malformed.el").write_text("4 2\n0 1\n1 x\n")
    (src / "split.el").write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    (src / "undecodable.el").write_bytes(b"3 2\n0 1\n\xff 2\n")
    return src


def test_batch_bad_inputs_are_one_row_each(mixed_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["batch", "--dir", str(mixed_dir), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("good", "ok"), ("malformed", "parse-error:3"), ("split", "disconnected"),
        ("undecodable", "parse-error:3")]
    assert rows[0][-1] == "true"
    assert all(cell == "" for r in rows[1:] for cell in r[2:])
    captured = capsys.readouterr()
    assert "4 rows" in captured.out
    assert "malformed: input error: line 3" in captured.err
    assert "split: graph is disconnected" in captured.err


def test_batch_bad_inputs_strict_exits_2(mixed_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["batch", "--dir", str(mixed_dir), "--out", str(out), "--strict"]) == 2
    assert len((out / "report.csv").read_text().splitlines()) == 5


def test_batch_unreadable_entry_is_one_row(tmp_path, capsys):
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "good.el").write_text(eb.emit_edge_list(eb.petersen_graph()))
    (src / "split.el").write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    (src / "zz.el").mkdir()  # matches *.el but cannot be read
    out = tmp_path / "out"
    assert main(["batch", "--dir", str(src), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("good", "ok"), ("split", "disconnected"), ("zz", "unreadable")]
    assert rows[0][-1] == "true" and all(cell == "" for cell in rows[2][2:])
    assert "zz: unreadable: " in capsys.readouterr().err
    assert main(["batch", "--dir", str(src), "--out", str(out), "--strict"]) == 2
    assert len((out / "report.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("mode", ["dir", "generator"])
def test_batch_rows_are_as_wide_as_the_header(mode, tmp_path):
    # one row of each bad-input status, or two generation failures
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "parse.el").write_text("4 2\n0 1\n1 x\n")
    (src / "split.el").write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    (src / "tree.el").write_text(eb.emit_edge_list(eb.path_graph(5)))
    (src / "x.el").mkdir()
    if mode == "dir":
        spec, codes = ["--dir", str(src)], (0, 2)
        statuses = [("parse", "parse-error:3"), ("split", "disconnected"),
                    ("tree", "not-certifiable"), ("x", "unreadable")]
    else:
        spec, codes = ["--delta", "3", "--g", "4", "--n", "4", "--count", "2", "--seed", "1"], (0, 4)
        statuses = [("gen-0000", "generation-failure"), ("gen-0001", "generation-failure")]
    out = tmp_path / "out"
    for strict, code in zip(([], ["--strict"]), codes):
        assert main(["batch", *spec, "--out", str(out), *strict]) == code
        header, *rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
        assert [(r[0], r[1]) for r in rows] == statuses
        assert all(len(r) == len(header) for r in rows)


def test_batch_bad_inputs_write_one_stderr_line_each(tmp_path, capsys):
    # in file order, and none for the tree, whose row is not-certifiable
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "parse.el").write_text("4 2\n0 1\n1 x\n")
    (src / "split.el").write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    (src / "tree.el").write_text(eb.emit_edge_list(eb.path_graph(5)))
    (src / "x.el").mkdir()
    assert main(["batch", "--dir", str(src), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "parse: input error: line 3: non-integer edge '1 x'",
        "split: graph is disconnected",
        f"x: unreadable: [Errno 21] Is a directory: '{src / 'x.el'}'",
    ]


def test_batch_dir_rows_are_ordered_by_graph_id(tmp_path):
    src = tmp_path / "graphs"
    src.mkdir()
    for name in ("a.el", "a-b.el"):
        (src / name).write_text(eb.emit_edge_list(eb.petersen_graph()))
    assert [f.name for f in sorted(src.glob("*.el"))] == ["a-b.el", "a.el"]  # path order
    out = tmp_path / "out"
    assert main(["batch", "--dir", str(src), "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["a", "a-b"]


def test_batch_not_certifiable_row_keeps_its_bounds(tmp_path):
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "c5.el").write_text(eb.emit_edge_list(eb.cycle_graph(5)))  # minimum degree 2
    out = tmp_path / "out"
    assert main(["batch", "--dir", str(src), "--out", str(out)]) == 0
    header, row = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
    cells = dict(zip(header, row))
    assert cells["status"] == "not-certifiable" and cells["certificateOk"] == ""
    assert cells["avec"] == "2" and cells["Eq1"] != ""
    assert main(["batch", "--dir", str(src), "--out", str(out), "--strict"]) == 2


def test_batch_generator_measures_girth_once_per_row(tmp_path, monkeypatch):
    calls = []
    real = eb.girth
    counting = lambda g: calls.append(g) or real(g)  # noqa: E731
    for module in ("eccbounds.cli", "eccbounds.generators", "eccbounds.bounds",
                   "eccbounds.certify"):
        monkeypatch.setattr(sys.modules[module], "girth", counting)
    assert main(["batch", "--delta", "3", "--g", "5", "--n", "40", "--count", "4",
                 "--seed", "7", "--out", str(tmp_path)]) == 0
    assert len(calls) == 4  # the generator's re-verification, and nothing after it


# a header n m with m < n - 1 describes no connected graph: the read path
# says so before Graph.from_edges allocates n adjacency lists

HUGE = 10 ** 9


@pytest.fixture()
def no_graph_building(monkeypatch):
    def refuse(n, pairs):
        raise AssertionError(f"Graph.from_edges called with n={n}")
    monkeypatch.setattr(eb.Graph, "from_edges", staticmethod(refuse))


@pytest.mark.parametrize("command", ["compute", "bound", "certify"])
def test_impossible_header_is_disconnected_before_allocation(
        command, no_graph_building, tmp_path, capsys):
    p = tmp_path / "huge.el"
    p.write_text(f"{HUGE} 3\n0 1\n1 2\n0 2\n")  # a triangle and isolated vertices
    assert main([command, str(p), "--out", str(tmp_path)] if command == "certify"
                else [command, str(p)]) == 2
    assert capsys.readouterr().err == "graph is disconnected\n"


def test_impossible_forest_header_is_acyclic_for_certify(no_graph_building, tmp_path, capsys):
    p = tmp_path / "forest.el"
    p.write_text(f"{HUGE} 3\n0 1\n2 3\n1 0\n")  # a repeated edge closes no cycle
    assert main(["certify", str(p), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "graph is acyclic: nothing to certify\n"


def test_impossible_header_is_a_disconnected_batch_row(no_graph_building, tmp_path):
    src = tmp_path / "graphs"
    src.mkdir()
    (src / "huge.el").write_text(f"{HUGE} 0\n")
    (src / "short.el").write_text(f"{HUGE} 2\n0 1\n1 x\n")  # a parse error comes first
    out = tmp_path / "out"
    assert main(["batch", "--dir", str(src), "--out", str(out)]) == 0
    rows = [line.split(",")[:2] for line in (out / "report.csv").read_text().splitlines()[1:]]
    assert rows == [["huge", "disconnected"], ["short", "parse-error:3"]]
    assert main(["batch", "--dir", str(src), "--out", str(out), "--strict"]) == 2


def test_parse_edge_list_stays_total_on_short_headers():
    g = eb.parse_edge_list("5 2\n0 1\n2 3\n")
    assert (g.n, g.edges) == (5, ((0, 1), (2, 3)))


@pytest.mark.parametrize("graph", [eb.petersen_graph(), eb.heawood_graph()],
                         ids=["odd", "even"])
def test_batch_row_measures_its_graph_once(graph, monkeypatch):
    calls = Counter()
    for module in ("eccbounds.cli", "eccbounds.bounds", "eccbounds.certify"):
        for name in ("eccentricity_profile", "girth"):
            real = getattr(sys.modules[module], name)

            def counted(h, _real=real, _name=name):
                calls[_name] += h is graph
                return _real(h)

            monkeypatch.setattr(sys.modules[module], name, counted)
    cells, violations = _batch_row("g", eb.measure(graph))  # as _batch_sources yields it
    assert cells[-1] == "true" and violations == 0
    assert calls["eccentricity_profile"] == 1 and calls["girth"] == 1


def _stdin(monkeypatch, data: bytes):
    """Make ``data`` the bytes of stdin, as a text stream over a buffer."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))


def test_compute_stdin(monkeypatch, capsys):
    _stdin(monkeypatch, b"3 2\n0 1\n1 2\n")
    assert main(["compute", "-"]) == 0
    assert "n=3" in capsys.readouterr().out


@pytest.mark.parametrize("data, err", [
    (b"# caf\xe9\n3 2\n0 1\n1 2\n", "input error: line 1: not UTF-8 text\n"),
    (b"3 2\n0 1\n1 \xff2\n", "input error: line 3: not UTF-8 text\n"),
], ids=["comment", "edge"])
def test_stdin_reads_the_bytes_a_file_would(data, err, tmp_path, monkeypatch, capsys):
    # stdin is decoded by the parser, as a file is, not by the locale
    p = tmp_path / "g.el"
    p.write_bytes(data)
    from_file = main(["compute", str(p)]), capsys.readouterr().err
    _stdin(monkeypatch, data)
    from_stdin = main(["compute", "-"]), capsys.readouterr().err
    assert from_file == from_stdin == (2, err)


def test_batch_missing_spec_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["batch"])
    assert exc.value.code == 1


def test_batch_negative_count_exits_1(tmp_path, capsys):
    spec = ["batch", "--delta", "3", "--g", "5", "--n", "30", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(spec + ["--count", "-2"])
    assert exc.value.code == 1
    assert "--count >= 0, got -2" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()
    # a zero count is still a zero-row report
    assert main(spec + ["--count", "0"]) == 0
    assert (tmp_path / "report.csv").read_text().count("\n") == 1


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


COMMANDS = ("compute", "bound", "certify", "generate", "chain", "batch")


@pytest.mark.parametrize("argv", [
    *([command, "-h"] for command in COMMANDS),
    [], ["frobnicate"], ["certify"], ["certify", "x", "y"], ["compute", "--bogus", "x"],
    ["batch"],  # main's own parser.error, under the top-level usage line
    ["chain", "--delta", "3", "--g", "5", "--k", "0"],
], ids=[*(f"{command}-help" for command in COMMANDS), "no-command", "unknown-command",
        "certify-no-input", "certify-two-inputs", "compute-unknown-option", "batch-no-spec",
        "chain-k-0"])
def test_one_command_parser_prints_what_the_full_parser_does(argv, monkeypatch, capsys):
    # the parser builds only the subparser argv[0] names; an argv that names
    # none builds all six, and each prints the same help, usage and errors
    monkeypatch.setenv("COLUMNS", "80")
    real = cli._build_parser
    sub = next(action for action in real(argv)._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == ([argv[0]] if argv and argv[0] in COMMANDS else list(COMMANDS))

    def run(builder_argv):
        monkeypatch.setattr(cli, "_build_parser", lambda _: real(builder_argv))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    assert run(argv) == run([])


def _console(*args, cwd):
    """``python -m eccbounds.cli`` with ``args``, where ``main`` reads ``sys.argv``."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    return subprocess.run([sys.executable, "-m", "eccbounds.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("graph_file", ["petersen_file", "k33_file"])
def test_console_certify_writes_what_main_does(graph_file, tmp_path, request):
    path = request.getfixturevalue(graph_file)
    console = _console("certify", str(path), "--out", str(tmp_path / "console"), cwd=tmp_path)
    assert console.returncode == 0, console.stderr
    assert main(["certify", str(path), "--out", str(tmp_path / "main")]) == 0
    name = f"{path.stem}.cert.json"
    assert (tmp_path / "console" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def test_console_help_lists_every_command(tmp_path):
    console = _console("-h", cwd=tmp_path)
    assert console.returncode == 0, console.stderr
    assert "{" + ",".join(COMMANDS) + "}" in console.stdout
    assert all(f"\n    {command} " in console.stdout for command in COMMANDS)


@pytest.mark.parametrize("command", ["certify", "generate", "chain", "batch"])
def test_out_naming_a_file_exits_2(command, petersen_file, capsys):
    # --out names an existing file, or a path below one: mkdir raises
    # FileExistsError or NotADirectoryError, one input-error line each
    argv = {
        "certify": ["certify", str(petersen_file)],
        "generate": ["generate", "--n", "24", "--delta", "3", "--g", "5", "--seed", "5"],
        "chain": ["chain", "--delta", "3", "--g", "5", "--k", "2"],
        "batch": ["batch", "--delta", "3", "--g", "5", "--n", "24", "--count", "1"],
    }[command]
    for out in (petersen_file, petersen_file / "sub"):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "Traceback" not in err
