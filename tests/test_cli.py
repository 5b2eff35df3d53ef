"""Command-line surface: outputs, files, exit codes, determinism."""
from __future__ import annotations

import io
import json
import sys
import types
from collections import Counter

import pytest

import eccbounds as eb
from eccbounds import cli
from eccbounds.cli import _batch_row, _read_graph, main
from eccbounds.graph import _edge_list_pairs


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
    row = _batch_row("g", eb.measure(graph))  # as _batch_sources yields it
    assert row["certificateOk"] == "true"
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
