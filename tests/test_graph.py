"""Graph core: parsing, distances, eccentricity, girth, line graphs, weights."""
from __future__ import annotations

import functools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import eccbounds as eb
from eccbounds.graph import _edge_list_pairs, _emitted_graph, _sweep
from conftest import (
    caterpillar,
    edge_list_pairs_oracle,
    floyd_warshall,
    girth_above_root_oracle,
    girth_oracle,
    girth_per_root_oracle,
    multi_source_distances_oracle,
    named_small,
    random_connected,
)


# ---------------------------------------------------------------------------
# parsing

def test_parse_path3():
    g = eb.parse_edge_list("3 2\n0 1\n1 2")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


def test_parse_single_vertex():
    g = eb.parse_edge_list("1 0")
    assert g.n == 1 and g.edges == ()


def test_parse_k4():
    g = eb.parse_edge_list("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert g.n == 4 and g.m == 6
    assert all(len(g.adj[v]) == 3 for v in range(4))


def test_parse_comments_and_duplicates():
    text = "# a comment\n3 3\n0 1\n# middle\n1 0\n1 2\n"
    g = eb.parse_edge_list(text)
    assert g.edges == ((0, 1), (1, 2))  # duplicate silently collapsed


def test_parse_bytes_input():
    g = eb.parse_edge_list(b"2 1\n0 1\n")
    assert g.m == 1


def test_parse_undecodable_bytes_names_line():
    with pytest.raises(eb.EdgeListParseError) as exc:
        eb.parse_edge_list(b"3 2\n0 1\n1 \xff\n")
    assert exc.value.line == 3


def test_parse_self_loop_names_line():
    with pytest.raises(eb.EdgeListParseError) as exc:
        eb.parse_edge_list("3 2\n0 1\n2 2")
    assert exc.value.line == 3


def test_parse_out_of_range():
    with pytest.raises(eb.EdgeListParseError) as exc:
        eb.parse_edge_list("3 1\n0 7")
    assert exc.value.line == 2


def test_parse_malformed_line():
    with pytest.raises(eb.EdgeListParseError):
        eb.parse_edge_list("3 1\n0 1 2")


def test_parse_wrong_edge_count():
    with pytest.raises(eb.EdgeListParseError):
        eb.parse_edge_list("3 2\n0 1")
    with pytest.raises(eb.EdgeListParseError):
        eb.parse_edge_list("3 1\n0 1\n1 2")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_edge_list_round_trip(data):
    g = data.draw(any_graphs())
    assert eb.parse_edge_list(eb.emit_edge_list(g)) == g
    cfg = eb.GeneratorConfig(n=g.n, delta=data.draw(st.integers(2, 6)),
                             g=data.draw(st.integers(3, 9)), seed=data.draw(st.integers(0, 10**6)))
    text = eb.emit_edge_list(g, cfg)
    assert text.rstrip("\n").splitlines()[-1].startswith("# seed=")
    assert eb.parse_edge_list(text) == g


def test_parse_missing_header():
    with pytest.raises(eb.EdgeListParseError):
        eb.parse_edge_list("# only a comment\n")


def _error_line(text) -> int:
    with pytest.raises(eb.EdgeListParseError) as exc:
        eb.parse_edge_list(text)
    return exc.value.line


# str.splitlines also breaks at these; a line ends at \n, \r\n or \r only
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", OTHER_BREAKS, ids=[hex(ord(c)) for c in OTHER_BREAKS])
def test_parse_breaks_lines_at_line_feeds_and_returns_only(sep):
    with pytest.raises(eb.EdgeListParseError) as exc:
        eb.parse_edge_list(f"3 2\n0 1{sep}1 2\n")
    assert str(exc.value) == f"line 2: expected edge 'u v', got {f'0 1{sep}1 2'!r}"


# str.split() and str.strip() also take these for whitespace; bytes.split() does not
OTHER_SPACES = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                *map(chr, range(0x2000, 0x200B)), "\u3000"]


@pytest.mark.parametrize("space", OTHER_SPACES, ids=[hex(ord(c)) for c in OTHER_SPACES])
def test_parse_separates_ids_by_ascii_whitespace_only(space):
    for text, line in [(f"3 1\n1{space}2\n", 2), (f"3 1\n1 2{space}\n", 2),
                       (f"3 1\n{space}1 2\n", 2), (f"3{space}1\n1 2\n", 1),
                       (f"3 1{space}\n1 2\n", 1), (f"{space}3 1\n1 2\n", 1),
                       (f"# note\n3 1\n0 1\n1{space}2\n", 4)]:
        assert _error_line(text) == line
        assert _error_line(text.encode()) == line


@pytest.mark.parametrize("space", OTHER_SPACES, ids=[hex(ord(c)) for c in OTHER_SPACES])
def test_parse_skips_blank_and_comment_lines_of_any_whitespace(space):
    # only ids and counts are held to ASCII separators
    for text in [f"{space}# note\n3 1\n{space}\n1 2\n", f"3 1\n {space}\t# note\n1 2\n{space}{space}\n"]:
        assert eb.parse_edge_list(text).edges == ((1, 2),)
        assert eb.parse_edge_list(text.encode()).edges == ((1, 2),)


def test_parse_rejects_a_lone_surrogate_in_an_id():
    with pytest.raises(eb.EdgeListParseError) as exc:
        eb.parse_edge_list("3 1\n1 \ud800\n")
    assert str(exc.value) == "line 2: non-integer edge '1 \\ud800'"


def test_parse_takes_ascii_whitespace_and_non_ascii_comments():
    for text in ["3 1\n1\t2\n", "3\x0b1\n\x0c1  2\t\n", "3 1\n# caf\xe9\xa0\u3000\n1 2\n",
                 "3 1\n1 2\n# \x1c\u2003\n"]:
        assert eb.parse_edge_list(text).edges == ((1, 2),)
        assert eb.parse_edge_list(text.encode()).edges == ((1, 2),)


@pytest.mark.parametrize("text, line", [
    ("3 2\r\n0 1\r1 2\n", None),
    ("3 2\n0 1\n", 2),            # no phantom line after the final newline
    ("3 2\r\n0 1\r\n", 2),
    ("3 2\r0 1\r\r", 3),
    ("3 2\n0 1\n\n", 3),
], ids=["mixed-breaks", "lf-final", "crlf-final", "cr-blank", "lf-blank"])
def test_parse_line_numbers_count_each_break_once(text, line):
    if line is None:
        assert eb.parse_edge_list(text).edges == ((0, 1), (1, 2))
    else:
        assert _error_line(text) == line


@pytest.mark.parametrize("prefix", [b"3 2\r\n0 1\r1 ", b"3 2\n0 1\x0c1 ", b"3 2\n0 1\xe2\x80\xa81 "],
                         ids=["cr", "form-feed", "line-separator"])
def test_utf8_error_counts_lines_as_the_parser_does(prefix):
    # the bad byte sits where the non-integer token sits, on the same line
    assert _error_line(prefix + b"\xff\n") == _error_line(prefix + b"x\n")


# ---------------------------------------------------------------------------
# the fast path for emitted text, against the line parser as the oracle

def _or_error(parse, data):
    """What ``parse`` returns for ``data``, or its error's line and message."""
    try:
        return parse(data)
    except eb.EdgeListParseError as exc:
        return exc.line, str(exc)


def _line_parsed(data):
    """The graph the line parser reads from ``data``, or its error's line and message."""
    return _or_error(lambda d: eb.Graph.from_edges(*_edge_list_pairs(d)), data)


def _parsed(data):
    return _or_error(eb.parse_edge_list, data)


@pytest.mark.parametrize("data, n, edges", [
    (b"1 0\n", 1, ()),
    (b"2 1\n0 1\n", 2, ((0, 1),)),
    (b"003 02\n00 01\n1 002\n", 3, ((0, 1), (1, 2))),
    (b"3 2\n0 1\n1 2\n# seed=1 delta=3 g=5\n", 3, ((0, 1), (1, 2))),
    (b"3 2\n0 1\n1 2\n#\n", 3, ((0, 1), (1, 2))),
], ids=["one-vertex", "one-edge", "leading-zeros", "generator-comment", "empty-comment"])
def test_fast_path_takes_emitted_text(data, n, edges):
    g = _emitted_graph(data)
    assert g is not None and (g.n, g.edges) == (n, edges)
    assert g == _line_parsed(data) == _emitted_graph(data.decode())


# texts the fast path leaves to the line parser
NOT_EMITTED = [
    b"3 1\n0 1\n",                       # m < n - 1: the read path's early rejection
    b"0 0\n",
    b"3 3\n0 1\n0 1\n1 2\n",             # a duplicate
    b"3 2\n1 2\n0 1\n",                  # unsorted
    b"3 2\n0 1\n2 1\n",                  # u > v
    b"3 2\n0 1\n1 1\n",                  # u = v
    b"3 2\n0 1\n1 3\n",                  # v = n
    b"3 2\n0 1\n1 2",                    # no final newline
    b"3 2\r\n0 1\r\n1 2\r\n",
    b"# first\n3 2\n0 1\n1 2\n",         # a comment before the end
    b"3 2\n0 1\n1 2\n# one\n# two\n",
    b"3 2\n0 1\n1 2\n# caf\xc3\xa9\n",   # a comment beyond printable ASCII
    b"3 2\n0 1\n1 2\n# tab\there\n",
    b"3 2\n0 1\n1 2\n0 2\n",             # one pair too many
    b"3 3\n0 1\n1 2\n",                  # one pair too few
    b"3 2\n0  1\n1 2\n",
    b"1" * 5000 + b" 0\n",               # past CPython's digit limit for int
]


@pytest.mark.parametrize("data", NOT_EMITTED, ids=[
        "short-header", "no-vertices", "duplicate", "unsorted", "reversed", "self-loop",
        "v-is-n", "no-final-newline", "crlf", "leading-comment", "two-comments",
        "utf8-comment", "tab-comment", "one-too-many", "one-too-few", "two-spaces",
        "huge-number"])
def test_fast_path_leaves_other_text_to_the_line_parser(data):
    assert _emitted_graph(data) is None
    assert _parsed(data) == _line_parsed(data)


@st.composite
def emitted_texts(draw):
    """``(g, mutation, text)``: an edge list of ``g`` as emit_edge_list writes
    it, with or without the generator's comment, then one of ``MUTATIONS``
    (``"none"`` and those that need an edge where ``g`` has none change
    nothing)."""
    g = draw(any_graphs())
    cfg = None
    if draw(st.booleans()):
        cfg = eb.GeneratorConfig(n=g.n, delta=3, g=draw(st.integers(3, 9)),
                                 seed=draw(st.integers(0, 10 ** 6)))
    text = eb.emit_edge_list(g, cfg)
    lines = text.splitlines()
    m = g.m
    mutation = draw(st.sampled_from(MUTATIONS))
    at = draw(st.integers(1, max(m, 1)))   # an edge line, when there is one
    if m and mutation == "comment":
        lines.insert(draw(st.integers(0, len(lines))), "# note")
    elif mutation == "comment-with-underscore-and-plus":
        lines.insert(draw(st.integers(0, len(lines))), "# 1_0 +2")
    elif mutation == "crlf":
        return g, mutation, text.replace("\n", "\r\n")
    elif m and mutation == "duplicate":
        lines.insert(at, lines[at])
        lines[0] = f"{g.n} {m + 1}"
    elif m >= 2 and mutation == "unsorted":
        other = draw(st.integers(1, m))
        lines[at], lines[other] = lines[other], lines[at]
    elif m and mutation == "reversed":
        u, v = lines[at].split()
        lines[at] = f"{v} {u}"
    elif m and mutation == "self-loop":
        u = lines[at].split()[0]
        lines[at] = f"{u} {u}"
    elif m and mutation == "v-is-n":
        u = lines[at].split()[0]
        lines[at] = f"{u} {g.n}"
    elif mutation == "split-header":
        lines[0:1] = lines[0].split()
    elif mutation == "third-token":
        lines[at if m else 0] += " 0"
    elif mutation == "no-final-newline":
        return g, mutation, text.rstrip("\n")
    elif mutation == "one-too-many":
        lines.insert(m + 1, "0 1" if g.n > 1 else "0 0")
    elif m and mutation == "one-too-few":
        del lines[at]
    elif mutation == "leading-zeros":
        lines = [" ".join("0" + t for t in line.split()) if line[0] != "#" else line
                 for line in lines]
    return g, mutation, "\n".join(lines) + "\n"


MUTATIONS = ["none", "comment", "comment-with-underscore-and-plus", "crlf", "duplicate",
             "unsorted", "reversed", "self-loop", "v-is-n", "split-header", "third-token",
             "no-final-newline", "one-too-many", "one-too-few", "leading-zeros"]


@settings(max_examples=400, deadline=None)
@given(emitted_texts())
def test_property_fast_path_equals_the_line_parser(case):
    g, mutation, text = case
    data = text.encode()
    want = _line_parsed(data)
    fast = _emitted_graph(data)
    if fast is not None:
        assert fast == want
    assert _parsed(data) == _parsed(text) == want
    if mutation == "none":
        # every emitted graph whose header could be connected takes the fast path
        assert want == g and (fast is not None) == (g.m >= g.n - 1)


def _both_forms(text):
    """``text`` as given and as its other type, str or UTF-8 bytes (a lone
    surrogate kept as its bytes, which are not UTF-8)."""
    if isinstance(text, str):
        return text, text.encode("utf-8", "surrogatepass")
    return text, text.decode("utf-8", "surrogateescape")


@settings(max_examples=400, deadline=None)
@given(emitted_texts())
def test_property_line_parser_equals_its_oracle(case):
    _, _, text = case
    for data in _both_forms(text):
        assert _or_error(_edge_list_pairs, data) == _or_error(edge_list_pairs_oracle, data)


def test_line_parser_equals_its_oracle_on_the_error_rows():
    texts = [text for text, _ in PARSE_ERRORS] + NOT_EMITTED + [
        b"3 2\n0 1\n1 \xff\n", "3 2\n0 1\n2 2", "3 1\n0 7", "3 1\n0 1 2", "3 2\n0 1",
        "3 1\n0 1\n1 2", "# only a comment\n", "", "3 1\n1 \ud800\n", "3 2\r0 1\r\r"]
    texts += [f"3 2\n0 1{sep}1 2\n" for sep in OTHER_BREAKS]
    texts += [f"3 1\n1{space}2\n" for space in OTHER_SPACES]
    texts += [f"3{space}1\n1 2\n" for space in OTHER_SPACES]
    for text in texts:
        for data in _both_forms(text):
            got = _or_error(_edge_list_pairs, data)
            assert got == _or_error(edge_list_pairs_oracle, data), data


# ---------------------------------------------------------------------------
# distances

def test_bfs_cycle5():
    assert eb.bfs_distances(eb.cycle_graph(5), 0) == [0, 1, 2, 2, 1]


def test_bfs_path_end():
    assert eb.bfs_distances(eb.path_graph(4), 0) == [0, 1, 2, 3]


def test_bfs_petersen_level_counts():
    dist = eb.bfs_distances(eb.petersen_graph(), 0)
    counts = {d: dist.count(d) for d in set(dist)}
    assert counts == {0: 1, 1: 3, 2: 6}


def test_bfs_matches_floyd_warshall():
    rng = random.Random(7)
    for _ in range(15):
        g = random_connected(rng, rng.randint(2, 18), rng.randint(0, 10))
        ref = floyd_warshall(g)
        for s in range(g.n):
            assert eb.bfs_distances(g, s) == ref[s]


def test_bfs_unreachable_sentinel():
    g = eb.Graph.from_edges(4, [(0, 1), (2, 3)])
    d = eb.bfs_distances(g, 0)
    assert d[2] == eb.UNREACHABLE and d[3] == eb.UNREACHABLE


def test_multi_source_bfs_matches_the_deque_oracle():
    rng = random.Random(1041)
    graphs = [g for _, g in named_small()] + [eb.chain_graph(3, 6, 4)[0]]
    graphs += [random_connected(rng, rng.randint(1, 90), rng.randint(0, 60)) for _ in range(40)]
    # disconnected graphs: unreached vertices keep the sentinel
    for _ in range(10):
        pairs = [(rng.randrange(40), rng.randrange(40)) for _ in range(25)]
        graphs.append(eb.Graph.from_edges(40, [(u, v) for u, v in pairs if u != v]))
    for g in graphs:
        for k in (1, 2, 5):
            sources = [rng.randrange(g.n) for _ in range(k)]
            assert eb.multi_source_distances(g, sources) == multi_source_distances_oracle(g, sources)


# ---------------------------------------------------------------------------
# eccentricity profile

def test_profile_complete():
    prof = eb.eccentricity_profile(eb.complete_graph(5))
    assert prof.ecc == (1,) * 5 and prof.avec == 1


def test_profile_p5():
    prof = eb.eccentricity_profile(eb.path_graph(5))
    assert prof.ecc == (4, 3, 2, 3, 4)
    assert prof.avec == F(16, 5)
    assert prof.radius == 2 and prof.diameter == 4 and prof.total == 16


def test_profile_petersen():
    prof = eb.eccentricity_profile(eb.petersen_graph())
    assert set(prof.ecc) == {2} and prof.avec == 2


def test_profile_disconnected_raises():
    g = eb.Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(eb.DisconnectedGraphError, match="eccentricity undefined"):
        eb.eccentricity_profile(g)


def test_profile_invariants_on_corpus():
    for name, g in named_small():
        prof = eb.eccentricity_profile(g)
        assert prof.radius <= prof.avec <= prof.diameter, name
        assert prof.diameter <= 2 * prof.radius, name
        assert prof.total == sum(prof.ecc), name
        assert prof.avec * g.n == prof.total, name


def test_edge_deletion_never_decreases_eccentricity():
    rng = random.Random(11)
    for _ in range(12):
        g = random_connected(rng, rng.randint(4, 16), rng.randint(3, 12))
        base = eb.eccentricity_profile(g)
        # delete a random edge whose removal keeps the graph connected
        edges = list(g.edges)
        rng.shuffle(edges)
        for victim in edges:
            h = eb.Graph.from_edges(g.n, [e for e in g.edges if e != victim])
            if eb.is_connected(h):
                sub = eb.eccentricity_profile(h)
                assert all(sub.ecc[v] >= base.ecc[v] for v in range(g.n))
                assert sub.avec >= base.avec
                break


# ---------------------------------------------------------------------------
# girth

def test_girth_named():
    assert eb.girth(eb.complete_graph(4)) == 3
    assert eb.girth(eb.petersen_graph()) == 5
    assert eb.girth(eb.cycle_graph(6)) == 6
    assert eb.girth(eb.heawood_graph()) == 6
    assert eb.girth(eb.path_graph(7)) is None
    assert eb.girth(eb.complete_bipartite(3, 3)) == 4


def test_girth_matches_oracle_small():
    rng = random.Random(23)
    graphs = [g for _, g in named_small() if g.n <= 9]
    for _ in range(40):
        n = rng.randint(3, 9)
        graphs.append(random_connected(rng, n, rng.randint(0, 8)))
    for g in graphs:
        assert eb.girth(g) == girth_oracle(g)


def test_girth_matches_oracle_medium():
    # wider differential sweep, including girth-constrained instances
    rng = random.Random(61)
    graphs = []
    for _ in range(8):
        graphs.append(random_connected(rng, rng.randint(10, 50), rng.randint(0, 30)))
    for seed, (d, gf, n) in enumerate([(3, 5, 30), (3, 6, 40), (3, 7, 50), (4, 5, 40)]):
        out = eb.random_min_degree_girth(eb.GeneratorConfig(n=n, delta=d, g=gf, seed=880 + seed))
        assert isinstance(out, eb.Graph)
        graphs.append(out)
    for g in graphs:
        assert eb.girth(g) == girth_oracle(g)


@st.composite
def any_graphs(draw):
    """Simple graphs of up to 24 vertices: forests, disconnected graphs and
    isolated vertices included."""
    n = draw(st.integers(1, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return eb.Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])


@settings(max_examples=300, deadline=None)
@given(any_graphs())
def test_property_girth_equals_oracles(g):
    want = girth_oracle(g)
    assert eb.girth(g) == want
    assert girth_per_root_oracle(g) == want


@settings(max_examples=300, deadline=None)
@given(any_graphs())
@example(eb.Graph.from_edges(1, []))
@example(eb.Graph.from_edges(5, [(0, 1), (3, 4)]))
def test_property_sweep_equals_the_deque_oracle(g):
    # the sweep's eccentricity is the largest distance it reached: off a
    # source's component the distances stay UNREACHABLE, below every reached one
    for s in range(g.n):
        want = multi_source_distances_oracle(g, (s,))
        assert _sweep(g.adj, g.n, [s]) == (want, max(want))
        assert eb.bfs_distances(g, s) == want


def test_girth_of_a_large_tree_takes_one_pass():
    # no root of a forest's per-root search finds a cycle to stop at, so that
    # search costs O(n*m) here, over 10 s; a forest's 2-core is empty, so the
    # peel leaves no root to search
    g = caterpillar(8000)
    start = time.perf_counter()
    assert eb.girth(g) is None
    assert time.perf_counter() - start < 1.0


def test_girth_of_a_tree_below_a_high_triangle_takes_one_pass():
    # the caterpillar plus a triangle at its high end, m = n: every spine
    # root below the triangle is off the 2-core and runs no BFS
    c = caterpillar(4000)
    g = eb.Graph.from_edges(c.n, c.edges + ((3998, 7999),))
    start = time.perf_counter()
    assert eb.girth(g) == 3
    assert time.perf_counter() - start < 1.0


@st.composite
def cored_graphs(draw):
    """Graphs on shuffled ids built from cycles, joined by chords, with
    pendant trees and paths hung on them: the cycles can sit above long tree
    parts while ``m >= n``."""
    pairs, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(3, 8))
        pairs += [(n + i, n + (i + 1) % k) for i in range(k)]
        n += k
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        pairs.append((u, v))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, n - 1))
        if draw(st.booleans()):  # a path hung at one vertex
            length = draw(st.integers(1, 15))
            pairs += [(at if i == 0 else n + i - 1, n + i) for i in range(length)]
            n += length
        else:  # a tree, each new vertex hung on an earlier one of it
            size = draw(st.integers(1, 10))
            pairs += [(draw(st.sampled_from([at] + list(range(n, n + i)))), n + i)
                      for i in range(size)]
            n += size
    ids = draw(st.permutations(range(n)))
    return eb.Graph.from_edges(n, [(ids[u], ids[v]) for u, v in pairs])


@settings(max_examples=200, deadline=None)
@given(cored_graphs())
@example(eb.Graph.from_edges(12, caterpillar(6).edges + ((4, 11),)))  # a high triangle
def test_property_girth_of_cored_graphs_equals_the_oracle(g):
    assert eb.girth(g) == girth_oracle(g)


@st.composite
def sparse_graphs(draw):
    """Graphs with fewer edges than vertices, on shuffled ids: a forest in
    which each vertex joins an earlier one or starts a new tree, and perhaps
    one more edge inside a tree, which closes a cycle unless it repeats an
    edge."""
    n = draw(st.integers(1, 30))
    ids = draw(st.permutations(range(n)))
    tree_of, pairs = list(range(n)), []
    for v in range(1, n):
        if (u := draw(st.none() | st.integers(0, v - 1))) is not None:
            tree_of[v] = tree_of[u]
            pairs.append((ids[v], ids[u]))
    v = draw(st.integers(0, n - 1))
    mates = [w for w in range(n) if w != v and tree_of[w] == tree_of[v]]
    if mates and draw(st.booleans()):
        pairs.append((ids[v], ids[draw(st.sampled_from(mates))]))
    g = eb.Graph.from_edges(n, pairs)
    assume(g.m < g.n)
    return g


@settings(max_examples=300, deadline=None)
@given(sparse_graphs())
@example(caterpillar(6))                                           # a tree
@example(eb.Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)]))  # a forest
@example(eb.Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)]))  # a forest plus a cycle
@example(eb.Graph.from_edges(1, []))
def test_property_girth_of_sparse_graphs_equals_the_oracle(g):
    assert eb.girth(g) == girth_oracle(g)


def test_girth_matches_per_root_oracle_large():
    # generated graphs up to n=1000 and Moore chains, whose shortest cycles
    # sit at every kind of least vertex
    graphs = [eb.chain_graph(3, 5, k)[0] for k in (1, 4, 9)]
    graphs += [eb.chain_graph(3, 6, k)[0] for k in (1, 4, 9)]
    for n, d, gf, seed in [(1000, 3, 5, 1), (1000, 3, 6, 1), (300, 4, 5, 2), (200, 2, 7, 3)]:
        out = eb.random_min_degree_girth(eb.GeneratorConfig(n=n, delta=d, g=gf, seed=seed))
        assert isinstance(out, eb.Graph)
        graphs.append(out)
    for g in graphs:
        assert eb.girth(g) == girth_per_root_oracle(g)


def chorded_cycle(rng: random.Random, n: int) -> eb.Graph:
    """The cycle C_n plus up to three random chords."""
    pairs = [(v, (v + 1) % n) for v in range(n)]
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2)
        pairs.append((u, v))
    return eb.Graph.from_edges(n, pairs)


def random_graph_of_girth(rng: random.Random, n: int, g: int) -> eb.Graph:
    """A cycle of length ``g`` on random vertices plus random edges whose ends
    are at least ``g - 1`` apart when added: girth exactly ``g``, not
    necessarily connected, degrees uneven."""
    cycle = rng.sample(range(n), g)
    pairs = [(cycle[i], cycle[i - 1]) for i in range(g)]
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        d = eb.bfs_distances(eb.Graph.from_edges(n, pairs), u)[v]
        if d == eb.UNREACHABLE or d >= g - 1:
            pairs.append((u, v))
    return eb.Graph.from_edges(n, pairs)


def test_girth_matches_the_unchecked_level_oracle():
    # girth against its form that expanded the last useful BFS level
    rng = random.Random(1978)
    graphs = [chorded_cycle(rng, n) for n in range(3, 13) for _ in range(12)]
    graphs += [random_graph_of_girth(rng, rng.randint(g, 50), g)
               for g in range(3, 9) for _ in range(15)]
    graphs += [eb.petersen_graph(), eb.heawood_graph(), eb.hoffman_singleton_graph(),
               eb.projective_plane_incidence(3), eb.projective_plane_incidence(4)]
    graphs += [eb.chain_graph(d, gf, k)[0]
               for d, gf in [(3, 5), (3, 6), (4, 6), (7, 5), (2, 7)] for k in (1, 2, 5)]
    for g in graphs:
        assert eb.girth(g) == girth_above_root_oracle(g)
    assert {girth_above_root_oracle(g) for g in graphs} >= set(range(3, 9))


def test_networkx_girth():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    graphs = [g for _, g in named_small()]
    graphs += [eb.chain_graph(3, 5, 3)[0], eb.chain_graph(3, 6, 3)[0],
               eb.hoffman_singleton_graph(), eb.projective_plane_incidence(3)]
    graphs += [random_connected(rng, rng.randint(2, 80), extra_edges=rng.randint(0, 40))
               for _ in range(30)]
    # forests and disconnected graphs: nx.girth reports inf where girth is None
    for _ in range(20):
        pairs = [(rng.randrange(30), rng.randrange(30)) for _ in range(rng.randint(0, 40))]
        graphs.append(eb.Graph.from_edges(30, [(u, v) for u, v in pairs if u != v]))
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        want = nx.girth(h)
        assert eb.girth(g) == (None if want == float("inf") else want)


# ---------------------------------------------------------------------------
# path closed form

def test_path_closed_form_values():
    assert eb.path_avec_closed_form(1) == 0
    assert eb.path_avec_closed_form(4) == F(10, 4)
    assert eb.path_avec_closed_form(10) == 7


def test_path_closed_form_rejects_zero():
    with pytest.raises(ValueError):
        eb.path_avec_closed_form(0)


def test_path_closed_form_matches_measurement():
    for n in range(1, 61):
        prof = eb.eccentricity_profile(eb.path_graph(n))
        assert eb.path_avec_closed_form(n) == prof.avec, n


def test_path_is_the_maximum():
    # every connected graph of order n stays below the path value
    rng = random.Random(3)
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 20), rng.randint(0, 12))
        assert eb.eccentricity_profile(g).avec <= eb.path_avec_closed_form(g.n)


# ---------------------------------------------------------------------------
# weighted averages

def test_weighted_uniform_equals_plain():
    rng = random.Random(5)
    for _ in range(10):
        g = random_connected(rng, rng.randint(2, 15), rng.randint(0, 8))
        assert eb.weighted_avec(g, eb.WeightFunction((F(1),) * g.n)) == \
            eb.eccentricity_profile(g).avec


def test_weighted_point_mass():
    p3 = eb.path_graph(3)
    assert eb.weighted_avec(p3, eb.WeightFunction((F(1), F(0), F(0)))) == 2


def test_weighted_p3_mixed():
    p3 = eb.path_graph(3)
    assert eb.weighted_avec(p3, eb.WeightFunction((F(2), F(1), F(1)))) == F(7, 4)


def test_weighted_zero_total_rejected():
    with pytest.raises(ValueError):
        eb.weighted_avec(eb.path_graph(2), eb.WeightFunction((F(0), F(0))))


def test_weight_function_rejects_negative():
    with pytest.raises(ValueError):
        eb.WeightFunction((F(-1), F(2)))


def test_weighted_path_comparison_property():
    # integer weights >= 1 never push the weighted average past the path value
    rng = random.Random(41)
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 25), rng.randint(0, 15))
        weights = eb.WeightFunction(tuple(F(rng.randint(1, 5)) for _ in range(g.n)))
        n_total = int(weights.total)
        assert eb.weighted_avec(g, weights) <= eb.path_avec_closed_form(n_total)


# ---------------------------------------------------------------------------
# line graphs

def test_line_graph_small_cases():
    lp3 = eb.line_graph(eb.path_graph(3))
    assert lp3.edges == ((0, 1),)  # K2
    lk3 = eb.line_graph(eb.complete_graph(3))
    assert lk3.edges == eb.complete_graph(3).edges
    lstar = eb.line_graph(eb.complete_bipartite(1, 4))
    assert lstar.edges == eb.complete_graph(4).edges


def test_networkx_line_graph():
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    graphs = [g for _, g in named_small()]
    graphs += [eb.chain_graph(3, 6, 2)[0], eb.projective_plane_incidence(3)]
    graphs += [random_connected(rng, rng.randint(2, 40), extra_edges=rng.randint(0, 30))
               for _ in range(20)]
    # isolated vertices and isolated edges
    graphs += [eb.Graph.from_edges(9, [(0, 1), (2, 3), (3, 4)]), eb.Graph.from_edges(3, [])]
    for g in graphs:
        line = eb.line_graph(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        want = nx.line_graph(h)
        # networkx names a line-graph vertex by its edge, in either orientation
        index = {e: i for i, e in enumerate(g.edges)}
        index.update({(v, u): i for (u, v), i in index.items()})
        assert sorted(index[e] for e in want.nodes) == list(range(line.n))
        assert sorted(tuple(sorted((index[a], index[b]))) for a, b in want.edges) == \
            list(line.edges)


def test_line_graph_vertex_count():
    for name, g in named_small():
        assert eb.line_graph(g).n == g.m, name


# ---------------------------------------------------------------------------
# construction guards

def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        eb.Graph.from_edges(3, [(1, 1)])


EMPTY = eb.Graph.from_edges(0, [])


# the line parser's error rows: text, message
PARSE_ERRORS = [
    ("3", "line 1: expected header 'n m', got '3'"),
    ("a b", "line 1: non-integer header 'a b'"),
    ("0 0", "line 1: vertex count must be positive, got 0"),
    ("3 -1", "line 1: edge count must be nonnegative, got -1"),
    ("-1 0", "line 1: vertex count must be positive, got -1"),
    ("1_0 9", "line 1: non-integer header '1_0 9'"),
    ("3 +1\n0 1", "line 1: non-integer header '3 +1'"),
    ("30 1\n1 2_0", "line 2: non-integer edge '1 2_0'"),
    ("3 1\n1 +2", "line 2: non-integer edge '1 +2'"),
    ("3 1\n1 \u0662", "line 2: non-integer edge '1 \u0662'"),
    ("3 1\n0 -1", "line 2: vertex id out of range in edge (0,-1)"),
]


@pytest.mark.parametrize("call, message", [
    *((functools.partial(eb.parse_edge_list, text), message) for text, message in PARSE_ERRORS),
    (lambda: eb.Graph.from_edges(-1, []), "vertex count must be nonnegative"),
    (lambda: eb.Graph.from_edges(3, [(0, 3)]), "edge (0,3) out of range for n=3"),
    (EMPTY.min_degree, "degree undefined on the empty graph"),
    (EMPTY.max_degree, "degree undefined on the empty graph"),
    (lambda: eb.bfs_distances(eb.path_graph(3), 3), "source 3 out of range"),
    (lambda: eb.bfs_distances(eb.path_graph(3), -1), "source -1 out of range"),
    (lambda: eb.multi_source_distances(eb.path_graph(3), []), "sources must be nonempty"),
    (lambda: eb.multi_source_distances(eb.petersen_graph(), [-1]), "source -1 out of range"),
    (lambda: eb.multi_source_distances(eb.petersen_graph(), [0, 10]), "source 10 out of range"),
    (lambda: eb.weighted_avec(eb.path_graph(3), eb.WeightFunction((1, 1))),
     "weight vector length must equal the vertex count"),
], ids=["header-one-token", "header-non-integer", "header-no-vertices", "header-negative-m",
        "header-negative-n", "header-underscore", "header-plus", "edge-underscore", "edge-plus",
        "edge-arabic-indic", "edge-negative",
        "negative-n", "edge-out-of-range", "min-degree-empty", "max-degree-empty",
        "bfs-source-out-of-range", "bfs-negative-source", "no-sources", "negative-source",
        "source-n", "weight-length"])
def test_input_validation_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_has_edge_is_false_off_the_vertex_range():
    g = eb.petersen_graph()
    u, v = g.edges[0]
    assert g.has_edge(u, v) and g.has_edge(v, u)
    # a negative id must not wrap around to the last vertex's list
    assert not any(g.has_edge(-1, v) or g.has_edge(v, -1) for v in range(10))
    assert not g.has_edge(99, 100) and not g.has_edge(0, 10) and not g.has_edge(10, 0)


def test_from_ascending_rebuilds_every_graph():
    rng = random.Random(43)
    graphs = [g for _, g in named_small()] + [eb.Graph.from_edges(4, [(1, 2)])]
    graphs += [random_connected(rng, rng.randint(1, 40), extra_edges=rng.randint(0, 30))
               for _ in range(20)]
    for g in graphs:
        assert eb.Graph._from_ascending(g.adj) == g
        line = eb.line_graph(g)
        assert line == eb.Graph.from_edges(line.n, line.edges)


def test_adjacency_symmetric_and_degree_sum():
    for name, g in named_small():
        for u in range(g.n):
            for v in g.adj[u]:
                assert u in g.adj[v], name
        assert sum(map(len, g.adj)) == 2 * g.m, name


def test_graph_json_shape():
    g = eb.path_graph(3)
    assert g.to_json_dict() == {"n": 3, "edges": [[0, 1], [1, 2]]}
