"""Graph core: parsing, distances, eccentricity, girth, line graphs, weights."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eccbounds as eb
from conftest import (
    floyd_warshall,
    girth_oracle,
    girth_per_root_oracle,
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
    assert all(g.degree(v) == 3 for v in range(4))


def test_parse_comments_and_duplicates():
    text = "# a comment\n3 3\n0 1\n# middle\n1 0\n1 2\n"
    g = eb.parse_edge_list(text)
    assert g.edges == ((0, 1), (1, 2))  # duplicate silently collapsed


def test_parse_bytes_input():
    g = eb.parse_edge_list(b"2 1\n0 1\n")
    assert g.m == 1


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
        assert eb.weighted_avec(g, eb.WeightFunction.uniform(g.n)) == \
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
    lp3, _ = eb.line_graph(eb.path_graph(3))
    assert lp3.edges == ((0, 1),)  # K2
    lk3, _ = eb.line_graph(eb.complete_graph(3))
    assert lk3.edges == eb.complete_graph(3).edges
    lstar, table = eb.line_graph(eb.complete_bipartite(1, 4))
    assert lstar.edges == eb.complete_graph(4).edges
    assert len(table) == 4


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
        line, table = eb.line_graph(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        want = nx.line_graph(h)
        # networkx names a line-graph vertex by its edge, in either orientation
        index = {e: i for i, e in enumerate(table)}
        index.update({(v, u): i for (u, v), i in index.items()})
        assert sorted(index[e] for e in want.nodes) == list(range(line.n))
        assert sorted(tuple(sorted((index[a], index[b]))) for a, b in want.edges) == \
            list(line.edges)


def test_line_graph_vertex_count():
    for name, g in named_small():
        lg, table = eb.line_graph(g)
        assert lg.n == g.m and table == g.edges, name


# ---------------------------------------------------------------------------
# construction guards

def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        eb.Graph.from_edges(3, [(1, 1)])


def test_adjacency_symmetric_and_degree_sum():
    for name, g in named_small():
        for u in range(g.n):
            for v in g.adj[u]:
                assert u in g.adj[v], name
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m, name


def test_graph_json_shape():
    g = eb.path_graph(3)
    assert g.to_json_dict() == {"n": 3, "edges": [[0, 1], [1, 2]]}
