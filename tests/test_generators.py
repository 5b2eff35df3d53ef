"""Named constructions and the randomized (delta, girth)-constrained search."""
from __future__ import annotations

import pytest

import eccbounds as eb


# ---------------------------------------------------------------------------
# named graphs

def test_path_cycle_complete_shapes():
    assert eb.path_graph(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert eb.cycle_graph(4).m == 4
    assert eb.complete_graph(6).m == 15


def test_complete_bipartite_shape():
    g = eb.complete_bipartite(3, 3)
    assert g.n == 6 and g.m == 9 and eb.girth(g) == 4


def test_petersen_fifteen_edges():
    g = eb.petersen_graph()
    assert g.n == 10 and g.m == 15
    assert g.min_degree() == g.max_degree() == 3


def test_heawood_shape():
    g = eb.heawood_graph()
    assert g.n == 14 and g.m == 21 and eb.girth(g) == 6


def test_hoffman_singleton_shape():
    g = eb.hoffman_singleton_graph()
    assert g.n == 50 and g.m == 175
    assert g.min_degree() == g.max_degree() == 7
    assert eb.girth(g) == 5


def test_projective_plane_incidence_properties():
    for q in (2, 3, 4, 5, 7, 8):
        g = eb.projective_plane_incidence(q)
        count = q * q + q + 1
        assert g.n == 2 * count
        assert g.min_degree() == g.max_degree() == q + 1
        assert eb.girth(g) == 6
        # bipartite between points and lines
        assert all(u < count <= v for u, v in g.edges)


def test_projective_plane_rejects_non_prime_power():
    with pytest.raises(ValueError):
        eb.projective_plane_incidence(6)


# ---------------------------------------------------------------------------
# randomized generation

def test_random_output_reverified():
    for (n, d, gv, seed) in [(20, 3, 5, 1), (40, 3, 6, 2), (60, 4, 5, 3), (30, 2, 5, 4)]:
        out = eb.random_min_degree_girth(eb.GeneratorConfig(n=n, delta=d, g=gv, seed=seed))
        assert isinstance(out, eb.Graph), (n, d, gv)
        assert eb.is_connected(out)
        assert out.min_degree() >= d
        assert eb.girth(out) >= gv


def test_random_deterministic():
    cfg = eb.GeneratorConfig(n=36, delta=3, g=5, seed=99)
    a = eb.random_min_degree_girth(cfg)
    b = eb.random_min_degree_girth(cfg)
    assert a.edges == b.edges
    other = eb.random_min_degree_girth(eb.GeneratorConfig(n=36, delta=3, g=5, seed=100))
    assert other.edges != a.edges


def test_random_impossible_instance_fails_honestly():
    out = eb.random_min_degree_girth(eb.GeneratorConfig(n=4, delta=3, g=4, seed=1))
    assert isinstance(out, eb.GenerationFailure)
    assert out.restarts == 50
    assert out.attempts > 0


def test_random_forced_k33():
    # n=6, delta=3, girth 4: the only instance is the balanced complete
    # bipartite graph, whatever the seed
    for seed in (1, 2, 3):
        out = eb.random_min_degree_girth(eb.GeneratorConfig(n=6, delta=3, g=4, seed=seed))
        assert isinstance(out, eb.Graph)
        assert out.m == 9 and eb.girth(out) == 4
        assert out.min_degree() == out.max_degree() == 3


def test_generator_config_validation():
    with pytest.raises(ValueError):
        eb.random_min_degree_girth(eb.GeneratorConfig(n=3, delta=3, g=4, seed=1))
    with pytest.raises(ValueError):
        eb.random_min_degree_girth(eb.GeneratorConfig(n=9, delta=1, g=4, seed=1))


def test_emit_edge_list_round_trip():
    cfg = eb.GeneratorConfig(n=24, delta=3, g=5, seed=8)
    out = eb.random_min_degree_girth(cfg)
    text = eb.emit_edge_list(out, cfg)
    assert text.rstrip().splitlines()[-1] == "# seed=8 delta=3 g=5"
    parsed = eb.parse_edge_list(text)
    assert parsed.edges == out.edges


def test_emit_edge_list_without_config():
    text = eb.emit_edge_list(eb.path_graph(3))
    assert text == "3 2\n0 1\n1 2\n"
