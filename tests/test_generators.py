"""Named constructions and the randomized (delta, girth)-constrained search."""
from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eccbounds as eb
from conftest import field_tables_oracle, random_min_degree_girth_oracle
from eccbounds.generators import _field_tables


# ---------------------------------------------------------------------------
# named graphs

def test_path_cycle_complete_shapes():
    assert eb.path_graph(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert eb.cycle_graph(4).m == 4
    assert eb.complete_graph(6).m == 15


@pytest.mark.parametrize("call, message", [
    (lambda: eb.path_graph(0), "path needs at least one vertex"),
    (lambda: eb.cycle_graph(2), "cycle needs at least three vertices"),
    (lambda: eb.complete_graph(0), "complete graph needs at least one vertex"),
    (lambda: eb.complete_bipartite(0, 3), "both parts must be nonempty"),
], ids=["path-0", "cycle-2", "complete-0", "bipartite-0-3"])
def test_input_validation_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


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


def test_field_tables_equal_the_two_path_oracle():
    """Equal tables for every prime q below 131 and for 4, 8 and 9, and the
    same ValueError for every other q in 0..130."""
    tabled = []
    for q in range(131):
        try:
            want = field_tables_oracle(q)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _field_tables(q)
            assert str(got.value) == str(exc), q
            kind = "is not a prime power" if q in (1, 121) else "no field table"
            assert kind in str(exc), q
        else:
            assert _field_tables(q) == want, q
            tabled.append(q)
    primes = [q for q in range(2, 131) if all(q % d for d in range(2, q))]
    assert tabled == sorted(primes + [4, 8, 9])


# SHA-256 of emit_edge_list(projective_plane_incidence(q)); q = 2 is the
# Heawood graph, pinned in test_golden.py
PLANE_SHA256 = {
    3: "7bdc9313ee2cdd4d6e965ad77938afa1d487a7927bafd09a094c9b7bbdf1f472",
    4: "86ac720895c240bb88b596ff219aabd360973a0a717326ea6428d15487f63659",
    5: "f2badcff899539b4cc71697e9512534bdb629959849913e269bda60687a93d28",
    7: "11eee738b3e1020e7d9bbb46aa9e3a9593e10f51ea7ee3b4fda0bf27fc18fbfd",
    8: "b85fd78efdcc0ce4aed9c871f49c5307a8a3df0023df1e01f32747adafec5431",
    9: "1dc3dae2943e7da6168cbb2d7a5cd69cf5e6b8afbc5cd9a0e763dc6307f94877",
}


@pytest.mark.parametrize("q", sorted(PLANE_SHA256))
def test_projective_plane_edge_list_digest(q):
    text = eb.emit_edge_list(eb.projective_plane_incidence(q))
    assert hashlib.sha256(text.encode()).hexdigest() == PLANE_SHA256[q]


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


@settings(max_examples=150, deadline=None)
@given(n=st.integers(8, 120), delta=st.integers(2, 5), g=st.integers(3, 7),
       seed=st.integers(0, 10**6), max_restarts=st.integers(1, 3))
def test_property_generator_equals_oracle(n, delta, g, seed, max_restarts):
    # the bucketed bookkeeping draws exactly what the O(n)-per-attempt form
    # draws, so graphs and failures (with their attempt counts) agree
    cfg = eb.GeneratorConfig(n=n, delta=delta, g=g, seed=seed, max_restarts=max_restarts)
    assert eb.random_min_degree_girth(cfg) == random_min_degree_girth_oracle(cfg)


def test_generator_equals_oracle_on_failures_and_large_orders():
    # the last five often draw from every vertex (the ball holds all the
    # deficient ones) or stall, so the step past the ball members runs on
    # both pools
    configs = [(4, 3, 4, 1, 3), (8, 3, 5, 2, 2), (12, 4, 5, 3, 2), (40, 5, 6, 4, 1),
               (300, 3, 5, 5, 50), (300, 3, 7, 6, 50), (500, 4, 5, 7, 50),
               (100, 5, 6, 1, 2), (40, 5, 5, 1, 2), (100, 4, 7, 1, 2), (24, 4, 5, 1, 2),
               (60, 4, 6, 1, 2)]
    failures = 0
    counts = Counter()
    for n, delta, g, seed, max_restarts in configs:
        cfg = eb.GeneratorConfig(n=n, delta=delta, g=g, seed=seed, max_restarts=max_restarts)
        out = eb.random_min_degree_girth(cfg)
        assert out == random_min_degree_girth_oracle(cfg, counts)
        failures += isinstance(out, eb.GenerationFailure)
    assert failures >= 3
    # 48 endgame draws and 556 stalls when written
    assert counts["endgame"] >= 40 and counts["stalls"] >= 500


@pytest.mark.parametrize("n,delta,g", [(400, 3, 6), (300, 3, 5)])
def test_generator_equals_oracle_at_batch_shapes(n, delta, g):
    # the configurations `eccb batch --seed 1 --n N --delta 3 --g G` draws
    for i in range(4):
        cfg = eb.GeneratorConfig(n=n, delta=delta, g=g, seed=1_000_003 + i)
        out = eb.random_min_degree_girth(cfg)
        assert isinstance(out, eb.Graph)
        assert out == random_min_degree_girth_oracle(cfg)


def test_generator_config_validation():
    with pytest.raises(ValueError):
        eb.random_min_degree_girth(eb.GeneratorConfig(n=3, delta=3, g=4, seed=1))
    with pytest.raises(ValueError):
        eb.random_min_degree_girth(eb.GeneratorConfig(n=9, delta=1, g=4, seed=1))
    for max_restarts in (0, -3):  # no attempt at all is not a failed search
        with pytest.raises(ValueError, match="max_restarts >= 1"):
            eb.random_min_degree_girth(eb.GeneratorConfig(n=30, delta=3, g=5, seed=1,
                                                          max_restarts=max_restarts))


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
