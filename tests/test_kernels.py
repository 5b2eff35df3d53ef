"""Differential tests of the eccentricity kernels behind ``eccentricity_profile``.

Trees take the double sweep, other graphs whose BFS from vertex 0 reaches
past ``_BOUNDED_MIN_RUNS`` take eccentricity bounding, and the rest, or a
graph the bounding gives up on, take the bit-parallel frontier expansion.
Every kernel must reproduce the one-BFS-per-vertex oracle exactly, the Moore
chains' closed form, and an independent library where it is installed.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eccbounds as eb
import eccbounds.graph as graph_module
from eccbounds.graph import (
    _BOUNDED_MIN_RUNS,
    _bitset_eccentricities,
    _bounded_eccentricities,
    _sweep,
    bfs_distances,
)
from conftest import (
    caterpillar_with_triangle,
    chain_ecc_oracle,
    cored_graphs,
    ecc_oracle,
    named_small,
    random_connected,
)
from test_golden import INSTANCES as GOLDEN_INSTANCES


def _assert_matches_oracle(g: eb.Graph):
    prof = eb.eccentricity_profile(g)
    want = ecc_oracle(g)
    assert prof.ecc == want
    assert prof.total == sum(want)
    assert prof.avec == F(sum(want), g.n)
    assert (prof.radius, prof.diameter) == (min(want), max(want))


# ---------------------------------------------------------------------------
# fixed and generated corpora

@pytest.mark.parametrize("name,g", named_small(), ids=[name for name, _ in named_small()])
def test_named_corpus(name, g):
    _assert_matches_oracle(g)


def test_single_vertex_and_edge():
    assert eb.eccentricity_profile(eb.path_graph(1)).ecc == (0,)
    assert eb.eccentricity_profile(eb.path_graph(2)).ecc == (1, 1)


@pytest.mark.parametrize("n", [3, 4, 7, 10, 31, 64, 65])
def test_paths(n):
    _assert_matches_oracle(eb.path_graph(n))


@pytest.mark.parametrize("leaves", [1, 2, 5, 40])
def test_stars(leaves):
    g = eb.complete_bipartite(1, leaves)
    _assert_matches_oracle(g)
    want = (1, 1) if leaves == 1 else (1,) + (2,) * leaves
    assert eb.eccentricity_profile(g).ecc == want


def test_random_trees_both_kernels():
    rng = random.Random(2013)
    for _ in range(60):
        g = random_connected(rng, rng.randint(1, 120))
        _assert_matches_oracle(g)
        if g.n >= 3:  # the bitset kernel is exact on trees too
            assert tuple(_bitset_eccentricities(g)) == ecc_oracle(g)


def test_random_sparse_and_dense_graphs():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(3, 90)
        g = random_connected(rng, n, extra_edges=rng.choice([1, 2, n // 4, n, 3 * n]))
        _assert_matches_oracle(g)


@pytest.mark.parametrize("delta,g,ks", [(3, 5, range(1, 7)), (3, 6, range(1, 6))])
def test_moore_chains(delta, g, ks):
    for k in ks:
        _assert_matches_oracle(eb.chain_graph(delta, g, k)[0])


def test_generated_corpora_and_certificate_trees(odd_corpus, even_corpus):
    for rec in odd_corpus["records"] + even_corpus["records"]:
        _assert_matches_oracle(rec["graph"])
        _assert_matches_oracle(rec["cert"].tree)


# ---------------------------------------------------------------------------
# the bitset kernel's degree-3 path: from round 2 on a degree-3 vertex's ball
# is the union of its three neighbours' balls, its own set left out

def cube_graph() -> eb.Graph:
    """The cube Q3: vertices 0..7, adjacent when their bits differ in one place."""
    return eb.Graph.from_edges(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4)])


def cubic_graphs():
    """Named graphs of minimum degree 3, nearly all of whose vertices have
    degree 3: a chain's links give its end copies a vertex of degree 4 each.
    K4 is full after round 1, so its degree-3 list never runs."""
    graphs = [("K4", eb.complete_graph(4)), ("K33", eb.complete_bipartite(3, 3)),
              ("Q3", cube_graph()), ("Petersen", eb.petersen_graph()),
              ("Heawood", eb.heawood_graph())]
    graphs += [(f"chain-3-{girth}-{k}", eb.chain_graph(3, girth, k)[0])
               for girth, ks in ((4, range(1, 5)), (5, range(1, 5)), (6, range(1, 4)))
               for k in ks]
    graphs += [(f"gen-n{n}-g{girth}", eb.random_min_degree_girth(
                    eb.GeneratorConfig(n=n, delta=3, g=girth, seed=seed)))
               for n, girth, seed in ((300, 5, 1), (400, 6, 2))]
    return graphs


CUBIC = cubic_graphs()


@pytest.mark.parametrize("g", [g for _, g in CUBIC], ids=[name for name, _ in CUBIC])
def test_bitset_kernel_on_cubic_graphs(g):
    assert min(len(around) for around in g.adj) == 3
    assert tuple(_bitset_eccentricities(g)) == ecc_oracle(g)


def test_networkx_eccentricity_of_cubic_graphs():
    nx = pytest.importorskip("networkx")
    for _, g in CUBIC:
        assert tuple(_bitset_eccentricities(g)) == _networkx_ecc(nx, g)


@st.composite
def near_cubic_graphs(draw):
    """The cycle ``0..n-1`` plus a random partial matching of chords, so that
    most vertices have degree 3.  The chord ``(0, c)`` is always drawn, and
    vertex 0 also carries the pendant vertex ``n``: one vertex of degree 4
    and one of degree 1.  Ids are shuffled."""
    n = draw(st.integers(min_value=4, max_value=60))
    c = draw(st.integers(min_value=2, max_value=n - 2))
    pairs = [(v, (v + 1) % n) for v in range(n)] + [(0, c), (0, n)]
    rest = draw(st.permutations([v for v in range(1, n) if v != c]))
    for u, v in zip(rest[::2], rest[1::2]):
        if (u - v) % n not in (1, n - 1) and draw(st.booleans()):
            pairs.append((u, v))
    ids = draw(st.permutations(range(n + 1)))
    return eb.Graph.from_edges(n + 1, [(ids[u], ids[v]) for u, v in pairs])


@settings(max_examples=150, deadline=None)
@given(near_cubic_graphs())
def test_property_bitset_kernel_on_near_cubic_graphs(g):
    degrees = sorted(len(around) for around in g.adj)
    assert degrees[0] == 1 and degrees[-1] == 4 and degrees[-2] <= 3
    assert tuple(_bitset_eccentricities(g)) == ecc_oracle(g)


# ---------------------------------------------------------------------------
# long diameters: eccentricity bounding, and the bitset kernel as its fallback

def grid_graph(rows: int, cols: int) -> eb.Graph:
    pairs = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    pairs += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return eb.Graph.from_edges(rows * cols, pairs)


def chorded_cycle(n: int, chords: int, seed: int) -> eb.Graph:
    """The cycle C_n plus ``chords`` random chords spanning 2 to 6 cycle edges."""
    rng = random.Random(seed)
    pairs = [(v, (v + 1) % n) for v in range(n)]
    pairs += [(u, (u + rng.randint(2, 6)) % n) for u in rng.sample(range(n), chords)]
    return eb.Graph.from_edges(n, pairs)


def _kernels_taken(g: eb.Graph, want: tuple[int, ...], monkeypatch) -> list[str]:
    """Profile ``g`` against its oracle eccentricities ``want``; the names of
    the kernels the profile ran."""
    taken = []
    for name in ("_bounded_eccentricities", "_bitset_eccentricities"):
        real = getattr(graph_module, name)

        def wrapped(*args, _real=real, _name=name):
            taken.append(_name)
            return _real(*args)

        monkeypatch.setattr(graph_module, name, wrapped)
    assert eb.eccentricity_profile(g).ecc == want
    return taken


# (3,5,5) has e0 = 19 and (3,6,4) e0 = 17, the shortest chains past the cutoff
LONG_CHAINS = ([(3, 5, k) for k in (*range(5, 17), 60, 300)]
               + [(3, 6, k) for k in (*range(4, 14), 45, 151)])


@pytest.mark.parametrize("delta,girth,k", LONG_CHAINS, ids=[f"{d}-{g}-{k}" for d, g, k in LONG_CHAINS])
def test_long_chains_take_the_bounding_kernel(delta, girth, k, monkeypatch):
    g = eb.chain_graph(delta, girth, k)[0]
    first = bfs_distances(g, 0)
    assert max(first) > _BOUNDED_MIN_RUNS
    want = ecc_oracle(g)
    assert _bounded_eccentricities(g, first) == list(want)
    assert _kernels_taken(g, want, monkeypatch) == ["_bounded_eccentricities"]


@pytest.mark.parametrize("delta,girth,k,e0", [(3, 5, 4, 14), (3, 5, 5, 19), (3, 6, 3, 11),
                                              (3, 6, 4, 17)],
                         ids=["3-5-4", "3-5-5", "3-6-3", "3-6-4"])
def test_chains_either_side_of_the_cutoff(delta, girth, k, e0, monkeypatch):
    g = eb.chain_graph(delta, girth, k)[0]
    assert max(bfs_distances(g, 0)) == e0
    kernel = "_bounded_eccentricities" if e0 > _BOUNDED_MIN_RUNS else "_bitset_eccentricities"
    assert _kernels_taken(g, ecc_oracle(g), monkeypatch) == [kernel]


@pytest.mark.parametrize("name", ["gen-n1000-d3-g5-s1", "gen-n1000-d3-g6-s1"])
def test_golden_expanders_keep_the_bitset_kernel(name, monkeypatch):
    g = GOLDEN_INSTANCES[name]()
    assert max(bfs_distances(g, 0)) <= _BOUNDED_MIN_RUNS
    assert _kernels_taken(g, ecc_oracle(g), monkeypatch) == ["_bitset_eccentricities"]


@pytest.mark.parametrize("g", [grid_graph(10, 100), grid_graph(3, 70), grid_graph(2, 150)],
                         ids=["grid-10x100", "grid-3x70", "ladder-150"])
def test_grids_and_ladders_take_the_bounding_kernel(g, monkeypatch):
    first = bfs_distances(g, 0)
    assert max(first) > _BOUNDED_MIN_RUNS
    want = ecc_oracle(g)
    assert _bounded_eccentricities(g, first) == list(want)
    assert _kernels_taken(g, want, monkeypatch) == ["_bounded_eccentricities"]


@pytest.mark.parametrize("g", [eb.cycle_graph(35), eb.cycle_graph(64), eb.cycle_graph(129),
                               eb.cycle_graph(151), eb.cycle_graph(200), eb.cycle_graph(601),
                               chorded_cycle(800, 40, seed=1)],
                         ids=["C35", "C64", "C129", "C151", "C200", "C601", "C800-40-chords"])
def test_cycles_fall_back_after_the_run_cap(g, monkeypatch):
    # every run finds e0 and closes only its source, so bounding gives up
    # after two runs, well before the cap
    first = bfs_distances(g, 0)
    assert max(first) > _BOUNDED_MIN_RUNS
    assert _bounding_runs(g, first, monkeypatch) == 2
    taken = _kernels_taken(g, ecc_oracle(g), monkeypatch)
    assert taken == ["_bounded_eccentricities", "_bitset_eccentricities"]


def cycle_with_pendant(n: int) -> eb.Graph:
    return eb.Graph.from_edges(n + 1, [(v, (v + 1) % n) for v in range(n)] + [(n // 2, n)])


@pytest.mark.parametrize("g", [cycle_with_pendant(34), cycle_with_pendant(64),
                               cycle_with_pendant(200)],
                         ids=["C34-pendant", "C64-pendant", "C200-pendant"])
def test_cycles_with_a_pendant_give_up_after_two_runs(g, monkeypatch):
    # the eccentricities are e0 and e0 - 1, every run finds one of them and
    # two runs close 3 vertices, so bounding gives up after two runs
    first = bfs_distances(g, 0)
    assert max(first) > _BOUNDED_MIN_RUNS
    assert {max(first) - 1, max(first)} == set(ecc_oracle(g))
    assert _bounding_runs(g, first, monkeypatch) == 2
    taken = _kernels_taken(g, ecc_oracle(g), monkeypatch)
    assert taken == ["_bounded_eccentricities", "_bitset_eccentricities"]


@pytest.mark.parametrize("g", [chorded_cycle(800, 40, seed=4)], ids=["C800-40-chords-s4"])
def test_uneven_cycles_give_up_at_the_run_cap(g, monkeypatch):
    # a run finds an eccentricity more than one off e0, so the bounds run to the cap
    first = bfs_distances(g, 0)
    e0 = max(first)
    assert e0 > _BOUNDED_MIN_RUNS
    assert _bounding_runs(g, first, monkeypatch) == max(_BOUNDED_MIN_RUNS, e0 // 8)
    taken = _kernels_taken(g, ecc_oracle(g), monkeypatch)
    assert taken == ["_bounded_eccentricities", "_bitset_eccentricities"]


def test_caterpillar_below_a_high_triangle_is_profiled_fast():
    # n = 8000, m = n and e0 = 3999: the high runs' double sweep closes every
    # vertex in 3 runs.  High runs from the highest upper bound alone run to
    # the cap of 499 runs, and the bitset kernel then takes about 4000 rounds
    # over 8000-bit ints, over 10 s
    g = caterpillar_with_triangle(4000, 3998)
    start = time.perf_counter()
    prof = eb.eccentricity_profile(g)
    assert time.perf_counter() - start < 1.0
    assert (prof.total, prof.radius, prof.diameter) == (24003999, 2000, 4000)


@pytest.mark.parametrize("a", [298, 150, 1], ids=["a=298", "a=150", "a=1"])
def test_caterpillars_with_a_triangle_take_the_bounding_kernel(a, monkeypatch):
    g = caterpillar_with_triangle(300, a)
    assert _kernels_taken(g, ecc_oracle(g), monkeypatch) == ["_bounded_eccentricities"]


CATALOG_PAIRS = [(3, 5), (7, 5), (3, 6), (4, 6), (5, 6), (6, 6), (8, 6), (4, 3), (5, 3),
                 (3, 4), (6, 4)]
CHAIN_RUNS = ([(d, g, range(1, 13)) for d, g in CATALOG_PAIRS]
              + [(3, 5, (59, 60)), (3, 6, (59, 60))])


@pytest.mark.parametrize("delta,girth,ks", CHAIN_RUNS,
                         ids=[f"{d}-{g}-{ks[0]}..{ks[-1]}" for d, g, ks in CHAIN_RUNS])
def test_chain_profiles_equal_the_chain_formula(delta, girth, ks):
    for k in ks:
        prof = eb.eccentricity_profile(eb.chain_graph(delta, girth, k)[0])
        assert prof.ecc == chain_ecc_oracle(delta, girth, k), k


def _sweep_sources(call, monkeypatch) -> list[int]:
    """The sources of the single-source sweeps ``call()`` runs, in order."""
    sources = []

    def counted(adj, n, order):
        assert len(order) == 1
        sources.append(order[0])
        return _sweep(adj, n, order)
    with monkeypatch.context() as mp:
        mp.setattr(graph_module, "_sweep", counted)
        call()
    return sources


def _sweeps_run(call, monkeypatch) -> int:
    """The single-source sweeps ``call()`` runs."""
    return len(_sweep_sources(call, monkeypatch))


def _bounding_runs(g: eb.Graph, first: list[int], monkeypatch) -> int:
    """BFS runs :func:`_bounded_eccentricities` spends before it gives up."""
    def call():
        assert _bounded_eccentricities(g, first) is None
    return _sweeps_run(call, monkeypatch)


@pytest.mark.parametrize("girth,ks,sweeps", [(5, range(1, 61), 368), (6, range(1, 46), 423),
                                              (5, [300], 1 + 4), (6, [151], 1 + 14)],
                         ids=["3-5-1..60", "3-6-1..45", "3-5-300", "3-6-151"])
def test_benchmark_chains_keep_their_sweep_counts(girth, ks, sweeps, monkeypatch):
    # every single-source sweep the profile runs on the chain-sharpness
    # workload's chains, and on two long ones: the connectivity sweep, and
    # any bounding runs.  Of the chains that take bounding (e0 > 16), those
    # with even k close in 4 runs, and with odd k (3,5,k) in 7 and (3,6,k) 14
    graphs = [eb.chain_graph(3, girth, k)[0] for k in ks]

    def call():
        for g in graphs:
            eb.eccentricity_profile(g)
    assert _sweeps_run(call, monkeypatch) == sweeps


@pytest.mark.parametrize("girth,k,centre", [(5, 59, 4), (5, 60, 2), (6, 44, 2), (6, 45, 8),
                                              (6, 151, 8)],
                         ids=["3-5-59", "3-5-60", "3-6-44", "3-6-45", "3-6-151"])
def test_bounding_sweeps_every_centre_vertex(girth, k, centre, monkeypatch):
    # a source s != w gives w the upper bound e_s + d(s, w) >= radius + 1, so
    # a vertex whose eccentricity is the radius closes only as a run's source
    # or as vertex 0: the 8 centre vertices of (3,6,k) with odd k are a floor
    # of 8 runs under its 14
    g = eb.chain_graph(3, girth, k)[0]
    sources = _sweep_sources(lambda: eb.eccentricity_profile(g), monkeypatch)
    assert sources[0] == 0 and len(sources) > 1  # the connectivity sweep, then bounding
    prof = eb.eccentricity_profile(g)
    centres = {v for v, e in enumerate(prof.ecc) if e == prof.radius}
    assert len(centres) == centre
    assert centres <= set(sources)


@st.composite
def long_diameter_graphs(draw):
    """A path or cycle backbone on 40..260 vertices plus chords spanning at
    most 6 backbone edges.  A chord shortens a walk by at most 5, so with at
    most ``(reach - 17) // 5`` chords vertex 0 stays more than 16 hops from
    the backbone's far end."""
    n = draw(st.integers(min_value=40, max_value=260))
    cycle = draw(st.booleans())
    pairs = [(v, v + 1) for v in range(n - 1)] + ([(n - 1, 0)] if cycle else [])
    reach = n // 2 if cycle else n - 1
    chord = st.tuples(st.integers(min_value=0, max_value=n - 1), st.integers(min_value=2, max_value=6))
    for u, span in draw(st.lists(chord, max_size=(reach - 17) // 5)):
        if cycle or u + span < n:
            pairs.append((u, (u + span) % n))
    return eb.Graph.from_edges(n, pairs)


@settings(max_examples=60, deadline=None)
@given(long_diameter_graphs())
def test_property_long_diameter_kernels_equal_oracle(g):
    first = bfs_distances(g, 0)
    assert max(first) > _BOUNDED_MIN_RUNS
    want = ecc_oracle(g)
    bounded = _bounded_eccentricities(g, first)
    assert bounded is None or tuple(bounded) == want
    assert eb.eccentricity_profile(g).ecc == want


@settings(max_examples=100, deadline=None)
@given(cored_graphs(cycles=1, scale=6))
@example(caterpillar_with_triangle(40, 38))
def test_property_cored_graph_kernels_equal_oracle(g):
    # one cycle with chords, with pendant trees and paths hung on it
    first = bfs_distances(g, 0)
    want = ecc_oracle(g)
    bounded = _bounded_eccentricities(g, first)
    assert bounded is None or tuple(bounded) == want
    assert eb.eccentricity_profile(g).ecc == want


def test_disconnected_input_raises():
    for g in (eb.Graph.from_edges(2, []),
              eb.Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]),        # forest
              eb.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]),        # m == n - 1, not a tree
              eb.Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])):
        with pytest.raises(eb.DisconnectedGraphError):
            eb.eccentricity_profile(g)


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        eb.eccentricity_profile(eb.Graph.from_edges(0, []))


# ---------------------------------------------------------------------------
# property and independent-library checks

@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    parents = [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    pairs = list(zip(parents, range(1, n)))
    if n >= 2:
        vertex = st.integers(min_value=0, max_value=n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        pairs.extend((u, v) for u, v in extra if u != v)
    return eb.Graph.from_edges(n, pairs)


@settings(max_examples=300, deadline=None)
@given(connected_graphs())
def test_property_kernel_equals_oracle(g):
    _assert_matches_oracle(g)


def _networkx_ecc(nx, g: eb.Graph) -> tuple[int, ...]:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    want = nx.eccentricity(h)
    return tuple(want[v] for v in range(g.n))


def test_networkx_eccentricity():
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    graphs = [g for _, g in named_small()]
    graphs += [eb.chain_graph(3, 5, 3)[0], eb.chain_graph(3, 6, 3)[0]]
    graphs += [eb.chain_graph(3, 5, 40)[0], eb.cycle_graph(151)]  # bounding; its fallback
    graphs += [random_connected(rng, rng.randint(2, 80), extra_edges=rng.randint(0, 60))
               for _ in range(30)]
    for g in graphs:
        assert eb.eccentricity_profile(g).ecc == _networkx_ecc(nx, g)


@settings(max_examples=10, deadline=None)
@given(cored_graphs(cycles=1, scale=6))
def test_networkx_eccentricity_of_cored_graphs(g):
    nx = pytest.importorskip("networkx")
    assert eb.eccentricity_profile(g).ecc == _networkx_ecc(nx, g)
