"""Differential tests of the eccentricity kernels behind ``eccentricity_profile``.

Trees take the double sweep, other graphs whose BFS from vertex 0 reaches
past ``_BOUNDED_MIN_RUNS`` take eccentricity bounding, and the rest, or a
graph the bounding gives up on, take the bit-parallel frontier expansion.
Every kernel must reproduce the one-BFS-per-vertex oracle exactly, and an
independent library where it is installed.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eccbounds as eb
import eccbounds.graph as graph_module
from eccbounds.graph import (
    _BOUNDED_MIN_RUNS,
    _bitset_eccentricities,
    _bounded_eccentricities,
    bfs_distances,
)
from conftest import ecc_oracle, named_small, random_connected
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


@pytest.mark.parametrize("g", [cycle_with_pendant(64), cycle_with_pendant(200),
                               chorded_cycle(800, 40, seed=4)],
                         ids=["C64-pendant", "C200-pendant", "C800-40-chords-s4"])
def test_uneven_cycles_give_up_at_the_run_cap(g, monkeypatch):
    # a run finds an eccentricity other than e0, so the bounds run to the cap
    first = bfs_distances(g, 0)
    e0 = max(first)
    assert e0 > _BOUNDED_MIN_RUNS
    assert _bounding_runs(g, first, monkeypatch) == max(_BOUNDED_MIN_RUNS, e0 // 8)
    taken = _kernels_taken(g, ecc_oracle(g), monkeypatch)
    assert taken == ["_bounded_eccentricities", "_bitset_eccentricities"]


def _bounding_runs(g: eb.Graph, first: list[int], monkeypatch) -> int:
    """BFS runs :func:`_bounded_eccentricities` spends before it gives up."""
    runs = []
    with monkeypatch.context() as mp:
        mp.setattr(graph_module, "bfs_distances", lambda h, s: runs.append(s) or bfs_distances(h, s))
        assert _bounded_eccentricities(g, first) is None
    return len(runs)


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


def test_networkx_eccentricity():
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    graphs = [g for _, g in named_small()]
    graphs += [eb.chain_graph(3, 5, 3)[0], eb.chain_graph(3, 6, 3)[0]]
    graphs += [eb.chain_graph(3, 5, 40)[0], eb.cycle_graph(151)]  # bounding; its fallback
    graphs += [random_connected(rng, rng.randint(2, 80), extra_edges=rng.randint(0, 60))
               for _ in range(30)]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        want = nx.eccentricity(h)
        assert eb.eccentricity_profile(g).ecc == tuple(want[v] for v in range(g.n))
