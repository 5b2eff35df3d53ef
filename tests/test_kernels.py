"""Differential tests of the eccentricity kernels behind ``eccentricity_profile``.

Trees take the double sweep and every other graph the bit-parallel frontier
expansion; both must reproduce the one-BFS-per-vertex oracle exactly, and
an independent library where it is installed.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eccbounds as eb
from eccbounds.graph import _bitset_eccentricities
from conftest import ecc_oracle, named_small, random_connected


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
    graphs += [random_connected(rng, rng.randint(2, 80), extra_edges=rng.randint(0, 60))
               for _ in range(30)]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        want = nx.eccentricity(h)
        assert eb.eccentricity_profile(g).ecc == tuple(want[v] for v in range(g.n))
