"""Shared fixtures: small named corpora, oracle helpers, generated corpora.

The generated corpora are session-scoped because certifying a few hundred
graphs is the expensive part of the suite; every criterion that needs them
shares one build.
"""
from __future__ import annotations

import random
import time

import pytest

import eccbounds as eb
from eccbounds.bounds import GraphParams, bound_thm_girth


# ---------------------------------------------------------------------------
# oracles, deliberately independent of the library's algorithms

def floyd_warshall(g: eb.Graph):
    """Cubic all-pairs distances; the reference for BFS results."""
    inf = float("inf")
    d = [[inf] * g.n for _ in range(g.n)]
    for v in range(g.n):
        d[v][v] = 0
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        dk = d[k]
        for i in range(g.n):
            dik = d[i][k]
            if dik == inf:
                continue
            di = d[i]
            for j in range(g.n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def ecc_oracle(g: eb.Graph) -> tuple[int, ...]:
    """One BFS per vertex; the retained simple reference for the profile kernels."""
    return tuple(max(eb.bfs_distances(g, v)) for v in range(g.n))


def girth_oracle(g: eb.Graph):
    """Shortest cycle by brute force: 1 + shortest alternative path per edge."""
    best = None
    for u, v in g.edges:
        rest = [e for e in g.edges if e != (u, v)]
        h = eb.Graph.from_edges(g.n, rest)
        dist = eb.bfs_distances(h, u)
        if dist[v] != eb.UNREACHABLE:
            c = dist[v] + 1
            if best is None or c < best:
                best = c
    return best


def random_connected(rng: random.Random, n: int, extra_edges: int = 0) -> eb.Graph:
    """Random tree plus extra random edges; always connected."""
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            pairs.append((min(u, v), max(u, v)))
    return eb.Graph.from_edges(n, pairs)


# ---------------------------------------------------------------------------
# fixed corpora

def named_small():
    """Hand-picked graphs spanning the shapes the operations care about."""
    return [
        ("P1", eb.path_graph(1)),
        ("P2", eb.path_graph(2)),
        ("P5", eb.path_graph(5)),
        ("P9", eb.path_graph(9)),
        ("C5", eb.cycle_graph(5)),
        ("C6", eb.cycle_graph(6)),
        ("C9", eb.cycle_graph(9)),
        ("K4", eb.complete_graph(4)),
        ("K5", eb.complete_graph(5)),
        ("K33", eb.complete_bipartite(3, 3)),
        ("K14", eb.complete_bipartite(1, 4)),
        ("Petersen", eb.petersen_graph()),
        ("Heawood", eb.heawood_graph()),
    ]


@pytest.fixture(scope="session")
def small_graphs():
    return named_small()


def generate_corpus(configs, parity: int, use_max_degree_too: bool = True):
    """Deterministic generated corpus with certificates.

    ``configs`` is a list of (delta, girth_floor, n_lo, n_hi, count); graphs
    whose measured girth has the wrong parity are regenerated under a bumped
    seed.  Returns a list of record dicts.
    """
    records = []
    for (delta, gfloor, lo, hi, count) in configs:
        for i in range(count):
            n = lo + i * (hi - lo) // max(count - 1, 1)
            produced = None
            for bump in range(12):
                seed = 90_000 + 137 * i + 10_000_000 * bump + 1000 * delta + gfloor
                out = eb.random_min_degree_girth(
                    eb.GeneratorConfig(n=n, delta=delta, g=gfloor, seed=seed))
                if isinstance(out, eb.GenerationFailure):
                    continue
                if eb.girth(out) % 2 == parity:
                    produced = out
                    break
            assert produced is not None, f"could not generate (delta={delta}, g={gfloor}, n={n})"
            gi = eb.girth(produced)
            certify = eb.certify_odd if parity == 1 else eb.certify_even
            record = {
                "graph": produced,
                "girth": gi,
                "params": GraphParams.measure(produced),
                "cert": certify(produced),
                "certmax": certify(produced, use_max_degree=True) if use_max_degree_too else None,
                "requested": (delta, gfloor, n),
            }
            records.append(record)
    return records


ODD_CONFIGS = [
    (3, 5, 30, 150, 60),
    (3, 7, 40, 200, 50),
    (4, 5, 30, 150, 60),
    (4, 7, 160, 280, 30),
]

EVEN_CONFIGS = [
    (3, 4, 20, 150, 100),
    (3, 6, 30, 200, 100),
]


@pytest.fixture(scope="session")
def odd_corpus():
    start = time.perf_counter()
    records = generate_corpus(ODD_CONFIGS, parity=1)
    return {"records": records, "build_seconds": time.perf_counter() - start}


@pytest.fixture(scope="session")
def even_corpus():
    start = time.perf_counter()
    records = generate_corpus(EVEN_CONFIGS, parity=0)
    return {"records": records, "build_seconds": time.perf_counter() - start}
