"""The independent certificate verifier of ``verify_cert.py``: it accepts the
golden certificates, the mixed mini corpus and random certifiable graphs,
and rejects certificates with one claim falsified."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

import eccbounds as eb
from eccbounds.certify import certify
from test_certify import _mini_corpus, certifiable_graphs
from test_golden import INSTANCES
from verify_cert import verify


def _cert_json(g: eb.Graph, use_max_degree: bool) -> dict:
    return json.loads(certify(g, use_max_degree=use_max_degree).to_json())


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_certificates_verify(name):
    g = INSTANCES[name]()
    for use_max_degree in (False, True):
        assert verify(g, _cert_json(g, use_max_degree)) == []


def test_mini_corpus_certificates_verify():
    for g in _mini_corpus():
        for use_max_degree in (False, True):
            assert verify(g, _cert_json(g, use_max_degree)) == [], (g.n, use_max_degree)


@settings(max_examples=30, deadline=None)
@given(certifiable_graphs())
def test_property_certificates_verify(g):
    for use_max_degree in (False, True):
        assert verify(g, _cert_json(g, use_max_degree)) == []


# ---------------------------------------------------------------------------
# mutations: each falsifies one claim, and the verifier must notice

def _swap_tree_edge_for_non_edge(g: eb.Graph, cert: dict) -> None:
    """Replace a tree edge by a non-edge of ``g`` that rejoins the two sides,
    so the tree still spans but is no longer a subgraph of ``g``."""
    edges = [tuple(e) for e in cert["treeEdges"]]
    for i, (x, y) in enumerate(edges):
        rest = eb.Graph.from_edges(g.n, edges[:i] + edges[i + 1:])
        side = eb.bfs_distances(rest, x)
        pair = next(((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if (side[u] == -1) != (side[v] == -1) and not g.has_edge(u, v)), None)
        if pair is not None:
            cert["treeEdges"] = sorted([list(e) for e in edges[:i] + edges[i + 1:]]
                                       + [list(pair)])
            return
    raise AssertionError("no tree edge can be swapped for a non-edge")


def _bump_weight(_g, cert: dict) -> None:
    weights = cert["weights" if cert["variant"] == "odd" else "edgeWeights"]
    key = next(iter(weights))
    weights[key] = str(int(weights[key]) + 1)


def _flip_holds(_g, cert: dict) -> None:
    cert["steps"][0]["holds"] = not cert["steps"][0]["holds"]


@pytest.mark.parametrize("mutate", [_swap_tree_edge_for_non_edge, _bump_weight, _flip_holds],
                         ids=["tree-edge-swapped", "weight-off-by-one", "holds-flipped"])
@pytest.mark.parametrize("graph", [eb.petersen_graph(), eb.heawood_graph(),
                                   eb.chain_graph(3, 5, 2)[0]],
                         ids=["petersen", "heawood", "chain-3-5-2"])
def test_verifier_rejects_a_mutated_certificate(mutate, graph):
    cert = _cert_json(graph, False)
    assert verify(graph, cert) == []
    mutate(graph, cert)
    assert verify(graph, cert) != []
