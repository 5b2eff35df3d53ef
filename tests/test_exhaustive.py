"""Every small graph: the networkx graph atlas, all 1253 graphs on at most 7
vertices, which ships inside the package.

On each of its 996 connected graphs the profile and the girth match their
oracles and no applicable bound is violated.  On each of the 173 of minimum
degree at least 3 both certificates hold, pass the independent verifier and
are built from the replayed connectors: the tree builder has no other path,
and it raises when its tree fails verification.
"""
from __future__ import annotations

import json

import pytest

import eccbounds as eb
from eccbounds.bounds import evaluate_all, measure
from eccbounds.certify import certify
from conftest import ecc_oracle, girth_oracle
from verify_cert import verify

nx = pytest.importorskip("networkx")


@pytest.fixture(scope="module")
def connected_atlas() -> list[eb.Graph]:
    # atlas graphs are labelled 0..n-1
    return [eb.Graph.from_edges(len(h), list(h.edges()))
            for h in nx.graph_atlas_g() if len(h) and nx.is_connected(h)]


def test_atlas_profiles_girths_and_bounds(connected_atlas):
    assert len(connected_atlas) == 996
    for g in connected_atlas:
        m = measure(g)
        assert m.profile.ecc == ecc_oracle(g)
        assert m.params.g == girth_oracle(g)
        violated = [r.bound.value for r in evaluate_all(m) if r.applicable and not r.satisfied]
        assert violated == [], (g.edges, violated)


def test_atlas_certificates_verify_without_fallback(connected_atlas):
    certifiable = [g for g in connected_atlas if g.min_degree() >= 3]
    assert len(certifiable) == 173
    for g in certifiable:
        for use_max_degree in (False, True):
            cert = certify(g, use_max_degree=use_max_degree)
            assert cert.all_steps_hold, (g.edges, use_max_degree)
            assert verify(g, json.loads(cert.to_json())) == [], (g.edges, use_max_degree)
