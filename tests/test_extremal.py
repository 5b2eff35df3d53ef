"""Catalog graphs, chained constructions, and sharpness tables."""
from __future__ import annotations

import math
from fractions import Fraction as F

import pytest

import eccbounds as eb
import eccbounds.extremal as extremal_module
from eccbounds.bounds import GraphParams, bound_thm_girth, lower_bound_chain
from conftest import chain_graph_oracle


# ---------------------------------------------------------------------------
# catalog

def test_catalog_petersen():
    g, spec = eb.moore_catalog(3, 5)
    assert g.n == 10 and spec.order == 10 and spec.source == "Petersen"
    assert spec.diameter == 2


def test_catalog_complete():
    g, spec = eb.moore_catalog(4, 3)
    assert g.n == 5 and spec.source == "Complete"


def test_catalog_heawood():
    g, spec = eb.moore_catalog(3, 6)
    assert g.n == 14 and spec.order == 14
    assert spec.diameter == 3


def test_catalog_hoffman_singleton():
    g, spec = eb.moore_catalog(7, 5)
    assert g.n == 50 and spec.source == "HoffmanSingleton"


def test_catalog_projective_planes():
    for q in (3, 4, 5, 7, 8):
        g, spec = eb.moore_catalog(q + 1, 6)
        assert g.n == 2 * (q * q + q + 1)
        assert spec.source == f"ProjectivePlaneIncidence({q})"


def test_catalog_cycles():
    for gv in (5, 8, 13):
        g, spec = eb.moore_catalog(2, gv)
        assert g.n == gv and spec.source == "Cycle"


def test_catalog_misses_are_values():
    assert eb.moore_catalog(57, 5) is None     # order-3250 existence open
    assert eb.moore_catalog(4, 5) is None
    assert eb.moore_catalog(3, 8) is None
    assert eb.moore_catalog(3, 7) is None


def test_catalog_emissions_verified():
    # regularity, exact girth, exact Moore order for every entry
    hits = [(d, 3) for d in (3, 4, 5, 9)] + [(d, 4) for d in (3, 4, 6)] + \
           [(3, 5), (7, 5), (3, 6), (4, 6), (5, 6), (6, 6), (8, 6), (9, 6), (2, 7)]
    for d, gv in hits:
        g, spec = eb.moore_catalog(d, gv)
        assert g.min_degree() == d and g.max_degree() == d
        assert eb.girth(g) == gv
        assert g.n == spec.order


def test_catalog_is_built_and_verified_once(monkeypatch):
    calls = []
    real = eb.girth
    monkeypatch.setattr(extremal_module, "girth", lambda g: calls.append(g) or real(g))
    eb.moore_catalog.cache_clear()
    eb.sharpness_report(3, 6, range(1, 8))
    assert len(calls) == 1


def test_catalog_hands_out_one_shared_object():
    assert eb.moore_catalog(3, 5) is eb.moore_catalog(3, 5)


def _prism():
    """C5 x K2: 3-regular on 10 vertices like the Petersen graph, girth 4."""
    return eb.Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                               + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                               + [(i, i + 5) for i in range(5)])


def test_catalog_failed_verification_raises_and_is_not_cached(monkeypatch):
    eb.moore_catalog.cache_clear()
    monkeypatch.setattr(extremal_module, "petersen_graph", _prism)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="girth 4, expected 5"):
            eb.moore_catalog(3, 5)
    assert eb.moore_catalog.cache_info().currsize == 0
    monkeypatch.undo()
    assert eb.moore_catalog(3, 5)[0] == eb.petersen_graph()


# ---------------------------------------------------------------------------
# chains

def test_chain_k1_is_the_base_graph():
    g, spec = eb.chain_graph(3, 5, 1)
    assert g.edges == eb.petersen_graph().edges
    assert spec.link_edges == () and spec.deleted_edges == ()


def test_chain_three_petersens():
    g, spec = eb.chain_graph(3, 5, 3)
    assert g.n == 30
    prof = eb.eccentricity_profile(g)
    assert prof.diameter == 10  # g*(k-1)
    assert spec.link_edges and len(spec.link_edges) == 2
    assert len(spec.deleted_edges) == 1  # only the middle copy is cut


def test_chain_two_heawoods():
    g, spec = eb.chain_graph(3, 6, 2)
    assert g.n == 28
    assert eb.eccentricity_profile(g).diameter == 7  # g*(k-1)+1
    assert spec.deleted_edges == ()  # k=2 deletes nothing
    assert len(spec.link_edges) == 1


def test_chain_structure_invariants():
    for (d, gv, k) in [(3, 5, 2), (3, 5, 4), (3, 6, 3), (3, 4, 3), (4, 4, 3), (7, 5, 2)]:
        g, spec = eb.chain_graph(d, gv, k)
        assert g.n == k * spec.base_order
        assert eb.is_connected(g)
        assert g.min_degree() >= d
        assert eb.girth(g) >= gv
        if k >= 2:
            assert eb.girth(g) == gv  # the end copies are intact


def test_chain_diameter_radius_formulas():
    for k in range(2, 16):
        prof = eb.eccentricity_profile(eb.chain_graph(3, 5, k)[0])
        assert prof.diameter == 5 * (k - 1)
        assert prof.radius == math.ceil(5 * (k - 1) / 2)
    for k in range(2, 11):
        prof = eb.eccentricity_profile(eb.chain_graph(3, 6, k)[0])
        assert prof.diameter == 6 * (k - 1) + 1
        assert prof.radius == 3 * (k - 1) + 1  # g(k-1)/2 + 1


@pytest.mark.parametrize("delta,g", [(3, 5), (3, 6), (7, 5), (4, 6), (2, 5), (4, 3), (3, 4)])
def test_chain_equals_from_edges_oracle(delta, g):
    for k in range(1, 9):
        assert eb.chain_graph(delta, g, k) == chain_graph_oracle(delta, g, k), k


def test_chain_rejects_uncataloged():
    with pytest.raises(ValueError, match="no catalog graph"):
        eb.chain_graph(4, 5, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: eb.chain_graph(3, 5, 0), "copy count must be at least 1"),
    (lambda: eb.moore_catalog(1, 5), None),   # degree below 2
    (lambda: eb.moore_catalog(3, 2), None),   # girth below 3
], ids=["chain-no-copies", "catalog-delta-1", "catalog-girth-2"])
def test_input_validation_messages(call, message):
    if message is None:
        assert call() is None
        return
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_chain_sandwich():
    for (d, gv, k) in [(3, 5, 1), (3, 5, 3), (3, 5, 6), (3, 6, 2), (3, 6, 4), (3, 4, 5)]:
        g, spec = eb.chain_graph(d, gv, k)
        prof = eb.eccentricity_profile(g)
        p = GraphParams(n=g.n, delta=d, g=gv)
        assert lower_bound_chain(p, k) <= prof.avec <= bound_thm_girth(p).value


# ---------------------------------------------------------------------------
# sharpness reports

def test_sharpness_rows_odd():
    rows = {r.k: r for r in eb.sharpness_report(3, 5, range(1, 4))}
    assert rows[1].n == 10 and rows[1].avec == 2 and rows[1].upper == F(37, 4)
    assert rows[2].n == 20 and rows[2].lower == 3 and rows[2].upper == 13
    assert rows[2].lower <= rows[2].avec <= rows[2].upper
    assert all(r.gap_ok for r in rows.values())


def test_sharpness_rows_even():
    rows = {r.k: r for r in eb.sharpness_report(3, 6, range(1, 3))}
    assert rows[2].n == 28 and rows[2].lower == F(9, 2) and rows[2].upper == 16
    assert all(r.gap_ok for r in rows.values())


def test_sharpness_gap_is_bounded_by_construction():
    # upper - lower is exactly 5(g-1)/2 for odd girth, one less for even
    for r in eb.sharpness_report(3, 5, range(1, 6)):
        assert r.upper - r.lower == F(5 * 4, 2)
    for r in eb.sharpness_report(3, 6, range(1, 5)):
        assert r.upper - r.lower == F(5 * 5, 2) - 1


def test_sharpness_csv_format():
    csv_text = eb.sharpness_rows_to_csv(eb.sharpness_report(3, 5, range(1, 3)))
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("k,n,avec,lower,upper,gap,")
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "10"
    assert first[2] == "2.000000"        # six-digit decimal rendering
    assert first[6] == "2"               # exact twin column
    assert csv_text == eb.sharpness_rows_to_csv(eb.sharpness_report(3, 5, range(1, 3)))
