"""Differential tests of the incremental anchor machinery in ``certify``.

The anchor builders, the discovery-path replay, the radius-bounded
structural checks, the ball-built contracted power and the line-graph
eccentricity identity must agree exactly with the per-prefix and full-BFS
oracles in ``conftest.py``, failing inputs included.
"""
from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eccbounds as eb
from eccbounds.certify import (
    _anchor_tree,
    _contracted_power,
    _grow,
    _line_eccentricity,
    _matching_checks,
    _packing_checks,
    certify,
)
from conftest import (
    contracted_power_oracle,
    line_ecc_oracle,
    matching_checks_oracle,
    matching_tree_oracle,
    packing_checks_oracle,
    packing_tree_oracle,
    prefix_connectors_oracle,
    random_connected,
    spaced_matching_oracle,
)


def _random_graph(rng: random.Random, lo: int = 4, hi: int = 40) -> eb.Graph:
    n = rng.randint(lo, hi)
    return random_connected(rng, n, rng.choice([0, 1, n // 3, n, 2 * n]))


def _random_matching(rng: random.Random, g: eb.Graph) -> list[tuple[int, int]]:
    """Vertex-disjoint edges of ``g`` in random order, at least one."""
    edges = list(g.edges)
    rng.shuffle(edges)
    used: set[int] = set()
    matching = []
    for u, v in edges:
        if u not in used and v not in used:
            used.update((u, v))
            matching.append((u, v))
    return matching[:rng.randint(1, len(matching))]


def _grown(g: eb.Graph, groups):
    """What the grower returns for anchors taken from a list, in order."""
    rest = iter(groups[1:])
    return _grow(g, groups[0], lambda dist: next(rest, None))


def _replayed(g: eb.Graph, groups):
    """Connectors the grower records for anchors taken from a list, in order."""
    return _grown(g, groups)[1]


def _tree(g: eb.Graph, groups):
    """``_anchor_tree`` on what the grower returns, with the grower's
    distances appended as ``matching_tree_oracle`` returns them."""
    grown = _grown(g, groups)
    return _anchor_tree(g, *grown) + (grown[2],)


def _with_msd(case):
    """A ``packing_checks_oracle`` case with the members' distances inserted
    where ``_packing_checks`` takes them."""
    g, members, *rest = case
    return (g, members, eb.multi_source_distances(g, members), *rest)


def _fell_back(g, groups, connectors) -> bool:
    return tuple(prefix_connectors_oracle(g, groups) or ()) != connectors


# ---------------------------------------------------------------------------
# tree builders against the per-prefix replay

def test_packing_tree_matches_prefix_replay_oracle():
    rng = random.Random(1928)
    fallbacks = 0
    trials = 400
    for _ in range(trials):
        g = _random_graph(rng)
        members = rng.sample(range(g.n), rng.randint(1, min(8, g.n)))
        got = eb.build_spanning_tree_from_packing(g, members)
        assert got == packing_tree_oracle(g, members)
        fallbacks += _fell_back(g, [(a,) for a in members], got[3])
    # the Kruskal fallback must be exercised, not only the replayed connectors
    assert trials // 5 < fallbacks < trials - trials // 5


def test_matching_tree_matches_prefix_replay_oracle():
    rng = random.Random(871)
    fallbacks = 0
    trials = 300
    for _ in range(trials):
        g = _random_graph(rng)
        members = _random_matching(rng, g)
        got = _tree(g, members)
        assert got == matching_tree_oracle(g, members)
        fallbacks += _fell_back(g, members, got[3])
    assert 0 < fallbacks < trials


def test_packings_and_matchings_of_the_pipeline_match_oracles():
    rng = random.Random(5)
    for _ in range(40):
        g = _random_graph(rng, 6, 60)
        for gv in (3, 4, 5, 6, 7):
            A = eb.build_packing(g, gv, start=rng.randrange(g.n))
            assert eb.build_spanning_tree_from_packing(g, A) == packing_tree_oracle(g, A)
            M = eb.build_spaced_matching(g, gv)
            assert M == spaced_matching_oracle(g, gv)
            assert _tree(g, M) == matching_tree_oracle(g, M)


def test_replay_at_chain_distances():
    # discovery paths hundreds of edges long, walked layer by layer
    g, _ = eb.chain_graph(3, 5, 80)
    ends = [0, g.n - 1, g.n // 2]
    groups = [(a,) for a in ends]
    assert _replayed(g, groups) == prefix_connectors_oracle(g, groups)


def test_replay_stops_when_an_anchor_touches_an_earlier_one():
    g = eb.petersen_graph()
    groups = [(0, 1), (1, 2)]
    assert _replayed(g, groups) is None
    assert prefix_connectors_oracle(g, groups) is None


def test_tree_builders_reject_disconnected_input():
    g = eb.Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.raises(ValueError, match="connected"):
        eb.build_spanning_tree_from_packing(g, [0, 3])
    with pytest.raises(ValueError, match="connected"):
        _tree(g, [(0, 1), (3, 4)])


# ---------------------------------------------------------------------------
# spaced matching: one scan for an edge at exactly g - 1

def test_spaced_matching_matches_max_then_min_oracle():
    rng = random.Random(64)
    for _ in range(120):
        g = _random_graph(rng, 3, 60)
        gv = rng.randint(2, 8)
        start = rng.choice(g.edges)
        assert eb.build_spaced_matching(g, gv, start) == spaced_matching_oracle(g, gv, start)


def test_spaced_matching_rejects_girth_below_two():
    for gv in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            eb.build_spaced_matching(eb.petersen_graph(), gv)


# ---------------------------------------------------------------------------
# radius-bounded checks against the full-BFS oracles, failing inputs included

def _packing_case(rng: random.Random, g: eb.Graph, gi: int, use_max_degree: bool):
    members = rng.sample(range(g.n), rng.randint(1, min(8, g.n)))
    tree, _, assignment, _ = eb.build_spanning_tree_from_packing(g, members)
    assignment = list(assignment)
    if rng.random() < 0.5:  # point some vertices at a wrong or non-member vertex
        for _ in range(rng.randint(1, 3)):
            assignment[rng.randrange(g.n)] = rng.randrange(g.n)
    if rng.random() < 0.2:
        members = members + [members[0]]  # a repeated member
    c = eb.weight_function(tree, members, assignment)
    k = rng.randint(1, 12)
    constants = {"K1": k, "K2": k + rng.randint(0, 4)} if use_max_degree else {"K": k}
    return (g, members, assignment, c, gi, constants, tree, rng.random() < 0.5, use_max_degree)


def _matching_case(rng: random.Random, g: eb.Graph, gi: int, use_max_degree: bool):
    members = _random_matching(rng, g)
    tree, _, assignment, _, vm, msd = _tree(g, members)
    assignment = list(assignment)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            assignment[rng.randrange(g.n)] = rng.randrange(g.n)
    if rng.random() < 0.2 and g.m > len(members):
        members = members + [next(e for e in g.edges if e not in members)]  # may overlap
        vm = sorted({x for e in members for x in e})
        msd = eb.multi_source_distances(g, vm)
    c = eb.weight_function(tree, vm, assignment)
    cbar = {e: c.weights[e[0]] + c.weights[e[1]] for e in members}
    k = rng.randint(1, 12)
    constants = {"L1": k, "L2": k + rng.randint(0, 4)} if use_max_degree else {"L": 2 * k}
    return (g, members, vm, msd, assignment, c, cbar, gi, constants, tree,
            rng.random() < 0.5, use_max_degree)


def test_packing_checks_match_full_bfs_oracle():
    rng = random.Random(577)
    failing = 0
    for _ in range(300):
        g = _random_graph(rng)
        case = _packing_case(rng, g, rng.randint(-2, 10), rng.random() < 0.5)
        got = _packing_checks(*_with_msd(case))
        assert got == packing_checks_oracle(*case)
        failing += not all(check.ok for check in got[:3])
    assert failing > 100  # spacing, coverage or assignment failed on these


def test_matching_checks_match_full_bfs_oracle():
    rng = random.Random(712)
    failing = 0
    for _ in range(300):
        g = _random_graph(rng)
        case = _matching_case(rng, g, rng.randint(-2, 10), rng.random() < 0.5)
        got = _matching_checks(*case)
        assert got == matching_checks_oracle(*case)
        failing += not all(check.ok for check in got[:4])
    assert failing > 100


def test_checks_on_non_maximal_packing():
    g = eb.path_graph(12)
    tree, _, assignment, _ = eb.build_spanning_tree_from_packing(g, [0, 6])
    c = eb.weight_function(tree, [0, 6], assignment)
    case = (g, [0, 6], assignment, c, 3, {"K": 3}, tree, True, False)
    got = _packing_checks(*_with_msd(case))
    assert got == packing_checks_oracle(*case)
    by_name = {check.name: check for check in got}
    assert by_name["packing_spacing>=g"].ok
    assert not by_name["packing_coverage<=g-1"].ok  # vertices 3 and 9 lie at distance 3


# ---------------------------------------------------------------------------
# contracted power and line-graph eccentricity

def test_contracted_power_matches_full_bfs_oracle():
    rng = random.Random(33)
    for _ in range(150):
        g = _random_graph(rng, 2, 50)
        anchors = rng.sample(range(g.n), rng.randint(1, min(10, g.n)))
        radius = rng.randint(0, 9)
        assert _contracted_power(g, anchors, radius) == contracted_power_oracle(g, anchors, radius)


def _assert_line_identity(tree: eb.Graph):
    ecc = eb.eccentricity_profile(tree).ecc
    want = line_ecc_oracle(tree)
    assert {e: _line_eccentricity(ecc, e) for e in tree.edges} == want


def _double_broom(left: int, handle: int, right: int) -> eb.Graph:
    """A path of ``handle`` edges with ``left`` and ``right`` extra leaves
    at its ends."""
    pairs = [(i, i + 1) for i in range(handle)]
    n = handle + 1
    for end, count in ((0, left), (handle, right)):
        pairs += [(end, n + j) for j in range(count)]
        n += count
    return eb.Graph.from_edges(n, pairs)


@pytest.mark.parametrize("tree", [
    eb.path_graph(2), eb.path_graph(3), eb.path_graph(4), eb.path_graph(9), eb.path_graph(10),
    eb.complete_bipartite(1, 2), eb.complete_bipartite(1, 7),
    _double_broom(3, 1, 3), _double_broom(2, 3, 4), _double_broom(1, 4, 5),
], ids=["P2", "P3", "P4", "P9", "P10", "star2", "star7",
        "bicentral-1", "bicentral-3", "broom-4"])
def test_line_eccentricity_identity_named_trees(tree):
    _assert_line_identity(tree)


def test_line_eccentricity_identity_random_trees():
    rng = random.Random(89446)
    for _ in range(150):
        _assert_line_identity(random_connected(rng, rng.randint(2, 80)))


def test_certificate_trees_satisfy_line_identity(even_corpus):
    for rec in even_corpus["records"][::10]:
        _assert_line_identity(rec["cert"].tree)


# ---------------------------------------------------------------------------
# certify(): girth measured once, parity dispatch

def test_certify_dispatches_on_girth_parity():
    for g in (eb.petersen_graph(), eb.heawood_graph(), eb.complete_graph(4),
              eb.complete_bipartite(3, 3)):
        single = eb.certify_odd if eb.girth(g) % 2 else eb.certify_even
        for md in (False, True):
            assert certify(g, use_max_degree=md).to_json() == \
                single(g, use_max_degree=md).to_json()


def test_certify_rejects_forests_before_connectivity():
    forest = eb.Graph.from_edges(5, [(0, 1), (2, 3)])
    with pytest.raises(eb.NotCertifiableError, match="acyclic"):
        certify(forest)


def test_certify_measures_girth_once(monkeypatch):
    certify_module = sys.modules["eccbounds.certify"]
    calls = []
    real = certify_module.girth
    monkeypatch.setattr(certify_module, "girth", lambda g: calls.append(g) or real(g))
    certify(eb.petersen_graph())
    certify(eb.heawood_graph(), use_max_degree=True)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# one property over all of the above

@st.composite
def graphs_with_anchors(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    parents = [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    pairs = list(zip(parents, range(1, n)))
    vertex = st.integers(min_value=0, max_value=n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    g = eb.Graph.from_edges(n, pairs + [(u, v) for u, v in extra if u != v])
    members = draw(st.lists(vertex, min_size=1, max_size=min(6, n), unique=True))
    gi = draw(st.integers(min_value=-1, max_value=9))
    return g, members, gi, draw(st.randoms(use_true_random=False))


@settings(max_examples=150, deadline=None)
@given(graphs_with_anchors())
def test_property_incremental_machinery_equals_oracles(case):
    g, members, gi, rng = case
    assert eb.build_spanning_tree_from_packing(g, members) == packing_tree_oracle(g, members)
    matching = _random_matching(rng, g)
    assert _tree(g, matching) == matching_tree_oracle(g, matching)
    if gi >= 2:
        assert eb.build_spaced_matching(g, gi) == spaced_matching_oracle(g, gi)
    md = rng.random() < 0.5
    pcase = _packing_case(rng, g, gi, md)
    assert _packing_checks(*_with_msd(pcase)) == packing_checks_oracle(*pcase)
    mcase = _matching_case(rng, g, gi, md)
    assert _matching_checks(*mcase) == matching_checks_oracle(*mcase)
    radius = max(gi, 0)
    assert _contracted_power(g, members, radius) == contracted_power_oracle(g, members, radius)
    if g.m == g.n - 1:
        _assert_line_identity(g)
    else:
        tree, *_ = eb.build_spanning_tree_from_packing(g, members)
        _assert_line_identity(tree)
