"""Differential tests of the incremental anchor machinery in ``certify``.

The anchor builders, the discovery-path replay, the one structural-check
routine of both anchor kinds, the ball-built contracted power and the
line-graph eccentricity identity must agree exactly with the per-prefix and
full-BFS oracles in ``conftest.py``, failing inputs, ties between
equidistant anchors and the weight rule's boundaries included.
"""
from __future__ import annotations

import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import eccbounds as eb
from eccbounds.certify import (
    StructuralCheck,
    _anchor_tree,
    _checks,
    _contracted_power,
    _grow,
    _line_eccentricity,
    _verify_tree,
    certify,
)
from conftest import (
    contracted_power_oracle,
    line_ecc_oracle,
    matching_checks_oracle,
    matching_tree_oracle,
    moore_order_oracle,
    packing_checks_oracle,
    packing_tree_oracle,
    prefix_connectors_oracle,
    random_connected,
    spaced_matching_oracle,
)
from test_golden import INSTANCES


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
    """``_anchor_tree`` on what the grower returns, followed by the grower's
    distances to the anchors, as ``matching_tree_oracle`` returns them."""
    grown = _grown(g, groups)
    return (*_anchor_tree(g, *grown), grown[2])


def _unit_and_excess(constants, use_max_degree, odd):
    """The one weight rule's ``unit`` and ``excess`` from the Moore-type
    constants: K or L and 0, K1 and K2 - K1, or 2*L1 and L2 - L1."""
    if not use_max_degree:
        (unit,) = constants.values()
        return unit, 0
    c1, c2 = constants.values()
    return (c1 if odd else 2 * c1), c2 - c1


def _checks_on_packing(case):
    """``_checks`` on a ``packing_checks_oracle`` case: one group and one
    weight ``c(a)`` per member, the members' distances in ``g``, and K (or
    K1 and K2 - K1) as unit and excess."""
    g, members, assignment, c, gi, constants, tree, power_connected, use_max_degree = case
    return _checks(g, [(a,) for a in members], eb.multi_source_distances(g, members),
                   assignment, c, [c[a] for a in members], gi,
                   *_unit_and_excess(constants, use_max_degree, odd=True),
                   tree, power_connected, use_max_degree)


def _checks_on_matching(case):
    """``_checks`` on a ``matching_checks_oracle`` case: the matching edges
    as groups weighing ``cbar(e)``, and L (or 2*L1 and L2 - L1) as unit and
    excess; ``c``'s keys are the matched vertices ``vm``."""
    (g, members, vm, msd, assignment, c, cbar, gi, constants, tree, power_connected,
     use_max_degree) = case
    assert list(c) == list(vm)
    return _checks(g, members, msd, assignment, c, [cbar[e] for e in members], gi,
                   *_unit_and_excess(constants, use_max_degree, odd=False),
                   tree, power_connected, use_max_degree)


def _matching_oracle(case):
    """``matching_checks_oracle`` on a ``_matching_case`` as the pipeline
    meets it.  Its two tree checks fail only where ``_verify_tree`` rejects
    the tree (a member appended after the tree was built), and the pipeline
    stops there; ``_checks`` reads both verdicts from that verification, so
    they are true wherever it runs."""
    want = matching_checks_oracle(*case)
    (g, _, vm, msd), tree = case[:4], case[9]
    tree_checks = ("tree_spanning", "distance_preservation")
    if not all(check.ok for check in want if check.name in tree_checks):
        with pytest.raises(RuntimeError):
            _verify_tree(g, tree, vm, msd)
        want = tuple(StructuralCheck(check.name, True) if check.name in tree_checks
                     else check for check in want)
    return want


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
    c = eb.weight_function(members, assignment)
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
    c = eb.weight_function(vm, assignment)
    cbar = {e: c[e[0]] + c[e[1]] for e in members}
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
        got = _checks_on_packing(case)
        assert got == packing_checks_oracle(*case)
        failing += not all(check.ok for check in got[:3])
    assert failing > 100  # spacing, coverage or assignment failed on these


def test_matching_checks_match_full_bfs_oracle():
    rng = random.Random(712)
    failing = 0
    for _ in range(300):
        g = _random_graph(rng)
        case = _matching_case(rng, g, rng.randint(-2, 10), rng.random() < 0.5)
        got = _checks_on_matching(case)
        assert got == _matching_oracle(case)
        failing += not all(check.ok for check in got[:4])
    assert failing > 100


def test_checks_on_non_maximal_packing():
    g = eb.path_graph(12)
    tree, _, assignment, _ = eb.build_spanning_tree_from_packing(g, [0, 6])
    c = eb.weight_function([0, 6], assignment)
    case = (g, [0, 6], assignment, c, 3, {"K": 3}, tree, True, False)
    got = _checks_on_packing(case)
    assert got == packing_checks_oracle(*case)
    by_name = {check.name: check for check in got}
    assert by_name["packing_spacing>=g"].ok
    assert not by_name["packing_coverage<=g-1"].ok  # vertices 3 and 9 lie at distance 3


# ties: a vertex equidistant from two anchors may be assigned to either; the
# checks must agree with the oracles whichever one it is

def test_packing_checks_accept_a_tied_assignment():
    # vertices 1 and 3 lie at distance 1 and 2 from both members; 3 goes to
    # member 2 although its one neighbour, 1, goes to member 0
    g = eb.Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    members, assignment = [0, 2], [0, 0, 2, 2]
    case = (g, members, assignment, eb.weight_function(members, assignment), 3, {"K": 2},
            g, True, False)
    got = _checks_on_packing(case)
    assert got == packing_checks_oracle(*case)
    assert {check.name: check.ok for check in got}["assignment_nearest_member"]


def test_matching_checks_accept_a_tied_assignment():
    # vertex 2 lies at distance 1 from matched vertices 1 and 3, and vertex 5,
    # hanging off 2, at distance 2 from both; 2 goes to 1 and 5 goes to 3
    g = eb.Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    members, vm, assignment = [(0, 1), (3, 4)], [0, 1, 3, 4], [0, 1, 1, 3, 4, 3]
    c = eb.weight_function(vm, assignment)
    cbar = {e: c[e[0]] + c[e[1]] for e in members}
    case = (g, members, vm, eb.multi_source_distances(g, vm), assignment, c, cbar, 4,
            {"L": 2}, g, True, False)
    got = _checks_on_matching(case)
    assert got == matching_checks_oracle(*case)
    assert {check.name: check.ok for check in got}["assignment_nearest_matched_vertex"]


# the one weight rule at its boundaries, max-degree variant with unit 4 and
# excess 8 (K1 = 4, K2 = 12; L1 = 2, L2 = 10): the hub weighs at least 12,
# every other anchor at least 4, and there are at most (n - 8) / 4 anchors

@pytest.mark.parametrize("odd", [True, False], ids=["packing", "matching"])
@pytest.mark.parametrize("n, weights, verdicts", [
    (24, (12, 4, 4, 4), (True, True, True)),     # hub, others and count at the bound
    (24, (11, 4, 4, 4), (False, False, True)),   # hub at unit + excess - 1
    (24, (12, 4, 3, 4), (True, False, True)),    # another anchor at unit - 1
    (20, (12, 4, 4, 4), (True, True, False)),    # 4 anchors, one above (20 - 8) / 4
], ids=["at-bound", "hub-below", "anchor-below", "one-anchor-too-many"])
def test_weight_rule_boundaries_under_max_degree(odd, n, weights, verdicts):
    g = eb.cycle_graph(n)
    starts = [i * (n // 4) for i in range(4)]
    if odd:
        tree, _, assignment, _ = eb.build_spanning_tree_from_packing(g, starts)
        case = (g, starts, list(assignment), dict(zip(starts, weights)), 5,
                {"K1": 4, "K2": 12}, tree, True, True)
        got, want = _checks_on_packing(case), packing_checks_oracle(*case)
        names = ("hub_weight>=K2", "cell_lower_bounds", "packing_size<=(n-K2)/K1+1")
    else:
        members = [(a, a + 1) for a in starts]
        tree, _, assignment, _, vm, msd = _tree(g, members)
        case = (g, members, vm, msd, list(assignment), eb.weight_function(vm, assignment),
                dict(zip(members, weights)), 6, {"L1": 2, "L2": 10}, tree, True, True)
        got, want = _checks_on_matching(case), matching_checks_oracle(*case)
        names = ("hub_edge_weight>=L1+L2", "edge_weight_lower_bounds",
                 "matching_size<=(n-L2+L1)/(2L1)")
    assert got == want
    by_name = {check.name: check.ok for check in got}
    assert tuple(by_name[name] for name in names) == verdicts


def _reassign_among_ties(rng, g, sources, assignment):
    """Point random vertices at any source at their nearest distance."""
    msd = eb.multi_source_distances(g, sources)
    dist = {s: eb.bfs_distances(g, s) for s in sources}
    for v in rng.sample(range(g.n), rng.randint(1, g.n)):
        assignment[v] = rng.choice([s for s in sorted(dist) if dist[s][v] == msd[v]])


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
# the pipeline's replayed connectors always form the tree
#
# Each new anchor lies an odd distance from the earlier ones, exactly g (odd
# girth) or g - 1 (even girth), and later anchors lie at least that far, so
# the middle edge of its discovery path has no tied end: it joins the new
# anchor's cell to an older one, and the Kruskal fallback is never needed.
# Arbitrary member lists still need it (see the prefix-replay tests above).

def _no_fallback(mp):
    def refuse(*args):
        raise AssertionError("Kruskal fallback taken")
    mp.setattr(sys.modules["eccbounds.certify"], "_fallback_connectors", refuse)


def test_the_patched_fallback_is_the_one_the_tree_builder_calls(monkeypatch):
    _no_fallback(monkeypatch)
    # vertex 1 ties between members 2 and 0 and goes to 0, as does the
    # middle edge (1, 0) of the path 2-1-0
    with pytest.raises(AssertionError, match="fallback"):
        eb.build_spanning_tree_from_packing(eb.path_graph(3), [2, 0])


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_certificates_take_no_fallback(name, monkeypatch):
    _no_fallback(monkeypatch)
    g = INSTANCES[name]()
    for use_max_degree in (False, True):
        assert certify(g, use_max_degree=use_max_degree).all_steps_hold


@st.composite
def certifiable_graphs(draw):
    """Connected graphs of minimum degree at least 3: generated ones of
    girth at least 3 to 8, or random trees padded with random edges."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        delta, gv = draw(st.sampled_from(
            [(3, gv) for gv in range(3, 9)] + [(4, gv) for gv in range(3, 7)]
            + [(5, gv) for gv in range(3, 6)]))
        order = moore_order_oracle(delta, gv)
        n = draw(st.integers(2 * order, 2 * order + 40))
        out = eb.random_min_degree_girth(
            eb.GeneratorConfig(n=n, delta=delta, g=gv, seed=rng.randrange(1 << 30)))
        assume(isinstance(out, eb.Graph))
        return out
    n = draw(st.integers(4, 40))
    pairs = set(random_connected(rng, n, rng.randint(0, 2 * n)).edges)
    degree = Counter(x for e in pairs for x in e)
    for v in range(n):
        while degree[v] < 3:
            w = rng.choice([w for w in range(n) if w != v and (min(v, w), max(v, w)) not in pairs])
            pairs.add((min(v, w), max(v, w)))
            degree[v] += 1
            degree[w] += 1
    return eb.Graph.from_edges(n, sorted(pairs))


@settings(max_examples=80, deadline=None)
@given(certifiable_graphs())
def test_property_pipeline_takes_no_fallback(g):
    with pytest.MonkeyPatch.context() as mp:
        _no_fallback(mp)
        for use_max_degree in (False, True):
            certify(g, use_max_degree=use_max_degree)


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
    assert _checks_on_packing(pcase) == packing_checks_oracle(*pcase)
    mcase = _matching_case(rng, g, gi, md)
    assert _checks_on_matching(mcase) == _matching_oracle(mcase)
    radius = max(gi, 0)
    assert _contracted_power(g, members, radius) == contracted_power_oracle(g, members, radius)
    if g.m == g.n - 1:
        _assert_line_identity(g)
    else:
        tree, *_ = eb.build_spanning_tree_from_packing(g, members)
        _assert_line_identity(tree)


@settings(max_examples=60, deadline=None)
@given(graphs_with_anchors())
def test_property_checks_equal_oracles_under_tied_reassignment(case):
    g, members, gi, rng = case
    tree, _, assignment, _ = eb.build_spanning_tree_from_packing(g, members)
    assignment = list(assignment)
    _reassign_among_ties(rng, g, members, assignment)
    pcase = (g, members, assignment, eb.weight_function(members, assignment), gi,
             {"K": rng.randint(1, 6)}, tree, True, False)
    got = _checks_on_packing(pcase)
    assert got == packing_checks_oracle(*pcase)
    assert got[2].ok  # assignment_nearest_member

    matching = _random_matching(rng, g)
    tree, _, assignment, _, vm, msd = _tree(g, matching)
    assignment = list(assignment)
    _reassign_among_ties(rng, g, vm, assignment)
    c = eb.weight_function(vm, assignment)
    mcase = (g, matching, vm, msd, assignment, c, {e: c[e[0]] + c[e[1]] for e in matching},
             gi, {"L": rng.randint(1, 6)}, tree, True, False)
    got = _checks_on_matching(mcase)
    assert got == matching_checks_oracle(*mcase)
    assert got[3].ok  # assignment_nearest_matched_vertex
