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
    _Anchors,
    _anchor_tree,
    _checks,
    _contracted_power,
    _grow,
    _line_eccentricity,
    _spaced_vertex,
    _verify_tree,
    certify,
)
from conftest import (
    anchor_tree_oracle,
    ball_contracted_power_oracle,
    cell_weights,
    contracted_power_oracle,
    line_ecc_oracle,
    matching_checks_oracle,
    matching_tree_oracle,
    moore_order_oracle,
    packing_checks_oracle,
    packing_hypothesis_breach_oracle,
    packing_tree_oracle,
    prefix_connectors_oracle,
    random_connected,
    replay_path_oracle,
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


def _by_dist(dist):
    """Every vertex sorted by ``dist``, the order ``_anchor_tree`` takes."""
    return sorted(range(len(dist)), key=dist.__getitem__)


def _tree(g: eb.Graph, groups):
    """``_anchor_tree`` on what the grower returns, its tree's profile left
    out, followed by the grower's distances to the anchors, as
    ``matching_tree_oracle`` returns them."""
    grown = _grown(g, groups)
    return (*_anchor_tree(g, *grown, _by_dist(grown[2]))[:5], grown[2])


def _unit_and_excess(constants, use_max_degree, odd):
    """The one weight rule's ``unit`` and ``excess`` from the Moore-type
    constants: K or L and 0, K1 and K2 - K1, or 2*L1 and L2 - L1."""
    if not use_max_degree:
        (unit,) = constants.values()
        return unit, 0
    c1, c2 = constants.values()
    return (c1 if odd else 2 * c1), c2 - c1


def _checks_on_packing(case):
    """``_checks`` on a ``packing_checks_oracle`` case: an odd anchor record
    with one group and one weight ``c(a)`` per member and the members'
    distances in ``g``, and K (or K1 and K2 - K1) as unit and excess."""
    g, members, assignment, c, gi, constants, tree, use_max_degree = case
    msd = eb.multi_source_distances(g, members)
    anchors = _Anchors(True, members, [(a,) for a in members], msd, _by_dist(msd), tree, None,
                       assignment, (), c, [c[a] for a in members])
    return _checks(g, anchors, gi, *_unit_and_excess(constants, use_max_degree, odd=True),
                   use_max_degree)


def _checks_on_matching(case):
    """``_checks`` on a ``matching_checks_oracle`` case: an even anchor
    record with the matching edges as groups weighing ``cbar(e)``, and L (or
    2*L1 and L2 - L1) as unit and excess; ``c``'s keys are the matched
    vertices ``vm``."""
    g, members, vm, msd, assignment, c, cbar, gi, constants, tree, use_max_degree = case
    assert list(c) == list(vm)
    anchors = _Anchors(False, members, members, msd, _by_dist(msd), tree, None, assignment, (),
                       c, [cbar[e] for e in members])
    return _checks(g, anchors, gi, *_unit_and_excess(constants, use_max_degree, odd=False),
                   use_max_degree)


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


def _packing_tree_or_breach(g: eb.Graph, members) -> bool:
    """Whether ``members`` meet the hypothesis of the proof in
    ``certify._grow``: then the public builder gives the oracle's tree,
    stitched by the replayed connectors; else it names the first member
    that breaks it in a ``ValueError``."""
    breach = packing_hypothesis_breach_oracle(g, members)
    if breach is not None:
        with pytest.raises(ValueError, match=f"^member {breach} lies at distance "):
            eb.build_spanning_tree_from_packing(g, members)
        return False
    got = eb.build_spanning_tree_from_packing(g, members)
    assert got == packing_tree_oracle(g, members)
    assert not _fell_back(g, [(a,) for a in members], got[3])
    return True


def _tree_or_unstitched(g: eb.Graph, groups, oracle) -> bool:
    """Whether the replayed connectors stitch the cells of ``groups``: then
    ``_tree`` gives ``oracle``'s tree; else the oracle falls back, and
    ``_anchor_tree``, which has no fallback, fails its verification."""
    if _fell_back(g, groups, oracle[3]):
        with pytest.raises(RuntimeError, match="^construction invariant violated: "):
            _tree(g, groups)
        return False
    assert _tree(g, groups)[:len(oracle)] == oracle
    return True


# ---------------------------------------------------------------------------
# tree builders against the per-prefix replay

def test_packing_tree_matches_prefix_replay_oracle():
    rng = random.Random(1928)
    built = 0
    trials = 400
    for _ in range(trials):
        g = _random_graph(rng)
        members = rng.sample(range(g.n), rng.randint(1, min(8, g.n)))
        built += _packing_tree_or_breach(g, members)
    # both the trees and the rejections must be exercised
    assert trials // 5 < built < trials - trials // 5


def test_matching_tree_matches_prefix_replay_oracle():
    rng = random.Random(871)
    stitched = 0
    trials = 300
    for _ in range(trials):
        g = _random_graph(rng)
        members = _random_matching(rng, g)
        stitched += _tree_or_unstitched(g, members, matching_tree_oracle(g, members))
    assert 0 < stitched < trials


def test_packings_and_matchings_of_the_pipeline_match_oracles():
    # a packing spaced at an even distance breaks the hypothesis
    rng = random.Random(5)
    for _ in range(40):
        g = _random_graph(rng, 6, 60)
        for gv in (3, 4, 5, 6, 7):
            A = [a for (a,) in _grow(g, (rng.randrange(g.n),), _spaced_vertex(gv))[0]]
            assert _packing_tree_or_breach(g, A) == (gv % 2 == 1 or len(A) == 1)
            M = eb.build_spaced_matching(g, gv)
            assert M == spaced_matching_oracle(g, gv)
            assert _tree(g, M) == matching_tree_oracle(g, M)


def test_replay_at_chain_distances():
    # discovery paths hundreds of edges long, walked layer by layer
    g, _ = eb.chain_graph(3, 5, 80)
    ends = [0, g.n - 1, g.n // 2]
    groups = [(a,) for a in ends]
    assert _replayed(g, groups) == prefix_connectors_oracle(g, groups)


def test_anchor_tree_matches_from_edges_oracle_on_arbitrary_members():
    # the tree built from its parents against the assembly through
    # Graph.from_edges where the replayed connectors stitch the cells; where
    # they do not, the oracle falls back and the library raises
    rng = random.Random(3141)
    stitched = 0
    trials = 300
    for _ in range(trials):
        g = _random_graph(rng)
        if rng.random() < 0.5:
            groups = [(a,) for a in rng.sample(range(g.n), rng.randint(1, min(8, g.n)))]
        else:
            groups = _random_matching(rng, g)
        stitched += _tree_or_unstitched(g, groups, anchor_tree_oracle(g, *_grown(g, groups)))
    assert trials // 5 < stitched < trials - trials // 5


def _checked_anchor_tree(mp) -> list:
    """Make the pipeline check each tree it builds against the oracle's;
    the returned list counts the trees."""
    certify_module = sys.modules["eccbounds.certify"]
    real, built = certify_module._anchor_tree, []

    def checked(g, groups, connectors, dist, order):
        got = real(g, groups, connectors, dist, order)
        assert got[:5] == anchor_tree_oracle(g, groups, connectors, dist)
        assert got[5] == eb.eccentricity_profile(got[0])
        built.append(got)
        return got

    mp.setattr(certify_module, "_anchor_tree", checked)
    return built


def _chain_packing():
    """A chain with several packing members: the members and the grower's output."""
    g = INSTANCES["chain-3-5-4"]()
    groups = [(a,) for a in eb.build_packing(g, 5)]
    assert len(groups) > 2
    return g, _grown(g, groups)


def _drop_a_parent_edge(mp):
    """Drop one tree parent edge from ``_anchor_tree``'s cells, the one call
    whose order spans every vertex; the replay's DAG calls pass through."""
    certify_module = sys.modules["eccbounds.certify"]
    real = certify_module._deterministic_cells

    def dropping(g, dist, order, root, parent):
        order = list(order)
        root, parent = real(g, dist, order, root, parent)
        if len(order) == g.n:
            parent[next(v for v in range(g.n) if parent[v] != -1)] = -1
        return root, parent

    mp.setattr(certify_module, "_deterministic_cells", dropping)


@pytest.mark.parametrize("repeat, drop, message", [
    (True, False, "not a spanning tree"),
    (False, True, "not a spanning tree"),
    (True, True, "tree is disconnected"),  # n - 1 entries, one edge twice
], ids=["repeated-connector", "dropped-parent-edge", "both"])
def test_anchor_tree_rejects_a_repeated_or_missing_edge(repeat, drop, message, monkeypatch):
    g, (groups, connectors, dist) = _chain_packing()
    if repeat:
        connectors = connectors + connectors[:1]
    if drop:
        _drop_a_parent_edge(monkeypatch)
    with pytest.raises(RuntimeError, match=f"construction invariant violated: {message}"):
        _anchor_tree(g, groups, connectors, dist, _by_dist(dist))


def test_packing_tree_rejects_empty_or_repeated_members():
    # distinct members are what give every discovery path an edge to record
    for members in ([], [0, 0], [3, 1, 3]):
        with pytest.raises(ValueError) as info:
            eb.build_spanning_tree_from_packing(eb.petersen_graph(), members)
        assert str(info.value) == "packing must be a nonempty list of distinct vertices"


K4 = eb.complete_graph(4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: eb.build_packing(K4, 0), ValueError, "girth parameter must be positive"),
    (lambda: eb.build_spaced_matching(eb.Graph.from_edges(3, []), 4), ValueError,
     "graph has no edges"),
    (lambda: _verify_tree(K4, eb.Graph.from_edges(4, [(0, 1), (1, 2)]), [0],
                          eb.bfs_distances(K4, 0)),
     RuntimeError, "construction invariant violated: not a spanning tree"),
    (lambda: _verify_tree(K4, eb.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]), [0],
                          eb.bfs_distances(K4, 0)),
     RuntimeError, "construction invariant violated: tree is disconnected"),
    # a triangle and vertex 3, each with an anchor and every distance kept
    (lambda: _verify_tree(K4, eb.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]), [0, 3],
                          eb.multi_source_distances(K4, [0, 3])),
     RuntimeError, "construction invariant violated: tree is disconnected"),
    (lambda: eb.build_spanning_tree_from_packing(eb.petersen_graph(), [0, 10]), ValueError,
     "member 10 out of range"),
    (lambda: eb.build_spanning_tree_from_packing(eb.petersen_graph(), [-1]), ValueError,
     "member -1 out of range"),
], ids=["packing-girth-0", "matching-edgeless", "tree-short-an-edge",
        "tree-with-a-cycle", "tree-with-a-cycle-and-anchors-apart", "tree-member-n",
        "tree-member-negative"])
def test_input_validation_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


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
        assert eb.build_spaced_matching(g, gv) == spaced_matching_oracle(g, gv)


def test_spaced_matching_rejects_girth_below_two():
    for gv in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            eb.build_spaced_matching(eb.petersen_graph(), gv)


# ---------------------------------------------------------------------------
# radius-bounded checks against the full-BFS oracles, failing inputs included

def _packing_case(rng: random.Random, g: eb.Graph, gi: int, use_max_degree: bool):
    members = rng.sample(range(g.n), rng.randint(1, min(8, g.n)))
    tree, _, assignment, _ = packing_tree_oracle(g, members)
    assignment = list(assignment)
    if rng.random() < 0.5:  # point some vertices at a wrong or non-member vertex
        for _ in range(rng.randint(1, 3)):
            assignment[rng.randrange(g.n)] = rng.randrange(g.n)
    if rng.random() < 0.2:
        members = members + [members[0]]  # a repeated member
    c = cell_weights(members, assignment)
    k = rng.randint(1, 12)
    constants = {"K1": k, "K2": k + rng.randint(0, 4)} if use_max_degree else {"K": k}
    rng.random()  # a spare draw keeps the cases each seed gives
    return (g, members, assignment, c, gi, constants, tree, use_max_degree)


def _matching_case(rng: random.Random, g: eb.Graph, gi: int, use_max_degree: bool):
    members = _random_matching(rng, g)
    tree, _, assignment, _, vm, msd = matching_tree_oracle(g, members)
    assignment = list(assignment)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            assignment[rng.randrange(g.n)] = rng.randrange(g.n)
    if rng.random() < 0.2 and g.m > len(members):
        members = members + [next(e for e in g.edges if e not in members)]  # may overlap
        vm = sorted({x for e in members for x in e})
        msd = eb.multi_source_distances(g, vm)
    c = cell_weights(vm, assignment)
    cbar = {e: c[e[0]] + c[e[1]] for e in members}
    k = rng.randint(1, 12)
    constants = {"L1": k, "L2": k + rng.randint(0, 4)} if use_max_degree else {"L": 2 * k}
    rng.random()  # as in _packing_case
    return (g, members, vm, msd, assignment, c, cbar, gi, constants, tree, use_max_degree)


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
    tree, _, assignment, _ = packing_tree_oracle(g, [0, 6])
    c = cell_weights([0, 6], assignment)
    case = (g, [0, 6], assignment, c, 3, {"K": 3}, tree, False)
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
    case = (g, members, assignment, cell_weights(members, assignment), 3, {"K": 2},
            g, False)
    got = _checks_on_packing(case)
    assert got == packing_checks_oracle(*case)
    assert {check.name: check.ok for check in got}["assignment_nearest_member"]


def test_matching_checks_accept_a_tied_assignment():
    # vertex 2 lies at distance 1 from matched vertices 1 and 3, and vertex 5,
    # hanging off 2, at distance 2 from both; 2 goes to 1 and 5 goes to 3
    g = eb.Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    members, vm, assignment = [(0, 1), (3, 4)], [0, 1, 3, 4], [0, 1, 1, 3, 4, 3]
    c = cell_weights(vm, assignment)
    cbar = {e: c[e[0]] + c[e[1]] for e in members}
    case = (g, members, vm, eb.multi_source_distances(g, vm), assignment, c, cbar, 4,
            {"L": 2}, g, False)
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
        tree, _, assignment, _ = packing_tree_oracle(g, starts)
        case = (g, starts, list(assignment), dict(zip(starts, weights)), 5,
                {"K1": 4, "K2": 12}, tree, True)
        got, want = _checks_on_packing(case), packing_checks_oracle(*case)
        names = ("hub_weight>=K2", "cell_lower_bounds", "packing_size<=(n-K2)/K1+1")
    else:
        members = [(a, a + 1) for a in starts]
        tree, _, assignment, _, vm, msd = matching_tree_oracle(g, members)
        case = (g, members, vm, msd, list(assignment), cell_weights(vm, assignment),
                dict(zip(members, weights)), 6, {"L1": 2, "L2": 10}, tree, True)
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


def _power_host(cert):
    """The host of a certificate's contracted power and its anchors there:
    the tree and the members (odd girth), or the tree's line graph and the
    matching edges' line-graph vertices (even girth)."""
    if cert.girth_value % 2:
        return cert.tree, list(cert.members)
    line_id = {e: i for i, e in enumerate(cert.tree.edges)}
    return cert.line, [line_id[e] for e in cert.members]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_contracted_power_equals_the_ball_built_one_on_golden_hosts(name):
    g = INSTANCES[name]()
    for use_max_degree in (False, True):
        cert = certify(g, use_max_degree=use_max_degree)
        host, anchors = _power_host(cert)
        gi = cert.girth_value
        assert _contracted_power(host, anchors, gi) == ball_contracted_power_oracle(host, anchors, gi)


def test_contracted_power_equals_the_ball_built_one_on_random_graphs():
    rng = random.Random(2023)
    edges = 0
    for _ in range(300):
        g = _random_graph(rng, 2, 60)
        anchors = rng.sample(range(g.n), rng.randint(1, min(12, g.n)))
        radius = rng.randint(1, 8)
        power = _contracted_power(g, anchors, radius)
        assert power == ball_contracted_power_oracle(g, anchors, radius)
        edges += power.m
    assert edges > 1000


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


@pytest.mark.parametrize("use_max_degree", [False, True], ids=["plain", "maxdeg"])
@pytest.mark.parametrize("name", ["petersen", "heawood", "gen-n300-d3-g5-s1",
                                  "gen-n300-d3-g6-s1"])
def test_certify_sweeps_its_tree_from_vertex_0_once(name, use_max_degree, monkeypatch):
    # _verify_tree tests connectivity with the first sweep of the tree's
    # profile, which _chain reads: with the profile's two sweeps from the ends
    # of a diameter and the anchor check, the tree is swept four times
    graph_module = sys.modules["eccbounds.graph"]
    real, sweeps = graph_module._sweep, []

    def recording(adj, n, order):
        sweeps.append((adj, list(order)))
        return real(adj, n, order)

    monkeypatch.setattr(graph_module, "_sweep", recording)
    cert = certify(INSTANCES[name](), use_max_degree=use_max_degree)
    on_tree = [order for adj, order in sweeps if adj is cert.tree.adj]
    assert len(on_tree) == 4
    # the anchor check sweeps from vertex 0 too where 0 is the only anchor
    # vertex, as in the Petersen graph's one-member packing
    assert on_tree.count([0]) == 1 + (sorted(set(cert.assignment)) == [0])


# ---------------------------------------------------------------------------
# the pipeline's replayed connectors always form the tree, by the proof in
# the docstring of eccbounds.certify._grow; _verify_tree guards each tree,
# and the public builder takes only members that meet the proof's hypothesis

@pytest.mark.parametrize("graph, members, message", [
    # vertex 1 ties between members 2 and 0 and goes to 0, as does the
    # middle edge (1, 0) of the path 2-1-0: the connector would not stitch
    (eb.path_graph(3), [2, 0], "member 0 lies at distance 2 from the members before it: "
     "the proof needs an odd distance of at least 1"),
    (eb.path_graph(9), [0, 5, 8], "member 8 lies at distance 3 from the members before it: "
     "the proof needs an odd distance of at least 5"),
    (eb.cycle_graph(24), eb.build_packing(eb.cycle_graph(24), 4), "member 4 lies at "
     "distance 4 from the members before it: the proof needs an odd distance of at least 1"),
], ids=["even", "falling", "even-spaced-packing"])
def test_members_outside_the_hypothesis_raise(graph, members, message):
    with pytest.raises(ValueError) as info:
        eb.build_spanning_tree_from_packing(graph, members)
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_certificates_take_no_fallback(name):
    g = INSTANCES[name]()
    for use_max_degree in (False, True):
        assert certify(g, use_max_degree=use_max_degree).all_steps_hold


def _record_discoveries(mp) -> list:
    """Make the pipeline's grower record each anchor it picks after the
    first, with the distance array to the anchors before it."""
    certify_module = sys.modules["eccbounds.certify"]
    grow, seen = certify_module._grow, []

    def recording_grow(g, first, pick):
        def recording_pick(dist):
            group = pick(dist)
            if group is not None:
                seen.append((group, list(dist)))
            return group
        return grow(g, first, recording_pick)

    mp.setattr(certify_module, "_grow", recording_grow)
    return seen


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_replays_on_the_shared_arrays_equal_the_oracle(name, monkeypatch):
    # every replay of one grower reuses its root/parent pair and must give
    # the path replay_path_oracle gives on a copy of that step's distances
    certify_module = sys.modules["eccbounds.certify"]
    grow, replay = certify_module._grow, certify_module._replay_path
    replays, grown = [], []

    def checked_replay(g, dist, target, *arrays):
        want = replay_path_oracle(g, list(dist), target)
        replays.append(arrays)
        assert replay(g, dist, target, *arrays) == want
        return want

    def checked_grow(g, first, pick):
        replays.clear()
        groups, connectors, dist = grow(g, first, pick)
        assert len(replays) == len(groups) - 1 == len(connectors)
        assert len({tuple(map(id, arrays)) for arrays in replays}) <= 1
        assert all(len(arrays) == 2 and all(len(array) == g.n for array in arrays)
                   for arrays in replays)
        grown.append(len(replays))
        return groups, connectors, dist

    monkeypatch.setattr(certify_module, "_replay_path", checked_replay)
    monkeypatch.setattr(certify_module, "_grow", checked_grow)
    g = INSTANCES[name]()
    for use_max_degree in (False, True):
        certify(g, use_max_degree=use_max_degree)
    assert len(grown) == 2


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_pipeline_connectors_obey_the_stitching_proof(name, monkeypatch):
    # each claim of the proof in _grow's docstring, on every connector, and
    # each tree as the assembly through Graph.from_edges gives it
    seen = _record_discoveries(monkeypatch)
    built = _checked_anchor_tree(monkeypatch)
    g = INSTANCES[name]()
    for use_max_degree in (False, True):
        seen.clear()
        cert = certify(g, use_max_degree=use_max_degree)
        gi = cert.girth_value
        groups = [(a,) for a in cert.members] if gi % 2 else list(cert.members)
        anchor_of = {x: i for i, group in enumerate(groups) for x in group}
        cell = [anchor_of[r] for r in cert.assignment]
        assert [group for group, _ in seen] == groups[1:]
        assert len(cert.connector_edges) == len(groups) - 1
        for i, ((group, dist), (x, y)) in enumerate(zip(seen, cert.connector_edges), 1):
            earlier = sorted(v for prior in groups[:i] for v in prior)
            assert dist == eb.multi_source_distances(g, earlier)
            t = min(dist[v] for v in group)
            h = t // 2
            assert t == (gi if gi % 2 else gi - 1) == 2 * h + 1
            new = eb.multi_source_distances(g, group)
            assert (dist[x], dist[y], new[y], new[x]) == (h, h + 1, h, h + 1)
            assert cell[y] == i and cell[x] < i
    assert len(built) == 2


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_pipeline_power_contains_the_connector_tree(name):
    # the last step of the proof in _grow's docstring, on every connector
    g = INSTANCES[name]()
    for use_max_degree in (False, True):
        cert = certify(g, use_max_degree=use_max_degree)
        gi, root = cert.girth_value, cert.assignment
        groups = [(a,) for a in cert.members] if gi % 2 else list(cert.members)
        host, anchors = _power_host(cert)
        anchor_of = {x: i for i, group in enumerate(groups) for x in group}
        power = _contracted_power(host, anchors, gi)
        t = gi if gi % 2 else gi - 1
        for i, (x, y) in enumerate(cert.connector_edges, 1):
            j = anchor_of[root[x]]
            assert j < i == anchor_of[root[y]]
            assert eb.bfs_distances(cert.tree, root[x])[root[y]] <= t
            assert power.has_edge(j, i)


@pytest.mark.parametrize("name", ["chain-3-5-4", "chain-3-6-3"], ids=["odd", "even"])
def test_disconnected_power_raises(name, monkeypatch):
    # an edgeless power on the several anchors of a chain breaks the invariant
    monkeypatch.setattr(sys.modules["eccbounds.certify"], "_contracted_power",
                        lambda host, anchors, radius: eb.Graph.from_edges(len(anchors), []))
    with pytest.raises(RuntimeError,
                       match="construction invariant violated: contracted power is disconnected"):
        certify(INSTANCES[name]())


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
    # and builds each tree as the assembly through Graph.from_edges does
    with pytest.MonkeyPatch.context() as mp:
        built = _checked_anchor_tree(mp)
        for use_max_degree in (False, True):
            certify(g, use_max_degree=use_max_degree)
        assert len(built) == 2


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
    _packing_tree_or_breach(g, members)
    matching = _random_matching(rng, g)
    _tree_or_unstitched(g, matching, matching_tree_oracle(g, matching))
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
        tree, *_ = packing_tree_oracle(g, members)
        _assert_line_identity(tree)


@settings(max_examples=60, deadline=None)
@given(graphs_with_anchors())
def test_property_checks_equal_oracles_under_tied_reassignment(case):
    g, members, gi, rng = case
    tree, _, assignment, _ = packing_tree_oracle(g, members)
    assignment = list(assignment)
    _reassign_among_ties(rng, g, members, assignment)
    pcase = (g, members, assignment, cell_weights(members, assignment), gi,
             {"K": rng.randint(1, 6)}, tree, False)
    got = _checks_on_packing(pcase)
    assert got == packing_checks_oracle(*pcase)
    assert got[2].ok  # assignment_nearest_member

    matching = _random_matching(rng, g)
    tree, _, assignment, _, vm, msd = matching_tree_oracle(g, matching)
    assignment = list(assignment)
    _reassign_among_ties(rng, g, vm, assignment)
    c = cell_weights(vm, assignment)
    mcase = (g, matching, vm, msd, assignment, c, {e: c[e[0]] + c[e[1]] for e in matching},
             gi, {"L": rng.randint(1, 6)}, tree, False)
    got = _checks_on_matching(mcase)
    assert got == matching_checks_oracle(*mcase)
    assert got[3].ok  # assignment_nearest_matched_vertex
