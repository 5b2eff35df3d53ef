"""Certificate pipelines: packings, matchings, trees, weights, chains."""
from __future__ import annotations

import random
import sys
import types
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import eccbounds as eb
from eccbounds.bounds import GraphParams, bound_thm_girth, bound_thm_girth_maxdeg
from eccbounds.certify import _grow, _lower_distances, _replay_path, _spaced_vertex, certify
from conftest import (
    UnionFind,
    _fallback_connectors,
    cell_weights,
    lower_distances_oracle,
    prefix_connectors_oracle,
    random_connected,
    replay_path_oracle,
)
from test_golden import INSTANCES


# ---------------------------------------------------------------------------
# packing construction

def test_packing_p12_with_g3():
    assert eb.build_packing(eb.path_graph(12), 3) == [0, 3, 6, 9]


def test_packing_petersen_single():
    # diameter 2 <= g-1 = 4, so the start vertex already covers everything
    assert eb.build_packing(eb.petersen_graph(), 5) == [0]


def test_packing_three_chain():
    g30, _ = eb.chain_graph(3, 5, 3)
    A = eb.build_packing(g30, 5)
    assert len(A) >= 2
    dist = {a: eb.bfs_distances(g30, a) for a in A}
    assert all(dist[a][b] >= 5 for i, a in enumerate(A) for b in A[i + 1:])
    cover = eb.multi_source_distances(g30, A)
    assert max(cover) <= 4


def test_packing_respects_start():
    # the grower under build_packing, from a first member other than vertex 0
    groups = _grow(eb.path_graph(12), (11,), _spaced_vertex(3))[0]
    assert groups == [(11,), (8,), (5,), (2,)]


def test_packing_spacing_and_coverage_random():
    rng = random.Random(17)
    for _ in range(10):
        g = random_connected(rng, rng.randint(6, 40), rng.randint(0, 20))
        for gv in (3, 4, 5):
            A = eb.build_packing(g, gv)
            dist = {a: eb.bfs_distances(g, a) for a in A}
            assert all(dist[a][b] >= gv for i, a in enumerate(A) for b in A[i + 1:])
            assert max(eb.multi_source_distances(g, A)) <= gv - 1


# ---------------------------------------------------------------------------
# spanning trees

def test_tree_single_member_is_bfs_tree():
    tree, parent, assignment, connectors = \
        eb.build_spanning_tree_from_packing(eb.petersen_graph(), [0])
    assert tree.m == 9 and connectors == ()
    assert max(eb.bfs_distances(tree, 0)) == 2
    assert set(assignment) == {0}


def test_tree_on_path_is_the_path():
    p9 = eb.path_graph(9)
    tree, *_ = eb.build_spanning_tree_from_packing(p9, [0, 7])
    assert tree.edges == p9.edges


def test_tree_preserves_distances_random():
    rng = random.Random(29)
    for _ in range(12):
        g = random_connected(rng, rng.randint(6, 40), rng.randint(0, 25))
        A = eb.build_packing(g, rng.choice((3, 5, 7)))  # odd: the builder's hypothesis
        tree, parent, assignment, _ = eb.build_spanning_tree_from_packing(g, A)
        assert tree.m == g.n - 1
        assert eb.multi_source_distances(tree, A) == eb.multi_source_distances(g, A)
        # assignment points at a nearest member
        msd = eb.multi_source_distances(g, A)
        for v in range(g.n):
            assert eb.bfs_distances(g, assignment[v])[v] == msd[v]


def test_weight_function_point():
    g = eb.petersen_graph()
    tree, _, assignment, _ = eb.build_spanning_tree_from_packing(g, [0])
    c = cell_weights([0], assignment)
    assert c[0] == 10 and sum(c.values()) == 10
    assert certify(g).weights == c


def test_star_import_binds_no_module():
    # importing the public names binds the submodules in the package too
    assert not any(isinstance(getattr(eb, name), types.ModuleType) for name in eb.__all__)
    assert "certify" not in eb.__all__ and "certify_odd" in eb.__all__


def test_two_chain_cells_split_evenly():
    g20, _ = eb.chain_graph(3, 5, 2)
    prof = eb.eccentricity_profile(g20)
    start = min(v for v in range(20) if prof.ecc[v] == prof.diameter)
    A = [a for (a,) in _grow(g20, (start,), _spaced_vertex(5))[0]]
    assert len(A) == 2
    tree, _, assignment, _ = eb.build_spanning_tree_from_packing(g20, A)
    c = cell_weights(A, assignment)
    assert sorted(c[a] for a in A) == [10, 10]
    assert all(c[a] >= 10 for a in A)  # >= K


def test_fallback_connectors_build_valid_quotient_trees():
    # the oracles' quotient-tree fallback must stitch arbitrary cell decompositions
    from eccbounds.certify import _deterministic_cells
    rng = random.Random(53)
    for _ in range(10):
        g = random_connected(rng, rng.randint(8, 30), rng.randint(2, 15))
        members = sorted(rng.sample(range(g.n), rng.randint(2, min(5, g.n))))
        dist = eb.multi_source_distances(g, members)
        root, parent = _deterministic_cells(g, dist, sorted(range(g.n), key=dist.__getitem__),
                                            [-1] * g.n, [-1] * g.n)
        chosen = _fallback_connectors(g, root, dist, members)
        assert len(chosen) == len(members) - 1
        uf = UnionFind(members)
        for x, y in chosen:
            assert g.has_edge(x, y)
            assert uf.union(root[x], root[y])  # each edge merges two cells
        # parents + fallback connectors always form a preserving spanning tree
        edges = [(v, parent[v]) for v in range(g.n) if parent[v] != -1] + chosen
        tree = eb.Graph.from_edges(g.n, edges)
        assert tree.m == g.n - 1
        assert eb.multi_source_distances(tree, members) == dist


# ---------------------------------------------------------------------------
# odd certificates

def test_certify_odd_petersen():
    cert = eb.certify_odd(eb.petersen_graph())
    assert cert.all_steps_hold
    assert cert.chain["avecG"] == 2
    assert cert.chain["finalBound"] == F(37, 4)
    assert cert.constants == {"K": 10}
    assert cert.bound_id == "ThmGirthOdd"


def test_certify_odd_k4():
    cert = eb.certify_odd(eb.complete_graph(4))
    assert cert.all_steps_hold
    assert cert.constants == {"K": 4}
    assert cert.chain["finalBound"] == F(19, 4)


def test_certify_odd_four_chain():
    g40, _ = eb.chain_graph(3, 5, 4)
    cert = eb.certify_odd(g40)
    assert cert.all_steps_hold
    assert cert.chain["finalBound"] == F(41, 2)
    low = eb.lower_bound_chain(GraphParams(n=40, delta=3, g=5), 4)
    assert low == F(21, 2) and cert.chain["avecG"] >= low


def test_certify_odd_maxdeg_k4():
    cert = eb.certify_odd(eb.complete_graph(4), use_max_degree=True)
    assert cert.all_steps_hold
    assert cert.constants == {"K1": 4, "K2": 4}
    assert cert.bound_id == "ThmGirthMaxDegOdd"


def test_certify_odd_final_bound_matches_evaluator():
    g, _ = eb.chain_graph(3, 5, 3)
    cert = eb.certify_odd(g)
    p = eb.measure(g).params
    assert cert.chain["finalBound"] == bound_thm_girth(p).value
    certm = eb.certify_odd(g, use_max_degree=True)
    rm = bound_thm_girth_maxdeg(p)
    if rm.applicable:
        assert certm.chain["finalBound"] == rm.value


def test_certify_odd_rejects_low_degree():
    with pytest.raises(eb.NotCertifiableError):
        eb.certify_odd(eb.cycle_graph(5))


def test_certify_odd_rejects_even_girth():
    with pytest.raises(ValueError, match="use certify_even"):
        eb.certify_odd(eb.complete_bipartite(3, 3))


def test_certify_odd_rejects_disconnected():
    g = eb.Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
    with pytest.raises(eb.DisconnectedGraphError):
        eb.certify_odd(g)


# ---------------------------------------------------------------------------
# matchings

def test_matching_p7_with_g4():
    assert eb.build_spaced_matching(eb.path_graph(7), 4) == [(0, 1), (4, 5)]


def test_matching_k33_single():
    assert eb.build_spaced_matching(eb.complete_bipartite(3, 3), 4) == [(0, 3)]


def test_matching_heawood_single():
    assert len(eb.build_spaced_matching(eb.heawood_graph(), 6)) == 1


def test_matching_spacing_and_coverage_random():
    rng = random.Random(31)
    for _ in range(10):
        g = random_connected(rng, rng.randint(6, 40), rng.randint(2, 25))
        for gv in (4, 6):
            M = eb.build_spaced_matching(g, gv)
            vm = sorted({x for e in M for x in e})
            assert len(vm) == 2 * len(M)  # pairwise non-incident
            vdist = {u: eb.bfs_distances(g, u) for u in vm}
            for i, e in enumerate(M):
                for f in M[i + 1:]:
                    assert min(vdist[x][y] for x in e for y in f) >= gv - 1
            msd = eb.multi_source_distances(g, vm)
            assert all(min(msd[x], msd[y]) <= gv - 2 for x, y in g.edges)


# ---------------------------------------------------------------------------
# even certificates

def test_certify_even_k33():
    cert = eb.certify_even(eb.complete_bipartite(3, 3))
    assert cert.all_steps_hold
    assert cert.chain["avecG"] == 2
    assert cert.chain["finalBound"] == 7
    assert cert.constants == {"L": 6}
    assert cert.members == ((0, 3),)
    # hand-checked intermediate values for this instance
    assert cert.chain["avecT"] == F(8, 3)
    assert cert.chain["avecC_T"] == 2
    assert cert.chain["avecCbar_L"] == 1
    assert cert.chain["Nprime"] == 1


def test_certify_even_heawood():
    cert = eb.certify_even(eb.heawood_graph())
    assert cert.all_steps_hold
    assert cert.chain["avecG"] == 3
    assert cert.chain["finalBound"] == F(23, 2)


def test_certify_even_two_chain():
    g28, _ = eb.chain_graph(3, 6, 2)
    cert = eb.certify_even(g28)
    assert cert.all_steps_hold
    assert cert.chain["finalBound"] == 16
    low = eb.lower_bound_chain(GraphParams(n=28, delta=3, g=6), 2)
    assert low == F(9, 2) and cert.chain["avecG"] >= low


def test_certify_even_maxdeg_heawood():
    cert = eb.certify_even(eb.heawood_graph(), use_max_degree=True)
    assert cert.all_steps_hold
    assert cert.constants == {"L1": 7, "L2": 7}
    assert cert.bound_id == "ThmGirthMaxDegEven"


def test_certify_even_edge_weights_conserve():
    g28, _ = eb.chain_graph(3, 6, 2)
    cert = eb.certify_even(g28)
    assert sum(cert.edge_weights.values()) == 28
    assert all(w >= 14 for w in cert.edge_weights.values())  # >= L
    assert all(w >= 1 for w in cert.normalized_edge_weights.values())


def test_certify_even_rejects_odd_girth():
    with pytest.raises(ValueError, match="use certify_odd"):
        eb.certify_even(eb.petersen_graph())


# ---------------------------------------------------------------------------
# structural invariants on a small mixed corpus

def _mini_corpus():
    graphs = [eb.petersen_graph(), eb.complete_graph(4), eb.complete_graph(5),
              eb.complete_bipartite(3, 3), eb.complete_bipartite(4, 4),
              eb.heawood_graph(), eb.chain_graph(3, 5, 2)[0],
              eb.chain_graph(3, 4, 3)[0]]
    for seed, (d, gf, n) in enumerate([(3, 5, 40), (3, 4, 30), (3, 6, 60), (4, 5, 50)]):
        out = eb.random_min_degree_girth(eb.GeneratorConfig(n=n, delta=d, g=gf, seed=700 + seed))
        assert not isinstance(out, eb.GenerationFailure)
        graphs.append(out)
    return graphs


def test_structural_checks_hold_across_corpus():
    for g in _mini_corpus():
        gi = eb.girth(g)
        for maxdeg in (False, True):
            cert = (eb.certify_odd if gi % 2 else eb.certify_even)(g, use_max_degree=maxdeg)
            failed = [c.name for c in cert.checks if not c.ok]
            assert not failed, (g.n, gi, maxdeg, failed)
            assert all(s.holds for s in cert.steps), (g.n, gi, maxdeg)


def test_chain_values_match_independent_recomputation():
    # avecC_T is the weight-moved average: recompute it straight from the
    # assignment, bypassing the cell weights
    for g in _mini_corpus():
        gi = eb.girth(g)
        if gi % 2:
            cert = eb.certify_odd(g)
        else:
            cert = eb.certify_even(g)
        tree_ecc = eb.eccentricity_profile(cert.tree).ecc
        moved = F(sum(tree_ecc[cert.assignment[v]] for v in range(g.n)), g.n)
        assert cert.chain["avecC_T"] == moved
        assert cert.chain["avecG"] == eb.eccentricity_profile(g).avec
        assert cert.chain["avecT"] == eb.eccentricity_profile(cert.tree).avec


def test_final_bound_matches_evaluator_across_corpus():
    for g in _mini_corpus():
        gi = eb.girth(g)
        p = eb.measure(g).params
        cert = (eb.certify_odd if gi % 2 else eb.certify_even)(g)
        assert cert.chain["finalBound"] == bound_thm_girth(p).value
        certm = (eb.certify_odd if gi % 2 else eb.certify_even)(g, use_max_degree=True)
        rm = bound_thm_girth_maxdeg(p)
        if rm.applicable:
            assert certm.chain["finalBound"] == rm.value


def test_normalized_weights_at_least_one():
    for g in _mini_corpus():
        gi = eb.girth(g)
        if gi % 2:
            cert = eb.certify_odd(g)
            assert all(cert.normalized_weights[a] >= 1 for a in cert.members)
        else:
            cert = eb.certify_even(g)
            assert all(w >= 1 for w in cert.normalized_edge_weights.values())


@st.composite
def certifiable_graphs(draw):
    """Connected graphs with minimum degree at least 3: dense random graphs,
    girth 3 in practice, or generator outputs with girth floors 4 to 7."""
    floor = draw(st.integers(min_value=3, max_value=7))
    n = draw(st.integers(min_value=4 if floor == 3 else 20, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if floor > 3:
        out = eb.random_min_degree_girth(eb.GeneratorConfig(n=n, delta=3, g=floor, seed=seed))
        assume(isinstance(out, eb.Graph))
        return out
    rng = random.Random(seed)
    p = draw(st.floats(min_value=0.1, max_value=0.9))
    pairs = [(u, w) for u in range(n) for w in rng.sample(range(n), 4) if w != u]
    pairs += [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]
    g = eb.Graph.from_edges(n, pairs)
    assume(eb.is_connected(g))
    return g


@settings(max_examples=100, deadline=None)
@given(certifiable_graphs())
def test_property_every_certifiable_graph_certifies(g):
    assert g.min_degree() >= 3 and eb.girth(g) is not None
    for maxdeg in (False, True):
        cert = certify(g, use_max_degree=maxdeg)
        assert cert.all_steps_hold, (g.n, g.edges, maxdeg)


# ---------------------------------------------------------------------------
# one anchor pass: the grower chooses the anchors and records the connectors

@cache
def _generated(girth_floor: int) -> eb.Graph:
    return eb.random_min_degree_girth(eb.GeneratorConfig(n=300, delta=3, g=girth_floor, seed=1))


def _groups(cert) -> list[tuple[int, ...]]:
    odd = isinstance(cert, eb.PackingCertificate)
    return [(a,) for a in cert.members] if odd else list(cert.members)


def test_lower_distances_matches_the_deque_oracle():
    rng = random.Random(2013)
    graphs = [eb.petersen_graph(), eb.chain_graph(3, 5, 6)[0], _generated(5), _generated(6)]
    graphs += [random_connected(rng, rng.randint(2, 80), rng.randint(0, 50)) for _ in range(30)]
    for g in graphs:
        sources = rng.sample(range(g.n), min(g.n, 6))
        dist = eb.multi_source_distances(g, sources[:1])
        want = dist.copy()
        for x in sources[1:]:
            _lower_distances(g, dist, x)
            lower_distances_oracle(g, want, x)
            assert dist == want
        assert dist == eb.multi_source_distances(g, sources)


def test_replay_path_matches_its_oracle():
    # every target at distance >= 1 from random sources; ties between roots
    # and between parents, and even distances, all occur
    rng = random.Random(2020)
    graphs = [eb.petersen_graph(), eb.cycle_graph(12), eb.chain_graph(3, 6, 3)[0], _generated(6)]
    graphs += [random_connected(rng, rng.randint(2, 60), rng.randint(0, 40)) for _ in range(40)]
    ties = even = 0
    for g in graphs:
        sources = rng.sample(range(g.n), rng.randint(1, min(g.n, 5)))
        dist = eb.multi_source_distances(g, sources)
        for v in range(g.n):
            if dist[v]:
                fresh = [-1] * g.n, [-1] * g.n
                assert _replay_path(g, dist, v, *fresh) == replay_path_oracle(g, dist, v)
                ties += sum(dist[u] == dist[v] - 1 for u in g.adj[v]) > 1
                even += dist[v] % 2 == 0
    assert ties > 100 and even > 100


def test_replay_on_stale_arrays_equals_the_fresh_replay():
    # the grower's shared arrays hold entries of earlier replays: every
    # source's parent here points at a neighbour, every root at a stray
    # vertex, and the walk of dist[target] steps must read none of them
    rng = random.Random(2024)
    graphs = [eb.petersen_graph(), eb.chain_graph(3, 5, 5)[0], _generated(5)]
    graphs += [random_connected(rng, rng.randint(2, 60), rng.randint(0, 40)) for _ in range(40)]
    for g in graphs:
        sources = rng.sample(range(g.n), rng.randint(1, min(g.n, 5)))
        dist = eb.multi_source_distances(g, sources)
        root = [rng.randrange(g.n) for _ in range(g.n)]
        parent = [rng.choice(g.adj[v]) for v in range(g.n)]
        for v in range(g.n):
            if dist[v]:
                want = _replay_path(g, dist, v, [-1] * g.n, [-1] * g.n)
                assert want == replay_path_oracle(g, dist, v)
                assert _replay_path(g, dist, v, root, parent) == want


def test_anchor_builders_replay_the_pipelines_discovery_paths(monkeypatch):
    # the grower has one mode: the public builders replay every discovery
    # path the pipeline replays, then discard the connectors
    certify_module = sys.modules["eccbounds.certify"]
    replayed = []
    real = certify_module._replay_path
    monkeypatch.setattr(certify_module, "_replay_path",
                        lambda g, dist, target, *args:
                        replayed.append(target) or real(g, dist, target, *args))
    for gi in (5, 6):
        g = _generated(gi)
        anchors = (eb.build_packing if gi % 2 else eb.build_spaced_matching)(g, gi)
        built = replayed.copy()
        replayed.clear()
        cert = certify(g)
        assert replayed == built and len(built) == len(anchors) - 1 > 5
        assert list(cert.members) == anchors
        replayed.clear()


def test_pipeline_connectors_equal_prefix_replay_oracle(monkeypatch):
    certify_module = sys.modules["eccbounds.certify"]
    grown = []
    real = certify_module._grow

    def grow(*args):
        grown.append(real(*args))
        return grown[-1]

    monkeypatch.setattr(certify_module, "_grow", grow)
    for g in _mini_corpus() + [_generated(5), _generated(6)]:
        for maxdeg in (False, True):
            cert = certify(g, use_max_degree=maxdeg)
            (groups, connectors, _), = grown  # one anchor pass per certificate
            grown.clear()
            assert groups == _groups(cert)
            assert connectors == prefix_connectors_oracle(g, groups), (g.n, maxdeg)


def test_certificate_lowers_once_per_anchor_vertex_beyond_the_first(monkeypatch):
    certify_module = sys.modules["eccbounds.certify"]
    sources = []
    real = certify_module._lower_distances
    monkeypatch.setattr(certify_module, "_lower_distances",
                        lambda g, dist, source: sources.append(source) or real(g, dist, source))
    for g in (_generated(5), _generated(6)):
        for maxdeg in (False, True):
            sources.clear()
            groups = _groups(certify(g, use_max_degree=maxdeg))
            assert len(groups) > 5
            assert sources == [x for group in groups[1:] for x in group]


def test_certificate_runs_one_full_bfs_on_its_graph(monkeypatch):
    # the grower's final array gives the cells and the checks their distances
    certify_module = sys.modules["eccbounds.certify"]
    calls = []
    real = certify_module.multi_source_distances
    monkeypatch.setattr(certify_module, "multi_source_distances",
                        lambda h, sources: calls.append(h) or real(h, sources))
    graphs = [eb.petersen_graph(), eb.heawood_graph(), eb.chain_graph(3, 5, 3)[0],
              eb.chain_graph(3, 6, 2)[0], _generated(5), _generated(6)]
    for g in graphs:
        for maxdeg in (False, True):
            calls.clear()
            cert = certify(g, use_max_degree=maxdeg)
            assert cert.all_steps_hold
            assert sum(h is g for h in calls) == 1, (g.n, maxdeg)


def test_certificate_measures_its_tree_distances_once(monkeypatch):
    # the tree is measured once, by its verification, which both tree checks read
    certify_module = sys.modules["eccbounds.certify"]
    calls = []
    real = certify_module.multi_source_distances
    monkeypatch.setattr(certify_module, "multi_source_distances",
                        lambda h, sources: calls.append(h) or real(h, sources))
    graphs = [eb.petersen_graph(), eb.heawood_graph(), eb.chain_graph(3, 5, 3)[0],
              eb.chain_graph(3, 6, 2)[0], _generated(5), _generated(6)]
    for g in graphs:
        for maxdeg in (False, True):
            calls.clear()
            cert = certify(g, use_max_degree=maxdeg)
            assert cert.all_steps_hold
            assert sum(h is cert.tree for h in calls) == 1, (g.n, maxdeg)


STAGES = ("_anchors", "_bound", "_chain", "_checks")


@pytest.mark.parametrize("name", ["gen-n300-d3-g7-s1", "gen-n600-d3-g8-s1"], ids=["odd", "even"])
def test_each_stage_runs_once_per_certificate_in_order(name, monkeypatch):
    certify_module = sys.modules["eccbounds.certify"]
    calls = []
    for stage in STAGES:
        monkeypatch.setattr(certify_module, stage,
                            lambda *args, stage=stage, real=getattr(certify_module, stage):
                            calls.append(stage) or real(*args))
    g = INSTANCES[name]()
    for maxdeg in (False, True):
        calls.clear()
        assert certify(g, use_max_degree=maxdeg).all_steps_hold
        assert calls == list(STAGES), maxdeg


# ---------------------------------------------------------------------------
# determinism and serialization

def test_certificates_byte_identical():
    g, _ = eb.chain_graph(3, 5, 3)
    assert eb.certify_odd(g).to_json() == eb.certify_odd(g).to_json()
    h = eb.heawood_graph()
    assert eb.certify_even(h).to_json() == eb.certify_even(h).to_json()


def test_certificate_json_shape():
    cert = eb.certify_odd(eb.petersen_graph())
    d = cert.to_json_dict()
    assert d["variant"] == "odd" and d["boundId"] == "ThmGirthOdd"
    assert d["A"] == [0]
    assert d["chain"]["avecG"] == "2" and d["chain"]["finalBound"] == "37/4"
    assert d["allStepsHold"] is True
    assert len(d["treeEdges"]) == 9
    assert d["weights"] == {"0": "10"}

    ecert = eb.certify_even(eb.complete_bipartite(3, 3))
    ed = ecert.to_json_dict()
    assert ed["variant"] == "even" and ed["M"] == [[0, 3]]
    assert ed["edgeWeights"] == {"0-3": "6"}
    assert ed["lineGraph"]["n"] == 5  # line graph of the 6-vertex tree
