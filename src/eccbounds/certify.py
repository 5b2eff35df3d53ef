"""Constructive certificates for the girth-parameterized eccentricity bounds.

Each certifier runs the full pipeline behind the corresponding bound on a
concrete graph: build the spaced packing (odd girth) or spaced matching
(even girth), grow a spanning tree that preserves distances to it, move the
vertex weights onto the packing, contract through the tree power, and compare
against the path extremal value.  Nothing is taken on faith: every
intermediate inequality and every structural property is recomputed in exact
rationals and recorded.  A certificate whose steps fail is emitted with the
failure visible, never suppressed, so the pipeline doubles as a falsification
harness.

The anchors (packing members or matching edges) are found, and their
discovery paths replayed, on one distance array to the anchors so far that
is lowered in place as each anchor joins.  Checks that only compare
distances against a radius run BFS truncated at that radius, which gives
the same verdict as a full BFS on every connected input.
"""
from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    UNREACHABLE,
    Graph,
    WeightFunction,
    bfs_distances,
    eccentricity_profile,
    girth,
    is_connected,
    line_graph,
    multi_source_distances,
)


class NotCertifiableError(ValueError):
    """The pipeline's hypotheses fail (minimum degree below 3, or no cycle)."""


@dataclass(frozen=True)
class ChainStep:
    """One recomputed inequality (or identity) from the argument chain."""

    name: str
    lhs: Fraction | None
    rhs: Fraction | None
    holds: bool
    equality: bool = False

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": str(self.lhs) if self.lhs is not None else None,
            "rhs": str(self.rhs) if self.rhs is not None else None,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class StructuralCheck:
    name: str
    ok: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _step(name: str, lhs, rhs, equality: bool = False) -> ChainStep:
    if lhs is None or rhs is None:
        return ChainStep(name, lhs, rhs, holds=False, equality=equality)
    holds = (lhs == rhs) if equality else (lhs <= rhs)
    return ChainStep(name, lhs, rhs, holds, equality)


def _frac_map(d: dict) -> dict:
    return {str(k): str(v) for k, v in d.items()}


@dataclass(frozen=True)
class PackingCertificate:
    """Odd-girth certificate: packing, tree, weights, and the verified chain."""

    members: tuple[int, ...]              # the packing, in discovery order
    tree: Graph
    tree_parent: tuple[int, ...]          # -1 on packing members
    connector_edges: tuple[tuple[int, int], ...]
    assignment: tuple[int, ...]           # vertex -> nearest member
    weights: WeightFunction
    normalized_weights: WeightFunction
    use_max_degree: bool
    girth_value: int
    constants: dict[str, int]
    chain: dict[str, Fraction | None]
    steps: tuple[ChainStep, ...]
    checks: tuple[StructuralCheck, ...]
    bound_id: str

    @property
    def all_steps_hold(self) -> bool:
        return all(s.holds for s in self.steps) and all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "variant": "odd",
            "useMaxDeg": self.use_max_degree,
            "girth": self.girth_value,
            "boundId": self.bound_id,
            "A": list(self.members),
            "treeEdges": [[u, v] for u, v in self.tree.edges],
            "connectorEdges": [[u, v] for u, v in self.connector_edges],
            "assignment": {str(v): a for v, a in enumerate(self.assignment)},
            "weights": {str(a): str(self.weights.weights[a]) for a in self.members},
            "normalizedWeights": {str(a): str(self.normalized_weights.weights[a])
                                  for a in self.members},
            "constants": _frac_map(self.constants),
            "chain": {k: (str(v) if v is not None else None) for k, v in self.chain.items()},
            "steps": [s.to_json_dict() for s in self.steps],
            "checks": [c.to_json_dict() for c in self.checks],
            "allStepsHold": self.all_steps_hold,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class MatchingCertificate:
    """Even-girth certificate: spaced matching, tree, line-graph weights, chain."""

    members: tuple[tuple[int, int], ...]  # matching edges, discovery order
    matched_vertices: tuple[int, ...]
    tree: Graph
    tree_parent: tuple[int, ...]
    connector_edges: tuple[tuple[int, int], ...]
    assignment: tuple[int, ...]
    vertex_weights: WeightFunction
    edge_weights: dict[tuple[int, int], Fraction]
    normalized_edge_weights: dict[tuple[int, int], Fraction]
    line: Graph
    line_table: tuple[tuple[int, int], ...]
    use_max_degree: bool
    girth_value: int
    constants: dict[str, int]
    chain: dict[str, Fraction | None]
    steps: tuple[ChainStep, ...]
    checks: tuple[StructuralCheck, ...]
    bound_id: str

    @property
    def all_steps_hold(self) -> bool:
        return all(s.holds for s in self.steps) and all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "variant": "even",
            "useMaxDeg": self.use_max_degree,
            "girth": self.girth_value,
            "boundId": self.bound_id,
            "M": [[u, v] for u, v in self.members],
            "treeEdges": [[u, v] for u, v in self.tree.edges],
            "connectorEdges": [[u, v] for u, v in self.connector_edges],
            "assignment": {str(v): a for v, a in enumerate(self.assignment)},
            "weights": {str(u): str(self.vertex_weights.weights[u])
                        for u in self.matched_vertices},
            "edgeWeights": {f"{u}-{v}": str(w) for (u, v), w in self.edge_weights.items()},
            "normalizedEdgeWeights": {f"{u}-{v}": str(w)
                                      for (u, v), w in self.normalized_edge_weights.items()},
            "lineGraph": self.line.to_json_dict(),
            "lineTable": [[u, v] for u, v in self.line_table],
            "constants": _frac_map(self.constants),
            "chain": {k: (str(v) if v is not None else None) for k, v in self.chain.items()},
            "steps": [s.to_json_dict() for s in self.steps],
            "checks": [c.to_json_dict() for c in self.checks],
            "allStepsHold": self.all_steps_hold,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# deterministic multi-source machinery

def _deterministic_cells(g: Graph, sources) -> tuple[list[int], list[int], list[int]]:
    """Distances to ``sources`` plus a deterministic cell decomposition.

    Every vertex gets a root (its nearest source) and a parent on a shortest
    path toward that root.  Ties go to the lowest-id root, then the lowest-id
    parent, so repeated runs agree byte for byte.
    """
    dist = multi_source_distances(g, sources)
    if -1 in dist:
        raise ValueError("graph must be connected")
    n = g.n
    root = [-1] * n
    parent = [-1] * n
    for s in set(sources):
        root[s] = s
    for v in sorted(range(n), key=lambda x: (dist[x], x)):
        if dist[v] == 0:
            continue
        target = dist[v] - 1
        best_root = -1
        best_parent = -1
        for u in g.adj[v]:
            if dist[u] == target:
                r = root[u]
                if best_root == -1 or r < best_root or (r == best_root and u < best_parent):
                    best_root, best_parent = r, u
        root[v] = best_root
        parent[v] = best_parent
    return dist, root, parent


def _lower_distances(g: Graph, dist: list[int], source: int) -> None:
    """Lower ``dist``, a multi-source distance array, in place to the
    distances from the source set grown by ``source``.  The BFS from
    ``source`` stops wherever the old distance is already no larger."""
    dist[source] = 0
    q = deque([source])
    adj = g.adj
    while q:
        u = q.popleft()
        du1 = dist[u] + 1
        for v in adj[u]:
            if du1 < dist[v]:
                dist[v] = du1
                q.append(v)


def _replay_path(g: Graph, dist: list[int], target: int) -> list[int]:
    """The path :func:`_deterministic_cells` would give from the sources of
    ``dist`` (the vertices at distance 0) to ``target``, first element a
    source.

    Only the shortest-path DAG below ``target`` is walked, layer by layer
    toward the sources, so long paths need no recursion.  Each DAG vertex's
    root is the lowest source on a shortest path to it; the path then steps
    from ``target`` to the lowest-id neighbour one closer with the same root.
    """
    adj = g.adj
    layers = [[target]]
    seen = {target}
    for d in range(dist[target] - 1, -1, -1):
        below = []
        for v in layers[-1]:
            for u in adj[v]:
                if dist[u] == d and u not in seen:
                    seen.add(u)
                    below.append(u)
        layers.append(below)
    root = {s: s for s in layers[-1]}
    for layer in reversed(layers[:-1]):
        for v in layer:
            d = dist[v] - 1
            root[v] = min(root[u] for u in adj[v] if dist[u] == d)
    path = [target]
    v = target
    while dist[v]:
        d, r = dist[v] - 1, root[v]
        v = next(u for u in adj[v] if dist[u] == d and root[u] == r)
        path.append(v)
    path.reverse()
    return path


def _replayed_connectors(g: Graph, groups) -> list[tuple[int, int]] | None:
    """Middle edges of the anchors' discovery paths.

    ``groups`` lists each anchor's vertices in discovery order.  Anchor
    ``i``'s path runs from the anchors before it to its nearest vertex
    (lowest id on ties), replayed on one distance array that is lowered as
    each anchor joins.  ``None`` when an anchor touches an earlier one.
    """
    if len(groups) < 2:
        return []
    dist = multi_source_distances(g, groups[0])
    if UNREACHABLE in dist:
        raise ValueError("graph must be connected")
    connectors = []
    for group in groups[1:]:
        target = min(group, key=lambda x: (dist[x], x))
        t = dist[target]
        if t == 0:
            return None
        path = _replay_path(g, dist, target)
        connectors.append((path[t // 2], path[t // 2 + 1]))
        for x in group:
            _lower_distances(g, dist, x)
    return connectors


def _ball(g: Graph, source: int, radius: int) -> dict[int, int]:
    """Distances from ``source`` to the vertices within ``radius`` of it."""
    dist = {source: 0}
    frontier = [source]
    adj = g.adj
    for d in range(1, radius + 1):
        reached = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    reached.append(v)
        if not reached:
            break
        frontier = reached
    return dist


class _UnionFind:
    def __init__(self, items):
        self.up = {x: x for x in items}

    def find(self, x):
        while self.up[x] != x:
            self.up[x] = self.up[self.up[x]]
            x = self.up[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.up[rb] = ra
        return True


def _fallback_connectors(g: Graph, cell_of: list[int], depth: list[int],
                         cells: list) -> list[tuple[int, int]]:
    """Spanning tree of the cell-quotient graph out of direct edges of ``g``,
    preferring shallow attachment points (deterministic Kruskal)."""
    best: dict[tuple, tuple] = {}
    for x, y in g.edges:
        cx, cy = cell_of[x], cell_of[y]
        if cx == cy:
            continue
        key = (cx, cy) if cx <= cy else (cy, cx)
        a, b = (x, y) if x < y else (y, x)
        cand = (depth[x] + depth[y], a, b)
        if key not in best or cand < best[key]:
            best[key] = cand
    uf = _UnionFind(cells)
    chosen = []
    for key in sorted(best, key=lambda k: best[k]):
        _, a, b = best[key]
        if uf.union(key[0], key[1]):
            chosen.append((a, b))
    return chosen


# ---------------------------------------------------------------------------
# odd pipeline: spaced packing

def build_packing(g: Graph, girth_value: int, start: int | None = None) -> list[int]:
    """Greedy maximal set of vertices pairwise at distance >= ``girth_value``.

    Starts from ``start`` (default: vertex 0) and, while some vertex is at
    distance ``girth_value`` or more from the set, adds the lowest-id vertex
    at distance exactly ``girth_value`` (one exists along a shortest path
    toward any far vertex).  On exit every vertex is within
    ``girth_value - 1`` of the set.
    """
    if girth_value < 1:
        raise ValueError("girth parameter must be positive")
    a1 = 0 if start is None else start
    if not (0 <= a1 < g.n):
        raise ValueError(f"start vertex {a1} out of range")
    members = [a1]
    dist = bfs_distances(g, a1)
    if -1 in dist:
        raise ValueError("graph must be connected")
    while max(dist) >= girth_value:
        members.append(dist.index(girth_value))
        _lower_distances(g, dist, members[-1])
    return members


def build_spanning_tree_from_packing(
    g: Graph, members
) -> tuple[Graph, tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Spanning tree preserving every vertex's distance to the packing.

    Cells come from a deterministic multi-source BFS; the cells are then
    joined by the middle edges of the packing's discovery paths (replayed
    deterministically on one incrementally lowered distance array), falling
    back to a quotient-graph spanning tree when those edges do not stitch
    the cells into a tree.  The result is verified, not assumed: spanning
    shape and distance preservation failures raise.

    Returns ``(tree, parent, assignment, connectors)`` where ``parent`` holds
    each vertex's tree parent toward its cell root (-1 on members) and
    ``assignment`` maps each vertex to its cell root.
    """
    members = list(members)
    if not members or len(set(members)) != len(members):
        raise ValueError("packing must be a nonempty list of distinct vertices")
    dist, root, parent = _deterministic_cells(g, members)

    connectors = _replayed_connectors(g, [(a,) for a in members])

    def quotient_ok(conns) -> bool:
        if conns is None or len(conns) != len(members) - 1:
            return False
        uf = _UnionFind(members)
        return all(root[x] != root[y] and uf.union(root[x], root[y]) for x, y in conns)

    if not quotient_ok(connectors):
        connectors = _fallback_connectors(g, root, dist, members)

    edges = [(v, parent[v]) for v in range(g.n) if parent[v] != -1]
    edges.extend(connectors)
    tree = Graph.from_edges(g.n, edges)
    _verify_tree(g, tree, members, dist)
    return tree, tuple(parent), tuple(root), tuple(connectors)


def _verify_tree(g: Graph, tree: Graph, anchor_vertices, dist_in_g):
    if tree.m != g.n - 1:
        raise RuntimeError("construction invariant violated: not a spanning tree")
    td = multi_source_distances(tree, anchor_vertices)
    if -1 in td:
        raise RuntimeError("construction invariant violated: tree is disconnected")
    if td != dist_in_g:
        raise RuntimeError("construction invariant violated: distances to the "
                           "anchor set are not preserved")


def weight_function(tree: Graph, members, assignment) -> WeightFunction:
    """Cell-size weights: ``c(u)`` counts the vertices assigned to ``u``."""
    counts = Counter(assignment)
    vals = [Fraction(0)] * tree.n
    for u in members:
        vals[u] = Fraction(counts.get(u, 0))
    return WeightFunction(tuple(vals))


# ---------------------------------------------------------------------------
# even pipeline: spaced matching

def build_spaced_matching(g: Graph, girth_value: int,
                          start_edge: tuple[int, int] | None = None) -> list[tuple[int, int]]:
    """Greedy matching with pairwise edge-distance >= ``girth_value - 1``.

    Edge distance is the minimum vertex distance over endpoint pairs.  Starts
    from ``start_edge`` (default: the lexicographically least edge) and,
    while any edge sits at distance ``girth_value - 1`` or more from the
    matched vertex set, adds the lexicographically least edge at distance
    exactly ``girth_value - 1`` (one exists along a shortest path toward
    any far edge, so a single scan finds it).  On exit every edge is within
    ``girth_value - 2``.
    """
    if girth_value < 2:
        raise ValueError("girth parameter must be at least 2")
    if not g.edges:
        raise ValueError("graph has no edges")
    if start_edge is None:
        e1 = g.edges[0]
    else:
        u, v = start_edge
        e1 = (u, v) if u < v else (v, u)
        if not g.has_edge(*e1):
            raise ValueError(f"start edge {start_edge} not in graph")
    members = [e1]
    spacing = girth_value - 1
    dist = multi_source_distances(g, e1)
    if UNREACHABLE in dist:
        raise ValueError("graph must be connected")
    while True:
        e = next((e for e in g.edges if min(dist[e[0]], dist[e[1]]) == spacing), None)
        if e is None:
            return members
        members.append(e)
        _lower_distances(g, dist, e[0])
        _lower_distances(g, dist, e[1])


def _build_matching_tree(g: Graph, members):
    vm = sorted({x for e in members for x in e})
    dist, root, parent = _deterministic_cells(g, vm)
    member_of = {}
    for idx, (u, v) in enumerate(members):
        member_of[u] = idx
        member_of[v] = idx

    connectors = _replayed_connectors(g, members)
    cell_of = [member_of[root[v]] for v in range(g.n)]

    def quotient_ok(conns) -> bool:
        if conns is None or len(conns) != len(members) - 1:
            return False
        uf = _UnionFind(range(len(members)))
        return all(cell_of[x] != cell_of[y] and uf.union(cell_of[x], cell_of[y])
                   for x, y in conns)

    if not quotient_ok(connectors):
        connectors = _fallback_connectors(g, cell_of, dist, list(range(len(members))))

    edges = [(v, parent[v]) for v in range(g.n) if parent[v] != -1]
    edges.extend(members)
    edges.extend(connectors)
    tree = Graph.from_edges(g.n, edges)
    _verify_tree(g, tree, vm, dist)
    return tree, tuple(parent), tuple(root), tuple(connectors), vm, dist


# ---------------------------------------------------------------------------
# contracted powers

def _contracted_power(g: Graph, anchors, radius: int) -> Graph:
    """Graph on anchor indices ``0..k-1`` with ``i ~ j`` iff anchors ``i``
    and ``j`` lie within ``radius`` of each other in ``g``."""
    index = {a: i for i, a in enumerate(anchors)}
    pairs = []
    for i, a in enumerate(anchors):
        for b in _ball(g, a, radius):
            j = index.get(b)
            if j is not None and j > i:
                pairs.append((i, j))
    return Graph.from_edges(len(anchors), pairs)


# ---------------------------------------------------------------------------
# certifiers

def _admission(g: Graph, gi: int | None, want_odd: bool) -> tuple:
    prof = eccentricity_profile(g)  # raises on disconnected input
    delta = g.min_degree()
    if delta < 3:
        raise NotCertifiableError(f"minimum degree {delta} below 3: not certifiable")
    if gi is None:
        raise NotCertifiableError("acyclic graph: no girth to certify against")
    if want_odd and gi % 2 == 0:
        raise ValueError(f"girth {gi} is even; use certify_even")
    if not want_odd and gi % 2 == 1:
        raise ValueError(f"girth {gi} is odd; use certify_odd")
    return prof, delta, g.max_degree()


def certify(g: Graph, use_max_degree: bool = False) -> PackingCertificate | MatchingCertificate:
    """Certify the girth bound that matches the girth's parity.

    The girth is measured once and handed to the odd (packing) or even
    (matching) pipeline.  A forest raises :class:`NotCertifiableError`
    before anything else is checked.
    """
    gi = girth(g)
    if gi is None:
        raise NotCertifiableError("graph is acyclic: nothing to certify")
    if gi % 2:
        return _certify_odd(g, gi, use_max_degree)
    return _certify_even(g, gi, use_max_degree)


def certify_odd(g: Graph, use_max_degree: bool = False) -> PackingCertificate:
    """Run the odd-girth pipeline and verify its argument step by step.

    With ``use_max_degree`` the packing is seeded at a maximum-degree vertex
    and the sharper bound (constants K1, K2) is certified; otherwise the
    packing starts at vertex 0 and the uniform bound (constant K) is used.
    """
    return _certify_odd(g, girth(g), use_max_degree)


def _certify_odd(g: Graph, gi: int | None, use_max_degree: bool) -> PackingCertificate:
    prof, delta, Delta = _admission(g, gi, want_odd=True)
    n = g.n

    if use_max_degree:
        start = min(v for v in range(n) if g.degree(v) == Delta)
    else:
        start = 0
    members = build_packing(g, gi, start=start)
    tree, parent, assignment, connectors = build_spanning_tree_from_packing(g, members)
    c = weight_function(tree, members, assignment)

    block = ((delta - 1) ** ((gi - 1) // 2) - 1) // (delta - 2)
    if use_max_degree:
        k1 = 1 + delta * block
        k2 = 1 + Delta * block
        constants = {"K1": k1, "K2": k2}
        nprime = Fraction(n - k2, k1) + 1
        q = Fraction(n - k2, k1)
        power_bound = Fraction(3, 4) * q * (1 + Fraction(k2 - k1, 3 * n)) + 1
        final_bound = Fraction(3 * gi, 4) * q * (1 + Fraction(k2 - k1, 3 * n)) + (3 * gi - 2)
        norm = {a: c.weights[a] / k1 for a in members}
        norm[members[0]] = (c.weights[members[0]] - k2 + k1) / k1
        bound_id = "ThmGirthMaxDegOdd"
    else:
        k = 1 + delta * block
        constants = {"K": k}
        nprime = Fraction(n, k)
        power_bound = Fraction(3 * math.ceil(nprime), 4) - Fraction(1, 2)
        final_bound = Fraction(3 * gi * math.ceil(nprime) + 6 * gi - 8, 4)
        norm = {a: c.weights[a] / k for a in members}
        bound_id = "ThmGirthOdd"
    c_norm = WeightFunction.from_map(n, norm)

    # chain values
    tree_prof = eccentricity_profile(tree)
    avec_g = prof.avec
    avec_t = tree_prof.avec
    avec_c_t = sum((c.weights[a] * tree_prof.ecc[a] for a in members), Fraction(0)) / n

    power = _contracted_power(tree, members, gi)
    power_connected = is_connected(power)
    if power_connected:
        pecc = eccentricity_profile(power).ecc
        avec_c_power = sum((c.weights[a] * e for a, e in zip(members, pecc)), Fraction(0)) / n
    else:
        avec_c_power = None

    steps = (
        _step("avecG<=avecT", avec_g, avec_t),
        _step("avecT<=avecC_T+(g-1)", avec_t,
              avec_c_t + (gi - 1)),
        _step("avecC_T<=g*avecC_power+(g-1)", avec_c_t,
              gi * avec_c_power + (gi - 1) if avec_c_power is not None else None),
        _step("avecC_power<=powerBound", avec_c_power, power_bound),
        _step("finalBound==g*powerBound+2(g-1)", final_bound,
              gi * power_bound + 2 * (gi - 1), equality=True),
        _step("avecG<=finalBound", avec_g, final_bound),
    )

    checks = _packing_checks(g, members, assignment, c, gi, constants,
                             tree, power_connected, use_max_degree)

    chain = {
        "avecG": avec_g,
        "avecT": avec_t,
        "avecC_T": avec_c_t,
        "avecC_power": avec_c_power,
        "Nprime": nprime,
        "finalBound": final_bound,
    }
    return PackingCertificate(
        members=tuple(members), tree=tree, tree_parent=parent,
        connector_edges=connectors, assignment=assignment, weights=c,
        normalized_weights=c_norm, use_max_degree=use_max_degree,
        girth_value=gi, constants=constants, chain=chain, steps=steps,
        checks=checks, bound_id=bound_id,
    )


def _packing_checks(g, members, assignment, c, gi, constants, tree,
                    power_connected, use_max_degree):
    """Structural checks of an odd certificate, ``g`` connected.

    Spacing compares member distances against ``gi`` and the assignment
    check compares them against ``msd``, so BFS from each member stops at
    ``max(gi - 1, max(msd))``: a vertex beyond it is farther than both.
    """
    n = g.n
    msd = multi_source_distances(g, members)
    radius = max(gi - 1, max(msd))
    far = radius + 1  # stands in for every distance beyond the radius
    member_ball = {a: _ball(g, a, radius) for a in members}
    spacing_ok = all(member_ball[a].get(b, far) >= gi
                     for i, a in enumerate(members) for b in members[i + 1:])
    coverage_ok = max(msd) <= gi - 1
    assign_ok = all(assignment[v] in member_ball
                    and member_ball[assignment[v]].get(v, far) == msd[v] for v in range(n))
    conserve_ok = c.total == n
    if use_max_degree:
        k1, k2 = constants["K1"], constants["K2"]
        hub = members[0]
        cells_ok = (c.weights[hub] >= k2
                    and all(c.weights[a] >= k1 for a in members if a != hub))
        size_ok = len(members) <= Fraction(n - k2, k1) + 1
        extra = (
            StructuralCheck("hub_weight>=K2", c.weights[hub] >= k2,
                            f"c({hub})={c.weights[hub]}, K2={k2}"),
            StructuralCheck("packing_size<=(n-K2)/K1+1", size_ok,
                            f"|A|={len(members)}"),
        )
    else:
        k = constants["K"]
        cells_ok = all(c.weights[a] >= k for a in members)
        extra = ()
    tree_ok = tree.m == n - 1 and -1 not in bfs_distances(tree, 0)
    pres_ok = multi_source_distances(tree, members) == msd
    return (
        StructuralCheck("packing_spacing>=g", spacing_ok),
        StructuralCheck("packing_coverage<=g-1", coverage_ok, f"max dist {max(msd)}"),
        StructuralCheck("assignment_nearest_member", assign_ok),
        StructuralCheck("weight_conservation", conserve_ok, f"total={c.total}, n={n}"),
        StructuralCheck("cell_lower_bounds", cells_ok),
        StructuralCheck("tree_spanning", tree_ok),
        StructuralCheck("distance_preservation", pres_ok),
        StructuralCheck("tree_power_connected", power_connected),
    ) + extra


def certify_even(g: Graph, use_max_degree: bool = False) -> MatchingCertificate:
    """Run the even-girth pipeline (matching, line graph) and verify it.

    With ``use_max_degree`` the matching is seeded at an edge incident to a
    maximum-degree vertex and the sharper bound (constants L1, L2) is
    certified; otherwise the uniform bound (constant L) is used.
    """
    return _certify_even(g, girth(g), use_max_degree)


def _line_eccentricity(tree_ecc, e: tuple[int, int]) -> int:
    """Eccentricity of the tree edge ``e = uv`` in the tree's line graph.

    Removing ``e`` leaves two sides of heights ``a`` (from ``u``) and ``b``
    (from ``v``); the edge's line-graph eccentricity is ``max(a, b)``, while
    ``ecc(u) = max(a, b + 1)`` and ``ecc(v) = max(b, a + 1)``.
    """
    eu, ev = tree_ecc[e[0]], tree_ecc[e[1]]
    return min(eu, ev) - (eu == ev)


def _certify_even(g: Graph, gi: int | None, use_max_degree: bool) -> MatchingCertificate:
    prof, delta, Delta = _admission(g, gi, want_odd=False)
    n = g.n

    if use_max_degree:
        v1 = min(v for v in range(n) if g.degree(v) == Delta)
        e1 = min(tuple(sorted((v1, w))) for w in g.adj[v1])
    else:
        e1 = None
    members = build_spaced_matching(g, gi, start_edge=e1)
    tree, parent, assignment, connectors, vm, msd = _build_matching_tree(g, members)
    c = weight_function(tree, vm, assignment)
    cbar = {e: c.weights[e[0]] + c.weights[e[1]] for e in members}

    l1 = ((delta - 1) ** (gi // 2) - 1) // (delta - 2)
    if use_max_degree:
        l2 = Delta + (Delta - 1) * ((delta - 1) ** ((gi - 2) // 2) - (delta - 1)) // (delta - 2)
        constants = {"L1": l1, "L2": l2}
        qq = Fraction(n - l2, 2 * l1)
        nprime = qq + Fraction(1, 2)
        power_bound = Fraction(3, 4) * qq * (1 + Fraction(l2 - l1, 3 * n)) + Fraction(5, 8)
        final_bound = (Fraction(3 * gi, 4) * qq * (1 + Fraction(l2 - l1, 3 * n))
                       + Fraction(21 * gi - 16, 8))
        norm = {e: cbar[e] / (2 * l1) for e in members}
        norm[members[0]] = (cbar[members[0]] - l2 + l1) / (2 * l1)
        bound_id = "ThmGirthMaxDegEven"
    else:
        ll = 2 * l1
        constants = {"L": ll}
        nprime = Fraction(n, ll)
        power_bound = Fraction(3 * math.ceil(nprime), 4) - Fraction(1, 2)
        final_bound = Fraction(3 * gi * math.ceil(nprime) + 6 * gi - 8, 4)
        norm = {e: cbar[e] / ll for e in members}
        bound_id = "ThmGirthEven"

    tree_prof = eccentricity_profile(tree)
    avec_g = prof.avec
    avec_t = tree_prof.avec
    avec_c_t = sum((c.weights[u] * tree_prof.ecc[u] for u in vm), Fraction(0)) / n

    avec_cbar_l = sum((cbar[e] * _line_eccentricity(tree_prof.ecc, e) for e in members),
                      Fraction(0)) / n

    line, table = line_graph(tree)
    line_id = {e: i for i, e in enumerate(table)}
    power = _contracted_power(line, [line_id[e] for e in members], gi)
    power_connected = is_connected(power)
    if power_connected:
        pecc = eccentricity_profile(power).ecc
        avec_cbar_power = sum((cbar[e] * x for e, x in zip(members, pecc)), Fraction(0)) / n
    else:
        avec_cbar_power = None

    steps = (
        _step("avecG<=avecT", avec_g, avec_t),
        _step("avecT<=avecC_T+(g-2)", avec_t, avec_c_t + (gi - 2)),
        _step("avecC_T<=avecCbar_L+1", avec_c_t, avec_cbar_l + 1),
        _step("avecCbar_L<=g*avecCbar_power+(g-1)", avec_cbar_l,
              gi * avec_cbar_power + (gi - 1) if avec_cbar_power is not None else None),
        _step("avecCbar_power<=powerBound", avec_cbar_power, power_bound),
        _step("finalBound==g*powerBound+2(g-1)", final_bound,
              gi * power_bound + 2 * (gi - 1), equality=True),
        _step("avecG<=finalBound", avec_g, final_bound),
    )

    checks = _matching_checks(g, members, vm, msd, assignment, c, cbar, gi,
                              constants, tree, power_connected, use_max_degree)

    chain = {
        "avecG": avec_g,
        "avecT": avec_t,
        "avecC_T": avec_c_t,
        "avecCbar_L": avec_cbar_l,
        "avecCbar_power": avec_cbar_power,
        "Nprime": nprime,
        "finalBound": final_bound,
    }
    return MatchingCertificate(
        members=tuple(members), matched_vertices=tuple(vm), tree=tree,
        tree_parent=parent, connector_edges=connectors, assignment=assignment,
        vertex_weights=c, edge_weights=cbar, normalized_edge_weights=norm,
        line=line, line_table=table, use_max_degree=use_max_degree,
        girth_value=gi, constants=constants, chain=chain, steps=steps,
        checks=checks, bound_id=bound_id,
    )


def _matching_checks(g, members, vm, msd, assignment, c, cbar, gi, constants,
                     tree, power_connected, use_max_degree):
    """Structural checks of an even certificate, ``g`` connected.

    As in :func:`_packing_checks`, BFS from each matched vertex stops at
    ``max(gi - 2, max(msd))``, past which no check can tell distances apart.
    """
    n = g.n
    disjoint_ok = len(vm) == 2 * len(members)
    radius = max(gi - 2, max(msd))
    far = radius + 1  # stands in for every distance beyond the radius
    vert_ball = {u: _ball(g, u, radius) for u in vm}
    spacing_ok = all(
        min(vert_ball[x].get(y, far) for x in e for y in f) >= gi - 1
        for i, e in enumerate(members) for f in members[i + 1:])
    coverage_ok = all(min(msd[x], msd[y]) <= gi - 2 for x, y in g.edges)
    assign_ok = all(assignment[v] in vert_ball
                    and vert_ball[assignment[v]].get(v, far) == msd[v] for v in range(n))
    conserve_ok = (sum((c.weights[u] for u in vm), Fraction(0)) == n
                   and sum(cbar.values(), Fraction(0)) == n)
    if use_max_degree:
        l1, l2 = constants["L1"], constants["L2"]
        hub = members[0]
        edge_ok = (cbar[hub] >= l1 + l2
                   and all(cbar[e] >= 2 * l1 for e in members if e != hub))
        size_ok = len(members) <= Fraction(n - l2 + l1, 2 * l1)
        extra = (
            StructuralCheck("hub_edge_weight>=L1+L2", cbar[hub] >= l1 + l2,
                            f"cbar={cbar[hub]}, L1+L2={l1 + l2}"),
            StructuralCheck("matching_size<=(n-L2+L1)/(2L1)", size_ok,
                            f"|M|={len(members)}"),
        )
    else:
        ll = constants["L"]
        edge_ok = all(cbar[e] >= ll for e in members)
        extra = ()
    tree_ok = tree.m == n - 1 and -1 not in bfs_distances(tree, 0)
    contains_ok = all(tree.has_edge(u, v) for u, v in members)
    pres_ok = multi_source_distances(tree, vm) == msd
    return (
        StructuralCheck("matching_disjoint", disjoint_ok),
        StructuralCheck("matching_spacing>=g-1", spacing_ok),
        StructuralCheck("matching_coverage<=g-2", coverage_ok),
        StructuralCheck("assignment_nearest_matched_vertex", assign_ok),
        StructuralCheck("weight_conservation", conserve_ok),
        StructuralCheck("edge_weight_lower_bounds", edge_ok),
        StructuralCheck("tree_spanning", tree_ok),
        StructuralCheck("tree_contains_matching", contains_ok),
        StructuralCheck("distance_preservation", pres_ok),
        StructuralCheck("line_power_connected", power_connected),
    ) + extra
