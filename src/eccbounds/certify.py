"""Constructive certificates for the girth-parameterized eccentricity bounds.

One pipeline with two kinds of anchor, a spaced packing (odd girth) or a
spaced matching (even girth), replays the argument behind both bounds on a
concrete graph: grow a spanning tree that preserves distances to the
anchors, move the vertex weights onto the anchors, contract through a power
of the tree (odd) or of its line graph (even), and compare against the path
extremal value.  Every intermediate inequality and structural property is
recomputed in exact rationals and recorded; a certificate whose steps fail
is emitted with the failure visible, so the pipeline doubles as a
falsification harness.

One grower finds the anchors of all three kinds (packing members, matching
edges, or a given list) on one distance array to the anchors so far.  Before
an anchor's vertices lower the array, its discovery path is replayed on the
same array and the path's middle edge is recorded as a connector of the
tree; the grower's final array gives the cells and the checks their
distances, so the tree builder rebuilds nothing.  Cell weights are integer
counts; fractions appear only where the chain divides.  One routine,
``_checks``, checks the packing and the matching lemma as one rule: every
anchor's cell weighs at least a Moore-type ``unit``, the hub's at least
``unit + excess`` under the max-degree variant, so there are at most
``(n - excess) / unit`` anchors.  Its spacing and assignment checks read one
nearest-anchor pass over the grower's array, not a BFS per anchor.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .bounds import (
    BoundId,
    GraphParams,
    Measured,
    bound_thm_girth,
    maxdeg_bound_value,
    maxdeg_constants,
    moore_order,
)
# bfs_distances stays importable from here: the benchmark's tracer
# (perfbench/spans.py) wraps it in this module
from .graph import bfs_distances  # noqa: F401
from .graph import (
    UNREACHABLE,
    EccentricityProfile,
    Graph,
    ball,
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
    lhs: Fraction
    rhs: Fraction
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
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
    return ChainStep(name, lhs, rhs, lhs == rhs if equality else lhs <= rhs)


@dataclass(frozen=True)
class _Certificate:
    """The fields, verdict and JSON keys both kinds of certificate share."""

    tree: Graph
    connector_edges: tuple[tuple[int, int], ...]
    assignment: tuple[int, ...]           # vertex -> nearest anchor vertex
    use_max_degree: bool
    girth_value: int
    constants: dict[str, int]
    chain: dict[str, Fraction]
    steps: tuple[ChainStep, ...]
    checks: tuple[StructuralCheck, ...]
    bound_id: str

    @property
    def all_steps_hold(self) -> bool:
        return all(s.holds for s in self.steps) and all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "useMaxDeg": self.use_max_degree,
            "girth": self.girth_value,
            "boundId": self.bound_id,
            "treeEdges": [[u, v] for u, v in self.tree.edges],
            "connectorEdges": [[u, v] for u, v in self.connector_edges],
            "assignment": {str(v): a for v, a in enumerate(self.assignment)},
            "constants": {k: str(v) for k, v in self.constants.items()},
            "chain": {k: str(v) for k, v in self.chain.items()},
            "steps": [s.to_json_dict() for s in self.steps],
            "checks": [c.to_json_dict() for c in self.checks],
            "allStepsHold": self.all_steps_hold,
        }

    # no to_json here: the benchmark's tracer reads each class's own __dict__["to_json"]


@dataclass(frozen=True)
class PackingCertificate(_Certificate):
    """Odd-girth certificate: packing, tree, weights, and the verified chain."""

    members: tuple[int, ...]              # the packing, in discovery order
    weights: dict[int, int]               # member -> cell size
    normalized_weights: dict[int, Fraction]

    def to_json_dict(self) -> dict:
        return super().to_json_dict() | {
            "variant": "odd",
            "A": list(self.members),
            "weights": {str(a): str(w) for a, w in self.weights.items()},
            "normalizedWeights": {str(a): str(w) for a, w in self.normalized_weights.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class MatchingCertificate(_Certificate):
    """Even-girth certificate: spaced matching, tree, line-graph weights, chain."""

    members: tuple[tuple[int, int], ...]  # matching edges, discovery order
    vertex_weights: dict[int, int]        # matched vertex -> cell size
    edge_weights: dict[tuple[int, int], int]
    normalized_edge_weights: dict[tuple[int, int], Fraction]
    line: Graph                           # vertex i is tree.edges[i]

    def to_json_dict(self) -> dict:
        return super().to_json_dict() | {
            "variant": "even",
            "M": [[u, v] for u, v in self.members],
            "weights": {str(u): str(w) for u, w in self.vertex_weights.items()},
            "edgeWeights": {f"{u}-{v}": str(w) for (u, v), w in self.edge_weights.items()},
            "normalizedEdgeWeights": {f"{u}-{v}": str(w)
                                      for (u, v), w in self.normalized_edge_weights.items()},
            "lineGraph": self.line.to_json_dict(),
            "lineTable": [[u, v] for u, v in self.tree.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# deterministic multi-source machinery

def _deterministic_cells(g: Graph, dist: list[int], sources) -> tuple[list[int], list[int]]:
    """A deterministic cell decomposition around ``sources``, from ``dist``,
    every vertex's (finite) distance to them.

    Every vertex gets a root (its nearest source) and a parent on a shortest
    path toward that root.  Ties go to the lowest-id root, then the lowest-id
    parent, so repeated runs agree byte for byte.
    """
    n = g.n
    root = [-1] * n
    parent = [-1] * n
    for s in set(sources):
        root[s] = s
    for v in sorted(range(n), key=dist.__getitem__):  # stable: ties stay by id
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
    return root, parent


def _lower_distances(g: Graph, dist: list[int], source: int) -> None:
    """Lower ``dist``, a multi-source distance array, in place to the
    distances from the source set grown by ``source``.  The BFS from
    ``source`` stops wherever the old distance is already no larger."""
    dist[source] = 0
    order = [source]  # also the BFS queue: the loop reads what it appends
    adj = g.adj
    for u in order:
        du1 = dist[u] + 1
        for v in adj[u]:
            if du1 < dist[v]:
                dist[v] = du1
                order.append(v)


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
    for x, y in g.edges:  # x < y
        cx, cy = cell_of[x], cell_of[y]
        if cx == cy:
            continue
        key = (cx, cy) if cx <= cy else (cy, cx)
        cand = (depth[x] + depth[y], x, y)
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
# anchors: one grower, three pick rules

def _grow(g: Graph, first, pick, replay: bool = True) -> tuple[
        list[tuple[int, ...]], list[tuple[int, int]], list[int]]:
    """Anchors grown from the vertex group ``first`` on one distance array.

    ``pick(dist)`` gives the next anchor's vertices from the distances to
    the anchors so far, or ``None`` to stop.  Before they lower the array,
    the anchor's discovery path, from the anchors before it to its nearest
    vertex (lowest id on ties), is replayed on it by :func:`_replay_path`,
    and the path's middle edge is recorded as a connector of the tree.
    Returns ``(groups, connectors, dist)``: one connector per anchor after
    the first, and every vertex's distance to all the anchors' vertices.
    With ``replay`` false no path is replayed and ``connectors`` stays
    empty, for the anchor builders that return the groups alone.

    Every caller hands in anchors that touch no earlier one, so a discovery
    path has length ``t >= 1`` and a middle edge: the packing rule picks
    vertices ``girth_value >= 1`` away, the matching rule edges
    ``girth_value - 1 >= 1`` away, and ``build_spanning_tree_from_packing``
    rejects repeated members.

    On the pipeline's path these connectors stitch the final cells into a
    tree.  Let ``S`` be the earlier anchors' vertices and ``N`` the new
    anchor's.  Its path has length ``t = 2h + 1``: ``t = g`` for a packing
    member (odd girth ``g``), ``t = g - 1`` for a matching edge (even ``g``).
    Its middle edge ``xy`` (``x = path[h]``, ``y = path[h + 1]``) lies on a
    shortest path from ``S``, so ``d(x, S) = h`` and ``d(y, S) = h + 1``.
    Every vertex of ``N`` is at least ``t`` from ``S`` (a matching edge's
    other end is no closer than its target), so by the triangle inequality
    ``d(y, N) >= h`` and ``d(x, N) >= h + 1``, and the path attains both.
    Every later anchor vertex ``z`` is at least ``t`` from ``S`` and from
    ``N``, so ``d(z, x) >= t - h = h + 1`` and ``d(z, y) >= h + 1``.  In the
    final distances ``x`` is therefore strictly nearer to ``S`` than to any
    other anchor vertex, and ``y`` to ``N``, so nearest-anchor (Voronoi)
    cells, as :func:`_deterministic_cells` draws them, put ``x`` in an
    earlier anchor's cell, whichever a tie picks, and ``y`` in the new one's.
    Each connector joins the new cell ``i`` to a cell ``j < i``, so the
    ``k - 1`` connectors form a tree on the ``k`` cells.

    The radius-``g`` contracted power contains that tree, so it is
    connected.  Tree parents follow shortest paths to the cell roots, ``h``
    edges from ``x`` and from ``y``, so ``T`` joins ``root[x]`` (anchor
    ``j``) to ``root[y]`` (anchor ``i``) by ``t`` edges: ``d_T(a_j, a_i) <=
    t = g`` for a packing, ``d_L(T)(e_j, e_i) <= t + 1 = g`` for a matching.
    """
    dist = multi_source_distances(g, first)
    if UNREACHABLE in dist:
        raise ValueError("graph must be connected")
    groups, connectors = [tuple(first)], []
    while (group := pick(dist)) is not None:
        if replay:
            target = min(group, key=lambda x: (dist[x], x))
            t = dist[target]
            path = _replay_path(g, dist, target)
            connectors.append((path[t // 2], path[t // 2 + 1]))
        groups.append(group)
        for x in group:
            _lower_distances(g, dist, x)
    return groups, connectors, dist


def _spaced_vertex(girth_value: int):
    """Packing pick rule: the lowest vertex at distance ``girth_value``, one
    of which lies on a shortest path toward any farther vertex."""
    return lambda dist: (dist.index(girth_value),) if girth_value in dist else None


def _spaced_edge(g: Graph, girth_value: int):
    """Matching pick rule: the first edge of ``g.edges`` at edge distance
    ``s = girth_value - 1``, one of which lies on a shortest path toward any
    farther edge.  Its ends lie at most 1 apart, so its end ``u < v`` is at
    ``s`` or ``s + 1``: ``dist.index`` jumps through those ``u``, no edge scan."""
    s, adj = girth_value - 1, g.adj

    def index(dist, d, start):
        try:
            return dist.index(d, start)
        except ValueError:
            return len(dist)

    def pick(dist):
        ahead = {d: index(dist, d, 0) for d in (s, s + 1)}
        while (u := min(ahead.values())) < len(dist):
            du = dist[u]
            ahead[du] = index(dist, du, u + 1)
            for v in adj[u]:
                if v > u and min(du, dist[v]) == s:
                    return u, v
        return None
    return pick


def build_packing(g: Graph, girth_value: int, start: int | None = None) -> list[int]:
    """Greedy maximal set of vertices pairwise at distance >= ``girth_value``.

    Starts from ``start`` (default: vertex 0) and, while some vertex is at
    distance ``girth_value`` or more from the set, adds the lowest-id vertex
    at distance exactly ``girth_value``.  On exit every vertex is within
    ``girth_value - 1`` of the set.
    """
    if girth_value < 1:
        raise ValueError("girth parameter must be positive")
    a1 = 0 if start is None else start
    if not (0 <= a1 < g.n):
        raise ValueError(f"start vertex {a1} out of range")
    groups = _grow(g, (a1,), _spaced_vertex(girth_value), replay=False)[0]
    return [a for (a,) in groups]


def build_spaced_matching(g: Graph, girth_value: int,
                          start_edge: tuple[int, int] | None = None) -> list[tuple[int, int]]:
    """Greedy matching with pairwise edge-distance >= ``girth_value - 1``.

    Edge distance is the minimum vertex distance over endpoint pairs.  Starts
    from ``start_edge`` (default: the lexicographically least edge) and,
    while any edge sits at distance ``girth_value - 1`` or more from the
    matched vertex set, adds the lexicographically least edge at distance
    exactly ``girth_value - 1``.  On exit every edge is within
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
    return _grow(g, e1, _spaced_edge(g, girth_value), replay=False)[0]


# ---------------------------------------------------------------------------
# distance-preserving spanning tree and cell weights

def _anchor_tree(g: Graph, groups, connectors, dist):
    """Spanning tree preserving every vertex's distance to the anchors.

    ``groups``, ``connectors`` and ``dist`` are what :func:`_grow` returned:
    each anchor's vertices in discovery order (``(a,)`` per packing member,
    ``(u, v)`` per matching edge, whose edge joins the tree), the recorded
    connectors and every vertex's distance to the anchors.  Cells, labelled
    by anchor index, come from :func:`_deterministic_cells` on ``dist``; the
    connectors join them, or a quotient-graph spanning tree when they do not
    stitch the cells into a tree.

    On the pipeline's anchors they always do: the ``i``-th connector joins
    cell ``i`` to a cell below ``i`` (the proof is in :func:`_grow`), so in
    discovery order each union takes in a cell not yet joined, the
    union-find check passes and the fallback is never taken.  The check and
    the fallback serve :func:`build_spanning_tree_from_packing`, whose
    arbitrary members give no such spacing.  Spanning shape and distance
    preservation are verified, not assumed.

    Returns ``(tree, parent, assignment, connectors, vertices)``: tree
    parents toward the cell roots (-1 on anchor vertices), cell roots and
    the sorted anchor vertices.
    """
    vertices = sorted({x for group in groups for x in group})
    root, parent = _deterministic_cells(g, dist, vertices)
    anchor_of = {x: i for i, group in enumerate(groups) for x in group}
    cell_of = [anchor_of[root[v]] for v in range(g.n)]
    cells = range(len(groups))

    uf = _UnionFind(cells)
    stitched = all(
        cell_of[x] != cell_of[y] and uf.union(cell_of[x], cell_of[y]) for x, y in connectors)
    if not stitched:
        connectors = _fallback_connectors(g, cell_of, dist, cells)

    # parent edges, matching edges and connectors, each listed once at both
    # ends; a missing or repeated one leaves n - 1 edges short or
    # disconnected, which _verify_tree rejects
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for v, p in enumerate(parent):
        if p != -1:
            adj[v].append(p)
            adj[p].append(v)
    for x, y in chain((group for group in groups if len(group) == 2), connectors):
        adj[x].append(y)
        adj[y].append(x)
    for around in adj:
        around.sort()
    tree = Graph._from_ascending(adj)
    _verify_tree(g, tree, vertices, dist)
    return tree, tuple(parent), tuple(root), tuple(connectors), vertices


def build_spanning_tree_from_packing(
    g: Graph, members
) -> tuple[Graph, tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Spanning tree preserving every vertex's distance to the packing:
    ``(tree, parent, assignment, connectors)`` of :func:`_anchor_tree`."""
    members = list(members)
    if not members or len(set(members)) != len(members):
        raise ValueError("packing must be a nonempty list of distinct vertices")
    groups = [(a,) for a in members]
    rest = iter(groups[1:])
    return _anchor_tree(g, *_grow(g, groups[0], lambda dist: next(rest, None)))[:4]


def _verify_tree(g: Graph, tree: Graph, anchor_vertices, dist_in_g) -> None:
    """Raise unless ``tree`` spans ``g`` and keeps ``dist_in_g``, the
    distances to ``anchor_vertices``."""
    if tree.m != g.n - 1:
        raise RuntimeError("construction invariant violated: not a spanning tree")
    td = multi_source_distances(tree, anchor_vertices)
    if -1 in td:
        raise RuntimeError("construction invariant violated: tree is disconnected")
    if td != dist_in_g:
        raise RuntimeError("construction invariant violated: distances to the "
                           "anchor set are not preserved")


def weight_function(members, assignment) -> dict[int, int]:
    """Cell-size weights ``{u: c(u)}`` on the anchor vertices ``members``:
    ``c(u)`` counts the vertices assigned to ``u``."""
    counts = Counter(assignment)
    return {u: counts[u] for u in members}


# ---------------------------------------------------------------------------
# contracted powers

def _contracted_power(g: Graph, anchors, radius: int) -> Graph:
    """Graph on anchor indices ``0..k-1`` with ``i ~ j`` iff anchors ``i``
    and ``j`` lie within ``radius`` of each other in ``g``."""
    index = {a: i for i, a in enumerate(anchors)}
    pairs = []
    for i, a in enumerate(anchors):
        for b in ball(g.adj, a, radius):
            j = index.get(b)
            if j is not None and j > i:
                pairs.append((i, j))
    return Graph.from_edges(len(anchors), pairs)


def _line_eccentricity(tree_ecc, e: tuple[int, int]) -> int:
    """Eccentricity of the tree edge ``e = uv`` in the tree's line graph.

    Removing ``e`` leaves two sides of heights ``a`` (from ``u``) and ``b``
    (from ``v``); the edge's line-graph eccentricity is ``max(a, b)``, while
    ``ecc(u) = max(a, b + 1)`` and ``ecc(v) = max(b, a + 1)``.
    """
    eu, ev = tree_ecc[e[0]], tree_ecc[e[1]]
    return min(eu, ev) - (eu == ev)


# ---------------------------------------------------------------------------
# certifiers

def certify(g: Graph | Measured,
            use_max_degree: bool = False) -> PackingCertificate | MatchingCertificate:
    """Certify the girth bound that matches the girth's parity.

    A :class:`Graph` has its girth measured once, before its profile; a
    :class:`Measured` graph is not measured again.  A forest raises
    :class:`NotCertifiableError` before anything else is checked.
    """
    if isinstance(g, Measured):
        g, gi, profile = g.graph, g.params.g, g.profile
    else:
        gi, profile = girth(g), None
    if gi is None:
        raise NotCertifiableError("graph is acyclic: nothing to certify")
    return _certify(g, gi, profile, use_max_degree)


def certify_odd(g: Graph, use_max_degree: bool = False) -> PackingCertificate:
    """Run the odd-girth pipeline and verify its argument step by step.

    With ``use_max_degree`` the packing is seeded at a maximum-degree vertex
    and the sharper bound (constants K1, K2) is certified; otherwise the
    packing starts at vertex 0 and the uniform bound (constant K) is used.
    """
    return _certify(g, girth(g), None, use_max_degree, want_odd=True)


def certify_even(g: Graph, use_max_degree: bool = False) -> MatchingCertificate:
    """Run the even-girth pipeline (matching, line graph) and verify it.

    With ``use_max_degree`` the matching is seeded at an edge incident to a
    maximum-degree vertex and the sharper bound (constants L1, L2) is
    certified; otherwise the uniform bound (constant L) is used.
    """
    return _certify(g, girth(g), None, use_max_degree, want_odd=False)


def _certify(g: Graph, gi: int, profile: EccentricityProfile | None,
             use_max_degree: bool, want_odd: bool | None = None):
    """The pipeline of both girth bounds, branching on the girth's parity only
    for the anchors, the host of the contracted power and the certificate
    class.  ``profile`` is measured here when ``None``; ``want_odd`` rejects
    a girth of the other parity."""
    if profile is None:
        profile = eccentricity_profile(g)  # raises on disconnected input
    delta, Delta = g.min_degree(), g.max_degree()
    if delta < 3:
        raise NotCertifiableError(f"minimum degree {delta} below 3: not certifiable")
    odd = gi % 2 == 1
    parity = "odd" if odd else "even"
    if want_odd is not None and want_odd != odd:
        raise ValueError(f"girth {gi} is {parity}; use certify_{parity}")
    n = g.n

    # anchors: members spaced g apart (odd), or edges spaced g - 1 apart (even)
    hub = min(v for v in range(n) if g.degree(v) == Delta) if use_max_degree else None
    if odd:
        groups, connectors, msd = _grow(g, (0 if hub is None else hub,), _spaced_vertex(gi))
        members = [a for (a,) in groups]
    else:
        e1 = g.edges[0] if hub is None else min(tuple(sorted((hub, w))) for w in g.adj[hub])
        groups, connectors, msd = _grow(g, e1, _spaced_edge(g, gi))
        members = groups
    tree, _, assignment, connectors, vertices = _anchor_tree(g, groups, connectors, msd)
    c = weight_function(vertices, assignment)
    weights = [sum(c[x] for x in group) for group in groups]  # c, or cbar on edges

    unit = moore_order(delta, gi)  # K = K1 and L = 2*L1
    if use_max_degree:
        constants = maxdeg_constants(delta, Delta, gi)
        c1, c2 = constants.values()
        excess = c2 - c1
        q = Fraction(n - c2, unit)
        nprime = q + (1 if odd else Fraction(1, 2))
        power_bound = (Fraction(3, 4) * q * (1 + Fraction(excess, 3 * n))
                       + (1 if odd else Fraction(5, 8)))
        final_bound = maxdeg_bound_value(n, gi, c1, c2)
        bound_id = BoundId.THM_GIRTH_MAXDEG_ODD if odd else BoundId.THM_GIRTH_MAXDEG_EVEN
    else:
        plain = bound_thm_girth(GraphParams(n=n, delta=delta, Delta=Delta, g=gi))
        constants, excess = plain.constants, 0  # K or L
        nprime = Fraction(n, unit)
        power_bound = Fraction(3 * math.ceil(nprime), 4) - Fraction(1, 2)
        final_bound = plain.value
        bound_id = plain.bound
    norm = [Fraction(w, unit) for w in weights]
    norm[0] = Fraction(weights[0] - excess, unit)  # the hub's anchor carries the excess

    tree_prof = eccentricity_profile(tree)
    avec_g, avec_t = profile.avec, tree_prof.avec
    avec_c_t = Fraction(sum(w * tree_prof.ecc[u] for u, w in c.items()), n)

    # the contracted power lives on T (odd), or on its line graph L(T) (even),
    # whose vertex for an anchor edge e has eccentricity ecc_L(T)(e)
    if odd:
        host, host_anchors, line = tree, members, None
        avec_host = avec_c_t
    else:
        line, table = line_graph(tree)
        line_id = {e: i for i, e in enumerate(table)}
        host, host_anchors = line, [line_id[e] for e in members]
        avec_host = Fraction(sum(w * _line_eccentricity(tree_prof.ecc, e)
                                 for w, e in zip(weights, members)), n)
    power = _contracted_power(host, host_anchors, gi)
    if not is_connected(power):  # it contains the connector tree: see _grow
        raise RuntimeError("construction invariant violated: contracted power is disconnected")
    pecc = eccentricity_profile(power).ecc
    avec_power = Fraction(sum(w * x for w, x in zip(weights, pecc)), n)

    host_key, power_key = ("avecC_T", "avecC_power") if odd else ("avecCbar_L", "avecCbar_power")
    cover = 1 if odd else 2  # every vertex lies within g - cover of an anchor vertex
    steps = [
        _step("avecG<=avecT", avec_g, avec_t),
        _step(f"avecT<=avecC_T+(g-{cover})", avec_t, avec_c_t + (gi - cover)),
    ]
    if not odd:
        steps.append(_step("avecC_T<=avecCbar_L+1", avec_c_t, avec_host + 1))
    steps += [
        _step(f"{host_key}<=g*{power_key}+(g-1)", avec_host, gi * avec_power + (gi - 1)),
        _step(f"{power_key}<=powerBound", avec_power, power_bound),
        _step("finalBound==g*powerBound+2(g-1)", final_bound,
              gi * power_bound + 2 * (gi - 1), equality=True),
        _step("avecG<=finalBound", avec_g, final_bound),
    ]

    chain = {"avecG": avec_g, "avecT": avec_t, "avecC_T": avec_c_t}
    if not odd:
        chain["avecCbar_L"] = avec_host
    chain.update({power_key: avec_power, "Nprime": nprime, "finalBound": final_bound})

    checks = _checks(g, groups, msd, assignment, c, weights, gi, unit, excess, tree, use_max_degree)
    common = dict(tree=tree, connector_edges=connectors,
                  assignment=assignment, use_max_degree=use_max_degree, girth_value=gi,
                  constants=constants, chain=chain, steps=tuple(steps), checks=checks,
                  bound_id=bound_id.value)
    if odd:
        return PackingCertificate(
            members=tuple(members), weights=c, normalized_weights=dict(zip(members, norm)),
            **common)
    return MatchingCertificate(
        members=tuple(members), vertex_weights=c,
        edge_weights=dict(zip(members, weights)),
        normalized_edge_weights=dict(zip(members, norm)), line=line, **common)


# ---------------------------------------------------------------------------
# structural checks: the packing and the matching lemmas as one rule

def _spacing_and_assignment(g: Graph, groups, msd: list[int], assignment) -> tuple[float, bool]:
    """The least distance between two anchor groups (``inf`` for one), and
    whether each ``v`` is assigned to a source (a group's vertex) at distance
    ``msd[v]``, from one pass by ``msd``, the sources' distances in ``g``.
    ``near[v]`` ORs the nearest-source bits of the neighbours one closer and
    ``label[v]`` takes one's group.  A shortest path between the closest two
    groups crosses an edge ``xy`` whose labels differ, and each such edge
    joins two groups in ``msd[x] + 1 + msd[y]`` (Mehlhorn, IPL 27, 1988)."""
    label, near, spacing = [-1] * g.n, [0] * g.n, math.inf
    for i, group in enumerate(groups):
        for x in group:
            if label[x] != -1:
                spacing = 0
            label[x], near[x] = i, 1 << x
    for v in sorted(range(g.n), key=msd.__getitem__):
        if d := msd[v]:
            for u in g.adj[v]:
                if msd[u] == d - 1:
                    near[v] |= near[u]
                    label[v] = label[u]
    for x, y in g.edges:
        if label[x] != label[y] and msd[x] + msd[y] + 1 < spacing:
            spacing = msd[x] + msd[y] + 1
    return spacing, all(near[v] >> a & 1 for v, a in enumerate(assignment))


def _checks(g, groups, msd, assignment, c, weights, gi, unit, excess, tree, use_max_degree):
    """Structural checks of either certificate, ``g`` connected: the packing
    lemma on one-member ``groups`` (odd girth), the matching lemma on edges.
    ``c`` gives each anchor vertex's cell size and ``weights`` each anchor's
    weight; ``msd`` is every vertex's distance to the anchor vertices in
    ``g``, and ``tree`` passed :func:`_verify_tree`, so it spans ``g`` and
    keeps ``msd``; its contracted power passed :func:`_certify`'s
    connectivity check.  Both lemmas are one weight rule: every anchor
    weighs at least ``unit`` (K, L, K1 or 2*L1), the hub's (the first) at
    least ``unit + excess`` (K2 - K1 or L2 - L1 under the max-degree
    variant, else 0), so there are at most ``(n - excess) / unit`` anchors.
    """
    n, odd, size = g.n, len(groups[0]) == 1, len(groups)
    spacing, assign_ok = _spacing_and_assignment(g, groups, msd, assignment)
    total, hub_ok = sum(c.values()), weights[0] >= unit + excess
    if odd:  # members g apart, every vertex within g - 1
        coverage_ok, conserve_ok = max(msd) <= gi - 1, total == n
    else:  # edges g - 1 apart, every edge within g - 2
        coverage_ok = all(min(msd[x], msd[y]) <= gi - 2 for x, y in g.edges)
        conserve_ok = total == n and sum(weights) == n
    checks = [
        None if odd else StructuralCheck("matching_disjoint", len(c) == 2 * size),
        StructuralCheck("packing_spacing>=g" if odd else "matching_spacing>=g-1",
                        spacing >= (gi if odd else gi - 1)),
        StructuralCheck("packing_coverage<=g-1" if odd else "matching_coverage<=g-2",
                        coverage_ok, f"max dist {max(msd)}" if odd else ""),
        StructuralCheck("assignment_nearest_member" if odd
                        else "assignment_nearest_matched_vertex", assign_ok),
        StructuralCheck("weight_conservation", conserve_ok,
                        f"total={total}, n={n}" if odd else ""),
        StructuralCheck("cell_lower_bounds" if odd else "edge_weight_lower_bounds",
                        hub_ok and all(w >= unit for w in weights[1:])),
        StructuralCheck("tree_spanning", True),  # _verify_tree raised unless both hold
        None if odd else StructuralCheck("tree_contains_matching",
                                         all(tree.has_edge(u, v) for u, v in groups)),
        StructuralCheck("distance_preservation", True),
        StructuralCheck("tree_power_connected" if odd else "line_power_connected", True),
    ]
    if use_max_degree:
        size_ok = size <= Fraction(n - excess, unit)
        checks += [
            StructuralCheck("hub_weight>=K2", hub_ok,
                            f"c({groups[0][0]})={weights[0]}, K2={unit + excess}"),
            StructuralCheck("packing_size<=(n-K2)/K1+1", size_ok, f"|A|={size}"),
        ] if odd else [
            StructuralCheck("hub_edge_weight>=L1+L2", hub_ok,
                            f"cbar={weights[0]}, L1+L2={unit + excess}"),
            StructuralCheck("matching_size<=(n-L2+L1)/(2L1)", size_ok, f"|M|={size}"),
        ]
    return tuple(check for check in checks if check is not None)
