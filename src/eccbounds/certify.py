"""Constructive certificates for the girth-parameterized eccentricity bounds.

One pipeline with two kinds of anchor, a spaced packing (odd girth) or a
spaced matching (even girth), replays the argument behind both bounds on a
concrete graph, one stage function per step, each returning what the next
reads: ``_anchors`` grows the anchors, a spanning tree that preserves
distances to them and the vertex weights moved onto them (the only odd/even
choice of anchor); ``_bound`` gives the bound and its Moore-type constants;
``_chain`` contracts through a power of the tree (odd) or of its line graph
(even) and compares against the path extremal value; ``_checks`` checks the
structure.  Every intermediate inequality and structural property is
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
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import chain

from .bounds import (
    BoundId,
    Measured,
    bound_thm_girth,
    maxdeg_bound_value,
    maxdeg_constants,
    measure,
    moore_order,
)
# bfs_distances stays importable from here: the benchmark's tracer
# (perfbench/spans.py) wraps it in this module
from .graph import bfs_distances  # noqa: F401
from .graph import (
    UNREACHABLE,
    DisconnectedGraphError,
    Graph,
    eccentricity_profile,
    girth,
    line_graph,
    multi_source_distances,
)


class NotCertifiableError(ValueError):
    """The pipeline's hypotheses fail (minimum degree below 3, or no cycle)."""


class ChainStep(namedtuple("ChainStep", "name lhs rhs holds")):
    """One recomputed inequality (or identity) from the argument chain."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
        }


class StructuralCheck(namedtuple("StructuralCheck", "name ok detail", defaults=("",))):
    """One structural check of a certificate, with the measured values, if
    any, in ``detail``."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _step(name: str, lhs, rhs, equality: bool = False) -> ChainStep:
    return ChainStep(name, lhs, rhs, lhs == rhs if equality else lhs <= rhs)


# the fields both kinds of certificate start with; ``assignment`` maps each
# vertex to its nearest anchor vertex
_CERTIFICATE_FIELDS = ("tree connector_edges assignment use_max_degree girth_value constants "
                       "chain steps checks bound_id")


class _Certificate:
    """The verdict and JSON keys both kinds of certificate share, mixed into
    each one's named tuple of ``_CERTIFICATE_FIELDS`` and its own fields."""

    __slots__ = ()

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


class PackingCertificate(_Certificate, namedtuple(
        "PackingCertificate", f"{_CERTIFICATE_FIELDS} members weights normalized_weights")):
    """Odd-girth certificate: packing, tree, weights, and the verified chain.
    ``members`` is the packing in discovery order, ``weights`` maps each
    member to its cell size."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return super().to_json_dict() | {
            "variant": "odd",
            "A": list(self.members),
            "weights": {str(a): str(w) for a, w in self.weights.items()},
            "normalizedWeights": {str(a): str(w) for a, w in self.normalized_weights.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"),
                          check_circular=False)  # to_json_dict's containers are all fresh


class MatchingCertificate(_Certificate, namedtuple(
        "MatchingCertificate",
        f"{_CERTIFICATE_FIELDS} members vertex_weights edge_weights normalized_edge_weights line")):
    """Even-girth certificate: spaced matching, tree, line-graph weights, chain.
    ``members`` is the matching's edges in discovery order,
    ``vertex_weights`` maps each matched vertex to its cell size, and vertex
    ``i`` of ``line`` is ``tree.edges[i]``."""

    __slots__ = ()

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
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"),
                          check_circular=False)  # to_json_dict's containers are all fresh


# ---------------------------------------------------------------------------
# deterministic multi-source machinery

def _deterministic_cells(g: Graph, dist: list[int], order, root: list[int],
                         parent: list[int]) -> tuple[list[int], list[int]]:
    """A deterministic cell decomposition around the sources of ``dist`` (the
    vertices at distance 0), over ``order``: ascending in ``dist``, it holds
    every neighbour one closer of each of its vertices.

    Each vertex of ``order`` gets a root (its nearest source) in ``root``
    and, unless a source, a parent on a shortest path toward that root in
    ``parent``, the caller's length-``n`` lists: stale entries do no harm,
    since a pass reads only roots it wrote.  Ties go to the lowest-id root,
    then the lowest-id parent, so repeated runs agree byte for byte.
    """
    adj = g.adj
    for v in order:
        if dist[v] == 0:
            root[v] = v
            continue
        target = dist[v] - 1
        best_root = -1
        best_parent = -1
        for u in adj[v]:
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


def _replay_path(g: Graph, dist: list[int], target: int, root: list[int],
                 parent: list[int]) -> list[int]:
    """The path from the sources of ``dist`` (the vertices at distance 0) to
    ``target`` along the parents :func:`_deterministic_cells` gives, first
    element a source; ``root`` and ``parent`` are the arrays it draws them in.

    Only the shortest-path DAG below ``target`` is walked, layer by layer
    toward the sources, so long paths need no recursion.  The DAG holds
    every shortest path from its vertices to the sources, so the parents
    drawn over it are those drawn over the whole graph.  The walk takes
    ``dist[target]`` steps, so it reads no source's parent.
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
    parent = _deterministic_cells(g, dist, chain.from_iterable(reversed(layers)),
                                  root, parent)[1]
    path = [target]
    for _ in range(dist[target]):
        path.append(parent[path[-1]])
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# anchors: one grower, three pick rules

def _grow(g: Graph, first, pick) -> tuple[
        list[tuple[int, ...]], list[tuple[int, int]], list[int]]:
    """Anchors grown from the vertex group ``first`` on one distance array.

    ``pick(dist)`` gives the next anchor's vertices from the distances to
    the anchors so far, or ``None`` to stop.  Before they lower the array,
    the anchor's discovery path, from the anchors before it to its nearest
    vertex (lowest id on ties), is replayed on it along the parents of
    :func:`_deterministic_cells` (:func:`_replay_path`), and the path's
    middle edge is recorded as a connector of the tree.
    Returns ``(groups, connectors, dist)``: one connector per anchor after
    the first, and every vertex's distance to all the anchors' vertices.
    The anchor builders return the groups and discard the connectors; their
    input checks keep every anchor at a distance ``t >= 1``, so its path of
    ``t + 1`` vertices has a middle edge.  The replays share one ``root``
    and ``parent`` pair, so each costs the size of its shortest-path DAG,
    not ``n``.

    The certificate pipeline hands in anchors at an odd distance ``t = 2h +
    1`` from the anchors before them, and ``t`` never falls: ``t = g`` for a
    packing member (odd girth ``g``), ``t = g - 1`` for a matching edge
    (even ``g``), and ``build_spanning_tree_from_packing`` rejects members
    that break either rule.  Then the connectors stitch the final cells into
    a tree.  Let ``S`` be the earlier anchors' vertices and ``N`` the new
    anchor's, whose discovery path has length ``t``.  Its middle edge ``xy``
    (``x = path[h]``, ``y = path[h + 1]``) lies on a shortest path from
    ``S``, so ``d(x, S) = h`` and ``d(y, S) = h + 1``.  Every vertex of ``N``
    is at least ``t`` from ``S`` (a matching edge's other end is no closer
    than its target), so by the triangle inequality ``d(y, N) >= h`` and
    ``d(x, N) >= h + 1``, and the path attains both.  As ``t`` never falls,
    every later anchor vertex ``z`` is at least ``t`` from ``S`` and from
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
    root, parent = [-1] * g.n, [-1] * g.n
    while (group := pick(dist)) is not None:
        target = min(group, key=lambda x: (dist[x], x))
        t = dist[target]
        path = _replay_path(g, dist, target, root, parent)
        connectors.append((path[t // 2], path[t // 2 + 1]))
        groups.append(group)
        for x in group:
            _lower_distances(g, dist, x)
    return groups, connectors, dist


def _index(dist: list[int], d: int, start: int = 0) -> int:
    """The first index from ``start`` on where ``dist`` is ``d``, else ``len(dist)``."""
    try:
        return dist.index(d, start)
    except ValueError:
        return len(dist)


def _spaced_vertex(girth_value: int):
    """Packing pick rule: the lowest vertex at distance ``girth_value``, one
    of which lies on a shortest path toward any farther vertex."""
    return lambda dist: (a,) if (a := _index(dist, girth_value)) < len(dist) else None


def _spaced_edge(g: Graph, girth_value: int):
    """Matching pick rule: the first edge of ``g.edges`` at edge distance
    ``s = girth_value - 1``, one of which lies on a shortest path toward any
    farther edge.  Its ends lie at most 1 apart, so its end ``u < v`` is at
    ``s`` or ``s + 1``: ``dist.index`` jumps through those ``u``, no edge scan."""
    s, adj = girth_value - 1, g.adj

    def pick(dist):
        ahead = {d: _index(dist, d) for d in (s, s + 1)}
        while (u := min(ahead.values())) < len(dist):
            du = dist[u]
            ahead[du] = _index(dist, du, u + 1)
            for v in adj[u]:
                if v > u and min(du, dist[v]) == s:
                    return u, v
        return None
    return pick


def build_packing(g: Graph, girth_value: int) -> list[int]:
    """Greedy maximal set of vertices pairwise at distance >= ``girth_value``.

    Starts from vertex 0 and, while some vertex is at distance
    ``girth_value`` or more from the set, adds the lowest-id vertex at
    distance exactly ``girth_value``.  On exit every vertex is within
    ``girth_value - 1`` of the set.
    """
    if girth_value < 1:
        raise ValueError("girth parameter must be positive")
    groups = _grow(g, (0,), _spaced_vertex(girth_value))[0]
    return [a for (a,) in groups]


def build_spaced_matching(g: Graph, girth_value: int) -> list[tuple[int, int]]:
    """Greedy matching with pairwise edge-distance >= ``girth_value - 1``.

    Edge distance is the minimum vertex distance over endpoint pairs.  Starts
    from the lexicographically least edge and, while any edge sits at
    distance ``girth_value - 1`` or more from the matched vertex set, adds
    the lexicographically least edge at distance exactly ``girth_value - 1``.
    On exit every edge is within ``girth_value - 2``.
    """
    if girth_value < 2:
        raise ValueError("girth parameter must be at least 2")
    if not g.edges:
        raise ValueError("graph has no edges")
    return _grow(g, g.edges[0], _spaced_edge(g, girth_value))[0]


# ---------------------------------------------------------------------------
# distance-preserving spanning tree

def _anchor_tree(g: Graph, groups, connectors, dist, order):
    """Spanning tree preserving every vertex's distance to the anchors.

    ``groups``, ``connectors`` and ``dist`` are what :func:`_grow` returned
    (``(a,)`` per packing member, ``(u, v)`` per matching edge, whose edge
    joins the tree), and ``order`` is every vertex sorted by ``dist``.  The
    cells come from :func:`_deterministic_cells` over ``order``, the rule the
    replay follows, and connector ``i`` joins cell ``i`` to a cell below it
    (the proof is in :func:`_grow`).  :func:`_verify_tree` checks the tree.

    Returns ``(tree, parent, assignment, connectors, vertices, profile)``:
    tree parents toward the cell roots (-1 on anchor vertices), cell roots,
    the sorted anchor vertices and the tree's profile from the check.
    """
    vertices = sorted({x for group in groups for x in group})
    root, parent = _deterministic_cells(g, dist, order, [-1] * g.n, [-1] * g.n)

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
    profile = _verify_tree(g, tree, vertices, dist)
    return tree, tuple(parent), tuple(root), tuple(connectors), vertices, profile


def build_spanning_tree_from_packing(
    g: Graph, members
) -> tuple[Graph, tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Spanning tree preserving every vertex's distance to the packing:
    ``(tree, parent, assignment, connectors)`` of :func:`_anchor_tree`.
    Each member after the first must lie at an odd distance from those
    before it that never falls, the hypothesis of the proof in
    :func:`_grow`, or ``ValueError`` names it."""
    members = list(members)
    if not members or len(set(members)) != len(members):
        raise ValueError("packing must be a nonempty list of distinct vertices")
    if bad := [a for a in members if not 0 <= a < g.n]:
        raise ValueError(f"member {bad[0]} out of range")
    rest, t = iter(members[1:]), 1

    def pick(dist):
        nonlocal t
        if (a := next(rest, None)) is None:
            return None
        if dist[a] % 2 == 0 or dist[a] < t:
            raise ValueError(f"member {a} lies at distance {dist[a]} from the members "
                             f"before it: the proof needs an odd distance of at least {t}")
        t = dist[a]
        return (a,)

    groups, connectors, dist = _grow(g, (members[0],), pick)
    return _anchor_tree(g, groups, connectors, dist,
                        sorted(range(g.n), key=dist.__getitem__))[:4]


def _verify_tree(g: Graph, tree: Graph, anchor_vertices, dist_in_g):
    """Raise unless ``tree`` spans ``g`` and keeps ``dist_in_g``, the
    distances to ``anchor_vertices``; else return its profile.  The profile's
    first sweep, from vertex 0, tests connectivity: the anchors alone reach
    all of a forest with an anchor in each part."""
    if tree.m != g.n - 1:
        raise RuntimeError("construction invariant violated: not a spanning tree")
    try:
        profile = eccentricity_profile(tree)
    except DisconnectedGraphError:
        raise RuntimeError("construction invariant violated: tree is disconnected") from None
    if multi_source_distances(tree, anchor_vertices) != dist_in_g:
        raise RuntimeError("construction invariant violated: distances to the "
                           "anchor set are not preserved")
    return profile


# ---------------------------------------------------------------------------
# contracted powers

def _contracted_power(g: Graph, anchors, radius: int) -> Graph:
    """Graph on anchor indices ``0..k-1`` with ``i ~ j`` iff anchors ``i``
    and ``j`` lie within ``radius`` of each other in ``g``: one BFS per
    anchor, which stamps what it reaches with the anchor's index in ``seen``."""
    adj, index, seen, pairs = g.adj, [-1] * g.n, [-1] * g.n, []
    for i, a in enumerate(anchors):
        index[a] = i
    for i, a in enumerate(anchors):
        seen[a] = i
        frontier = [a]
        for _ in range(radius):
            reached = []
            for u in frontier:
                for v in adj[u]:
                    if seen[v] != i:
                        seen[v] = i
                        reached.append(v)
                        if index[v] > i:
                            pairs.append((i, index[v]))
            frontier = reached
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
    gi = g.params.g if isinstance(g, Measured) else girth(g)
    if gi is None:  # a forest is rejected before its profile, which raises if disconnected
        raise NotCertifiableError("graph is acyclic: nothing to certify")
    return _certify(g if isinstance(g, Measured) else measure(g, gi), use_max_degree)


def certify_odd(g: Graph, use_max_degree: bool = False) -> PackingCertificate:
    """Run the odd-girth pipeline and verify its argument step by step.

    With ``use_max_degree`` the packing is seeded at a maximum-degree vertex
    and the sharper bound (constants K1, K2) is certified; otherwise the
    packing starts at vertex 0 and the uniform bound (constant K) is used.
    """
    return _certify(measure(g), use_max_degree, want_odd=True)


def certify_even(g: Graph, use_max_degree: bool = False) -> MatchingCertificate:
    """Run the even-girth pipeline (matching, line graph) and verify it.

    With ``use_max_degree`` the matching is seeded at an edge incident to a
    maximum-degree vertex and the sharper bound (constants L1, L2) is
    certified; otherwise the uniform bound (constant L) is used.
    """
    return _certify(measure(g), use_max_degree, want_odd=False)


def _certify(measured: Measured, use_max_degree: bool, want_odd: bool | None = None):
    """The pipeline of both girth bounds: validation, then the stages
    :func:`_anchors`, :func:`_bound`, :func:`_chain` and :func:`_checks`,
    then the certificate.  ``measured`` carries the graph's profile, so it
    is connected, and the parameters every stage reads; ``want_odd`` rejects
    a girth of the other parity."""
    g, (_, delta, Delta, gi) = measured.graph, measured.params
    if delta < 3:
        raise NotCertifiableError(f"minimum degree {delta} below 3: not certifiable")
    parity = "odd" if gi % 2 else "even"
    if want_odd is not None and want_odd != (gi % 2 == 1):
        raise ValueError(f"girth {gi} is {parity}; use certify_{parity}")
    hub = list(map(len, g.adj)).index(Delta) if use_max_degree else None  # the lowest id
    anchors = _anchors(g, gi, hub)
    bound = _bound(measured.params, use_max_degree)
    chain, steps, line = _chain(measured, anchors, bound)
    checks = _checks(g, anchors, gi, bound.unit, bound.excess, use_max_degree)
    members, weights = anchors.members, anchors.weights
    norm = [Fraction(w, bound.unit) for w in weights]
    norm[0] = Fraction(weights[0] - bound.excess, bound.unit)  # the hub's carries the excess
    common = dict(tree=anchors.tree, connector_edges=anchors.connectors,
                  assignment=anchors.assignment, use_max_degree=use_max_degree, girth_value=gi,
                  constants=bound.constants, chain=chain, steps=steps, checks=checks,
                  bound_id=bound.bound_id.value, members=tuple(members))
    if anchors.odd:
        return PackingCertificate(weights=anchors.c, normalized_weights=dict(zip(members, norm)),
                                  **common)
    return MatchingCertificate(vertex_weights=anchors.c, edge_weights=dict(zip(members, weights)),
                               normalized_edge_weights=dict(zip(members, norm)), line=line,
                               **common)


# ---------------------------------------------------------------------------
# the stages of _certify

# the anchors as the certificate lists them and as vertex groups, the tree, its
# profile and the cell weights: ``c`` per anchor vertex, ``weights`` per anchor (c, or cbar)
_Anchors = namedtuple("_Anchors",
                      "odd members groups msd order tree tree_prof assignment connectors c weights")
_Bound = namedtuple("_Bound", "unit excess constants nprime power_bound final_bound bound_id")


def _anchors(g: Graph, gi: int, hub: int | None) -> _Anchors:
    """Anchors and tree: members spaced ``gi`` apart (odd girth), or edges
    spaced ``gi - 1`` apart (even), the first at ``hub`` (a maximum-degree
    vertex) if given, else at vertex 0 or the first edge; then the spanning
    tree that keeps every distance to them, and the cell weights."""
    if odd := gi % 2 == 1:
        groups, connectors, msd = _grow(g, (0 if hub is None else hub,), _spaced_vertex(gi))
    else:
        e1 = g.edges[0] if hub is None else min(tuple(sorted((hub, w))) for w in g.adj[hub])
        groups, connectors, msd = _grow(g, e1, _spaced_edge(g, gi))
    members = [a for (a,) in groups] if odd else groups
    order = sorted(range(g.n), key=msd.__getitem__)
    tree, _, assignment, connectors, vertices, prof = _anchor_tree(g, groups, connectors, msd, order)
    counts = Counter(assignment)
    c = {x: counts[x] for x in vertices}  # cell sizes
    weights = [sum(c[x] for x in group) for group in groups]
    return _Anchors(odd, members, groups, msd, order, tree, prof, assignment, connectors, c, weights)


def _bound(params, use_max_degree: bool) -> _Bound:
    """The bound the chain ends in, with the one weight rule's ``unit`` (K =
    K1, or L = 2*L1) and ``excess`` (K2 - K1 or L2 - L1 under the max-degree
    variant, else 0), ``N'`` and the contracted power's bound."""
    n, delta, Delta, gi = params
    odd, unit = gi % 2 == 1, moore_order(delta, gi)
    if not use_max_degree:
        plain, nprime = bound_thm_girth(params), Fraction(n, unit)
        power_bound = Fraction(3 * math.ceil(nprime), 4) - Fraction(1, 2)
        return _Bound(unit, 0, plain.constants, nprime, power_bound, plain.value, plain.bound)
    constants = maxdeg_constants(delta, Delta, gi)
    c1, c2 = constants.values()
    q = Fraction(n - c2, unit)
    power_bound = (Fraction(3, 4) * q * (1 + Fraction(c2 - c1, 3 * n))
                   + (1 if odd else Fraction(5, 8)))
    return _Bound(unit, c2 - c1, constants, q + (1 if odd else Fraction(1, 2)), power_bound,
                  maxdeg_bound_value(n, gi, c1, c2),
                  BoundId.THM_GIRTH_MAXDEG_ODD if odd else BoundId.THM_GIRTH_MAXDEG_EVEN)


def _chain(measured: Measured, anchors: _Anchors, bound: _Bound):
    """The argument chain: the profiles of ``G`` and ``T`` (the one
    :func:`_verify_tree` took), the contracted power on ``T`` (odd), or on
    its line graph ``L(T)`` (even), whose vertex for an anchor edge ``e``
    has eccentricity ``ecc_L(T)(e)``, and the steps down to the final bound.
    Returns ``(chain, steps, line)``, the line graph ``None`` for odd girth."""
    n, gi = measured.params.n, measured.params.g
    odd, members, weights = anchors.odd, anchors.members, anchors.weights
    tree_prof = anchors.tree_prof
    avec_g, avec_t = measured.profile.avec, tree_prof.avec
    avec_c_t = Fraction(sum(w * tree_prof.ecc[u] for u, w in anchors.c.items()), n)
    if odd:
        host, host_anchors, line, avec_host = anchors.tree, members, None, avec_c_t
    else:
        line = line_graph(anchors.tree)
        line_id = {e: i for i, e in enumerate(anchors.tree.edges)}
        host, host_anchors = line, [line_id[e] for e in members]
        avec_host = Fraction(sum(w * _line_eccentricity(tree_prof.ecc, e)
                                 for w, e in zip(weights, members)), n)
    try:  # the power contains the connector tree (see _grow), so it is connected
        pecc = eccentricity_profile(_contracted_power(host, host_anchors, gi)).ecc
    except DisconnectedGraphError:
        raise RuntimeError("construction invariant violated: "
                           "contracted power is disconnected") from None
    avec_power = Fraction(sum(w * x for w, x in zip(weights, pecc)), n)

    host_key, power_key = ("avecC_T", "avecC_power") if odd else ("avecCbar_L", "avecCbar_power")
    cover = 1 if odd else 2  # every vertex lies within g - cover of an anchor vertex
    steps = (
        _step("avecG<=avecT", avec_g, avec_t),
        _step(f"avecT<=avecC_T+(g-{cover})", avec_t, avec_c_t + (gi - cover)),
        *(() if odd else (_step("avecC_T<=avecCbar_L+1", avec_c_t, avec_host + 1),)),
        _step(f"{host_key}<=g*{power_key}+(g-1)", avec_host, gi * avec_power + (gi - 1)),
        _step(f"{power_key}<=powerBound", avec_power, bound.power_bound),
        _step("finalBound==g*powerBound+2(g-1)", bound.final_bound,
              gi * bound.power_bound + 2 * (gi - 1), equality=True),
        _step("avecG<=finalBound", avec_g, bound.final_bound),
    )
    chain = {"avecG": avec_g, "avecT": avec_t, "avecC_T": avec_c_t,
             **({} if odd else {"avecCbar_L": avec_host}),
             power_key: avec_power, "Nprime": bound.nprime, "finalBound": bound.final_bound}
    return chain, steps, line


# ---------------------------------------------------------------------------
# structural checks: the packing and the matching lemmas as one rule

def _spacing_and_assignment(g: Graph, groups, msd, order, assignment) -> tuple[float, bool]:
    """The least distance between two anchor groups (``inf`` for one), and
    whether each ``v`` is assigned to a source (a group's vertex) at distance
    ``msd[v]``, from one pass over ``order``, every vertex sorted by
    ``msd``, the sources' distances in ``g``.
    ``near[v]`` ORs the nearest-source bits of the neighbours one closer and
    ``label[v]`` takes one's group.  A shortest path between the closest two
    groups crosses an edge ``xy`` whose labels differ, and each such edge
    joins two groups in ``msd[x] + 1 + msd[y]`` (Mehlhorn, IPL 27, 1988)."""
    label, near, spacing, adj = [-1] * g.n, [0] * g.n, math.inf, g.adj
    for i, group in enumerate(groups):
        for x in group:
            if label[x] != -1:
                spacing = 0
            label[x], near[x] = i, 1 << x
    for v in order:
        if d := msd[v]:
            for u in adj[v]:
                if msd[u] == d - 1:
                    near[v] |= near[u]
                    label[v] = label[u]
    for x, y in g.edges:
        if label[x] != label[y] and msd[x] + msd[y] + 1 < spacing:
            spacing = msd[x] + msd[y] + 1
    return spacing, all(near[v] >> a & 1 for v, a in enumerate(assignment))


def _checks(g, anchors: _Anchors, gi, unit, excess, use_max_degree):
    """Structural checks of either certificate, ``g`` connected: the packing
    lemma on an odd ``anchors`` record, the matching lemma on an even one.
    Its ``tree`` passed :func:`_verify_tree`, so it spans ``g`` and keeps
    ``msd``, and its contracted power passed :func:`_chain`'s connectivity
    check.  Both lemmas are one weight rule: every anchor weighs at least
    ``unit`` (K, L, K1 or 2*L1), the hub's (the first) at least ``unit +
    excess`` (K2 - K1 or L2 - L1 under the max-degree variant, else 0), so
    there are at most ``(n - excess) / unit`` anchors.
    """
    groups, msd, c, weights = anchors.groups, anchors.msd, anchors.c, anchors.weights
    odd, n, size = anchors.odd, g.n, len(groups)
    spacing, assign_ok = _spacing_and_assignment(g, groups, msd, anchors.order, anchors.assignment)
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
                                         all(anchors.tree.has_edge(u, v) for u, v in groups)),
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
