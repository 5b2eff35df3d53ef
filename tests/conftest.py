"""Shared fixtures: small named corpora, oracle helpers, generated corpora.

The generated corpora are session-scoped because certifying a few hundred
graphs is the expensive part of the suite; every criterion that needs them
shares one build.
"""
from __future__ import annotations

import random
import time
from collections import Counter, deque
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

import eccbounds as eb
from eccbounds.bounds import GraphParams
from eccbounds.certify import StructuralCheck, _verify_tree
from eccbounds.extremal import ChainSpec


# ---------------------------------------------------------------------------
# oracles, deliberately independent of the library's algorithms

def floyd_warshall(g: eb.Graph):
    """Cubic all-pairs distances; the reference for BFS results."""
    inf = float("inf")
    d = [[inf] * g.n for _ in range(g.n)]
    for v in range(g.n):
        d[v][v] = 0
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        dk = d[k]
        for i in range(g.n):
            dik = d[i][k]
            if dik == inf:
                continue
            di = d[i]
            for j in range(g.n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def ecc_oracle(g: eb.Graph) -> tuple[int, ...]:
    """One deque BFS per vertex; the retained simple reference for the
    profile kernels, sharing no code with them."""
    return tuple(max(multi_source_distances_oracle(g, (v,))) for v in range(g.n))


def girth_oracle(g: eb.Graph):
    """Shortest cycle by brute force: 1 + shortest alternative path per edge."""
    best = None
    for u, v in g.edges:
        rest = [e for e in g.edges if e != (u, v)]
        h = eb.Graph.from_edges(g.n, rest)
        dist = multi_source_distances_oracle(h, (u,))
        if dist[v] != eb.UNREACHABLE:
            c = dist[v] + 1
            if best is None or c < best:
                best = c
    return best


def girth_per_root_oracle(g: eb.Graph):
    """Per-root BFS over the whole graph with fresh arrays for every root:
    the form ``eb.girth`` had before its search was restricted to the
    vertices above each root."""
    best = None
    adj = g.adj
    for root in range(g.n):
        dist = [eb.UNREACHABLE] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            du = dist[u]
            if best is not None and 2 * du >= best:
                break  # any cycle found below is >= 2*du + 1
            for v in adj[u]:
                if dist[v] == eb.UNREACHABLE:
                    dist[v] = du + 1
                    parent[v] = u
                    q.append(v)
                elif parent[u] != v and parent[v] != u:
                    c = du + dist[v] + 1
                    if best is None or c < best:
                        best = c
    return best


def girth_above_root_oracle(g: eb.Graph):
    """The per-root BFS restricted to the vertices above the root, stopping
    at depth ``du`` once ``2*du >= best``: the form ``eb.girth`` had before
    it checked its last useful level without expanding it."""
    best = None
    adj = g.adj
    dist = [eb.UNREACHABLE] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        around = adj[root]
        if len(around) < 2 or around[-2] < root:
            continue
        dist[root] = 0
        parent[root] = -1
        reached = [root]  # also the BFS queue, read from ``head``
        head = 0
        while head < len(reached):
            u = reached[head]
            head += 1
            du = dist[u]
            if best is not None and 2 * du >= best:
                break  # any cycle found below is >= 2*du + 1
            for v in adj[u]:
                if v < root:
                    continue
                if dist[v] == eb.UNREACHABLE:
                    dist[v] = du + 1
                    parent[v] = u
                    reached.append(v)
                elif parent[u] != v and parent[v] != u:
                    c = du + dist[v] + 1
                    if best is None or c < best:
                        best = c
        for x in reached:
            dist[x] = eb.UNREACHABLE
    return best


def multi_source_distances_oracle(g: eb.Graph, sources) -> list[int]:
    """Multi-source BFS on a ``deque``: the form ``eb.multi_source_distances``
    had before it read its queue from the list it appends to."""
    q = deque(sorted(set(sources)))
    dist = [eb.UNREACHABLE] * g.n
    for s in q:
        dist[s] = 0
    while q:
        u = q.popleft()
        for v in g.adj[u]:
            if dist[v] == eb.UNREACHABLE:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def lower_distances_oracle(g: eb.Graph, dist: list[int], source: int) -> None:
    """``certify._lower_distances`` on a ``deque``, the form it had before it
    read its queue from the list it appends to: lowers ``dist`` in place."""
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in g.adj[u]:
            if dist[u] + 1 < dist[v]:
                dist[v] = dist[u] + 1
                q.append(v)


# ---------------------------------------------------------------------------
# generator oracle: the O(n)-per-attempt form of random_min_degree_girth,
# which rebuilds the deficient and eligible lists on every attempt

def ball_oracle(adj, source: int, radius: int) -> dict[int, int]:
    """Distances from ``source`` to the vertices within ``radius`` hops of it,
    over the adjacency lists ``adj``: a BFS truncated at ``radius``, the
    ``ball`` that ``eccbounds.graph`` had while the generator's girth guard
    and ``certify._contracted_power`` called it."""
    dist = {source: 0}
    frontier = [source]
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


def random_min_degree_girth_oracle(cfg: eb.GeneratorConfig, counts: Counter | None = None):
    """The generator as it was before its bucketed bookkeeping, draw for
    draw; the output is re-verified with ``girth_per_root_oracle``.  A
    ``counts`` Counter gains ``"endgame"`` for each draw from the eligible
    list taken from all vertices, and ``"stalls"`` for each stall."""
    counts = Counter() if counts is None else counts
    if cfg.delta < 2 or cfg.g < 3 or cfg.n < cfg.delta + 1:
        raise ValueError("need delta >= 2, g >= 3, n >= delta + 1")
    n, delta, floor = cfg.n, cfg.delta, cfg.g - 1
    budget = cfg.attempts_budget()
    total_attempts = 0

    for restart in range(cfg.max_restarts):
        rng = random.Random(f"{cfg.seed}:{restart}")
        adj: list[set[int]] = [set() for _ in range(n)]
        attempts = 0
        stalls = 0
        wedged = False
        while True:
            deficient = [v for v in range(n) if len(adj[v]) < delta]
            if not deficient:
                break
            if attempts >= budget or stalls > 25:
                wedged = True
                break
            attempts += 1
            lowest = min(len(adj[v]) for v in deficient)
            u = rng.choice([v for v in deficient if len(adj[v]) == lowest])
            near = ball_oracle(adj, u, floor - 1)
            eligible = [v for v in deficient if v not in near]
            if not eligible:
                eligible = [v for v in range(n) if v not in near]
                counts["endgame"] += bool(eligible)
            if not eligible:
                stalls += 1
                counts["stalls"] += 1
                continue
            stalls = 0
            v = rng.choice(eligible)
            adj[u].add(v)
            adj[v].add(u)
        total_attempts += attempts
        if wedged:
            continue

        comp = [-1] * n
        for s in range(n):
            if comp[s] != -1:
                continue
            comp[s] = s
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if comp[y] == -1:
                        comp[y] = s
                        stack.append(y)
        roots = sorted(set(comp))
        for r in roots[1:]:
            adj[roots[0]].add(r)
            adj[r].add(roots[0])

        g_out = eb.Graph.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
        measured = girth_per_root_oracle(g_out)
        if (eb.is_connected(g_out) and g_out.min_degree() >= delta
                and (measured is None or measured >= cfg.g)):
            return g_out

    return eb.GenerationFailure(config=cfg, restarts=cfg.max_restarts,
                                attempts=total_attempts,
                                reason="edge-addition search stagnated in every restart")


# ---------------------------------------------------------------------------
# chain oracle: chain_graph as it was before it assembled the copies by
# offset, every edge listed and the graph built by Graph.from_edges

def chain_graph_oracle(delta: int, g: int, k: int) -> tuple[eb.Graph, ChainSpec]:
    if k < 1:
        raise ValueError("copy count must be at least 1")
    hit = eb.moore_catalog(delta, g)
    if hit is None:
        raise ValueError(f"no catalog graph for delta={delta}, g={g}")
    base, spec = hit
    order = spec.order
    a, b = base.edges[0]

    deleted = {(i * order + a, i * order + b) for i in range(1, k - 1)}
    pairs = [(i * order + u, i * order + v)
             for i in range(k) for u, v in base.edges
             if (i * order + u, i * order + v) not in deleted]
    links = tuple(((i + 1) * order + a, i * order + b) for i in range(k - 1))
    pairs.extend(links)
    graph = eb.Graph.from_edges(k * order, pairs)
    return graph, ChainSpec(delta=delta, g=g, k=k, base_order=order,
                            link_edges=links, deleted_edges=tuple(sorted(deleted)))


def chain_ecc_oracle(delta: int, g: int, k: int) -> tuple[int, ...]:
    """Eccentricities of ``chain_graph(delta, g, k)`` from four BFS tables of
    one copy, with no BFS over the chain.

    The links are bridges: copy ``i``'s ``b`` joins copy ``i + 1``'s ``a``.
    The end copies are full, and each interior copy lacks the edge ``ab``
    (the cut copy), so crossing one costs ``d_cut(a, b) + 1 = g`` with its
    link.  A vertex ``v`` of interior copy ``i`` reaches farthest into an end
    copy: ``max(d_cut(v, a) + 1 + g(i - 1) + ecc(b), d_cut(v, b) + 1 +
    g(k - 2 - i) + ecc(a))``, where ``ecc`` is taken in the full copy.  An
    end copy takes the one side with full-copy distances, and one copy alone
    is the Moore graph.
    """
    base, spec = eb.moore_catalog(delta, g)
    if k == 1:
        return ecc_oracle(base)
    order = spec.order
    a, b = base.edges[0]
    cut = eb.Graph.from_edges(order, [e for e in base.edges if e != (a, b)])
    full_a, full_b = (multi_source_distances_oracle(base, (s,)) for s in (a, b))
    cut_a, cut_b = (multi_source_distances_oracle(cut, (s,)) for s in (a, b))
    ecc_a, ecc_b = max(full_a), max(full_b)
    cross = cut_a[b] + 1
    ecc = [full_b[v] + 1 + cross * (k - 2) + ecc_a for v in range(order)]
    for i in range(1, k - 1):
        ecc += [max(cut_a[v] + 1 + cross * (i - 1) + ecc_b,
                    cut_b[v] + 1 + cross * (k - 2 - i) + ecc_a) for v in range(order)]
    ecc += [full_a[v] + 1 + cross * (k - 2) + ecc_b for v in range(order)]
    return tuple(ecc)


# ---------------------------------------------------------------------------
# field oracle: the GF(q) tables as two code paths, integers mod q for a prime
# and digits/undigits/poly_mul for q = 4, 8, 9

# x^k rewritten in lower powers: GF(4) x^2=x+1, GF(8) x^3=x+1, GF(9) x^2=2
_REDUCTION_ORACLE = {4: (1, 1), 8: (1, 1, 0), 9: (2, 0)}


def field_tables_oracle(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables for GF(q), elements coded 0..q-1.

    Prime q uses integers mod q; prime powers use polynomials over GF(p)
    coded base-p, reduced by a fixed irreducible polynomial.
    """
    for p in (2, 3, 5, 7):
        if q % p == 0:
            break
    else:
        if q < 2 or any(q % d == 0 for d in range(2, int(q ** 0.5) + 1)):
            raise ValueError(f"q={q} is not a prime power with a known field table")
        p = q
    if q == p:
        add = [[(a + b) % q for b in range(q)] for a in range(q)]
        mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        return add, mul
    if q not in _REDUCTION_ORACLE:
        raise ValueError(f"no field table for q={q}")
    k = 0
    qq = q
    while qq > 1:
        qq //= p
        k += 1

    def digits(x):
        out = []
        for _ in range(k):
            out.append(x % p)
            x //= p
        return out

    def undigits(ds):
        x = 0
        for d in reversed(ds):
            x = x * p + d
        return x

    red = _REDUCTION_ORACLE[q]  # coefficients of x^k in terms of lower powers
    add = [[undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])
            for b in range(q)] for a in range(q)]

    def poly_mul(a, b):
        da, db = digits(a), digits(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for deg in range(2 * k - 2, k - 1, -1):
            coef = prod[deg]
            if coef:
                prod[deg] = 0
                for j, r in enumerate(red):
                    prod[deg - k + j] = (prod[deg - k + j] + coef * r) % p
        return undigits(prod[:k])

    mul = [[poly_mul(a, b) for b in range(q)] for a in range(q)]
    return add, mul


# ---------------------------------------------------------------------------
# line-parser oracle: eccbounds.graph._edge_list_pairs as it was with one
# token block per line kind, and with the ASCII-decimal check skipped on
# text holding no "_" or "+"

# the characters an id or count may hold, and the separators between them
_DECIMAL_CHARS_ORACLE = b"-0123456789"
_ASCII_SPACE_ORACLE = " \t\v\f"


def edge_list_pairs_oracle(text):
    """``(n, pairs)`` of an edge list, or its ``EdgeListParseError``."""
    def unix_breaks(t):
        return t.replace("\r\n", "\n").replace("\r", "\n")

    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = unix_breaks(text[:exc.start].decode("utf-8")).count("\n") + 1
            raise eb.EdgeListParseError(line, "not UTF-8 text") from None
    plain = "_" not in text and "+" not in text
    lines = unix_breaks(text).split("\n")
    if not lines[-1]:
        lines.pop()
    n = m = None
    pairs = []
    listed = 0
    last_line = 0
    for line_no, raw in enumerate(lines, start=1):
        last_line = line_no
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        s = raw.strip(_ASCII_SPACE_ORACLE)
        parts = s.encode("utf-8", "surrogatepass").split()
        if n is None:
            if len(parts) != 2:
                raise eb.EdgeListParseError(line_no, f"expected header 'n m', got {s!r}")
            try:
                if not plain and (parts[0] + parts[1]).strip(_DECIMAL_CHARS_ORACLE):
                    raise ValueError
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise eb.EdgeListParseError(line_no, f"non-integer header {s!r}") from None
            if n < 1:
                raise eb.EdgeListParseError(line_no, f"vertex count must be positive, got {n}")
            if m < 0:
                raise eb.EdgeListParseError(line_no, f"edge count must be nonnegative, got {m}")
            continue
        if len(parts) != 2:
            raise eb.EdgeListParseError(line_no, f"expected edge 'u v', got {s!r}")
        try:
            if not plain and (parts[0] + parts[1]).strip(_DECIMAL_CHARS_ORACLE):
                raise ValueError
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise eb.EdgeListParseError(line_no, f"non-integer edge {s!r}") from None
        listed += 1
        if listed > m:
            raise eb.EdgeListParseError(line_no, f"more than the declared {m} edges")
        if u == v:
            raise eb.EdgeListParseError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise eb.EdgeListParseError(line_no, f"vertex id out of range in edge ({u},{v})")
        pairs.append((u, v))
    if n is None:
        raise eb.EdgeListParseError(max(last_line, 1), "missing 'n m' header")
    if listed < m:
        raise eb.EdgeListParseError(last_line, f"declared {m} edges but found {listed}")
    return n, pairs


class UnionFind:
    """Disjoint sets over ``items`` with no path compression: ``union``
    says whether it merged two sets."""

    def __init__(self, items):
        self.up = {x: x for x in items}

    def find(self, x):
        while self.up[x] != x:
            x = self.up[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        self.up[rb] = ra
        return ra != rb


def cell_weights(members, assignment) -> dict:
    """Cell-size weights ``{u: c(u)}`` on the anchor vertices ``members``:
    ``c(u)`` counts the vertices ``assignment`` maps to ``u``."""
    return {u: sum(a == u for a in assignment) for u in members}


# ---------------------------------------------------------------------------
# certificate oracles: the per-prefix and full-BFS forms that the incremental
# anchor machinery in eccbounds.certify replaces, kept as references

def deterministic_cells_oracle(g: eb.Graph, dist, sources):
    """The cell decomposition ``_deterministic_cells`` draws, in its form
    with explicit ``sources`` and one pass over every vertex sorted by
    ``dist``: roots and parents, ties to the lowest root, then the lowest
    parent."""
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


def replay_path_oracle(g: eb.Graph, dist, target):
    """``_replay_path`` with its own root pass and step rule over the
    shortest-path DAG below ``target``: each DAG vertex's root is the lowest
    source on a shortest path to it, and the path steps from ``target`` to
    the lowest-id neighbour one closer with the same root."""
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


def prefix_connectors_oracle(g: eb.Graph, groups):
    """Middle edges of the anchors' discovery paths, each replayed with a
    fresh cell decomposition of every earlier anchor's vertices; ``None``
    when an anchor touches an earlier one."""
    connectors = []
    for i in range(1, len(groups)):
        prefix = sorted({x for group in groups[:i] for x in group})
        dist = eb.multi_source_distances(g, prefix)
        _, parent = deterministic_cells_oracle(g, dist, prefix)
        target = min(groups[i], key=lambda x: (dist[x], x))
        if dist[target] == 0:
            return None
        path = [target]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        path.reverse()
        t = len(path) - 1
        connectors.append((path[t // 2], path[t // 2 + 1]))
    return connectors


def _fallback_connectors(g: eb.Graph, cell_of: list[int], depth: list[int],
                         cells) -> list[tuple[int, int]]:
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
    uf = UnionFind(cells)
    chosen = []
    for key in sorted(best, key=lambda k: best[k]):
        _, a, b = best[key]
        if uf.union(key[0], key[1]):
            chosen.append((a, b))
    return chosen


def _stitched_tree(g, anchors, cells, cell_of, dist, parent, connectors, extra_edges=()):
    """Parent edges, anchor edges and replayed connectors, or the Kruskal
    fallback when the connectors do not form a quotient spanning tree.  The
    library keeps no fallback: where this one falls back, ``_anchor_tree``
    fails its verification."""
    uf = UnionFind(cells)
    if not (connectors is not None and len(connectors) == len(cells) - 1
            and all(cell_of[x] != cell_of[y] and uf.union(cell_of[x], cell_of[y])
                    for x, y in connectors)):
        connectors = _fallback_connectors(g, cell_of, dist, cells)
    edges = [(v, parent[v]) for v in range(g.n) if parent[v] != -1]
    edges.extend(extra_edges)
    edges.extend(connectors)
    tree = eb.Graph.from_edges(g.n, edges)
    _verify_tree(g, tree, anchors, dist)
    return tree, tuple(connectors)


def anchor_tree_oracle(g: eb.Graph, groups, connectors, dist):
    """``_anchor_tree`` with the tree assembled from its edge list by
    ``Graph.from_edges``, which dedups and sorts the pairs."""
    vertices = sorted({x for group in groups for x in group})
    root, parent = deterministic_cells_oracle(g, dist, vertices)
    anchor_of = {x: i for i, group in enumerate(groups) for x in group}
    cell_of = [anchor_of[root[v]] for v in range(g.n)]
    tree, connectors = _stitched_tree(g, vertices, range(len(groups)), cell_of, dist, parent,
                                      connectors, [group for group in groups if len(group) == 2])
    return tree, tuple(parent), tuple(root), connectors, vertices


def packing_hypothesis_breach_oracle(g: eb.Graph, members):
    """The first of the distinct ``members`` that is not at an odd distance
    from the members before it, or at less than the member before it was,
    each distance from a fresh multi-source BFS; ``None`` when every member
    meets that hypothesis of the proof in ``certify._grow``."""
    last = 1
    for i in range(1, len(members)):
        t = eb.multi_source_distances(g, members[:i])[members[i]]
        if t % 2 == 0 or t < last:
            return members[i]
        last = t
    return None


def packing_tree_oracle(g: eb.Graph, members):
    """``build_spanning_tree_from_packing`` with the per-prefix replay."""
    members = list(members)
    dist = eb.multi_source_distances(g, members)
    root, parent = deterministic_cells_oracle(g, dist, members)
    replayed = prefix_connectors_oracle(g, [(a,) for a in members])
    tree, connectors = _stitched_tree(g, members, members, root, dist, parent, replayed)
    return tree, tuple(parent), tuple(root), connectors


def matching_tree_oracle(g: eb.Graph, members):
    """``_anchor_tree`` on a matching, with the per-prefix replay."""
    vm = sorted({x for e in members for x in e})
    dist = eb.multi_source_distances(g, vm)
    root, parent = deterministic_cells_oracle(g, dist, vm)
    member_of = {x: i for i, e in enumerate(members) for x in e}
    cell_of = [member_of[root[v]] for v in range(g.n)]
    replayed = prefix_connectors_oracle(g, members)
    tree, connectors = _stitched_tree(g, vm, list(range(len(members))), cell_of, dist,
                                      parent, replayed, extra_edges=members)
    return tree, tuple(parent), tuple(root), connectors, vm, dist


def spaced_matching_oracle(g: eb.Graph, girth_value: int):
    """``build_spaced_matching`` with a fresh multi-source BFS per member and
    a max-then-min pair of scans."""
    members = [g.edges[0]]
    while True:
        dist = eb.multi_source_distances(g, {x for e in members for x in e})
        far = [min(dist[u], dist[v]) for u, v in g.edges]
        if max(far) < girth_value - 1:
            return members
        members.append(min(e for e, d in zip(g.edges, far) if d == girth_value - 1))


def packing_checks_oracle(g, members, assignment, c, gi, constants, tree, use_max_degree):
    """The checks ``_checks`` emits for a packing (odd girth), with one full
    BFS per member and the weight rule stated in K, or in K1 and K2.  The
    power check is true: the pipeline raises before a disconnected power."""
    n = g.n
    member_dist = {a: multi_source_distances_oracle(g, (a,)) for a in members}
    spacing_ok = all(member_dist[a][b] >= gi
                     for i, a in enumerate(members) for b in members[i + 1:])
    msd = eb.multi_source_distances(g, members)
    assign_ok = all(assignment[v] in member_dist
                    and member_dist[assignment[v]][v] == msd[v] for v in range(n))
    if use_max_degree:
        k1, k2 = constants["K1"], constants["K2"]
        hub = members[0]
        cells_ok = (c[hub] >= k2
                    and all(c[a] >= k1 for a in members if a != hub))
        extra = (
            StructuralCheck("hub_weight>=K2", c[hub] >= k2,
                            f"c({hub})={c[hub]}, K2={k2}"),
            StructuralCheck("packing_size<=(n-K2)/K1+1",
                            len(members) <= F(n - k2, k1) + 1, f"|A|={len(members)}"),
        )
    else:
        cells_ok = all(c[a] >= constants["K"] for a in members)
        extra = ()
    return (
        StructuralCheck("packing_spacing>=g", spacing_ok),
        StructuralCheck("packing_coverage<=g-1", max(msd) <= gi - 1, f"max dist {max(msd)}"),
        StructuralCheck("assignment_nearest_member", assign_ok),
        StructuralCheck("weight_conservation", sum(c.values()) == n,
                        f"total={sum(c.values())}, n={n}"),
        StructuralCheck("cell_lower_bounds", cells_ok),
        StructuralCheck("tree_spanning",
                        tree.m == n - 1
                        and -1 not in multi_source_distances_oracle(tree, (0,))),
        StructuralCheck("distance_preservation",
                        eb.multi_source_distances(tree, members) == msd),
        StructuralCheck("tree_power_connected", True),
    ) + extra


def matching_checks_oracle(g, members, vm, msd, assignment, c, cbar, gi, constants,
                           tree, use_max_degree):
    """The checks ``_checks`` emits for a matching (even girth), with one
    full BFS per matched vertex and the weight rule stated in L, or in L1
    and L2.  The power check is true, as in ``packing_checks_oracle``."""
    n = g.n
    vert_dist = {u: multi_source_distances_oracle(g, (u,)) for u in vm}
    spacing_ok = all(
        min(vert_dist[x][y] for x in e for y in f) >= gi - 1
        for i, e in enumerate(members) for f in members[i + 1:])
    assign_ok = all(assignment[v] in vert_dist
                    and vert_dist[assignment[v]][v] == msd[v] for v in range(n))
    conserve_ok = (sum((c[u] for u in vm), F(0)) == n
                   and sum(cbar.values(), F(0)) == n)
    if use_max_degree:
        l1, l2 = constants["L1"], constants["L2"]
        hub = members[0]
        edge_ok = (cbar[hub] >= l1 + l2
                   and all(cbar[e] >= 2 * l1 for e in members if e != hub))
        extra = (
            StructuralCheck("hub_edge_weight>=L1+L2", cbar[hub] >= l1 + l2,
                            f"cbar={cbar[hub]}, L1+L2={l1 + l2}"),
            StructuralCheck("matching_size<=(n-L2+L1)/(2L1)",
                            len(members) <= F(n - l2 + l1, 2 * l1), f"|M|={len(members)}"),
        )
    else:
        edge_ok = all(cbar[e] >= constants["L"] for e in members)
        extra = ()
    return (
        StructuralCheck("matching_disjoint", len(vm) == 2 * len(members)),
        StructuralCheck("matching_spacing>=g-1", spacing_ok),
        StructuralCheck("matching_coverage<=g-2",
                        all(min(msd[x], msd[y]) <= gi - 2 for x, y in g.edges)),
        StructuralCheck("assignment_nearest_matched_vertex", assign_ok),
        StructuralCheck("weight_conservation", conserve_ok),
        StructuralCheck("edge_weight_lower_bounds", edge_ok),
        StructuralCheck("tree_spanning",
                        tree.m == n - 1
                        and -1 not in multi_source_distances_oracle(tree, (0,))),
        StructuralCheck("tree_contains_matching", all(tree.has_edge(u, v) for u, v in members)),
        StructuralCheck("distance_preservation", eb.multi_source_distances(tree, vm) == msd),
        StructuralCheck("line_power_connected", True),
    ) + extra


def line_ecc_oracle(tree: eb.Graph) -> dict:
    """Eccentricity of every tree edge in the line graph, one BFS each."""
    line = eb.line_graph(tree)
    return {e: max(multi_source_distances_oracle(line, (i,))) for i, e in enumerate(tree.edges)}


def contracted_power_oracle(g: eb.Graph, anchors, radius: int) -> eb.Graph:
    """Anchor-index graph from one full BFS per anchor."""
    dist = [multi_source_distances_oracle(g, (a,)) for a in anchors]
    k = len(anchors)
    return eb.Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)
                                   if dist[i][anchors[j]] <= radius])


def ball_contracted_power_oracle(g: eb.Graph, anchors, radius: int) -> eb.Graph:
    """``certify._contracted_power`` in its form with one ``ball_oracle``
    dict per anchor and a dict from anchor to index."""
    index = {a: i for i, a in enumerate(anchors)}
    pairs = []
    for i, a in enumerate(anchors):
        for b in ball_oracle(g.adj, a, radius):
            j = index.get(b)
            if j is not None and j > i:
                pairs.append((i, j))
    return eb.Graph.from_edges(len(anchors), pairs)


# ---------------------------------------------------------------------------
# Moore-order oracles: the inline formulas that certify.py and the bound
# evaluators wrote out before eccbounds.bounds held them in one place

def moore_order_oracle(d: int, g: int) -> int:
    """``K`` for odd ``g``, ``L`` for even ``g``."""
    if g % 2:
        return 1 + d * (((d - 1) ** ((g - 1) // 2) - 1) // (d - 2))
    return 2 * (((d - 1) ** (g // 2) - 1) // (d - 2))


def maxdeg_constants_oracle(d: int, D: int, g: int) -> dict:
    """``K1, K2`` for odd ``g``, ``L1, L2`` for even ``g``."""
    if g % 2:
        block = ((d - 1) ** ((g - 1) // 2) - 1) // (d - 2)
        return {"K1": 1 + d * block, "K2": 1 + D * block}
    return {"L1": ((d - 1) ** (g // 2) - 1) // (d - 2),
            "L2": D + (D - 1) * ((d - 1) ** ((g - 2) // 2) - (d - 1)) // (d - 2)}


# ---------------------------------------------------------------------------
# bound oracle: the evaluators as chains of Fraction products and sums, the
# form eccbounds.bounds wrote them in before each closed form became one
# fraction over a common denominator

def _ceil_div_oracle(a: int, b: int) -> int:
    return -(-a // b)


def _eps_oracle(d1: int, d2: int) -> int:
    return d1 * d2 - 2 * (d1 // 2) + 1


def _girth_oracle(p: GraphParams, maxdeg: bool):
    odd, even = (eb.BoundId.THM_GIRTH_MAXDEG_ODD, eb.BoundId.THM_GIRTH_MAXDEG_EVEN) if maxdeg \
        else (eb.BoundId.THM_GIRTH_ODD, eb.BoundId.THM_GIRTH_EVEN)
    if p.g is None:
        return odd, None, {}, False, "girth undefined (forest)"
    bid = odd if p.g % 2 else even
    if maxdeg and p.Delta is None:
        return bid, None, {}, False, "maximum degree not provided"
    if p.delta < 3:
        return bid, None, {}, False, "minimum degree delta >= 3 required"
    n, g = p.n, p.g
    if not maxdeg:
        order = moore_order_oracle(p.delta, g)
        return bid, F(3 * g * _ceil_div_oracle(n, order) + 6 * g - 8, 4), \
            {"K" if g % 2 else "L": order}, True, ""
    constants = maxdeg_constants_oracle(p.delta, p.Delta, g)
    (_, c1), (name2, c2) = constants.items()
    if n <= c2:
        return bid, None, constants, False, f"order n={n} must exceed {name2}={c2}"
    spread = 1 + F(c2 - c1, 3 * n)
    if g % 2:
        value = F(3 * g, 4) * F(n - c2, c1) * spread + (3 * g - 2)
    else:
        value = F(3 * g, 4) * F(n - c2, 2 * c1) * spread + F(21 * g - 16, 8)
    return bid, value, constants, True, ""


def _legacy_oracle(p: GraphParams, bid):
    n, delta, Delta, g = p.n, p.delta, p.Delta, p.g
    B = eb.BoundId
    gates = {
        B.EQ1: [(delta < 2, "minimum degree delta >= 2 required")],
        B.EQ2: [(g is None or g < 4, "girth >= 4 (triangle-free) required")],
        B.EQ3: [(g is None or g < 5, "girth >= 5 (triangle- and C4-free) required")],
        B.EQ4: [(g is None or g < 6, "girth >= 6 required")],
        B.EQ5: [(g is None or g < 6, "girth >= 6 (C4- and C5-free) required")],
        B.EQ6: [(Delta is None, "maximum degree not provided"),
                (delta < 2, "minimum degree delta >= 2 required")],
        B.EQ7: [(Delta is None, "maximum degree not provided"),
                (g is None or g < 4, "girth >= 4 (triangle-free) required")],
        B.EQ8: [(Delta is None, "maximum degree not provided"),
                (g is None or g < 5, "girth >= 5 (triangle- and C4-free) required")],
    }
    for failed, reason in gates[bid]:
        if failed:
            return bid, None, {}, False, reason
    constants = {}
    if bid is B.EQ1:
        value = F(9 * n + 15 * (delta + 1), 4 * (delta + 1))
    elif bid is B.EQ2:
        value = F(3 * _ceil_div_oracle(n, 2 * delta) + 5)
    elif bid is B.EQ3:
        eps = _eps_oracle(delta, delta)
        constants = {"eps_delta": eps}
        value = F(15 * _ceil_div_oracle(n, eps), 4) + F(11, 2)
    elif bid is B.EQ4:
        value = F(9 * _ceil_div_oracle(n, 2 * delta * delta - 2 * delta + 2), 2) + 8
    elif bid is B.EQ5:
        value = F(9 * _ceil_div_oracle(n, 2 * delta * delta - 5 * delta + 5), 2) + 8
    elif bid is B.EQ6:
        value = F(9 * (n - Delta - 1), 4 * (delta + 1)) * (1 + F(Delta - delta, 3 * n)) + 7
    elif bid is B.EQ7:
        value = F(3 * (n - Delta), 2 * delta) * (1 + F(Delta - delta, 3 * n)) + F(19, 2)
    else:
        eps_D, eps_d = _eps_oracle(Delta, delta), _eps_oracle(delta, delta)
        constants = {"eps_Delta": eps_D, "eps_delta": eps_d}
        value = (F(15, 4) * F(n - eps_D + eps_d, eps_d)
                 * (1 + F(eps_D - eps_d, 3 * n)) + F(37, 4))
    return bid, value, constants, True, ""


def bound_value_oracle(kind, p: GraphParams, k: int | None = None):
    """The stepwise evaluators: ``(bound, value, constants, applicable,
    reason)`` for a ``BoundId`` kind, where a girth id stands for its
    parity pair, or the chain lower bound for kind ``"LowerChain"`` and copy
    count ``k``. Raises where the evaluator raises."""
    B = eb.BoundId
    if kind == "LowerChain":
        if p.g is None:
            raise ValueError("girth required")
        if k < 1:
            raise ValueError("copy count must be positive")
        if p.delta < 3 or p.n != k * moore_order_oracle(p.delta, p.g):
            raise ValueError("not a Moore chain order")
        order = moore_order_oracle(p.delta, p.g)
        tail = F(1, 2) if p.g % 2 else F(3, 2)
        return F(3 * p.g * p.n, 4 * order) - p.g + tail
    if kind in (B.THM_GIRTH_ODD, B.THM_GIRTH_EVEN):
        return _girth_oracle(p, maxdeg=False)
    if kind in (B.THM_GIRTH_MAXDEG_ODD, B.THM_GIRTH_MAXDEG_EVEN):
        return _girth_oracle(p, maxdeg=True)
    return _legacy_oracle(p, kind)


def random_connected(rng: random.Random, n: int, extra_edges: int = 0) -> eb.Graph:
    """Random tree plus extra random edges; always connected."""
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            pairs.append((min(u, v), max(u, v)))
    return eb.Graph.from_edges(n, pairs)


def caterpillar(s: int) -> eb.Graph:
    """The tree on ``2s`` vertices with spine ``0..s-1`` and leaf ``s + i``
    hung on spine vertex ``i``."""
    return eb.Graph.from_edges(2 * s, [(i, i + 1) for i in range(s - 1)]
                               + [(i, s + i) for i in range(s)])


def caterpillar_with_triangle(s: int, a: int) -> eb.Graph:
    """``caterpillar(s)`` plus the edge from spine vertex ``a`` to the leaf of
    spine vertex ``a + 1``, closing the triangle ``a, a + 1, s + a + 1``."""
    c = caterpillar(s)
    return eb.Graph.from_edges(c.n, c.edges + ((a, s + a + 1),))


@st.composite
def cored_graphs(draw, cycles: int = 3, scale: int = 1):
    """Graphs on shuffled ids built from 1 to ``cycles`` cycles, joined by
    chords, with pendant trees and paths hung on them: the cycles can sit
    above long tree parts while ``m >= n``.  ``scale`` multiplies the longest
    cycle (8), path (15) and tree (10 vertices); with ``cycles=1`` the graph
    is connected."""
    pairs, n = [], 0
    for _ in range(draw(st.integers(1, cycles))):
        k = draw(st.integers(3, 8 * scale))
        pairs += [(n + i, n + (i + 1) % k) for i in range(k)]
        n += k
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        pairs.append((u, v))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, n - 1))
        if draw(st.booleans()):  # a path hung at one vertex
            length = draw(st.integers(1, 15 * scale))
            pairs += [(at if i == 0 else n + i - 1, n + i) for i in range(length)]
            n += length
        else:  # a tree, each new vertex hung on an earlier one of it
            size = draw(st.integers(1, 10 * scale))
            pairs += [(draw(st.sampled_from([at] + list(range(n, n + i)))), n + i)
                      for i in range(size)]
            n += size
    ids = draw(st.permutations(range(n)))
    return eb.Graph.from_edges(n, [(ids[u], ids[v]) for u, v in pairs])


# ---------------------------------------------------------------------------
# fixed corpora

def named_small():
    """Hand-picked graphs spanning the shapes the operations care about."""
    return [
        ("P1", eb.path_graph(1)),
        ("P2", eb.path_graph(2)),
        ("P5", eb.path_graph(5)),
        ("P9", eb.path_graph(9)),
        ("C5", eb.cycle_graph(5)),
        ("C6", eb.cycle_graph(6)),
        ("C9", eb.cycle_graph(9)),
        ("K4", eb.complete_graph(4)),
        ("K5", eb.complete_graph(5)),
        ("K33", eb.complete_bipartite(3, 3)),
        ("K14", eb.complete_bipartite(1, 4)),
        ("Petersen", eb.petersen_graph()),
        ("Heawood", eb.heawood_graph()),
    ]


@pytest.fixture(scope="session")
def small_graphs():
    return named_small()


def generate_corpus(configs, parity: int, use_max_degree_too: bool = True):
    """Deterministic generated corpus with certificates.

    ``configs`` is a list of (delta, girth_floor, n_lo, n_hi, count); graphs
    whose measured girth has the wrong parity are regenerated under a bumped
    seed.  Returns a list of record dicts.
    """
    records = []
    for (delta, gfloor, lo, hi, count) in configs:
        for i in range(count):
            n = lo + i * (hi - lo) // max(count - 1, 1)
            produced = None
            for bump in range(12):
                seed = 90_000 + 137 * i + 10_000_000 * bump + 1000 * delta + gfloor
                out = eb.random_min_degree_girth(
                    eb.GeneratorConfig(n=n, delta=delta, g=gfloor, seed=seed))
                if isinstance(out, eb.GenerationFailure):
                    continue
                if eb.girth(out) % 2 == parity:
                    produced = out
                    break
            assert produced is not None, f"could not generate (delta={delta}, g={gfloor}, n={n})"
            gi = eb.girth(produced)
            certify = eb.certify_odd if parity == 1 else eb.certify_even
            record = {
                "graph": produced,
                "girth": gi,
                "params": GraphParams(n=produced.n, delta=produced.min_degree(),
                                      Delta=produced.max_degree(), g=gi),
                "cert": certify(produced),
                "certmax": certify(produced, use_max_degree=True) if use_max_degree_too else None,
                "requested": (delta, gfloor, n),
            }
            records.append(record)
    return records


ODD_CONFIGS = [
    (3, 5, 30, 150, 60),
    (3, 7, 40, 200, 50),
    (4, 5, 30, 150, 60),
    (4, 7, 160, 280, 30),
]

EVEN_CONFIGS = [
    (3, 4, 20, 150, 100),
    (3, 6, 30, 200, 100),
]


@pytest.fixture(scope="session")
def odd_corpus():
    start = time.perf_counter()
    records = generate_corpus(ODD_CONFIGS, parity=1)
    return {"records": records, "build_seconds": time.perf_counter() - start}


@pytest.fixture(scope="session")
def even_corpus():
    start = time.perf_counter()
    records = generate_corpus(EVEN_CONFIGS, parity=0)
    return {"records": records, "build_seconds": time.perf_counter() - start}
