"""Named small graphs and randomized (delta, girth)-constrained generation.

Every randomized output is re-verified before it is returned: connectivity,
minimum degree, and girth are measured again with the independent graph
primitives, and a failed search comes back as a :class:`GenerationFailure`
value with its attempt statistics instead of a silently wrong graph.
"""
from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import combinations, product

from .graph import Graph, girth, is_connected


# ---------------------------------------------------------------------------
# named constructions

def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.from_edges(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with part ids 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    """Kneser construction: 2-subsets of a 5-set, adjacent iff disjoint."""
    subsets = list(combinations(range(5), 2))
    idx = {s: i for i, s in enumerate(subsets)}
    pairs = [(idx[s], idx[t]) for s, t in combinations(subsets, 2)
             if not set(s) & set(t)]
    return Graph.from_edges(10, pairs)


def heawood_graph() -> Graph:
    """Point-line incidence graph of the order-2 projective plane."""
    return projective_plane_incidence(2)


def hoffman_singleton_graph() -> Graph:
    """Robertson's pentagon-pentagram construction.

    Pentagon P_h vertex j is id 5*h + j; pentagram Q_i vertex j is
    id 25 + 5*i + j.  P_h(j) ~ P_h(j +- 1), Q_i(j) ~ Q_i(j +- 2), and
    P_h(j) ~ Q_i(h*i + j mod 5).  7-regular on 50 vertices with girth 5.
    """
    pairs = []
    for h in range(5):
        for j in range(5):
            pairs.append((5 * h + j, 5 * h + (j + 1) % 5))
    for i in range(5):
        for j in range(5):
            pairs.append((25 + 5 * i + j, 25 + 5 * i + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                pairs.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return Graph.from_edges(50, pairs)


# ---------------------------------------------------------------------------
# small finite fields and projective-plane incidence graphs

# x^k rewritten in lower powers, coefficients of x^(k-1) down to x^0:
# GF(4) x^2=x+1, GF(8) x^3=x+1, GF(9) x^2=2; a prime field is k=1 with x^1=0
_REDUCTION = {4: (1, 1), 8: (0, 1, 1), 9: (0, 2)}


def _field_tables(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables for GF(q), elements coded 0..q-1.

    An element is a polynomial over GF(p) of degree below k, its code the
    base-p number of its digit vector (highest power first), and x^k is
    rewritten by a fixed irreducible polynomial; a prime q is the one-digit
    case.  A product is Horner's rule: shift by x and reduce, add a digit.
    """
    p = next((d for d in (2, 3, 5, 7) if q % d == 0), q)
    if p == q:
        if q < 2 or any(q % d == 0 for d in range(2, int(q ** 0.5) + 1)):
            raise ValueError(f"q={q} is not a prime power with a known field table")
        red = (0,)
    elif (red := _REDUCTION.get(q)) is None:
        raise ValueError(f"no field table for q={q}")
    vec = list(product(range(p), repeat=len(red)))  # each code's digits, once
    code = {v: i for i, v in enumerate(vec)}

    def mul(u, v):  # r = x*r + d*u over v's digits d, x^k rewritten by red
        r = [0] * len(red)
        for d in v:
            r = [(a + r[0] * c + d * b) % p for a, c, b in zip(r[1:] + [0], red, u)]
        return code[tuple(r)]

    add = [[code[tuple([(a + b) % p for a, b in zip(u, v)])] for v in vec] for u in vec]
    return add, [[mul(u, v) for v in vec] for u in vec]


def projective_plane_incidence(q: int) -> Graph:
    """Bipartite point-line incidence graph of the order-q projective plane.

    Points are ids 0..q^2+q, lines q^2+q+1..2(q^2+q+1)-1; a point lies on a
    line iff the dot product of their coordinate triples vanishes in GF(q).
    The result is (q+1)-regular with girth 6 on 2(q^2+q+1) vertices.
    """
    add, mul = _field_tables(q)
    pts: list[tuple[int, int, int]] = []
    for y in range(q):
        for z in range(q):
            pts.append((1, y, z))
    for z in range(q):
        pts.append((0, 1, z))
    pts.append((0, 0, 1))
    count = q * q + q + 1
    assert len(pts) == count
    pairs = []
    for i, (x, y, z) in enumerate(pts):
        for j, (a, b, c) in enumerate(pts):
            s = add[add[mul[a][x]][mul[b][y]]][mul[c][z]]
            if s == 0:
                pairs.append((i, count + j))
    return Graph.from_edges(2 * count, pairs)


# ---------------------------------------------------------------------------
# randomized generation with degree and girth constraints

@dataclass(frozen=True)
class GeneratorConfig:
    """Target order, minimum degree, girth floor, and search budgets.

    Each restart gets ``50 * n`` edge attempts.  The same seed always
    yields the same graph (or the same failure).  Note that an order at
    least the minimum for (delta, g) is necessary but nowhere near
    sufficient; infeasible or tight configurations simply exhaust their
    budgets and come back as failures.
    """

    n: int
    delta: int
    g: int
    seed: int
    max_restarts: int = 50

    def attempts_budget(self) -> int:
        return 50 * self.n


@dataclass(frozen=True)
class GenerationFailure:
    """All restarts exhausted; carries the attempt statistics."""

    config: GeneratorConfig
    restarts: int
    attempts: int
    reason: str


def random_min_degree_girth(cfg: GeneratorConfig) -> Graph | GenerationFailure:
    """Connected graph with min degree >= delta and girth >= g, or a failure;
    see :func:`generate_measured`."""
    out = generate_measured(cfg)
    return out if isinstance(out, GenerationFailure) else out[0]


def generate_measured(cfg: GeneratorConfig) -> tuple[Graph, int | None] | GenerationFailure:
    """Connected graph with min degree >= delta and girth >= g, or a failure.

    Incremental girth-guarded edge addition: repeatedly pick a random vertex
    of least degree among those still short of ``delta``, draw a partner
    among the other deficient vertices at distance at least ``g - 1`` from it
    (so no short cycle closes; any vertex at that distance once no deficient
    one is left), and add the edge.  Stagnation triggers a restart with a
    fresh seed-derived stream.  Once degrees are satisfied the components are
    bridged (bridges lie on no cycle, so the girth floor survives); the
    output is then re-verified from scratch, and its measured girth is
    returned with it.

    An attempt costs O(ball), the girth-guard ball around ``u``, not O(n).
    The ball is a BFS to depth ``g - 2`` that stamps the vertices it reaches
    with the attempt number in one ``seen`` list per restart, so no set or
    dict is built, and the degrees live in one ``deg`` list.  The deficient
    vertices are kept in one sorted list per degree below ``delta`` and one
    sorted list of all of them, updated with ``bisect`` as edges land.  The
    partner's index into the pool (the deficient list, or every vertex once
    the ball holds all of those) is drawn with ``rng.randrange`` over the
    pool's size less the ball members in it.  It is then stepped past those
    members in ascending id order: the pool is ascending and holds each of
    them, so a member ``x`` sits at or before index ``j`` exactly when ``x <=
    pool[j]``, and no member's index is looked up.  ``randrange(size)``
    consumes the stream as ``rng.choice`` does over a sequence of that
    length, so a seed gives the same graph, or the same failure, draw for
    draw as the O(n)-per-attempt formulation that filters the lists and
    calls ``rng.choice``.
    """
    if cfg.delta < 2 or cfg.g < 3 or cfg.n < cfg.delta + 1:
        raise ValueError("need delta >= 2, g >= 3, n >= delta + 1")
    if cfg.max_restarts < 1:
        raise ValueError("need max_restarts >= 1")
    n, delta, radius = cfg.n, cfg.delta, cfg.g - 2
    budget = cfg.attempts_budget()
    total_attempts = 0
    everyone = range(n)

    for restart in range(cfg.max_restarts):
        rng = random.Random(f"{cfg.seed}:{restart}")
        adj: list[list[int]] = [[] for _ in range(n)]
        deg = [0] * n
        seen = [0] * n  # the last attempt whose ball reached the vertex
        deficient = list(everyone)
        by_deg = [deficient.copy()] + [[] for _ in range(delta - 1)]
        attempts = 0
        stalls = 0
        wedged = False
        while deficient:
            if attempts >= budget or stalls > 25:
                wedged = True
                break
            attempts += 1
            # keep the degree distribution flat: fill the neediest vertices first
            for bucket in by_deg:
                if bucket:
                    break
            u = rng.choice(bucket)
            # the ball of radius g - 2: an edge into it closes a short cycle
            seen[u] = attempts
            near = [u]
            skip = [u]  # the members short of delta; u came from a bucket
            level = 0
            for _ in range(radius):
                top = len(near)
                for x in near[level:top]:
                    for y in adj[x]:
                        if seen[y] != attempts:
                            seen[y] = attempts
                            near.append(y)
                            if deg[y] < delta:
                                skip.append(y)
                if len(near) == top:
                    break
                level = top
            pool = deficient
            if len(skip) == len(deficient):
                # endgame relaxation: a partner that already met its quota
                # only gains degree, and the distance guard still holds
                skip, pool = near, everyone
            size = len(pool) - len(skip)
            if not size:
                stalls += 1
                continue
            stalls = 0
            skip.sort()
            j = rng.randrange(size)
            for x in skip:
                if x > pool[j]:
                    break
                j += 1
            v = pool[j]
            for x in (u, v):
                d = deg[x]
                deg[x] = d + 1
                if d < delta:
                    bucket = by_deg[d]
                    del bucket[bisect_left(bucket, x)]
                    if d + 1 < delta:
                        insort(by_deg[d + 1], x)
                    else:
                        del deficient[bisect_left(deficient, x)]
            adj[u].append(v)
            adj[v].append(u)
        total_attempts += attempts
        if wedged:
            continue

        # bridge components at their least vertices; new edges cannot create
        # cycles.  A stamp of -1 marks the vertices already in a component.
        roots = []
        for s in everyone:
            if seen[s] != -1:
                roots.append(s)
                seen[s] = -1
                reached = [s]  # also the BFS queue
                for x in reached:
                    for y in adj[x]:
                        if seen[y] != -1:
                            seen[y] = -1
                            reached.append(y)
        for r in roots[1:]:
            adj[roots[0]].append(r)
            adj[r].append(roots[0])
        for around in adj:
            around.sort()

        g_out = Graph._from_ascending(adj)
        measured = girth(g_out)
        if (is_connected(g_out) and g_out.min_degree() >= delta
                and (measured is None or measured >= cfg.g)):
            return g_out, measured
        # a constraint failed re-verification; treat like a stall and restart

    return GenerationFailure(config=cfg, restarts=cfg.max_restarts,
                             attempts=total_attempts,
                             reason="edge-addition search stagnated in every restart")


def emit_edge_list(g: Graph, cfg: GeneratorConfig | None = None) -> str:
    """Standard edge-list text; generated graphs carry a provenance comment."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    if cfg is not None:
        lines.append(f"# seed={cfg.seed} delta={cfg.delta} g={cfg.g}")
    return "\n".join(lines) + "\n"
