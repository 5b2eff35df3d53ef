"""Immutable simple graphs with exact distance and eccentricity machinery.

Vertices are dense integer ids ``0..n-1``; adjacency lists are kept sorted so
every derived object is reproducible.  Averages are exact
:class:`fractions.Fraction` values end to end; floats only appear when a
caller renders a report.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

UNREACHABLE = -1


class EdgeListParseError(ValueError):
    """Malformed edge-list input.  ``line`` is the offending 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedGraphError(ValueError):
    """Raised by operations whose value is undefined off connected graphs."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, no parallel edges.

    ``edges`` holds each edge once as a sorted pair, lexicographically
    ordered; ``adj`` holds sorted neighbor tuples.  Instances are immutable
    and safe to share between concurrent readers.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        """Build a graph on ``n`` vertices, silently deduplicating ``pairs``."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            seen.add((u, v) if u < v else (v, u))
        edges = tuple(sorted(seen))
        neigh: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            neigh[u].append(v)
            neigh[v].append(u)
        adj = tuple(tuple(sorted(a)) for a in neigh)
        return Graph(n=n, edges=edges, adj=adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("degree undefined on the empty graph")
        return min(len(a) for a in self.adj)

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("degree undefined on the empty graph")
        return max(len(a) for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges]}


@dataclass(frozen=True)
class EccentricityProfile:
    """Per-vertex eccentricities plus the derived summary statistics.

    ``avec`` is the exact mean ``total / n``; the invariants
    ``radius <= avec <= diameter`` and ``diameter <= 2 * radius`` hold for
    every connected graph.
    """

    ecc: tuple[int, ...]
    total: int
    avec: Fraction
    radius: int
    diameter: int


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative exact weights (ints or :class:`Fraction` values) indexed
    by vertex id."""

    weights: tuple[int | Fraction, ...]

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")

    @property
    def total(self) -> int | Fraction:
        return sum(self.weights)

    @staticmethod
    def uniform(n: int) -> "WeightFunction":
        return WeightFunction(tuple(Fraction(1) for _ in range(n)))

    @staticmethod
    def from_map(n: int, mapping) -> "WeightFunction":
        """Dense weight vector from a ``vertex -> weight`` mapping; missing
        vertices get weight 0."""
        vals = [0] * n
        for v, w in mapping.items():
            vals[v] = w
        return WeightFunction(tuple(vals))


def parse_edge_list(text) -> Graph:
    """Parse the plain edge-list format.

    The first non-comment line is ``"n m"``; the next ``m`` non-comment lines
    are ``"u v"`` with ``0 <= u,v < n`` and ``u != v``.  Lines starting with
    ``#`` are comments.  Repeated edges are silently deduplicated; self-loops
    and malformed or out-of-range lines raise :class:`EdgeListParseError`
    naming the line.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    n = m = None
    pairs: list[tuple[int, int]] = []
    listed = 0
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if n is None:
            if len(parts) != 2:
                raise EdgeListParseError(line_no, f"expected header 'n m', got {s!r}")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError(line_no, f"non-integer header {s!r}") from None
            if n < 1:
                raise EdgeListParseError(line_no, f"vertex count must be positive, got {n}")
            if m < 0:
                raise EdgeListParseError(line_no, f"edge count must be nonnegative, got {m}")
            continue
        if len(parts) != 2:
            raise EdgeListParseError(line_no, f"expected edge 'u v', got {s!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer edge {s!r}") from None
        listed += 1
        if listed > m:
            raise EdgeListParseError(line_no, f"more than the declared {m} edges")
        if u == v:
            raise EdgeListParseError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(line_no, f"vertex id out of range in edge ({u},{v})")
        pairs.append((u, v))
    if n is None:
        raise EdgeListParseError(max(last_line, 1), "missing 'n m' header")
    if listed < m:
        raise EdgeListParseError(last_line, f"declared {m} edges but found {listed}")
    return Graph.from_edges(n, pairs)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from ``source``; unreachable vertices get ``UNREACHABLE``."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    return multi_source_distances(g, (source,))


def multi_source_distances(g: Graph, sources) -> list[int]:
    """Hop distance to the nearest of ``sources`` (simultaneous BFS)."""
    q = deque(sorted(set(sources)))
    if not q:
        raise ValueError("sources must be nonempty")
    dist = [UNREACHABLE] * g.n
    for s in q:
        dist[s] = 0
    adj = g.adj
    while q:
        u = q.popleft()
        du1 = dist[u] + 1
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du1
                q.append(v)
    return dist


def ball(adj, source: int, radius: int) -> dict[int, int]:
    """Distances from ``source`` to the vertices within ``radius`` hops of it,
    over the adjacency lists (or sets) ``adj``: a BFS truncated at ``radius``."""
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


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return UNREACHABLE not in bfs_distances(g, 0)


def eccentricity_profile(g: Graph) -> EccentricityProfile:
    """Exact eccentricities of every vertex; raises on disconnected input.

    A BFS from vertex 0 checks connectivity.  Trees (``m == n - 1``) then
    take the double sweep: with ``a`` farthest from 0 and ``b`` farthest
    from ``a``, the path ``a..b`` is a diameter and ``ecc(v) =
    max(d(a, v), d(b, v))``, so two more BFS runs replace n of them.  Every
    other graph takes the bit-parallel frontier expansion of
    :func:`_bitset_eccentricities`.
    """
    if g.n == 0:
        raise ValueError("eccentricity undefined on the empty graph")
    first = bfs_distances(g, 0)
    if UNREACHABLE in first:
        raise DisconnectedGraphError("eccentricity undefined: graph is disconnected")
    if g.m == g.n - 1:
        from_a = bfs_distances(g, first.index(max(first)))
        from_b = bfs_distances(g, from_a.index(max(from_a)))
        ecc = [max(da, db) for da, db in zip(from_a, from_b)]
    else:
        ecc = _bitset_eccentricities(g)
    total = sum(ecc)
    return EccentricityProfile(
        ecc=tuple(ecc),
        total=total,
        avec=Fraction(total, g.n),
        radius=min(ecc),
        diameter=max(ecc),
    )


def _bitset_eccentricities(g: Graph) -> list[int]:
    """Eccentricities of a connected graph by bit-parallel BFS from every
    vertex at once (Akiba, Iwata and Yoshida, SIGMOD 2013).

    ``reach[v]`` is a Python int whose bit ``u`` is set iff ``d(v, u) <= r``
    after round ``r``; a round ORs each vertex's set with its neighbours'
    sets from the round before.  ``ecc(v)`` is the first round at which
    ``reach[v]`` holds every vertex, and a full vertex leaves the active list
    (its set stays full, as every later ball is).
    """
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    ecc = [0] * n
    active = list(range(n))  # n >= 3 here: trees take the double sweep
    r = 0
    while active:
        r += 1
        prev = reach.copy()
        still = []
        for v in active:
            acc = prev[v]
            for u in adj[v]:
                acc |= prev[u]
            reach[v] = acc
            if acc == full:
                ecc[v] = r
            else:
                still.append(v)
        active = still
    return ecc


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or ``None`` for a forest.

    Per-root BFS restricted to the vertices above the root (Itai and Rodeh,
    *Finding a minimum circuit in a graph*, SIAM J. Comput. 1978): the BFS
    from ``r`` skips every neighbour ``v < r``.  A non-tree edge seen from
    ``r`` closes a walk of length ``dist[u] + dist[v] + 1`` that contains a
    cycle no longer than itself, so every value found is an upper bound.  A
    shortest cycle lies in the subgraph above its least vertex ``r``, and the
    BFS from ``r`` there finds a walk of exactly its length.  A root with at
    most one neighbour above it lies on no cycle of its subgraph and is
    skipped.  One ``dist``/``parent`` pair serves every root: only the
    vertices a root's BFS reached are reset.  Overall O(n*m).
    """
    best: int | None = None
    adj = g.adj
    dist = [UNREACHABLE] * g.n
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
                if dist[v] == UNREACHABLE:
                    dist[v] = du + 1
                    parent[v] = u
                    reached.append(v)
                elif parent[u] != v and parent[v] != u:
                    c = du + dist[v] + 1
                    if best is None or c < best:
                        best = c
        for x in reached:
            dist[x] = UNREACHABLE
    return best


def path_avec_closed_form(n: int) -> Fraction:
    """Exact average eccentricity of the path on ``n`` vertices.

    Equals ``(1/n) * floor(3n^2/4 - n/2)``, the extremal value among all
    connected graphs of order ``n``.
    """
    if n < 1:
        raise ValueError("path order must be at least 1")
    return Fraction((3 * n * n - 2 * n) // 4, n)


def weighted_avec(g: Graph, c: WeightFunction) -> Fraction:
    """Average eccentricity with vertex ``v`` counted with weight ``c(v)``."""
    if len(c.weights) != g.n:
        raise ValueError("weight vector length must equal the vertex count")
    total_weight = c.total
    if total_weight <= 0:
        raise ValueError("total weight must be positive")
    prof = eccentricity_profile(g)
    acc = Fraction(0)
    for v, w in enumerate(c.weights):
        if w:
            acc += w * prof.ecc[v]
    return acc / total_weight


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph plus the edge-id to vertex-pair table.

    Vertex ``i`` of the result is ``g.edges[i]``; two vertices are adjacent
    iff the underlying edges share an endpoint.
    """
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(g.edges):
        incident[u].append(idx)
        incident[v].append(idx)
    pairs: list[tuple[int, int]] = []
    for ids in incident:
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                pairs.append((ids[i], ids[j]))
    # distinct edges share at most one endpoint, so no pair repeats
    return Graph.from_edges(len(g.edges), pairs), g.edges
