"""Immutable simple graphs with exact distance and eccentricity machinery.

Vertices are dense integer ids ``0..n-1``; adjacency lists are kept sorted so
every derived object is reproducible.  Averages are exact
:class:`fractions.Fraction` values end to end; floats only appear when a
caller renders a report.
"""
from __future__ import annotations

import operator
import re
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction

UNREACHABLE = -1


class EdgeListParseError(ValueError):
    """Malformed edge-list input.  ``line`` is the offending 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedGraphError(ValueError):
    """Raised by operations whose value is undefined off connected graphs."""


class Graph(namedtuple("Graph", "n edges adj")):
    """Simple undirected graph: no self-loops, no parallel edges.

    ``edges`` holds each edge once as a sorted pair, lexicographically
    ordered; ``adj`` holds sorted neighbor tuples.  Instances are immutable
    and safe to share between concurrent readers.
    """

    __slots__ = ()

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
        return Graph._from_sorted_edges(n, sorted(seen))

    @staticmethod
    def _from_sorted_edges(n: int, edges) -> "Graph":
        """Build a graph from distinct pairs ``u < v < n`` in ascending order,
        for builders that hold them; nothing is checked."""
        neigh: list[list[int]] = [[] for _ in range(n)]
        # each list fills ascending, with no sort: x gets every w < x from the
        # edges (w, x), ascending in w, before the edges (x, y), ascending in y
        for u, v in edges:
            neigh[u].append(v)
            neigh[v].append(u)
        return Graph(n=n, edges=tuple(edges), adj=tuple(map(tuple, neigh)))

    @staticmethod
    def _from_ascending(adj) -> "Graph":
        """Build a graph from symmetric adjacency lists that are already
        ascending, for builders that hold them; nothing is checked.  ``edges``
        is read off the lists: vertex ``u``'s neighbours above ``u``, in order."""
        adj = tuple(map(tuple, adj))
        edges = tuple([(u, v) for u, around in enumerate(adj) for v in around if v > u])
        return Graph(n=len(adj), edges=edges, adj=adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("degree undefined on the empty graph")
        return min(len(a) for a in self.adj)

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("degree undefined on the empty graph")
        return max(len(a) for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are adjacent; ``False`` for an id outside ``0..n-1``."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges]}


class EccentricityProfile(namedtuple("EccentricityProfile", "ecc total avec radius diameter")):
    """Per-vertex eccentricities plus the derived summary statistics.

    ``avec`` is the exact mean ``total / n``; the invariants
    ``radius <= avec <= diameter`` and ``diameter <= 2 * radius`` hold for
    every connected graph.
    """

    __slots__ = ()


class WeightFunction(namedtuple("WeightFunction", "weights")):
    """Nonnegative exact weights (ints or :class:`Fraction` values) indexed
    by vertex id, checked on construction."""

    __slots__ = ()

    def __new__(cls, weights):
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        return tuple.__new__(cls, (weights,))

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def total(self) -> int | Fraction:
        return sum(self.weights)


def parse_edge_list(text) -> Graph:
    """Parse the plain edge-list format.

    The first non-comment line is ``"n m"``; the next ``m`` non-comment lines
    are ``"u v"`` with ``0 <= u,v < n`` and ``u != v``.  Lines starting with
    ``#`` are comments.  Repeated edges are silently deduplicated; self-loops
    and malformed or out-of-range lines raise :class:`EdgeListParseError`
    naming the line, as do bytes that are not UTF-8.  Lines end at ``\\n``,
    ``\\r\\n`` or ``\\r``, ids and counts are ASCII decimals with an
    optional ``-``, and they are separated by ASCII whitespace only: space,
    ``\\t``, ``\\v`` and ``\\f``.  A line that is blank or a comment once
    stripped of any whitespace, Unicode spaces included, is skipped.
    """
    g = _emitted_graph(text)
    return g if g is not None else Graph.from_edges(*_edge_list_pairs(text))


# what emit_edge_list writes: a header line, one line per edge and at most
# one comment line at the end, in printable ASCII, every line ending in \n
_EMITTED = re.compile(rb"(?:[0-9]+ [0-9]+\n)+(?:#[ -~]*\n)?")
# int() of a bytes token also reads "_" and "+", which ids and counts may
# not hold: tokens that strip to nothing by these and that int() takes are
# ASCII decimals "-?[0-9]+"
_DECIMAL_CHARS = b"-0123456789"
# ids and counts are separated by ASCII whitespace only, as bytes.split()
# takes it: a header or edge line is split as bytes and stripped of this for
# its messages (str.split() and str.strip() also take \x1c-\x1f and the
# non-ASCII spaces)
_ASCII_SPACE = " \t\v\f"


def _emitted_graph(text) -> Graph | None:
    """The graph of ``text`` when it is an edge list as :func:`emit_edge_list`
    writes it, else ``None``: the fast path of :func:`parse_edge_list`.

    Accepted is a header ``n m`` with ``n >= 1`` and ``m >= n - 1``, then
    exactly ``m`` pairs ``0 <= u < v < n`` in strictly increasing order, one
    per ``\\n``-ended line, and at most one printable-ASCII comment line at
    the end.  Such text repeats no edge, so the adjacency lists fill with no
    dedup set and no sort, and :func:`_edge_list_pairs` reads the same graph
    from it.  Everything else, every malformed text included, is left to
    that line parser and its diagnostics.
    """
    if isinstance(text, str):
        if not text.isascii():
            return None
        text = text.encode()
    if not _EMITTED.fullmatch(text):
        return None
    comment = text.find(b"#")
    try:
        tokens = list(map(int, (text if comment < 0 else text[:comment]).split()))
    except ValueError:  # a number past CPython's digit limit for int
        return None
    n, m = tokens[0], tokens[1]
    if n < 1 or m < n - 1 or len(tokens) != 2 * m + 2:
        return None
    us, vs = tokens[2::2], tokens[3::2]
    edges = list(zip(us, vs))
    if not (all(map(operator.lt, us, vs)) and max(vs, default=0) < n
            and all(map(operator.lt, edges, edges[1:]))):
        return None
    return Graph._from_sorted_edges(n, edges)


def _unix_breaks(text: str) -> str:
    """``text`` with every ``\\r\\n`` and lone ``\\r`` made a ``\\n``: the only
    line breaks of an edge list (``str.splitlines`` also breaks at ``\\f``,
    ``\\v``, ``\\x1c``-``\\x1e``, ``\\x85``, U+2028 and U+2029)."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _edge_list_pairs(text) -> tuple[int, list[tuple[int, int]]]:
    """:func:`parse_edge_list` short of the graph: ``n`` and the ``m`` pairs."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the bytes before the first bad one decode, and its line is theirs
            line = _unix_breaks(text[:exc.start].decode("utf-8")).count("\n") + 1
            raise EdgeListParseError(line, "not UTF-8 text") from None
    lines = _unix_breaks(text).split("\n")
    if not lines[-1]:
        lines.pop()  # a final line break ends the last line and starts none
    n = m = None
    pairs: list[tuple[int, int]] = []
    for line_no, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue  # blank and comment lines may be indented by any whitespace
        what, form = ("header", "'n m'") if n is None else ("edge", "'u v'")
        s = raw.strip(_ASCII_SPACE)
        parts = s.encode("utf-8", "surrogatepass").split()
        if len(parts) != 2:
            raise EdgeListParseError(line_no, f"expected {what} {form}, got {s!r}")
        try:
            if (parts[0] + parts[1]).strip(_DECIMAL_CHARS):
                raise ValueError
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer {what} {s!r}") from None
        if n is None:
            n, m = u, v
            if n < 1:
                raise EdgeListParseError(line_no, f"vertex count must be positive, got {n}")
            if m < 0:
                raise EdgeListParseError(line_no, f"edge count must be nonnegative, got {m}")
            continue
        if len(pairs) == m:
            raise EdgeListParseError(line_no, f"more than the declared {m} edges")
        if u == v:
            raise EdgeListParseError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(line_no, f"vertex id out of range in edge ({u},{v})")
        pairs.append((u, v))
    if n is None:
        raise EdgeListParseError(max(len(lines), 1), "missing 'n m' header")
    if len(pairs) < m:
        raise EdgeListParseError(len(lines), f"declared {m} edges but found {len(pairs)}")
    return n, pairs


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from ``source``; unreachable vertices get ``UNREACHABLE``."""
    return multi_source_distances(g, (source,))


def _sweep(adj, n: int, order: list[int]) -> tuple[list[int], int]:
    """The BFS under every full-distance kernel, from the ascending distinct
    sources ``order`` (each in ``0..n-1``; nothing is checked), which the
    sweep extends into the BFS order.  Returns the hop distance to the
    nearest source (``UNREACHABLE`` off the sources' components) and the
    depth of the last vertex dequeued: from one source, its eccentricity in
    its component."""
    dist = [UNREACHABLE] * n
    for s in order:
        dist[s] = 0
    for u in order:  # also the BFS queue: the loop reads what it appends
        du1 = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:  # relies on UNREACHABLE < 0; faster than a global
                dist[v] = du1
                order.append(v)
    return dist, dist[order[-1]]


def multi_source_distances(g: Graph, sources) -> list[int]:
    """Hop distance to the nearest of ``sources`` (simultaneous BFS)."""
    order = sorted(set(sources))
    if not order:
        raise ValueError("sources must be nonempty")
    if (s := order[0]) < 0 or (s := order[-1]) >= g.n:
        raise ValueError(f"source {s} out of range")
    return _sweep(g.adj, g.n, order)[0]


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return UNREACHABLE not in bfs_distances(g, 0)


def eccentricity_profile(g: Graph) -> EccentricityProfile:
    """Exact eccentricities of every vertex; raises on disconnected input.

    A sweep from vertex 0 checks connectivity, and its eccentricity ``e0``
    (a lower bound on the diameter) picks one of three kernels:

    - trees (``m == n - 1``) take the double sweep: with ``a`` farthest from
      0 and ``b`` farthest from ``a``, the path ``a..b`` is a diameter and
      ``ecc(v) = max(d(a, v), d(b, v))``, so two more sweeps replace n;
    - other graphs with ``e0 > _BOUNDED_MIN_RUNS`` try the eccentricity
      bounding of :func:`_bounded_eccentricities`, which closes every Moore
      chain in 4-14 BFS runs where the bitset kernel needs at least ``e0``
      rounds;
    - every other graph, and one whose bounds do not close within the run
      cap, takes the bit-parallel frontier expansion of
      :func:`_bitset_eccentricities`.

    A bounding run with its bound update costs about two bitset rounds
    (1.7-2.7 of a mean round, measured on chains, cycles and n = 300 and
    1000 expanders), so bounding is tried only where its floor of
    ``_BOUNDED_MIN_RUNS`` runs costs at most about twice the bitset kernel's
    least work.  A graph whose eccentricities lie within one of ``e0``, such
    as a cycle, is given up after two runs; a cycle ``C34`` then takes about
    1.44 times as long as the bitset kernel alone (``C64`` 1.21 times,
    ``C129`` 1.11 times; with a pendant vertex 1.41, 1.21 and 1.10 times).
    """
    if g.n == 0:
        raise ValueError("eccentricity undefined on the empty graph")
    adj, n = g.adj, g.n
    first, e0 = _sweep(adj, n, [0])
    if UNREACHABLE in first:
        raise DisconnectedGraphError("eccentricity undefined: graph is disconnected")
    if g.m == n - 1:
        from_a, ea = _sweep(adj, n, [first.index(e0)])
        from_b, _ = _sweep(adj, n, [from_a.index(ea)])
        ecc = [max(da, db) for da, db in zip(from_a, from_b)]
    else:
        ecc = None
        if e0 > _BOUNDED_MIN_RUNS:
            ecc = _bounded_eccentricities(g, first)
        if ecc is None:
            ecc = _bitset_eccentricities(g)
    total = sum(ecc)
    return EccentricityProfile(
        ecc=tuple(ecc),
        total=total,
        avec=Fraction(total, g.n),
        radius=min(ecc),
        diameter=max(ecc),
    )


# BFS runs the bounding kernel may spend before it gives up, and the e0
# past which it is tried; the cap is max(_BOUNDED_MIN_RUNS, e0 // 8).  The
# bitset kernel runs one round per unit of diameter, at least e0 rounds, and
# a bounding run plus its bound update costs about two bitset rounds, so
# past this e0 the floor of runs costs at most about twice the bitset
# kernel's least work.  Runs wasted up to the cap, on a graph the bounds
# cannot close, cost up to about 1.5 times the fallback's own time at e0 =
# 17 and at most about a fifth of it past e0 = 128 (measured on cycles).
# The floor keeps the (3,6,k) chains with odd k, which need 14 runs, off the
# fallback.  Every expander the benchmark profiles has e0 <= 12 and keeps
# the bitset kernel.
_BOUNDED_MIN_RUNS = 16


def _bounded_eccentricities(g: Graph, first: list[int]) -> list[int] | None:
    """Eccentricities of a connected graph by eccentricity bounding (Takes
    and Kosters, *Computing the eccentricity distribution of large graphs*,
    Algorithms 6(1), 2013), or ``None`` when it gives up.

    ``first`` holds the distances from vertex 0, with largest value ``e0``.
    Each run is one :func:`_sweep`, which also gives the run's eccentricity.
    By the triangle inequality a BFS from ``s`` with eccentricity ``e`` gives
    every vertex ``w`` the bounds ``max(e - d(s, w), d(s, w)) <= ecc(w) <=
    e + d(s, w)``; ``first`` seeds them.  Runs then alternate, high and low,
    until every vertex's bounds meet.  A high run starts from the vertex
    farthest from the last high run's source, the first from the one farthest
    from vertex 0 (the double sweep of Magnien, Latapy and Habib, *Fast
    computation of empirically tight bounds for the diameter of massive
    graphs*, 2009); once that vertex has been swept, vertex 0 included, from
    the open vertex with the highest upper bound.  A low run starts from the
    open vertex with the lowest lower bound; ties go to the lowest id.  After ``max(_BOUNDED_MIN_RUNS, e0 // 8)`` runs
    with vertices still open the work is discarded and ``None`` returned.

    It gives up after two runs when fewer than a fifth of the vertices are
    closed and both runs found an eccentricity within one of ``e0``.  If
    every vertex has one eccentricity ``e``, then ``d(s, w) <= e`` keeps
    ``lo[w] <= e <= hi[w]`` and ``hi[w]`` reaches ``e`` only at a source,
    so only the runs' sources close.  Measured after two runs: the cycles
    C34 to C601 and C800 with 40 chords closed 3 vertices each, with every
    run at ``e0``.  With a pendant vertex at ``n/2`` a cycle's eccentricities
    are ``e0`` and ``e0 - 1``; C34, C64 and C129 with one run to the cap of
    16 runs under a rule that asks for ``e0``, at 2.6, 1.8 and 1.4 times the
    bitset kernel alone.  C800 with 40 chords (seed 4) still runs to the cap.
    Every Moore chain with ``e0 > 16`` of the benchmark's (3,5,1..60) and
    (3,6,1..45), and (3,5,300) and (3,6,151), closed 46-98% (least: (3,6,5)
    with 32 of 70).  grid-10x100, grid-3x70 and ladder-150 closed 3 vertices
    too, but their second run, from a central vertex, found 63, 37 and 76
    against ``e0`` = 108, 71 and 150; they close after 10, 6 and 8 runs, and
    the (3,5,k) and (3,6,k) chains after 4 runs for even k, 7 and 14 for odd.
    """
    adj, n = g.adj, g.n
    e0 = max(first)
    lo = [e0 - d if e0 - d > d else d for d in first]
    hi = [e0 + d for d in first]
    still_open = [v for v in range(n) if lo[v] < hi[v]]
    cap = max(_BOUNDED_MIN_RUNS, e0 // 8)
    runs = 0
    flat = True  # every run so far found an eccentricity within one of e0
    take_high = True
    far, swept = first.index(e0), {0}
    while still_open:
        if runs == cap or (runs == 2 and flat and 5 * (n - len(still_open)) < n):
            return None
        runs += 1
        # max and min return the first extreme, and still_open is ascending
        if take_high:
            s = far if far not in swept else max(still_open, key=hi.__getitem__)
        else:
            s = min(still_open, key=lo.__getitem__)
        swept.add(s)
        dist, e = _sweep(adj, n, [s])
        if take_high:
            far = dist.index(e)
        take_high = not take_high
        flat = flat and abs(e - e0) <= 1
        remaining = []
        for w in still_open:
            d = dist[w]
            low = e - d if e - d > d else d
            high = e + d
            lw, hw = lo[w], hi[w]
            if low > lw:
                lo[w] = lw = low
            if high < hw:
                hi[w] = hw = high
            if lw < hw:
                remaining.append(w)
        still_open = remaining
    return lo


def _bitset_eccentricities(g: Graph) -> list[int]:
    """Eccentricities of a connected graph by bit-parallel BFS from every
    vertex at once (Akiba, Iwata and Yoshida, SIGMOD 2013).

    ``reach[v]`` is a Python int whose bit ``u`` is set iff ``d(v, u) <= r``
    after round ``r``; a round ORs each vertex's set with its neighbours'
    sets from the round before.  ``ecc(v)`` is the first round at which
    ``reach[v]`` holds every vertex, and a full vertex leaves the active list
    (its set stays full, as every later ball is).  From round 2 on ``v`` lies
    in each neighbour's ball, so ``B_{r+1}(v)`` is the union of the
    neighbours' ``B_r`` alone: a degree-3 vertex takes three ORs, no loop.
    """
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    ecc = [0] * n
    active = list(range(n))  # n >= 3 here: trees take the double sweep
    cubic = []
    r = 0
    while active or cubic:
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
        stay = []
        for v in cubic:
            a, b, c = adj[v]
            reach[v] = acc = prev[a] | prev[b] | prev[c]
            if acc == full:
                ecc[v] = r
            else:
                stay.append(v)
        if r == 1:  # split the survivors of round 1 once, by degree
            stay = [v for v in still if len(adj[v]) == 3]
            if stay:
                still = [v for v in still if len(adj[v]) != 3]
        active, cubic = still, stay
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
    skipped.  When the BFS reaches depth ``du`` it has seen every walk of
    length ``2*du`` or less that it closes, so it stops once ``2*du + 1 >=
    best``; when ``best == 2*du + 2`` only an edge between two vertices at
    depth ``du``, a walk of length ``2*du + 1``, can still beat it, and that
    level is checked without discovering new vertices.  One
    ``dist``/``parent`` pair serves every root: only the vertices a root's
    BFS reached are reset.  No cycle leaves the 2-core, so a root off it
    (:func:`_core_degrees`) is skipped too: a forest, whose core is empty,
    runs no BFS at all, and a tree part below the cycles runs none.
    Overall O(n*m) at most.
    """
    best: int | None = None
    adj = g.adj
    core = _core_degrees(adj)
    dist = [UNREACHABLE] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        around = adj[root]
        if core[root] < 2 or around[-2] < root:
            continue
        dist[root] = 0
        parent[root] = -1
        reached = [root]  # also the BFS queue: the loop reads what it appends
        for u in reached:
            du = dist[u]
            if best is not None and 2 * du + 1 >= best:
                break  # any walk closed from here is >= 2*du + 1
            if best == 2 * du + 2:
                # every vertex at depth du is known, above root and not
                # u's parent
                for v in adj[u]:
                    if dist[v] == du:
                        best = 2 * du + 1
                        break
                continue
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


def _core_degrees(adj) -> list[int]:
    """Each vertex's degree in the 2-core of the graph with adjacency lists
    ``adj``, below 2 for every vertex off the core.

    The 2-core is what is left once vertices of degree below 2 are peeled
    off until none is (Batagelj and Zaveršnik, *An O(m) algorithm for cores
    decomposition of networks*, 2003); it holds every cycle and is empty
    exactly on a forest.  A vertex is queued once, when its degree first
    drops below 2, and each peel lowers its neighbours' degrees: O(n + m),
    and the plain degrees when every vertex has two neighbours.
    """
    deg = [len(around) for around in adj]
    peeled = [v for v, d in enumerate(deg) if d < 2]
    for v in peeled:  # also the queue: the loop reads what it appends
        for u in adj[v]:
            deg[u] -= 1
            if deg[u] == 1:
                peeled.append(u)
    return deg


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
    ecc = eccentricity_profile(g).ecc
    acc = Fraction(0)
    for v, w in enumerate(c.weights):
        if w:
            acc += w * ecc[v]
    return acc / total_weight


def line_graph(g: Graph) -> Graph:
    """Line graph of ``g``.

    Vertex ``i`` of the result is ``g.edges[i]``; two vertices are adjacent
    iff the underlying edges share an endpoint.  The neighbours of ``i =
    (u, v)`` merge, by one sort, the ascending ids of the edges at ``u`` and
    at ``v``; distinct edges share one endpoint at most, so only ``i`` repeats.
    """
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(g.edges):
        incident[u].append(idx)
        incident[v].append(idx)
    adj = []
    for i, (u, v) in enumerate(g.edges):
        around = incident[u] + incident[v]
        around.remove(i)
        around.remove(i)
        around.sort()
        adj.append(around)
    return Graph._from_ascending(adj)
