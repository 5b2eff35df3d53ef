"""Independent reference values for the benchmark's correctness checks.

Distances come from ``scipy.sparse.csgraph`` and girth from
``networkx.girth``; neither library is imported by ``eccbounds``.  The
closed forms (Moore orders K, L, K1/K2, L1/L2, the girth bound and its
max-degree refinement, Eq1-Eq8 and the chain lower bound) are written out
here from their formulas, as geometric sums, without calling the program.

The libraries are imported on first use, after the timed pass, so they
count toward neither time nor memory.
"""
from __future__ import annotations

from fractions import Fraction


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _geom(base: int, terms: int) -> int:
    """1 + base + ... + base^(terms-1)."""
    return sum(base ** i for i in range(terms))


# ---------------------------------------------------------------------------
# graph references

def _csr(n: int, edges):
    import numpy as np
    from scipy.sparse import csr_matrix

    rows = np.fromiter((u for u, _ in edges), dtype=np.int32, count=len(edges))
    cols = np.fromiter((v for _, v in edges), dtype=np.int32, count=len(edges))
    ones = np.ones(len(edges), dtype=np.int8)
    return csr_matrix((ones, (rows, cols)), shape=(n, n))


def eccentricities(n: int, edges) -> list[int]:
    """All-pairs BFS in scipy; raises on a disconnected graph."""
    import numpy as np
    from scipy.sparse.csgraph import shortest_path

    dist = shortest_path(_csr(n, edges), method="D", directed=False, unweighted=True)
    if not np.isfinite(dist).all():
        raise ValueError("graph is disconnected")
    return [int(x) for x in dist.max(axis=1)]


def diameter_and_avec(n: int, edges) -> tuple[int, Fraction]:
    ecc = eccentricities(n, edges)
    return max(ecc), Fraction(sum(ecc), n)


def nx_girth(n: int, edges):
    """Girth from networkx, or ``None`` for a forest."""
    import math

    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    gi = nx.girth(h)
    return None if gi == math.inf else int(gi)


def is_spanning_tree(n: int, tree_edges, graph_edges) -> bool:
    """``tree_edges`` are n-1 edges of the graph that connect all n vertices."""
    from scipy.sparse.csgraph import connected_components

    edge_set = {(min(u, v), max(u, v)) for u, v in graph_edges}
    tree = [(min(u, v), max(u, v)) for u, v in tree_edges]
    if len(tree) != n - 1 or len(set(tree)) != n - 1 or not set(tree) <= edge_set:
        return False
    count, _ = connected_components(_csr(n, tree), directed=False)
    return count == 1


# ---------------------------------------------------------------------------
# closed forms

def moore_k(delta: int, g: int) -> int:
    """Odd girth: 1 + delta * sum_{i<(g-1)/2} (delta-1)^i."""
    return 1 + delta * _geom(delta - 1, (g - 1) // 2)


def moore_l(delta: int, g: int) -> int:
    """Even girth: 2 * sum_{i<g/2} (delta-1)^i."""
    return 2 * _geom(delta - 1, g // 2)


def girth_bound(n: int, delta: int, g: int) -> Fraction | None:
    """(3g/4) * ceil(n / K) + 3g/2 - 2, K the Moore order; delta >= 3."""
    if delta < 3:
        return None
    order = moore_k(delta, g) if g % 2 else moore_l(delta, g)
    return Fraction(3 * g, 4) * _ceil(Fraction(n, order)) + Fraction(3 * g, 2) - 2


def girth_bound_maxdeg(n: int, delta: int, Delta: int, g: int) -> Fraction | None:
    """The max-degree refinement; ``None`` when n does not exceed K2 (L2)."""
    if delta < 3:
        return None
    if g % 2:
        k1 = moore_k(delta, g)
        k2 = 1 + Delta * _geom(delta - 1, (g - 1) // 2)
        if n <= k2:
            return None
        return (Fraction(3 * g, 4) * Fraction(n - k2, k1) * (1 + Fraction(k2 - k1, 3 * n))
                + 3 * g - 2)
    l1 = _geom(delta - 1, g // 2)
    # Delta + (Delta-1) * ((delta-1) + ... + (delta-1)^((g-2)/2 - 1))
    l2 = Delta + (Delta - 1) * (_geom(delta - 1, (g - 2) // 2) - 1)
    if n <= l2:
        return None
    return (Fraction(3 * g, 4) * Fraction(n - l2, 2 * l1) * (1 + Fraction(l2 - l1, 3 * n))
            + Fraction(21 * g, 8) - 2)


def _eps(a: int, b: int) -> int:
    return a * b - 2 * (a // 2) + 1


def legacy(which: str, n: int, delta: int, Delta: int, g) -> Fraction | None:
    """Eq1..Eq8; ``None`` where the hypotheses fail."""
    girth = g if g is not None else 0
    if which == "Eq1":
        return Fraction(9 * n, 4 * (delta + 1)) + Fraction(15, 4) if delta >= 2 else None
    if which == "Eq2":
        return 3 * _ceil(Fraction(n, 2 * delta)) + Fraction(5) if girth >= 4 else None
    if which == "Eq3":
        return (Fraction(15, 4) * _ceil(Fraction(n, _eps(delta, delta))) + Fraction(11, 2)
                if girth >= 5 else None)
    if which == "Eq4":
        return (Fraction(9, 2) * _ceil(Fraction(n, 2 * delta ** 2 - 2 * delta + 2)) + 8
                if girth >= 6 else None)
    if which == "Eq5":
        return (Fraction(9, 2) * _ceil(Fraction(n, 2 * delta ** 2 - 5 * delta + 5)) + 8
                if girth >= 6 else None)
    if which == "Eq6":
        if delta < 2:
            return None
        return (Fraction(9 * (n - Delta - 1), 4 * (delta + 1))
                * (1 + Fraction(Delta - delta, 3 * n)) + 7)
    if which == "Eq7":
        if girth < 4:
            return None
        return (Fraction(3 * (n - Delta), 2 * delta) * (1 + Fraction(Delta - delta, 3 * n))
                + Fraction(19, 2))
    if which == "Eq8":
        if girth < 5:
            return None
        e_big, e_small = _eps(Delta, delta), _eps(delta, delta)
        return (Fraction(15, 4) * Fraction(n - e_big + e_small, e_small)
                * (1 + Fraction(e_big - e_small, 3 * n)) + Fraction(37, 4))
    raise ValueError(which)


LEGACY_IDS = tuple(f"Eq{i}" for i in range(1, 9))


def chain_lower(n: int, delta: int, g: int) -> Fraction:
    """3gn/(4K) - g + 1/2 (odd girth), 3gn/(4L) - g + 3/2 (even girth)."""
    if g % 2:
        return Fraction(3 * g * n, 4 * moore_k(delta, g)) - g + Fraction(1, 2)
    return Fraction(3 * g * n, 4 * moore_l(delta, g)) - g + Fraction(3, 2)


def all_upper(n: int, delta: int, Delta: int, g) -> dict[str, Fraction | None]:
    """Every upper bound by its report id, ``None`` where not applicable."""
    out = {bid: legacy(bid, n, delta, Delta, g) for bid in LEGACY_IDS}
    odd = g is not None and g % 2 == 1
    even = g is not None and g % 2 == 0
    thm = girth_bound(n, delta, g) if g is not None else None
    md = girth_bound_maxdeg(n, delta, Delta, g) if g is not None else None
    out["ThmGirthOdd"] = thm if odd else None
    out["ThmGirthEven"] = thm if even else None
    out["ThmGirthMaxDegOdd"] = md if odd else None
    out["ThmGirthMaxDegEven"] = md if even else None
    return out


# ---------------------------------------------------------------------------
# Moore chains, rebuilt from networkx's own Petersen and Heawood graphs

def chain_edges(delta: int, g: int, k: int) -> tuple[int, list[tuple[int, int]]]:
    """k copies of the (3,5) or (3,6) Moore graph joined in a chain.

    One edge (a, b) is cut in every interior copy and copy i+1's ``a`` is
    linked to copy i's ``b``.  Both base graphs are arc-transitive, so any
    choice of (a, b) gives the same chain up to isomorphism.
    """
    import networkx as nx

    if (delta, g) == (3, 5):
        base = nx.petersen_graph()
    elif (delta, g) == (3, 6):
        base = nx.heawood_graph()
    else:
        raise ValueError(f"no reference chain for ({delta}, {g})")
    base = nx.convert_node_labels_to_integers(base)
    order = base.number_of_nodes()
    a, b = min((min(u, v), max(u, v)) for u, v in base.edges())
    edges = []
    for i in range(k):
        off = i * order
        for u, v in base.edges():
            if 0 < i < k - 1 and {u, v} == {a, b}:
                continue
            edges.append((off + u, off + v))
        if i + 1 < k:
            edges.append(((i + 1) * order + a, off + b))
    return k * order, edges
