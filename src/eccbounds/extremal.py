"""Moore-graph catalog, chained extremal constructions, sharpness reports.

The catalog only ever hands out verified objects: each generated graph is
re-measured for regularity, girth, and order before it leaves, so a broken
construction can never contaminate a sharpness run.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import GraphParams, bound_thm_girth, lower_bound_chain, moore_order
from .graph import Graph, eccentricity_profile, girth
from .generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    heawood_graph,
    hoffman_singleton_graph,
    petersen_graph,
    projective_plane_incidence,
)


@dataclass(frozen=True)
class MooreSpec:
    """Provenance of a catalog graph: parameters, order, diameter, source."""

    delta: int
    g: int
    order: int
    diameter: int
    source: str


@dataclass(frozen=True)
class ChainSpec:
    """Parameters and surgery record of a chained construction."""

    delta: int
    g: int
    k: int
    base_order: int
    link_edges: tuple[tuple[int, int], ...]
    deleted_edges: tuple[tuple[int, int], ...]


_PLANE_ORDERS = (2, 3, 4, 5, 7, 8)


def moore_catalog(delta: int, g: int) -> tuple[Graph, MooreSpec] | None:
    """A concrete minimum-order (delta, g)-graph, or ``None`` if uncataloged.

    Entries: complete graphs (g=3), balanced complete bipartite graphs (g=4),
    the Petersen and Hoffman-Singleton graphs (g=5), projective-plane
    incidence graphs for plane orders up to 8 (g=6), and cycles (delta=2).
    Every graph is re-verified for regularity, girth, and order on the way
    out.
    """
    if delta < 2 or g < 3:
        return None
    graph: Graph | None = None
    source = ""
    if delta == 2:
        graph, source = cycle_graph(g), "Cycle"
    elif g == 3:
        graph, source = complete_graph(delta + 1), "Complete"
    elif g == 4:
        graph, source = complete_bipartite(delta, delta), "CompleteBipartite"
    elif g == 5 and delta == 3:
        graph, source = petersen_graph(), "Petersen"
    elif g == 5 and delta == 7:
        graph, source = hoffman_singleton_graph(), "HoffmanSingleton"
    elif g == 6 and delta - 1 in _PLANE_ORDERS:
        q = delta - 1
        graph, source = projective_plane_incidence(q), f"ProjectivePlaneIncidence({q})"
    if graph is None:
        return None
    order = g if delta == 2 else moore_order(delta, g)  # a cycle for delta=2
    spec = MooreSpec(delta=delta, g=g, order=order,
                     diameter=(g - 1) // 2 if g % 2 == 1 else g // 2,
                     source=source)
    _verify_moore(graph, spec)
    return graph, spec


def _verify_moore(graph: Graph, spec: MooreSpec):
    if graph.n != spec.order:
        raise RuntimeError(f"catalog graph has order {graph.n}, expected {spec.order}")
    if graph.min_degree() != spec.delta or graph.max_degree() != spec.delta:
        raise RuntimeError("catalog graph is not regular of the declared degree")
    measured = girth(graph)
    if measured != spec.g:
        raise RuntimeError(f"catalog graph has girth {measured}, expected {spec.g}")


def chain_graph(delta: int, g: int, k: int,
                cut_edge: tuple[int, int] | None = None) -> tuple[Graph, ChainSpec]:
    """Chain of ``k`` copies of the (delta, g) catalog graph.

    Copy ``i`` occupies ids ``[i*order, (i+1)*order)``.  Within each copy a
    designated edge ``(a, b)`` (default: the lexicographically least edge,
    overridable via ``cut_edge``) is removed from the interior copies
    ``i = 2..k-1`` and the copies are threaded by the link edges
    ``a_{i+1} b_i``.  For ``k = 1`` the catalog graph itself comes back.
    """
    if k < 1:
        raise ValueError("copy count must be at least 1")
    hit = moore_catalog(delta, g)
    if hit is None:
        raise ValueError(f"no catalog graph for delta={delta}, g={g}")
    base, spec = hit
    order = spec.order
    if cut_edge is None:
        a, b = base.edges[0]
    else:
        a, b = sorted(cut_edge)
        if not base.has_edge(a, b):
            raise ValueError(f"cut edge {cut_edge} not in the base graph")

    deleted = {(i * order + a, i * order + b) for i in range(1, k - 1)}
    pairs = [(i * order + u, i * order + v)
             for i in range(k) for u, v in base.edges
             if (i * order + u, i * order + v) not in deleted]
    links = tuple(((i + 1) * order + a, i * order + b) for i in range(k - 1))
    pairs.extend(links)
    graph = Graph.from_edges(k * order, pairs)
    return graph, ChainSpec(delta=delta, g=g, k=k, base_order=order,
                            link_edges=links, deleted_edges=tuple(sorted(deleted)))


@dataclass(frozen=True)
class SharpnessRow:
    """One chain length in a sharpness table, all values exact."""

    k: int
    n: int
    avec: Fraction
    lower: Fraction
    upper: Fraction
    gap_to_upper: Fraction
    gap_ok: bool


def sharpness_report(delta: int, g: int, k_range) -> list[SharpnessRow]:
    """Measured average eccentricity of each chain against the bound pair.

    ``lower`` is the chain family's lower bound, ``upper`` the
    girth-parameterized upper bound; their difference is ``5(g-1)/2`` for odd
    girth and one less for even, so ``gap_ok`` records whether the measured
    gap stays within that for ``k >= 2``.
    """
    gap_cap = Fraction(5 * (g - 1), 2) - (0 if g % 2 == 1 else 1)
    rows = []
    for k in k_range:
        graph, spec = chain_graph(delta, g, k)
        prof = eccentricity_profile(graph)
        params = GraphParams(n=graph.n, delta=delta, g=g)
        lower = lower_bound_chain(params, k)
        upper = bound_thm_girth(params).value
        gap = upper - prof.avec
        rows.append(SharpnessRow(k=k, n=graph.n, avec=prof.avec, lower=lower,
                                 upper=upper, gap_to_upper=gap,
                                 gap_ok=(k < 2 or gap <= gap_cap)))
    return rows


def _dec(x: Fraction) -> str:
    """Six-decimal rendering of an exact value, for reports and console lines."""
    return f"{float(x):.6f}"


def sharpness_rows_to_csv(rows) -> str:
    """Render a sharpness table, decimals alongside the exact p/q values."""
    header = ("k,n,avec,lower,upper,gap,"
              "avec_exact,lower_exact,upper_exact,gap_exact,gap_ok")
    lines = [header]
    for r in rows:
        lines.append(",".join([
            str(r.k), str(r.n),
            _dec(r.avec), _dec(r.lower), _dec(r.upper), _dec(r.gap_to_upper),
            str(r.avec), str(r.lower), str(r.upper), str(r.gap_to_upper),
            "true" if r.gap_ok else "false",
        ]))
    return "\n".join(lines) + "\n"
