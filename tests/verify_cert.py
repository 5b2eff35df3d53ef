"""An independent verifier of certificate JSON, kept with the tests.

``verify(g, cert)`` takes a graph and a certificate's parsed JSON and
re-derives every claim of the certificate from the graph alone, with the
conftest oracles and plain BFS; it imports nothing from ``eccbounds.certify``
or from the bound evaluators:

- ``treeEdges`` is a spanning tree of ``g`` and a subgraph of it, and holds
  the connectors;
- the anchors' spacing and coverage, each vertex's assignment to a nearest
  anchor vertex, the weights as cell counts and the normalized weights, and
  the verdict of every structural check;
- on even girth, ``lineGraph`` is L(tree) with ``lineTable`` as its table;
- every ``chain`` value from BFS eccentricities, every step's sides and
  ``holds``, ``finalBound`` against the closed forms, and ``allStepsHold``.

It returns the disagreements, none for a sound certificate.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction as F
from functools import cache

import eccbounds as eb
from conftest import (
    ecc_oracle,
    floyd_warshall,
    girth_per_root_oracle,
    maxdeg_constants_oracle,
    moore_order_oracle,
)


def _closed_form(n, gi, constants, maxdeg):
    """``(unit, Nprime, powerBound, finalBound)`` of the paper's bounds."""
    odd = gi % 2 == 1
    if not maxdeg:
        (unit,) = constants.values()
        nprime = F(n, unit)
        final = F(3 * gi, 4) * math.ceil(nprime) + F(3 * gi, 2) - 2
        return unit, nprime, F(3 * math.ceil(nprime), 4) - F(1, 2), final
    c1, c2 = constants.values()
    unit = c1 if odd else 2 * c1
    q, spread = F(n - c2, unit), 1 + F(c2 - c1, 3 * n)
    final = F(3 * gi, 4) * q * spread + (3 * gi - 2 if odd else F(21 * gi, 8) - 2)
    return (unit, q + (1 if odd else F(1, 2)),
            F(3, 4) * q * spread + (1 if odd else F(5, 8)), final)


# plain and max-degree certificates of one graph share it, and often the tree
_bfs_eccs = cache(ecc_oracle)


def _fw_eccs(graph):
    """Eccentricities by Floyd-Warshall, with ``None`` when disconnected."""
    d = floyd_warshall(graph)
    eccs = [max(row) for row in d]
    return None if math.inf in eccs else eccs


def verify(g: eb.Graph, cert: dict) -> list[str]:
    bad: list[str] = []

    def expect(what, got, want):
        if got != want:
            bad.append(f"{what}: certificate {got!r}, derived {want!r}")

    n, gi, maxdeg, odd = g.n, cert["girth"], cert["useMaxDeg"], cert["variant"] == "odd"
    delta, Delta = min(map(len, g.adj)), max(map(len, g.adj))
    expect("girth", gi, girth_per_root_oracle(g))
    expect("variant", odd, gi % 2 == 1)

    tree_edges = [tuple(e) for e in cert["treeEdges"]]
    tree, in_tree = eb.Graph.from_edges(n, tree_edges), set(tree_edges)
    if not (in_tree <= set(g.edges) and len(tree_edges) == tree.m == n - 1
            and -1 not in eb.bfs_distances(tree, 0)):
        return bad + ["treeEdges: not a spanning tree and subgraph of g"]
    connectors = {tuple(sorted(e)) for e in cert["connectorEdges"]}
    expect("connectors in tree", connectors <= in_tree, True)

    groups = [(a,) for a in cert["A"]] if odd else [tuple(e) for e in cert["M"]]
    verts = sorted({x for group in groups for x in group})
    dist = {x: eb.bfs_distances(g, x) for x in verts}
    near = [min(dist[x][v] for x in verts) for v in range(n)]
    tree_dist = {x: eb.bfs_distances(tree, x) for x in verts}
    spacing = min((min(dist[x][y] for x in a for y in b)
                   for i, a in enumerate(groups) for b in groups[i + 1:]), default=math.inf)
    assignment = [cert["assignment"][str(v)] for v in range(n)]
    counts = Counter(assignment)
    c = {x: counts[x] for x in verts}
    w = [sum(c[x] for x in group) for group in groups]  # c, or cbar on edges

    constants = maxdeg_constants_oracle(delta, Delta, gi) if maxdeg else \
        {"K" if odd else "L": moore_order_oracle(delta, gi)}
    expect("constants", cert["constants"], {k: str(v) for k, v in constants.items()})
    unit, nprime, power_bound, final = _closed_form(n, gi, constants, maxdeg)
    norm = [F(x, unit) for x in w]
    if maxdeg:
        c1, c2 = constants.values()
        norm[0] = F(w[0] - c2 + c1, unit)
        expect("hub degree", max(len(g.adj[x]) for x in groups[0]), Delta)

    # the contracted power on T (odd) or on L(T) (even), over anchor indices
    if odd:
        host, ids = tree, list(cert["A"])
    else:
        table = [tuple(e) for e in cert["lineTable"]]
        expect("lineTable", table, tree_edges)
        at = [[] for _ in range(n)]
        for i, e in enumerate(table):
            for x in e:
                at[x].append(i)
        host = eb.Graph.from_edges(len(table), [(i, j) for here in at for i in here
                                                for j in here if i < j])
        expect("lineGraph", cert["lineGraph"], host.to_json_dict())
        ids = [table.index(e) for e in groups]
    host_dist = [eb.bfs_distances(host, a) for a in ids]
    k = len(ids)
    power = eb.Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)
                                    if host_dist[i][ids[j]] <= gi])
    power_ecc = _fw_eccs(power)

    ecc_g, ecc_t = _bfs_eccs(g), _bfs_eccs(tree)
    avec_g, avec_t = F(sum(ecc_g), n), F(sum(ecc_t), n)
    avec_c_t = F(sum(c[x] * ecc_t[x] for x in verts), n)
    avec_host = avec_c_t if odd else F(sum(x * max(d) for x, d in zip(w, host_dist)), n)
    avec_power = None if power_ecc is None else F(sum(x * e for x, e in zip(w, power_ecc)), n)

    cover = 1 if odd else 2
    assign_ok = all(a in dist and dist[a][v] == near[v] for v, a in enumerate(assignment))
    preserved = [min(tree_dist[x][v] for x in verts) for v in range(n)] == near
    if maxdeg:
        hub_need, rest_need = (c2, c1) if odd else (c1 + c2, 2 * c1)
    else:
        hub_need = rest_need = unit  # K or L
    cells_ok = w[0] >= hub_need and all(x >= rest_need for x in w[1:])
    power_ok = power_ecc is not None
    if odd:
        checks = {"packing_spacing>=g": spacing >= gi,
                  "packing_coverage<=g-1": max(near) <= gi - 1,
                  "assignment_nearest_member": assign_ok,
                  "weight_conservation": sum(c.values()) == n,
                  "cell_lower_bounds": cells_ok,
                  "tree_spanning": True,
                  "distance_preservation": preserved,
                  "tree_power_connected": power_ok}
        if maxdeg:
            checks["hub_weight>=K2"] = w[0] >= c2
            checks["packing_size<=(n-K2)/K1+1"] = len(groups) <= F(n - c2, c1) + 1
    else:
        checks = {"matching_disjoint": len(verts) == 2 * len(groups),
                  "matching_spacing>=g-1": spacing >= gi - 1,
                  "matching_coverage<=g-2": all(min(near[x], near[y]) <= gi - 2
                                                for x, y in g.edges),
                  "assignment_nearest_matched_vertex": assign_ok,
                  "weight_conservation": sum(c.values()) == n == sum(w),
                  "edge_weight_lower_bounds": cells_ok,
                  "tree_spanning": True,
                  "tree_contains_matching": set(groups) <= in_tree,
                  "distance_preservation": preserved,
                  "line_power_connected": power_ok}
        if maxdeg:
            checks["hub_edge_weight>=L1+L2"] = w[0] >= c1 + c2
            checks["matching_size<=(n-L2+L1)/(2L1)"] = len(groups) <= F(n - c2 + c1, 2 * c1)
    expect("checks", {ch["name"]: ch["ok"] for ch in cert["checks"]}, checks)
    expect("boundId", cert["boundId"],
           f"ThmGirth{'MaxDeg' if maxdeg else ''}{'Odd' if odd else 'Even'}")
    keys = [str(a) for a in cert["A"]] if odd else [f"{u}-{v}" for u, v in groups]
    if odd:
        expect("weights", cert["weights"], {x: str(y) for x, y in zip(keys, w)})
        expect("normalizedWeights", cert["normalizedWeights"],
               {x: str(y) for x, y in zip(keys, norm)})
    else:
        expect("weights", cert["weights"], {str(x): str(c[x]) for x in verts})
        expect("edgeWeights", cert["edgeWeights"], {x: str(y) for x, y in zip(keys, w)})
        expect("normalizedEdgeWeights", cert["normalizedEdgeWeights"],
               {x: str(y) for x, y in zip(keys, norm)})

    host_key, power_key = ("avecC_T", "avecC_power") if odd else ("avecCbar_L", "avecCbar_power")
    chain = {"avecG": avec_g, "avecT": avec_t, "avecC_T": avec_c_t, host_key: avec_host,
             power_key: avec_power, "Nprime": nprime, "finalBound": final}
    expect("chain", cert["chain"], {k: None if v is None else str(v) for k, v in chain.items()})
    steps = [("avecG<=avecT", avec_g, avec_t),
             (f"avecT<=avecC_T+(g-{cover})", avec_t, avec_c_t + gi - cover)]
    if not odd:
        steps.append(("avecC_T<=avecCbar_L+1", avec_c_t, avec_host + 1))
    steps += [(f"{host_key}<=g*{power_key}+(g-1)", avec_host,
               None if avec_power is None else gi * avec_power + gi - 1),
              (f"{power_key}<=powerBound", avec_power, power_bound),
              ("finalBound==g*powerBound+2(g-1)", final, gi * power_bound + 2 * (gi - 1)),
              ("avecG<=finalBound", avec_g, final)]
    derived = [{"name": name, "lhs": None if lhs is None else str(lhs),
                "rhs": None if rhs is None else str(rhs),
                "holds": lhs is not None and rhs is not None
                and (lhs == rhs if name.startswith("finalBound==") else lhs <= rhs)}
               for name, lhs, rhs in steps]
    expect("steps", cert["steps"], derived)
    expect("allStepsHold", cert["allStepsHold"],
           all(s["holds"] for s in derived) and all(checks.values()))
    return bad
