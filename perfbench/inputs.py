"""Seeded graph builder owned by the benchmark.

The graphs measured by ``certify-expander`` and by the ``--dir`` part of
``batch-sweep`` come from here, not from ``eccbounds.generators``, so a
change to the program's generator cannot change what those workloads
measure.  The same seed always gives the same edge lists, byte for byte.

Construction: plant one cycle of length ``g`` on random vertices, then add
random edges between vertices still short of ``delta`` whenever the two ends
are at distance at least ``g - 1`` (so no cycle shorter than ``g`` closes),
and finally join the components by bridges.  The planted cycle makes the
girth exactly ``g``; bridges lie on no cycle.

Run ``python3 perfbench/inputs.py --seed N`` to print the make-up and the
SHA-256 of every generated edge list.
"""
from __future__ import annotations

import argparse
import hashlib
import random
from dataclasses import dataclass

# (name, n, delta, girth): the certify-expander set, half girth 5, half girth 6
EXPANDER_SPECS = (
    ("exp-g5-a", 1000, 3, 5),
    ("exp-g6-a", 1000, 3, 6),
    ("exp-g5-b", 1000, 3, 5),
    ("exp-g6-b", 1000, 3, 6),
)

# the batch-sweep --dir corpus: small graphs, delta in {3, 4}, girth 4..7
SMALL_SPECS = (
    ("dir-d3-g4", 30, 3, 4),
    ("dir-d3-g5", 60, 3, 5),
    ("dir-d3-g6", 120, 3, 6),
    ("dir-d3-g7", 280, 3, 7),
    ("dir-d4-g4", 40, 4, 4),
    ("dir-d4-g5", 90, 4, 5),
    ("dir-d4-g6", 200, 4, 6),
    ("dir-d3-g5-big", 200, 3, 5),
)


class BuildError(RuntimeError):
    """No restart of the seeded search reached the degree floor."""


@dataclass(frozen=True)
class BuiltGraph:
    name: str
    n: int
    delta: int
    g: int
    edges: tuple[tuple[int, int], ...]

    def edge_list(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.edge_list().encode()).hexdigest()


def _ball(adj, u: int, radius: int) -> set[int]:
    seen = {u}
    frontier = [u]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _try_build(n: int, delta: int, g: int, rng: random.Random):
    adj = [set() for _ in range(n)]
    cycle = rng.sample(range(n), g)
    for i in range(g):
        u, v = cycle[i], cycle[(i + 1) % g]
        adj[u].add(v)
        adj[v].add(u)
    short = [v for v in range(n) if len(adj[v]) < delta]
    while short:
        u = short[rng.randrange(len(short))]
        near = _ball(adj, u, g - 2)
        v = -1
        for _ in range(32):
            w = short[rng.randrange(len(short))]
            if w not in near:
                v = w
                break
        if v == -1:
            far = [w for w in short if w not in near] or [w for w in range(n) if w not in near]
            if not far:
                return None
            v = far[rng.randrange(len(far))]
        adj[u].add(v)
        adj[v].add(u)
        short = [w for w in short if len(adj[w]) < delta]

    # bridge the components into one
    comp = [-1] * n
    reps = []
    for s in range(n):
        if comp[s] != -1:
            continue
        comp[s] = s
        reps.append(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if comp[y] == -1:
                    comp[y] = s
                    stack.append(y)
    for a, b in zip(reps, reps[1:]):
        adj[a].add(b)
        adj[b].add(a)
    return tuple(sorted((u, v) for u in range(n) for v in adj[u] if u < v))


def build(name: str, n: int, delta: int, g: int, seed: int) -> BuiltGraph:
    """Connected graph on ``n`` vertices, minimum degree ``delta``, girth ``g``."""
    for restart in range(20):
        edges = _try_build(n, delta, g, random.Random(f"{seed}:{name}:{restart}"))
        if edges is not None:
            return BuiltGraph(name, n, delta, g, edges)
    raise BuildError(f"{name}: no restart reached minimum degree {delta} at girth {g}")


def build_set(specs, seed: int) -> list[BuiltGraph]:
    return [build(name, n, delta, g, seed) for name, n, delta, g in specs]


def _describe(seed: int) -> None:
    from reference import diameter_and_avec, nx_girth  # check-only dependencies

    print("| set | name | n | m | δ | Δ | girth | diameter | SHA-256 |")
    print("|---|---|---|---|---|---|---|---|---|")
    for label, specs in (("certify-expander", EXPANDER_SPECS), ("batch-sweep --dir", SMALL_SPECS)):
        for bg in build_set(specs, seed):
            deg = [0] * bg.n
            for u, v in bg.edges:
                deg[u] += 1
                deg[v] += 1
            diam, _ = diameter_and_avec(bg.n, bg.edges)
            print(f"| {label} | {bg.name} | {bg.n} | {len(bg.edges)} | {min(deg)} | {max(deg)} "
                  f"| {nx_girth(bg.n, bg.edges)} | {diam} | `{bg.sha256()[:16]}` |")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="print the make-up of the seeded inputs")
    ap.add_argument("--seed", type=int, default=1)
    _describe(ap.parse_args().seed)
