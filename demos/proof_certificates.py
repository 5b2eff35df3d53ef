"""Walk through one odd-girth and one even-girth proof certificate.

Run:  python demos/proof_certificates.py

A certificate rebuilds every object the bound's argument needs (the spaced
packing or matching, a distance-preserving spanning tree, the cell weights,
the contracted tree power) and re-checks each claimed inequality with exact
rationals.  ``allStepsHold`` is the single machine-checkable verdict.
"""
import eccbounds as eb
from eccbounds.certify import certify


def show(cert, title):
    print(f"\n=== {title} ({cert.bound_id}) ===")
    anchors = cert.members
    print(f"girth={cert.girth_value} constants={cert.constants}")
    print(f"anchors: {list(anchors)}")
    print("chain:")
    for key, value in cert.chain.items():
        print(f"  {key:<16} {value}")
    print("steps:")
    for s in cert.steps:
        mark = "ok " if s.holds else "FAIL"
        print(f"  [{mark}] {s.name:<38} {s.lhs} vs {s.rhs}")
    print("structural checks:")
    for c in cert.checks:
        mark = "ok " if c.ok else "FAIL"
        print(f"  [{mark}] {c.name}" + (f"  ({c.detail})" if c.detail else ""))
    print(f"allStepsHold = {cert.all_steps_hold}")


# odd girth: a chain of three Petersen graphs gives a nontrivial packing
graph, spec = eb.chain_graph(3, 5, 3)
show(certify(graph), "3-chain of Petersen graphs, n=30")

# even girth: the Heawood graph, certified through its line graph
show(certify(eb.heawood_graph()), "Heawood graph, n=14")

# the max-degree-aware variant seeds the packing at a max-degree vertex and
# tracks two constants instead of one
show(certify(graph, use_max_degree=True),
     "3-chain, max-degree variant")
