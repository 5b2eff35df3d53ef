"""How tight are the girth bounds?  Chains of Moore graphs nearly meet them.

Run:  python demos/moore_chain_sharpness.py

Linking k copies of a minimum-order (delta, g)-graph into a chain produces a
family whose average eccentricity grows like 3gn/(4K): the upper bound is
met up to an additive constant of 5(g-1)/2 (one less for even girth),
independent of k.  The gap tends to 2(g-1), or 2(g-1) - 1/2 for even girth,
as c/k with one c for even k and one for odd: 1 and 29/20 for the Petersen
chains, 8/7 and 11/7 for the Heawood chains.
"""
import eccbounds as eb

print("catalog hits:")
for delta, g in [(3, 3), (3, 4), (3, 5), (3, 6), (4, 6), (7, 5), (9, 6), (2, 9)]:
    hit = eb.moore_catalog(delta, g)
    if hit is None:
        print(f"  (delta={delta}, g={g}): not in catalog")
    else:
        graph, spec = hit
        print(f"  (delta={delta}, g={g}): {spec.source:<28} order {spec.order}")

for delta, g, kmax in [(3, 5, 15), (3, 6, 10)]:
    rows = eb.sharpness_report(delta, g, range(1, kmax + 1))
    print(f"\nchains of the (delta={delta}, g={g}) graph:")
    print(f"  {'k':>3} {'n':>5} {'lower':>9} {'avec':>10} {'upper':>9} {'gap':>8}")
    for r in rows:
        print(f"  {r.k:>3} {r.n:>5} {float(r.lower):>9.3f} {float(r.avec):>10.3f} "
              f"{float(r.upper):>9.3f} {float(r.gap_to_upper):>8.3f}")
    worst = max(float(r.gap_to_upper) for r in rows if r.k >= 2)
    print(f"  worst gap for k >= 2: {worst:.3f} "
          f"(cap {5 * (g - 1) / 2 - (0 if g % 2 else 1)})")

# the k=2 Petersen chain, explicitly: diameter g(k-1), radius about half that
graph, spec = eb.chain_graph(3, 5, 2)
prof = eb.eccentricity_profile(graph)
print(f"\n2-chain surgery record: deleted={spec.deleted_edges} links={spec.link_edges}")
print(f"n={graph.n} diameter={prof.diameter} radius={prof.radius} avec={prof.avec}")
