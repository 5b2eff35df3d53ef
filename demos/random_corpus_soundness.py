"""Falsification sweep: random (delta, girth)-graphs vs bounds and certificates.

Run:  python demos/random_corpus_soundness.py [count-per-config]

Generates girth-constrained random graphs, evaluates every applicable upper
bound, and runs the full certificate pipeline on each.  Any bound violation
or failed chain step would be a counterexample to the theory; none exist.
"""
import sys

import eccbounds as eb
from eccbounds.bounds import GraphParams, bound_thm_girth
from eccbounds.certify import certify

count = int(sys.argv[1]) if len(sys.argv) > 1 else 5
configs = [(3, 5, 60), (3, 7, 90), (4, 5, 70), (3, 4, 50), (3, 6, 80)]

violations = 0
rows = 0
for delta, gfloor, n in configs:
    for i in range(count):
        cfg = eb.GeneratorConfig(n=n, delta=delta, g=gfloor, seed=42_000 + i)
        out = eb.random_min_degree_girth(cfg)
        if isinstance(out, eb.GenerationFailure):
            print(f"  generation failure for {cfg} ({out.reason})")
            continue
        gi = eb.girth(out)
        params = GraphParams.measure(out)
        prof = eb.eccentricity_profile(out)
        upper = bound_thm_girth(params)
        cert = certify(out)
        ok = upper.applicable and prof.avec <= upper.value and cert.all_steps_hold
        rows += 1
        if not ok:
            violations += 1
        print(f"  delta>={delta} girth={gi} n={n}: avec={float(prof.avec):.3f} "
              f"<= bound={float(upper.value):.3f}  chain={'ok' if cert.all_steps_hold else 'FAIL'}")

print(f"\n{rows} graphs checked, {violations} violations")
sys.exit(1 if violations else 0)
