"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they happen.  Criterion 8's strict-comparison clause is asserted exactly as
specified even though it does not hold universally; see the failure message
for the counterexample family.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction as F

import eccbounds as eb
from eccbounds.bounds import (
    BoundId,
    GraphParams,
    bound_legacy,
    bound_thm_girth,
    bound_thm_girth_maxdeg,
)
from eccbounds.cli import main as cli_main
from conftest import random_connected


def _verdict(num: int, ok: bool, text: str):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")


# ---------------------------------------------------------------------------

def test_criterion_01_path_formula():
    start = time.perf_counter()
    mismatches = [n for n in range(1, 201)
                  if eb.path_avec_closed_form(n)
                  != eb.eccentricity_profile(eb.path_graph(n)).avec]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 5.0
    _verdict(1, ok, f"path closed form == measured avec for n=1..200 "
                    f"({elapsed:.2f}s, mismatches={mismatches[:5]})")
    assert not mismatches
    assert elapsed < 5.0


def test_criterion_02_weighted_path_comparison():
    start = time.perf_counter()
    rng = random.Random(20240)
    violations = 0
    for _ in range(500):
        n = rng.randint(2, 40)
        g = random_connected(rng, n, rng.randint(0, n))
        c = eb.WeightFunction(tuple(F(rng.randint(1, 6)) for _ in range(n)))
        if eb.weighted_avec(g, c) > eb.path_avec_closed_form(int(c.total)):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _verdict(2, ok, f"500 weighted instances vs path value "
                    f"({elapsed:.2f}s, violations={violations})")
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_03_theorem_soundness_odd(odd_corpus):
    start = time.perf_counter()
    records = odd_corpus["records"]
    bound_violations = []
    chain_failures = []
    for rec in records:
        value = bound_thm_girth(rec["params"]).value
        if not rec["cert"].chain["avecG"] <= value:
            bound_violations.append(rec["requested"])
        if not rec["cert"].all_steps_hold:
            chain_failures.append(rec["requested"])
    elapsed = odd_corpus["build_seconds"] + time.perf_counter() - start
    ok = len(records) == 200 and not bound_violations and not chain_failures \
        and elapsed < 300.0
    _verdict(3, ok, f"odd corpus: {len(records)} graphs, "
                    f"bound violations={len(bound_violations)}, "
                    f"chain failures={len(chain_failures)} ({elapsed:.1f}s)")
    assert len(records) == 200
    assert not bound_violations
    assert not chain_failures
    assert elapsed < 300.0


def test_criterion_04_theorem_soundness_even(even_corpus):
    start = time.perf_counter()
    records = even_corpus["records"]
    bound_violations = []
    chain_failures = []
    for rec in records:
        value = bound_thm_girth(rec["params"]).value
        if not rec["cert"].chain["avecG"] <= value:
            bound_violations.append(rec["requested"])
        if not rec["cert"].all_steps_hold:
            chain_failures.append(rec["requested"])
    elapsed = even_corpus["build_seconds"] + time.perf_counter() - start
    ok = len(records) == 200 and not bound_violations and not chain_failures \
        and elapsed < 300.0
    _verdict(4, ok, f"even corpus: {len(records)} graphs, "
                    f"bound violations={len(bound_violations)}, "
                    f"chain failures={len(chain_failures)} ({elapsed:.1f}s)")
    assert len(records) == 200
    assert not bound_violations
    assert not chain_failures
    assert elapsed < 300.0


def test_criterion_05_max_degree_variant(odd_corpus, even_corpus):
    violations = []
    applicable_count = 0
    for rec in odd_corpus["records"] + even_corpus["records"]:
        r = bound_thm_girth_maxdeg(rec["params"])
        if r.applicable:
            applicable_count += 1
            if not rec["cert"].chain["avecG"] <= r.value:
                violations.append(rec["requested"])
        if rec["certmax"] is not None and not rec["certmax"].all_steps_hold:
            violations.append(("certmax", rec["requested"]))

    identity_failures = []
    for delta in range(3, 21):
        for g in range(3, 13):
            n = 30 * delta ** (g // 2)
            r = bound_thm_girth_maxdeg(GraphParams(n=n, delta=delta, Delta=delta, g=g))
            pair = ("K1", "K2") if g % 2 else ("L1", "L2")
            if r.constants[pair[0]] != r.constants[pair[1]]:
                identity_failures.append((delta, g))

    ok = not violations and not identity_failures
    _verdict(5, ok, f"max-degree variant: {applicable_count} applicable instances, "
                    f"violations={len(violations)}, "
                    f"identity failures={len(identity_failures)}")
    assert not violations
    assert not identity_failures


def test_criterion_06_sharpness_odd_chains():
    start = time.perf_counter()
    problems = []
    for k in range(1, 16):
        g, _ = eb.chain_graph(3, 5, k)
        prof = eb.eccentricity_profile(g)
        lower = F(15 * k, 4) - F(9, 2)
        upper = F(15 * k, 4) + F(11, 2)
        if not (lower <= prof.avec <= upper):
            problems.append((k, "sandwich", prof.avec))
        if k >= 2:
            if upper - prof.avec > 10:
                problems.append((k, "gap", upper - prof.avec))
            if prof.diameter != 5 * (k - 1):
                problems.append((k, "diameter", prof.diameter))
            if prof.radius != math.ceil(5 * (k - 1) / 2):
                problems.append((k, "radius", prof.radius))
        else:
            # a single copy is the catalog graph itself
            if (prof.diameter, prof.radius) != (2, 2):
                problems.append((k, "base-shape", (prof.diameter, prof.radius)))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    _verdict(6, ok, f"odd chains k=1..15 sandwich/gap/diameter/radius "
                    f"({elapsed:.1f}s, problems={problems})")
    assert not problems
    assert elapsed < 60.0


def test_criterion_07_sharpness_even_chains():
    start = time.perf_counter()
    problems = []
    for k in range(1, 11):
        g, _ = eb.chain_graph(3, 6, k)
        prof = eb.eccentricity_profile(g)
        lower = eb.lower_bound_chain(GraphParams(n=14 * k, delta=3, g=6), k)
        assert lower == F(9 * k, 2) - F(9, 2)
        upper = F(9 * k, 2) + 7
        if not (lower <= prof.avec <= upper):
            problems.append((k, "sandwich", prof.avec))
        if k >= 2:
            if upper - prof.avec > F(23, 2):  # 5(g-1)/2 - 1
                problems.append((k, "gap", upper - prof.avec))
            if prof.diameter != 6 * (k - 1) + 1:
                problems.append((k, "diameter", prof.diameter))
        else:
            if (prof.diameter, prof.radius) != (3, 3):
                problems.append((k, "base-shape", (prof.diameter, prof.radius)))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    _verdict(7, ok, f"even chains k=1..10 sandwich/gap/diameter "
                    f"({elapsed:.1f}s, problems={problems})")
    assert not problems
    assert elapsed < 60.0


def test_criterion_08_reduction_identities():
    start = time.perf_counter()
    bad_g4 = bad_g5 = bad_g3_form = 0
    for delta in range(3, 51):
        eq2_den = 2 * delta
        k5 = delta * delta + 1
        for n in range(delta + 1, 10001):
            p3 = GraphParams(n=n, delta=delta, g=3)
            if bound_thm_girth(p3).value != F(9, 4) * -(-n // (delta + 1)) + F(5, 2):
                bad_g3_form += 1
            p4 = GraphParams(n=n, delta=delta, g=4)
            if bound_thm_girth(p4).value != bound_legacy(p4, BoundId.EQ2).value - 1:
                bad_g4 += 1
            p5 = GraphParams(n=n, delta=delta, g=5)
            if bound_thm_girth(p5).value != F(15, 4) * -(-n // k5) + F(11, 2):
                bad_g5 += 1
    elapsed = time.perf_counter() - start
    ok = bad_g3_form == bad_g4 == bad_g5 == 0 and elapsed < 30.0
    _verdict(8, ok, f"reduction identities g=3/4/5 over delta<=50, n<=10^4 "
                    f"({elapsed:.1f}s, failures={bad_g3_form},{bad_g4},{bad_g5})")
    assert bad_g3_form == 0 and bad_g4 == 0 and bad_g5 == 0
    assert elapsed < 30.0


def test_criterion_08_girth3_strictly_below_eq1():
    # Asserted exactly as specified: the girth-3 specialization should be
    # strictly below Eq1 for every delta <= 50 and n <= 10^4.  The claim is
    # false whenever frac(n/(delta+1)) lands in (0, 4/9]; the smallest
    # counterexample is delta=3, n=5 where the values are 7 vs 105/16.
    start = time.perf_counter()
    violations = 0
    first = None
    for delta in range(3, 51):
        for n in range(delta + 1, 10001):
            p = GraphParams(n=n, delta=delta, g=3)
            if not bound_thm_girth(p).value < bound_legacy(p, BoundId.EQ1).value:
                violations += 1
                if first is None:
                    first = (delta, n)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _verdict(8, ok, f"strict comparison girth-3 value < Eq1 value "
                    f"({elapsed:.1f}s, violations={violations}, first={first})")
    assert violations == 0, (
        f"{violations} (delta, n) pairs violate the strict comparison, the first "
        f"being {first}: the girth-3 value exceeds Eq1 whenever n/(delta+1) has "
        f"fractional part in (0, 4/9]; only the weaker relation "
        f"'girth-3 value < Eq1 value + 1' holds universally")
    assert elapsed < 30.0


def test_criterion_09_certificate_structural_suite(odd_corpus, even_corpus):
    failures = []
    total = 0
    for rec in odd_corpus["records"] + even_corpus["records"]:
        for cert in (rec["cert"], rec["certmax"]):
            if cert is None:
                continue
            total += 1
            bad = [c.name for c in cert.checks if not c.ok]
            if bad:
                failures.append((rec["requested"], bad))
    # fixed instances on top of the generated corpus
    for g in (eb.petersen_graph(), eb.heawood_graph(), eb.complete_graph(4),
              eb.complete_bipartite(3, 3), eb.hoffman_singleton_graph(),
              eb.chain_graph(3, 5, 4)[0], eb.chain_graph(3, 6, 3)[0]):
        gi = eb.girth(g)
        cert = (eb.certify_odd if gi % 2 else eb.certify_even)(g)
        total += 1
        bad = [c.name for c in cert.checks if not c.ok]
        if bad:
            failures.append((("fixed", g.n, gi), bad))
    ok = not failures
    _verdict(9, ok, f"structural suite across {total} certificates, "
                    f"failures={failures[:3]}")
    assert not failures


def test_criterion_10_determinism(tmp_path):
    cert_pairs = []
    for g in (eb.petersen_graph(), eb.chain_graph(3, 6, 2)[0],
              eb.random_min_degree_girth(eb.GeneratorConfig(n=50, delta=3, g=5, seed=77))):
        gi = eb.girth(g)
        certify = eb.certify_odd if gi % 2 else eb.certify_even
        cert_pairs.append(certify(g).to_json() == certify(g).to_json())

    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    args = ["batch", "--delta", "3", "--g", "5", "--n", "40", "--count", "6", "--seed", "7"]
    assert cli_main(args + ["--out", str(d1)]) == 0
    assert cli_main(args + ["--out", str(d2)]) == 0
    csv_same = (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()

    ok = all(cert_pairs) and csv_same
    _verdict(10, ok, f"byte-identical certificates={all(cert_pairs)}, "
                     f"byte-identical batch CSV={csv_same}")
    assert all(cert_pairs)
    assert csv_same
