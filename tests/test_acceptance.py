"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every identity is checked in exact rational/integer arithmetic; the only
tolerances are the wall-clock bounds stated alongside.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import subprocess
import sys
from time import perf_counter

from form_oracle import build_t_log, build_t_log_element
from regver.combinatorics import factorial, lhs_a, rhs_a
from regver.deligne import (verify_differential_recursion,
                            verify_product_expansion, verify_raw_differential,
                            verify_s_derivative_identities)
from regver.logforms import (log_symbols, verify_goncharov_boundary,
                             verify_goncharov_equals_wang,
                             verify_mixed_boundary,
                             verify_vanishing_on_diagonal,
                             verify_wang_boundary)
from regver.suites import (verify_cubical_batch, verify_les_batch,
                           verify_snf_batch, verify_two_arrow_formula)


def outcome(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_factorial_lemma_exact():
    t0 = perf_counter()
    pairs = 0
    ok = True
    for p in range(61):
        for q in range(p + 1):
            pairs += 1
            if lhs_a(q, p) != rhs_a(q, p):
                ok = False
    elapsed = perf_counter() - t0
    ok = ok and pairs == 1891 and elapsed < 1.0
    outcome(1, ok, f"factorial lemma on {pairs} pairs in {elapsed:.2f}s")


def test_criterion_2_closed_form():
    ok = all(lhs_a(0, p) * factorial(p + 1) == 2 ** p for p in range(61))
    outcome(2, ok, "closed form A(0,p)*(p+1)! = 2^p for p <= 60")


def test_criterion_3_goncharov_equals_wang():
    ok = all(verify_goncharov_equals_wang(m).passed for m in range(1, 6))
    t0 = perf_counter()
    ok = ok and verify_goncharov_equals_wang(6).passed
    elapsed6 = perf_counter() - t0
    ok = ok and elapsed6 < 30.0
    outcome(3, ok, f"Goncharov = Wang for m = 1..6 (m=6 in {elapsed6:.1f}s)")


def test_criterion_4_product_expansion():
    ok = all(verify_product_expansion(m).passed for m in range(1, 5))
    t0 = perf_counter()
    ok = ok and verify_product_expansion(5).passed
    elapsed5 = perf_counter() - t0
    ok = ok and elapsed5 < 60.0
    outcome(4, ok, f"T_m = symmetrized product for m = 1..5 (m=5 in "
                   f"{elapsed5:.1f}s)")


def test_criterion_5_s_derivative_identities():
    ok = all(verify_s_derivative_identities(m, i).passed
             for m in range(1, 6) for i in range(1, m + 1))
    outcome(5, ok, "del/delbar recursions of S_m^i for all 1 <= i <= m <= 5")


def test_criterion_6_differential_recursion():
    ok = all(verify_differential_recursion(m).passed for m in range(2, 6))
    outcome(6, ok, "twisted-differential recursion for m = 2..5")


def test_criterion_7_raw_differential_and_specialization():
    ok = all(verify_raw_differential(m).passed for m in range(1, 6))
    # under the log specialization the second derivatives vanish, the total
    # derivative splits into the two pure wedges, and the twisted
    # differential is identically zero
    from fractions import Fraction

    from form_oracle import FormExpr, d, deligne_diff, scalar, wedge
    from regver.forms import DEL, DELBAR

    for m in range(1, 6):
        fs = log_symbols(m)
        hol = scalar(1)
        anti = scalar(1)
        for f in fs:
            hol = wedge(hol, FormExpr.monomial(1, ((DEL, f),)))
            anti = wedge(anti, FormExpr.monomial(1, ((DELBAR, f),)))
        expected = (hol + anti * ((-1) ** (m - 1))) * Fraction((-1) ** m, 2)
        ok = ok and d(build_t_log(fs)) == expected
        ok = ok and deligne_diff(build_t_log_element(fs)).expr.is_zero()
    outcome(7, ok, "raw differential m = 1..5 and its log specialization")


def test_criterion_8_boundary_theorems():
    ok = all(verify_wang_boundary(m).passed for m in range(1, 5))
    ok = ok and all(verify_goncharov_boundary(m).passed for m in range(1, 5))
    pairs = [(n, m) for n in range(0, 5) for m in range(0, 5)
             if 1 <= n + m <= 4]
    ok = ok and all(verify_mixed_boundary(n, m).passed for n, m in pairs)
    outcome(8, ok, "residue-level boundary formulas (cubical, simplicial, "
                   f"mixed; {len(pairs)} mixed pairs)")


def test_criterion_9_vanishing():
    ok = all(verify_vanishing_on_diagonal(m).passed for m in range(1, 6))
    outcome(9, ok, "slot substitution annihilates W_m for m <= 5")


def test_criterion_10_homological_suite():
    cubical = verify_cubical_batch(200, seed=9001)
    snf = verify_snf_batch(200, seed=9002, oracle_count=60)
    les = verify_les_batch(100, seed=9003)
    arrows = verify_two_arrow_formula()
    ok = all(r.passed for r in (cubical, snf, les, arrows))
    outcome(10, ok, "homological suite: 200 cubical groups with rank "
                    "decomposition, 200 SNF + minor-gcd oracle, 100 "
                    "long-exact-sequence maps, two-arrow block formula")


def test_criterion_11_cli_contract():
    t0 = perf_counter()
    res = subprocess.run([sys.executable, "-m", "regver", "all",
                          "--level", "quick"],
                         capture_output=True, text=True)
    elapsed = perf_counter() - t0
    ok = res.returncode == 0 and elapsed <= 10.0
    payload = json.loads(res.stdout)
    ok = ok and payload["status"] == "pass"

    fault = subprocess.run([sys.executable, "-m", "regver", "verify",
                            "goncharov-wang", "--m", "3", "--perturb-cjm"],
                           capture_output=True, text=True)
    fault_payload = json.loads(fault.stdout)
    ok = ok and fault.returncode == 1
    ok = ok and fault_payload["reports"][0]["counterexample"] is not None
    outcome(11, ok, f"`regver all --level quick` green in {elapsed:.1f}s; "
                    "fault injection exits 1 with a counterexample")
