import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rational_oracle import (RationalPoly, oracle_binomial, poly_coeff,
                             poly_degree, verify_alternating_binomial,
                             verify_odd_binomial_poly)
from regver import combinatorics
from regver.combinatorics import (factorial, lhs_a, rhs_a, verify_binomial,
                                  verify_factorial_lemma)


def iterated_factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


@pytest.mark.parametrize("n,expected", [(0, 1), (5, 120),
                                        (20, 2432902008176640000)])
def test_factorial_examples(n, expected):
    assert factorial(n) == expected
    assert factorial(n) == iterated_factorial(n)


def fraction_lhs_a(q, p):
    """Term-by-term Fraction summation of lhs_a: the oracle."""
    total = Fraction(0)
    j = (q + 1) // 2
    while 2 * j <= p:
        total += Fraction(1, (2 * j + 1) * factorial(2 * j - q) * factorial(p - 2 * j))
        j += 1
    return total


def fraction_rhs_a(q, p):
    """Term-by-term Fraction summation of rhs_a: the oracle."""
    total = Fraction(0)
    for l in range(q + 1):
        total += Fraction(
            (-1) ** l * factorial(q) * 2 ** (p - q + l),
            factorial(q - l) * factorial(p - q + l + 1),
        )
    return total


def test_common_denominator_sums_match_fraction_oracle():
    for p in range(61):
        for q in range(p + 1):
            assert lhs_a(q, p) == fraction_lhs_a(q, p), (q, p)
            assert rhs_a(q, p) == fraction_rhs_a(q, p), (q, p)


def test_lemma_pairs_match_the_closed_sums():
    """The recurrences' integers are the closed sums over F = (max_p+1)!,
    in the suite's order: p ascending, then q."""
    for max_p in (0, 1, 7, 60):
        f = factorial(max_p + 1)
        seen = []
        for q, p, left, right in combinatorics._lemma_pairs(max_p):
            seen.append((q, p))
            assert left == f * factorial(p - q) * lhs_a(q, p), (q, p)
            assert right == f * rhs_a(q, p), (q, p)
        assert seen == [(q, p) for p in range(max_p + 1)
                        for q in range(p + 1)]


@pytest.mark.parametrize("side,k", [(0, 4), (0, 5), (1, 3), (1, 6)],
                         ids=["u4", "u5", "v3", "v6"])
def test_factorial_lemma_seed_fault_fails_first_at_q_zero(monkeypatch, side,
                                                          k):
    """One seed entry raised by 1, u(k) of L or v(k) of R, reaches first the
    pair (0, k), where it is L's or R's only term.  The check fails there
    after k(k+1)/2 + 1 pairs, and the payload gives both sides by their
    closed sums, which agree: the fault is in the route, not the lemma."""
    real = combinatorics._seeds

    def faulty(max_p):
        seeds = real(max_p)
        seeds[side][k] += 1
        return seeds

    monkeypatch.setattr(combinatorics, "_seeds", faulty)
    rep = verify_factorial_lemma(8)
    assert not rep.passed and rep.stats == {"pairs": k * (k + 1) // 2 + 1}
    value = str(lhs_a(0, k))
    assert rep.counterexample == {"q": 0, "p": k, "lhs": value, "rhs": value}


def test_factorial_lemma_peak_memory_is_linear():
    """The check keeps O(max_p) integers alive: one row of L, the seeds
    and the factorials, about 0.6 MB at max_p = 400, where a table of
    every pair would take about 30 MB."""
    tracemalloc.start()
    try:
        assert verify_factorial_lemma(400).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_lhs_a_small_values():
    assert lhs_a(0, 0) == 1
    # direct summation: j = 0 gives 1/2, j = 1 gives 1/6
    assert lhs_a(0, 2) == Fraction(1, 2) + Fraction(1, 6)
    assert lhs_a(0, 2) == Fraction(2, 3)


def test_lhs_a_empty_range_is_zero():
    # q = p = 1 admits no integer j with 1 <= 2j <= 1
    assert lhs_a(1, 1) == 0


def test_rhs_a_small_values():
    assert rhs_a(0, 0) == 1
    assert rhs_a(0, 2) == Fraction(2, 3)
    # brute-force value: 2^0/(1!*1!) - 2/(0!*2!) = 1 - 1
    assert rhs_a(1, 1) == 0
    assert rhs_a(1, 1) == lhs_a(1, 1)


@pytest.mark.parametrize("q,p", [(-1, 0), (2, 1), (5, 3)])
def test_a_rejects_bad_ranges(q, p):
    with pytest.raises(ValueError):
        lhs_a(q, p)
    with pytest.raises(ValueError):
        rhs_a(q, p)


def test_closed_form_at_q_zero():
    for p in range(61):
        assert lhs_a(0, p) * factorial(p + 1) == 2 ** p


def test_factorial_lemma_small():
    rep = verify_factorial_lemma(0)
    assert rep.passed and rep.stats["pairs"] == 1
    rep = verify_factorial_lemma(10)
    assert rep.passed and rep.stats["pairs"] == 66


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("n,total", [(0, 1), (3, 0), (12, 0)])
def test_alternating_binomial(n, total):
    rep = verify_alternating_binomial(n)
    assert rep.passed
    assert rep.stats["sum"] == total


def test_rational_poly_arithmetic():
    x = RationalPoly.x()
    one = RationalPoly.constant(1)
    sq = (one + x) * (one + x)
    assert sq == RationalPoly({0: 1, 1: 2, 2: 1})
    assert (x - x) == RationalPoly({})
    assert x ** 3 == RationalPoly({3: 1})
    assert poly_coeff(sq, 1) == 2 and poly_degree(sq) == 2


def test_rational_poly_integral_coefficients_are_ints():
    for k in (-3, 0, 1, 7):
        assert RationalPoly({2: Fraction(k, 1)}) == RationalPoly({2: k})
    assert type(poly_coeff(RationalPoly({2: Fraction(6, 2)}), 2)) is int
    x = RationalPoly.x()
    third = (x + RationalPoly.constant(1)) * Fraction(1, 3)
    assert third == RationalPoly({0: Fraction(1, 3), 1: Fraction(1, 3)})
    assert all(type(c) is Fraction for c in third.coeffs.values())
    assert type(poly_coeff(third * 3, 1)) is int


def test_rational_poly_pow_matches_binomial_oracle():
    x = RationalPoly.x()
    one = RationalPoly.constant(1)
    for n in range(8):
        expanded = (one + x) ** n
        assert expanded == RationalPoly({k: math.comb(n, k)
                                         for k in range(n + 1)})


def test_odd_binomial_poly_examples():
    # p = 0: both sides are x
    rep = verify_odd_binomial_poly(0)
    assert rep.passed
    # p = 2: both sides are 3x + x^3
    x = RationalPoly.x()
    one = RationalPoly.constant(1)
    lhs = ((one + x) ** 3 - (one - x) ** 3) * Fraction(1, 2)
    assert lhs == RationalPoly({1: 3, 3: 1})
    assert verify_odd_binomial_poly(2).passed
    assert verify_odd_binomial_poly(9).passed


def test_odd_binomial_poly_sweep():
    assert all(verify_odd_binomial_poly(p).passed for p in range(41))


def same_report(new, old):
    a, b = new.to_dict(), old.to_dict()
    a.pop("elapsed")
    b.pop("elapsed")
    assert a == b


def test_binomial_matches_the_rational_oracle():
    for max_n in range(61):
        same_report(verify_binomial(max_n), oracle_binomial(max_n))


def comb_plus_one_at(hits):
    """math.comb with 1 added at the (n, k) pairs in hits."""
    real = math.comb
    return lambda n, k: real(n, k) + ((n, k) in hits)


@pytest.mark.parametrize("hits,payload", [
    # C(4,1) and C(4,2) raised: the alternating sum at n = 4 stays 0, the
    # odd-part side at p = 3 is 1 short at x^1
    ({(4, 1), (4, 2)},
     {"identity": "odd-poly", "p": 3, "difference": {"1": "-1"}}),
    # C(3,1) raised: both identities fail, the alternating sum first
    ({(3, 1)},
     {"identity": "alternating-sum", "n": 3, "sum": -1, "expected": 0}),
    # C(7,3) to C(7,6) raised: the alternating sum at n = 7 stays 0, the
    # odd-part side at p = 6 is 1 short at x^3 and at x^5
    ({(7, 3), (7, 4), (7, 5), (7, 6)},
     {"identity": "odd-poly", "p": 6, "difference": {"3": "-1", "5": "-1"}}),
])
def test_binomial_fault_reports_match_the_rational_oracle(monkeypatch, hits,
                                                          payload):
    monkeypatch.setattr(math, "comb", comb_plus_one_at(hits))
    for max_n in (8, 12):
        rep = verify_binomial(max_n)
        assert rep.counterexample == payload
        same_report(rep, oracle_binomial(max_n))


def test_binomial_at_depth_builds_no_fraction(monkeypatch):
    """The odd-part side is an integer Pascal row: no Fraction is formed."""
    monkeypatch.setattr(combinatorics, "Fraction", None)
    rep = verify_binomial(120)
    assert rep.passed and rep.stats == {"alternating_checked": 121,
                                        "poly_checked": 121}
