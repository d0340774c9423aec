import math
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


def test_factorial_lemma_failure_payload(monkeypatch):
    """rhs's numerator over (p+1)! perturbed by (p+1)!/7 at (2, 5): the
    check, which compares numerators, fails there, and the payload shows
    rhs_a off by 1/7."""
    real = combinatorics._rhs_total
    monkeypatch.setattr(combinatorics, "_rhs_total",
                        lambda q, p, fact: real(q, p, fact)
                        + Fraction(fact[p + 1], 7)
                        if (q, p) == (2, 5) else real(q, p, fact))
    rep = verify_factorial_lemma(8)
    assert not rep.passed
    left = lhs_a(2, 5)
    assert rep.counterexample == {"q": 2, "p": 5, "lhs": str(left),
                                  "rhs": str(left + Fraction(1, 7))}


@pytest.mark.parametrize("name,hit,payload", [
    ("perm", (3, 2), {"q": 3, "p": 3, "lhs": "0", "rhs": "2/3"}),
    ("comb", (4, 2), {"q": 0, "p": 4, "lhs": "53/360", "rhs": "2/15"})])
def test_factorial_lemma_fault_payload_is_unchanged(monkeypatch, name, hit,
                                                    payload):
    """A fault in one math.perm or math.comb value, which the sums look up
    through `math`, fails the lemma at the first pair it reaches; the
    payload strings are those the Fraction comparison gave."""
    real = getattr(math, name)
    monkeypatch.setattr(math, name,
                        lambda n, k: real(n, k) + ((n, k) == hit))
    rep = verify_factorial_lemma(8)
    assert not rep.passed
    assert rep.counterexample == payload


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
