"""Exact rational combinatorics behind the coefficient lemmas.

Arithmetic is exact throughout the package: integers over a denominator
known in advance where there is one, `fractions.Fraction` elsewhere.
The module verifies three identities:
the factorial-sum lemma A(q,p) (two closed sums that agree for all
0 <= q <= p), the alternating binomial sum, and the odd-part binomial
polynomial identity used in its proof.

The two sides of A(q,p) are summed as integers over one common denominator
each: ``lhs_a`` over (p-q)!(p+1)!, ``rhs_a`` over (p+1)!.  Every term's
numerator is an exact integer because each divisor it takes, 2j+1 or
(p-q+l+1)!, divides (p+1)! (both are at most p+1).  The lemma's check
compares the numerators, lhs's against rhs's times (p-q)!, and forms the
two `Fraction`s only for a failing pair's payload.
``RationalPoly`` keeps integral coefficients as ``int`` and makes a
``Fraction`` only for a non-integral one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

from .report import Report, report

factorial = math.factorial


def lhs_a(q: int, p: int) -> Fraction:
    """Sum of 1/((2j+1)(2j-q)!(p-2j)!) over integers j with q <= 2j <= p."""
    _check_qp(q, p)
    fact = [factorial(k) for k in range(p + 2)]
    return Fraction(_lhs_total(q, p, fact), fact[p - q] * fact[p + 1])


def rhs_a(q: int, p: int) -> Fraction:
    """Sum of (-1)^l q! 2^(p-q+l) / ((q-l)!(p-q+l+1)!) over l = 0..q."""
    _check_qp(q, p)
    fact = [factorial(k) for k in range(p + 2)]
    return Fraction(_rhs_total(q, p, fact), fact[p + 1])


def _lhs_total(q: int, p: int, fact) -> int:
    """(p-q)! (p+1)! lhs_a(q, p): term j is
    C(p-q, 2j-q) (p+1)!/(2j+1); fact[k] is k!."""
    f = fact[p + 1]
    return sum(math.comb(p - q, 2 * j - q) * (f // (2 * j + 1))
               for j in range((q + 1) // 2, p // 2 + 1))


def _rhs_total(q: int, p: int, fact) -> int:
    """(p+1)! rhs_a(q, p): term l is
    (-1)^l (q!/(q-l)!) ((p+1)!/(p-q+l+1)!) 2^(p-q+l); fact[k] is k!."""
    f = fact[p + 1]
    return sum((-1) ** l * math.perm(q, l) * (f // fact[p - q + l + 1])
               * 2 ** (p - q + l) for l in range(q + 1))


def _check_qp(q: int, p: int) -> None:
    if q < 0 or q > p:
        raise ValueError(f"need 0 <= q <= p, got q={q}, p={p}")


def verify_factorial_lemma(max_p: int) -> Report:
    """Check lhs_a(q,p) == rhs_a(q,p) for every pair 0 <= q <= p <= max_p,
    as lhs_a's numerator against rhs_a's times (p-q)!."""
    if max_p < 0:
        raise ValueError("max_p must be >= 0")
    t0 = perf_counter()
    fact = [factorial(k) for k in range(max_p + 2)]
    bad = None
    pairs = 0
    for p in range(max_p + 1):
        for q in range(p + 1):
            pairs += 1
            if _lhs_total(q, p, fact) != _rhs_total(q, p, fact) * fact[p - q]:
                bad = {"q": q, "p": p, "lhs": str(lhs_a(q, p)),
                       "rhs": str(rhs_a(q, p))}
                break
        if bad:
            break
    return report("factorial-lemma", {"max_p": max_p}, bad, perf_counter() - t0,
                  {"pairs": pairs})


def verify_alternating_binomial(n: int) -> Report:
    """Check that sum_k (-1)^k C(n,k) is 1 for n = 0 and 0 for n > 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    t0 = perf_counter()
    total = sum((-1) ** k * math.comb(n, k) for k in range(n + 1))
    expected = 1 if n == 0 else 0
    bad = None
    if total != expected:
        bad = {"n": n, "sum": total, "expected": expected}
    return report("alternating-binomial", {"n": n}, bad, perf_counter() - t0,
                  {"sum": total})


class RationalPoly:
    """Sparse univariate polynomial over the rationals.

    Zero coefficients are never stored, so equality is map equality.  An
    integral coefficient is stored as an ``int``, any other as a
    ``Fraction``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {}
        for k, c in dict(coeffs).items():
            if k < 0:
                raise ValueError("exponents must be non-negative")
            if not isinstance(c, int):
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c:
                self.coeffs[k] = c

    @classmethod
    def constant(cls, c) -> "RationalPoly":
        return cls({0: c})

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls({1: 1})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return RationalPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalPoly({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly({k: c * other for k, c in self.coeffs.items()})
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = RationalPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "RationalPoly(0)"
        parts = [f"{c}*x^{k}" for k, c in sorted(self.coeffs.items())]
        return "RationalPoly(" + " + ".join(parts) + ")"


def verify_odd_binomial_poly(p: int) -> Report:
    """Check ((1+x)^(p+1) - (1-x)^(p+1))/2 == sum_j C(p+1,2j+1) x^(2j+1).

    The left side is expanded by repeated polynomial multiplication, the
    right side assembled directly from binomial coefficients, so the two
    routes are independent.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    t0 = perf_counter()
    x = RationalPoly.x()
    one = RationalPoly.constant(1)
    lhs = ((one + x) ** (p + 1) - (one - x) ** (p + 1)) * Fraction(1, 2)
    rhs = RationalPoly(
        {2 * j + 1: math.comb(p + 1, 2 * j + 1) for j in range(p // 2 + 1)}
    )
    bad = None
    if lhs != rhs:
        diff = lhs - rhs
        bad = {"p": p, "difference": {str(k): str(c) for k, c in diff.coeffs.items()}}
    return report("odd-binomial-poly", {"p": p}, bad, perf_counter() - t0,
                  {"terms": len(lhs.coeffs)})
