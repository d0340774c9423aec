"""Exact rational combinatorics behind the coefficient lemmas.

Arithmetic is exact throughout the package: integers over a denominator
known in advance where there is one, `fractions.Fraction` elsewhere.
The module verifies three identities:
the factorial-sum lemma A(q,p) (two closed sums that agree for all
0 <= q <= p), and, in one suite, the alternating binomial sum and the
odd-part binomial polynomial identity used in its proof.

The two sides of A(q,p) are summed as integers over one common denominator
each: ``lhs_a`` over (p-q)!(p+1)!, ``rhs_a`` over (p+1)!.  Every term's
numerator is an exact integer because each divisor it takes, 2j+1 or
(p-q+l+1)!, divides (p+1)! (both are at most p+1).  The lemma's check
compares the numerators, lhs's against rhs's times (p-q)!, and forms the
two `Fraction`s only for a failing pair's payload.  The binomial suite
works on integers alone: the odd-part side is a Pascal row.
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


def verify_binomial(max_n: int) -> Report:
    """Check the two binomial identities for every 0 <= n, p <= max_n:
    sum_k (-1)^k C(n,k) is 1 for n = 0 and 0 for n > 0, and
    ((1+x)^(p+1) - (1-x)^(p+1))/2 == sum_j C(p+1,2j+1) x^(2j+1)."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    t0 = perf_counter()
    bad = _alternating_failure(max_n) or _odd_part_failure(max_n)
    return report("binomial", {"max_n": max_n}, bad, perf_counter() - t0,
                  {"alternating_checked": max_n + 1,
                   "poly_checked": max_n + 1})


def _alternating_failure(max_n: int):
    """The first n <= max_n whose alternating sum is wrong, or None."""
    for n in range(max_n + 1):
        total = sum((-1) ** k * math.comb(n, k) for k in range(n + 1))
        expected = 1 if n == 0 else 0
        if total != expected:
            return {"identity": "alternating-sum", "n": n, "sum": total,
                    "expected": expected}
    return None


def _odd_part_failure(max_n: int):
    """The first p <= max_n whose odd-part identity fails, with the
    nonzero coefficients of lhs - rhs, or None.

    The left side is expanded from one Pascal row of (1+x)^(p+1), built by
    repeated multiplication by 1+x and carried from p to p+1; x -> -x
    gives the row of (1-x)^(p+1).  The right side reads math.comb, so the
    two routes are independent."""
    row = [1]  # (1+x)^0, lowest degree first; step p makes it (1+x)^(p+1)
    for p in range(max_n + 1):
        row = [a + b for a, b in zip(row + [0], [0] + row)]
        diff = {}
        for k, c in enumerate(row):
            lhs = (c - (-1) ** k * c) // 2
            rhs = math.comb(p + 1, k) if k % 2 else 0
            if lhs != rhs:
                diff[str(k)] = str(lhs - rhs)
        if diff:
            return {"identity": "odd-poly", "p": p, "difference": diff}
    return None
