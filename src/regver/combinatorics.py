"""Exact rational combinatorics behind the coefficient lemmas.

Arithmetic is exact throughout the package: integers over a denominator
known in advance where there is one, `fractions.Fraction` elsewhere.
The module verifies three identities:
the factorial-sum lemma A(q,p) (two closed sums that agree for all
0 <= q <= p), and, in one suite, the alternating binomial sum and the
odd-part binomial polynomial identity used in its proof.

``lhs_a`` and ``rhs_a`` evaluate the two closed sums of A(q,p), each as
an integer over one common denominator.  The lemma's check instead
carries both sides, scaled to integers, from pair to pair by two
recurrences (``_lemma_pairs``), O(max_p^2) integer steps in all; only a
failing pair's payload calls the closed sums.  The binomial suite works
on integers alone: the odd-part side is a Pascal row.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .report import Report

factorial = math.factorial


def lhs_a(q: int, p: int) -> Fraction:
    """Sum of 1/((2j+1)(2j-q)!(p-2j)!) over integers j with q <= 2j <= p,
    summed over (p-q)!(p+1)!: term j is C(p-q, 2j-q) (p+1)!/(2j+1)."""
    _check_qp(q, p)
    f = factorial(p + 1)
    total = sum(math.comb(p - q, 2 * j - q) * (f // (2 * j + 1))
                for j in range((q + 1) // 2, p // 2 + 1))
    return Fraction(total, factorial(p - q) * f)


def rhs_a(q: int, p: int) -> Fraction:
    """Sum of (-1)^l q! 2^(p-q+l) / ((q-l)!(p-q+l+1)!) over l = 0..q,
    summed over (p+1)!: term l is
    (-1)^l (q!/(q-l)!) ((p+1)!/(p-q+l+1)!) 2^(p-q+l)."""
    _check_qp(q, p)
    fact = [factorial(k) for k in range(p + 2)]
    f = fact[p + 1]
    total = sum((-1) ** l * math.perm(q, l) * (f // fact[p - q + l + 1])
                * 2 ** (p - q + l) for l in range(q + 1))
    return Fraction(total, f)


def _check_qp(q: int, p: int) -> None:
    if q < 0 or q > p:
        raise ValueError(f"need 0 <= q <= p, got q={q}, p={p}")


def verify_factorial_lemma(max_p: int) -> Report:
    """Check lhs_a(q,p) == rhs_a(q,p) for every pair 0 <= q <= p <= max_p,
    p ascending and then q, as L(q,p) == (p-q)! R(q,p) (see _lemma_pairs).
    A failing pair's payload gives both sides by their closed sums."""
    if max_p < 0:
        raise ValueError("max_p must be >= 0")
    fact = [factorial(k) for k in range(max_p + 1)]
    bad = None
    pairs = 0
    for q, p, left, right in _lemma_pairs(max_p):
        pairs += 1
        if left != fact[p - q] * right:
            bad = {"q": q, "p": p, "lhs": str(lhs_a(q, p)),
                   "rhs": str(rhs_a(q, p))}
            break
    return Report("factorial-lemma", {"max_p": max_p}, bad, {"pairs": pairs})


def _lemma_pairs(max_p: int):
    """Yield (q, p, L(q,p), R(q,p)) for 0 <= q <= p <= max_p, p ascending
    and then q, where, with F = (max_p+1)!,
    L(q,p) = (p-q)! F lhs_a(q,p) = sum_t C(p-q, t-q) u(t) over q <= t <= p and
    R(q,p) = F rhs_a(q,p) = sum_l (-1)^l perm(q,l) v(p-q+l) over 0 <= l <= q,
    for the seeds u and v of _seeds.  Pascal's rule gives
    L(q,p) = L(q,p-1) + L(q+1,p) from L(p,p) = u(p), one descending pass
    over the previous p's row, and perm(q,l) = q perm(q-1,l-1) gives
    R(q,p) = v(p-q) - q R(q-1,p) from R(0,p) = v(p)."""
    u, v = _seeds(max_p)
    row = []  # L(q, p) for q = 0..p
    for p in range(max_p + 1):
        row.append(u[p])
        for q in range(p - 1, -1, -1):
            row[q] += row[q + 1]
        right = v[p]
        yield 0, p, row[0], right
        for q in range(1, p + 1):
            right = v[p - q] - q * right
            yield q, p, row[q], right


def _seeds(max_p: int) -> tuple[list[int], list[int]]:
    """u(t) = F/(t+1) for even t, 0 for odd t, and v(i) = F 2^i/(i+1)!,
    for 0 <= t, i <= max_p and F = (max_p+1)!: integers, as t+1 and
    (i+1)! divide F."""
    f = factorial(max_p + 1)
    u = [0 if t % 2 else f // (t + 1) for t in range(max_p + 1)]
    v = [f]
    for i in range(1, max_p + 1):
        v.append(2 * v[-1] // (i + 1))
    return u, v


def verify_binomial(max_n: int) -> Report:
    """Check the two binomial identities for every 0 <= n, p <= max_n:
    sum_k (-1)^k C(n,k) is 1 for n = 0 and 0 for n > 0, and
    ((1+x)^(p+1) - (1-x)^(p+1))/2 == sum_j C(p+1,2j+1) x^(2j+1)."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    bad = _alternating_failure(max_n) or _odd_part_failure(max_n)
    return Report("binomial", {"max_n": max_n}, bad,
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
