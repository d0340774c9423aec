"""Deligne-complex layer: bidegree bookkeeping, the twisted differential,
the graded product, and the alternating form families built from them.

An element of the complex in degree n and twist p is a form in
kind-count coordinates, with (n, p) passed beside it to
counts.deligne_diff and counts.deligne_product.  Below the middle degree
(n < 2p) the form has degree n-1 and both Hodge bidegrees at most p-1;
from 2p on it is an honest degree-n form.  The differential acts case by
case:

    n <  2p-1 : x |-> -(projection of dx onto bidegrees <= (p-1, p-1))
    n == 2p-1 : x |-> -2 del_(delbar(x))
    n >= 2p   : x |-> dx

and the product of two below-middle elements x, y is

    x * y = (-1)^n r(x) ^ y  +  x ^ r(y),

where r(x) keeps the holomorphic-degree >= p part of dx and adds (-1)^p
times its conjugate.  When either operand is in the form range the product
is the plain wedge; this is the only mixed behaviour the verified
identities expose.  The suites take the product of a one-symbol operand
with an alternating form only, as an induced product in kind-count
coordinates (counts.deligne_product).

S_m^i, T_m and C_m are S_m-alternating, and the verifiers compare them in
kind-count coordinates (regver.counts), m of them for T_m against its
m 2^(m-1) monomials; S_m^i and T_m are written down in closed form, one
coordinate per representative, with no seed to fold.  The sums over
omitted slots in the recursions, sum_j (-1)^(j-1) x(u_j) ^ Y(u's without
u_j), are induced products of a one-slot operand x with Y: u or deldelbar u
(counts.slot), or d_D u (counts.deligne_diff of the slot u in degree 1,
twist 1).  C_m is built by such a product per step.  The verifiers
compare integer coordinates: S_m^i, m! C_m and 2 m! T_m are integral.  A
failing check divides its difference back into `Fraction`s and takes
only the first terms of its monomial stream (counts.monomials) for the
payload; no form is ever unfolded whole.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from . import counts
from .counts import Counts, basis, monomials
from .forms import DELDELBAR, ZERO, Symbol, symbols, to_json_obj
from .report import Report

# the unfolded terms of a difference that a failing report lists
PAYLOAD_TERMS = 40


def _difference_payload(diff: Counts, syms) -> dict:
    """The term count and the first PAYLOAD_TERMS terms of a difference
    in kind-count coordinates over syms, unfolding only those first
    terms."""
    count = counts.unfolded_len(diff)
    payload = {"difference_term_count": count,
               "difference": to_json_obj(islice(monomials(diff, syms),
                                                PAYLOAD_TERMS))}
    if count > PAYLOAD_TERMS:
        payload["truncated"] = True
    return payload


def _compare(lhs: Counts, rhs: Counts, scale: int, syms, **fields):
    """None when lhs == rhs, else fields and the payload of the difference
    (lhs - rhs) / scale over syms(), which makes the symbols only for a
    failing check."""
    if lhs == rhs:
        return None
    return {**fields, **_difference_payload((lhs - rhs) * Fraction(1, scale),
                                            syms())}


def s_counts(m: int, i: int) -> Counts:
    """S_m^i, the alternation of (-2)^m u (del u)^(i-1) (delbar u)^(m-i),
    in kind-count coordinates: (i-1)! (m-i)! arrangements of the seed
    fall on its one representative."""
    coeffs = [0] * m
    coeffs[i - 1] = (-2) ** m * math.factorial(i - 1) * math.factorial(m - i)
    return basis(m, coeffs)


def scaled_t_counts(m: int, closed: bool = False) -> Counts:
    """2 m! T_m = sum_i (-1)^i S_m^i in integer kind-count coordinates;
    2 on zero slots."""
    if not m:
        return Counts(0, {(0, 0, 0): 2}, closed)
    fact = math.factorial
    return basis(m, [(-1) ** i * (-2) ** m * fact(i - 1) * fact(m - i)
                     for i in range(1, m + 1)], closed)


def t_counts(m: int, closed: bool = False) -> Counts:
    """T_m = (1/(2 m!)) sum_i (-1)^i S_m^i in kind-count coordinates;
    T_0 = 1, the constant on zero slots."""
    return scaled_t_counts(m, closed) * Fraction(1, 2 * math.factorial(m))


def c_counts(m: int) -> Counts:
    """m! C_m, the symmetrized right-nested product C_m in integer
    kind-count coordinates.

    Grouping the permutations of (1/m!) sum_sigma sgn(sigma)
    u_{s(1)} * (u_{s(2)} * ( ... * u_{s(m)})) by their first symbol gives
    C_m = (1/m) sum_j (-1)^(j-1) u_j * C_{m-1}(u's without u_j), one
    induced Deligne product per step, so m! C_m is that product of u with
    (m-1)! C_(m-1)."""
    if m < 1:
        raise ValueError("need at least one symbol")
    u = counts.slot(ZERO, False)  # a symbol in degree 1, twist 1
    acc = u  # C_1
    for n in range(1, m):
        acc = counts.deligne_product(u, 1, 1, acc, n, n)
    return acc


def dlog_rep(m: int, i: int) -> Counts:
    """The bidegree (i, m-i) piece of d(u_1) ^ ... ^ d(u_m): coordinate 1
    at (del u)^i (delbar u)^(m-i)."""
    return Counts(m, {(0, 0, i): 1})


def verify_product_expansion(m: int) -> Report:
    """T_m equals the symmetrized nested product for m generic symbols;
    both sides are compared times 2 m!, in integers."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t_form = scaled_t_counts(m)
    c_form = c_counts(m) * 2
    bad = _compare(t_form, c_form, 2 * math.factorial(m),
                   lambda: symbols(m), m=m)
    return Report("tm-identity", {"m": m}, bad,
                  {"monomials_t": counts.unfolded_len(t_form),
                   "monomials_c": counts.unfolded_len(c_form)})


def verify_s_derivative_identities(m: int, i: int) -> Report:
    """The del and delbar recursions for the basis forms S_m^i.

    del S_m^i  == (-2)^m i! (m-i)! (u)^(i)
                  + (m-i) sum_j (-1)^j (-2 deldelbar u_j) ^ S_{m-1}^i (no j)
    delbar S_m^i == (-2)^m (i-1)! (m-i+1)! (u)^(i-1)
                  - (i-1) sum_j (-1)^j (-2 deldelbar u_j) ^ S_{m-1}^{i-1} (no j)

    with j counted from 1, compared in kind-count coordinates, each sum
    the induced product of deldelbar u with S_{m-1}.
    """
    if not 1 <= i <= m:
        raise ValueError(f"need 1 <= i <= m, got i={i}, m={m}")
    fact = math.factorial
    s_mi = s_counts(m, i)
    x = counts.slot(DELDELBAR, False)

    lhs_del = counts.del_(s_mi)
    rhs_del = dlog_rep(m, i) * ((-2) ** m * fact(i) * fact(m - i))
    if m - i:
        rhs_del = rhs_del + counts.wedge(x, s_counts(m - 1, i)) * (2 * (m - i))

    lhs_dbar = counts.delbar(s_mi)
    rhs_dbar = dlog_rep(m, i - 1) * ((-2) ** m * fact(i - 1) * fact(m - i + 1))
    if i - 1:
        rhs_dbar = rhs_dbar \
            - counts.wedge(x, s_counts(m - 1, i - 1)) * (2 * (i - 1))

    bad = _compare(lhs_del, rhs_del, 1, lambda: symbols(m),
                   m=m, i=i, operator="del") \
        or _compare(lhs_dbar, rhs_dbar, 1, lambda: symbols(m),
                    m=m, i=i, operator="delbar")
    return Report("takeda", {"m": m, "i": i}, bad,
                  {"monomials_del": counts.unfolded_len(lhs_del),
                   "monomials_delbar": counts.unfolded_len(lhs_dbar)})


def verify_raw_differential(m: int) -> Report:
    """d T_m == 2^(m-1) ((u)^(m) + (-1)^(m-1) (u)^(0))
             + 2 sum_i (-1)^(i-1) deldelbar u_i ^ T_{m-1} (no i),
    with d T_1 = d u_1; compared in kind-count coordinates, both sides
    times 2 m! (2 m! T_(m-1) is m times scaled_t_counts(m - 1))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    scale = 2 * math.factorial(m)
    lhs = counts.d(scaled_t_counts(m))
    if m == 1:
        rhs = counts.d(counts.slot(ZERO, False)) * scale
    else:
        rhs = (dlog_rep(m, m) + dlog_rep(m, 0) * (-1) ** (m - 1)) \
            * (2 ** (m - 1) * scale)
        rhs = rhs + counts.wedge(counts.slot(DELDELBAR, False),
                                 scaled_t_counts(m - 1)) * (2 * m)
    bad = _compare(lhs, rhs, scale, lambda: symbols(m), m=m)
    return Report("prop52", {"m": m}, bad,
                  {"monomials": counts.unfolded_len(lhs)})


def verify_differential_recursion(m: int, closed: bool = False) -> Report:
    """The twisted differential of T_m expands slotwise:
    d_D T_m == sum_i (-1)^(i-1) (d_D u_i) ^ T_{m-1} (no i);
    compared in kind-count coordinates, both sides times 2 m!."""
    if m < 2:
        raise ValueError("m must be >= 2")
    lhs = counts.deligne_diff(scaled_t_counts(m, closed), m, m)
    # d_D u of a symbol u in degree 1, twist 1 lies in degree 2, twist 1
    du = counts.deligne_diff(counts.slot(ZERO, closed), 1, 1)
    rhs = counts.deligne_product(du, 2, 1, scaled_t_counts(m - 1, closed),
                                 m - 1, m - 1) * m
    bad = _compare(lhs, rhs, 2 * math.factorial(m),
                   lambda: [Symbol(s.index, s.name, closed)
                            for s in symbols(m)], m=m, closed=closed)
    return Report("recursion", {"m": m, "closed": closed}, bad,
                  {"monomials": counts.unfolded_len(lhs)})
