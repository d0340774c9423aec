"""Deligne-complex layer: bidegree bookkeeping, the twisted differential,
the graded product, and the alternating form families built from them.

An element of the complex in degree n and twist p is stored as a FormExpr
together with (n, p).  Below the middle degree (n < 2p) the underlying
form has degree n-1 and both Hodge bidegrees at most p-1; from 2p on it is
an honest degree-n form.  The differential acts case by case:

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
coordinate per representative, with no seed to fold.  The sums over omitted slots in the recursions,
sum_j (-1)^(j-1) x(u_j) ^ Y(u's without u_j), are induced products of a
one-symbol operand x (as_element, ddb or deligne_diff of a symbol, built
here and read off as one-slot coordinates) with Y; C_m is built by such a
product per step.  A failing check maps its difference back to the orbit
representatives and unfolds only the first terms for the payload.  Only
build_t, behind `regver expand`, unfolds a whole form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

from . import counts
from .counts import Counts, basis, to_form
from .forms import (DELDELBAR, FormExpr, Symbol, d, del_, delbar,
                    factor_expr, gen, project_if, symbols, to_json_obj,
                    unfold, unfold_head)
from .report import Report, report

# the unfolded terms of a difference that a failing report lists
PAYLOAD_TERMS = 40


class DeligneElement:
    """FormExpr with a complex degree n and twist p."""

    __slots__ = ("expr", "degree", "twist")

    def __init__(self, expr: FormExpr, degree: int, twist: int):
        self.expr = expr
        self.degree = degree
        self.twist = twist

    def __eq__(self, other):
        return (isinstance(other, DeligneElement)
                and self.degree == other.degree
                and self.twist == other.twist
                and self.expr == other.expr)

    def __repr__(self):
        return f"DeligneElement(n={self.degree}, p={self.twist}, {self.expr!r})"


def build_t(syms) -> DeligneElement:
    """Wang form T_m = (1/(2 m!)) sum_i (-1)^i S_m^i; T_0 = 1."""
    m = len(syms)
    return DeligneElement(unfold(to_form(t_counts(m), syms), syms), m, m)


def as_element(sym: Symbol) -> DeligneElement:
    """A symbol viewed in degree 1, twist 1."""
    return DeligneElement(gen(sym), 1, 1)


def deligne_diff(x: DeligneElement) -> DeligneElement:
    n, p = x.degree, x.twist
    if n >= 2 * p:
        return DeligneElement(d(x.expr), n + 1, p)
    if n == 2 * p - 1:
        return DeligneElement(del_(delbar(x.expr)) * (-2), n + 1, p)
    kept = project_if(d(x.expr), lambda a, b: a <= p - 1 and b <= p - 1)
    return DeligneElement(-kept, n + 1, p)


def ddb(sym: Symbol) -> FormExpr:
    """The deldelbar factor of a symbol as an expression."""
    return factor_expr(DELDELBAR, sym)


def _difference_payload(diff: Counts, syms) -> dict:
    """The term count and the first PAYLOAD_TERMS terms of a difference
    in kind-count coordinates over syms, unfolding only those first
    terms."""
    count = counts.unfolded_len(diff)
    payload = {"difference_term_count": count,
               "difference": to_json_obj(unfold_head(to_form(diff, syms),
                                                     syms, PAYLOAD_TERMS))}
    if count > PAYLOAD_TERMS:
        payload["truncated"] = True
    return payload


def s_counts(m: int, i: int) -> Counts:
    """S_m^i, the alternation of (-2)^m u (del u)^(i-1) (delbar u)^(m-i),
    in kind-count coordinates: (i-1)! (m-i)! arrangements of the seed
    fall on its one representative."""
    coeffs = [0] * m
    coeffs[i - 1] = (-2) ** m * math.factorial(i - 1) * math.factorial(m - i)
    return basis(m, coeffs)


def t_counts(m: int, closed: bool = False) -> Counts:
    """T_m = (1/(2 m!)) sum_i (-1)^i S_m^i in kind-count coordinates;
    T_0 = 1, the constant on zero slots."""
    if not m:
        return Counts(0, {(0, 0, 0): Fraction(1)}, closed)
    fact = math.factorial
    return basis(m, [Fraction((-1) ** i * (-2) ** m * fact(i - 1)
                              * fact(m - i), 2 * fact(m))
                     for i in range(1, m + 1)], closed)


def c_counts(m: int) -> Counts:
    """The symmetrized right-nested product C_m in kind-count coordinates.

    Grouping the permutations of (1/m!) sum_sigma sgn(sigma)
    u_{s(1)} * (u_{s(2)} * ( ... * u_{s(m)})) by their first symbol gives
    C_m = (1/m) sum_j (-1)^(j-1) u_j * C_{m-1}(u's without u_j), one
    induced Deligne product per step."""
    if m < 1:
        raise ValueError("need at least one symbol")
    u = symbols(1)[0]
    x = as_element(u)
    one = counts.of_symbol(x.expr, u)
    acc = one  # C_1
    for n in range(1, m):
        acc = counts.deligne_product(one, x.degree, x.twist, acc, n, n) \
            * Fraction(1, n + 1)
    return acc


def dlog_rep(m: int, i: int) -> Counts:
    """The bidegree (i, m-i) piece of d(u_1) ^ ... ^ d(u_m): coordinate 1
    at (del u)^i (delbar u)^(m-i)."""
    return Counts(m, {(0, 0, i): Fraction(1)})


def verify_product_expansion(m: int) -> Report:
    """T_m equals the symmetrized nested product for m generic symbols."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t0 = perf_counter()
    us = symbols(m)
    t_form = t_counts(m)
    c_form = c_counts(m)
    bad = None
    if t_form != c_form:
        bad = {"m": m, **_difference_payload(t_form - c_form, us)}
    return report("tm-identity", {"m": m}, bad, perf_counter() - t0,
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
    t0 = perf_counter()
    us = symbols(m)
    fact = math.factorial
    s_mi = s_counts(m, i)
    x = counts.of_symbol(ddb(us[0]), us[0])

    lhs_del = counts.del_(s_mi)
    rhs_del = dlog_rep(m, i) * ((-2) ** m * fact(i) * fact(m - i))
    if m - i:
        rhs_del = rhs_del + counts.wedge(x, s_counts(m - 1, i)) * (2 * (m - i))

    lhs_dbar = counts.delbar(s_mi)
    rhs_dbar = dlog_rep(m, i - 1) * ((-2) ** m * fact(i - 1) * fact(m - i + 1))
    if i - 1:
        rhs_dbar = rhs_dbar \
            - counts.wedge(x, s_counts(m - 1, i - 1)) * (2 * (i - 1))

    bad = None
    if lhs_del != rhs_del:
        bad = {"m": m, "i": i, "operator": "del",
               **_difference_payload(lhs_del - rhs_del, us)}
    elif lhs_dbar != rhs_dbar:
        bad = {"m": m, "i": i, "operator": "delbar",
               **_difference_payload(lhs_dbar - rhs_dbar, us)}
    return report("takeda", {"m": m, "i": i}, bad, perf_counter() - t0,
                  {"monomials_del": counts.unfolded_len(lhs_del),
                   "monomials_delbar": counts.unfolded_len(lhs_dbar)})


def verify_raw_differential(m: int) -> Report:
    """d T_m == 2^(m-1) ((u)^(m) + (-1)^(m-1) (u)^(0))
             + 2 sum_i (-1)^(i-1) deldelbar u_i ^ T_{m-1} (no i),
    with d T_1 = d u_1; compared in kind-count coordinates."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t0 = perf_counter()
    us = symbols(m)
    lhs = counts.d(t_counts(m))
    if m == 1:
        rhs = counts.d(counts.of_symbol(gen(us[0]), us[0]))
    else:
        rhs = (dlog_rep(m, m) + dlog_rep(m, 0) * (-1) ** (m - 1)) \
            * 2 ** (m - 1)
        x = counts.of_symbol(ddb(us[0]), us[0])
        rhs = rhs + counts.wedge(x, t_counts(m - 1)) * 2
    bad = None
    if lhs != rhs:
        bad = {"m": m, **_difference_payload(lhs - rhs, us)}
    return report("prop52", {"m": m}, bad, perf_counter() - t0,
                  {"monomials": counts.unfolded_len(lhs)})


def verify_differential_recursion(m: int, closed: bool = False) -> Report:
    """The twisted differential of T_m expands slotwise:
    d_D T_m == sum_i (-1)^(i-1) (d_D u_i) ^ T_{m-1} (no i);
    compared in kind-count coordinates."""
    if m < 2:
        raise ValueError("m must be >= 2")
    t0 = perf_counter()
    us = symbols(m)
    if closed:
        us = [Symbol(s.index, s.name, closed=True) for s in us]
    lhs = counts.deligne_diff(t_counts(m, closed), m, m)
    du = deligne_diff(as_element(us[0]))
    rhs = counts.deligne_product(counts.of_symbol(du.expr, us[0]), du.degree,
                                 du.twist, t_counts(m - 1, closed), m - 1,
                                 m - 1)
    bad = None
    if lhs != rhs:
        bad = {"m": m, "closed": closed, **_difference_payload(lhs - rhs, us)}
    return report("recursion", {"m": m, "closed": closed}, bad,
                  perf_counter() - t0, {"monomials": counts.unfolded_len(lhs)})
