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
identities expose.

The recursions set a form against a sum over the m omitted-slot subsets
of S_{m-1}^i or T_{m-1}.  Each verifier builds that family once on
u_2..u_m and relabels it onto every other subset, which keeps the symbols
in increasing order, instead of alternating it again per subset.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from time import perf_counter

from .forms import (DEL, DELBAR, DELDELBAR, ZERO, FormExpr, Symbol, alternate,
                    bidegree_project, conjugate, d, del_, delbar, dlog_product,
                    factor_expr, gen, monomial_bidegree, monomial_degree,
                    project_if, relabel, symbols, to_json_obj, wedge)
from .report import Report, report


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

    def check(self) -> "DeligneElement":
        """Validate the degree/bidegree constraints; returns self."""
        n, p = self.degree, self.twist
        for mono in self.expr.terms:
            deg = monomial_degree(mono)
            if n < 2 * p:
                a, b = monomial_bidegree(mono)
                if deg != n - 1 or a > p - 1 or b > p - 1:
                    raise ValueError(
                        f"monomial of degree {deg}, bidegree {(a, b)} is not "
                        f"admissible in degree {n}, twist {p}")
            elif deg != n:
                raise ValueError(
                    f"monomial of degree {deg} is not admissible in form "
                    f"range degree {n}")
        return self


def signed_permutations(items):
    """All permutations with their alternating sign: the m! reference that
    the orbit construction of `alternate` is tested against."""
    items = list(items)
    for perm in permutations(range(len(items))):
        inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                  if perm[a] > perm[b])
        yield [items[k] for k in perm], -1 if inv % 2 else 1


def build_s(syms, i: int) -> FormExpr:
    """Basis form S_m^i: the (-2)^m-scaled antisymmetrization of
    u (del u)^(i-1) (delbar u)^(m-i) over all slot permutations."""
    m = len(syms)
    if not 1 <= i <= m:
        raise ValueError(f"need 1 <= i <= {m}, got i={i}")
    factors = [(ZERO, syms[0])]
    factors += [(DEL, s) for s in syms[1:i]]
    factors += [(DELBAR, s) for s in syms[i:]]
    return alternate(FormExpr.monomial((-2) ** m, factors), syms)


def build_t(syms) -> DeligneElement:
    """Wang form T_m = (1/(2 m!)) sum_i (-1)^i S_m^i; T_0 = 1."""
    m = len(syms)
    if m == 0:
        return DeligneElement(FormExpr.scalar(1), 0, 0)
    acc = FormExpr.zero()
    c = Fraction(1, 2 * math.factorial(m))
    for i in range(1, m + 1):
        acc = acc + build_s(syms, i) * (c * (-1) ** i)
    return DeligneElement(acc, m, m)


def as_element(sym: Symbol) -> DeligneElement:
    """A symbol viewed in degree 1, twist 1."""
    return DeligneElement(gen(sym), 1, 1)


def r_op(x: DeligneElement) -> FormExpr:
    """Projection making the product graded commutative and Leibniz.

    Keeps the holomorphic-degree >= p part of dx and symmetrizes with the
    (-1)^p-twisted conjugate.
    """
    n, p = x.degree, x.twist
    if n >= 2 * p:
        raise ValueError(f"r_op needs n < 2p, got n={n}, p={p}")
    fp = project_if(d(x.expr), lambda a, b: a >= p)
    return fp + conjugate(fp) * ((-1) ** p)


def deligne_product(x: DeligneElement, y: DeligneElement) -> DeligneElement:
    n, p = x.degree, x.twist
    m, q = y.degree, y.twist
    if n < 2 * p and m < 2 * q:
        expr = wedge(r_op(x), y.expr) * ((-1) ** n) + wedge(x.expr, r_op(y))
    else:
        # one operand in the form range: plain wedge
        expr = wedge(x.expr, y.expr)
    return DeligneElement(expr, n + m, p + q)


def deligne_diff(x: DeligneElement) -> DeligneElement:
    n, p = x.degree, x.twist
    if n >= 2 * p:
        return DeligneElement(d(x.expr), n + 1, p)
    if n == 2 * p - 1:
        return DeligneElement(del_(delbar(x.expr)) * (-2), n + 1, p)
    kept = project_if(d(x.expr), lambda a, b: a <= p - 1 and b <= p - 1)
    return DeligneElement(-kept, n + 1, p)


def build_c(syms) -> DeligneElement:
    """Symmetrized right-nested product (1/m!) sum_sigma sgn(sigma)
    u_{s(1)} * (u_{s(2)} * ( ... * u_{s(m)})), alternated from the single
    product u_1 * (u_2 * ( ... * u_m))."""
    m = len(syms)
    if m < 1:
        raise ValueError("need at least one symbol")
    el = as_element(syms[-1])
    for s in reversed(syms[:-1]):
        el = deligne_product(as_element(s), el)
    acc = alternate(el.expr, syms)
    return DeligneElement(acc * Fraction(1, math.factorial(m)), m, m)


def ddb(sym: Symbol) -> FormExpr:
    """The deldelbar factor of a symbol as an expression."""
    return factor_expr(DELDELBAR, sym)


def _omit(syms, j):
    return syms[:j] + syms[j + 1:]


def _difference_payload(lhs: FormExpr, rhs: FormExpr, limit: int = 40) -> dict:
    diff = lhs - rhs
    terms = to_json_obj(diff)
    payload = {"difference_term_count": len(terms), "difference": terms[:limit]}
    if len(terms) > limit:
        payload["truncated"] = True
    return payload


def verify_product_expansion(m: int) -> Report:
    """T_m equals the symmetrized nested product for m generic symbols."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t0 = perf_counter()
    us = symbols(m)
    t_form = build_t(us)
    c_form = build_c(us)
    bad = None
    if t_form.expr != c_form.expr:
        bad = {"m": m, **_difference_payload(t_form.expr, c_form.expr)}
    return report("tm-identity", {"m": m}, bad, perf_counter() - t0,
                  {"monomials_t": len(t_form.expr), "monomials_c": len(c_form.expr)})


def verify_s_derivative_identities(m: int, i: int) -> Report:
    """The del and delbar recursions for the basis forms S_m^i.

    del S_m^i  == (-2)^m i! (m-i)! (u)^(i)
                  + (m-i) sum_j (-1)^j (-2 deldelbar u_j) ^ S_{m-1}^i (no j)
    delbar S_m^i == (-2)^m (i-1)! (m-i+1)! (u)^(i-1)
                  - (i-1) sum_j (-1)^j (-2 deldelbar u_j) ^ S_{m-1}^{i-1} (no j)
    """
    if not 1 <= i <= m:
        raise ValueError(f"need 1 <= i <= m, got i={i}, m={m}")
    t0 = perf_counter()
    us = symbols(m)
    fact = math.factorial

    s_mi = build_s(us, i)
    dlogs = dlog_product(us)

    lhs_del = del_(s_mi)
    rhs_del = bidegree_project(dlogs, i, m - i) * Fraction(
        (-2) ** m * fact(i) * fact(m - i))
    if m - i:
        base = build_s(us[1:], i)
        for j, u in enumerate(us):
            term = wedge(ddb(u) * Fraction(-2),
                         relabel(base, us[1:], _omit(us, j)))
            rhs_del = rhs_del + term * Fraction((-1) ** (j + 1) * (m - i))

    lhs_dbar = delbar(s_mi)
    rhs_dbar = bidegree_project(dlogs, i - 1, m - i + 1) * Fraction(
        (-2) ** m * fact(i - 1) * fact(m - i + 1))
    if i - 1:
        base = build_s(us[1:], i - 1)
        for j, u in enumerate(us):
            term = wedge(ddb(u) * Fraction(-2),
                         relabel(base, us[1:], _omit(us, j)))
            rhs_dbar = rhs_dbar - term * Fraction((-1) ** (j + 1) * (i - 1))

    bad = None
    if lhs_del != rhs_del:
        bad = {"m": m, "i": i, "operator": "del",
               **_difference_payload(lhs_del, rhs_del)}
    elif lhs_dbar != rhs_dbar:
        bad = {"m": m, "i": i, "operator": "delbar",
               **_difference_payload(lhs_dbar, rhs_dbar)}
    return report("takeda", {"m": m, "i": i}, bad, perf_counter() - t0,
                  {"monomials_del": len(lhs_del), "monomials_delbar": len(lhs_dbar)})


def verify_raw_differential(m: int) -> Report:
    """d T_m == 2^(m-1) ((u)^(m) + (-1)^(m-1) (u)^(0))
             + 2 sum_i (-1)^(i-1) deldelbar u_i ^ T_{m-1} (no i),
    with d T_1 = d u_1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t0 = perf_counter()
    us = symbols(m)
    lhs = d(build_t(us).expr)
    if m == 1:
        rhs = d(gen(us[0]))
    else:
        dlogs = dlog_product(us)
        rhs = (bidegree_project(dlogs, m, 0)
               + bidegree_project(dlogs, 0, m) * ((-1) ** (m - 1))) \
            * Fraction(2 ** (m - 1))
        base = build_t(us[1:]).expr
        for j, u in enumerate(us):
            term = wedge(ddb(u), relabel(base, us[1:], _omit(us, j)))
            rhs = rhs + term * Fraction(2 * (-1) ** j)
    bad = None
    if lhs != rhs:
        bad = {"m": m, **_difference_payload(lhs, rhs)}
    return report("prop52", {"m": m}, bad, perf_counter() - t0,
                  {"monomials": len(lhs)})


def verify_differential_recursion(m: int, closed: bool = False) -> Report:
    """The twisted differential of T_m expands slotwise:
    d_D T_m == sum_i (-1)^(i-1) (d_D u_i) ^ T_{m-1} (no i)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    t0 = perf_counter()
    us = symbols(m)
    if closed:
        us = [Symbol(s.index, s.name, closed=True) for s in us]
    lhs = deligne_diff(build_t(us))
    rhs = FormExpr.zero()
    base = build_t(us[1:]).expr
    for j, u in enumerate(us):
        du = deligne_diff(as_element(u))
        t_omit = relabel(base, us[1:], _omit(us, j))
        prod = deligne_product(du, DeligneElement(t_omit, m - 1, m - 1))
        rhs = rhs + prod.expr * ((-1) ** j)
    bad = None
    if lhs.expr != rhs:
        bad = {"m": m, "closed": closed, **_difference_payload(lhs.expr, rhs)}
    return report("recursion", {"m": m, "closed": closed}, bad,
                  perf_counter() - t0, {"monomials": len(lhs.expr)})
