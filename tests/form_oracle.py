"""Slow form-level oracles that no suite uses.

`s_basis_coefficients` (formerly `regver.deligne`) reads a form's
coordinates over the S_m^i basis, and `expand_in_basis` (formerly
`regver.logforms`) resolves opaque function symbols into the basis
alphabet factor by factor; it is the independent oracle of
`logforms.wang_form`.  Both are kept unchanged.
"""

from fractions import Fraction

from regver.deligne import build_s
from regver.forms import (FormExpr, Symbol, bidegree_project, factor_expr,
                          wedge)


def s_basis_coefficients(expr: FormExpr, syms) -> list[Fraction]:
    """Solve the overdetermined system expressing expr over the S_m^i basis.

    Each basis form is homogeneous of bidegree (i-1, m-i), so the system
    splits by bidegree; the coefficient is pinned by one monomial and
    checked against all others.  Raises ValueError when expr is not in the
    span.
    """
    m = len(syms)
    coeffs = []
    leftover = expr
    for i in range(1, m + 1):
        s_i = build_s(syms, i)
        piece = bidegree_project(expr, i - 1, m - i)
        mono, base_c = next(iter(s_i.terms.items()))
        alpha = piece.terms.get(mono, Fraction(0)) / base_c
        if piece != s_i * alpha:
            raise ValueError(f"bidegree ({i - 1},{m - i}) component is not a "
                             "multiple of the basis form")
        coeffs.append(alpha)
        leftover = leftover - s_i * alpha
    if leftover:
        raise ValueError("expression has terms outside the basis bidegrees")
    return coeffs


def expand_in_basis(expr: FormExpr, binding: dict[Symbol, list[int]],
                    basis_syms: list[Symbol]) -> FormExpr:
    """Rewrite factors on bound symbols as combinations of basis symbols.

    Realizes the alphabet identifications log|fg|^2 = log|f|^2 + log|g|^2
    and d(fg)/(fg) = df/f + dg/g for monomial arguments.
    """
    total = FormExpr.zero()
    for mono, coeff in expr.terms.items():
        acc = FormExpr.scalar(coeff)
        for kind, sym in mono:
            vec = binding[sym]
            lin = FormExpr.zero()
            for k, a in enumerate(vec):
                if a:
                    lin = lin + factor_expr(kind, basis_syms[k], a)
            acc = wedge(acc, lin)
        total = total + acc
    return total
