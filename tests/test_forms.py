import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from form_oracle import (FormExpr, bidegree_project, canonicalize, conjugate,
                         d, del_, delbar, dlog_piece, gen, monomial_degree,
                         oracle_latex, project_if, scalar, substitute_zero,
                         wedge)
from regver.forms import (DEL, DELBAR, DELDELBAR, ZERO, Symbol, symbols,
                          to_json_obj, to_json_text, to_latex)

u1, u2, u3 = symbols(3)


def mono(coeff, *factors):
    return FormExpr.monomial(coeff, factors)


# -- canonicalization ---------------------------------------------------------

def test_odd_factor_squares_to_zero():
    assert wedge(mono(1, (DEL, u1)), mono(1, (DEL, u1))).is_zero()


def test_koszul_transposition():
    ab = wedge(mono(1, (DEL, u2)), mono(1, (DEL, u1)))
    assert ab == mono(-1, (DEL, u1), (DEL, u2))


def test_even_odd_commute():
    assert wedge(gen(u1), mono(1, (DEL, u2))) == mono(1, (ZERO, u1), (DEL, u2))
    assert wedge(mono(1, (DEL, u2)), gen(u1)) == mono(1, (ZERO, u1), (DEL, u2))


def test_zero_factors_may_repeat():
    sq = wedge(gen(u1), gen(u1))
    assert sq == mono(1, (ZERO, u1), (ZERO, u1))


factor_st = st.tuples(st.sampled_from([ZERO, DEL, DELBAR, DELDELBAR]),
                      st.sampled_from([u1, u2, u3]))


@given(st.lists(factor_st, max_size=6))
def test_canonicalize_idempotent(factors):
    sign, sorted_factors = canonicalize(factors)
    if sign == 0:
        return
    sign2, again = canonicalize(sorted_factors)
    assert sign2 == 1 and again == sorted_factors


@st.composite
def form_exprs(draw, max_terms=4):
    pairs = draw(st.lists(
        st.tuples(st.integers(-4, 4), st.lists(factor_st, max_size=4)),
        max_size=max_terms))
    return FormExpr.from_terms([(Fraction(c), tuple(fs)) for c, fs in pairs])


# -- derivations --------------------------------------------------------------

def test_del_delbar_on_generators():
    assert del_(gen(u1)) == mono(1, (DEL, u1))
    assert delbar(gen(u1)) == mono(1, (DELBAR, u1))
    # second derivative: del of delbar is the stored composite,
    # delbar of del its negative
    assert del_(delbar(gen(u1))) == mono(1, (DELDELBAR, u1))
    assert delbar(del_(gen(u1))) == mono(-1, (DELDELBAR, u1))


def test_closed_symbol_kills_second_derivative():
    f = Symbol(9, "f9", closed=True)
    assert del_(delbar(gen(f))).is_zero()
    assert delbar(del_(gen(f))).is_zero()


def test_leibniz_by_hand():
    # del(u1 delbar u2) = del u1 ^ delbar u2 + u1 deldelbar u2
    lhs = del_(mono(1, (ZERO, u1), (DELBAR, u2)))
    expected = mono(1, (DEL, u1), (DELBAR, u2)) + mono(1, (ZERO, u1),
                                                       (DELDELBAR, u2))
    assert lhs == expected


def test_d_on_generator():
    assert d(gen(u1)) == mono(1, (DEL, u1)) + mono(1, (DELBAR, u1))
    assert d(d(gen(u1))).is_zero()


def test_d_on_u1_del_u2_by_hand():
    # d(u1 del u2) = del u1 ^ del u2 + delbar u1 ^ del u2 - u1 deldelbar u2
    lhs = d(mono(1, (ZERO, u1), (DEL, u2)))
    expected = (mono(1, (DEL, u1), (DEL, u2))
                + mono(1, (DELBAR, u1), (DEL, u2))
                + mono(-1, (ZERO, u1), (DELDELBAR, u2)))
    assert lhs == expected


@settings(max_examples=500, deadline=None)
@given(form_exprs())
def test_differentials_square_to_zero(expr):
    assert d(d(expr)).is_zero()
    assert del_(del_(expr)).is_zero()
    assert delbar(delbar(expr)).is_zero()


@given(form_exprs())
def test_del_delbar_anticommute(expr):
    assert del_(delbar(expr)) == -delbar(del_(expr))


# -- conjugation --------------------------------------------------------------

def test_conjugate_examples():
    assert conjugate(mono(1, (DEL, u1))) == mono(1, (DELBAR, u1))
    assert conjugate(gen(u1)) == gen(u1)
    # conj(del u1 ^ delbar u2) = delbar u1 ^ del u2, canonical order kept
    got = conjugate(mono(1, (DEL, u1), (DELBAR, u2)))
    assert got == mono(1, (DELBAR, u1), (DEL, u2))
    assert got == wedge(mono(-1, (DEL, u2)), mono(1, (DELBAR, u1)))


@given(form_exprs())
def test_conjugate_involution(expr):
    assert conjugate(conjugate(expr)) == expr


@given(form_exprs(), form_exprs())
def test_conjugate_multiplicative(a, b):
    assert conjugate(wedge(a, b)) == wedge(conjugate(a), conjugate(b))


@given(form_exprs())
def test_conjugate_swaps_derivations(expr):
    assert conjugate(del_(expr)) == delbar(conjugate(expr))


# -- wedge algebra ------------------------------------------------------------

@given(form_exprs(), form_exprs(), form_exprs())
def test_wedge_associative(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@given(st.lists(factor_st, max_size=4), st.lists(factor_st, max_size=4))
def test_wedge_graded_commutative(f1, f2):
    a = FormExpr.from_terms([(Fraction(1), tuple(f1))])
    b = FormExpr.from_terms([(Fraction(1), tuple(f2))])
    if a.is_zero() or b.is_zero():
        return
    da = monomial_degree(next(iter(a.terms)))
    db = monomial_degree(next(iter(b.terms)))
    assert wedge(a, b) == wedge(b, a) * ((-1) ** (da * db))


# -- projections and substitution ---------------------------------------------

def test_bidegree_project_examples():
    expr = mono(1, (DEL, u1)) + mono(1, (DELBAR, u1))
    assert bidegree_project(expr, 1, 0) == mono(1, (DEL, u1))
    assert bidegree_project(mono(1, (ZERO, u1), (DEL, u2)), 1, 0) == \
        mono(1, (ZERO, u1), (DEL, u2))
    mixed = bidegree_project(wedge(d(gen(u1)), d(gen(u2))), 1, 1)
    assert mixed == dlog_piece([u1, u2], 1)


def test_dlog_piece_examples():
    assert dlog_piece([u1], 1) == mono(1, (DEL, u1))
    assert dlog_piece([u1, u2], 2) == mono(1, (DEL, u1), (DEL, u2))
    assert dlog_piece([u1, u2], 0) == mono(1, (DELBAR, u1), (DELBAR, u2))
    with pytest.raises(ValueError):
        dlog_piece([u1, u2], 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_dlog_pieces_sum_to_full_product(n):
    us = symbols(n)
    prod = scalar(1)
    for s in us:
        prod = wedge(prod, d(gen(s)))
    total = FormExpr.zero()
    for i in range(n + 1):
        total = total + dlog_piece(us, i)
    assert total == prod


def test_substitute_zero():
    assert substitute_zero(mono(1, (ZERO, u1), (DEL, u2)), u1).is_zero()
    kept = mono(1, (ZERO, u2), (DEL, u3))
    assert substitute_zero(kept, u1) == kept


# -- serialization ------------------------------------------------------------

def test_json_shape_is_stable():
    expr = mono(Fraction(-3, 2), (ZERO, u1), (DEL, u2)) + gen(u2)
    obj = to_json_obj(expr.pairs())
    # monomials ordered lexicographically by their canonical factor keys
    assert obj == [
        {"coeff": "-3/2", "factors": [{"kind": "u", "symbol": "u1"},
                                      {"kind": "del", "symbol": "u2"}]},
        {"coeff": "1/1", "factors": [{"kind": "u", "symbol": "u2"}]},
    ]
    # the writer reads pairs that are already in order and sorts nothing
    assert to_json_obj(expr.pairs()[::-1]) == obj[::-1]
    # the streamed text is json.dumps' of those records in a top-level key
    text = "".join(to_json_text(expr.pairs()))
    assert '{\n  "expression": ' + text + "\n}" == \
        json.dumps({"expression": obj}, indent=2)
    assert "".join(to_json_text([])) == "[]"


def latex(expr) -> str:
    return "".join(to_latex(expr.pairs()))


def test_latex_emission():
    assert latex(gen(u1)) == "u_{1}"
    assert latex(FormExpr.zero()) == "0"
    text = latex(mono(1, (DEL, u1), (DELBAR, u2)))
    assert "\\partial u_{1}" in text and "\\bar\\partial u_{2}" in text
    mixed = mono(Fraction(-3, 2), (ZERO, u1), (DEL, u2)) - gen(u2) \
        + mono(1, (DEL, u1), (DELBAR, u3)) - scalar(Fraction(5, 7))
    for expr in (mixed, -mixed, mixed * 2, gen(u1) - gen(u2)):
        assert latex(expr) == oracle_latex(expr)


def test_symbols_that_share_an_index_stay_distinct_keys():
    plain, closed = Symbol(1), Symbol(1, closed=True)
    assert plain != closed and hash(plain) == hash(closed)
    table = {plain: "open", closed: "closed"}
    assert len(table) == 2
    assert table[Symbol(1)] == "open" and table[Symbol(1, closed=True)] == "closed"


def test_no_zero_coefficient_survives_construction():
    x = mono(2, (ZERO, u1), (DEL, u2)) + mono(1, (DEL, u1))
    assert FormExpr({((DEL, u1),): Fraction(0)}).is_zero()
    for expr in (x - x, x * 0, -x + x, FormExpr.from_terms([(0, [(DEL, u1)])]),
                 x * Fraction(1, 3), project_if(x, lambda a, b: a == 1),
                 substitute_zero(x, u2)):
        assert all(expr.terms.values())
    assert (x - x).is_zero() and (x * 0).is_zero()
