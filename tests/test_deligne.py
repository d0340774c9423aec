import math
import random
from fractions import Fraction

import pytest

from form_oracle import (DeligneElement, FormExpr, as_element, build_s,
                         build_t_element, check_element, d, ddb, del_, delbar,
                         deligne_diff, deligne_product, gen, package_c, r_op,
                         s_basis_coefficients, scalar, to_form, wedge)
from regver import counts
from regver.counts import unfold
from regver.deligne import (build_t, verify_differential_recursion,
                            verify_product_expansion, verify_raw_differential,
                            verify_s_derivative_identities)
from regver.forms import DEL, DELBAR, DELDELBAR, ZERO, Symbol, symbols
u1, u2, u3 = symbols(3)


def mono(coeff, *factors):
    return FormExpr.monomial(coeff, factors)


def test_build_s_single_symbol():
    assert build_s([u1], 1) == gen(u1) * (-2)


def test_build_s_two_symbols():
    got1 = build_s([u1, u2], 1)
    exp1 = (mono(1, (ZERO, u1), (DELBAR, u2))
            - mono(1, (ZERO, u2), (DELBAR, u1))) * 4
    assert got1 == exp1
    got2 = build_s([u1, u2], 2)
    exp2 = (mono(1, (ZERO, u1), (DEL, u2))
            - mono(1, (ZERO, u2), (DEL, u1))) * 4
    assert got2 == exp2


def test_build_s_rejects_bad_index():
    with pytest.raises(ValueError):
        build_s([u1, u2], 0)
    with pytest.raises(ValueError):
        build_s([u1, u2], 3)


def test_build_t_base_cases():
    assert build_t([]) == scalar(1)
    assert build_t([u1]) == gen(u1)
    expected_t2 = (mono(1, (ZERO, u1), (DEL, u2))
                   - mono(1, (ZERO, u2), (DEL, u1))
                   - mono(1, (ZERO, u1), (DELBAR, u2))
                   + mono(1, (ZERO, u2), (DELBAR, u1)))
    assert build_t([u1, u2]) == expected_t2


@pytest.mark.parametrize("m", range(1, 7))
def test_build_t_degree_and_bidegree_bounds(m):
    check_element(build_t_element(symbols(m)))


@pytest.mark.parametrize("m", range(2, 6))
def test_build_t_alternating(m):
    us = symbols(m)
    swapped = [us[1], us[0]] + us[2:]
    assert build_t(swapped) == -FormExpr(build_t(us).terms)
    repeated = [us[0], us[0]] + us[2:]
    assert not build_t(repeated).terms


def test_r_op_on_generator():
    assert r_op(as_element(u1)) == mono(1, (DEL, u1)) - mono(1, (DELBAR, u1))


def test_r_op_on_t2():
    got = r_op(build_t_element([u1, u2]))
    expected = (mono(1, (DEL, u1), (DEL, u2))
                + mono(1, (DELBAR, u1), (DELBAR, u2))) * 2
    assert got == expected


def test_r_op_kills_pure_mixed_differential():
    # d of this element is concentrated in holomorphic degrees < 2
    x = DeligneElement(mono(1, (ZERO, u1), (DEL, u2))
                       + mono(1, (ZERO, u2), (DEL, u1)), 2, 2)
    assert r_op(x).is_zero()


def test_r_op_requires_sharp_range():
    with pytest.raises(ValueError):
        r_op(DeligneElement(mono(1, (DEL, u1)), 2, 1))


def test_unit_acts_trivially():
    one = build_t_element([])
    x = build_t_element([u1, u2])
    assert deligne_product(one, x).expr == x.expr
    assert deligne_product(x, one).expr == x.expr


def test_product_of_two_generators():
    got = deligne_product(as_element(u1), as_element(u2))
    expected = wedge(-(mono(1, (DEL, u1)) - mono(1, (DELBAR, u1))), gen(u2)) \
        + wedge(gen(u1), mono(1, (DEL, u2)) - mono(1, (DELBAR, u2)))
    assert got.expr == expected
    assert (got.degree, got.twist) == (2, 2)
    antisym = (deligne_product(as_element(u1), as_element(u2)).expr
               - deligne_product(as_element(u2), as_element(u1)).expr)
    assert antisym * Fraction(1, 2) == build_t([u1, u2])


def test_product_graded_commutative():
    rng = random.Random(4)
    pool = symbols(4)
    for _ in range(20):
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        xs = rng.sample(pool, k1)
        ys = rng.sample(pool, k2)
        x, y = build_t_element(xs), build_t_element(ys)
        lhs = deligne_product(x, y).expr
        rhs = deligne_product(y, x).expr * ((-1) ** (x.degree * y.degree))
        assert lhs == rhs


def test_build_c_small():
    for us in ([u1], [u1, u2], [u1, u2, u3]):
        assert unfold(package_c(len(us)), us).terms == build_t(us).terms
    assert to_form(package_c(1), [u1]) == gen(u1)


def test_deligne_diff_on_generator():
    got = deligne_diff(as_element(u1))
    assert got.expr == ddb(u1) * (-2)
    assert (got.degree, got.twist) == (2, 1)


def test_deligne_diff_on_t2():
    # projection drops the (2,0) and (0,2) pieces; the middle-degree
    # convention contributes a global sign
    got = deligne_diff(build_t_element([u1, u2]))
    expected = (mono(1, (ZERO, u1), (DELDELBAR, u2))
                - mono(1, (ZERO, u2), (DELDELBAR, u1))) * 2
    assert got.expr == expected


@pytest.mark.parametrize("m", range(1, 6))
def test_deligne_diff_squares_to_zero(m):
    t = build_t_element(symbols(m))
    assert deligne_diff(deligne_diff(t)).expr.is_zero()


@pytest.mark.parametrize("m", range(1, 5))
def test_product_expansion(m):
    assert verify_product_expansion(m).passed


@pytest.mark.parametrize("m,i", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)])
def test_s_derivative_identities(m, i):
    assert verify_s_derivative_identities(m, i).passed


def test_s_derivative_identity_m1_by_hand():
    # both recursions collapse to the derivative of -2 u1
    assert del_(build_s([u1], 1)) == del_(gen(u1) * (-2))
    assert delbar(build_s([u1], 1)) == delbar(gen(u1) * (-2))


@pytest.mark.parametrize("m", range(1, 5))
def test_raw_differential(m):
    assert verify_raw_differential(m).passed


def test_raw_differential_m1_is_total_derivative():
    assert d(build_t([u1])) == d(gen(u1))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_differential_recursion(m):
    assert verify_differential_recursion(m).passed


def test_a_flipped_middle_differential_fails_recursion(monkeypatch):
    # both products of the recursion have an operand in the form range, so
    # r_op is off its path; the fault flips d_D in degree 2p-1 instead,
    # which the right-hand side applies to each d_D u_i
    real = counts.deligne_diff

    def flipped(a, n, p):
        out = real(a, n, p)
        return out * -1 if n == 2 * p - 1 else out

    monkeypatch.setattr(counts, "deligne_diff", flipped)
    rep = verify_differential_recursion(3)
    assert not rep.passed
    assert rep.counterexample["difference"]
    assert rep.counterexample["difference_term_count"] > 0


def test_differential_recursion_closed_symbols():
    rep = verify_differential_recursion(2, closed=True)
    assert rep.passed
    closed = [Symbol(1, "f1", closed=True), Symbol(2, "f2", closed=True)]
    assert deligne_diff(build_t_element(closed)).expr.is_zero()


@pytest.mark.parametrize("m", range(2, 6))
def test_nested_product_coefficients(m):
    us = symbols(m)
    alphas = s_basis_coefficients(unfold(package_c(m), us), us)
    assert alphas[0] == Fraction(-1, 2 * math.factorial(m))
    for i in range(1, m):
        assert alphas[i] == -alphas[i - 1]


def test_element_invariant_rejects_bad_data():
    with pytest.raises(ValueError):
        check_element(DeligneElement(mono(1, (DEL, u1), (DEL, u2)), 2, 2))
