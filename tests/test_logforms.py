import random
from fractions import Fraction

import pytest

from form_oracle import (FormExpr, build_goncharov, build_m, build_t_log,
                         build_t_log_element, d, deligne_diff,
                         expand_in_basis, expected_sign, scalar,
                         substitute_zero, wang_form, wedge)
from regver import logforms
from regver.forms import DEL, DELBAR, ZERO
from regver.logforms import (_boundary_check, _face_sign, ambient_symbols,
                             log_symbols, verify_goncharov_equals_wang,
                             verify_vanishing_on_diagonal)
from regver.residues import Ambient
from residue_oracle import (WedgeElement, basis_coordinates, product,
                            random_function)


def mono(coeff, *factors):
    return FormExpr.monomial(coeff, factors)


def test_build_t_log_values():
    f1, f2 = log_symbols(2)
    assert build_t_log([f1]) == mono(Fraction(-1, 2), (ZERO, f1))
    assert not build_t_log([f1, f1]).terms
    expected_t2 = (mono(1, (ZERO, f1), (DEL, f2))
                   - mono(1, (ZERO, f2), (DEL, f1))
                   - mono(1, (ZERO, f1), (DELBAR, f2))
                   + mono(1, (ZERO, f2), (DELBAR, f1))) * Fraction(1, 4)
    assert build_t_log([f1, f2]) == expected_t2


def test_build_t_log_rejects_open_symbols():
    from regver.forms import symbols
    with pytest.raises(ValueError):
        build_t_log(symbols(2))


def test_goncharov_small():
    f1, f2 = log_symbols(2)
    assert build_goncharov([f1]) == mono(Fraction(-1, 2), (ZERO, f1))
    assert build_goncharov([f1, f2]).terms == build_t_log([f1, f2]).terms
    assert not build_goncharov([f1, f1]).terms


@pytest.mark.parametrize("m", range(1, 5))
def test_goncharov_equals_wang(m):
    assert verify_goncharov_equals_wang(m).passed


def test_goncharov_perturbation_is_detected():
    def broken(j, m):
        from regver.logforms import default_cjm
        c = default_cjm(j, m)
        return c + Fraction(1, 7) if j == 0 else c

    rep = verify_goncharov_equals_wang(3, cjm=broken)
    assert not rep.passed
    assert rep.counterexample["difference_term_count"] > 0
    assert "truncated" not in rep.counterexample
    # past 40 difference terms the payload is cut and says so
    ce = verify_goncharov_equals_wang(5, cjm=broken).counterexample
    assert ce["difference_term_count"] == 80
    assert len(ce["difference"]) == 40 and ce["truncated"] is True


def test_boundary_failure_payload(monkeypatch):
    monkeypatch.setattr(logforms, "_face_sign", lambda div: 1)
    rep = _boundary_check("wang-boundary", {"m": 2}, Ambient(2, 0))
    ce = rep.counterexample
    assert not rep.passed and ce["divisor"] == "y1" and ce["expected_sign"] == 1
    assert ce["difference_term_count"] == len(ce["difference"]) > 0


@pytest.mark.parametrize("n,m", [(n, m) for n in range(5) for m in range(5)
                                 if n + m])
def test_one_face_sign_rule_gives_each_suites_signs(n, m):
    """_face_sign on (P^1)^n x P^m is the mixed sweep's former rule, and
    at m = 0 Wang's and at n = 0 Goncharov's."""
    suites = ["mixed-boundary"] + ["wang-boundary"] * (m == 0) \
        + ["goncharov-boundary"] * (n == 0)
    for div in Ambient(n, m).divisors():
        for suite in suites:
            assert _face_sign(div) == expected_sign(suite, div), (suite, div)


# -- differential identities under the specialization ------------------------

@pytest.mark.parametrize("m", range(1, 6))
def test_total_derivative_splits_into_pure_wedges(m):
    fs = log_symbols(m)
    lhs = d(build_t_log(fs))
    hol = scalar(1)
    anti = scalar(1)
    for f in fs:
        hol = wedge(hol, mono(1, (DEL, f)))
        anti = wedge(anti, mono(1, (DELBAR, f)))
    rhs = (hol + anti * ((-1) ** (m - 1))) * Fraction((-1) ** m, 2)
    assert lhs == rhs


@pytest.mark.parametrize("m", range(1, 6))
def test_twisted_differential_vanishes(m):
    fs = log_symbols(m)
    assert deligne_diff(build_t_log_element(fs)).expr.is_zero()


# -- geometric families -------------------------------------------------------

def test_build_w_base_cases():
    assert build_m(0, 0) == scalar(1)
    s = ambient_symbols(Ambient(1, 0))[0]
    assert build_m(1, 0) == mono(Fraction(-1, 2), (ZERO, s))
    assert s.label() == "y1/x1"


def test_build_g_base_cases():
    s = ambient_symbols(Ambient(0, 1))[0]
    assert build_m(0, 1) == mono(Fraction(-1, 2), (ZERO, s))
    assert s.label() == "z1/z0"


def test_build_m_specializes():
    syms = ambient_symbols(Ambient(1, 1))
    assert build_m(1, 1).terms == build_t_log(syms).terms


@pytest.mark.parametrize("m", range(1, 6))
def test_vanishing_on_diagonal(m):
    assert verify_vanishing_on_diagonal(m).passed


def test_substituting_any_slot_kills_t2():
    fs = log_symbols(2)
    expr = build_t_log(fs)
    assert substitute_zero(expr, fs[0]).is_zero()
    assert substitute_zero(expr, fs[1]).is_zero()


# -- multilinear alternating extension ----------------------------------------

def wang(w):
    """wang_form on the unfolded T of the wedge's arity."""
    return wang_form(w, build_t_log(log_symbols(w.arity)))


@pytest.mark.parametrize("arity", [2, 3])
def test_wang_form_matches_opaque_slot_expansion(arity):
    """The wedge-level extension agrees with building T on opaque slots and
    then resolving each slot into the basis alphabet."""
    rng = random.Random(100 + arity)
    amb = Ambient(2, 2)
    basis_syms = ambient_symbols(amb)
    for _ in range(10):
        funcs = [random_function(rng, amb) for _ in range(arity)]
        from regver.forms import Symbol
        opaque = [Symbol(50 + k, f"h{k}", closed=True) for k in range(arity)]
        binding = {s: basis_coordinates(f) for s, f in zip(opaque, funcs)}
        via_symbols = expand_in_basis(build_t_log(opaque), binding, basis_syms)
        via_wedge = wang(WedgeElement.from_functions(funcs))
        assert via_symbols == via_wedge


def test_wang_form_on_unit_wedge_is_scalar():
    amb = Ambient(2, 0)
    assert wang(WedgeElement.unit(amb, 3)) == scalar(3)


def test_t_log_multilinear_in_slots():
    # T(f*g, h) = T(f, h) + T(g, h) through the wedge extension
    rng = random.Random(77)
    amb = Ambient(2, 1)
    for _ in range(8):
        f = random_function(rng, amb)
        g = random_function(rng, amb)
        h = random_function(rng, amb)
        lhs = wang(WedgeElement.from_functions([product(f, g), h]))
        rhs = wang(WedgeElement.from_functions([f, h])) + \
            wang(WedgeElement.from_functions([g, h]))
        assert lhs == rhs
