"""The integer route of the five algebraic suites against their Fraction
route in `tests/form_oracle.py`.

The suites compare integer kind-count coordinates scaled by one
denominator per side, and Goncharov's coordinates come from an integer
Horner scheme; before, every coordinate was a `Fraction` and Goncharov's
were O(m^3) binomial sums.  Both routes must give equal reports, failing
payloads included, and the integer operands must hold only `int`s."""

import math
from fractions import Fraction

import pytest

from form_oracle import (fraction_differential_recursion,
                         fraction_goncharov_counts,
                         fraction_goncharov_equals_wang,
                         fraction_product_expansion,
                         fraction_raw_differential,
                         fraction_s_derivative_identities, package_c,
                         package_goncharov, scale_deldelbar)
from regver import counts
from regver.deligne import (c_counts, scaled_t_counts, t_counts,
                            verify_differential_recursion,
                            verify_product_expansion, verify_raw_differential,
                            verify_s_derivative_identities)
from regver.forms import DEL, DELBAR, DELDELBAR, ZERO
from regver.logforms import (default_cjm, goncharov_counts,
                             verify_goncharov_equals_wang)


def same_report(new, old):
    a, b = new.to_dict(), old.to_dict()
    a.pop("elapsed")
    b.pop("elapsed")
    assert a == b


def shifted_cjm(shift):
    """c_{0,m} perturbed by shift, the other c_{j,m} as they are."""
    def cjm(j, m):
        return default_cjm(j, m) + (shift if j == 0 else 0)
    return cjm


CJMS = [default_cjm, shifted_cjm(1), shifted_cjm(Fraction(1, 7))]


@pytest.mark.parametrize("m", range(1, 61))
def test_integer_route_matches_the_fraction_route(m):
    same_report(verify_product_expansion(m), fraction_product_expansion(m))
    same_report(verify_raw_differential(m), fraction_raw_differential(m))
    for i in range(1, m + 1):
        same_report(verify_s_derivative_identities(m, i),
                    fraction_s_derivative_identities(m, i))
    if m >= 2:
        for closed in (False, True):
            same_report(verify_differential_recursion(m, closed),
                        fraction_differential_recursion(m, closed))
    for k, cjm in enumerate(CJMS):
        rep = verify_goncharov_equals_wang(m, cjm)
        assert rep.passed == (k == 0)
        same_report(rep, fraction_goncharov_equals_wang(m, cjm))


@pytest.mark.parametrize("m", [2, 5, 9])
def test_failing_payloads_match_the_fraction_route(monkeypatch, m):
    """A scaled deldelbar operand reaches both routes through
    `counts.slot`; prop52 and takeda fail and name the same terms."""
    scale_deldelbar(monkeypatch)
    rep = verify_raw_differential(m)
    assert not rep.passed
    same_report(rep, fraction_raw_differential(m))
    for i in range(1, m + 1):
        same_report(verify_s_derivative_identities(m, i),
                    fraction_s_derivative_identities(m, i))


@pytest.mark.parametrize("m", [3, 8])
def test_a_flipped_operand_fails_both_routes_alike(monkeypatch, m):
    """A sign-flipped u slot changes C_m by (-1)^m and d_D u by -1: odd m
    fails tm-identity, and recursion fails on open symbols (on closed
    ones both of its sides vanish), with equal payloads."""
    real = counts.slot

    def flipped(kind, closed):
        return real(kind, closed) * (-1 if kind == ZERO else 1)

    monkeypatch.setattr(counts, "slot", flipped)
    rep = verify_product_expansion(m)
    assert rep.passed == (m % 2 == 0)
    same_report(rep, fraction_product_expansion(m))
    for closed in (False, True):
        rep = verify_differential_recursion(m, closed)
        assert rep.passed == closed
        same_report(rep, fraction_differential_recursion(m, closed))


@pytest.mark.parametrize("m,cjms", [(101, CJMS), (220, CJMS[:1])])
def test_goncharov_counts_matches_the_binomial_sums_deep(m, cjms):
    for cjm in cjms:
        assert package_goncharov(m, cjm) == \
            fraction_goncharov_counts(m, cjm)


def test_goncharov_counts_is_integral_over_its_denominator():
    """The denominator is (-2)^m times the lcm of the c_{j,m}'s, which
    divides m! for the default c_{j,m} = C(m, 2j+1)/m!."""
    for m in range(1, 40):
        gonch, den = goncharov_counts(m)
        assert den % (-2) ** m == 0
        assert math.factorial(m) % (den // (-2) ** m) == 0
        assert all(type(c) is int for c in gonch.terms.values())


def test_the_integer_operands_hold_only_ints():
    ints = lambda a: all(type(c) is int for c in a.terms.values())
    for closed in (False, True):
        for kind in (ZERO, DEL, DELBAR, DELDELBAR):
            assert ints(counts.slot(kind, closed))
        assert ints(scaled_t_counts(7, closed))
    assert ints(counts.basis(5, [3, 0, -1, 7, 2]))
    for m in range(1, 12):
        assert ints(c_counts(m))
        assert package_c(m) == t_counts(m)
