"""Folded alternating forms: `fold`, `oracle_unfold` and `seed_of` against
the unfolded forms, the lift of every operator the suites use, the induced
product against its explicit relabelled sum, and the nine folded suites
against their unfolded bodies in `tests/form_oracle.py`.  The lift and the
induced product are the symbol-level route that `test_counts.py` checks
the kind-count coordinates against."""

import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from form_oracle import (DeligneElement, FormExpr, _omit, alternate,
                         as_element, bidegree_project, build_goncharov,
                         conjugate, d, del_, delbar, deligne_diff,
                         deligne_product, factor_expr, fold, gen, nested_c,
                         oracle_boundary,
                         oracle_differential_recursion,
                         oracle_goncharov_equals_wang, oracle_product_expansion,
                         oracle_raw_differential,
                         oracle_s_derivative_identities, oracle_unfold,
                         oracle_unfold_head, oracle_vanishing_on_diagonal,
                         package_c, project_if, r_op, relabel,
                         rescale_per_factor, scalar, scale_deldelbar, seed_of,
                         seeded_goncharov, unfold, unfolded_len, wedge)
from regver.cli import MIXED_PAIRS
from regver.counts import Counts
from regver.deligne import (verify_differential_recursion,
                            verify_product_expansion, verify_raw_differential,
                            verify_s_derivative_identities)
from regver.forms import DEL, DELBAR, DELDELBAR, ZERO, Symbol, symbols
from regver.logforms import (default_cjm, log_symbols,
                             verify_goncharov_boundary,
                             verify_goncharov_equals_wang,
                             verify_mixed_boundary,
                             verify_vanishing_on_diagonal,
                             verify_wang_boundary)
from residue_oracle import WedgeElement

deligne_mod = importlib.import_module("regver.deligne")
logforms_mod = importlib.import_module("regver.logforms")
form_oracle_mod = importlib.import_module("form_oracle")
KINDS = (ZERO, DEL, DELBAR, DELDELBAR)


@st.composite
def symbol_lists(draw, lo=1, hi=6):
    """Distinct symbols in any order, all open or all closed: the symbols
    of an alternating form are interchangeable."""
    m = draw(st.integers(lo, hi))
    closed = draw(st.booleans())
    indices = draw(st.lists(st.integers(1, 20), min_size=m, max_size=m,
                            unique=True))
    return [Symbol(k, f"s{k}", closed) for k in indices]


@st.composite
def seeds(draw, syms):
    """A few multilinear monomials on syms with small rational coefficients."""
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=len(syms),
                              max_size=len(syms)))
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
        pairs.append((coeff, list(zip(kinds, syms))))
    return FormExpr.from_terms(pairs)


@st.composite
def folded_forms(draw, lo=1, hi=6):
    syms = draw(symbol_lists(lo, hi))
    return fold(draw(seeds(syms)), syms), syms


@settings(max_examples=80, deadline=None)
@given(folded_forms())
def test_fold_unfold_round_trip(case):
    folded, syms = case
    full = oracle_unfold(folded, syms)
    # the representatives' coefficients in the unfolded form are the folded
    # ones; alternating an alternating form again multiplies it by m!
    assert {rep: full.terms[rep] for rep in folded.terms} == folded.terms
    assert fold(full, syms) == folded * math.factorial(len(syms))
    assert alternate(seed_of(folded), syms) == full
    assert fold(seed_of(folded), syms) == folded
    assert unfolded_len(folded) == len(full)


@settings(max_examples=60, deadline=None)
@given(folded_forms(1, 7), st.integers(0, 50))
def test_unfold_head_is_the_sorted_unfolded_prefix(case, limit):
    folded, syms = case
    head = oracle_unfold_head(folded, syms, limit)
    assert list(head.terms.items()) == \
        oracle_unfold(folded, syms).pairs()[:limit]


def lifted_operators(m):
    """Operators that commute with relabelling the symbols, each as a map
    of expressions."""
    ops = [del_, delbar, d, conjugate,
           lambda x: project_if(x, lambda a, b: a >= b),
           lambda x: rescale_per_factor(x, Fraction(-1, 2))]
    ops += [lambda x, a=a: bidegree_project(x, a, m - a) for a in range(m + 1)]
    # every case of the twisted differential, and r_op below the middle
    for n, p in ((m, m), (1, 1), (2 * m, m), (m + 1, m)):
        ops.append(lambda x, n=n, p=p: deligne_diff(DeligneElement(x, n, p)).expr)
    ops.append(lambda x: r_op(DeligneElement(x, m, m)))
    return ops


@settings(max_examples=40, deadline=None)
@given(folded_forms())
def test_every_operator_lifts(case):
    folded, syms = case
    full = oracle_unfold(folded, syms)
    for op in lifted_operators(len(syms)):
        lifted = fold(op(seed_of(folded)), syms)
        assert oracle_unfold(lifted, syms) == op(full)


def one_symbol_operands(k):
    """(x(u), product) pairs for the induced product with a form on k
    symbols: wedge with plain forms, and the Deligne product of the two
    elements a symbol gives with elements below and in the form range."""
    wedges = [gen, lambda u: factor_expr(DELDELBAR, u), lambda u: d(gen(u)),
              lambda u: factor_expr(DEL, u) * 3]
    out = [(x, wedge) for x in wedges]
    for x in (as_element, lambda u: deligne_diff(as_element(u))):
        for n, p in ((k, k), (k, k + 1), (2 * k, k)):
            def product(xu, y, n=n, p=p):
                return deligne_product(xu, DeligneElement(y, n, p)).expr
            out.append((x, product))
    return out


@settings(max_examples=30, deadline=None)
@given(symbol_lists(1, 7), st.data())
def test_induced_product_is_the_relabelled_sum(syms, data):
    rest = syms[1:]
    y = fold(data.draw(seeds(rest)), rest)
    y_full = oracle_unfold(y, rest)
    for x, product in one_symbol_operands(len(rest)):
        induced = oracle_unfold(fold(product(x(syms[0]), seed_of(y)), syms),
                                syms)
        explicit = FormExpr.zero()
        for j, u in enumerate(syms):
            explicit += product(x(u), relabel(y_full, rest, _omit(syms, j))) \
                * (-1) ** j
        assert induced == explicit


def test_unfold_rejects_what_is_not_a_representative():
    u1, u2 = symbols(2)
    with pytest.raises(ValueError):
        oracle_unfold(FormExpr.monomial(1, [(DEL, u1), (ZERO, u2)]), [u1, u2])
    with pytest.raises(ValueError):
        oracle_unfold(FormExpr.monomial(1, [(ZERO, u1)]), [u1, u2])
    rep = FormExpr.monomial(1, [(ZERO, u1), (DEL, u2)])
    assert oracle_unfold(rep, [u1, u2]) == alternate(rep, [u1, u2])
    assert oracle_unfold(rep, [u1, u1]).is_zero()
    assert fold(rep, [u1, u1]).is_zero()


def test_stabilizer_weights_and_counts():
    u1, u2, u3 = symbols(3)
    rep = FormExpr.monomial(6, [(ZERO, u1), (DEL, u2), (DEL, u3)])
    assert seed_of(rep) == rep * Fraction(1, 2)
    assert unfolded_len(rep) == 3 == len(oracle_unfold(rep, [u1, u2, u3]))
    assert unfolded_len(scalar(5)) == 1


@pytest.mark.parametrize("m", range(1, 8))
def test_folded_builders_match_the_alternated_seeds(m):
    us = symbols(m)
    assert unfold(package_c(m), us) == nested_c(us).expr
    fs = log_symbols(m)
    for order in (fs, fs[::-1]):
        assert build_goncharov(order) == seeded_goncharov(order)
    assert not build_goncharov([fs[0]] * 2).terms


# -- the folded suites against their unfolded bodies --------------------------

def same_report(new, old):
    a, b = new.to_dict(), old.to_dict()
    a.pop("elapsed")
    b.pop("elapsed")
    assert a == b


def broken_cjm(j, m):
    return default_cjm(j, m) + (Fraction(1, 7) if j == 0 else 0)


@pytest.mark.parametrize("m", range(1, 7))
def test_suites_match_the_unfolded_oracle(m):
    same_report(verify_product_expansion(m), oracle_product_expansion(m))
    same_report(verify_raw_differential(m), oracle_raw_differential(m))
    for i in range(1, m + 1):
        same_report(verify_s_derivative_identities(m, i),
                    oracle_s_derivative_identities(m, i))
    if m >= 2:
        for closed in (False, True):
            same_report(verify_differential_recursion(m, closed),
                        oracle_differential_recursion(m, closed))
    for cjm in (default_cjm, broken_cjm):
        same_report(verify_goncharov_equals_wang(m, cjm),
                    oracle_goncharov_equals_wang(m, cjm))


@pytest.mark.parametrize("m", range(1, 7))
def test_boundary_suites_match_the_unfolded_oracle(m):
    for verify in (verify_wang_boundary, verify_goncharov_boundary):
        same_report(verify(m), oracle_boundary(verify, m))
    same_report(verify_vanishing_on_diagonal(m),
                oracle_vanishing_on_diagonal(m))


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_vanishing_fails_at_the_slot_a_short_t_misses(monkeypatch, m):
    """With T_(m-1) in place of T_m, slot m kills no representative: the
    check on the keys and the oracle, which kills slots of the unfolded
    T_(m-1) on the first m-1 symbols, give the same failing report."""
    real_scaled = logforms_mod.scaled_t_counts
    real_t_log = form_oracle_mod.build_t_log
    monkeypatch.setattr(logforms_mod, "scaled_t_counts",
                        lambda m, closed: real_scaled(m - 1, closed))
    monkeypatch.setattr(form_oracle_mod, "build_t_log",
                        lambda fs: real_t_log(fs[:-1]))
    rep = verify_vanishing_on_diagonal(m)
    assert not rep.passed
    assert rep.counterexample["slot"] == m
    assert 0 < len(rep.counterexample["survivors"]) <= 20
    same_report(rep, oracle_vanishing_on_diagonal(m))


def test_vanishing_fails_at_slot_one_on_a_key_past_the_slots(monkeypatch):
    """A key with z + q + p above the slot count (r < 0) stands for no
    representative, so no slot kills it: slot 1 fails, with no monomial
    to show."""
    real_scaled = logforms_mod.scaled_t_counts

    def with_bad_key(m, closed):
        t = real_scaled(m, closed)
        return Counts(m, {**t.terms, (1, 0, m): 1}, closed)

    monkeypatch.setattr(logforms_mod, "scaled_t_counts", with_bad_key)
    rep = verify_vanishing_on_diagonal(3)
    assert rep.counterexample == {"m": 3, "slot": 1, "survivors": []}


@pytest.mark.parametrize("n,m", MIXED_PAIRS + [(3, 3), (1, 0), (0, 1)])
def test_mixed_boundary_matches_the_unfolded_oracle(n, m):
    same_report(verify_mixed_boundary(n, m),
                oracle_boundary(verify_mixed_boundary, n, m))


def test_failing_payloads_match_the_unfolded_oracle(monkeypatch):
    rep = verify_goncharov_equals_wang(5, broken_cjm)
    same_report(rep, oracle_goncharov_equals_wang(5, broken_cjm))
    assert rep.counterexample["difference_term_count"] == 80
    assert rep.counterexample["truncated"] is True
    # a deldelbar operand scaled by 3 breaks the takeda and prop52 sums
    scale_deldelbar(monkeypatch)
    for m in (2, 4):
        rep = verify_raw_differential(m)
        assert not rep.passed
        same_report(rep, oracle_raw_differential(m))
        for i in range(1, m + 1):
            same_report(verify_s_derivative_identities(m, i),
                        oracle_s_derivative_identities(m, i))
    assert not verify_s_derivative_identities(4, 2).passed


def test_a_deep_failure_unfolds_only_its_payload():
    ce = verify_goncharov_equals_wang(24, broken_cjm).counterexample
    assert ce["difference_term_count"] == 24 * 2 ** 23
    assert len(ce["difference"]) == 40 and ce["truncated"] is True


def test_all_five_suites_pass_at_m20():
    m = 20
    rep = verify_product_expansion(m)
    assert rep.passed
    assert rep.stats["monomials_t"] == rep.stats["monomials_c"] == m * 2 ** (m - 1)
    assert verify_goncharov_equals_wang(m).passed
    assert verify_raw_differential(m).passed
    assert verify_differential_recursion(m).passed
    assert all(verify_s_derivative_identities(m, i).passed
               for i in range(1, m + 1))


def test_boundary_suites_pass_at_m20():
    m = 20
    for rep in (verify_wang_boundary(m), verify_goncharov_boundary(m),
                verify_mixed_boundary(m // 2, m // 2)):
        assert rep.passed
        assert len(rep.stats["residues"]) == rep.stats["divisors"]
    rep = verify_vanishing_on_diagonal(m)
    assert rep.passed and rep.stats["monomials"] == m * 2 ** (m - 1)


def flip_on_first_call(monkeypatch):
    """A count builder (`counts.basis`, which builds S_m^i and T_m) whose
    first call negates one representative's coordinate."""
    real = deligne_mod.basis
    state = {"first": True}

    def flipped(m, coeffs, closed=False):
        out = real(m, coeffs, closed)
        if state["first"] and out.terms:
            state["first"] = False
            key = next(iter(out.terms))
            out.terms[key] = -out.terms[key]
        return out

    monkeypatch.setattr(deligne_mod, "basis", flipped)


@pytest.mark.parametrize("verify,m", [(verify_raw_differential, 3),
                                      (verify_product_expansion, 3)])
def test_a_sign_flipped_fold_fails_the_suite(monkeypatch, verify, m):
    assert verify(m).passed
    flip_on_first_call(monkeypatch)
    rep = verify(m)
    assert not rep.passed
    assert rep.counterexample["difference"]
    assert rep.counterexample["difference_term_count"] > 0


def scale_second_residue(monkeypatch, factor):
    """Residues whose value at the ambient's second divisor is multiplied
    by factor: the package's residue_tuple, where the suites read it, and
    the oracle's WedgeElement.residue alike."""
    real_tuple = logforms_mod.residue_tuple
    real = WedgeElement.residue

    def scaled_tuple(funcs, div):
        res = real_tuple(funcs, div)
        return res * factor if div == div.ambient.divisors()[1] else res

    def scaled(self, div):
        res = real(self, div)
        return res * factor if div == self.ambient.divisors()[1] else res

    monkeypatch.setattr(logforms_mod, "residue_tuple", scaled_tuple)
    monkeypatch.setattr(WedgeElement, "residue", scaled)


@pytest.mark.parametrize("verify,args,factor", [
    (verify_wang_boundary, (3,), 3), (verify_goncharov_boundary, (3,), 3),
    (verify_mixed_boundary, (2, 2), 3), (verify_wang_boundary, (1,), 3),
    (verify_mixed_boundary, (1, 0), 3), (verify_wang_boundary, (3,), 0)],
    ids=["wang-boundary-3", "goncharov-boundary-3", "mixed-boundary-2-2",
         "wang-boundary-1", "mixed-boundary-1-0", "wang-boundary-3-zero"])
def test_a_scaled_residue_fails_the_suite(monkeypatch, verify, args, factor):
    assert verify(*args).passed
    scale_second_residue(monkeypatch, factor)
    rep = verify(*args)
    assert not rep.passed
    assert rep.counterexample["difference_term_count"] > 0
    if not factor:
        second = rep.counterexample["divisor"]
        assert rep.counterexample["residue"] == []
        assert rep.stats["residues"][second] == []
    same_report(rep, oracle_boundary(verify, *args))
