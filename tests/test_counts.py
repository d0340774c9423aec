"""Kind-count coordinates (`regver.counts`) against the symbol-level route.

Every count operator is checked against the route the suites took before:
the operator applied to a seed of the folded form and folded again,
`to_counts(fold(op(seed_of(F)), syms)) == op_counts(to_counts(F))`, on
random coordinates with rational coefficients, on open and on closed
symbols in any order.  The one-slot operands (`counts.slot`) must read
as the symbol-level factors, and `counts.monomials` must stream kind
counts as the oracle's sorted unfolded form.  The five algebraic suites
must give the reports of their symbol-level bodies in
`tests/form_oracle.py`, failing payloads included, and must pass at
m = 100; the boundary sweeps and the diagonal check must give the
reports of their folded bodies there."""

import importlib
from fractions import Fraction
from itertools import islice
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from form_oracle import (DeligneElement, FormExpr, _perm_sign, _sort_key,
                         as_element, bidegree_project, conjugate, d, ddb, del_,
                         delbar, deligne_diff, deligne_product, factor_expr,
                         fold, folded_t_log, gen, oracle_unfold, project_if,
                         r_op, rescale_per_factor, s_seed, scale_deldelbar,
                         seed_of, symbol_boundary, symbol_folded_c,
                         symbol_differential_recursion,
                         symbol_goncharov_equals_wang,
                         symbol_product_expansion, symbol_raw_differential,
                         symbol_s_derivative_identities, symbol_vanishing,
                         package_c, t_seed, to_counts, to_form, unfolded_len,
                         wedge)
from regver import counts
from regver.counts import Counts
from regver.deligne import (verify_differential_recursion,
                            verify_product_expansion, verify_raw_differential,
                            verify_s_derivative_identities)
from regver.forms import DEL, DELBAR, DELDELBAR, ZERO, Symbol, symbols
from regver.logforms import (default_cjm, log_symbols, t_log_counts,
                             verify_goncharov_boundary,
                             verify_goncharov_equals_wang,
                             verify_mixed_boundary,
                             verify_vanishing_on_diagonal,
                             verify_wang_boundary)

deligne_mod = importlib.import_module("regver.deligne")
MAX_SLOTS = 8

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def count_forms(draw, lo=0, hi=MAX_SLOTS):
    """(Counts, syms): random coordinates on distinct symbols in any order,
    all open or all closed."""
    n = draw(st.integers(lo, hi))
    closed = draw(st.booleans())
    keys = [(z, q, p) for z in (0, 1) for q in (0, 1)
            for p in range(n - z - q + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True,
                           max_size=len(keys))) if keys else []
    terms = {key: draw(rationals) for key in chosen}
    # 20 is left free for the one-slot operand of the induced products
    ids = draw(st.lists(st.sampled_from([k for k in range(1, 40) if k != 20]),
                        min_size=n, max_size=n, unique=True))
    return Counts(n, terms, closed), [Symbol(k, f"s{k}", closed) for k in ids]


def lifted(op, a: Counts, syms) -> Counts:
    """The symbol-level route: op on a seed of the folded form, folded."""
    return to_counts(fold(op(seed_of(to_form(a, syms))), syms), syms)


@settings(max_examples=60, deadline=None)
@given(count_forms())
def test_coordinates_round_trip(case):
    a, syms = case
    f = to_form(a, syms)
    assert to_counts(f, syms) == a
    assert counts.unfolded_len(a) == unfolded_len(f)


@settings(max_examples=40, deadline=None)
@given(count_forms(), st.integers(0, 60))
def test_unfold_matches_the_oracle(case, limit):
    """counts.monomials streams kind counts directly, in canonical order:
    listed, it is the oracle's unfold of the folded form that to_form
    writes, sorted, and a prefix of it is the sorted form's prefix."""
    a, syms = case
    full = oracle_unfold(to_form(a, syms), syms).pairs()
    assert list(counts.monomials(a, syms)) == full
    assert list(islice(counts.monomials(a, syms), limit)) == full[:limit]


@pytest.mark.parametrize("terms", [
    # the keys of T_3800, the `vanishing` limit (the walk reads only keys)
    {(1, 0, p): p + 1 for p in range(3800)},
    # deldelbar on every key: each prefix of more than 1900 del factors
    # or 1899 delbar factors is pruned
    {(0, 1, 1900): 1}], ids=["t-keys", "deldelbar-only"])
def test_payload_head_at_depth_is_quick(terms):
    """A failing payload takes the first 40 monomials of a form on up to
    3800 slots, deeper than the default recursion limit: the walk that
    makes them is iterative, and a prefix costs only its own terms."""
    syms = symbols(3800)
    a = Counts(3800, terms)
    t0 = perf_counter()
    head = list(islice(counts.monomials(a, syms), 40))
    assert perf_counter() - t0 < 1.0
    assert len(head) == 40
    assert sorted(head, key=lambda mc: tuple(map(_sort_key, mc[0]))) == head
    first, c = head[0]
    if (1, 0, 3799) in terms:  # u on the first symbol, del on the others
        assert c == 3800
        assert first == ((ZERO, syms[0]),
                         *((DEL, s) for s in syms[1:]))
    else:
        for mono, _ in head:
            kinds = [kind for kind, _ in mono]
            assert (kinds.count(DELDELBAR), kinds.count(DEL)) == (1, 1900)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("n", range(8))
def test_monomials_carry_the_sign_of_the_id_order(n, closed):
    """On syms in any order the stream is sgn(tau) times the stream on
    the same symbols sorted by id, tau the permutation that sorts them,
    and that stream is the oracle's: every (z, q) class on its own, with
    every p it can hold."""
    ordered = [Symbol(k, f"s{k}", closed) for k in range(1, n + 1)]
    orders = [ordered[::-1], ordered[1::2] + ordered[::2]]
    for z in (0, 1):
        for q in (0, 1):
            size = n - z - q
            if size < 0:
                continue
            a = Counts(n, {(z, q, p): p + 1 for p in range(size + 1)},
                       closed)
            sorted_stream = list(counts.monomials(a, ordered))
            assert sorted_stream == oracle_unfold(to_form(a, ordered),
                                                  ordered).pairs()
            for syms in orders:
                sign = _perm_sign([s.index for s in syms])
                assert list(counts.monomials(a, syms)) == \
                    [(mono, sign * c) for mono, c in sorted_stream]


def bidegree_ops(n):
    """(symbol-level, count) projections onto each bidegree a form on n
    slots can have."""
    return [(lambda x, b=b: bidegree_project(x, *b),
             lambda a, b=b: counts.project_if(a, lambda *ab: ab == b))
            for b in ((h, k) for h in range(n + 2) for k in range(n + 2))]


# (symbol-level op on a seed, count op) pairs, each a property of its own
UNARY = {
    "del_": (del_, counts.del_),
    "delbar": (delbar, counts.delbar),
    "d": (d, counts.d),
    "conjugate": (conjugate, counts.conjugate),
    "project_if": (lambda x: project_if(x, lambda p, r: p >= r),
                   lambda a: counts.project_if(a, lambda p, r: p >= r)),
    "rescale_per_factor": (lambda x: rescale_per_factor(x, Fraction(-1, 2)),
                           lambda a: a * Fraction(-1, 2) ** a.slots),
}


@pytest.mark.parametrize("name", sorted(UNARY))
@settings(max_examples=50, deadline=None)
@given(case=count_forms())
def test_unary_operator_matches_the_symbol_route(name, case):
    a, syms = case
    symbol_op, count_op = UNARY[name]
    assert count_op(a) == lifted(symbol_op, a, syms)


@settings(max_examples=40, deadline=None)
@given(count_forms())
def test_bidegree_projections_match_the_symbol_route(case):
    a, syms = case
    total = Counts(a.slots, {}, a.closed)
    for symbol_op, count_op in bidegree_ops(a.slots):
        piece = count_op(a)
        assert piece == lifted(symbol_op, a, syms)
        total = total + piece
    assert total == a


def degrees(n):
    """(degree, twist) pairs covering every case of r_op and deligne_diff."""
    return [(n, n), (n, n + 1), (1, 1), (2 * n, n), (2 * n + 1, n),
            (2 * n - 1, n), (n + 1, n)]


@settings(max_examples=50, deadline=None)
@given(count_forms())
def test_deligne_diff_matches_the_symbol_route(case):
    a, syms = case
    for n, p in degrees(a.slots):
        assert counts.deligne_diff(a, n, p) == lifted(
            lambda x: deligne_diff(DeligneElement(x, n, p)).expr, a, syms)


@settings(max_examples=50, deadline=None)
@given(count_forms())
def test_r_op_matches_the_symbol_route(case):
    a, syms = case
    for n, p in degrees(a.slots):
        if n < 2 * p:
            assert counts.r_op(a, n, p) == lifted(
                lambda x: r_op(DeligneElement(x, n, p)), a, syms)
        else:
            with pytest.raises(ValueError):
                counts.r_op(a, n, p)


@st.composite
def one_slot_operands(draw, closed):
    """A random form on one symbol u, with u's id below, between or above
    the other symbols'."""
    u = Symbol(draw(st.sampled_from([0, 20, 99])), "x", closed)
    expr = FormExpr.zero()
    for kind in draw(st.lists(st.sampled_from([ZERO, DEL, DELBAR,
                                               DELDELBAR]), unique=True)):
        expr = expr + factor_expr(kind, u) * draw(rationals)
    return expr, u


def induced(x, u, a, syms, product):
    """fold(x(u) ^ seed_of(Y)) over u and Y's symbols."""
    allsyms = [u] + syms
    return to_counts(fold(product(x, seed_of(to_form(a, syms))), allsyms),
                     allsyms)


@settings(max_examples=60, deadline=None)
@given(count_forms(0, MAX_SLOTS - 1), st.data())
def test_induced_wedge_matches_the_symbol_route(case, data):
    a, syms = case
    x, u = data.draw(one_slot_operands(a.closed))
    assert counts.wedge(to_counts(x, [u]), a) == \
        induced(x, u, a, syms, wedge)


@settings(max_examples=40, deadline=None)
@given(count_forms(0, MAX_SLOTS - 1), st.data())
def test_induced_deligne_product_matches_the_symbol_route(case, data):
    a, syms = case
    x, u = data.draw(one_slot_operands(a.closed))
    n = a.slots
    for xn, xp in ((1, 1), (2, 1), (0, 1)):
        for m, q in ((n, n), (n, n + 1), (2 * n, n)):
            def product(xe, ye, xn=xn, xp=xp, m=m, q=q):
                return deligne_product(DeligneElement(xe, xn, xp),
                                       DeligneElement(ye, m, q)).expr
            assert counts.deligne_product(to_counts(x, [u]), xn, xp,
                                          a, m, q) == \
                induced(x, u, a, syms, product)


def test_the_operands_read_off_one_slot():
    """counts.slot against the symbol-level factors, and the operands the
    suites derive from it against the symbol-level operators."""
    for closed in (False, True):
        u = Symbol(1, "u1", closed)
        assert to_form(counts.slot(ZERO, closed), [u]) == gen(u)
        for kind in (DEL, DELBAR, DELDELBAR):
            assert to_form(counts.slot(kind, closed), [u]) == \
                factor_expr(kind, u)
        assert ddb(u) == factor_expr(DELDELBAR, u)
        assert counts.deligne_diff(counts.slot(ZERO, closed), 1, 1) == \
            to_counts(deligne_diff(as_element(u)).expr, [u])
        assert counts.d(counts.slot(ZERO, closed)) == \
            to_counts(d(gen(u)), [u])
    assert counts.slot(ZERO, False) == Counts(1, {(1, 0, 0): 1})
    assert counts.slot(DELDELBAR, False) == Counts(1, {(0, 1, 0): 1})
    assert counts.deligne_diff(counts.slot(ZERO, False), 1, 1) == \
        Counts(1, {(0, 1, 0): -2})
    assert counts.slot(DELBAR, False) == Counts(1, {(0, 0, 0): 1})
    assert counts.slot(DEL, False) == Counts(1, {(0, 0, 1): 1})


@pytest.mark.parametrize("m", range(1, 9))
def test_the_families_are_their_folded_seeds(m):
    us = symbols(m)
    for syms in (us, us[::-1], log_symbols(m)):
        closed = syms[0].closed
        assert deligne_mod.t_counts(m, closed) == \
            to_counts(fold(t_seed(syms), syms), syms)
        for i in range(1, m + 1):
            assert deligne_mod.s_counts(m, i) == \
                to_counts(fold(s_seed(syms, i), syms), syms)
    assert to_form(package_c(m), us) == symbol_folded_c(us)
    fs = log_symbols(m)
    assert t_log_counts(m) == to_counts(folded_t_log(fs), fs)


def test_t_on_zero_slots_is_the_constant_one():
    assert t_log_counts(0) == deligne_mod.t_counts(0) == \
        to_counts(folded_t_log([]), []) == Counts(0, {(0, 0, 0): 1})
    assert counts.unfolded_len(t_log_counts(0)) == 1


def test_unfolded_len_counts_the_arrangements():
    m = 7
    t = deligne_mod.t_counts(m)
    assert counts.unfolded_len(t) == m * 2 ** (m - 1)
    assert len(t.terms) == m
    assert counts.unfolded_len(Counts(3, {(0, 1, 1): 5})) == 6
    assert counts.unfolded_len(Counts(4, {(1, 1, 2): 5})) == 12


# -- the five suites against their symbol-level bodies ------------------------

def same_report(new, old):
    a, b = new.to_dict(), old.to_dict()
    a.pop("elapsed")
    b.pop("elapsed")
    assert a == b


def broken_cjm(j, m):
    return default_cjm(j, m) + (Fraction(1, 7) if j == 0 else 0)


@pytest.mark.parametrize("m", range(1, 13))
def test_suites_match_the_symbol_route(m):
    same_report(verify_product_expansion(m), symbol_product_expansion(m))
    same_report(verify_raw_differential(m), symbol_raw_differential(m))
    for i in range(1, m + 1):
        same_report(verify_s_derivative_identities(m, i),
                    symbol_s_derivative_identities(m, i))
    if m >= 2:
        for closed in (False, True):
            same_report(verify_differential_recursion(m, closed),
                        symbol_differential_recursion(m, closed))
    for cjm in (default_cjm, broken_cjm):
        same_report(verify_goncharov_equals_wang(m, cjm),
                    symbol_goncharov_equals_wang(m, cjm))


def test_tm_identity_matches_the_symbol_route_at_m30():
    same_report(verify_product_expansion(30), symbol_product_expansion(30))


@pytest.mark.parametrize("m", range(1, 13))
def test_boundary_suites_match_the_symbol_route(m):
    for verify in (verify_wang_boundary, verify_goncharov_boundary):
        same_report(verify(m), symbol_boundary(verify, m))
    same_report(verify_vanishing_on_diagonal(m), symbol_vanishing(m))


def test_wang_boundary_matches_the_symbol_route_at_m30():
    same_report(verify_wang_boundary(30),
                symbol_boundary(verify_wang_boundary, 30))


@pytest.mark.parametrize("n,m", [(n, m) for n in range(9) for m in range(9)
                                 if 1 <= n + m <= 8])
def test_mixed_boundary_matches_the_symbol_route(n, m):
    same_report(verify_mixed_boundary(n, m),
                symbol_boundary(verify_mixed_boundary, n, m))


@pytest.mark.parametrize("m", [2, 5, 8])
def test_failing_payloads_match_the_symbol_route(monkeypatch, m):
    """A scaled deldelbar operand reaches both routes through
    `counts.slot` and both payloads name the same representatives."""
    scale_deldelbar(monkeypatch)
    rep = verify_raw_differential(m)
    assert not rep.passed
    same_report(rep, symbol_raw_differential(m))
    for i in range(1, m + 1):
        same_report(verify_s_derivative_identities(m, i),
                    symbol_s_derivative_identities(m, i))


def test_a_flipped_first_operand_fails_tm_identity(monkeypatch):
    """A sign-flipped one-slot operand u reaches the C_m recursion: C_m
    changes by (-1)^m, so an odd m fails."""
    real = counts.slot

    def flipped(kind, closed):
        return real(kind, closed) * (-1 if kind == ZERO else 1)

    monkeypatch.setattr(counts, "slot", flipped)
    assert verify_product_expansion(4).passed
    rep = verify_product_expansion(3)
    assert not rep.passed
    assert rep.counterexample["difference_term_count"] == 12


def test_all_five_suites_pass_at_m100():
    m = 100
    rep = verify_product_expansion(m)
    assert rep.passed
    assert rep.stats["monomials_t"] == rep.stats["monomials_c"] \
        == m * 2 ** (m - 1)
    assert verify_goncharov_equals_wang(m).passed
    assert verify_raw_differential(m).passed
    assert verify_differential_recursion(m).passed
    assert verify_differential_recursion(m, closed=True).passed
    assert all(verify_s_derivative_identities(m, i).passed
               for i in range(1, m + 1))
