"""The orbit construction of `alternate` against the full m! expansion.

The oracle builders below are the permutation-expanding bodies of
`build_s`, C_m and `build_goncharov` as they were before those moved onto
`alternate` (unfold o fold); they loop over `signed_permutations`, which
`tests/form_oracle.py` keeps along with `alternate` and `build_s`.  The
kind-count builders `c_counts` and `goncharov_counts` are divided back
into `Fraction`s (`package_c`, `package_goncharov`) and read back on each
ordering of the symbols through `counts.unfold`.
"""

import math
import random
from fractions import Fraction

import pytest

from form_oracle import (FormExpr, _omit, alternate, as_element, build_s,
                         deligne_product, factor_expr, oracle_unfold,
                         package_c, package_goncharov, signed_permutations,
                         symbol_folded_c, wedge)
from regver.counts import unfold
from regver.forms import DEL, DELBAR, DELDELBAR, ZERO, Symbol, symbols
from regver.logforms import (HALF, ambient_symbols, build_goncharov,
                             default_cjm, log_symbols)
from regver.residues import Ambient


def oracle_s(syms, i):
    m = len(syms)
    pref = Fraction((-2) ** m)
    pairs = []
    for perm, sign in signed_permutations(syms):
        factors = [(ZERO, perm[0])]
        factors += [(DEL, s) for s in perm[1:i]]
        factors += [(DELBAR, s) for s in perm[i:]]
        pairs.append((pref * sign, tuple(factors)))
    return FormExpr.from_terms(pairs)


def oracle_c(syms):
    acc = FormExpr.zero()
    for perm, sign in signed_permutations(syms):
        el = as_element(perm[-1])
        for s in reversed(perm[:-1]):
            el = deligne_product(as_element(s), el)
        acc = acc + el.expr * sign
    return acc * Fraction(1, math.factorial(len(syms)))


def oracle_goncharov(fs, cjm=default_cjm):
    m = len(fs)
    total = FormExpr.zero()
    outer = Fraction((-1) ** m)
    for perm, sign in signed_permutations(fs):
        j = 0
        while 2 * j + 1 <= m:
            expr = factor_expr(ZERO, perm[0]) \
                * (outer * sign * cjm(j, m) * HALF)
            for k in range(1, m):
                s = perm[k]
                if k <= 2 * j:  # dlog slot
                    one_form = (factor_expr(DEL, s) + factor_expr(DELBAR, s)) * HALF
                else:  # diarg slot
                    one_form = (factor_expr(DEL, s) - factor_expr(DELBAR, s)) * HALF
                expr = wedge(expr, one_form)
            total = total + expr
            j += 1
    return total


def perturbed_cjm(j, m):
    return default_cjm(j, m) + (1 if j == 0 else 0)


def orderings(syms):
    """Index order, reversed, and with one slot omitted."""
    out = [list(syms), list(reversed(syms))]
    if len(syms) > 1:
        out.append(_omit(list(syms), len(syms) // 2))
    return out


def closed(syms):
    return [Symbol(s.index, s.name, closed=True) for s in syms]


@pytest.mark.parametrize("m", range(1, 7))
def test_build_s_matches_oracle(m):
    for syms in orderings(symbols(m)) + orderings(closed(symbols(m))):
        for i in range(1, len(syms) + 1):
            assert build_s(syms, i) == oracle_s(syms, i)


@pytest.mark.parametrize("m", range(1, 5))
def test_build_c_matches_oracle(m):
    mixed = [Symbol(s.index, s.name, closed=s.index % 2 == 0)
             for s in symbols(m)]
    for syms in orderings(symbols(m)) + orderings(closed(symbols(m))) + [mixed]:
        assert oracle_unfold(symbol_folded_c(syms), syms) == oracle_c(syms)
    for syms in orderings(symbols(m)):
        assert unfold(package_c(len(syms)), syms) == oracle_c(syms)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("cjm", [default_cjm, perturbed_cjm])
def test_build_goncharov_matches_oracle(m, cjm):
    # the m = 6 oracle takes seconds per ordering
    for fs in orderings(log_symbols(m))[:1 if m == 6 else None]:
        assert unfold(package_goncharov(len(fs), cjm), fs) == \
            oracle_goncharov(fs, cjm)


def test_build_goncharov_matches_oracle_on_ambient_symbols():
    fs = ambient_symbols(Ambient(2, 2))
    assert build_goncharov(fs) == oracle_goncharov(fs)


def test_alternate_rejects_non_multilinear_seed():
    u1, u2, u3 = symbols(3)
    missing = FormExpr.monomial(1, [(ZERO, u1), (DEL, u2)])
    doubled = FormExpr.monomial(1, [(ZERO, u1), (DEL, u1), (DELBAR, u2)])
    foreign = FormExpr.monomial(1, [(ZERO, u1), (DEL, u2), (DELBAR, u3)])
    with pytest.raises(ValueError):
        alternate(missing, [u1, u2, u3])
    with pytest.raises(ValueError):
        alternate(doubled, [u1, u2, u3])
    with pytest.raises(ValueError):
        alternate(foreign, [u1, u2])


def test_alternate_repeated_symbols_is_zero():
    u1, u2 = symbols(2)
    seed = FormExpr.monomial(1, [(ZERO, u1), (DEL, u2)])
    assert alternate(seed, [u1, u1]).is_zero()
    assert not build_goncharov([log_symbols(1)[0]] * 2).terms


def oracle_alternate(seed, syms):
    pairs = []
    for perm, sign in signed_permutations(syms):
        relabel = dict(zip(syms, perm))
        pairs += [(sign * c, [(kind, relabel[s]) for kind, s in mono])
                  for mono, c in seed.terms.items()]
    return FormExpr.from_terms(pairs)


def test_alternate_stabilizer_weights():
    u1, u2, u3 = symbols(3)
    # two degree-0 factors: the orbit cancels
    even = FormExpr.monomial(1, [(ZERO, u1), (ZERO, u2), (DEL, u3)])
    assert alternate(even, [u1, u2, u3]).is_zero()
    evenpair = FormExpr.monomial(1, [(DELDELBAR, u1), (DELDELBAR, u2)])
    assert alternate(evenpair, [u1, u2]).is_zero()
    # two del factors: every arrangement is reached 2! times
    odd = FormExpr.monomial(1, [(ZERO, u1), (DEL, u2), (DEL, u3)])
    got = alternate(odd, [u1, u2, u3])
    assert got == oracle_alternate(odd, [u1, u2, u3])
    assert len(got) == 3
    assert {abs(c) for c in got.terms.values()} == {2}


@pytest.mark.parametrize("m", range(1, 6))
def test_alternate_matches_oracle_on_random_seeds(m):
    rng = random.Random(m)
    for _ in range(8):
        syms = symbols(m)
        rng.shuffle(syms)
        pairs = []
        for _ in range(rng.randint(1, 6)):
            kinds = [rng.choice((ZERO, DEL, DELBAR, DELDELBAR)) for _ in syms]
            pairs.append((Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                          list(zip(kinds, syms))))
        seed = FormExpr.from_terms(pairs)
        assert alternate(seed, syms) == oracle_alternate(seed, syms)
