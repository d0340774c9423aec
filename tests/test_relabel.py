"""The oracle's `relabel` against building the family directly on the
target symbols, and its `wang_form` on a base built once against T built
on each basis tuple."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from form_oracle import FormExpr, build_s, relabel, scalar, wang_form
from regver.deligne import build_t
from regver.forms import Symbol
from regver.logforms import ambient_symbols, build_t_log, log_symbols
from regver.residues import Ambient
from residue_oracle import WedgeElement, random_function


def family_builders(m, closed):
    builders = [lambda syms, i=i: build_s(syms, i) for i in range(1, m + 1)]
    builders.append(build_t)
    if closed:
        builders.append(build_t_log)
    return builders


@st.composite
def relabellings(draw):
    """m <= 7 source symbols and as many targets, increasing in index."""
    m = draw(st.integers(1, 7))
    closed = draw(st.booleans())
    src = [Symbol(k + 1, f"s{k + 1}", closed) for k in range(m)]
    indices = draw(st.lists(st.integers(1, 30), min_size=m, max_size=m,
                            unique=True))
    dst = [Symbol(k, f"t{k}", closed) for k in sorted(indices)]
    return src, dst, closed


@settings(max_examples=60, deadline=None)
@given(relabellings())
def test_relabel_equals_the_direct_build(case):
    src, dst, closed = case
    for build in family_builders(len(src), closed):
        assert relabel(build(src), src, dst) == build(dst)


@pytest.mark.parametrize("lines,proj", [(2, 0), (1, 2), (2, 2), (0, 3)])
def test_wang_form_with_and_without_a_prebuilt_base(lines, proj):
    rng = random.Random(10 * lines + proj)
    amb = Ambient(lines, proj)
    syms = ambient_symbols(amb)
    for arity in range(amb.basis_size() + 1):
        base = build_t_log(log_symbols(arity))
        for _ in range(3):
            if arity:
                w = WedgeElement.from_functions(
                    [random_function(rng, amb) for _ in range(arity)])
            else:
                w = WedgeElement.unit(amb, rng.randint(-3, 3))
            direct = FormExpr.zero()
            for subset, coeff in w.terms.items():
                direct += FormExpr(
                    build_t_log([syms[j] for j in subset]).terms) * coeff
            assert wang_form(w, base) == direct
    unit = WedgeElement.unit(amb, 3)
    assert wang_form(unit, scalar(1)) == scalar(3)
