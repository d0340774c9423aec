import importlib
import json
import random
import tracemalloc
from collections import Counter
from itertools import chain
from operator import mul
from types import SimpleNamespace

import pytest

from regver.homology import (ChainComplex, ChainMap, CubicalGroup,
                             InvalidComplexData, associated_complex,
                             complex_from_json,
                             complex_to_json, cubical_from_json,
                             cubical_to_json, decomposition_check,
                             degenerate_generators,
                             homology, normalized_complex,
                             normalized_kernel_bases, simple_of_diagram,
                             simple_of_map, two_term_complex,
                             verify_les_exactness)
from rational_oracle import (OracleHomology, column_lattice_basis, columns,
                             frac_kernel, frac_matrix, frac_rank, frac_solve,
                             oracle_chain_map, oracle_les_exactness,
                             scaled, signed_face_sum, translate,
                             two_rank_decomposition)
from regver.matrices import (IntMatrix, det, invariant_factors,
                             invariant_factors_by_minors, kernel,
                             kernel_basis, rank, smith_normal_form)
from regver.randomized import (constant_cubical, conjugate_cubical,
                               function_model_cubical, interval_cubical,
                               random_chain_complex, random_chain_map,
                               random_cubical_group, random_int_matrix)
from regver import suites

homology_mod = importlib.import_module("regver.homology")
from regver.suites import (two_arrow_hand_instance, verify_cubical_batch,
                           verify_snf_batch, verify_two_arrow_formula)


# -- Smith normal form --------------------------------------------------------

def test_snf_examples():
    assert invariant_factors(IntMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]
    u, d, v = smith_normal_form(IntMatrix.zero(2, 3))
    assert d.is_zero()
    assert invariant_factors(IntMatrix.identity(3)) == [1, 1, 1]


def test_snf_reconstruction_batch():
    rng = random.Random(41)
    for _ in range(60):
        m = random_int_matrix(rng, 4, 4)
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert abs(det(u.entries)) == 1 and abs(det(v.entries)) == 1
        inv = invariant_factors(m)
        assert all(b % a == 0 for a, b in zip(inv, inv[1:]))


def test_snf_against_minor_gcd_oracle():
    """40 dense 3 x 3 matrices; two dense matrices and one low-rank product
    of every shape up to 6 x 6; and three 8 x 8 matrices, one of rank 6."""
    rng = random.Random(42)
    cases = [random_int_matrix(rng, 3, 3) for _ in range(40)]
    for rows in range(1, 7):
        for cols in range(1, 7):
            k = rng.randint(0, min(rows, cols) - 1)
            cases += [random_int_matrix(rng, rows, cols),
                      random_int_matrix(rng, rows, cols),
                      random_int_matrix(rng, rows, k)
                      * random_int_matrix(rng, k, cols)]
    cases += [random_int_matrix(rng, 8, 8), random_int_matrix(rng, 8, 8),
              random_int_matrix(rng, 8, 6) * random_int_matrix(rng, 6, 8)]
    for m in cases:
        assert invariant_factors(m) == invariant_factors_by_minors(m)


def test_kernel_basis_is_saturated():
    m = IntMatrix.from_rows([[2, 4]])
    k = kernel_basis(m)
    assert k.cols == 1
    col = [k.entries[0][0], k.entries[1][0]]
    assert 2 * col[0] + 4 * col[1] == 0
    from math import gcd
    assert abs(gcd(col[0], col[1])) == 1


# -- chain complexes ----------------------------------------------------------

def test_complex_rejects_bad_differential():
    with pytest.raises(InvalidComplexData):
        ChainComplex(0, 2, {0: 1, 1: 1, 2: 1},
                     {1: IntMatrix.from_rows([[1]]),
                      2: IntMatrix.from_rows([[1]])})


@pytest.mark.parametrize("empty", ["source below", "target above"])
def test_a_map_that_fails_beside_an_empty_factor_is_refused(empty):
    """f_0 d_A = d_B f_1 at degree 1 with one side's inner group of rank 0:
    that side's product is formed over the empty factor as a zero matrix,
    and the other, which is not zero, differs from it."""
    one = IntMatrix.identity(1)
    if empty == "source below":  # A_0 = 0, so f_0 d_A = 0 != d_B f_1
        a = ChainComplex(0, 1, {0: 0, 1: 1}, {})
        b = ChainComplex(0, 1, {0: 1, 1: 1}, {1: one})
        mats = {1: one}
    else:  # B_1 = 0, so d_B f_1 = 0 != f_0 d_A
        a = ChainComplex(0, 1, {0: 1, 1: 1}, {1: one})
        b = ChainComplex(0, 1, {0: 1, 1: 0}, {})
        mats = {0: one}
    with pytest.raises(InvalidComplexData,
                       match=r"^map does not commute with d at degree 1$"):
        ChainMap(a, b, mats)
    ChainMap(a, b, {})  # the zero map commutes


def test_homology_of_multiplication_by_two():
    c = two_term_complex(1, [[2]])
    assert homology(c, 0) == (0, [2])
    assert homology(c, 1) == (0, [])


def test_homology_zero_differentials():
    c = ChainComplex(0, 1, {0: 2, 1: 3}, {1: IntMatrix.zero(2, 3)})
    assert homology(c, 0) == (2, [])
    assert homology(c, 1) == (3, [])


@pytest.mark.parametrize("wide", [True, False])
def test_a_long_differential_builds_no_transform(wide):
    """The invariant factors of a 1 x 2000 or a 2000 x 1 differential come
    from the Smith diagonal alone: the transforms, a 2000 x 2000 identity
    each way (about 120 MiB), are never built."""
    side = 2000
    if wide:  # d_1 = (0 ... 0 1): H_0 = 0, H_1 = Z^1999
        ranks = {0: 1, 1: side}
        d1 = IntMatrix.from_rows([[0] * (side - 1) + [1]])
        expected = {0: (0, []), 1: (side - 1, [])}
    else:  # d_1 = (0 ... 0 2)^T: H_0 = Z^1999 + Z/2, H_1 = 0
        ranks = {0: side, 1: 1}
        d1 = IntMatrix.from_rows([[0]] * (side - 1) + [[2]])
        expected = {0: (side - 1, [2]), 1: (0, [])}
    cx = ChainComplex(0, 1, ranks, {1: d1})
    tracemalloc.start()
    try:
        got = {n: homology(cx, n) for n in (0, 1)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 10 * 2 ** 20


def test_translate():
    c = two_term_complex(1, [[2]])
    assert complex_to_json(translate(c, 0)) == complex_to_json(c)
    assert complex_to_json(translate(translate(c, 1), 1)) == \
        complex_to_json(translate(c, 2))
    assert translate(c, 2).diff(3) == c.diff(1)
    assert translate(c, 1).diff(2) == scaled(c.diff(1), -1)


# -- cubical groups -----------------------------------------------------------

def test_one_zero_cube():
    c = constant_cubical(0)
    cx = associated_complex(c)
    assert (cx.lo, cx.hi) == (0, 0) and cx.rank(0) == 1


def test_interval_boundary_is_difference_of_faces():
    c = interval_cubical(1)
    cx = associated_complex(c)
    # basis at level 1: (c0, c1, p1); d(p1) = face_1 - face_0 = c1 - c0
    col = [cx.diff(1).entries[r][2] for r in range(2)]
    assert col == [-1, 1]


def test_normalized_complex_values():
    assert normalized_complex(constant_cubical(0)).rank(0) == 1
    nc = normalized_complex(interval_cubical(2))
    # level 1 kernel: rank 3 source, the two degenerate cells are cut
    assert nc.rank(1) == 1
    # degenerate-only levels of the constant group normalize to zero
    nc_const = normalized_complex(constant_cubical(2))
    assert [nc_const.rank(n) for n in range(3)] == [1, 0, 0]


def former_normalized_differential(g, bases, n):
    """d_n of the normalized complex by the product and solve at every
    level, rank 0 included."""
    d = signed_face_sum(g, n, (0,)) * bases[n]
    return homology_mod.solve_integral(bases[n - 1], d)


def test_a_normalized_level_of_rank_0_forms_no_product_and_no_solve(
        monkeypatch):
    """interval_cubical(3) normalizes to ranks 2, 1, 0, 0: levels 2 and 3
    get their empty differentials (1 x 0 and 0 x 0) with no matrix
    product and no elimination, and level 1 is solved as before."""
    g = interval_cubical(3)
    bases = normalized_kernel_bases(g)
    assert [bases[n].cols for n in range(4)] == [2, 1, 0, 0]
    expected = {n: former_normalized_differential(g, bases, n)
                for n in range(1, 4)}
    products, solves = [], []
    real_mul, real_solve = IntMatrix.__mul__, homology_mod.solve_integral

    def counted_mul(a, b):
        products.append((a.rows, a.cols, b.cols))
        return real_mul(a, b)

    def counted_solve(basis, target):
        solves.append(target.cols)
        return real_solve(basis, target)

    monkeypatch.setattr(IntMatrix, "__mul__", counted_mul)
    monkeypatch.setattr(homology_mod, "solve_integral", counted_solve)
    nc = normalized_complex(g, bases)
    assert solves == [1]
    assert products and all(0 not in shape for shape in products)
    assert {n: nc.diff(n) for n in range(1, 4)} == expected
    assert [(expected[n].rows, expected[n].cols) for n in (2, 3)] \
        == [(1, 0), (0, 0)]


def test_normalized_differentials_match_the_product_and_solve():
    """On 200 seeded cubical groups, many with normalized levels of rank 0,
    every differential equals the one of the product and solve route."""
    rng = random.Random(59)
    empty = 0
    for _ in range(200):
        g = random_cubical_group(rng)
        bases = normalized_kernel_bases(g)
        nc = normalized_complex(g, bases)
        for n in range(1, g.top + 1):
            assert nc.diff(n) == former_normalized_differential(g, bases, n)
            empty += not bases[n].cols
    assert empty > 50


def test_face_sums_match_the_entrywise_sum():
    """The signed face sums of the associated (j in 0, 1) and normalized
    (j = 0) differentials, summed row by row, equal the sums entry by
    entry on 200 seeded cubical groups."""
    rng = random.Random(58)
    sums = 0
    for _ in range(200):
        g = random_cubical_group(rng)
        for n in range(1, g.top + 1):
            for js in ((0, 1), (0,)):
                assert homology_mod._face_sum(g, n, js) == \
                    signed_face_sum(g, n, js)
                sums += 1
    assert sums > 400


def test_function_model_validates():
    function_model_cubical(2, 3)
    function_model_cubical(3, 2)


def test_decomposition_examples():
    rng = random.Random(43)
    for g in (constant_cubical(1), interval_cubical(2),
              *(random_cubical_group(rng) for _ in range(3))):
        assert decomposition_check(g, normalized_kernel_bases(g)) is None


def test_planted_decomposition_failures_match_the_two_rank_formula():
    """One elimination of [D_n | NC_n] reports what the ranks of D_n and of
    [NC_n | D_n] did: on the real bases (pass), with one degenerate column
    added to NC_n (joint rank short) and with one column of NC_n dropped
    (ranks short of C_n)."""
    rng = random.Random(53)
    planted = 0
    for _ in range(40):
        g = random_cubical_group(rng)
        bases = normalized_kernel_bases(g)
        assert decomposition_check(g, bases) is None
        assert two_rank_decomposition(g, bases) is None
        n = rng.randint(1, g.top)
        dg = degenerate_generators(g, n)
        nc = bases[n]
        added = nc.hstack(IntMatrix._of(dg.rows, 1,
                                        tuple(r[:1] for r in dg.entries)))
        dropped = IntMatrix._of(nc.rows, nc.cols - 1,
                                tuple(r[1:] for r in nc.entries))
        for wrong in (added, dropped) if nc.cols else (added,):
            bad = decomposition_check(g, {**bases, n: wrong})
            assert bad is not None
            assert bad == two_rank_decomposition(g, {**bases, n: wrong})
            planted += 1
    assert planted > 40


def test_cubical_rejects_nonzero_d_squared():
    # one extra entry in face (2,1,0) keeps face o degeneracy = id but
    # breaks d o d = 0 on the associated complex
    c = interval_cubical(2)
    faces = dict(c.faces)
    rows = faces[(2, 1, 0)].to_lists()
    rows[2][2] += 1
    faces[(2, 1, 0)] = IntMatrix.from_rows(rows)
    for i in (1, 2):
        for j in (0, 1):
            assert faces[(2, i, j)] * c.degeneracy(1, i) == IntMatrix.identity(3)
    with pytest.raises(InvalidComplexData,
                       match=r"^invalid cubical data: d o d != 0 at degree 2$"):
        CubicalGroup(2, dict(c.ranks), faces, dict(c.degeneracies))


def test_precomputed_kernel_bases_change_nothing():
    rng = random.Random(47)
    for _ in range(25):
        g = random_cubical_group(rng)
        bases = normalized_kernel_bases(g)
        assert complex_to_json(normalized_complex(g, bases)) == \
            complex_to_json(normalized_complex(g))
        assert decomposition_check(g, bases) is None


def test_randomized_cubical_batch():
    rep = verify_cubical_batch(30, seed=44)
    assert rep.passed


def test_a_short_kernel_basis_fails_the_cubical_batch(monkeypatch):
    real = homology_mod.kernel_basis

    def short(m):
        k = real(m)
        return IntMatrix(k.rows, k.cols - 1,
                         tuple(r[:-1] for r in k.entries)) if k.cols else k

    monkeypatch.setattr(homology_mod, "kernel_basis", short)
    rep = verify_cubical_batch(5)
    assert not rep.passed
    assert rep.counterexample["instance"] == 0


def test_homology_splits_normalized_plus_degenerate():
    rng = random.Random(45)
    from fractions import Fraction
    for _ in range(10):
        g = random_cubical_group(rng)
        cx = associated_complex(g)
        nc = normalized_complex(g)
        bases = {n: column_lattice_basis(degenerate_generators(g, n))
                 for n in range(g.top + 1)}
        # rational homology ranks of the degenerate subcomplex
        mats = {}
        for n in range(1, g.top + 1):
            cols = []
            for col in columns(bases[n]):
                img = cx.diff(n) * IntMatrix.from_rows([[x] for x in col])
                sol = frac_solve(frac_matrix(bases[n - 1]),
                                 [Fraction(v) for v in columns(img)[0]])
                assert sol is not None
                cols.append(sol)
            mats[n] = [[cols[j][i] for j in range(len(cols))]
                       for i in range(bases[n - 1].cols)]
        for n in range(g.top + 1):
            r_out = frac_rank(mats.get(n, [])) if n > 0 else 0
            r_in = frac_rank(mats.get(n + 1, [])) if n < g.top else 0
            h_degenerate = bases[n].cols - r_out - r_in
            assert homology(cx, n)[0] == homology(nc, n)[0] + h_degenerate


# -- simple complexes ---------------------------------------------------------

def test_simple_of_zero_map_between_trivial():
    z = ChainComplex(0, 0, {0: 0}, {})
    s = simple_of_map(ChainMap(z, z, {}))
    assert all(s.rank(n) == 0 for n in range(s.lo, s.hi + 1))


def test_simple_of_identity_is_acyclic():
    c = two_term_complex(1, [[1]])
    f = ChainMap(c, c, {0: IntMatrix.identity(1), 1: IntMatrix.identity(1)})
    s = simple_of_map(f)
    for n in range(s.lo, s.hi + 1):
        assert homology(s, n) == (0, [])


def test_diagram_with_zero_arrows_is_direct_sum():
    rng = random.Random(46)
    a = random_chain_complex(rng)
    b = random_chain_complex(rng)
    c = random_chain_complex(rng)
    s = simple_of_diagram(ChainMap(a, b, {}), ChainMap(a, c, {}))
    for n in range(s.lo, s.hi + 1):
        assert s.rank(n) == a.rank(n - 1) + b.rank(n) + c.rank(n)
    for n in range(s.lo + 1, s.hi + 1):
        ta = translate(a, 1)
        block = s.diff(n)
        # top-left block is -d_A shifted
        for i in range(a.rank(n - 2)):
            for j in range(a.rank(n - 1)):
                assert block.entries[i][j] == ta.diff(n).entries[i][j]


def test_diagram_with_trivial_middle_recovers_simple_of_map():
    rng = random.Random(47)
    found_nonzero = False
    for _ in range(12):
        a = random_chain_complex(rng)
        c = random_chain_complex(rng)
        b = ChainComplex(0, 0, {0: 0}, {})
        r = random_chain_map(rng, a, c)
        s1 = simple_of_diagram(ChainMap(a, b, {}), r)
        s2 = translate(simple_of_map(r), 1)
        lo, hi = min(s1.lo, s2.lo), max(s1.hi, s2.hi)
        assert all(s1.rank(n) == s2.rank(n) for n in range(lo, hi + 1))
        assert all(s1.diff(n) == s2.diff(n) for n in range(lo + 1, hi + 1))
        if any(not m.is_zero() for m in r.mats.values()):
            found_nonzero = True
    assert found_nonzero


def test_two_arrow_differential_matches_block_formula():
    assert verify_two_arrow_formula().passed


def test_a_negated_g_block_fails_the_two_arrow_check(monkeypatch):
    real = suites.simple_of_diagram

    def negated_g(g, r):
        return real(ChainMap(g.source, g.target,
                             {n: scaled(m, -1) for n, m in g.mats.items()}),
                    r)

    monkeypatch.setattr(suites, "simple_of_diagram", negated_g)
    rep = verify_two_arrow_formula()
    assert not rep.passed
    ce = rep.counterexample
    assert ce["got"] != ce["expected"]


def test_two_arrow_hand_instance_is_valid():
    s = simple_of_diagram(*two_arrow_hand_instance())
    s.validate()
    assert [s.rank(n) for n in range(s.lo, s.hi + 1)] == [2, 3, 1]


def test_maps_with_different_sources_are_refused():
    """The diagram is its two maps, and their source is one object: maps
    out of another complex, even an equal copy, are no diagram."""
    a = two_term_complex(1, [[2]])
    g = ChainMap(a, a, {})
    for other in (two_term_complex(1, [[3]]), two_term_complex(1, [[2]])):
        with pytest.raises(InvalidComplexData, match="same complex"):
            simple_of_diagram(g, ChainMap(other, a, {}))
        with pytest.raises(InvalidComplexData, match="same complex"):
            simple_of_diagram(ChainMap(other, a, {}), g)


# -- long exact sequence ------------------------------------------------------

def test_les_zero_and_identity_maps():
    c = two_term_complex(1, [[2]])
    assert verify_les_exactness(ChainMap(c, c, {})) is None
    idm = ChainMap(c, c, {0: IntMatrix.identity(1), 1: IntMatrix.identity(1)})
    assert verify_les_exactness(idm) is None


def test_les_randomized():
    rng = random.Random(48)
    for _ in range(25):
        a = random_chain_complex(rng)
        b = random_chain_complex(rng)
        f = random_chain_map(rng, a, b)
        assert verify_les_exactness(f) is None


def test_the_unchecked_cone_of_a_chain_map_is_a_complex(monkeypatch):
    """`simple_of_map` skips the d o d = 0 check, as its map is a
    validated chain map: on the first 200 maps of the seeded LES batch
    each cone passes `validate`, and the LES check reports what it reports
    on the cone from the checked constructor, None."""
    real = simple_of_map

    def checked(f):
        s = real(f)
        return ChainComplex(s.lo, s.hi, dict(s.ranks), dict(s.differentials))

    maps = list(random_les_instances(2026, 200))  # the batch's default seed
    for f in maps:
        real(f).validate()
    unchecked = [verify_les_exactness(f) for f in maps]
    monkeypatch.setattr(homology_mod, "simple_of_map", checked)
    assert unchecked == [verify_les_exactness(f) for f in maps] \
        == [None] * 200


def frozen(rows) -> tuple:
    return tuple(map(tuple, rows))


def test_les_ranks_each_induced_map_once(monkeypatch):
    """One kernel per complex and degree of nonzero rank that the nodes
    read (of no rows where the differential is absent; a group of rank 0
    takes none, as it has no cycles), rank d_{n+1} comes from the kernel
    of d_{n+1} and no differential is eliminated again, and each induced
    map is ranked once although it is the outgoing map of one node and the
    incoming map of the next.  Vectors that are all zero are ranked by no
    elimination: their classes have rank 0."""
    kernels, ranks = [], []
    monkeypatch.setattr(homology_mod, "kernel", lambda rows, n:
                        kernels.append(frozen(rows)) or kernel(rows, n))
    monkeypatch.setattr(homology_mod, "rank", lambda rows:
                        ranks.append(frozen(rows)) or rank(rows))
    f = next(random_les_instances(31, 1))
    a, b, s = f.source, f.target, simple_of_map(f)
    assert (s.lo, s.hi) == (-1, 3)
    assert verify_les_exactness(f) is None
    degrees = range(s.lo - 1, s.hi + 2)
    # every node's dim reads the cycles one degree up, for rank d_{n+1}
    read = [(x, n) for x in (a, b, s) for n in range(s.lo - 1, s.hi + 3)]
    assert Counter(kernels) == Counter(
        frozen(x.differentials[n].entries) if n in x.differentials else ()
        for x, n in read if x.rank(n))
    differentials = {frozen(x.diff(n).entries) for x, n in read}
    assert not {m for m in ranks if m} & differentials

    def cycles(x, n):  # a Fraction basis of Z_n(x)
        return frac_kernel(frac_matrix(x.diff(n)), ncols=x.rank(n))

    def moves(rows, vecs):  # whether rows send some vector of vecs off 0
        return any(sum(map(mul, row, v)) for row in rows for v in vecs)

    def proj(n):  # s(f)_n -> A_n as rows
        return [[int(i == j) for j in range(s.rank(n))]
                for i in range(a.rank(n))]

    def fmap(n):
        return f.mat(n).entries

    def after_proj(n):  # f o proj on s(f)_n
        return [list(row) + [0] * b.rank(n + 1) for row in fmap(n)]

    # every call ranks [d | v] with v not all zero: once per induced map
    # that moves a cycle (the inclusion, which is injective, one degree
    # further down than the others), and once per node composite that
    # does; the composite at H_n(s) is 0 at chain level
    maps = [bool(cycles(b, n + 1)) for n in range(s.lo - 2, s.hi + 2)] \
        + [moves(proj(n), cycles(s, n)) for n in degrees] \
        + [moves(fmap(n), cycles(a, n)) for n in degrees]
    composites = [moves(after_proj(n), cycles(s, n)) for n in degrees] \
        + [moves(fmap(n), cycles(a, n)) for n in degrees]
    assert len(ranks) == sum(maps) + sum(composites) == 3


def faulted_arrow(monkeypatch, f, fault):
    """The arrow n -> fault(f.mat(n)) from the source of f to its target;
    verify_les_exactness keeps the simple complex of f itself."""
    cone = simple_of_map(f)
    monkeypatch.setattr(homology_mod, "simple_of_map", lambda g: cone)
    return SimpleNamespace(source=f.source, target=f.target,
                           mat=lambda n: fault(f.mat(n)))


def zeroed(m: IntMatrix) -> IntMatrix:
    return IntMatrix.zero(m.rows, m.cols)


def first_row_negated(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.rows, m.cols, tuple(tuple(-x for x in r)
                                           for r in m.entries[:1])
                     + m.entries[1:])


def test_les_reports_are_unchanged_by_ranking_once(monkeypatch):
    """A seeded batch and a faulted instance report what they reported when
    each node ranked its two maps over explicit homology bases."""
    rep = suites.verify_les_batch(40, seed=4711).to_dict()
    del rep["elapsed"]
    assert rep == {"suite": "homology-les", "status": "pass",
                   "params": {"count": 40, "seed": 4711},
                   "counterexample": None, "stats": {"instances": 40}}
    f = next(random_les_instances(34, 1))
    assert verify_les_exactness(faulted_arrow(monkeypatch, f, zeroed)) == {
        "node": "H_1(A)", "dim": 1, "rank_in": 0, "rank_out": 0}


def test_les_matches_the_fraction_route():
    """300 seeded instances and the 60 of the first LES call of input batch
    0 of the benchmark's holdout seed 90210 report what the former route
    over the Fraction homology bases of OracleHomology reports."""
    holdout = les_batch_seeds(90210, 0)[0]
    for f in chain(random_les_instances(65, 300),
                   random_les_instances(holdout, 60)):
        assert verify_les_exactness(f) == oracle_les_exactness(f)


def induces_a_map(g) -> bool:
    """Whether the arrow g sends the cycles of its source to cycles of its
    target and boundaries to boundaries, so that it induces a map on
    homology (tested over the Fraction bases of OracleHomology)."""
    a, hb = g.source, OracleHomology(g.target)
    for n in range(a.lo, a.hi + 1):
        rows = g.mat(n).entries

        def image(v):
            return [sum(map(mul, row, v)) for row in rows]

        cycles = frac_kernel(frac_matrix(a.diff(n)), ncols=a.rank(n))
        boundaries = columns(a.diff(n + 1))
        try:
            for z in cycles:
                hb.express(n, image(z))
            if any(any(hb.express(n, image(x))) for x in boundaries):
                return False
        except ValueError:
            return False
    return True


@pytest.mark.parametrize("fault,reached", [
    (zeroed, {"rank"}), (first_row_negated, {"composite nonzero"})])
def test_les_arrow_faults_match_the_fraction_route(monkeypatch, fault,
                                                   reached):
    """A fault in every matrix of the arrow, with the simple complex of f
    kept, breaks exactness.  Where the faulted arrow still induces a map on
    homology (the zeroed one always does), the report equals the Fraction
    route's, and the faults reach these payloads.  Elsewhere that route has
    no induced map to compare: it maps only a basis of homology, and cannot
    express an image that is no cycle.  On these instances the chain-level
    check, which maps every cycle, reports the fault there too."""
    payloads = set()
    for f in random_les_instances(64, 300):
        g = faulted_arrow(monkeypatch, f, fault)
        bad = verify_les_exactness(g)
        if induces_a_map(g):
            assert bad == oracle_les_exactness(g, simple_of_map(f))
            if bad:
                payloads.add(bad.get("reason", "rank"))
        else:
            assert fault is first_row_negated and bad is not None
    assert payloads == reached


def les_batch_seeds(seed: int, batch: int) -> list[int]:
    """Seeds of the 10 `verify_les_batch` calls of input batch `batch` of the
    benchmark's homology-batch workload: the last 10 of 32 draws, after 12
    cubical and 10 SNF seeds (`homology_seeds` in perfbench/worker.py)."""
    rng = random.Random(f"homology-batch:{seed}:{batch}")
    return [rng.randrange(2 ** 31) for _ in range(32)][22:]


def test_random_chain_map_matches_the_fraction_route():
    """The integer kernel must give exactly the maps, and consume exactly the
    random draws, of the former Fraction route: the benchmark's inputs are
    built from them.  Each seed replays verify_les_batch's 60 draws."""
    seeds = les_batch_seeds(90210, 0) + list(range(7000, 7008))
    draws = 0
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(60):
            a = random_chain_complex(rng)
            b = random_chain_complex(rng)
            replay = random.Random()
            replay.setstate(rng.getstate())
            got = random_chain_map(rng, a, b)
            want = oracle_chain_map(replay, a, b)
            assert got.mats == want.mats
            assert rng.getstate() == replay.getstate()
            draws += 1
    assert draws >= 1000


def random_les_instances(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        a = random_chain_complex(rng)
        b = random_chain_complex(rng)
        yield random_chain_map(rng, a, b)


def test_snf_batch_suite():
    assert verify_snf_batch(30, seed=49, oracle_count=10).passed


def _identity_snf(m):
    # U = V = I, D = m: U m V = D and both transforms are unimodular, but a
    # random 4x4 matrix is not diagonal
    n = IntMatrix.identity(m.rows)
    return n, m, n


def _negated_snf(m):
    # negate the first row of U and of D: still U m V = D with U unimodular,
    # and D is diagonal, but its first entry is negative
    u, d, v = smith_normal_form(m)
    flip = IntMatrix.from_rows([[-1 if i == j == 0 else int(i == j)
                                 for j in range(m.rows)]
                                for i in range(m.rows)])
    return flip * u, flip * d, v


@pytest.mark.parametrize("fake", [_identity_snf, _negated_snf])
def test_snf_batch_rejects_non_diagonal_d(monkeypatch, fake):
    monkeypatch.setattr(suites, "smith_normal_form", fake)
    rep = verify_snf_batch(5, seed=49, oracle_count=0)
    assert not rep.passed
    assert rep.counterexample["reason"] == "D not diagonal"
    assert rep.counterexample["instance"] == 0


# -- JSON interchange ---------------------------------------------------------

def test_complex_json_round_trip():
    rng = random.Random(50)
    for _ in range(5):
        c = random_chain_complex(rng)
        obj = complex_to_json(c)
        again = complex_from_json(json.loads(json.dumps(obj)))
        assert complex_to_json(again) == obj


def test_cubical_json_round_trip():
    rng = random.Random(51)
    for g in (interval_cubical(2), constant_cubical(1),
              conjugate_cubical(rng, function_model_cubical(2, 2))):
        obj = cubical_to_json(g)
        again = cubical_from_json(json.loads(json.dumps(obj)))
        assert cubical_to_json(again) == obj
        assert again.ranks == g.ranks and again.faces == g.faces


@pytest.mark.parametrize("mutate,fragment", [
    (lambda o: o.pop("ranks"), "ranks"),
    (lambda o: o.__setitem__("degrees", [0]), "degrees"),
    (lambda o: o["differentials"].__setitem__("1", [[1, 2, 3]]), "differentials.1"),
])
def test_complex_json_diagnostics(mutate, fragment):
    obj = complex_to_json(two_term_complex(1, [[2]]))
    mutate(obj)
    with pytest.raises(InvalidComplexData) as err:
        complex_from_json(obj)
    assert fragment in str(err.value)


def test_invalid_differential_data_rejected():
    obj = complex_to_json(two_term_complex(1, [[2]]))
    obj["degrees"] = [0, 2]
    obj["ranks"]["2"] = 1
    obj["differentials"]["2"] = [[1]]
    obj["differentials"]["1"] = [[1]]
    with pytest.raises(InvalidComplexData):
        complex_from_json(obj)
