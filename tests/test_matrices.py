"""The integer rank, determinant, kernel, kernel basis, solve and Smith
normal form and the IntMatrix product against independent oracles:
Fraction row reduction, the eager Bareiss elimination, the pivot-loop
Smith normal form and its kernel basis (the `rational_oracle` module),
minors, cofactor expansion and a naive triple loop; the growth of the
Smith form's entries; and the shapes of the matrices built without the
constructor's check."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rational_oracle import (_integral, eager_bareiss, frac_kernel,
                             frac_matrix, frac_solve, pivot_smith_normal_form,
                             random_unimodular_with_inverse, rref_rank,
                             snf_kernel_basis)
from regver import matrices
from regver.homology import simple_of_diagram, simple_of_map
from regver.matrices import (IntMatrix, _bareiss, det, invariant_factors,
                             invariant_factors_by_minors, kernel,
                             kernel_basis, rank, smith_normal_form,
                             solve_integral)
from regver.randomized import (_conjugate, _elementary_operations,
                               function_model_cubical, random_int_matrix)
from regver.suites import two_arrow_hand_instance


def cofactor_det(rows) -> int:
    if not rows:
        return 1
    return sum((-1) ** j * x * cofactor_det([r[:j] + r[j + 1:]
                                             for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def naive_product(a: IntMatrix, b: IntMatrix) -> list[list[int]]:
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] += a.entries[i][k] * b.entries[k][j]
    return out


def int_matrix(rows: int, cols: int, lo: int = -4, hi: int = 4):
    return st.lists(st.lists(st.integers(lo, hi), min_size=cols,
                             max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda r: IntMatrix(rows, cols, tuple(map(tuple, r))))


# Up to 5 x 5 for the pivot-loop Smith form behind `snf_kernel_basis`: its
# entries can explode on larger inputs (one 6 x 7 matrix with entries below
# 25 grows them past two million bits and does not finish).
shapes = st.tuples(st.integers(0, 5), st.integers(0, 5))
int_matrices = shapes.flatmap(lambda s: int_matrix(*s))


@st.composite
def low_rank_matrices(draw):
    """A product (rows x k)(k x cols) with k below both sides."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(rows, cols) - 1))
    return draw(int_matrix(rows, k)) * draw(int_matrix(k, cols))


def check_rank(m: IntMatrix, snf: bool = True):
    r = rank(m.entries)
    assert r == rref_rank(frac_matrix(m))
    if snf:
        assert r == len(invariant_factors(m))


@settings(max_examples=150, deadline=None)
@given(int_matrices)
def test_rank_matches_rref_and_snf(m):
    check_rank(m)


@settings(max_examples=100, deadline=None)
@given(low_rank_matrices())
def test_rank_of_low_rank_products(m):
    check_rank(m)
    assert rank(m.entries) < min(m.rows, m.cols)


@pytest.mark.parametrize("m", [
    IntMatrix.zero(0, 0), IntMatrix.zero(0, 3), IntMatrix.zero(3, 0),
    IntMatrix.zero(3, 4), IntMatrix.from_rows([[0, 0, 5], [0, 0, 7]]),
    IntMatrix.from_rows([[0, 2], [0, 0], [3, 1]]),
])
def test_rank_edge_shapes(m):
    check_rank(m)


def test_rank_seeded_tall_wide_and_low_rank():
    """Up to 9 x 9, against Fraction row reduction only (see shapes)."""
    rng = random.Random(2718)
    for _ in range(200):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        k = rng.randint(0, min(rows, cols))
        left = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)]
                                    for _ in range(rows)])
        right = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(cols)]
                                     for _ in range(k)])
        m = left * right if k else IntMatrix.zero(rows, cols)
        check_rank(m, snf=False)
        assert rank(m.entries) <= k
        check_rank(IntMatrix(cols, rows, tuple(zip(*m.entries))), snf=False)


entries = st.integers(-4, 4)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: int_matrix(n, n, -2, 2)))
def test_det_matches_cofactor_expansion(m):
    rows = m.to_lists()
    assert det(m.entries) == det(rows) == cofactor_det(rows)


def test_det_seeded_with_row_swaps():
    rng = random.Random(1968)
    for n in range(1, 6):
        for _ in range(60):
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)]
                    for _ in range(n)]
            assert det(rows) == cofactor_det(rows)
    with pytest.raises(ValueError):
        det(IntMatrix.zero(2, 3).entries)


# Mostly 0 and +-1, like the face, degeneracy and basis matrices, so that the
# product's branches (skip a 0, add a row for 1, scale it otherwise, and the
# first nonzero entry of a row) all run.
sparse_entries = st.sampled_from((0, 0, 0, 0, 1, 1, -1, 2, -3))


@st.composite
def sparse_pairs(draw):
    n, k, m = (draw(st.integers(0, 9)) for _ in range(3))
    a = [draw(st.lists(sparse_entries, min_size=k, max_size=k))
         for _ in range(n)]
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3)):
        if n:
            a[i] = [0] * k  # whole zero rows
    b = draw(st.lists(st.lists(sparse_entries, min_size=m, max_size=m),
                      min_size=k, max_size=k))
    return IntMatrix(n, k, tuple(map(tuple, a))), \
        IntMatrix(k, m, tuple(map(tuple, b)))


dense_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5),
                        st.integers(0, 5)).flatmap(
    lambda s: st.tuples(int_matrix(s[0], s[1]), int_matrix(s[1], s[2])))


@settings(max_examples=300, deadline=None)
@given(st.one_of(dense_pairs, sparse_pairs()))
def test_product_matches_triple_loop(pair):
    a, b = pair
    p = a * b
    assert (p.rows, p.cols) == (a.rows, b.cols)
    assert p.to_lists() == naive_product(a, b)


@pytest.mark.parametrize("n,m", [(3, 4), (0, 2), (2, 0), (0, 0)])
def test_product_with_zero_inner_dimension(n, m):
    p = IntMatrix.zero(n, 0) * IntMatrix.zero(0, m)
    assert p == IntMatrix.zero(n, m)
    with pytest.raises(ValueError):
        IntMatrix.zero(n, 1) * IntMatrix.zero(2, m)


def test_face_times_unimodular_matches_triple_loop():
    g = function_model_cubical(3, 3)
    rng = random.Random(31)
    for _, face in sorted(g.faces.items()):
        p, pinv = random_unimodular_with_inverse(rng, face.cols)
        for right in (p, pinv):
            assert (face * right).to_lists() == naive_product(face, right)
        assert face * p * pinv == face


def test_conjugation_by_operations_matches_the_products():
    """The operations that `_elementary_operations` draws, applied by
    `_conjugate`, give P m Q^-1 for the P and Q^-1 that
    `random_unimodular_with_inverse` builds from the same draws."""
    rng = random.Random(32)
    for _ in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        m = random_int_matrix(rng, rows, cols)
        seeds = rng.random(), rng.random()
        p, _ = random_unimodular_with_inverse(random.Random(seeds[0]), rows)
        q, qinv = random_unimodular_with_inverse(random.Random(seeds[1]),
                                                 cols)
        assert q * qinv == IntMatrix.identity(cols)
        row_ops = _elementary_operations(random.Random(seeds[0]), rows)
        col_ops = _elementary_operations(random.Random(seeds[1]), cols)
        assert len(row_ops) == (6 if rows > 1 else 0)
        assert _conjugate(m, row_ops, col_ops) == p * m * qinv
        assert _conjugate(m, row_ops, []) == p * m
        assert _conjugate(m, [], col_ops) == m * qinv


def checked(m: IntMatrix) -> IntMatrix:
    """The same matrix through the public constructor's shape check."""
    return IntMatrix(m.rows, m.cols, m.entries)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_unchecked_results_pass_the_shape_check(rows, cols):
    rng = random.Random(rows * 10 + cols)
    a = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)]
                             for _ in range(rows)]) if rows else \
        IntMatrix.zero(0, cols)
    b = IntMatrix.zero(rows, cols)
    at = IntMatrix(cols, rows, tuple(tuple(r[j] for r in a.entries)
                                     for j in range(cols)))
    results = [
        IntMatrix.zero(rows, cols), IntMatrix.identity(rows),
        IntMatrix.identity(cols), a.stack(b),
        a.stack(IntMatrix.zero(0, cols)), a.hstack(b),
        a.hstack(IntMatrix.zero(rows, 0)),
        a * IntMatrix.identity(cols), a * IntMatrix.zero(cols, 2),
        IntMatrix.zero(2, rows) * a, at * a,
    ]
    u, d, v = smith_normal_form(a)
    assert (u.rows, d.rows, d.cols, v.cols) == (rows, rows, cols, cols)
    assert u * a * v == d
    k = kernel_basis(a)
    generated = [random_int_matrix(rng, rows, cols), k,
                 _conjugate(a, _elementary_operations(rng, rows),
                            _elementary_operations(rng, cols)),
                 solve_integral(k, k),
                 solve_integral(k, IntMatrix.zero(cols, 2)),
                 solve_integral(IntMatrix.identity(cols), at)]
    # the simple complexes' differentials, zero-width degrees included
    diag = two_arrow_hand_instance()
    simple = [simple_of_map(diag.g), simple_of_map(diag.r),
              simple_of_diagram(diag)]
    generated += [s.diff(n) for s in simple for n in s.differentials]
    for r in results + [u, d, v] + generated:
        assert r == checked(r)


def test_solve_integral_over_an_empty_basis():
    # an empty basis spans only 0: the solution is 0 x target.cols
    basis = IntMatrix.zero(2, 0)
    assert solve_integral(basis, IntMatrix.zero(2, 3)) == IntMatrix.zero(0, 3)
    with pytest.raises(ValueError, match="outside the basis span"):
        solve_integral(basis, IntMatrix.from_rows([[0], [1]]))
    # and no target columns give basis.cols x 0
    basis = IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert solve_integral(basis, IntMatrix.zero(3, 0)) == IntMatrix.zero(2, 0)
    assert solve_integral(basis, IntMatrix.from_rows([[2], [3], [5]])) == \
        IntMatrix.from_rows([[2], [3]])
    # a target of another height is refused, not truncated
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_integral(basis, IntMatrix.zero(2, 1))


def test_solve_integral_keeps_the_unknowns_of_a_zero_row_system():
    # a 0 x k basis spans only the zero vector of no entries: every one of
    # its k unknowns is free, and the solution is k x target.cols zeros
    assert solve_integral(IntMatrix.zero(0, 2), IntMatrix.zero(0, 1)) == \
        IntMatrix.zero(2, 1)
    assert solve_integral(IntMatrix.zero(0, 3), IntMatrix.zero(0, 0)) == \
        IntMatrix.zero(3, 0)


# -- kernels and solves of the elimination core --------------------------------

@pytest.mark.parametrize("nrows,ncols",
                         [(r, c) for r in range(5) for c in range(5)])
@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_all_zero_rows_need_no_elimination(monkeypatch, nrows, ncols, zero):
    """rank and kernel answer all-zero rows (and no rows, whatever ncols)
    with what the elimination gives for them, without running it.  They
    take integer rows only, so zero rational rows are scaled to integers
    first, as `frac_rank` scales its rows."""
    rows = _integral([[zero] * ncols for _ in range(nrows)])
    echelon, pivots, d, _ = _bareiss(rows, reduce=True)
    assert (echelon, pivots, d) == ([], [], 1)
    units = [[d * int(i == c) for i in range(ncols)] for c in range(ncols)]

    def refuse(*args, **kwargs):
        raise AssertionError("all-zero input reached the elimination")

    monkeypatch.setattr(matrices, "_bareiss", refuse)
    assert rank(rows) == 0
    assert kernel(rows, ncols) == (units, d)
    assert rank(IntMatrix.zero(nrows, ncols).entries) == 0
    assert kernel(IntMatrix.zero(nrows, ncols).entries, ncols) == (units, d)


@st.composite
def integer_systems(draw):
    """(rows, ncols, b_in, b_any): integer rows up to 6 x 6, dense or a
    low-rank product, with a right-hand side in the column span and one
    drawn freely (inconsistent for most tall or low-rank systems)."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if nrows and ncols and draw(st.booleans()):
        k = draw(st.integers(0, min(nrows, ncols) - 1))
        left = [[draw(entries) for _ in range(k)] for _ in range(nrows)]
        right = [[draw(entries) for _ in range(ncols)] for _ in range(k)]
        rows = [[sum((l[t] * right[t][j] for t in range(k)), 0)
                 for j in range(ncols)] for l in left]
    else:
        rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    x = [draw(entries) for _ in range(ncols)]
    b_in = [sum((a * v for a, v in zip(row, x)), 0) for row in rows]
    b_any = [draw(entries) for _ in range(nrows)]
    return rows, ncols, b_in, b_any


def oracle_solution(rows, ncols, b):
    """frac_solve, except that a system with no rows keeps its ncols
    unknowns (frac_solve answers [] there, whatever ncols is)."""
    if not rows:
        return [Fraction(0)] * ncols
    return frac_solve([[Fraction(x) for x in row] for row in rows],
                      [Fraction(v) for v in b])


def over(xs, d):
    assert isinstance(d, int) and d > 0
    assert all(type(v) is int for x in xs for v in x)
    return [[Fraction(v, d) for v in x] for x in xs]


def check_solve_integral(rows, ncols, bs):
    """solve_integral(A, B) is the oracle's solution of every column of B
    when each exists and is integral, and refuses B otherwise: first for a
    column outside the span of A, then for a non-integral solution."""
    basis = IntMatrix(len(rows), ncols, tuple(map(tuple, rows)))
    target = IntMatrix(len(rows), len(bs), tuple(zip(*bs)) if bs else
                       ((),) * len(rows))
    want = [oracle_solution(rows, ncols, b) for b in bs]
    if any(x is None for x in want):
        with pytest.raises(ValueError, match="outside the basis span"):
            solve_integral(basis, target)
    elif any(v.denominator != 1 for x in want for v in x):
        with pytest.raises(ValueError, match="not integral"):
            solve_integral(basis, target)
    else:
        got = solve_integral(basis, target)
        assert got == IntMatrix(ncols, len(bs), tuple(
            tuple(int(v) for v in r) for r in zip(*want)) if bs else
            ((),) * ncols)


@settings(max_examples=200, deadline=None)
@given(integer_systems())
@example(([], 0, [], []))
@example(([], 3, [], []))
@example(([[], []], 0, [0, 0], [0, 1]))
@example(([[0, 0, 0], [0, 0, 0]], 3, [0, 0], [1, 0]))
@example(([[1, 2], [1, 2], [-3, -6]], 2, [2, 2, -6], [1, 2, 3]))
@example(([[2, 1, 1], [1, 0, 3]], 3, [3, 1], [1, 0]))  # last pivot -1
@example(([[2, 0], [0, 3]], 2, [2, 3], [1, 3]))  # b_any solves to 1/2
def test_kernel_and_solve_match_the_fraction_oracle(system):
    rows, ncols, b_in, b_any = system
    basis, d = kernel(rows, ncols)
    assert over(basis, d) == frac_kernel(
        [[Fraction(x) for x in row] for row in rows], ncols)
    assert oracle_solution(rows, ncols, b_in) is not None, \
        "b_in is in the column span by construction"
    for bs in ([b_in], [b_any], [b_in, b_any], []):
        check_solve_integral(rows, ncols, bs)


# -- the lazy Bareiss rows ---------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
    lambda s: st.lists(st.lists(sparse_entries, min_size=s[1],
                                max_size=s[1]),
                       min_size=s[0], max_size=s[0])))
@example([[0, 0, 0], [1, 2, 3], [0, 0, 0]])  # zero rows
@example([[0, 1, 2], [0, 3, 4], [0, 0, 5]])  # skipped columns
@example([[-2, 1], [3, 4]])  # negative pivots
@example([[-3, 1, 1], [1, 2, 0], [2, 1, 1]])
# [0, 3, 1] skips the first step (pivot 2) and becomes the next pivot row,
# so it is brought from level 1 to level 2 first
@example([[2, 1, 0], [0, 3, 1], [1, 0, 5]])
def test_lazy_bareiss_matches_the_eager_elimination(rows):
    """Without reduce only the forward pass's (pivots, d, sign) is built;
    with it the echelon rows too."""
    lazy = _bareiss(rows)
    assert lazy[0] is None and lazy[1:] == eager_bareiss(rows)[1:]
    assert _bareiss(rows, reduce=True) == eager_bareiss(rows, reduce=True)


def eager_det(rows) -> int:
    _, pivots, d, sign = eager_bareiss(rows)
    return sign * d if len(pivots) == len(rows) else 0


def test_det_matches_the_eager_elimination_on_the_snf_batch_inputs():
    """det, which builds no echelon rows, agrees with the eager elimination
    on the determinants the SNF batch takes: of 2,000 seeded transforms U
    and V of 4 x 4 matrices, and of every 1 x 1 to 3 x 3 submatrix of 100
    seeded 3 x 3 matrices, the minors whose gcds the minor oracle takes."""
    rng = random.Random(2025)
    squares = []
    for _ in range(1000):
        u, _, v = smith_normal_form(random_int_matrix(rng, 4, 4))
        squares += [u.entries, v.entries]
    for _ in range(100):
        m = random_int_matrix(rng, 3, 3).entries
        squares += [[[m[i][j] for j in cs] for i in rs] for k in (1, 2, 3)
                    for rs in combinations(range(3), k)
                    for cs in combinations(range(3), k)]
    assert len(squares) == 2000 + 100 * (9 + 9 + 1)
    assert all(det(rows) == eager_det(rows) for rows in squares)


# -- kernel bases by the Hermite core ----------------------------------------

# The 6 x 7 matrix on which the pivot-loop Smith normal form grows its
# entries past millions of bits and does not finish (CHANGES.md).
FOUND_6X7 = IntMatrix.from_rows([
    [-9, 3, 11, 15, -3, 10, 23], [-5, -4, -6, -6, 13, 3, 2],
    [-3, 8, -2, 18, 0, -4, 8], [9, -4, -1, -18, 5, -2, -18],
    [-4, 4, -10, -2, 20, 5, -6], [-12, -10, 5, -2, -9, 2, 24]])


def maximal_minor_gcd(k: IntMatrix) -> int:
    """gcd of the k.cols x k.cols minors of k (1 for no columns): 1 exactly
    when its columns are a basis of a saturated lattice."""
    return gcd(*[det([k.entries[i] for i in rs])
                 for rs in combinations(range(k.rows), k.cols)]) \
        if k.cols else 1


def check_kernel_basis(m: IntMatrix, snf: bool = True):
    """kernel_basis(m) has the nullity of m, m K = 0, and it is saturated,
    so it spans the integer kernel; every entry stays within the Hadamard
    bound of the nonzero rows of m; and, with snf, the pivot-loop Smith-form
    route's basis and this one each solve integrally over the other."""
    k = kernel_basis(m)
    assert (k.rows, k.cols) == (m.cols, m.cols - rank(m.entries))
    assert (m * k).is_zero()
    assert maximal_minor_gcd(k) == 1
    square = prod(sum(x * x for x in r) for r in m.entries if any(r))
    assert all(x * x <= square for r in k.entries for x in r)
    if snf:
        other = snf_kernel_basis(m)
        solve_integral(k, other)  # raises unless integral
        solve_integral(other, k)


def test_kernel_basis_of_the_found_matrix():
    """The pivot-loop Smith form does not finish on it, so no lattice oracle
    but the saturation of K."""
    check_kernel_basis(FOUND_6X7, snf=False)
    assert kernel_basis(FOUND_6X7).cols == 1
    transpose = IntMatrix(7, 6, tuple(zip(*FOUND_6X7.entries)))
    check_kernel_basis(transpose, snf=False)


def test_kernel_basis_of_seeded_low_rank_products():
    """500 products (rows x k)(k x cols) up to 7 x 7 with k below both
    sides.  The pivot-loop Smith-form route is the lattice oracle up to
    5 x 5 only: at 6 and 7 it does not finish on some of these (the growth
    of its entries, CHANGES.md)."""
    rng = random.Random(1979)
    for _ in range(500):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(rows, cols) - 1)
        m = random_int_matrix(rng, rows, k) * random_int_matrix(rng, k, cols)
        check_kernel_basis(m, snf=max(rows, cols) <= 5)


# The pivot-loop Smith-form route is the lattice oracle on the dense
# matrices only: on the low-rank products, whose entries reach 64, it does
# not finish on some (8 in about 470,000 seeded ones up to 5 x 5 ran past
# 1 s).
@settings(max_examples=150, deadline=None)
@given(st.one_of(int_matrices.map(lambda m: (m, True)),
                 low_rank_matrices().map(lambda m: (m, False))))
@example((IntMatrix.zero(0, 3), True))
@example((IntMatrix.zero(3, 0), True))
@example((IntMatrix.zero(2, 2), True))
def test_kernel_basis_matches_the_smith_form_route(case):
    check_kernel_basis(*case)


# -- Smith normal form by the Hermite core -------------------------------------

GROWTH_BOUND = 2 ** 80  # the largest entry on the sets below has 27 bits


@contextmanager
def watchdog(seconds: int):
    """Raise TimeoutError after `seconds`, so that a Smith form that does not
    finish (the pivot loop on FOUND_6X7 ran until killed) fails the test
    instead of hanging the suite; it is no performance bound."""
    def expire(*_):
        raise TimeoutError(f"no Smith form within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def check_smith_form(m: IntMatrix, bound: int = GROWTH_BOUND):
    """U m V = D, U and V unimodular, D diagonal with a positive divisor
    chain, and every entry of U, D and V under the bound."""
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert all(abs(det(t.entries)) == 1 for t in (u, v) if t.rows)
    diag = [d.entries[i][i] for i in range(min(m.rows, m.cols))]
    assert d.entries == tuple(tuple(diag[i] if i == j else 0
                                    for j in range(m.cols))
                              for i in range(m.rows))
    chain = [x for x in diag if x]
    assert diag == chain + [0] * (len(diag) - len(chain))
    assert all(x > 0 for x in chain)
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
    assert all(abs(x) < bound for t in (u, d, v)
               for row in t.entries for x in row)
    return chain


def test_smith_form_of_the_found_matrix():
    transpose = IntMatrix(7, 6, tuple(zip(*FOUND_6X7.entries)))
    with watchdog(60):
        for m in (FOUND_6X7, transpose):
            assert check_smith_form(m) == [1, 1, 1, 1, 1, 612]
            assert invariant_factors(m) == [1, 1, 1, 1, 1, 612]
    assert invariant_factors_by_minors(FOUND_6X7) == [1, 1, 1, 1, 1, 612]


def test_smith_form_entries_stay_bounded():
    """A deterministic growth guard in place of a wall-clock bound: the 500
    seeded low-rank products of the kernel-basis test, and four dense
    matrices of every shape from 1 x 1 to 8 x 8."""
    rng = random.Random(1979)
    cases = []
    for _ in range(500):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(rows, cols) - 1)
        cases.append(random_int_matrix(rng, rows, k)
                     * random_int_matrix(rng, k, cols))
    rng = random.Random(1998)
    cases += [random_int_matrix(rng, rows, cols) for rows in range(1, 9)
              for cols in range(1, 9) for _ in range(4)]
    with watchdog(120):
        for m in cases:
            check_smith_form(m)


def test_smith_form_of_large_seeded_matrices():
    """A 40 x 43 matrix and a 43 x 40 one, each entry of U, D and V within
    the smaller Hadamard bound of m (its rows' or its columns').  Rows go
    into each Hermite form one at a time: the column-by-column order, which
    clears every lower row at each column, took minutes on such shapes."""
    rng = random.Random(1979)
    for rows, cols in ((40, 43), (43, 40)):
        m = random_int_matrix(rng, rows, cols)
        square = min(prod(sum(x * x for x in r) for r in lines if any(r))
                     for lines in (m.entries, zip(*m.entries)))
        with watchdog(60):
            check_smith_form(m, isqrt(square) + 1)


def test_smith_form_matches_the_pivot_loop():
    """The same D as the former pivot loop on seeded 3 x 3 and 4 x 4
    matrices, where that loop finishes."""
    rng = random.Random(2025)
    for size in (3, 4):
        for _ in range(200):
            m = random_int_matrix(rng, size, size)
            assert smith_normal_form(m)[1] == pivot_smith_normal_form(m)[1]
