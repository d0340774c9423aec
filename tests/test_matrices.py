"""The integer rank, determinant, kernel and solve and the IntMatrix
product against independent oracles: Fraction row reduction (the
`rational_oracle` module), Smith normal form, cofactor expansion and a
naive triple loop; and the shapes of the matrices built without the
constructor's check."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rational_oracle import (frac_kernel, frac_matrix, frac_solve,
                             rref_rank)
from regver.matrices import (IntMatrix, det, det_rows, frac_rank,
                             invariant_factors, kernel, rank,
                             smith_normal_form, solve, solve_integral)
from regver.randomized import (function_model_cubical,
                               random_unimodular_with_inverse)


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


# Up to 5 x 5 for the Smith normal form oracle: its entries can explode on
# larger inputs (one 6 x 7 matrix with entries below 25 grows them past two
# million bits and does not finish).
shapes = st.tuples(st.integers(0, 5), st.integers(0, 5))
int_matrices = shapes.flatmap(lambda s: int_matrix(*s))


@st.composite
def low_rank_matrices(draw):
    """A product (rows x k)(k x cols) with k below both sides."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(rows, cols) - 1))
    return draw(int_matrix(rows, k)) * draw(int_matrix(k, cols))


def check_rank(m: IntMatrix, snf: bool = True):
    r = rank(m)
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
    assert rank(m) < min(m.rows, m.cols)


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
        assert rank(m) <= k
        check_rank(m.transpose(), snf=False)


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
entries = st.one_of(fractions, st.integers(-4, 4))


@settings(max_examples=150, deadline=None)
@given(shapes.flatmap(lambda s: st.lists(
    st.lists(entries, min_size=s[1], max_size=s[1]),
    min_size=s[0], max_size=s[0])))
def test_frac_rank_matches_rref(rows):
    assert frac_rank(rows) == rref_rank(
        [[Fraction(x) for x in row] for row in rows])


def test_frac_rank_scales_each_row_exactly():
    # rows equal up to a rational factor, with coprime denominators
    rows = [[Fraction(1, 3), Fraction(2, 5), 1],
            [Fraction(5, 6), 1, Fraction(5, 2)],
            [Fraction(1, 7), 0, 0]]
    assert frac_rank(rows) == rref_rank(rows) == 2
    assert frac_rank([]) == 0 and frac_rank([[], []]) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: int_matrix(n, n, -2, 2)))
def test_det_matches_cofactor_expansion(m):
    rows = m.to_lists()
    assert det(m) == det_rows(rows) == cofactor_det(rows)


def test_det_seeded_with_row_swaps():
    rng = random.Random(1968)
    for n in range(1, 6):
        for _ in range(60):
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)]
                    for _ in range(n)]
            assert det_rows(rows) == cofactor_det(rows)
    with pytest.raises(ValueError):
        det(IntMatrix.zero(2, 3))


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
    results = [
        IntMatrix.zero(rows, cols), IntMatrix.identity(rows),
        IntMatrix.identity(cols), a + b, a.scale(-3), -a, a.transpose(),
        a.stack(b), a.stack(IntMatrix.zero(0, cols)), a.hstack(b),
        a.hstack(IntMatrix.zero(rows, 0)),
        a * IntMatrix.identity(cols), a * IntMatrix.zero(cols, 2),
        IntMatrix.zero(2, rows) * a, a.transpose() * a,
    ]
    u, d, v = smith_normal_form(a)
    assert (u.rows, d.rows, d.cols, v.cols) == (rows, rows, cols, cols)
    assert u * a * v == d
    for r in results + [u, d, v]:
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


def test_solve_integral_keeps_the_unknowns_of_a_zero_row_system():
    # a 0 x k basis spans only the zero vector of no entries: every one of
    # its k unknowns is free, and the solution is k x target.cols zeros
    assert solve_integral(IntMatrix.zero(0, 2), IntMatrix.zero(0, 1)) == \
        IntMatrix.zero(2, 1)
    assert solve_integral(IntMatrix.zero(0, 3), IntMatrix.zero(0, 0)) == \
        IntMatrix.zero(3, 0)
    assert solve([], 2, [[]]) == ([[0, 0]], 1)


# -- kernels and solves of the elimination core --------------------------------

@st.composite
def rational_systems(draw):
    """(rows, ncols, b_in, b_any): rational rows up to 6 x 6, dense or a
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


@settings(max_examples=200, deadline=None)
@given(rational_systems())
@example(([], 0, [], []))
@example(([], 3, [], []))
@example(([[], []], 0, [0, 0], [0, 1]))
@example(([[0, 0, 0], [0, 0, 0]], 3, [0, 0], [1, 0]))
@example(([[Fraction(1, 2), 1], [1, 2], [Fraction(-3, 2), -3]], 2,
          [1, 2, -3], [1, 2, 3]))
@example(([[2, 1, 1], [1, 0, 3]], 3, [3, 1], [1, 0]))  # last pivot -1
def test_kernel_and_solve_match_the_fraction_oracle(system):
    rows, ncols, b_in, b_any = system
    basis, d = kernel(rows, ncols)
    assert over(basis, d) == frac_kernel(
        [[Fraction(x) for x in row] for row in rows], ncols)
    expected = []
    for b in (b_in, b_any):
        want = oracle_solution(rows, ncols, b)
        got = solve(rows, ncols, [b])
        assert (got is None) == (want is None)
        if want is not None:
            assert over(*got) == [want]
            expected.append(want)
    assert expected, "b_in is in the column span by construction"
    # several right-hand sides at once: None as soon as one is outside
    both = solve(rows, ncols, [b_in, b_any])
    if len(expected) == 2:
        assert over(*both) == expected
    else:
        assert both is None

