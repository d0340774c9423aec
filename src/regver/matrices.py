"""Exact integer and rational matrix utilities.

Everything here works on arbitrary-precision Python integers (or
Fractions for the rational helpers); there is no floating point anywhere.
The IntMatrix product is row-sparse: it adds a multiple of a right-hand
row only for each nonzero left entry, which suits the mostly 0/+-1 face,
degeneracy and basis matrices of the homology layer.  Results of known
shape skip the constructor's shape check.  Smith normal form tracks both
unimodular transforms and controls entry growth by always pivoting on a
minimal-absolute-value entry.  Ranks and determinants come from one
fraction-free (Bareiss) elimination over the integers; Fraction row
reduction backs only kernels and solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols
                                                 for r in self.entries):
            raise ValueError("inconsistent matrix dimensions")

    @classmethod
    def _of(cls, rows: int, cols: int, entries) -> "IntMatrix":
        """Unchecked constructor for a result whose shape is known by
        construction; outside input goes through the checked one."""
        m = object.__new__(cls)
        d = m.__dict__
        d["rows"] = rows
        d["cols"] = cols
        d["entries"] = entries
        return m

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, tuple(rows))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                                   for i in range(n)))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row-sparse product: row i of the result sums a * other[k] over
        the nonzero entries a = self[i][k], so zero entries cost nothing."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        right = other.entries
        out = []
        for row in self.entries:
            acc = None
            for a, brow in zip(row, right):
                if not a:
                    continue
                if acc is None:
                    acc = brow if a == 1 else tuple([a * y for y in brow])
                elif a == 1:
                    acc = tuple(map(add, acc, brow))
                else:
                    acc = tuple([x + a * y for x, y in zip(acc, brow)])
            out.append((0,) * other.cols if acc is None else acc)
        return IntMatrix._of(self.rows, other.cols, tuple(out))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sum")
        return IntMatrix._of(self.rows, self.cols,
                             tuple(tuple(map(add, r1, r2))
                                   for r1, r2 in zip(self.entries,
                                                     other.entries)))

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix._of(self.rows, self.cols,
                             tuple(tuple([k * a for a in r])
                                   for r in self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(self.cols, self.rows,
                             tuple(tuple(self.entries[i][j]
                                         for i in range(self.rows))
                                   for j in range(self.cols)))

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in r) for r in self.entries)

    def column(self, j: int) -> list[int]:
        return [self.entries[i][j] for i in range(self.rows)]

    def stack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("shape mismatch in stack")
        return IntMatrix._of(self.rows + other.rows, self.cols,
                             self.entries + other.entries)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("shape mismatch in hstack")
        return IntMatrix._of(self.rows, self.cols + other.cols,
                             tuple(a + b for a, b in
                                   zip(self.entries, other.entries)))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def _bareiss(rows) -> tuple[int, int, int]:
    """Fraction-free (Bareiss 1968) forward elimination of integer rows.

    Returns (rank, sign, pivot): the number of pivots, the sign of the row
    swaps made, and the last pivot (1 when there is none).  After each step
    every live entry is a minor of the input on the pivot rows and columns
    so far plus its own row and column, so every division is exact; for a
    square matrix of full rank, sign * pivot is its determinant.  Zero rows
    are dropped up front and whenever they appear, and a column with no
    nonzero entry left is skipped.  The input is not changed.
    """
    a = [row for row in rows if any(row)]
    rank, sign, prev = 0, 1, 1
    while a:
        c = 0
        while not any(row[c] for row in a):  # a holds no zero row
            c += 1
        for i, row in enumerate(a):
            if row[c]:
                break
        prow = a[i]
        if i:
            a[i] = a[0]
            sign = -sign
        p = prow[c]
        c += 1
        tail = prow[c:]
        live = []
        for row in a[1:]:
            x = row[c - 1]
            if x:
                new = [(p * y - x * z) // prev
                       for y, z in zip(row[c:], tail)]
            else:
                new = [p * y // prev for y in row[c:]]
            if any(new):
                live.append(new)
        a = live
        prev = p
        rank += 1
    return rank, sign, prev


def det_rows(rows) -> int:
    """Determinant of a square matrix given as a list of integer rows."""
    r, sign, pivot = _bareiss(rows)
    return sign * pivot if r == len(rows) else 0


def det(m: IntMatrix) -> int:
    """Fraction-free Bareiss determinant."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    return det_rows(m.entries)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U m V = D diagonal, d1 | d2 | ..., U, V unimodular."""
    a = m.to_lists()
    nr, nc = m.rows, m.cols
    u = IntMatrix.identity(nr).to_lists()
    v = IntMatrix.identity(nc).to_lists()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):  # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):  # col_i += q * col_j
        for r in a:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear the pivot column and row; a non-divisible remainder
            # becomes the new, smaller pivot
            moved = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        moved = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        moved = True
            if moved:
                continue
            # pivot must divide the remaining block for the divisor chain
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return (IntMatrix._of(nr, nr, tuple(map(tuple, u))),
            IntMatrix._of(nr, nc, tuple(map(tuple, a))),
            IntMatrix._of(nc, nc, tuple(map(tuple, v))))


def invariant_factors(m: IntMatrix) -> list[int]:
    _, d, _ = smith_normal_form(m)
    out = []
    for k in range(min(m.rows, m.cols)):
        if d.entries[k][k]:
            out.append(d.entries[k][k])
    return out


def invariant_factors_by_minors(m: IntMatrix) -> list[int]:
    """Independent oracle: d_1 ... d_k = gcd of all k x k minors."""
    from itertools import combinations
    from math import gcd

    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                g = gcd(g, det_rows([[m.entries[i][j] for j in cs]
                                     for i in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def rank(m: IntMatrix) -> int:
    """Exact rank by fraction-free elimination over the integers."""
    return _bareiss(m.entries)[0]


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel, as columns; the lattice is saturated."""
    _, d, v = smith_normal_form(m)
    r = sum(1 for k in range(min(m.rows, m.cols)) if d.entries[k][k])
    cols = [v.column(j) for j in range(r, m.cols)]
    if not cols:
        return IntMatrix.zero(m.cols, 0)
    return IntMatrix.from_rows(list(zip(*cols)))


def column_lattice_basis(m: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the lattice generated by the columns of m."""
    a = m.to_lists()
    nr, nc = m.rows, m.cols
    pivot_col = 0
    for row in range(nr):
        if pivot_col >= nc:
            break
        # euclidean reduction across the live columns on this row
        while True:
            live = [j for j in range(pivot_col, nc) if a[row][j]]
            if len(live) <= 1:
                break
            jmin = min(live, key=lambda j: abs(a[row][j]))
            for j in live:
                if j == jmin:
                    continue
                q = a[row][j] // a[row][jmin]
                for i in range(nr):
                    a[i][j] -= q * a[i][jmin]
        live = [j for j in range(pivot_col, nc) if a[row][j]]
        if live:
            j = live[0]
            for i in range(nr):
                a[i][pivot_col], a[i][j] = a[i][j], a[i][pivot_col]
            pivot_col += 1
    cols = [[a[i][j] for i in range(nr)] for j in range(pivot_col)]
    if not cols:
        return IntMatrix.zero(nr, 0)
    return IntMatrix.from_rows(list(zip(*cols)))


# -- exact rational helpers ---------------------------------------------------

def frac_matrix(m: IntMatrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m.entries]


def frac_rref(a: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns (in place on a copy)."""
    a = [row[:] for row in a]
    nr = len(a)
    nc = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, pivots


def frac_rank(a: list[list[Fraction]]) -> int:
    """Exact rank of Fraction or int rows: each row is scaled by the lcm of
    its denominators and the integer rows go to the Bareiss core."""
    rows = []
    for row in a:
        d = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
    return _bareiss(rows)[0]


def frac_kernel(a: list[list[Fraction]], ncols: int | None = None
                ) -> list[list[Fraction]]:
    """Basis vectors of the right kernel.

    ncols must be supplied for a matrix with no rows, whose kernel is the
    whole space.
    """
    if a:
        nc = len(a[0])
    elif ncols is not None:
        nc = ncols
    else:
        return []
    rref, pivots = frac_rref(a)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * nc
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def frac_solve(a: list[list[Fraction]], b: list[Fraction]):
    """One solution of a x = b, or None if inconsistent."""
    if not a:
        return [] if not any(b) else None
    nc = len(a[0])
    aug = [row[:] + [bb] for row, bb in zip(a, b)]
    rref, pivots = frac_rref(aug)
    for row in rref:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots):
        if pc == nc:
            return None
        x[pc] = rref[r][-1]
    return x


def solve_integral(basis: IntMatrix, target: IntMatrix) -> IntMatrix:
    """Express target columns over basis columns with integer coefficients.

    Requires the unique rational solution to be integral (true when the
    basis spans a saturated lattice containing the target, and asserted
    otherwise).
    """
    a = frac_matrix(basis)
    cols = []
    for j in range(target.cols):
        b = [Fraction(x) for x in target.column(j)]
        x = frac_solve(a, b)
        if x is None:
            raise ValueError("target column outside the basis span")
        if any(v.denominator != 1 for v in x):
            raise ValueError("target column not integral over the basis")
        cols.append([int(v) for v in x])
    # basis.cols x target.cols even when either is 0 (zip(*cols) alone
    # would give no rows when there are no target columns)
    entries = tuple(zip(*cols)) if cols else ((),) * basis.cols
    return IntMatrix(basis.cols, target.cols, entries)
