"""Exact integer matrix utilities.

Everything here works on arbitrary-precision Python integers; there is no
floating point anywhere.  The IntMatrix product is row-sparse: it adds a
multiple of a right-hand row only for each nonzero left entry, which suits
the mostly 0/+-1 face, degeneracy and basis matrices of the homology
layer.  Results of known shape skip the constructor's shape check.  Both
unimodular routines run one Hermite-form core, after Kannan and Bachem
(1979): the Smith normal form alternates the Hermite forms of the matrix
and of its transpose until it is diagonal, and an integer kernel basis
is the transform rows of m^T that end at zero.  The invariant factors
run the Smith loop with no transforms at all.

One fraction-free (Bareiss) elimination over the integers, which updates
its rows lazily, backs every other exact computation: pivot columns, ranks
and determinants from its forward pass, and rational kernels and
integral solves from its fraction-free Gauss-Jordan finish, which gives
the reduced row echelon form times one positive integer d.  A kernel is
therefore returned as integer vectors together with d.  Every routine
takes integers only: `pivot_columns`, `rank`, `det` and `kernel` take
integer rows (an IntMatrix gives its entries), and `solve_integral` takes
two IntMatrix.  `pivot_columns`, `rank` and `kernel` answer rows that are
all zero, or no rows at all, without eliminating: no pivots, and the unit
basis with d = 1, which is what the elimination gives for them.

`from_rows` is the checked constructor, for rows read from outside the
package or written by hand; every computed result, including the identity
(cached, as the matrix is frozen), goes through the unchecked `_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd
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
        """Checked constructor for rows read from outside the package or
        written by hand: converts every entry with int() and checks the
        shape.  Results of known shape go through `_of`."""
        rows = [tuple(int(x) for x in r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, tuple(rows))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    @cache
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

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in r) for r in self.entries)

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


def _bareiss(rows, reduce: bool = False):
    """The fraction-free (Bareiss 1968) elimination of integer rows.

    Returns (echelon, pivots, d, sign): the pivot columns in increasing
    order, the absolute value d of the last pivot (1 when there is none)
    and the sign of the row swaps times the sign of that pivot, all from
    the forward pass; echelon is None, as `det`, `rank` and
    `pivot_columns` read none of it, and with reduce one full-width row
    per pivot (below).  Every live entry is a minor of the input on the
    pivot rows and columns so far plus its own row and column, so every
    division is exact; for a square matrix of full rank, sign * d is its
    determinant.  Zero rows are dropped and a column with no nonzero entry
    left is skipped: one scan down the columns finds the first nonzero
    entry, which gives the pivot column and row together.  The input is
    not changed.

    The rows are updated lazily.  Step k, with pivot p_k, takes a row with
    entry x in the pivot column to (p_k y - x z) / p_{k-1}; when x = 0 that
    is only the rescaling p_k / p_{k-1}, so such a row is left as it is and
    keeps its level, the pivot p_j of its last update (1 before any).  The
    rescalings it skipped telescope to p_{k-1} / p_j, so the next step that
    touches it takes (p_k y - x z) / p_j of its stored entries, and a row
    chosen as pivot row is first brought to the current level, y p_{k-1} /
    p_j.  Either result is the minor that the eager update would give, so
    both divisions are exact and the output is the same.

    With reduce, fraction-free back-substitution (Nakos, Turner and
    Williams 1997) turns the rows into d times the reduced row echelon
    form: row E_k with pivot p_k at column c_k becomes
    X_k = (d E_k - sum_{j>k} E_k[c_j] X_j) / p_k, exactly, as d times the
    inverse of the pivot block is its adjugate up to sign.  Only the
    non-pivot columns need the sum.
    """
    a = [(1, row) for row in rows if any(row)]  # (level, row)
    found = []  # (first column of the tail, pivot row as that tail)
    pivots = []
    sign, prev, base = 1, 1, 0
    while a:
        # the first column with a nonzero entry and its first such row, by
        # one scan down the columns (a holds no zero row)
        c = 0
        while True:
            for i, (level, prow) in enumerate(a):
                if prow[c]:
                    break
            else:
                c += 1
                continue
            break
        if i:
            a[i] = a[0]
            sign = -sign
        if level != prev:
            prow = [y * prev // level for y in prow]
        p = prow[c]
        if reduce:
            found.append((base, prow))
        pivots.append(base + c)
        c += 1
        tail = prow[c:]
        live = []
        for level, row in a[1:]:
            x = row[c - 1]
            if x:
                new = [(p * y - x * z) // level
                       for y, z in zip(row[c:], tail)]
                if any(new):
                    live.append((p, new))
            else:  # 0 up to column c - 1, so nonzero beyond it
                live.append((level, row[c:]))
        a = live
        prev = p
        base += c
    if prev < 0:
        sign = -sign
    d = abs(prev)
    if not reduce:
        return None, pivots, d, sign
    width = len(rows[0]) if rows else 0
    echelon = [[0] * b + list(row) for b, row in found]
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    done = []  # reduced rows below the current one, on the free columns
    for k in range(len(pivots) - 1, -1, -1):
        e = echelon[k]
        acc = [d * e[c] for c in free]
        for j, xj in enumerate(done, k + 1):
            f = e[pivots[j]]
            if f:
                acc = [s - f * x for s, x in zip(acc, xj)]
        p = e[pivots[k]]
        done.insert(0, [s // p for s in acc])
    for k, xk in enumerate(done):
        row = [0] * width
        row[pivots[k]] = d
        for c, x in zip(free, xk):
            row[c] = x
        echelon[k] = row
    return echelon, pivots, d, sign


def det(rows) -> int:
    """Determinant of a square matrix of integer rows, by fraction-free
    (Bareiss) elimination."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant needs a square matrix")
    _, pivots, d, sign = _bareiss(rows)
    return sign * d if len(pivots) == len(rows) else 0


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b), for b != 0."""
    g = gcd(a, b)
    s = pow(a // g, -1, abs(b // g))
    return g, s, (g - s * a) // b


def _hermite(rows: list, width: int) -> int:
    """Bring integer rows [a | T] to row Hermite form in place by unimodular
    row operations; return the number of pivots in a, the first `width`
    columns.  The tails T record the transform.

    The rows go in one at a time (Kannan and Bachem 1979).  A new row is
    cleared at each pivot column in turn by Euclid's division steps
    against that pivot row, and becomes a pivot row at the first column it
    does not clear; a row that clears every column, possible only when
    the tails do not keep the rows independent, is dropped.  A pivot row
    is made positive and reduced (its entries at the later pivot columns
    brought into [0, pivot)) whenever it changes, and all once more at the
    end, which keeps the entries bounded.  The form goes on through the
    tails, so the rows past the pivots of a are in Hermite form too and
    the pivot rows' tails are reduced against them: the form of the whole
    rows is unique.
    """
    cols, done = [], []  # the pivot columns, increasing, and their rows

    def reduced(row, j):  # at the pivot columns from the j-th on
        for k in range(j, len(cols)):
            h = done[k]
            q = row[cols[k]] // h[cols[k]]
            if q:
                row = [b - q * a for a, b in zip(h, row)]
        return row

    for v in rows:
        j = c = 0
        n = len(v)
        while True:
            while c < n and not v[c]:
                c += 1
            if c == n:
                break
            while j < len(cols) and cols[j] < c:
                j += 1
            if j == len(cols) or cols[j] > c:
                if v[c] < 0:
                    v = [-x for x in v]
                done.insert(j, reduced(v, j))
                cols.insert(j, c)
                break
            h = done[j]
            while True:
                q = v[c] // h[c]
                v = [b - q * a for a, b in zip(h, v)]
                if not v[c]:
                    break
                h, v = v, h
            if h is not done[j]:
                if h[c] < 0:
                    h = [-x for x in h]
                done[j] = reduced(h, j + 1)
            j += 1
    for j in range(len(done) - 1):
        done[j] = reduced(done[j], j + 1)
    rows[:] = done
    return sum(c < width for c in cols)


def _smith(entries, width: int, row_tails, col_tails):
    """(d, U, V^T) with d the Smith diagonal d1 | d2 | ... of the matrix
    rows `entries`, `width` columns wide, and U and V^T as lists of rows.

    The transforms ride along as tails: identity tails give U m V = D, and
    empty tails ([()] per row and per column) give d alone, in memory
    linear in the entries, where an identity tail is the square of a
    side.  Row Hermite forms of [a | U] and of the transpose [a^T | V^T]
    alternate until a is diagonal (Kannan and Bachem 1979); a gcd/lcm
    pass over pairs of diagonal entries, by 2 x 2 unimodular operations on
    U and V, then makes the divisor chain.
    """
    rows = [[*x, *e] for x, e in zip(entries, row_tails)]
    other, flipped = col_tails, False
    while True:
        k = _hermite(rows, width)
        if all(row[i] and not any(row[i + 1:width])
               for i, row in enumerate(rows[:k])):
            break
        # [a | T] -> [a^T | other], and T becomes the other transform
        tails = [row[width:] for row in rows]
        rows = [[*col, *t] for col, t in zip(zip(*rows), other)]
        other, width, flipped = tails, len(tails), not flipped
    tails = [row[width:] for row in rows]
    u, vt = map(list, (other, tails) if flipped else (tails, other))
    d = [rows[i][i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            x, y = d[i], d[j]
            if y % x:  # (d_i, d_j) -> (g, lcm)
                g, s, t = _xgcd(x, y)
                x, y = x // g, y // g
                d[i], d[j] = g, x * y * g
                u[i], u[j] = ([s * a + t * b for a, b in zip(u[i], u[j])],
                              [x * b - y * a for a, b in zip(u[i], u[j])])
                vt[i], vt[j] = ([a + b for a, b in zip(vt[i], vt[j])],
                                [s * x * b - t * y * a
                                 for a, b in zip(vt[i], vt[j])])
    return d, u, vt


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U m V = D diagonal, d1 | d2 | ..., U, V unimodular
    (`_smith` with identity tails)."""
    nr, nc = m.rows, m.cols
    d, u, vt = _smith(m.entries, nc, IntMatrix.identity(nr).entries,
                      IntMatrix.identity(nc).entries)
    diag = [(0,) * nc] * nr
    for i, x in enumerate(d):
        diag[i] = (0,) * i + (x,) + (0,) * (nc - i - 1)
    return (IntMatrix._of(nr, nr, tuple(map(tuple, u))),
            IntMatrix._of(nr, nc, tuple(diag)),
            IntMatrix._of(nc, nc, tuple(zip(*vt))))


def invariant_factors(m: IntMatrix) -> list[int]:
    """The nonzero diagonal of the Smith normal form: d1 | d2 | ...  (none,
    with no elimination, for all-zero or no rows), by `_smith` with empty
    tails: no transform is built."""
    if _all_zero(m.entries):
        return []
    return _smith(m.entries, m.cols, [()] * m.rows, [()] * m.cols)[0]


def invariant_factors_by_minors(m: IntMatrix) -> list[int]:
    """Independent oracle: d_1 ... d_k = gcd of all k x k minors."""
    from itertools import combinations

    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                g = gcd(g, det([[m.entries[i][j] for j in cs]
                                for i in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _all_zero(rows) -> bool:
    return not any(map(any, rows))


def pivot_columns(rows) -> list[int]:
    """The pivot columns of integer rows in increasing order, by
    fraction-free elimination (none, with no elimination, for all-zero or
    no rows): the first k columns have rank the number of pivots below k."""
    if _all_zero(rows):
        return []
    return _bareiss(rows)[1]


def rank(rows) -> int:
    """Exact rank of integer rows."""
    return len(pivot_columns(rows))


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel, as columns; the lattice is saturated.

    The row Hermite form of [m^T | I] (`_hermite`) tracks V^T next to the
    columns of m V.  The rows past the rank end at zero on m^T, and as V is
    unimodular their tails, columns of V, are a basis of the kernel.
    """
    nr, nc = m.rows, m.cols
    cols = zip(*m.entries) if nr else [()] * nc
    rows = [[*col, *e]
            for col, e in zip(cols, IntMatrix.identity(nc).entries)]
    tails = [row[nr:] for row in rows[_hermite(rows, nr):]]
    return IntMatrix._of(nc, len(tails),
                         tuple(zip(*tails)) if tails else ((),) * nc)


# -- rational kernels and solves ---------------------------------------------

def kernel(rows, ncols: int) -> tuple[list[list[int]], int]:
    """Right kernel of integer rows with ncols columns: (basis, d) with
    d > 0 and one integer vector per free column, in increasing order, equal
    to d times the reduced-echelon basis vector of that column.  All-zero or
    no rows give the unit basis and d = 1 with no elimination."""
    if _all_zero(rows):
        return [[int(i == c) for i in range(ncols)] for c in range(ncols)], 1
    echelon, pivots, d, _ = _bareiss(rows, reduce=True)
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        vec = [0] * ncols
        vec[c] = d
        for pc, row in zip(pivots, echelon):
            vec[pc] = -row[c]
        basis.append(vec)
    return basis, d


def solve_integral(basis: IntMatrix, target: IntMatrix) -> IntMatrix:
    """Express target columns over basis columns with integer coefficients.

    The rational solution with every free unknown 0 comes from one
    elimination of [basis | target], as d times the reduced row echelon
    form; it must be integral (true when the basis spans a saturated
    lattice containing the target).  Raises ValueError for a target column
    outside the span of the basis or a solution that is not integral.
    """
    if basis.rows != target.rows:
        raise ValueError("shape mismatch in solve")
    ncols = basis.cols
    aug = [a + b for a, b in zip(basis.entries, target.entries)]
    echelon, pivots, d, _ = _bareiss(aug, reduce=True)
    if pivots and pivots[-1] >= ncols:
        raise ValueError("target column outside the basis span")
    xs = [[0] * ncols for _ in range(target.cols)]
    for pc, row in zip(pivots, echelon):
        for x, v in zip(xs, row[ncols:]):
            x[pc] = v
    if d != 1:
        if any(v % d for x in xs for v in x):
            raise ValueError("target column not integral over the basis")
        xs = [[v // d for v in x] for x in xs]
    # basis.cols x target.cols even when either is 0 (zip(*xs) alone
    # would give no rows when there are no target columns)
    entries = tuple(zip(*xs)) if xs else ((),) * ncols
    return IntMatrix._of(ncols, target.cols, entries)
