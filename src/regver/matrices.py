"""Exact integer and rational matrix utilities.

Everything here works on arbitrary-precision Python integers; there is no
floating point anywhere.  The IntMatrix product is row-sparse: it adds a
multiple of a right-hand row only for each nonzero left entry, which suits
the mostly 0/+-1 face, degeneracy and basis matrices of the homology
layer.  Results of known shape skip the constructor's shape check.  Smith
normal form tracks both unimodular transforms and controls entry growth by
always pivoting on a minimal-absolute-value entry.

One fraction-free (Bareiss) elimination over the integers backs every
other exact computation: ranks and determinants from its forward pass, and
rational kernels and solves from its fraction-free Gauss-Jordan finish,
which gives the reduced row echelon form times one positive integer d.  A
kernel or a solution is therefore returned as integer vectors together
with d.  Rational input (integers or `fractions` values) is scaled row by
row to integers first.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _integral(rows) -> list[list[int]]:
    """Rational rows as integer rows, each scaled by the lcm of its
    denominators, which keeps the rank, the kernel and (with the right-hand
    side in the row) the solutions."""
    out = []
    for row in rows:
        m = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out


def _bareiss(rows, reduce: bool = False):
    """The fraction-free (Bareiss 1968) elimination of integer rows.

    Returns (echelon, pivots, d, sign): one full-width row per pivot, the
    pivot columns in increasing order, the absolute value d of the last
    pivot (1 when there is none) and the sign of the row swaps times the
    sign of that pivot.  Every live entry is a minor of the input on the
    pivot rows and columns so far plus its own row and column, so every
    division is exact; for a square matrix of full rank, sign * d is its
    determinant.  Zero rows are dropped and a column with no nonzero entry
    left is skipped.  The input is not changed.

    With reduce, fraction-free back-substitution (Nakos, Turner and
    Williams 1997) turns the rows into d times the reduced row echelon
    form: row E_k with pivot p_k at column c_k becomes
    X_k = (d E_k - sum_{j>k} E_k[c_j] X_j) / p_k, exactly, as d times the
    inverse of the pivot block is its adjugate up to sign.  Only the
    non-pivot columns need the sum.
    """
    width = len(rows[0]) if rows else 0
    a = [row for row in rows if any(row)]
    found = []  # (first column of the tail, pivot row as that tail)
    pivots = []
    sign, prev, base = 1, 1, 0
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
        found.append((base, prow))
        pivots.append(base + c)
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
        base += c
    echelon = [[0] * b + list(row) for b, row in found]
    if prev < 0:
        sign = -sign
    d = abs(prev)
    if reduce and pivots:
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


def det_rows(rows) -> int:
    """Determinant of a square matrix given as a list of integer rows."""
    _, pivots, d, sign = _bareiss(rows)
    return sign * d if len(pivots) == len(rows) else 0


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
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
    return len(_bareiss(m.entries)[1])


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

def frac_rank(a) -> int:
    """Exact rank of rational rows: each row is scaled by the lcm of its
    denominators and the integer rows go to the Bareiss core."""
    return len(_bareiss(_integral(a))[1])


def pivot_columns(rows) -> list[int]:
    """The columns of integer rows that are not in the span of the columns
    before them: the pivot columns of the echelon form."""
    return _bareiss(rows)[1]


def kernel(rows, ncols: int) -> tuple[list[list[int]], int]:
    """Right kernel of rational rows with ncols columns: (basis, d) with
    d > 0 and one integer vector per free column, in increasing order, equal
    to d times the reduced-echelon basis vector of that column."""
    echelon, pivots, d, _ = _bareiss(_integral(rows), reduce=True)
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


def solve(rows, ncols: int, rhs) -> tuple[list[list[int]], int] | None:
    """Solve a x = b over the rationals for every b in rhs at once.

    a is given by its rational rows and ncols, each b by one entry per row.
    Returns (xs, d) with d > 0, where xs[j] / d solves for rhs[j] with every
    free unknown 0 (so a system with no rows gives ncols zeros), or None
    when some b is outside the column span of a.
    """
    rhs = list(rhs)
    aug = [list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)]
    echelon, pivots, d, _ = _bareiss(_integral(aug), reduce=True)
    if pivots and pivots[-1] >= ncols:
        return None
    xs = [[0] * ncols for _ in rhs]
    for pc, row in zip(pivots, echelon):
        for x, v in zip(xs, row[ncols:]):
            x[pc] = v
    return xs, d


def solve_integral(basis: IntMatrix, target: IntMatrix) -> IntMatrix:
    """Express target columns over basis columns with integer coefficients.

    Requires the unique rational solution to be integral (true when the
    basis spans a saturated lattice containing the target, and asserted
    otherwise).
    """
    sol = solve(basis.entries, basis.cols,
                [target.column(j) for j in range(target.cols)])
    if sol is None:
        raise ValueError("target column outside the basis span")
    xs, d = sol
    if d != 1:
        if any(v % d for x in xs for v in x):
            raise ValueError("target column not integral over the basis")
        xs = [[v // d for v in x] for x in xs]
    # basis.cols x target.cols even when either is 0 (zip(*xs) alone
    # would give no rows when there are no target columns)
    entries = tuple(zip(*xs)) if xs else ((),) * basis.cols
    return IntMatrix(basis.cols, target.cols, entries)
