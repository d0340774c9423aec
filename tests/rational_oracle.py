"""Slow rational oracles for the integer elimination core.

`frac_matrix`, `frac_rref`, `frac_kernel` and `frac_solve` are the
`Fraction` row reduction that backed regver's kernels and solves before
the fraction-free core replaced it, kept unchanged.  `oracle_chain_map`
is the former route of `randomized.random_chain_map` on top of them;
`OracleHomology` (rational homology bases) and `oracle_induced_map` (the
matrix of an induced map over those bases) are the former route of the
long-exact-sequence check, which `oracle_les_exactness` walks node by
node.  Tests compare the core with these.
`frac_rank` and `column_lattice_basis` are former public helpers of
`regver.matrices` that no suite reached, kept unchanged as the oracle of
the normalized/degenerate splitting test.  `translate` (formerly
`regver.homology`) is the reference the two-arrow simple complex is
compared with.  `_integral` (formerly `regver.matrices`) scales rational
rows to integer ones for `frac_rank`, `columns` (formerly
`IntMatrix.column`) lists a matrix's columns.
`RationalPoly` with `verify_alternating_binomial` and
`verify_odd_binomial_poly` (formerly `regver.combinatorics`) and
`oracle_binomial` (formerly `cli.run_binomial`) are the former `binomial`
suite, a sparse `Fraction` polynomial expanded by repeated
multiplication, kept unchanged; `poly_coeff` and `poly_degree` (formerly
methods of `RationalPoly`) read its coefficients.
`eager_bareiss`, `snf_kernel_basis`, `two_rank_decomposition` and
`random_unimodular_with_inverse` with the two `product_conjugate_*`
helpers are the former routes of the lazy Bareiss rows, of
`kernel_basis`, of `homology.decomposition_check` and of the conjugations
in `regver.randomized`.  `former_int_matrix`,
`former_elementary_operations` and `former_random_cubical_group` draw
by `randint`, `choice` and `sample`, as `regver.randomized` drew before
its draws became index arithmetic on `getrandbits`; so do
`random_unimodular_with_inverse`, `block_chain_complex` and
`oracle_chain_map`.  `conjugate_complex` (formerly
`regver.randomized`) changes the bases of a complex by elementary
operations; `block_chain_complex` with `former_random_chain_complex` is
the former route of `randomized.random_chain_complex`, which validated the
block complex before its change of basis.  `scaled` (formerly
`IntMatrix.scale`) and `signed_face_sum`, the face sum entry by entry,
are the former route of the differentials of the associated and
normalized cubical complexes.  `pivot_smith_normal_form` is the former
`matrices.smith_normal_form`, the pivot loop that the Hermite-form core
replaced; `snf_kernel_basis` reads it, so the kernel-lattice oracle runs
none of the code it checks.  `former_function_model_cubical` and
`former_interval_cubical` are the former routes of the two cubical models
of `regver.randomized`, with cells as word tuples and as strings; the
base models of `former_random_cubical_group` come from them.
"""

import math
from fractions import Fraction
from math import lcm
from operator import mul

from regver.homology import (ChainComplex, ChainMap, CubicalGroup,
                             degenerate_generators, simple_of_map)
from regver.matrices import IntMatrix, _bareiss, rank
from regver.randomized import (COMPLEX_DEGREES, MATRIX_ENTRY_RANGE,
                               MAX_PIECES, _conjugate,
                               _elementary_operations, constant_cubical)
from regver.report import Report


def columns(m: IntMatrix) -> list[list[int]]:
    """The columns of m as lists (formerly `IntMatrix.column`)."""
    return [[row[j] for row in m.entries] for j in range(m.cols)]


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


def rref_rank(rows) -> int:
    return len(frac_rref(rows)[1])


def oracle_chain_map(rng, a, b) -> ChainMap:
    """`random_chain_map` by a Fraction kernel: same draws from rng."""
    degrees = list(range(min(a.lo, b.lo), max(a.hi, b.hi) + 1))
    var_index = {}
    nvars = 0
    for n in degrees:
        for i in range(b.rank(n)):
            for j in range(a.rank(n)):
                var_index[(n, i, j)] = nvars
                nvars += 1
    equations = []
    for n in degrees[1:]:
        da, db = a.diff(n), b.diff(n)
        for i in range(b.rank(n - 1)):
            for j in range(a.rank(n)):
                row = [Fraction(0)] * nvars
                # (f_{n-1} dA)_{ij} - (dB f_n)_{ij} = 0
                for k in range(a.rank(n - 1)):
                    row[var_index[(n - 1, i, k)]] += Fraction(da.entries[k][j])
                for k in range(b.rank(n)):
                    row[var_index[(n, k, j)]] -= Fraction(db.entries[i][k])
                if any(row):
                    equations.append(row)
    if nvars == 0:
        return ChainMap(a, b, {})
    if equations:
        basis = frac_kernel(equations)
    else:
        basis = [[Fraction(1) if k == v else Fraction(0) for k in range(nvars)]
                 for v in range(nvars)]
    sol = [Fraction(0)] * nvars
    for vec in basis:
        c = rng.randint(-2, 2)
        if c:
            sol = [s + c * v for s, v in zip(sol, vec)]
    denom = 1
    for v in sol:
        denom = denom * v.denominator // _gcd(denom, v.denominator)
    ints = [int(v * denom) for v in sol]
    mats = {}
    for n in degrees:
        if b.rank(n) and a.rank(n):
            mats[n] = IntMatrix.from_rows(
                [[ints[var_index[(n, i, j)]] for j in range(a.rank(n))]
                 for i in range(b.rank(n))])
    return ChainMap(a, b, mats)


def _gcd(x, y):
    while y:
        x, y = y, x % y
    return abs(x) or 1


class OracleHomology:
    """Fraction cycle representatives, chosen by re-ranking span + [z]."""

    def __init__(self, cx):
        self.cx = cx
        self.reps = {}
        self.boundary_cols = {}
        for n in range(cx.lo, cx.hi + 1):
            rk = cx.rank(n)
            cycles = frac_kernel(frac_matrix(cx.diff(n)), ncols=rk) if rk else []
            if n < cx.hi:
                dn1 = cx.diff(n + 1)
                bcols = [[Fraction(x) for x in col] for col in columns(dn1)]
            else:
                bcols = []
            self.boundary_cols[n] = bcols
            chosen = []
            span = [list(b) for b in bcols]
            base_rank = rref_rank(span) if span else 0
            for z in cycles:
                trial = span + [list(z)]
                r = rref_rank(trial)
                if r > base_rank:
                    chosen.append(z)
                    span = trial
                    base_rank = r
            self.reps[n] = chosen

    def dim(self, n):
        return len(self.reps.get(n, []))

    def express(self, n, vec):
        reps = self.reps.get(n, [])
        bcols = self.boundary_cols.get(n, [])
        if not reps and not bcols:
            if any(vec):
                raise ValueError("nonzero class in zero homology")
            return []
        cols = [list(b) for b in bcols] + [list(r) for r in reps]
        a = [list(row) for row in zip(*cols)] if cols else []
        x = frac_solve(a, list(vec))
        if x is None:
            raise ValueError("vector is not a cycle class")
        return x[len(bcols):]


def oracle_induced_map(hsrc, hdst, mat_for_degree, n, shift=0):
    """Fraction matrix of the induced map over the oracle's bases."""
    reps = hsrc.reps.get(n + shift, [])
    m = mat_for_degree(n) if reps else None
    cols = []
    for repv in reps:
        img = [sum(map(mul, row, repv)) for row in m.entries]
        cols.append(hdst.express(n, img))
    return [[cols[j][i] for j in range(len(cols))] for i in range(hdst.dim(n))]


def oracle_les_exactness(f, s=None) -> dict | None:
    """The counterexample of `homology.verify_les_exactness(f)`, or None,
    by its former route: induced maps over the `OracleHomology` bases of
    A, B and their simple complex s (that of f unless given), ranks by
    `rref_rank` and composites as products of Fraction matrices, node by
    node in the same order."""
    a, b = f.source, f.target
    s = simple_of_map(f) if s is None else s
    h = {"A": OracleHomology(a), "B": OracleHomology(b),
         "S": OracleHomology(s)}

    def incl(n):  # B_{n+1} -> s_n, b -> (0, b)
        return IntMatrix.zero(a.rank(n), b.rank(n + 1)).stack(
            IntMatrix.identity(b.rank(n + 1)))

    def proj(n):  # s_n -> A_n
        return IntMatrix.identity(a.rank(n)).hstack(
            IntMatrix.zero(a.rank(n), b.rank(n + 1)))

    arrows = {"incl": ("B", "S", incl, 1), "proj": ("S", "A", proj, 0),
              "f": ("A", "B", f.mat, 0)}

    def induced(name, n):
        src, dst, mat, shift = arrows[name]
        return oracle_induced_map(h[src], h[dst], mat, n, shift)

    nodes = ((name, n, into, out) for n in range(s.lo - 1, s.hi + 2)
             for name, into, out in (("S", ("incl", n), ("proj", n)),
                                     ("A", ("proj", n), ("f", n)),
                                     ("B", ("f", n), ("incl", n - 1))))
    for name, n, into, out in nodes:
        m_in, m_out = induced(*into), induced(*out)
        dim = h[name].dim(n)
        rank_in, rank_out = rref_rank(m_in), rref_rank(m_out)
        if rank_in + rank_out != dim:
            return {"node": f"H_{n}({name})", "dim": dim,
                    "rank_in": rank_in, "rank_out": rank_out}
        if any(sum(map(mul, row, col)) for row in m_out for col in zip(*m_in)):
            return {"node": f"H_{n}({name})", "reason": "composite nonzero"}
    return None


def _integral(rows) -> list[list[int]]:
    """Rational rows as integer rows, each scaled by the lcm of its
    denominators, which keeps the rank and the kernel."""
    out = []
    for row in rows:
        m = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out


def frac_rank(a) -> int:
    """Exact rank of rational rows: each row is scaled by the lcm of its
    denominators and the integer rows go to the Bareiss core."""
    return len(_bareiss(_integral(a))[1])


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


def verify_alternating_binomial(n: int) -> Report:
    """Check that sum_k (-1)^k C(n,k) is 1 for n = 0 and 0 for n > 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    total = sum((-1) ** k * math.comb(n, k) for k in range(n + 1))
    expected = 1 if n == 0 else 0
    bad = None
    if total != expected:
        bad = {"n": n, "sum": total, "expected": expected}
    return Report("alternating-binomial", {"n": n}, bad,
                  {"sum": total})


class RationalPoly:
    """Sparse univariate polynomial over the rationals.

    Zero coefficients are never stored, so equality is map equality.  An
    integral coefficient is stored as an ``int``, any other as a
    ``Fraction``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {}
        for k, c in dict(coeffs).items():
            if k < 0:
                raise ValueError("exponents must be non-negative")
            if not isinstance(c, int):
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c:
                self.coeffs[k] = c

    @classmethod
    def constant(cls, c) -> "RationalPoly":
        return cls({0: c})

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls({1: 1})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return RationalPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalPoly({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly({k: c * other for k, c in self.coeffs.items()})
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = RationalPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "RationalPoly(0)"
        parts = [f"{c}*x^{k}" for k, c in sorted(self.coeffs.items())]
        return "RationalPoly(" + " + ".join(parts) + ")"


def verify_odd_binomial_poly(p: int) -> Report:
    """Check ((1+x)^(p+1) - (1-x)^(p+1))/2 == sum_j C(p+1,2j+1) x^(2j+1).

    The left side is expanded by repeated polynomial multiplication, the
    right side assembled directly from binomial coefficients, so the two
    routes are independent.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    x = RationalPoly.x()
    one = RationalPoly.constant(1)
    lhs = ((one + x) ** (p + 1) - (one - x) ** (p + 1)) * Fraction(1, 2)
    rhs = RationalPoly(
        {2 * j + 1: math.comb(p + 1, 2 * j + 1) for j in range(p // 2 + 1)}
    )
    bad = None
    if lhs != rhs:
        diff = lhs - rhs
        bad = {"p": p, "difference": {str(k): str(c) for k, c in diff.coeffs.items()}}
    return Report("odd-binomial-poly", {"p": p}, bad,
                  {"terms": len(lhs.coeffs)})


def oracle_binomial(max_n: int):
    """The former `binomial` suite (formerly `cli.run_binomial`): one
    report per n, then one per p, on RationalPoly."""
    bad = None
    for n in range(max_n + 1):
        rep = verify_alternating_binomial(n)
        if not rep.passed:
            bad = {"identity": "alternating-sum", **rep.counterexample}
            break
    if bad is None:
        for p in range(max_n + 1):
            rep = verify_odd_binomial_poly(p)
            if not rep.passed:
                bad = {"identity": "odd-poly", **rep.counterexample}
                break
    return Report("binomial", {"max_n": max_n}, bad,
                  {"alternating_checked": max_n + 1,
                   "poly_checked": max_n + 1})


def poly_coeff(p, k: int):
    """The coefficient of x^k in a RationalPoly (0 when it is absent)."""
    return p.coeffs.get(k, 0)


def poly_degree(p) -> int:
    """The degree of a RationalPoly; -1 for the zero polynomial."""
    return max(p.coeffs, default=-1)


def scaled(m: IntMatrix, k: int) -> IntMatrix:
    """k m (formerly `IntMatrix.scale`)."""
    return IntMatrix._of(m.rows, m.cols, tuple(tuple([k * a for a in r])
                                               for r in m.entries))


def translate(c: ChainComplex, k: int) -> ChainComplex:
    """Shift degrees by k and scale the differential by (-1)^k."""
    ranks = {n + k: c.rank(n) for n in range(c.lo, c.hi + 1)}
    sign = (-1) ** k
    diffs = {n + k: scaled(c.diff(n), sign) for n in c.differentials}
    return ChainComplex(c.lo + k, c.hi + k, ranks, diffs)


def signed_face_sum(c: CubicalGroup, n: int, js) -> IntMatrix:
    """The sum of (-1)^(i+j) delta_i^j over 1 <= i <= n and j in js, entry
    by entry: the sum that `homology._face_sum` forms row by row, and that
    the associated and normalized complexes formerly built as a chain of
    scaled faces added to the zero matrix."""
    out = [[0] * c.rank(n) for _ in range(c.rank(n - 1))]
    for i in range(1, n + 1):
        for j in js:
            for r, row in enumerate(c.face(n, i, j).entries):
                for k, x in enumerate(row):
                    out[r][k] += (-1) ** (i + j) * x
    return IntMatrix(c.rank(n - 1), c.rank(n), tuple(map(tuple, out)))


def eager_bareiss(rows, reduce: bool = False):
    """The former, eager form of `matrices._bareiss`: every row left
    below a pivot is updated at every step, a row with 0 in the pivot column
    by the rescaling p_k / p_{k-1} alone.  Same arguments and result."""
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


def pivot_smith_normal_form(m: IntMatrix
                            ) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """The former `matrices.smith_normal_form`: (U, D, V) with U m V = D
    diagonal, d1 | d2 | ..., U, V unimodular, by a pivot loop on a
    minimal-absolute-value entry that tracks both transforms.  Its entries
    can grow without bound (FOUND_6X7 in test_matrices does not finish)."""
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


def snf_kernel_basis(m: IntMatrix) -> IntMatrix:
    """The former route of `matrices.kernel_basis`: the columns of V past
    the rank, from the pivot-loop Smith normal form U m V = D."""
    _, d, v = pivot_smith_normal_form(m)
    r = sum(1 for k in range(min(m.rows, m.cols)) if d.entries[k][k])
    return IntMatrix._of(m.cols, m.cols - r,
                         tuple(row[r:] for row in v.entries))


def former_int_matrix(rng, rows: int, cols: int) -> IntMatrix:
    """`randomized.random_int_matrix` by `rng.randint`, its former draws."""
    lo, hi = MATRIX_ENTRY_RANGE
    return IntMatrix._of(rows, cols, tuple(
        tuple([rng.randint(lo, hi) for _ in range(cols)])
        for _ in range(rows)))


def former_elementary_operations(rng, n: int) -> list:
    """`randomized._elementary_operations` by `rng.choice` and
    `rng.sample`, its former draws."""
    ops = []
    for _ in range(6 if n > 1 else 0):
        kind = rng.choice(("add", "swap", "neg"))
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2)) if kind == "add" else 0
        ops.append((kind, i, j, q))
    return ops


def former_random_cubical_group(rng) -> CubicalGroup:
    """`randomized.random_cubical_group` by `rng.randint` and `rng.choice`,
    conjugated by the products of `product_conjugate_cubical`: its former
    route, draw for draw.  The base models are built anew, by their former
    routes."""
    kind = rng.random()
    top = rng.randint(1, 3)
    if kind < 0.5:
        base = former_function_model_cubical(rng.choice((2, 2, 3)), top)
    elif kind < 0.8:
        base = former_interval_cubical(top)
    else:
        base = constant_cubical(top)
    return product_conjugate_cubical(rng, base)


def former_function_model_cubical(point_count: int,
                                   top: int) -> CubicalGroup:
    """`randomized.function_model_cubical` by its former route: words as
    tuples, found in a dict per level.  Integer-valued functions on tuples
    over a pointed set {0..s-1}.

    The points 0 and 1 are the marked endpoints; faces precompose with the
    insertion of a marked point and degeneracies with a slot deletion.
    """
    if point_count < 2:
        raise ValueError("need at least the two marked points")
    s = point_count

    def words(n):
        out = [()]
        for _ in range(n):
            out = [w + (x,) for w in out for x in range(s)]
        return out

    index = {n: {w: k for k, w in enumerate(words(n))} for n in range(top + 2)}
    ranks = {n: s ** n for n in range(top + 1)}
    faces = {}
    degens = {}
    for n in range(1, top + 1):
        for i in range(1, n + 1):
            for j in (0, 1):
                # entry [v][w] = 1 iff w is v with the point j inserted at slot i
                mat = [[0] * ranks[n] for _ in range(ranks[n - 1])]
                for v, rowk in index[n - 1].items():
                    inserted = v[:i - 1] + (j,) + v[i - 1:]
                    mat[rowk][index[n][inserted]] = 1
                faces[(n, i, j)] = IntMatrix._of(ranks[n - 1], ranks[n],
                                                 tuple(map(tuple, mat)))
    for n in range(0, top):
        for i in range(1, n + 2):
            mat = [[0] * ranks[n] for _ in range(ranks[n + 1])]
            for v, rowk in index[n + 1].items():
                deleted = v[:i - 1] + v[i:]
                mat[rowk][index[n][deleted]] = 1
            degens[(n, i)] = IntMatrix._of(ranks[n + 1], ranks[n],
                                           tuple(map(tuple, mat)))
    return CubicalGroup(top, ranks, faces, degens)


def former_interval_cubical(top: int) -> CubicalGroup:
    """`randomized.interval_cubical` by its former route: cells as the
    strings "c0", "c1" and "pk", found by `list.index`.  Free cubical
    abelian group on a single 1-cube.

    Level n is free on the two constant cells and the n projection cells;
    faces evaluate a projection at a marked endpoint when it points at the
    inserted slot.
    """
    def basis(n):
        return ["c0", "c1"] + [f"p{k}" for k in range(1, n + 1)]

    ranks = {n: n + 2 for n in range(top + 1)}
    faces = {}
    degens = {}
    for n in range(1, top + 1):
        src, dst = basis(n), basis(n - 1)
        for i in range(1, n + 1):
            for j in (0, 1):
                mat = [[0] * len(src) for _ in range(len(dst))]
                for col, cell in enumerate(src):
                    if cell in ("c0", "c1"):
                        image = cell
                    else:
                        k = int(cell[1:])
                        if k == i:
                            image = f"c{j}"
                        elif k < i:
                            image = f"p{k}"
                        else:
                            image = f"p{k - 1}"
                    mat[dst.index(image)][col] = 1
                faces[(n, i, j)] = IntMatrix._of(len(dst), len(src),
                                                 tuple(map(tuple, mat)))
    for n in range(0, top):
        src, dst = basis(n), basis(n + 1)
        for i in range(1, n + 2):
            mat = [[0] * len(src) for _ in range(len(dst))]
            for col, cell in enumerate(src):
                if cell in ("c0", "c1"):
                    image = cell
                else:
                    k = int(cell[1:])
                    image = f"p{k}" if k < i else f"p{k + 1}"
                mat[dst.index(image)][col] = 1
            degens[(n, i)] = IntMatrix._of(len(dst), len(src),
                                           tuple(map(tuple, mat)))
    return CubicalGroup(top, ranks, faces, degens)


def random_unimodular_with_inverse(rng, n: int, steps: int = 6):
    """A random product of elementary matrices together with its inverse:
    the former route of the conjugations in `regver.randomized`, with the
    same draws from rng."""
    p = IntMatrix.identity(n).to_lists()
    pinv = IntMatrix.identity(n).to_lists()
    for _ in range(steps if n > 1 else 0):
        op = rng.choice(("add", "swap", "neg"))
        i, j = rng.sample(range(n), 2)
        if op == "add":
            q = rng.choice((-2, -1, 1, 2))
            for col in range(n):
                p[i][col] += q * p[j][col]
            # inverse op applied on the right of pinv
            for row in range(n):
                pinv[row][j] -= q * pinv[row][i]
        elif op == "swap":
            p[i], p[j] = p[j], p[i]
            for row in range(n):
                pinv[row][i], pinv[row][j] = pinv[row][j], pinv[row][i]
        else:
            p[i] = [-x for x in p[i]]
            for row in range(n):
                pinv[row][i] = -pinv[row][i]
    return (IntMatrix._of(n, n, tuple(map(tuple, p))),
            IntMatrix._of(n, n, tuple(map(tuple, pinv))))


def conjugate_complex(rng, cx: ChainComplex) -> ChainComplex:
    """The former `randomized.conjugate_complex`: a random change of basis
    of every group of cx, by the elementary operations of `_conjugate`."""
    ops = {n: _elementary_operations(rng, cx.rank(n))
           for n in range(cx.lo, cx.hi + 1)}
    diffs = {n: _conjugate(cx.diff(n), ops[n - 1], ops[n])
             for n in range(cx.lo + 1, cx.hi + 1)}
    return ChainComplex(cx.lo, cx.hi, dict(cx.ranks), diffs)


def block_chain_complex(rng) -> ChainComplex:
    """The direct sum of elementary pieces that
    `randomized.random_chain_complex` draws, before its change of basis,
    built and validated as a complex of its own; same draws.  A piece at
    degree n is a lone summand, or a multiplication from a new summand of
    degree n to a new one of degree n - 1."""
    lo, hi = COMPLEX_DEGREES
    ranks = {n: 0 for n in range(lo, hi + 1)}
    arrows = []  # (degree, source index, target index, multiplier)
    for _ in range(rng.randint(1, MAX_PIECES)):
        n = rng.randint(lo, hi)
        if n > lo and rng.random() < 0.7:
            arrows.append((n, ranks[n], ranks[n - 1],
                           rng.choice((1, 1, 2, 3))))
            ranks[n - 1] += 1
        ranks[n] += 1
    diffs = {}
    for n in range(lo + 1, hi + 1):
        rows = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for deg, col, row, mult in arrows:
            if deg == n:
                rows[row][col] = mult
        diffs[n] = IntMatrix(ranks[n - 1], ranks[n], tuple(map(tuple, rows)))
    return ChainComplex(lo, hi, ranks, diffs)


def former_random_chain_complex(rng) -> ChainComplex:
    """The former route of `randomized.random_chain_complex`, same draws:
    the block complex, validated, then changed by the products of
    `product_conjugate_complex` and validated again."""
    return product_conjugate_complex(rng, block_chain_complex(rng))


def product_conjugate_complex(rng, cx: ChainComplex) -> ChainComplex:
    """`randomized.conjugate_complex` by matrix products, same draws."""
    trans = {n: random_unimodular_with_inverse(rng, cx.rank(n))
             for n in range(cx.lo, cx.hi + 1)}
    diffs = {n: trans[n - 1][0] * cx.diff(n) * trans[n][1]
             for n in range(cx.lo + 1, cx.hi + 1)}
    return ChainComplex(cx.lo, cx.hi, dict(cx.ranks), diffs)


def product_conjugate_cubical(rng, c: CubicalGroup) -> CubicalGroup:
    """`randomized.conjugate_cubical` by matrix products, same draws."""
    trans = {n: random_unimodular_with_inverse(rng, c.rank(n))
             for n in range(c.top + 1)}
    faces = {(n, i, j): trans[n - 1][0] * m * trans[n][1]
             for (n, i, j), m in c.faces.items()}
    degens = {(n, i): trans[n + 1][0] * m * trans[n][1]
              for (n, i), m in c.degeneracies.items()}
    return CubicalGroup(c.top, dict(c.ranks), faces, degens)


def two_rank_decomposition(c: CubicalGroup, bases: dict):
    """The counterexample of `homology.decomposition_check(c, bases)`, or
    None, by its former route: rank D_n and the joint rank of
    [NC_n | D_n] from two eliminations per level."""
    for n in range(c.top + 1):
        nc, dg = bases[n], degenerate_generators(c, n)
        rank_d = rank(dg.entries)
        joint = rank(nc.hstack(dg).entries)
        if nc.cols + rank_d != c.rank(n) or joint != nc.cols + rank_d:
            return {"level": n, "rank": c.rank(n), "normalized": nc.cols,
                    "degenerate": rank_d, "joint": joint}
    return None
