"""Slow rational oracles for the integer elimination core.

`frac_matrix`, `frac_rref`, `frac_kernel` and `frac_solve` are the
`Fraction` row reduction that backed regver's kernels and solves before
the fraction-free core replaced it, kept unchanged.  `oracle_chain_map`,
`OracleHomology` and `oracle_induced_map` are the former routes of
`randomized.random_chain_map`, `homology.RationalHomology` and
`homology.induced_map` on top of them.  Tests compare the core with these.
"""

from fractions import Fraction
from operator import mul

from regver.homology import ChainMap
from regver.matrices import IntMatrix


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
                bcols = [[Fraction(x) for x in dn1.column(j)]
                         for j in range(dn1.cols)]
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
