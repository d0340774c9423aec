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
compared with.
"""

from fractions import Fraction
from operator import mul

from regver.homology import ChainComplex, ChainMap, simple_of_map
from regver.matrices import IntMatrix, _bareiss, _integral
from regver.report import report


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


def oracle_les_exactness(f, s=None) -> dict:
    """The report of `homology.verify_les_exactness(f)`, without `elapsed`,
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
    bad = None
    for name, n, into, out in nodes:
        m_in, m_out = induced(*into), induced(*out)
        dim = h[name].dim(n)
        rank_in, rank_out = rref_rank(m_in), rref_rank(m_out)
        if rank_in + rank_out != dim:
            bad = {"node": f"H_{n}({name})", "dim": dim,
                   "rank_in": rank_in, "rank_out": rank_out}
            break
        if any(sum(map(mul, row, col)) for row in m_out for col in zip(*m_in)):
            bad = {"node": f"H_{n}({name})", "reason": "composite nonzero"}
            break
    rep = report("les-exactness", {"degrees": [s.lo, s.hi]}, bad, 0.0,
                 {"dims": {str(n): [h["A"].dim(n), h["B"].dim(n),
                                    h["S"].dim(n)]
                           for n in range(s.lo, s.hi + 1)}}).to_dict()
    del rep["elapsed"]
    return rep


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


def translate(c: ChainComplex, k: int) -> ChainComplex:
    """Shift degrees by k and scale the differential by (-1)^k."""
    ranks = {n + k: c.rank(n) for n in range(c.lo, c.hi + 1)}
    sign = (-1) ** k
    diffs = {n + k: c.diff(n).scale(sign) for n in c.differentials}
    return ChainComplex(c.lo + k, c.hi + k, ranks, diffs)
