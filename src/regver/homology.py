"""Finite homological algebra over the integers.

Chain complexes are contiguous families of free abelian groups with
integer differential matrices (d_n : degree n -> n-1).  Cubical abelian
groups carry face and degeneracy matrices; the two identities the
constructions rely on (delta_i^j sigma_i = id and d^2 = 0 on the
associated complex) are validated numerically at construction time.
Homology is computed through Smith normal form.  Ranks, and the rational
kernels and solves behind the cycle bases and induced maps of the long
exact sequence, come from the one fraction-free integer elimination of
`matrices`, so no rational number is ever formed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import mul
from time import perf_counter

from .matrices import (IntMatrix, invariant_factors, kernel, kernel_basis,
                       pivot_columns, rank, solve, solve_integral)
from .report import Report, report

# Widest `degrees: [lo, hi]` a complex file may declare: every degree in the
# range is materialized and reported, so an unbounded span costs time and
# memory out of all proportion to the size of the file.
MAX_DEGREE_SPAN = 1000


class InvalidComplexData(ValueError):
    pass


class ComplexFormatError(ValueError):
    """Malformed complex/cubical JSON; message names the offending field."""


@dataclass
class ChainComplex:
    lo: int
    hi: int
    ranks: dict
    differentials: dict  # n -> IntMatrix (degree n -> n-1), for lo < n <= hi

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidComplexData("empty degree range")
        for n in range(self.lo, self.hi + 1):
            self.ranks.setdefault(n, 0)
        self.validate()

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def diff(self, n: int) -> IntMatrix:
        """The differential out of degree n (zero matrix by default)."""
        m = self.differentials.get(n)
        if m is None:
            return IntMatrix.zero(self.rank(n - 1), self.rank(n))
        return m

    def validate(self):
        for n, m in self.differentials.items():
            if not (self.lo < n <= self.hi):
                raise InvalidComplexData(f"differential at degree {n} out of range")
            if (m.rows, m.cols) != (self.rank(n - 1), self.rank(n)):
                raise InvalidComplexData(
                    f"differential at degree {n} has shape {m.rows}x{m.cols}, "
                    f"expected {self.rank(n - 1)}x{self.rank(n)}")
        # an absent differential is the zero map: no product to check
        for n in range(self.lo + 2, self.hi + 1):
            below = self.differentials.get(n - 1)
            above = self.differentials.get(n)
            if below is not None and above is not None \
                    and not (below * above).is_zero():
                raise InvalidComplexData(f"d o d != 0 at degree {n}")

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if (self.lo, self.hi) != (other.lo, other.hi):
            return False
        for n in range(self.lo, self.hi + 1):
            if self.rank(n) != other.rank(n) or self.diff(n) != other.diff(n):
                return False
        return True


def two_term_complex(top_degree: int, matrix_rows) -> ChainComplex:
    """Convenience: a single differential placed at top_degree."""
    m = IntMatrix.from_rows(matrix_rows)
    return ChainComplex(top_degree - 1, top_degree,
                        {top_degree: m.cols, top_degree - 1: m.rows},
                        {top_degree: m})


@dataclass
class ChainMap:
    source: ChainComplex
    target: ChainComplex
    mats: dict  # n -> IntMatrix, target.rank(n) x source.rank(n)

    def __post_init__(self):
        self.validate()

    def mat(self, n: int) -> IntMatrix:
        m = self.mats.get(n)
        if m is None:
            return IntMatrix.zero(self.target.rank(n), self.source.rank(n))
        return m

    def validate(self):
        a, b = self.source, self.target
        for n, m in self.mats.items():
            if (m.rows, m.cols) != (b.rank(n), a.rank(n)):
                raise InvalidComplexData(
                    f"chain map at degree {n} has shape {m.rows}x{m.cols}, "
                    f"expected {b.rank(n)}x{a.rank(n)}")
        lo = min(a.lo, b.lo)
        hi = max(a.hi, b.hi)
        for n in range(lo + 1, hi + 1):
            lhs = self.mat(n - 1) * a.diff(n)
            rhs = b.diff(n) * self.mat(n)
            if lhs != rhs:
                raise InvalidComplexData(f"map does not commute with d at degree {n}")


@dataclass
class CubicalGroup:
    """Levels 0..top of free abelian groups with faces and degeneracies.

    faces[(n, i, j)] : level n -> n-1   (1 <= i <= n, j in {0, 1})
    degeneracies[(n, i)] : level n -> n+1   (1 <= i <= n+1)
    """

    top: int
    ranks: dict
    faces: dict
    degeneracies: dict

    def __post_init__(self):
        self.validate()

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def face(self, n: int, i: int, j: int) -> IntMatrix:
        return self.faces[(n, i, j)]

    def degeneracy(self, n: int, i: int) -> IntMatrix:
        return self.degeneracies[(n, i)]

    def validate(self):
        for n in range(1, self.top + 1):
            for i in range(1, n + 1):
                for j in (0, 1):
                    m = self.faces.get((n, i, j))
                    if m is None:
                        raise InvalidComplexData(f"missing face ({n},{i},{j})")
                    if (m.rows, m.cols) != (self.rank(n - 1), self.rank(n)):
                        raise InvalidComplexData(f"face ({n},{i},{j}) has bad shape")
        for n in range(0, self.top):
            ident = IntMatrix.identity(self.rank(n))
            for i in range(1, n + 2):
                s = self.degeneracies.get((n, i))
                if s is None:
                    raise InvalidComplexData(f"missing degeneracy ({n},{i})")
                if (s.rows, s.cols) != (self.rank(n + 1), self.rank(n)):
                    raise InvalidComplexData(f"degeneracy ({n},{i}) has bad shape")
                for j in (0, 1):
                    if self.face(n + 1, i, j) * s != ident:
                        raise InvalidComplexData(
                            f"face ({n + 1},{i},{j}) o degeneracy ({n},{i}) != id")
        associated_complex(self)  # validates d o d = 0


def associated_complex(c: CubicalGroup) -> ChainComplex:
    """Differential sum over faces with signs (-1)^(i+j)."""
    diffs = {}
    for n in range(1, c.top + 1):
        d = IntMatrix.zero(c.rank(n - 1), c.rank(n))
        for i in range(1, n + 1):
            for j in (0, 1):
                d = d + c.face(n, i, j).scale((-1) ** (i + j))
        diffs[n] = d
    try:
        return ChainComplex(0, c.top, {n: c.rank(n) for n in range(c.top + 1)},
                            diffs)
    except InvalidComplexData as e:
        raise InvalidComplexData(f"invalid cubical data: {e}") from e


def normalized_kernel_bases(c: CubicalGroup) -> dict:
    """Integer bases (as columns) of the intersections of ker delta_i^1."""
    bases = {0: IntMatrix.identity(c.rank(0))}
    for n in range(1, c.top + 1):
        stacked = c.face(n, 1, 1)
        for i in range(2, n + 1):
            stacked = stacked.stack(c.face(n, i, 1))
        bases[n] = kernel_basis(stacked)
    return bases


def normalized_complex(c: CubicalGroup, bases: dict | None = None
                       ) -> ChainComplex:
    """Chain complex on the normalized subgroups with d = sum (-1)^i delta_i^0.

    bases, when given, must be normalized_kernel_bases(c).
    """
    if bases is None:
        bases = normalized_kernel_bases(c)
    ranks = {n: bases[n].cols for n in range(c.top + 1)}
    diffs = {}
    for n in range(1, c.top + 1):
        d = IntMatrix.zero(c.rank(n - 1), c.rank(n))
        for i in range(1, n + 1):
            d = d + c.face(n, i, 0).scale((-1) ** i)
        diffs[n] = solve_integral(bases[n - 1], d * bases[n])
    return ChainComplex(0, c.top, ranks, diffs)


def degenerate_generators(c: CubicalGroup, n: int) -> IntMatrix:
    """Columns generating the degenerate subgroup D_n."""
    if n == 0 or c.rank(n) == 0:
        return IntMatrix.zero(c.rank(n), 0)
    gens = None
    for i in range(1, n + 1):
        s = c.degeneracy(n - 1, i)
        gens = s if gens is None else gens.hstack(s)
    return gens


def decomposition_check(c: CubicalGroup, bases: dict | None = None
                        ) -> Report:
    """Rational rank decomposition C_n = NC_n + D_n with trivial intersection.

    bases, when given, must be normalized_kernel_bases(c).
    """
    t0 = perf_counter()
    if bases is None:
        bases = normalized_kernel_bases(c)
    bad = None
    details = {}
    for n in range(c.top + 1):
        nc = bases[n]
        dg = degenerate_generators(c, n)
        rank_nc = nc.cols
        rank_d = rank(dg)
        joint = rank(nc.hstack(dg))
        details[n] = {"rank": c.rank(n), "normalized": rank_nc, "degenerate": rank_d}
        if rank_nc + rank_d != c.rank(n) or joint != rank_nc + rank_d:
            bad = {"level": n, "rank": c.rank(n), "normalized": rank_nc,
                   "degenerate": rank_d, "joint": joint}
            break
    return report("decomposition", {"top": c.top}, bad, perf_counter() - t0,
                  {"levels": details})


def simple_of_map(f: ChainMap) -> ChainComplex:
    """Cone-style complex of a chain map: degree n is A_n + B_{n+1} with
    d(a, b) = (d_A a, f(a) - d_B b)."""
    a, b = f.source, f.target
    lo = min(a.lo, b.lo - 1)
    hi = max(a.hi, b.hi - 1)
    ranks = {n: a.rank(n) + b.rank(n + 1) for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        rows = []
        da = a.diff(n)
        fb = f.mat(n)
        db = b.diff(n + 1)
        for r in range(a.rank(n - 1)):
            rows.append(list(da.entries[r]) + [0] * b.rank(n + 1))
        for r in range(b.rank(n)):
            rows.append(list(fb.entries[r]) + [-x for x in db.entries[r]])
        diffs[n] = IntMatrix(ranks[n - 1], ranks[n],
                             tuple(tuple(r) for r in rows))
    return ChainComplex(lo, hi, ranks, diffs)


@dataclass
class TwoArrowDiagram:
    """Three complexes with maps g: A -> B and r: A -> C out of one source."""

    a: ChainComplex
    b: ChainComplex
    c: ChainComplex
    g: ChainMap
    r: ChainMap

    def __post_init__(self):
        if self.g.source is not self.a and self.g.source != self.a:
            raise InvalidComplexData("g must start at A")
        if self.r.source is not self.a and self.r.source != self.a:
            raise InvalidComplexData("r must start at A")
        if self.g.target != self.b or self.r.target != self.c:
            raise InvalidComplexData("arrow targets do not match diagram")


def simple_of_diagram(diag: TwoArrowDiagram) -> ChainComplex:
    """Shifted simple complex of the two-arrow diagram: degree n holds the
    triples (a, b, c) in A_{n-1} + B_n + C_n with differential
    d(a, b, c) = (-d_A a, d_B b + g(a), d_C c - r(a))."""
    a, b, c = diag.a, diag.b, diag.c
    lo = min(a.lo + 1, b.lo, c.lo)
    hi = max(a.hi + 1, b.hi, c.hi)
    ranks = {n: a.rank(n - 1) + b.rank(n) + c.rank(n) for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        ra, rb, rc = a.rank(n - 1), b.rank(n), c.rank(n)
        da = a.diff(n - 1)
        db = b.diff(n)
        dc = c.diff(n)
        gm = diag.g.mat(n - 1)
        rm = diag.r.mat(n - 1)
        rows = []
        for i in range(a.rank(n - 2)):
            rows.append([-x for x in da.entries[i]] + [0] * (rb + rc))
        for i in range(b.rank(n - 1)):
            rows.append(list(gm.entries[i]) + list(db.entries[i]) + [0] * rc)
        for i in range(c.rank(n - 1)):
            rows.append([-x for x in rm.entries[i]] + [0] * rb
                        + list(dc.entries[i]))
        diffs[n] = IntMatrix(ranks[n - 1], ranks[n], tuple(tuple(r) for r in rows))
    return ChainComplex(lo, hi, ranks, diffs)


def homology(c: ChainComplex, n: int) -> tuple[int, list[int]]:
    """Free rank and invariant factors (> 1) of H_n = ker d_n / im d_{n+1};
    an absent differential is the zero map (rank 0, no invariant factors)."""
    if n < c.lo or n > c.hi:
        return 0, []
    outgoing = c.differentials.get(n)
    incoming = c.differentials.get(n + 1)
    rank_out = 0 if outgoing is None else rank(outgoing)
    factors = [] if incoming is None else invariant_factors(incoming)
    betti = c.rank(n) - rank_out - len(factors)
    return betti, [f for f in factors if f > 1]


# -- rational homology bases and the long exact sequence ----------------------

class RationalHomology:
    """Integer cycle representatives of a basis of H_*(X; Q), per degree.

    The cycles of degree n are the kernel vectors of d_n from the
    elimination core (integers, one common positive multiple of the
    reduced-echelon basis).  A cycle is kept when its column is a pivot
    column of [d_{n+1} | cycles], that is when it is outside the span of
    the boundaries and of the cycles kept before it: the greedy choice,
    made in one elimination.
    """

    def __init__(self, cx: ChainComplex):
        self.cx = cx
        self.reps = {}
        self.spans = {}  # n -> (rows of [d_{n+1} | reps], boundary count)
        for n in range(cx.lo, cx.hi + 1):
            rk = cx.rank(n)
            cycles = kernel(cx.diff(n).entries, rk)[0]
            if n < cx.hi:
                bound, nb = cx.diff(n + 1).entries, cx.rank(n + 1)
            else:
                bound, nb = ((),) * rk, 0
            rows = [b + tuple(z[i] for z in cycles)
                    for i, b in enumerate(bound)]
            reps = [cycles[c - nb] for c in pivot_columns(rows) if c >= nb]
            self.reps[n] = reps
            self.spans[n] = ([b + tuple(z[i] for z in reps)
                              for i, b in enumerate(bound)], nb)

    def dim(self, n: int) -> int:
        return len(self.reps.get(n, []))

    def express(self, n: int, vecs) -> tuple[list[list[int]], int]:
        """Coordinates of cycle classes over the chosen representatives.

        Returns (xs, d) with d > 0: xs[j] / d are the coordinates of the
        class of vecs[j].  Raises ValueError when a vector is not a cycle.
        """
        rows, nb = self.spans.get(n, ([], 0))
        sol = solve(rows, nb + self.dim(n), vecs)
        if sol is None:
            raise ValueError("vector is not a cycle class")
        xs, d = sol
        return [x[nb:] for x in xs], d


def induced_map(hsrc: RationalHomology, hdst: RationalHomology,
                mat_for_degree, n: int, shift: int = 0) -> IntMatrix:
    """Matrix of the induced map H_{n+shift}(src) -> H_n(dst) over the chosen
    bases, for a chain-level map given by mat_for_degree(n), times one
    positive integer: that changes neither its rank nor whether a product
    with it vanishes."""
    reps = hsrc.reps.get(n + shift, [])
    if not reps:  # skip building unused maps
        return IntMatrix.zero(hdst.dim(n), 0)
    m = mat_for_degree(n)
    images = [[sum(map(mul, row, rep)) for row in m.entries] for rep in reps]
    xs, _ = hdst.express(n, images)
    return IntMatrix(hdst.dim(n), len(reps), tuple(zip(*xs)))


def verify_les_exactness(f: ChainMap) -> Report:
    """Rank-exactness of ... -> H_{n+1}(B) -> H_n(s(f)) -> H_n(A) -> H_n(B) -> ...

    The three maps are realized explicitly: inclusion into the cone part,
    projection onto A, and the connecting map, which for this simple
    complex is induced by f itself.  Each induced matrix is a positive
    multiple of the one over the chosen bases, so ranks and vanishing
    composites are those of the maps themselves.
    """
    t0 = perf_counter()
    a, b = f.source, f.target
    s = simple_of_map(f)
    ha, hb, hs = RationalHomology(a), RationalHomology(b), RationalHomology(s)

    def incl_mat(n):  # B_{n+1} block of s(f)_n; induces H_{n+1}(B) -> H_n(s)
        return IntMatrix.zero(a.rank(n), b.rank(n + 1)).stack(
            IntMatrix.identity(b.rank(n + 1)))

    def proj_mat(n):  # s(f)_n -> A_n
        return IntMatrix.identity(a.rank(n)).hstack(
            IntMatrix.zero(a.rank(n), b.rank(n + 1)))

    def ranked(m):
        # each map is the outgoing map of one node and the incoming map of
        # the next, so it is ranked once, here
        return m, rank(m)

    degrees = range(s.lo - 1, s.hi + 2)
    incl = {n: ranked(induced_map(hb, hs, incl_mat, n, shift=1))
            for n in range(s.lo - 2, s.hi + 2)}
    proj = {n: ranked(induced_map(hs, ha, proj_mat, n)) for n in degrees}
    fmap = {n: ranked(induced_map(ha, hb, f.mat, n)) for n in degrees}
    nodes = []
    for n in degrees:
        nodes.append(("S", n, hs.dim(n), incl[n], proj[n]))
        nodes.append(("A", n, ha.dim(n), proj[n], fmap[n]))
        nodes.append(("B", n, hb.dim(n), fmap[n], incl[n - 1]))

    bad = None
    for name, n, dim, (m_in, rank_in), (m_out, rank_out) in nodes:
        if rank_in + rank_out != dim:
            bad = {"node": f"H_{n}({name})", "dim": dim,
                   "rank_in": rank_in, "rank_out": rank_out}
            break
        if not (m_out * m_in).is_zero():
            bad = {"node": f"H_{n}({name})", "reason": "composite nonzero"}
            break
    return report("les-exactness",
                  {"degrees": [s.lo, s.hi]}, bad, perf_counter() - t0,
                  {"dims": {str(n): [ha.dim(n), hb.dim(n), hs.dim(n)]
                            for n in range(s.lo, s.hi + 1)}})


# -- JSON interchange ---------------------------------------------------------

def complex_to_json(c: ChainComplex) -> dict:
    return {
        "degrees": [c.lo, c.hi],
        "ranks": {str(n): c.rank(n) for n in range(c.lo, c.hi + 1)},
        "differentials": {str(n): c.diff(n).to_lists()
                          for n in range(c.lo + 1, c.hi + 1)},
    }


def complex_from_json(obj) -> ChainComplex:
    if not isinstance(obj, dict):
        raise ComplexFormatError("top level: expected an object")
    for key in ("degrees", "ranks", "differentials"):
        if key not in obj:
            raise ComplexFormatError(f"{key}: missing field")
    degrees = obj["degrees"]
    if (not isinstance(degrees, list) or len(degrees) != 2
            or not all(_is_int(x) for x in degrees)):
        raise ComplexFormatError("degrees: expected [lo, hi] integers")
    _require_objects(obj, ("ranks", "differentials"))
    lo, hi = degrees
    if hi - lo > MAX_DEGREE_SPAN:
        raise ComplexFormatError(
            f"degrees: span {hi - lo} exceeds the limit of {MAX_DEGREE_SPAN}")
    ranks = {}
    for n in range(lo, hi + 1):
        r = obj["ranks"].get(str(n), 0)
        if not _is_int(r) or r < 0:
            raise ComplexFormatError(f"ranks.{n}: expected a non-negative integer")
        ranks[n] = r
    diffs = {}
    for key, rows in obj["differentials"].items():
        # a key with a line break must not split the one-line error
        field = f"differentials.{key if key.isprintable() else repr(key)}"
        try:
            n = int(key)
        except ValueError:
            raise ComplexFormatError(f"{field}: bad degree key")
        diffs[n] = _matrix_from_json(rows, ranks.get(n - 1, 0),
                                     ranks.get(n, 0), field)
    try:
        return ChainComplex(lo, hi, ranks, diffs)
    except InvalidComplexData as e:
        raise ComplexFormatError(str(e)) from e


def _matrix_from_json(rows, nrows, ncols, path) -> IntMatrix:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise ComplexFormatError(
            f"{path}: expected {nrows} rows, got "
            f"{len(rows) if isinstance(rows, list) else type(rows).__name__}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise ComplexFormatError(f"{path}[{i}]: expected {ncols} integers")
        for x in row:
            if not _is_int(x):
                raise ComplexFormatError(f"{path}[{i}]: non-integer entry {x!r}")
    return IntMatrix(nrows, ncols, tuple(tuple(r) for r in rows))


def cubical_to_json(c: CubicalGroup) -> dict:
    faces = {}
    for n in range(1, c.top + 1):
        faces[str(n)] = {f"{i},{j}": c.face(n, i, j).to_lists()
                         for i in range(1, n + 1) for j in (0, 1)}
    degens = {}
    for n in range(0, c.top):
        degens[str(n)] = {str(i): c.degeneracy(n, i).to_lists()
                          for i in range(1, n + 2)}
    return {
        "levels": [0, c.top],
        "ranks": {str(n): c.rank(n) for n in range(c.top + 1)},
        "faces": faces,
        "degeneracies": degens,
    }


def cubical_from_json(obj) -> CubicalGroup:
    if not isinstance(obj, dict):
        raise ComplexFormatError("top level: expected an object")
    for key in ("levels", "ranks", "faces", "degeneracies"):
        if key not in obj:
            raise ComplexFormatError(f"{key}: missing field")
    levels = obj["levels"]
    if (not isinstance(levels, list) or len(levels) != 2
            or not all(_is_int(x) for x in levels) or levels[0] != 0):
        raise ComplexFormatError("levels: expected [0, top]")
    _require_objects(obj, ("ranks", "faces", "degeneracies"))
    top = levels[1]
    ranks = {}
    for n in range(top + 1):
        r = obj["ranks"].get(str(n))
        if not _is_int(r) or r < 0:
            raise ComplexFormatError(f"ranks.{n}: expected a non-negative integer")
        ranks[n] = r
    faces = {}
    for n in range(1, top + 1):
        level = obj["faces"].get(str(n))
        if not isinstance(level, dict):
            raise ComplexFormatError(f"faces.{n}: missing level")
        for i in range(1, n + 1):
            for j in (0, 1):
                rows = level.get(f"{i},{j}")
                if rows is None:
                    raise ComplexFormatError(f"faces.{n}.{i},{j}: missing matrix")
                faces[(n, i, j)] = _matrix_from_json(
                    rows, ranks[n - 1], ranks[n], f"faces.{n}.{i},{j}")
    degens = {}
    for n in range(0, top):
        level = obj["degeneracies"].get(str(n))
        if not isinstance(level, dict):
            raise ComplexFormatError(f"degeneracies.{n}: missing level")
        for i in range(1, n + 2):
            rows = level.get(str(i))
            if rows is None:
                raise ComplexFormatError(f"degeneracies.{n}.{i}: missing matrix")
            degens[(n, i)] = _matrix_from_json(
                rows, ranks[n + 1], ranks[n], f"degeneracies.{n}.{i}")
    try:
        return CubicalGroup(top, ranks, faces, degens)
    except InvalidComplexData as e:
        raise ComplexFormatError(str(e)) from e


def _is_int(x) -> bool:
    """JSON integers only: bool is an int subclass but not an integer here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_objects(obj: dict, keys) -> None:
    for key in keys:
        if not isinstance(obj[key], dict):
            raise ComplexFormatError(f"{key}: expected an object")


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ComplexFormatError(
            f"{path}: cannot read: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ComplexFormatError(f"{path}: not UTF-8 text") from e
    except json.JSONDecodeError as e:
        raise ComplexFormatError(
            f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except RecursionError:
        raise ComplexFormatError("invalid JSON: nested too deeply")
