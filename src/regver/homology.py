"""Finite homological algebra over the integers.

Chain complexes are contiguous families of free abelian groups with
integer differential matrices (d_n : degree n -> n-1).  Cubical abelian
groups carry face and degeneracy matrices; the two identities the
constructions rely on (delta_i^j sigma_i = id and d^2 = 0 on the
associated complex) are validated numerically at construction time.
Homology is computed through Smith normal form.  The long exact sequence
is checked from ranks of chain-level integer matrices, with no basis of
homology chosen; those ranks and kernels, like the solves of the normalized
complex, come from the one fraction-free integer elimination of
`matrices`, so no rational number is ever formed.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from operator import mul, sub

from .matrices import (IntMatrix, invariant_factors, kernel, kernel_basis,
                       pivot_columns, rank, solve_integral)

# Widest `degrees: [lo, hi]` a complex file may declare: every degree in the
# range is materialized and reported, so an unbounded span costs time and
# memory out of all proportion to the size of the file.
MAX_DEGREE_SPAN = 1000


class InvalidComplexData(ValueError):
    pass


class ComplexFormatError(ValueError):
    """Malformed complex/cubical JSON; message names the offending field."""


@dataclass(eq=False)
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
        # an absent differential is the zero map, and so is a product
        # with an empty side: no product to check
        for n in range(self.lo + 2, self.hi + 1):
            below = self.differentials.get(n - 1)
            above = self.differentials.get(n)
            if below is not None and above is not None \
                    and below.rows and below.cols and above.cols \
                    and not (below * above).is_zero():
                raise InvalidComplexData(f"d o d != 0 at degree {n}")


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
            # f_{n-1} d_A = d_B f_n, both b.rank(n-1) x a.rank(n); a side
            # with an empty inner factor is zero and is not formed, and the
            # other is compared with zero
            if not (b.rank(n - 1) and a.rank(n)):
                continue
            lhs = self.mat(n - 1) * a.diff(n) if a.rank(n - 1) else None
            rhs = b.diff(n) * self.mat(n) if b.rank(n) else None
            if lhs is None or rhs is None:
                commutes = all(m is None or m.is_zero() for m in (lhs, rhs))
            else:
                commutes = lhs == rhs
            if not commutes:
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


def _face_sum(c: CubicalGroup, n: int, js) -> IntMatrix:
    """The sum of (-1)^(i+j) delta_i^j over 1 <= i <= n and j in js, one
    row at a time: the column sums of the faces' rows of each sign, with
    no intermediate matrix.  Each sign starts from the zero matrix, so
    that neither is empty."""
    zero = ((0,) * c.rank(n),) * c.rank(n - 1)
    plus, minus = [zero], [zero]
    for i in range(1, n + 1):
        for j in js:
            (minus if (i + j) % 2 else plus).append(c.face(n, i, j).entries)
    return IntMatrix._of(c.rank(n - 1), c.rank(n), tuple(
        tuple(map(sub, map(sum, zip(*p)), map(sum, zip(*m))))
        for p, m in zip(zip(*plus), zip(*minus))))


def associated_complex(c: CubicalGroup) -> ChainComplex:
    """Differential sum over faces with signs (-1)^(i+j)."""
    diffs = {n: _face_sum(c, n, (0, 1)) for n in range(1, c.top + 1)}
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
        if not ranks[n]:  # no normalized chains: no product, no solve
            diffs[n] = IntMatrix.zero(ranks[n - 1], 0)
            continue
        d = _face_sum(c, n, (0,))
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


def decomposition_check(c: CubicalGroup, bases: dict) -> dict | None:
    """The first level where the rational rank decomposition
    C_n = NC_n + D_n with trivial intersection fails, as a counterexample,
    or None; bases must be normalized_kernel_bases(c)."""
    for n in range(c.top + 1):
        nc = bases[n]
        dg = degenerate_generators(c, n)
        rank_nc = nc.cols
        # one elimination of [dg | nc]: its pivots left of nc are those of dg
        pivots = pivot_columns(dg.hstack(nc).entries)
        rank_d = bisect_left(pivots, dg.cols)
        joint = len(pivots)
        if rank_nc + rank_d != c.rank(n) or joint != rank_nc + rank_d:
            return {"level": n, "rank": c.rank(n), "normalized": rank_nc,
                    "degenerate": rank_d, "joint": joint}
    return None


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
        diffs[n] = IntMatrix._of(ranks[n - 1], ranks[n],
                                 tuple(tuple(r) for r in rows))
    return ChainComplex(lo, hi, ranks, diffs)


def simple_of_diagram(g: ChainMap, r: ChainMap) -> ChainComplex:
    """Shifted simple complex of the two-arrow diagram g: A -> B, r: A -> C,
    whose arrows start at one and the same complex A: degree n holds the
    triples (a, b, c) in A_{n-1} + B_n + C_n with differential
    d(a, b, c) = (-d_A a, d_B b + g(a), d_C c - r(a))."""
    a, b, c = g.source, g.target, r.target
    if r.source is not a:
        raise InvalidComplexData("g and r must start at the same complex")
    lo = min(a.lo + 1, b.lo, c.lo)
    hi = max(a.hi + 1, b.hi, c.hi)
    ranks = {n: a.rank(n - 1) + b.rank(n) + c.rank(n) for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        rb, rc = b.rank(n), c.rank(n)
        da = a.diff(n - 1)
        db = b.diff(n)
        dc = c.diff(n)
        gm = g.mat(n - 1)
        rm = r.mat(n - 1)
        rows = []
        for i in range(a.rank(n - 2)):
            rows.append([-x for x in da.entries[i]] + [0] * (rb + rc))
        for i in range(b.rank(n - 1)):
            rows.append(list(gm.entries[i]) + list(db.entries[i]) + [0] * rc)
        for i in range(c.rank(n - 1)):
            rows.append([-x for x in rm.entries[i]] + [0] * rb
                        + list(dc.entries[i]))
        diffs[n] = IntMatrix._of(ranks[n - 1], ranks[n],
                                 tuple(map(tuple, rows)))
    return ChainComplex(lo, hi, ranks, diffs)


def homology(c: ChainComplex, n: int) -> tuple[int, list[int]]:
    """Free rank and invariant factors (> 1) of H_n = ker d_n / im d_{n+1};
    an absent differential is the zero map (rank 0, no invariant factors)."""
    if n < c.lo or n > c.hi:
        return 0, []
    outgoing = c.differentials.get(n)
    incoming = c.differentials.get(n + 1)
    rank_out = 0 if outgoing is None else rank(outgoing.entries)
    factors = [] if incoming is None else invariant_factors(incoming)
    betti = c.rank(n) - rank_out - len(factors)
    return betti, [f for f in factors if f > 1]


# -- the long exact sequence --------------------------------------------------

def verify_les_exactness(f: ChainMap) -> dict | None:
    """The first node where ... -> H_{n+1}(B) -> H_n(s(f)) -> H_n(A) ->
    H_n(B) -> ... is not exact, as a counterexample, or None.

    Every number is the rank of an integer matrix at chain level.  With Z_n
    the kernel vectors of d_n and B_n the column span of d_{n+1},
    dim H_n = |Z_n| - rank d_{n+1}; a chain map sending Z_n(X) to vectors v
    of Y_m induces a map of rank rank [d_{m+1} | v] - rank d_{m+1}, and a
    composite vanishes on homology when that rank is 0 for its images of Z
    (at once when the images are all zero).  One loop over the degrees
    that the nodes read takes each complex's Z_n, one kernel per
    differential out of a nonzero group (a group of rank 0 has no cycles),
    and rank d_{n+1} as rank C_{n+1} - |Z_{n+1}|, so no differential is
    eliminated twice.  The nodes are walked by ascending degree, then S, A,
    B, and each node's outgoing map is one `step` on vectors: the
    projection of s(f)_n onto A_n, the connecting map, which for this
    simple complex is f itself, and the inclusion b -> (0, b) of B_n into
    s(f)_{n-1}; of the arrow f only f.source, f.target and f.mat(n) are
    read.  Each induced map is ranked once, although it is the
    outgoing map of one node and the incoming map of the next, and only
    when its source has cycles: with none, the map and any composite after
    it have rank 0, and neither is applied.
    """
    a, b = f.source, f.target
    s = simple_of_map(f)
    complexes = {"S": s, "A": a, "B": b}
    cycles, bound = {}, {}  # Z_n and rank d_{n+1}, keyed (complex, n)
    for x, c in complexes.items():
        for n in range(s.lo - 1, s.hi + 3):
            r = c.ranks.get(n, 0)
            d = c.differentials.get(n)
            cycles[x, n] = kernel(() if d is None else d.entries, r)[0] \
                if r else []  # a group of rank 0 has no cycles
        for n in range(s.lo - 2, s.hi + 2):
            bound[x, n] = c.ranks.get(n + 1, 0) - len(cycles[x, n + 1])

    def class_rank(x, n, vecs):  # of the classes of the cycles vecs in H_n(x)
        if not any(map(any, vecs)):
            return 0
        d = complexes[x].differentials.get(n + 1)
        rows = list(zip(*vecs)) if d is None else \
            [r + v for r, v in zip(d.entries, zip(*vecs))]
        return rank(rows) - bound[x, n]

    def step(x, n, vecs):  # the map out of node (x, n): its target, images
        if x == "S":
            r = a.ranks.get(n, 0)
            return "A", n, [v[:r] for v in vecs]
        if x == "A":
            rows = f.mat(n).entries
            return "B", n, [[sum(map(mul, row, v)) for row in rows]
                            for v in vecs]
        zero = [0] * a.ranks.get(n - 1, 0)
        return "S", n - 1, [zero + v for v in vecs]

    ranked = {}  # (x, n) -> images of Z_n(x) and rank of the induced map

    def out(x, n):
        if (x, n) not in ranked:
            z = cycles[x, n]
            if z:
                y, m, v = step(x, n, z)
                ranked[x, n] = v, class_rank(y, m, v)
            else:
                ranked[x, n] = [], 0
        return ranked[x, n]

    # the node whose map comes into (x, n) is (y, n + shift)
    into = {"S": ("B", 1), "A": ("S", 0), "B": ("A", 0)}
    for n in range(s.lo - 1, s.hi + 2):
        for x in "SAB":
            y, shift = into[x]
            v, rank_in = out(y, n + shift)
            rank_out = out(x, n)[1]
            dim = len(cycles[x, n]) - bound[x, n]
            if rank_in + rank_out != dim:
                return {"node": f"H_{n}({x})", "dim": dim,
                        "rank_in": rank_in, "rank_out": rank_out}
            if v and class_rank(*step(x, n, v)):
                return {"node": f"H_{n}({x})", "reason": "composite nonzero"}
    return None


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
    if lo > hi:
        raise ComplexFormatError("degrees: expected lo <= hi")
    if hi - lo > MAX_DEGREE_SPAN:
        raise ComplexFormatError(
            f"degrees: span {hi - lo} exceeds the limit of {MAX_DEGREE_SPAN}")
    _refuse_other_keys(obj["ranks"], _in_range(lo, hi), "ranks",
                       _one_of("degree", lo, hi))
    ranks = {}
    for n in range(lo, hi + 1):
        r = obj["ranks"].get(str(n), 0)
        if not _is_int(r) or r < 0:
            raise ComplexFormatError(f"ranks.{n}: expected a non-negative integer")
        ranks[n] = r
    diffs = {}
    for key, rows in obj["differentials"].items():
        field = _field("differentials", key)
        # one spelling per degree, so that no key can silently replace
        # another's matrix ("01" or " 1" next to "1")
        n = _canonical_int(key)
        if n is None:
            raise ComplexFormatError(f"{field}: bad degree key")
        if not lo < n <= hi:
            raise ComplexFormatError(
                f"{field}: unexpected key, expected "
                f"{_one_of('degree', lo + 1, hi)}")
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
            or not all(_is_int(x) for x in levels) or levels[0] != 0
            or levels[1] < 0):
        raise ComplexFormatError("levels: expected [0, top]")
    _require_objects(obj, ("ranks", "faces", "degeneracies"))
    top = levels[1]
    for key, lo, hi in (("ranks", 0, top), ("faces", 1, top),
                        ("degeneracies", 0, top - 1)):
        _refuse_other_keys(obj[key], _in_range(lo, hi), key,
                           _one_of("level", lo, hi))
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
        _refuse_other_keys(level, _face_key(n), f"faces.{n}",
                           f"i,j with 1 <= i <= {n}, j in 0, 1")
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
        _refuse_other_keys(level, _in_range(1, n + 1), f"degeneracies.{n}",
                           f"an index from 1 to {n + 1}")
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


def _field(path: str, key: str) -> str:
    # a key with a line break must not split the one-line error
    return f"{path}.{key if key.isprintable() else repr(key)}"


def _canonical_int(key: str):
    """The integer that key spells in plain decimal ("7", "-1"), else None
    ("07", " 7", "+7", "7_0" and non-numbers)."""
    try:
        n = int(key)
    except ValueError:
        return None
    return n if key == str(n) else None


def _in_range(lo: int, hi: int):
    return lambda key: (n := _canonical_int(key)) is not None and lo <= n <= hi


def _one_of(what: str, lo: int, hi: int) -> str:
    return f"a {what} from {lo} to {hi}" if lo <= hi else f"no {what}"


def _face_key(n: int):
    """Spellings "i,j" with 1 <= i <= n and j in {0, 1}."""
    def allowed(key):
        i, comma, j = key.partition(",")
        return bool(comma) and _in_range(1, n)(i) and _in_range(0, 1)(j)
    return allowed


def _refuse_other_keys(table: dict, allowed, path: str, expected: str) -> None:
    """Refuse any key of table that allowed(key) rejects: the readers look
    up only the allowed spellings, so another key ("01", "7" outside the
    range) would be dropped without a word.  A predicate, not a set of the
    allowed keys, so that a huge declared range costs nothing before the
    readers find its first missing entry."""
    for key in table:
        if not allowed(key):
            raise ComplexFormatError(
                f"{_field(path, key)}: unexpected key, expected {expected}")


def _require_objects(obj: dict, keys) -> None:
    for key in keys:
        if not isinstance(obj[key], dict):
            raise ComplexFormatError(f"{key}: expected an object")


def load_json_file(path: str):
    def unique_keys(pairs):
        # json.load would keep only the last of two equal keys
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ComplexFormatError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
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
    except ComplexFormatError:
        raise
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise ComplexFormatError(f"invalid JSON: {str(e).split(';')[0]}")
