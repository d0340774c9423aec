"""The general wedge algebra: the reference for the package's residues.

`WedgeElement` (formerly `regver.residues`) stores an integer combination
of basis wedges of any arity in coordinates over the canonical lattice
basis (all k x k minors of the exponent matrix), so equality of wedge
elements is exact and multilinearity and alternation hold by
construction.  `residue_tuple` is the former wedge-valued residue of a
pure wedge of any arity, and `WedgeElement.residue` its linear extension
over the stored basis wedges.

It runs on the monomial algebra the package no longer needs, kept here as
the independent reference: `coord_function`, the checked constructor
(formerly `CoordFunction.__init__`; the package's one constructor checks
nothing, as it builds only basis and ratio monomials), `exponent`,
`valuation`, `product` and `power` (formerly `CoordFunction.exponent`,
`__mul__` and `__pow__`), `restrict`
and `map_coord` (formerly `FaceDivisor.map_coord`), which relabel one
surviving coordinate at a time, and `basis_coordinates`.  `from_vector`
builds the monomial with given basis coordinates, and `random_function`
one with small random ones.

The package keeps only the top-arity case that the boundary sweeps read:
`regver.residues.residue_tuple` returns the one integer coordinate of the
residue of N functions on an ambient of basis size N, by one slot
reduction of sparse exponent rows along the divisor's coordinate and the
target's basis.  The tests check it against the top coefficient of
`WedgeElement.from_functions(funcs).residue(div)` here and against
`det_residue`, the package's former route through `matrices.det`, and
check the alternation, multilinearity, path-independence and
anticommuting double residues on this algebra.
"""

from itertools import combinations

from regver.matrices import det
from regver.residues import Ambient, CoordFunction, FaceDivisor, _flag


def coord_function(ambient: Ambient, exps) -> CoordFunction:
    """The checked constructor (formerly `CoordFunction.__init__`, for
    exponents written by hand): every exponent an integer on a coordinate
    of the ambient, summing to zero on every block."""
    clean = {c: int(e) for c, e in dict(exps).items() if e}
    coords = set(ambient.coordinates())
    for c in clean:
        if c not in coords:
            raise ValueError(f"unknown coordinate {c} for {ambient}")
    for block in ambient.blocks():
        if sum(clean.get(c, 0) for c in block) != 0:
            raise ValueError(f"exponents do not sum to zero on block {block}")
    return CoordFunction(ambient, clean)


def exponent(f: CoordFunction, coord) -> int:
    for c, e in f.exps:
        if c == coord:
            return e
    return 0


def valuation(f: CoordFunction, div: FaceDivisor) -> int:
    """Exponent of the vanishing coordinate in the monomial."""
    return exponent(f, div.coord)


def product(f: CoordFunction, g: CoordFunction) -> CoordFunction:
    if f.ambient != g.ambient:
        raise ValueError("ambient mismatch")
    exps = dict(f.exps)
    for c, e in g.exps:
        exps[c] = exps.get(c, 0) + e
    return CoordFunction(f.ambient, exps)


def power(f: CoordFunction, k: int) -> CoordFunction:
    return CoordFunction(f.ambient, {c: e * k for c, e in f.exps})


def from_vector(amb: Ambient, vec) -> CoordFunction:
    """The monomial with basis coordinates vec."""
    f = CoordFunction(amb, {})
    for b, e in zip(amb.basis_functions(), vec):
        if e:
            f = product(f, power(b, e))
    return f


def random_function(rng, amb: Ambient) -> CoordFunction:
    """A monomial with basis coordinates drawn from -2..2."""
    return from_vector(amb, [rng.randint(-2, 2)
                             for _ in range(amb.basis_size())])


def basis_coordinates(f: CoordFunction) -> list[int]:
    """Coefficients over the canonical lattice basis."""
    lines = f.ambient.lines
    vec = [0] * (lines + f.ambient.proj)
    for (kind, i), e in f.exps:
        if kind == "y":
            vec[i - 1] = e
        elif kind == "z" and i:
            vec[lines + i - 1] = e
    return vec


def map_coord(div: FaceDivisor, coord):
    """Image of a surviving coordinate in the divisor's target ambient."""
    kind, idx = div.coord
    ckind, cidx = coord
    if kind == "z":
        if ckind == "z" and cidx > idx:
            return ("z", cidx - 1)
        if ckind == "z" and cidx == idx:
            raise ValueError("coordinate does not survive")
        return coord
    if ckind in ("x", "y"):
        if cidx == idx:
            raise ValueError("coordinate does not survive")
        if cidx > idx:
            return (ckind, cidx - 1)
    return coord


def restrict(f: CoordFunction, div: FaceDivisor) -> CoordFunction:
    """Read a unit along the divisor as a monomial on the divisor.

    A collapsed line block contributes a constant and is dropped; the z
    coordinates are relabelled.  Raises for a non-unit (nonzero valuation).
    """
    if valuation(f, div) != 0:
        raise ValueError(f"{f.label()} is not a unit along {div.label()}")
    kind, idx = div.coord
    exps = {}
    for c, e in f.exps:
        if kind != "z" and c[1] == idx and c[0] in ("x", "y"):
            continue  # collapsed block; exponent is forced to 0 anyway
        exps[map_coord(div, c)] = e
    return CoordFunction(div.target(), exps)


class WedgeElement:
    """Integer combination of basis wedges of fixed arity.

    terms maps ascending index tuples into the canonical basis of the
    coordinate-monomial lattice to integer coefficients.
    """

    __slots__ = ("ambient", "arity", "terms")

    def __init__(self, ambient: Ambient, arity: int, terms: dict):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.ambient = ambient
        self.arity = arity
        self.terms = {s: c for s, c in terms.items() if c}

    @classmethod
    def from_functions(cls, funcs, coeff: int = 1) -> "WedgeElement":
        """Expand a pure wedge of coordinate monomials over the basis."""
        funcs = list(funcs)
        if not funcs:
            raise ValueError("empty tuple has no ambient; use unit()")
        amb = funcs[0].ambient
        if any(f.ambient != amb for f in funcs):
            raise ValueError("ambient mismatch in wedge")
        rows = [basis_coordinates(f) for f in funcs]
        k = len(funcs)
        terms = {}
        for subset in combinations(range(amb.basis_size()), k):
            minor = det([[row[j] for j in subset] for row in rows])
            if minor:
                terms[subset] = terms.get(subset, 0) + coeff * minor
        return cls(amb, k, terms)

    @classmethod
    def unit(cls, ambient: Ambient, coeff: int = 1) -> "WedgeElement":
        """The empty wedge (arity 0) with an integer coefficient."""
        return cls(ambient, 0, {(): coeff} if coeff else {})

    @classmethod
    def zero(cls, ambient: Ambient, arity: int) -> "WedgeElement":
        return cls(ambient, arity, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, WedgeElement) and self.ambient == other.ambient
                and self.arity == other.arity and self.terms == other.terms)

    def __add__(self, other):
        if self.ambient != other.ambient or self.arity != other.arity:
            raise ValueError("incompatible wedge elements")
        out = dict(self.terms)
        for s, c in other.terms.items():
            v = out.get(s, 0) + c
            if v:
                out[s] = v
            else:
                out.pop(s, None)
        return WedgeElement(self.ambient, self.arity, out)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k: int):
        return WedgeElement(self.ambient, self.arity,
                            {s: c * k for s, c in self.terms.items()})

    __rmul__ = __mul__

    def basis_tuple(self, subset) -> tuple[CoordFunction, ...]:
        basis = self.ambient.basis_functions()
        return tuple(basis[j] for j in subset)

    def residue(self, div: FaceDivisor) -> "WedgeElement":
        """Linear extension of the pure-wedge residue over the stored basis."""
        if self.arity == 0:
            raise ValueError("residue needs arity >= 1")
        out = WedgeElement.zero(div.target(), self.arity - 1)
        for subset, coeff in self.terms.items():
            out = out + residue_tuple(self.basis_tuple(subset), div) * coeff
        return out

    def to_json_obj(self) -> list:
        basis = self.ambient.basis_functions()
        out = []
        for subset in sorted(self.terms):
            out.append({"coeff": self.terms[subset],
                        "wedge": [basis[j].label() for j in subset]})
        return out

    def __repr__(self):
        return f"WedgeElement(arity={self.arity}, {self.to_json_obj()})"


def residue_tuple(funcs, div: FaceDivisor) -> WedgeElement:
    """Residue of a pure wedge of any arity along a coordinate divisor.

    Integer slot operations (invariant) and swaps (sign -1) reduce the
    valuation vector to (g, 0, ..., 0); the result is g times the
    restriction of the remaining slots.  A wedge of units maps to zero.
    The pivot is the leftmost slot of minimal absolute valuation (a
    minimal one makes the euclidean reduction progress); the result is
    alternating in the slots, so the tie-break does not change it.
    """
    cols = list(funcs)
    if not cols:
        raise ValueError("residue needs at least one slot")
    target = div.target()
    sign = 1
    vals = [valuation(f, div) for f in cols]
    while True:
        live = [k for k, v in enumerate(vals) if v]
        if not live:
            return WedgeElement.zero(target, len(cols) - 1)
        if len(live) == 1:
            break
        pivot = min(live, key=lambda k: abs(vals[k]))
        for k in live:
            if k == pivot:
                continue
            q = vals[k] // vals[pivot]
            if q:
                cols[k] = product(cols[k], power(cols[pivot], -q))
                vals[k] -= q * vals[pivot]
    pivot = next(k for k, v in enumerate(vals) if v)
    if pivot != 0:
        cols[0], cols[pivot] = cols[pivot], cols[0]
        vals[0], vals[pivot] = vals[pivot], vals[0]
        sign = -sign
    g = vals[0]
    rest = [restrict(f, div) for f in cols[1:]]
    if not rest:
        return WedgeElement.unit(target, sign * g)
    return WedgeElement.from_functions(rest, sign * g)


def top_residue(funcs, div: FaceDivisor) -> int:
    """The coefficient of the residue of the top wedge of funcs on the whole
    target basis, read through the wedge algebra; 0 for a zero wedge."""
    res = WedgeElement.from_functions(funcs).residue(div)
    return res.terms.get(tuple(range(res.arity)), 0)


def det_residue(funcs, div: FaceDivisor) -> int:
    """The package's former top-arity residue: slot operations reduce the
    valuations, the rows' entries at the divisor's coordinate, to a single
    entry g; the residue is (-1)^pivot g times the determinant
    (`matrices.det`) of the remaining N-1 rows restricted to the target
    basis, read in the order of the package's `_flag`."""
    coord = div.coord
    rows = [dict(f.exps) for f in funcs]
    while True:
        live = [k for k, row in enumerate(rows) if row.get(coord)]
        if not live:
            return 0
        if len(live) == 1:
            break
        pivot = min(live, key=lambda k: abs(rows[k][coord]))
        prow = rows[pivot]
        for k in live:
            q = rows[k][coord] // prow[coord]
            if k != pivot and q:
                row = rows[k]
                for c, e in prow.items():
                    row[c] = row.get(c, 0) - q * e
    pivot = live[0]
    index = {c: k for k, c in enumerate(_flag(div)[1:])}
    rest = []
    for k, row in enumerate(rows):
        if k != pivot:
            vec = [0] * len(index)
            for c, e in row.items():
                if c in index:
                    vec[index[c]] = e
            rest.append(vec)
    return (-1) ** pivot * rows[pivot][coord] * det(rest)
