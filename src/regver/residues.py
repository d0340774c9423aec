"""Exact residues for wedges of degree-0 coordinate monomials on
products of projective lines with one projective space.

The ambient carries homogeneous coordinate blocks {x_i, y_i} (one per
line) and {z_0..z_m}.  A coordinate monomial is a rational monomial whose
exponents sum to zero inside every block; these form a lattice with the
canonical basis y_1/x_1, ..., y_n/x_n, z_1/z_0, ..., z_m/z_0.

Wedge powers of that lattice are stored in coordinates over the canonical
basis (all k x k minors of the exponent matrix), so equality of wedge
elements is exact and multilinearity and alternation hold by construction.
The residue along a coordinate divisor is computed on pure wedges by the
column-operation algorithm: slot operations that add a multiple of one
slot to another leave the wedge fixed, slot swaps flip the sign, and the
valuation vector is reduced to a single entry g in the leading slot, after
which the residue is g times the restriction of the remaining slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .matrices import det

Coord = tuple[str, int]


@dataclass(frozen=True)
class Ambient:
    """(P^1)^lines x P^proj; proj == 0 means the projective factor is absent."""

    lines: int
    proj: int

    def __post_init__(self):
        if self.lines < 0 or self.proj < 0:
            raise ValueError("lines and proj must be >= 0")

    def coordinates(self) -> list[Coord]:
        coords: list[Coord] = []
        for i in range(1, self.lines + 1):
            coords.append(("x", i))
            coords.append(("y", i))
        if self.proj:
            coords.extend(("z", j) for j in range(self.proj + 1))
        return coords

    def blocks(self) -> list[list[Coord]]:
        out = [[("x", i), ("y", i)] for i in range(1, self.lines + 1)]
        if self.proj:
            out.append([("z", j) for j in range(self.proj + 1)])
        return out

    def basis_size(self) -> int:
        return self.lines + self.proj

    def basis_functions(self) -> list["CoordFunction"]:
        """Canonical lattice basis: y_i/x_i for each line, z_j/z_0 for j >= 1."""
        fns = [self.line_function(i) for i in range(1, self.lines + 1)]
        fns += [self.z_ratio(j, 0) for j in range(1, self.proj + 1)]
        return fns

    def line_function(self, i: int) -> "CoordFunction":
        if not 1 <= i <= self.lines:
            raise ValueError(f"no line {i} in {self}")
        return CoordFunction._of(self, {("y", i): 1, ("x", i): -1})

    def z_ratio(self, j: int, k: int) -> "CoordFunction":
        if not self.proj or not (0 <= j <= self.proj and 0 <= k <= self.proj):
            raise ValueError(f"no z_{j}/z_{k} in {self}")
        if j == k:
            return CoordFunction._of(self, {})
        return CoordFunction._of(self, {("z", j): 1, ("z", k): -1})

    def divisors(self) -> list["FaceDivisor"]:
        return [FaceDivisor(self, c) for c in self.coordinates()]


class CoordFunction:
    """Degree-0 monomial in the ambient coordinates."""

    __slots__ = ("ambient", "exps")

    def __init__(self, ambient: Ambient, exps):
        clean = {c: int(e) for c, e in dict(exps).items() if e}
        coords = set(ambient.coordinates())
        for c in clean:
            if c not in coords:
                raise ValueError(f"unknown coordinate {c} for {ambient}")
        for block in ambient.blocks():
            if sum(clean.get(c, 0) for c in block) != 0:
                raise ValueError(f"exponents do not sum to zero on block {block}")
        self.ambient = ambient
        self.exps = tuple(sorted(clean.items()))

    @classmethod
    def _of(cls, ambient: Ambient, exps: dict) -> "CoordFunction":
        """Unchecked constructor for a monomial derived from valid ones, whose
        integer exponents are on coordinates of ambient and sum to zero on
        every block by construction; outside input goes through the checked
        one."""
        f = object.__new__(cls)
        f.ambient = ambient
        f.exps = tuple(sorted((c, e) for c, e in exps.items() if e))
        return f

    def exponent(self, coord: Coord) -> int:
        for c, e in self.exps:
            if c == coord:
                return e
        return 0

    def __mul__(self, other: "CoordFunction") -> "CoordFunction":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        exps = dict(self.exps)
        for c, e in other.exps:
            exps[c] = exps.get(c, 0) + e
        return CoordFunction._of(self.ambient, exps)

    def __pow__(self, k: int) -> "CoordFunction":
        return CoordFunction._of(self.ambient,
                                 {c: e * k for c, e in self.exps})

    def __eq__(self, other):
        return (isinstance(other, CoordFunction)
                and self.ambient == other.ambient and self.exps == other.exps)

    def __hash__(self):
        return hash((self.ambient, self.exps))

    def basis_coordinates(self) -> list[int]:
        """Coefficients over the canonical lattice basis."""
        lines = self.ambient.lines
        vec = [0] * (lines + self.ambient.proj)
        for (kind, i), e in self.exps:
            if kind == "y":
                vec[i - 1] = e
            elif kind == "z" and i:
                vec[lines + i - 1] = e
        return vec

    def label(self) -> str:
        if not self.exps:
            return "1"
        num = [f"{c[0]}{c[1]}" + (f"^{e}" if e != 1 else "")
               for c, e in self.exps if e > 0]
        den = [f"{c[0]}{c[1]}" + (f"^{-e}" if e != -1 else "")
               for c, e in self.exps if e < 0]
        text = "*".join(num) if num else "1"
        if den:
            text += "/" + "*".join(den)
        return text

    def __repr__(self):
        return f"CoordFunction({self.label()})"


@dataclass(frozen=True)
class FaceDivisor:
    """Vanishing locus of one homogeneous coordinate."""

    ambient: Ambient
    coord: Coord

    def __post_init__(self):
        if self.coord not in self.ambient.coordinates():
            raise ValueError(f"{self.coord} is not a coordinate of {self.ambient}")

    def target(self) -> Ambient:
        kind, idx = self.coord
        if kind == "z":
            return Ambient(self.ambient.lines, self.ambient.proj - 1)
        return Ambient(self.ambient.lines - 1, self.ambient.proj)

    def map_coord(self, coord: Coord) -> Coord:
        """Image of a surviving coordinate in the target ambient."""
        kind, idx = self.coord
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

    def label(self) -> str:
        return f"{self.coord[0]}{self.coord[1]}"


def valuation(f: CoordFunction, div: FaceDivisor) -> int:
    """Exponent of the vanishing coordinate in the monomial."""
    return f.exponent(div.coord)


def restrict(f: CoordFunction, div: FaceDivisor) -> CoordFunction:
    """Read a unit along the divisor as a monomial on the divisor.

    A collapsed line block contributes a constant and is dropped; the z
    coordinates are relabelled.  Raises for a non-unit (nonzero valuation).
    """
    if valuation(f, div) != 0:
        raise ValueError(f"{f.label()} is not a unit along {div.label()}")
    kind, idx = div.coord
    target = div.target()
    exps = {}
    for c, e in f.exps:
        if kind != "z" and c[1] == idx and c[0] in ("x", "y"):
            continue  # collapsed block; exponent is forced to 0 anyway
        exps[div.map_coord(c)] = e
    return CoordFunction._of(target, exps)


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
        rows = [f.basis_coordinates() for f in funcs]
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
    """Residue of a pure wedge along a coordinate divisor.

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
                cols[k] = cols[k] * cols[pivot] ** (-q)
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
