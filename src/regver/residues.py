"""Exact residues for wedges of degree-0 coordinate monomials on
products of projective lines with one projective space.

The ambient carries homogeneous coordinate blocks {x_i, y_i} (one per
line) and {z_0..z_m}.  A coordinate monomial is a rational monomial whose
exponents sum to zero inside every block; these form a lattice with the
canonical basis y_1/x_1, ..., y_n/x_n, z_1/z_0, ..., z_m/z_0.

The boundary sweeps need one residue per coordinate divisor: that of the
top wedge of the basis, which lies in the top wedge power of the target
lattice and so has one integer coordinate, on the whole target basis.
residue_tuple computes it by the column-operation algorithm: slot
operations that add a multiple of one slot to another leave the wedge
fixed, slot swaps flip the sign, and the valuation vector is reduced to a
single entry g in the leading slot, after which the residue is g times
the determinant of the restrictions of the remaining slots.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def residue_tuple(funcs, div: FaceDivisor) -> int:
    """Residue of the top wedge of funcs along a coordinate divisor, as its
    one coordinate on the whole target basis.

    funcs are N functions on the divisor's ambient, of basis size N.
    Integer slot operations (invariant) and swaps (sign -1) reduce the
    valuation vector to a single entry g, moved to the leading slot with
    the sign of that move; the residue is g times the restriction of the
    remaining N-1 slots, whose wedge is the determinant of their basis
    coordinates times the target basis.  A wedge of units
    has residue 0.  The pivot is the leftmost slot of minimal absolute
    valuation (a minimal one makes the euclidean reduction progress); the
    result is alternating in the slots, so the tie-break does not change it.
    """
    cols = list(funcs)
    amb = div.ambient
    if len(cols) != amb.basis_size() or any(f.ambient != amb for f in cols):
        raise ValueError(f"residue needs {amb.basis_size()} functions on {amb}")
    vals = [valuation(f, div) for f in cols]
    while True:
        live = [k for k, v in enumerate(vals) if v]
        if not live:
            return 0
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
    pivot = live[0]
    rest = [restrict(f, div).basis_coordinates()
            for k, f in enumerate(cols) if k != pivot]
    return (-1) ** pivot * vals[pivot] * det(rest)
