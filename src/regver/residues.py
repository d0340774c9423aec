"""Exact residues for wedges of degree-0 coordinate monomials on
products of projective lines with one projective space.

The ambient carries homogeneous coordinate blocks {x_i, y_i} (one per
line) and {z_0..z_m}.  A coordinate monomial is a rational monomial whose
exponents sum to zero inside every block; these form a lattice with the
canonical basis y_1/x_1, ..., y_n/x_n, z_1/z_0, ..., z_m/z_0.

The boundary sweeps need one residue per coordinate divisor, that of the
top wedge of the basis: it lies in the top wedge power of the target
lattice, so it has one integer coordinate.  residue_tuple computes it by
one slot reduction of sparse integer exponent rows along a flag of
coordinates: the divisor's, then those that read the target's basis
(_flag, the one place that relabels coordinates).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

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
        return [c for block in self.blocks() for c in block]

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
        """Unchecked constructor for the basis and ratio monomials, whose
        integer exponents are on coordinates of ambient and sum to zero on
        every block by construction; outside input goes through the checked
        one."""
        f = object.__new__(cls)
        f.ambient = ambient
        f.exps = tuple(sorted((c, e) for c, e in exps.items() if e))
        return f

    def __eq__(self, other):
        return (isinstance(other, CoordFunction)
                and self.ambient == other.ambient and self.exps == other.exps)

    def __hash__(self):
        return hash((self.ambient, self.exps))

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

    def label(self) -> str:
        return f"{self.coord[0]}{self.coord[1]}"


def _flag(div: FaceDivisor) -> list[Coord]:
    """The divisor's coordinate, then the coordinates that read the target's
    basis, in its order: the y of every other line, then every surviving z
    after the first (which becomes the target's z_0).  A unit carries no
    exponent on the divisor's collapsed line block or on the vanishing z,
    so its exponents on the rest are its restriction."""
    kind, idx = div.coord
    amb = div.ambient
    ys = [("y", i) for i in range(1, amb.lines + 1) if kind == "z" or i != idx]
    zs = [("z", j) for j in range(amb.proj + 1) if kind != "z" or j != idx]
    return [div.coord, *ys, *zs[1:]]


def residue_tuple(funcs, div: FaceDivisor) -> int:
    """Residue of the top wedge of funcs along a coordinate divisor, as its
    one coordinate on the whole target basis.

    funcs are N functions on the divisor's ambient, of basis size N, read
    into sparse exponent rows on the flag (_flag): dropping the other
    coordinates is the restriction.  Along each flag coordinate, slot
    operations row_k -= q row_pivot (invariant) leave one row in play
    holding it, the pivot of least absolute entry; its entry, signed by
    (-1)^(its position among the rows in play), multiplies into the
    residue and the row drops out.  The pivots form a triangular matrix:
    the first is the valuation, the others the restricted wedge.
    """
    funcs = list(funcs)
    amb = div.ambient
    if len(funcs) != amb.basis_size() or any(
            f.ambient is not amb and f.ambient != amb for f in funcs):
        raise ValueError(f"residue needs {amb.basis_size()} functions on {amb}")
    flag = dict.fromkeys(_flag(div))  # in order, with fast membership
    rows = [{c: e for c, e in f.exps if c in flag} for f in funcs]
    holders = {}  # coordinate -> every row that has held it, grow-only
    for k, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, []).append(k)
    in_play = list(range(len(rows)))
    result = 1
    for c in flag:
        live = [k for k in holders.get(c, ()) if rows[k].get(c)]
        while len(live) > 1:
            pivot = min(live, key=lambda k: abs(rows[k][c]))
            prow = rows[pivot]
            for k in live:
                q = rows[k][c] // prow[c]
                if k != pivot and q:
                    row = rows[k]
                    for d, e in prow.items():
                        if d not in row:
                            holders[d].append(k)
                        row[d] = row.get(d, 0) - q * e
            live = [k for k in live if rows[k][c]]
        if not live:
            return 0
        pivot = live[0]
        position = bisect_left(in_play, pivot)
        del in_play[position]
        result *= (-1) ** position * rows[pivot][c]
        rows[pivot] = {}
    return result
