"""Seeded generators of valid homological test data.

Random chain complexes are direct sums of elementary pieces (a single
free summand, or two summands joined by an integer multiplication)
conjugated by random unimodular changes of basis, so d^2 = 0 holds by
construction; only the conjugated complex is validated, as conjugation
maps d o d to P (d o d) P^-1.  A conjugation applies its random
elementary operations to the rows, and the inverse ones for the columns
to the rows of the transpose, so no unimodular matrix is built and each
operation is one comprehension.  Random cubical abelian groups come from
the cocubical set of tuples over a finite pointed set: level n consists of
the integer-valued functions on X^n, faces precompose with the insertion
of a marked point and degeneracies with a deletion, so all cubical
identities hold; a unimodular conjugation per level hides the product
structure.  The base
models are fixed by a few small integers, so `random_cubical_group` builds
and validates each one once per process and only conjugates it.
"""

from __future__ import annotations

import random
from functools import cache
from math import gcd

from .homology import ChainComplex, ChainMap, CubicalGroup
from .matrices import IntMatrix, kernel

MATRIX_ENTRY_RANGE = (-3, 3)
# the degrees of a random chain complex and its most elementary pieces
COMPLEX_DEGREES = (0, 3)
MAX_PIECES = 4


def random_int_matrix(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    lo, hi = MATRIX_ENTRY_RANGE
    return IntMatrix._of(rows, cols, tuple(
        tuple([rng.randint(lo, hi) for _ in range(cols)])
        for _ in range(rows)))


def _elementary_operations(rng: random.Random, n: int) -> list:
    """Six random elementary operations on Z^n (none for n < 2), as
    (kind, i, j, q): add q times entry j to entry i, swap entries i and j,
    or negate entry i.  Their product P, the first operation rightmost, is
    a random unimodular matrix, and `_conjugate` applies P and its inverse
    without building either."""
    ops = []
    for _ in range(6 if n > 1 else 0):
        kind = rng.choice(("add", "swap", "neg"))
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2)) if kind == "add" else 0
        ops.append((kind, i, j, q))
    return ops


def _conjugate(m: IntMatrix, row_ops: list, col_ops: list) -> IntMatrix:
    """P m Q^-1, with P the product of row_ops on the rows of m and Q that
    of col_ops: each operation of row_ops in turn acts on the rows, then
    the inverse of each operation of col_ops in turn on the columns, which
    are the rows of the transpose."""
    a = list(m.entries)
    for kind, i, j, q in row_ops:
        if kind == "add":
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        elif kind == "swap":
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [-x for x in a[i]]
    if not col_ops:  # so always with no columns, which zip cannot restore
        return IntMatrix._of(m.rows, m.cols, tuple(map(tuple, a)))
    t = list(zip(*a)) if a else [()] * m.cols  # the columns
    for kind, i, j, q in col_ops:
        if kind == "add":
            t[j] = [x - q * y for x, y in zip(t[j], t[i])]
        elif kind == "swap":
            t[i], t[j] = t[j], t[i]
        else:
            t[i] = [-x for x in t[i]]
    return IntMatrix._of(m.rows, m.cols, tuple(zip(*t)))


def random_chain_complex(rng: random.Random) -> ChainComplex:
    lo, hi = COMPLEX_DEGREES
    ranks = {n: 0 for n in range(lo, hi + 1)}
    blocks = []  # (degree, multiplier) with multiplier 0 meaning a lone summand
    for _ in range(rng.randint(1, MAX_PIECES)):
        n = rng.randint(lo, hi)
        if n > lo and rng.random() < 0.7:
            blocks.append((n, rng.choice((1, 1, 2, 3))))
            ranks[n] += 1
            ranks[n - 1] += 1
        else:
            blocks.append((n, 0))
            ranks[n] += 1
    # assemble block-diagonal differentials
    offsets = {n: 0 for n in ranks}
    position = {}
    for k, (n, mult) in enumerate(blocks):
        position[k] = (n, offsets[n])
        offsets[n] += 1
        if mult:
            position[(k, "target")] = (n - 1, offsets[n - 1])
            offsets[n - 1] += 1
    ops = {n: _elementary_operations(rng, ranks[n]) for n in ranks}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        rows = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for k, (deg, mult) in enumerate(blocks):
            if mult and deg == n:
                _, col = position[k]
                _, row = position[(k, "target")]
                rows[row][col] = mult
        block = IntMatrix._of(ranks[n - 1], ranks[n],
                              tuple(map(tuple, rows)))
        diffs[n] = _conjugate(block, ops[n - 1], ops[n])
    # only the conjugated complex is validated: with d' = P d P^-1 in each
    # degree, d o d = P^-1 (d' o d') P vanishes exactly when d' o d' does
    return ChainComplex(lo, hi, ranks, diffs)


def random_chain_map(rng: random.Random, a: ChainComplex,
                     b: ChainComplex) -> ChainMap:
    """Random integer solution of the chain-map equations, found by an exact
    kernel computation over all entries at once: a random combination of
    the kernel vectors (the reduced-echelon basis times d > 0), divided by
    gcd(d, entries), which is the rational combination made integral."""
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
                row = [0] * nvars
                # (f_{n-1} dA)_{ij} - (dB f_n)_{ij} = 0
                for k in range(a.rank(n - 1)):
                    row[var_index[(n - 1, i, k)]] += da.entries[k][j]
                for k in range(b.rank(n)):
                    row[var_index[(n, k, j)]] -= db.entries[i][k]
                if any(row):
                    equations.append(row)
    if nvars == 0:
        return ChainMap(a, b, {})
    basis, d = kernel(equations, nvars)
    sol = [0] * nvars
    for vec in basis:
        c = rng.randint(-2, 2)
        if c:
            sol = [s + c * v for s, v in zip(sol, vec)]
    g = gcd(d, *sol)
    ints = [s // g for s in sol]
    mats = {}
    for n in degrees:
        if b.rank(n) and a.rank(n):
            mats[n] = IntMatrix._of(b.rank(n), a.rank(n), tuple(
                tuple([ints[var_index[(n, i, j)]] for j in range(a.rank(n))])
                for i in range(b.rank(n))))
    return ChainMap(a, b, mats)


# -- cubical models -----------------------------------------------------------

def function_model_cubical(point_count: int, top: int) -> CubicalGroup:
    """Integer-valued functions on tuples over a pointed set {0..s-1}.

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


def constant_cubical(top: int) -> CubicalGroup:
    """Free cubical abelian group on a single 0-cube: rank one everywhere,
    all structure maps the identity."""
    one = IntMatrix.identity(1)
    ranks = {n: 1 for n in range(top + 1)}
    faces = {(n, i, j): one for n in range(1, top + 1)
             for i in range(1, n + 1) for j in (0, 1)}
    degens = {(n, i): one for n in range(top) for i in range(1, n + 2)}
    return CubicalGroup(top, ranks, faces, degens)


def interval_cubical(top: int) -> CubicalGroup:
    """Free cubical abelian group on a single 1-cube.

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


def conjugate_cubical(rng: random.Random, c: CubicalGroup) -> CubicalGroup:
    ops = {n: _elementary_operations(rng, c.rank(n))
           for n in range(c.top + 1)}
    faces = {(n, i, j): _conjugate(m, ops[n - 1], ops[n])
             for (n, i, j), m in c.faces.items()}
    degens = {(n, i): _conjugate(m, ops[n + 1], ops[n])
              for (n, i), m in c.degeneracies.items()}
    return CubicalGroup(c.top, dict(c.ranks), faces, degens)


# random_cubical_group builds and validates each base model once per process
# and only conjugates it, which leaves it as it is; the public builders
# above return a new group on every call, for callers that may change it
_function_model = cache(function_model_cubical)
_interval = cache(interval_cubical)
_constant = cache(constant_cubical)


def random_cubical_group(rng: random.Random) -> CubicalGroup:
    kind = rng.random()
    top = rng.randint(1, 3)
    if kind < 0.5:
        base = _function_model(rng.choice((2, 2, 3)), min(top, 3))
    elif kind < 0.8:
        base = _interval(top)
    else:
        base = _constant(top)
    return conjugate_cubical(rng, base)
