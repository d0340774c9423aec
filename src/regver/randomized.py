"""Seeded generators of valid homological test data.

Random chain complexes are direct sums of elementary pieces (a single
free summand, or two summands joined by an integer multiplication)
conjugated by random unimodular changes of basis, so d^2 = 0 holds by
construction; only the conjugated complex is validated, as conjugation
maps d o d to P (d o d) P^-1.  A conjugation applies its random
elementary operations to the rows, and the inverse ones for the columns
to the rows of the transpose, so no unimodular matrix is built and each
operation is one comprehension; a conjugation with no operations is the
matrix itself.  Random cubical abelian groups come from
the cocubical set of tuples over a finite pointed set: level n consists of
the integer-valued functions on X^n, faces precompose with the insertion
of a marked point and degeneracies with a deletion, so all cubical
identities hold; a unimodular conjugation per level hides the product
structure.  The cells of each model are integers (a word over X by its
lexicographic rank, an interval cell by its place in the basis), and each
face and degeneracy is the 0/1 matrix of a map of cells, made by the one
builder `_selection`.  Every face and degeneracy out of level n takes its
column operations together, as one stack of rows transposed once.  The base
models are fixed by a few small integers, so `random_cubical_group` builds
and validates each one once per process and only conjugates it.

Every draw is index arithmetic on `_below`, the rejection loop over
`getrandbits` that `random.Random` itself runs for `randint`, `choice` and
`sample`: the draws, and so the instances of every seed, are the ones
those methods give, without their generic layers.
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


def _below(rng: random.Random, n: int) -> int:
    """A uniform integer in [0, n), n > 0, drawn as `random.Random` draws
    it (`_randbelow_with_getrandbits`): n.bit_length() random bits, drawn
    again until they are below n.  Then rng.randint(lo, hi) is
    lo + _below(rng, hi - lo + 1) and rng.choice(t) is
    t[_below(rng, len(t))], draw for draw."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_int_matrix(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    lo, hi = MATRIX_ENTRY_RANGE
    width = hi - lo + 1
    return IntMatrix._of(rows, cols, tuple(
        tuple([lo + _below(rng, width) for _ in range(cols)])
        for _ in range(rows)))


def _elementary_operations(rng: random.Random, n: int) -> list:
    """Six random elementary operations on Z^n (none for n < 2), as
    (kind, i, j, q): add q times entry j to entry i, swap entries i and j,
    or negate entry i.  Their product P, the first operation rightmost, is
    a random unimodular matrix, and `_conjugate` applies P and its inverse
    without building either.  The pair i != j is drawn as
    rng.sample(range(n), 2) draws it: up to 21 entries from a pool that
    moves the last entry into i's place, past 21 by redrawing j until it
    differs from i."""
    ops = []
    for _ in range(6 if n > 1 else 0):
        kind = ("add", "swap", "neg")[_below(rng, 3)]
        i = _below(rng, n)
        if n <= 21:
            j = _below(rng, n - 1)
            if j == i:
                j = n - 1
        else:
            j = _below(rng, n)
            while j == i:
                j = _below(rng, n)
        q = (-2, -1, 1, 2)[_below(rng, 4)] if kind == "add" else 0
        ops.append((kind, i, j, q))
    return ops


def _operated_rows(rows, ops: list) -> list:
    """The rows of P m, for m with rows `rows` and P the product of the
    operations ops."""
    a = list(rows)
    for kind, i, j, q in ops:
        if kind == "add":
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        elif kind == "swap":
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [-x for x in a[i]]
    return a


def _conjugate_all(maps: list, col_ops: list, cols: int) -> list:
    """P_k m_k Q^-1 for each (m_k, row operations of P_k) in maps, every
    m_k with `cols` columns and Q the product of col_ops.  The row
    operations act on each matrix's own rows; then Q^-1 acts once on the
    columns of the stack of all those rows, which are the rows of its
    transpose.  On them (Q^-1)^T is the same operations in the same
    order, each add (i, j, q) read as add (j, i, -q), the transpose of
    its inverse.  A matrix with no operations on either side is returned
    as it is (it is frozen)."""
    if not col_ops:
        return [IntMatrix._of(m.rows, m.cols, tuple(
                    map(tuple, _operated_rows(m.entries, ops))))
                if ops else m for m, ops in maps]
    rows = [r for m, ops in maps for r in _operated_rows(m.entries, ops)]
    columns = zip(*rows) if rows else [()] * cols
    transposed_inverse = [(kind, j, i, -q) if kind == "add" else
                          (kind, i, j, q) for kind, i, j, q in col_ops]
    rows = list(zip(*_operated_rows(columns, transposed_inverse)))
    out, k = [], 0
    for m, _ in maps:
        out.append(IntMatrix._of(m.rows, m.cols, tuple(rows[k:k + m.rows])))
        k += m.rows
    return out


def _conjugate(m: IntMatrix, row_ops: list, col_ops: list) -> IntMatrix:
    """P m Q^-1, with P the product of row_ops on the rows of m and Q that
    of col_ops (`_conjugate_all` of m alone)."""
    return _conjugate_all([(m, row_ops)], col_ops, m.cols)[0]


def random_chain_complex(rng: random.Random) -> ChainComplex:
    lo, hi = COMPLEX_DEGREES
    ranks = {n: 0 for n in range(lo, hi + 1)}
    arrows = []  # (degree, source index, target index, multiplier)
    for _ in range(1 + _below(rng, MAX_PIECES)):
        n = lo + _below(rng, hi - lo + 1)
        if n > lo and rng.random() < 0.7:
            arrows.append((n, ranks[n], ranks[n - 1],
                           (1, 1, 2, 3)[_below(rng, 4)]))
            ranks[n - 1] += 1
        ranks[n] += 1
    ops = {n: _elementary_operations(rng, ranks[n]) for n in ranks}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        rows = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for deg, col, row, mult in arrows:
            if deg == n:
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
    gcd(d, entries), which is the rational combination made integral.
    The unknown (n, i, j), entry (i, j) of f_n, is number
    base[n] + i a_n + j, with a_n = a.rank(n)."""
    degrees = range(min(a.lo, b.lo), max(a.hi, b.hi) + 1)
    base, nvars = {}, 0
    for n in degrees:
        base[n] = nvars
        nvars += b.rank(n) * a.rank(n)
    if nvars == 0:
        return ChainMap(a, b, {})
    equations = []
    for n in degrees[1:]:
        p, q, rb, sb = a.rank(n - 1), a.rank(n), b.rank(n - 1), b.rank(n)
        if not (rb and q):  # no equation at this degree
            continue
        da, db = a.diff(n).entries, b.diff(n).entries
        below, here = base[n - 1], base[n]
        for i in range(rb):
            for j in range(q):
                row = [0] * nvars
                # (f_{n-1} dA)_{ij} - (dB f_n)_{ij} = 0
                for k in range(p):
                    row[below + i * p + k] = da[k][j]
                for k in range(sb):
                    row[here + k * q + j] = -db[i][k]
                if any(row):
                    equations.append(row)
    basis, d = kernel(equations, nvars)
    sol = [0] * nvars
    for vec in basis:
        c = _below(rng, 5) - 2
        if c:
            sol = [s + c * v for s, v in zip(sol, vec)]
    g = gcd(d, *sol)
    ints = [s // g for s in sol]
    mats = {}
    for n in degrees:
        rows, cols = b.rank(n), a.rank(n)
        if rows and cols:
            o = base[n]
            mats[n] = IntMatrix._of(rows, cols, tuple(
                tuple(ints[o + i * cols:o + (i + 1) * cols])
                for i in range(rows)))
    return ChainMap(a, b, mats)


# -- cubical models -----------------------------------------------------------

def _selection(rows: int, cols: int, pick, by_column: bool) -> IntMatrix:
    """The rows x cols 0/1 matrix with a single 1 in each row r, at column
    pick(r), or with by_column in each column c, at row pick(c)."""
    mat = [[0] * cols for _ in range(rows)]
    for k in range(cols if by_column else rows):
        r, c = (pick(k), k) if by_column else (k, pick(k))
        mat[r][c] = 1
    return IntMatrix._of(rows, cols, tuple(map(tuple, mat)))


def function_model_cubical(point_count: int, top: int) -> CubicalGroup:
    """Integer-valued functions on tuples over a pointed set {0..s-1}.

    The points 0 and 1 are the marked endpoints; faces precompose with the
    insertion of a marked point and degeneracies with a slot deletion.  A
    word w_1..w_n is numbered by its lexicographic rank, the sum of
    w_t s^(n-t); with k = s^(slots after i), inserting j at slot i and
    deleting slot i are digit arithmetic on that number.  Each map is the
    `_selection` with the 1 of row w at the number of w's image.
    """
    if point_count < 2:
        raise ValueError("need at least the two marked points")
    s = point_count
    ranks = {n: s ** n for n in range(top + 1)}
    faces = {(n, i, j): _selection(
        ranks[n - 1], ranks[n],
        lambda r, k=s ** (n - i), j=j: (r // k * s + j) * k + r % k, False)
        for n in range(1, top + 1) for i in range(1, n + 1) for j in (0, 1)}
    degens = {(n, i): _selection(
        ranks[n + 1], ranks[n],
        lambda r, k=s ** (n + 1 - i): r // (s * k) * k + r % k, False)
        for n in range(top) for i in range(1, n + 2)}
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

    Level n is free on the two constant cells c0, c1 and the n projection
    cells p_1..p_n, numbered 0, 1 and k + 1 for p_k.  A face (i, j) sends
    p_i to c_j, the cells before it to themselves and those after it one
    down; a degeneracy at slot i moves the cells after slot i one up.
    Each map is the `_selection` with the 1 of column c at c's image.
    """
    ranks = {n: n + 2 for n in range(top + 1)}
    faces = {(n, i, j): _selection(
        n + 1, n + 2,
        lambda c, i=i, j=j: c if c <= i else j if c == i + 1 else c - 1, True)
        for n in range(1, top + 1) for i in range(1, n + 1) for j in (0, 1)}
    degens = {(n, i): _selection(n + 3, n + 2,
                                 lambda c, i=i: c if c <= i else c + 1, True)
              for n in range(top) for i in range(1, n + 2)}
    return CubicalGroup(top, ranks, faces, degens)


def conjugate_cubical(rng: random.Random, c: CubicalGroup) -> CubicalGroup:
    """c with each level's basis changed by six random elementary
    operations: every face and degeneracy takes the operations of its
    target level on its rows, and those out of one level take that
    level's inverse operations on their columns together."""
    ops = {n: _elementary_operations(rng, c.rank(n))
           for n in range(c.top + 1)}
    # the maps out of each level, as (key, matrix, row operations)
    by_source = {n: [] for n in range(c.top + 1)}
    for key, m in c.faces.items():
        by_source[key[0]].append((key, m, ops[key[0] - 1]))
    for key, m in c.degeneracies.items():
        by_source[key[0]].append((key, m, ops[key[0] + 1]))
    conjugated = {}
    for n, maps in by_source.items():
        mats = _conjugate_all([(m, row_ops) for _, m, row_ops in maps],
                              ops[n], c.rank(n))
        conjugated.update(zip([key for key, _, _ in maps], mats))
    return CubicalGroup(c.top, dict(c.ranks),
                        {key: conjugated[key] for key in c.faces},
                        {key: conjugated[key] for key in c.degeneracies})


# random_cubical_group builds and validates each base model once per process
# and only conjugates it, which leaves it as it is; the public builders
# above return a new group on every call, for callers that may change it
_function_model = cache(function_model_cubical)
_interval = cache(interval_cubical)
_constant = cache(constant_cubical)


def random_cubical_group(rng: random.Random) -> CubicalGroup:
    kind = rng.random()
    top = 1 + _below(rng, 3)
    if kind < 0.5:
        base = _function_model((2, 2, 3)[_below(rng, 3)], top)
    elif kind < 0.8:
        base = _interval(top)
    else:
        base = _constant(top)
    return conjugate_cubical(rng, base)
