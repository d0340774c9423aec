"""Folded alternating forms in kind-count coordinates.

An alternating form on n interchangeable symbols is fixed by its
coefficients on the S_n-orbit representatives, the monomials whose kind
word is sorted along the slots.  An orbit whose even kind
class (u or deldelbar) holds two symbols cancels, so a representative is
fixed by its kind counts (z, q, p): z in {0, 1} slots carry u, q in {0, 1}
deldelbar, p del and the other r = n - z - q - p delbar; its bidegree is
(p + q, r + q).  `Counts` keeps one coefficient per triple, that of the
representative with its factors in slot order.  The operators multiply by
integers only, so integer coordinates stay integers.

Each operator the identity suites use commutes with relabelling the
symbols and is a closed formula per coordinate, which counts the slots
that change kind class and the Koszul sign of sorting them back: the
package's only derivations (deldelbar u is del(delbar u)), projections
and Deligne differential and product.  The induced product
sum_j (-1)^(j-1) x(u_j) ^ Y(u's without u_j) of a one-slot x (`slot`)
prepends a slot (induction from S_1 x S_(n-1) to S_n).  The tests check
every formula against the symbol-level calculus of tests/form_oracle.py.
_reps turns each key into its sorted kind word, which unfold expands.
Every monomial has one factor per slot, so scaling every factor by s
scales a form on n slots by s**n: that is how T_n moves into log units.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations, islice

from .forms import (DEL, DELBAR, DELDELBAR, ZERO, FormExpr, _sort_key,
                    canonicalize)

# the coordinates of a one-slot factor of each kind
_SLOT = {ZERO: (1, 0, 0), DEL: (0, 0, 1), DELBAR: (0, 0, 0),
         DELDELBAR: (0, 1, 0)}


class Counts:
    """A folded alternating form on `slots` symbols, all open or all
    closed, keyed by the kind counts (z, q, p) of its representatives."""

    __slots__ = ("slots", "closed", "terms")

    def __init__(self, slots: int, terms: dict, closed: bool = False):
        self.slots = slots
        self.closed = closed
        self.terms = {k: c for k, c in terms.items() if c}

    def __eq__(self, other):
        if isinstance(other, Counts):
            return (self.slots, self.terms) == (other.slots, other.terms)
        return NotImplemented

    def __add__(self, other):
        return _collect(self, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, q):
        return Counts(self.slots, {k: c * q for k, c in self.terms.items()},
                      self.closed)


def _collect(a: Counts, moves, slots=None) -> Counts:
    """Sum (key, coefficient) moves into a Counts like a, on `slots`."""
    out = {}
    for key, c in moves:
        out[key] = out[key] + c if key in out else c
    return Counts(a.slots if slots is None else slots, out, a.closed)


def _items(a: Counts):
    """(z, q, p, r, coefficient) of every coordinate."""
    for (z, q, p), c in a.terms.items():
        yield z, q, p, a.slots - z - q - p, c


def basis(m: int, coeffs, closed: bool = False) -> Counts:
    """The form on m slots with coordinate coeffs[a] at the representative
    u (del u)^a (delbar u)^(m-1-a)."""
    return Counts(m, {(1, 0, a): c for a, c in enumerate(coeffs)}, closed)


def unfolded_len(a: Counts) -> int:
    """The monomial count of the unfolded form: n!/(p! r!) per coordinate,
    that is n!/(p+r)! C(p+r, p)."""
    return sum(math.perm(a.slots, z + q) * math.comb(p + r, p)
               for z, q, p, r, _ in _items(a))


def del_(a: Counts) -> Counts:
    """u -> del u on each u slot; delbar u -> deldelbar u on the last
    delbar slot, unless the symbols are closed."""
    moves = []
    for z, q, p, r, c in _items(a):
        if z:
            moves.append(((0, q, p + 1), c * (p + 1)))
        if not q and r and not a.closed:
            moves.append(((z, 1, p), c * (-1) ** (p + r - 1)))
    return _collect(a, moves)


def delbar(a: Counts) -> Counts:
    """u -> delbar u on each u slot; del u -> -deldelbar u on the last del
    slot, unless the symbols are closed."""
    moves = []
    for z, q, p, r, c in _items(a):
        if z:
            moves.append(((0, q, p), c * (r + 1)))
        if not q and p and not a.closed:
            moves.append(((z, 1, p - 1), c * (-1) ** (p + r)))
    return _collect(a, moves)


def d(a: Counts) -> Counts:
    return del_(a) + delbar(a)


def conjugate(a: Counts) -> Counts:
    """del and delbar swap their counts; deldelbar changes sign."""
    return _collect(a, [((z, q, r), -c if q else c)
                        for z, q, p, r, c in _items(a)])


def project_if(a: Counts, keep) -> Counts:
    """Keep the coordinates whose bidegree (p + q, r + q) satisfies keep."""
    return _collect(a, [((z, q, p), c) for z, q, p, r, c in _items(a)
                        if keep(p + q, r + q)])


def r_op(a: Counts, n: int, p: int) -> Counts:
    """The r projection of the Deligne product in degree n < 2p, twist p."""
    if n >= 2 * p:
        raise ValueError(f"r_op needs n < 2p, got n={n}, p={p}")
    fp = project_if(d(a), lambda hol, _: hol >= p)
    return fp + conjugate(fp) * (-1) ** p


def deligne_diff(a: Counts, n: int, p: int) -> Counts:
    """The twisted differential in degree n, twist p (see regver.deligne)."""
    if n >= 2 * p:
        return d(a)
    if n == 2 * p - 1:
        return del_(delbar(a)) * -2
    return project_if(d(a), lambda hol, anti: hol < p and anti < p) * -1


def wedge(x: Counts, y: Counts) -> Counts:
    """The induced wedge of a one-slot x with y: a slot of kind u, del,
    delbar or deldelbar is prepended to each representative of y and
    sorted into place, weighted by the size of the class it joins."""
    u, dl, db, ddb = (x.terms.get(_SLOT[kind])
                      for kind in (ZERO, DEL, DELBAR, DELDELBAR))
    moves = []
    for z, q, p, r, c in _items(y):
        sign = (-1) ** z
        if u and not z:
            moves.append(((1, q, p), c * u))
        if dl:
            moves.append(((z, q, p + 1), c * dl * (sign * (p + 1))))
        if db:
            moves.append(((z, q, p), c * db * (sign * (r + 1))))
        if ddb and not q:
            moves.append(((z, 1, p), c * ddb * (-1) ** (z + p + r)))
    return _collect(y, moves, y.slots + 1)


def deligne_product(x: Counts, n: int, p: int, y: Counts, m: int,
                    q: int) -> Counts:
    """The induced Deligne product of a one-slot x in degree n, twist p
    with y in degree m, twist q."""
    if n < 2 * p and m < 2 * q:
        return wedge(r_op(x, n, p), y) * (-1) ** n + wedge(x, r_op(y, m, q))
    return wedge(x, y)


def slot(kind: int, closed: bool) -> Counts:
    """The one-slot operand of a kind: the factor u, del u, delbar u or
    deldelbar u on one open or closed symbol."""
    return Counts(1, {_SLOT[kind]: 1}, closed)


def _reps(a: Counts):
    """(kind word, coefficient) of every representative; the word is
    sorted along the slots."""
    for z, q, p, r, c in _items(a):
        yield [ZERO] * z + [DEL] * p + [DELBAR] * r + [DELDELBAR] * q, c


def unfold(a: Counts, syms) -> FormExpr:
    """The alternating form on syms, one symbol per slot, with these
    coordinates: each representative expanded over the distinct
    arrangements of its kind word, with sgn(sigma) times the Koszul sign."""
    # distinct representatives have disjoint orbits and distinct
    # arrangements give distinct monomials, so nothing needs summing
    return FormExpr({mono: c for stream in _arrangement_streams(a, syms)
                     for _, mono, c in stream})


def unfold_head(a: Counts, syms, limit: int) -> FormExpr:
    """The first `limit` monomials of unfold(a, syms) in canonical order
    (the order of to_json_obj), unfolding nothing else.

    Every representative's arrangements are generated in that order (the
    degree-0 slots by increasing symbol id, then the other kinds on the
    remaining symbols in lexicographic order) and the streams are merged.
    Needs symbols with distinct ids.
    """
    return FormExpr({mono: c for _, mono, c in
                     islice(heapq.merge(*_arrangement_streams(a, syms)),
                            limit)})


def _arrangement_streams(a: Counts, syms) -> list:
    """One _sorted_arrangements stream per representative; none when syms
    repeats a symbol, since the alternation then vanishes."""
    syms = list(syms)
    if len(set(syms)) != len(syms):
        return []
    by_id = sorted(range(len(syms)), key=lambda k: syms[k].index)
    return [_sorted_arrangements(word, c, by_id, syms)
            for word, c in _reps(a)]


def _sorted_arrangements(word, coeff, by_id, syms):
    """(sort key, monomial, coefficient) of each arrangement of a kind word
    with slot-order coefficient coeff, in increasing sort key."""
    blocks = {}  # kind -> the representative's slots of that kind
    for k, kind in enumerate(word):
        blocks.setdefault(kind, []).append(k)
    others = {kind: len(ks) for kind, ks in blocks.items() if kind != ZERO}
    for zeros in combinations(by_id, len(blocks.get(ZERO, ()))):
        rest = [k for k in by_id if k not in zeros]
        for kinds in _multiset_words(others):
            targets = {ZERO: sorted(zeros)}
            for k, kind in zip(rest, kinds):
                targets.setdefault(kind, []).append(k)
            perm = [0] * len(word)
            for kind, ks in blocks.items():
                for src, dst in zip(ks, sorted(targets[kind])):
                    perm[src] = dst
            sign, mono = canonicalize(
                (kind, syms[perm[k]]) for k, kind in enumerate(word))
            yield (tuple(map(_sort_key, mono)), mono,
                   coeff * sign * _perm_sign(perm))


def _multiset_words(counts):
    """The words with the given count of each letter, in lexicographic
    order."""
    if not any(counts.values()):
        yield ()
        return
    for letter in sorted(counts):
        if counts[letter]:
            counts[letter] -= 1
            for tail in _multiset_words(counts):
                yield (letter,) + tail
            counts[letter] += 1


def _perm_sign(perm) -> int:
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                     if perm[a] > perm[b])
    return -1 if inversions % 2 else 1
