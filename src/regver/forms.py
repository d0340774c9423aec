"""Canonical graded-commutative algebra of formal differential-form monomials.

Monomials are wedge products of four factor kinds attached to abstract
degree-0 symbols u: the symbol itself (degree 0, bidegree (0,0)), del u
(1, (1,0)), delbar u (1, (0,1)) and the composite second derivative
deldelbar u (2, (1,1)).  An expression is a map from canonically ordered
factor tuples to rational coefficients, so expression equality is plain
map equality.

Canonical factor order puts degree-0 factors first (by symbol id), then
the derivative factors sorted by (symbol id, kind).  Reordering absorbs
the Koszul sign into the coefficient: transposing two odd-degree factors
flips the sign, even-degree factors commute freely, and a repeated
odd-degree factor kills the monomial.  Degree-0 factors may repeat.

Sign convention for the second derivative: deldelbar u is del(delbar(u)),
so delbar(del_(u)) == -deldelbar(u).  Symbols flagged ``closed`` have a
vanishing second derivative (the log|f|^2-type generators).  There is no
deeper alphabet: del_ and delbar annihilate all derivative factors.

An alternating form on m interchangeable symbols is fixed by its
coefficients on the S_m-orbit representatives of its monomials: the
monomials with one factor per symbol whose kind word is sorted along the
symbols.  The package holds those coefficients by the kind counts of the
representatives (regver.counts); unfold and unfold_head expand the
representatives back into the alternating form.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

ZERO, DEL, DELBAR, DELDELBAR = 0, 1, 2, 3

KIND_NAMES = {ZERO: "u", DEL: "del", DELBAR: "delbar", DELDELBAR: "deldelbar"}

_DEGREE = (0, 1, 1, 2)
_BIDEGREE = ((0, 0), (1, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class Symbol:
    """Abstract degree-0 generator; ids must be unique within a context."""

    index: int
    name: str = ""
    closed: bool = False  # second derivative vanishes

    def __hash__(self):
        # ids are unique within a context, so the index alone spreads the
        # keys; equality still compares every field
        return self.index

    def label(self) -> str:
        return self.name or f"u{self.index}"


def symbols(m: int) -> list[Symbol]:
    return [Symbol(k + 1, f"u{k + 1}") for k in range(m)]


def _sort_key(factor):
    kind, sym = factor
    if kind == ZERO:
        return (0, sym.index, kind)
    return (1, sym.index, kind)


def canonicalize(factors):
    """Sort a factor sequence into canonical order.

    Returns (sign, tuple) with the Koszul sign of the sorting permutation,
    or (0, ()) when the monomial vanishes (repeated odd factor).
    """
    fs = list(factors)
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j > 0 and _sort_key(fs[j - 1]) > _sort_key(fs[j]):
            if _DEGREE[fs[j - 1][0]] % 2 and _DEGREE[fs[j][0]] % 2:
                sign = -sign
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1
    for a, b in zip(fs, fs[1:]):
        if a == b and _DEGREE[a[0]] % 2:
            return 0, ()
    return sign, tuple(fs)


def monomial_bidegree(mono) -> tuple[int, int]:
    a = sum(_BIDEGREE[kind][0] for kind, _ in mono)
    b = sum(_BIDEGREE[kind][1] for kind, _ in mono)
    return a, b


class FormExpr:
    """Rational combination of canonical wedge monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms are assumed canonical; use from_terms for raw factor lists
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, terms: dict) -> "FormExpr":
        """Wrap a fresh canonical dict that holds no zero coefficient,
        without copying or filtering it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def from_terms(cls, pairs) -> "FormExpr":
        """Accumulate (coefficient, factor-sequence) pairs, canonicalizing."""
        acc = {}
        for coeff, factors in pairs:
            coeff = Fraction(coeff)
            if not coeff:
                continue
            sign, mono = canonicalize(factors)
            if sign == 0:
                continue
            c = acc.get(mono, _ZERO_FRAC) + sign * coeff
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return cls._of(acc)

    @classmethod
    def zero(cls) -> "FormExpr":
        return cls()

    @classmethod
    def monomial(cls, coeff, factors) -> "FormExpr":
        return cls.from_terms([(coeff, factors)])

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, FormExpr):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO_FRAC) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return FormExpr._of(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FormExpr._of({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return FormExpr()
            return FormExpr._of({m: c * q for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "FormExpr(0)"
        return f"FormExpr({self.to_text()})"

    def to_text(self) -> str:
        parts = []
        for mono in sorted(self.terms, key=lambda m: tuple(map(_sort_key, m))):
            c = self.terms[mono]
            if mono:
                body = _monomial_text(mono)
                parts.append(f"({c})·{body}" if c != 1 else body)
            else:
                parts.append(str(c))
        return " + ".join(parts)


_ZERO_FRAC = Fraction(0)


def _factor_text(factor) -> str:
    kind, sym = factor
    name = sym.label()
    return name if kind == ZERO else f"{KIND_NAMES[kind]}({name})"


def _monomial_text(mono) -> str:
    return " ".join(_factor_text(f) for f in mono) or "1"


def gen(sym: Symbol) -> FormExpr:
    """The degree-0 generator expression of a symbol."""
    return FormExpr({((ZERO, sym),): Fraction(1)})


def factor_expr(kind: int, sym: Symbol) -> FormExpr:
    return FormExpr.monomial(1, ((kind, sym),))


def unfold(folded: FormExpr, syms) -> FormExpr:
    """The alternating form whose representative coefficients are given:
    each representative is expanded over the distinct arrangements of its
    kind word, with sgn(sigma) times the Koszul sign.  ValueError for a
    monomial that is not a representative over syms."""
    # distinct representatives have disjoint orbits and distinct
    # arrangements give distinct monomials, so nothing needs summing
    streams = _arrangement_streams(folded, syms)
    return FormExpr._of({mono: c for stream in streams
                         for _, mono, c in stream})


def unfold_head(folded: FormExpr, syms, limit: int) -> FormExpr:
    """The first `limit` monomials of unfold(folded, syms) in canonical
    order (the order of to_json_obj), unfolding nothing else.

    Every representative's arrangements are generated in that order (the
    degree-0 slots by increasing symbol id, then the other kinds on the
    remaining symbols in lexicographic order) and the streams are merged.
    Needs symbols with distinct ids.
    """
    streams = _arrangement_streams(folded, syms)
    return FormExpr._of({mono: c for _, mono, c in
                         islice(heapq.merge(*streams), limit)})


def _arrangement_streams(folded: FormExpr, syms) -> list:
    """One _sorted_arrangements stream per representative of folded; none
    when syms repeats a symbol, since the alternation then vanishes."""
    syms = list(syms)
    m = len(syms)
    pos = {s: k for k, s in enumerate(syms)}
    if len(pos) != m:
        return []
    by_id = sorted(range(m), key=lambda k: syms[k].index)
    return [_sorted_arrangements(rep, coeff, _rep_word(rep, pos, m), by_id,
                                 syms, pos)
            for rep, coeff in folded.terms.items()]


def _sorted_arrangements(rep, coeff, word, by_id, syms, pos):
    """(sort key, monomial, coefficient) of each arrangement of a
    representative, in increasing sort key."""
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
            for kind, slots in blocks.items():
                for src, dst in zip(slots, sorted(targets[kind])):
                    perm[src] = dst
            sign, mono = canonicalize(_relabel(rep, perm, syms, pos))
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


def _kind_word(mono, pos, m) -> list:
    """The kind of the factor on each slot of a multilinear monomial."""
    word = [None] * m
    for kind, sym in mono:
        k = pos.get(sym)
        if k is None or word[k] is not None:
            raise ValueError(f"monomial is not multilinear in the "
                             f"symbols: {_monomial_text(mono)}")
        word[k] = kind
    if None in word:
        raise ValueError(f"monomial misses a symbol: {_monomial_text(mono)}")
    return word


def _rep_word(rep, pos, m) -> list:
    """The kind word of an orbit representative, which is sorted."""
    word = _kind_word(rep, pos, m)
    if any(a > b for a, b in zip(word, word[1:])):
        raise ValueError(f"not an orbit representative: {_monomial_text(rep)}")
    return word


def _perm_sign(perm) -> int:
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                     if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


def _relabel(mono, perm, syms, pos):
    """The factors of mono with the symbol of slot k moved to slot perm[k]."""
    return [(kind, syms[perm[pos[sym]]]) for kind, sym in mono]


# Factor-level actions. del_(delbar u) = +deldelbar u, delbar(del_ u) =
# -deldelbar u; everything else with a derivative factor dies.
_DEL_ACTION = {ZERO: (1, DEL), DEL: None, DELBAR: (1, DELDELBAR), DELDELBAR: None}
_DELBAR_ACTION = {ZERO: (1, DELBAR), DEL: (-1, DELDELBAR), DELBAR: None,
                  DELDELBAR: None}


def _derivation(expr: FormExpr, action) -> FormExpr:
    pairs = []
    for mono, coeff in expr.terms.items():
        prefix_odd = False
        for pos, (kind, sym) in enumerate(mono):
            act = action[kind]
            if act is not None and not (sym.closed and act[1] == DELDELBAR):
                s, newkind = act
                c = coeff * s
                if prefix_odd:
                    c = -c
                pairs.append((c, mono[:pos] + ((newkind, sym),) + mono[pos + 1:]))
            if _DEGREE[kind] % 2:
                prefix_odd = not prefix_odd
    return FormExpr.from_terms(pairs)


def del_(a: FormExpr) -> FormExpr:
    """Holomorphic Dolbeault derivation, bidegree (1,0)."""
    return _derivation(a, _DEL_ACTION)


def delbar(a: FormExpr) -> FormExpr:
    """Antiholomorphic Dolbeault derivation, bidegree (0,1)."""
    return _derivation(a, _DELBAR_ACTION)


def d(a: FormExpr) -> FormExpr:
    """Total differential del_ + delbar; satisfies d(d(a)) == 0."""
    return del_(a) + delbar(a)


def project_if(a: FormExpr, keep) -> FormExpr:
    """Keep the monomials whose bidegree satisfies the predicate."""
    return FormExpr._of({m: c for m, c in a.terms.items()
                         if keep(*monomial_bidegree(m))})


def substitute_zero(a: FormExpr, sym: Symbol) -> FormExpr:
    """Drop every monomial containing any factor built on the symbol."""
    return FormExpr._of({m: c for m, c in a.terms.items()
                         if all(s != sym for _, s in m)})


# -- serialization ----------------------------------------------------------

def to_json_obj(a: FormExpr) -> list:
    """Stable JSON shape: canonically sorted list of monomial records."""
    out = []
    for mono in sorted(a.terms, key=lambda m: tuple(map(_sort_key, m))):
        c = a.terms[mono]
        out.append({
            "coeff": f"{c.numerator}/{c.denominator}",
            "factors": [{"kind": KIND_NAMES[k], "symbol": s.label()}
                        for k, s in mono],
        })
    return out


_LATEX_PLAIN = {ZERO: "{sym}", DEL: r"\partial {sym}", DELBAR: r"\bar\partial {sym}",
                DELDELBAR: r"\partial\bar\partial {sym}"}
_LATEX_LOG = {ZERO: r"\log\lvert {sym}\rvert^2", DEL: r"\tfrac{{d({sym})}}{{{sym}}}",
              DELBAR: r"\tfrac{{d\overline{{{sym}}}}}{{\overline{{{sym}}}}}",
              DELDELBAR: r"\partial\bar\partial\log\lvert {sym}\rvert^2"}


def _latex_symbol(name: str) -> str:
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    if head and tail and head.isalpha():
        return f"{head}_{{{tail}}}"
    return name


def to_latex(a: FormExpr) -> str:
    if not a.terms:
        return "0"
    chunks = []
    for mono in sorted(a.terms, key=lambda m: tuple(map(_sort_key, m))):
        c = a.terms[mono]
        if c.denominator == 1:
            coeff = str(c.numerator)
        else:
            sign = "-" if c < 0 else ""
            coeff = f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"
        factors = []
        for kind, sym in mono:
            table = _LATEX_LOG if sym.closed else _LATEX_PLAIN
            factors.append(table[kind].format(sym=_latex_symbol(sym.label())))
        body = r" \wedge ".join(factors) if factors else "1"
        if coeff == "1" and factors:
            chunks.append(body)
        elif coeff == "-1" and factors:
            chunks.append("-" + body)
        else:
            chunks.append(f"{coeff} \\, {body}" if factors else coeff)
    text = " + ".join(chunks)
    return text.replace("+ -", "- ")
