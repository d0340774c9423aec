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

Symbols flagged ``closed`` have a vanishing second derivative (the
log|f|^2-type generators); LaTeX writes their factors in log units.

FormExpr is the output format of the package: the alternating forms are
held and compared by the kind counts of their S_m-orbit representatives
(regver.counts), which counts.unfold and counts.unfold_head expand into
canonical monomials for `regver expand` and for failing reports; those
two are the package's only builders of a FormExpr.  Its arithmetic is
what comparing two such outputs needs: sums, negation, rational scaling
and is_zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO, DEL, DELBAR, DELDELBAR = 0, 1, 2, 3

KIND_NAMES = {ZERO: "u", DEL: "del", DELBAR: "delbar", DELDELBAR: "deldelbar"}

_DEGREE = (0, 1, 1, 2)


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


class FormExpr:
    """Rational combination of canonical wedge monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms are assumed canonical
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, terms: dict) -> "FormExpr":
        """Wrap a fresh canonical dict that holds no zero coefficient,
        without copying or filtering it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "FormExpr":
        return cls()

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
