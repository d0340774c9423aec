"""Canonical graded-commutative algebra of formal differential-form monomials.

Monomials are wedge products of four factor kinds attached to abstract
degree-0 symbols u: the symbol itself (degree 0, bidegree (0,0)), del u
(1, (1,0)), delbar u (1, (0,1)) and the composite second derivative
deldelbar u (2, (1,1)).  A term is a canonically ordered factor tuple with a
rational coefficient.

Canonical factor order puts degree-0 factors first (by symbol id), then
the derivative factors sorted by (symbol id, kind); monomials compare by
their factors' keys in that order, (0, id, kind) for a degree-0 factor
and (1, id, kind) for the others.

Symbols flagged ``closed`` have a vanishing second derivative (the
log|f|^2-type generators); LaTeX writes their factors in log units.

The package holds no form as a map of monomials: the alternating forms
are held and compared by the kind counts of their S_m-orbit
representatives (regver.counts), and counts.monomials expands them into
a stream of (monomial, coefficient) pairs in canonical order, each
monomial canonical as made with its Koszul sign in the coefficient, for
`regver expand` and for the first terms of a failing report.  The JSON
and LaTeX writers below read that stream as it comes and sort nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

ZERO, DEL, DELBAR, DELDELBAR = 0, 1, 2, 3

KIND_NAMES = {ZERO: "u", DEL: "del", DELBAR: "delbar", DELDELBAR: "deldelbar"}


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


# -- serialization ----------------------------------------------------------

def to_json_obj(pairs) -> list:
    """The JSON records of (monomial, coefficient) pairs, in their order."""
    return [{"coeff": f"{c.numerator}/{c.denominator}",
             "factors": [{"kind": KIND_NAMES[k], "symbol": s.label()}
                         for k, s in mono]}
            for mono, c in pairs]


_RECORD = '    {{\n      "coeff": "{}",\n      "factors": {}\n    }}'
_FACTOR = ('        {{\n          "kind": "{}",\n'
           '          "symbol": {}\n        }}')


def to_json_text(pairs):
    """The text of to_json_obj(pairs), record by record from the templates
    above, as json.dumps(..., sort_keys=True, indent=2) writes that list
    as a value of the top-level object; json.dumps escapes each label."""
    factors = {}  # factor -> its text, rendered once
    sep = "[\n"
    for mono, c in pairs:
        for f in mono:
            if f not in factors:
                factors[f] = _FACTOR.format(KIND_NAMES[f[0]],
                                            json.dumps(f[1].label()))
        body = ",\n".join(factors[f] for f in mono)
        yield sep + _RECORD.format(f"{c.numerator}/{c.denominator}",
                                   f"[\n{body}\n      ]" if mono else "[]")
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


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


def to_latex(pairs):
    """The LaTeX sum of (monomial, coefficient) pairs, term by term; "0"
    for no pairs."""
    factors = {}  # factor -> its text, rendered once
    sep = ""
    for mono, c in pairs:
        if c.denominator == 1:
            coeff = str(c.numerator)
        else:
            sign = "-" if c < 0 else ""
            coeff = f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"
        for f in mono:
            if f not in factors:
                kind, sym = f
                table = _LATEX_LOG if sym.closed else _LATEX_PLAIN
                factors[f] = table[kind].format(
                    sym=_latex_symbol(sym.label()))
        body = r" \wedge ".join(factors[f] for f in mono) if mono else "1"
        if coeff == "1" and mono:
            chunk = body
        elif coeff == "-1" and mono:
            chunk = "-" + body
        else:
            chunk = f"{coeff} \\, {body}" if mono else coeff
        # a negative term is subtracted: " - x", not " + -x"
        yield f" - {chunk[1:]}" if sep and chunk[0] == "-" else sep + chunk
        sep = " + "
    if not sep:
        yield "0"
