"""Slow form-level oracles that no suite uses.

`s_basis_coefficients` (formerly `regver.deligne`) reads a form's
coordinates over the S_m^i basis, and `expand_in_basis` (formerly
`regver.logforms`) resolves opaque function symbols into the basis
alphabet factor by factor; it is the independent oracle of `wang_form`.
Both are kept unchanged.

`alternate`, `build_s` and `bidegree_project` (formerly `regver.forms`
and `regver.deligne`) are the unfolded alternation, the unfolded basis
form S_m^i and the bidegree projection; no suite reaches them since the
suites compare folded forms, and the tests compare against them.

`signed_permutations` and `_omit` (formerly `regver.deligne`) and
`dlog_product`/`dlog_piece` (formerly `regver.forms`) lost their last
production caller when the identity suites moved onto folded forms.
The `oracle_*` verifiers are the unfolded bodies of the nine folded
suites as they were before those suites compared folded forms: every
comparison is full monomial-dict equality, every omitted-slot sum is
relabelled subset by subset, C_m is alternated from the single
right-nested product and Goncharov's family from its
identity-permutation terms, the boundary sweeps transport the unfolded
T_{N-1} and the diagonal check kills slots of the unfolded T_m.  Their
payloads come from `unfolded_payload`.  They read the deldelbar operand
through `ddb`, which reads `counts.slot`, so a fault patched in there
reaches both paths; their residues come from `WedgeElement.residue`
(`tests/residue_oracle.py`), which a fault test patches beside the
package's `residue_tuple`.
`relabel` is the general relabelling for any injective map; the
package's in-place rename for increasing maps is gone with the folded
boundary sweeps.

`wedge`, `conjugate` and `seed_of` (formerly `regver.forms`), `r_op`
and `deligne_product` (formerly `regver.deligne`) lost their last
production caller when the five algebraic suites moved onto kind-count
coordinates (`regver.counts`).  With `to_counts`, which reads the
coordinates of a folded form over any symbols, they make the
symbol-level route that the count formulas are checked against: an
operator acts on a seed and is folded again, `fold(op(seed_of(F)))`.
The `symbol_*` verifiers are the five suites' bodies on that route, as
they were before, and `symbol_folded_c` is C_m folded step by step.

`fold` with `_stabilizer_weight`, `unfolded_len` and `rescale_per_factor`
(formerly `regver.forms`), `s_seed` and `t_seed` (formerly
`regver.deligne`), `folded_t_log` and `wang_form` (formerly
`regver.logforms`) lost their last production caller when the boundary
sweeps and the diagonal check moved onto kind-count coordinates too.
`symbol_boundary` and `symbol_vanishing` run those bodies as they were
before: T folded from its seed, moved onto each divisor's target symbols
by `wang_form` and `relabel`, and the payloads of folded differences from
`folded_payload`.  They share `boundary_sweep` and `vanishing` with the
unfolded bodies, which build T unfolded instead.

The symbol-level calculus, `del_`, `delbar`, `d`, `project_if` with
`monomial_bidegree`, `gen`, `factor_expr` and `FormExpr.monomial`
(formerly `regver.forms`), and `DeligneElement`, `as_element`,
`deligne_diff` and `ddb` (formerly `regver.deligne`) lost their last
production caller when the one-slot operands were built as kind counts
(`counts.slot`) and `counts.unfold` learned to expand kind counts
directly.  They stay as the reference that every count operator is
checked against.  `oracle_unfold` and `oracle_unfold_head` are the
former `forms.unfold` and `forms.unfold_head`, which expand a folded
FormExpr and check that each monomial is a representative
(`_kind_word`, `_rep_word`, `_relabel`); `fold`, `alternate` and the
folded payloads use them.

`FormExpr.from_terms`, `to_form` and `substitute_zero` (formerly
`regver.forms` and `regver.counts`) lost their last production caller
when the diagonal check moved onto the keys of T_m's kind-count
coordinates; they build and kill the monomials of the oracles here.

The rest of `FormExpr`'s former arithmetic, its zero-dropping
constructor, `zero`, `is_zero`, `==`, `+`, `-`, negation, rational
scaling, `repr` and `to_text` with `_monomial_text` (formerly
`regver.forms`), had only test callers once the package compared forms
by kind counts; it lives on this module's `FormExpr` subclass, whose
operations take the package's FormExprs too.  `expected_sign` keeps
each boundary suite's own divisor signs, the reference for the one
rule `logforms._face_sign` that the three sweeps now share.

`build_t_element` (the former return value of `deligne.build_t`) and
`build_t_log_element` (formerly `regver.logforms`) annotate T_m and the
log-unit T_m with their degree and twist, and `check_element` (formerly
`DeligneElement.check`) with `monomial_degree` (formerly `regver.forms`)
validates an element's degree and bidegrees; only tests read them.

The `fraction_*` builders and verifiers are the kind-count route of the
five algebraic suites as it was before they moved onto integer
coordinates (formerly `regver.deligne` and `regver.logforms`): every
coordinate a `Fraction`, C_m with its 1/(n+1) per step, sides compared
unscaled, and `fraction_goncharov_counts`, the O(m^3) binomial sums that
the Horner builder `logforms.goncharov_counts` replaced.  `package_c`
and `package_goncharov` divide the package's integer builders back into
`Fraction`s for the tests that compare forms.
"""

import heapq
import math
from fractions import Fraction
from functools import partial
from itertools import combinations, islice, permutations
from time import perf_counter
from unittest import mock

from regver import counts, forms, logforms
from regver.counts import Counts, _multiset_words, _perm_sign, _reps
from regver.deligne import PAYLOAD_TERMS, _difference_payload, build_t, c_counts
from regver.forms import (_DEGREE, DEL, DELBAR, DELDELBAR, ZERO, Symbol,
                          _sort_key, canonicalize, symbols, to_json_obj)
from regver.logforms import (HALF, _require_closed, ambient_symbols,
                             build_t_log, default_cjm, goncharov_counts,
                             log_symbols)
from regver.report import report
from regver.residues import Ambient
from residue_oracle import WedgeElement


class FormExpr(forms.FormExpr):
    """The package's FormExpr with what only tests use (formerly on
    `forms.FormExpr`): a constructor that copies its terms and drops zero
    coefficients, equality of terms, sums, negation, rational scaling,
    `is_zero` and text, and the constructors from raw factor lists
    (`from_terms` and `monomial`).  An operation takes any
    `forms.FormExpr`, such as the package's `counts.unfold`, as its
    right operand and returns this class; the package's FormExpr has no
    operators, and `==` between two of them is identity, so a test wraps
    one side in this class or compares `.terms`."""

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__({m: c for m, c in (terms or {}).items() if c})

    @classmethod
    def zero(cls) -> "FormExpr":
        return cls()

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
            c = acc.get(mono, 0) + sign * coeff
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return cls(acc)

    @classmethod
    def monomial(cls, coeff, factors) -> "FormExpr":
        return cls.from_terms([(coeff, factors)])

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, forms.FormExpr):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, forms.FormExpr):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return FormExpr(out)

    def __neg__(self):
        return FormExpr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, forms.FormExpr):
            return NotImplemented
        return self + -FormExpr(other.terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FormExpr({m: c * q for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

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


def _factor_text(factor) -> str:
    kind, sym = factor
    name = sym.label()
    return name if kind == ZERO else f"{forms.KIND_NAMES[kind]}({name})"


def _monomial_text(mono) -> str:
    return " ".join(_factor_text(f) for f in mono) or "1"


def to_form(a: Counts, syms) -> FormExpr:
    """The form folded over syms, one symbol per slot, with these
    coordinates (formerly `counts.to_form`): each representative's kind
    word written as one monomial."""
    return FormExpr.from_terms((c, zip(word, syms)) for word, c in _reps(a))


def substitute_zero(a: forms.FormExpr, sym: Symbol) -> FormExpr:
    """Drop every monomial containing any factor built on the symbol
    (formerly `forms.substitute_zero`)."""
    return FormExpr({m: c for m, c in a.terms.items()
                     if all(s != sym for _, s in m)})


def scalar(c) -> FormExpr:
    """The constant form c (formerly `FormExpr.scalar`)."""
    c = Fraction(c)
    return FormExpr({(): c} if c else {})


# -- the symbol-level calculus -----------------------------------------------

_BIDEGREE = ((0, 0), (1, 0), (0, 1), (1, 1))


def monomial_bidegree(mono) -> tuple[int, int]:
    a = sum(_BIDEGREE[kind][0] for kind, _ in mono)
    b = sum(_BIDEGREE[kind][1] for kind, _ in mono)
    return a, b


def gen(sym: Symbol) -> FormExpr:
    """The degree-0 generator expression of a symbol."""
    return FormExpr({((ZERO, sym),): Fraction(1)})


def factor_expr(kind: int, sym: Symbol) -> FormExpr:
    return FormExpr.monomial(1, ((kind, sym),))


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
    return FormExpr({m: c for m, c in a.terms.items()
                     if keep(*monomial_bidegree(m))})


class DeligneElement:
    """FormExpr with a complex degree n and twist p."""

    __slots__ = ("expr", "degree", "twist")

    def __init__(self, expr: FormExpr, degree: int, twist: int):
        self.expr = expr
        self.degree = degree
        self.twist = twist

    def __eq__(self, other):
        return (isinstance(other, DeligneElement)
                and self.degree == other.degree
                and self.twist == other.twist
                and self.expr == other.expr)

    def __repr__(self):
        return f"DeligneElement(n={self.degree}, p={self.twist}, {self.expr!r})"


def as_element(sym: Symbol) -> DeligneElement:
    """A symbol viewed in degree 1, twist 1."""
    return DeligneElement(gen(sym), 1, 1)


def build_t_element(syms) -> DeligneElement:
    """T_m with its degree and twist m (formerly `deligne.build_t`)."""
    m = len(syms)
    return DeligneElement(build_t(syms), m, m)


def deligne_diff(x: DeligneElement) -> DeligneElement:
    n, p = x.degree, x.twist
    if n >= 2 * p:
        return DeligneElement(d(x.expr), n + 1, p)
    if n == 2 * p - 1:
        return DeligneElement(del_(delbar(x.expr)) * (-2), n + 1, p)
    kept = project_if(d(x.expr), lambda a, b: a <= p - 1 and b <= p - 1)
    return DeligneElement(-kept, n + 1, p)


def ddb(sym: Symbol) -> FormExpr:
    """The deldelbar factor of a symbol as an expression.  It is read off
    the package's one-slot operand through `counts.slot`, so a fault
    patched in there reaches the symbol-level verifiers too; unpatched it
    is factor_expr(DELDELBAR, sym) (test_counts checks that)."""
    return to_form(counts.slot(DELDELBAR, sym.closed), [sym])


def scale_deldelbar(monkeypatch):
    """Fault injection: the one-slot deldelbar operand scaled by 3, for the
    suites and `ddb` alike."""
    real = counts.slot

    def scaled(kind, closed):
        return real(kind, closed) * (3 if kind == DELDELBAR else 1)

    monkeypatch.setattr(counts, "slot", scaled)


# -- unfolding a folded FormExpr -----------------------------------------------

def oracle_unfold(folded: FormExpr, syms) -> FormExpr:
    """The alternating form whose representative coefficients are given,
    read from a folded FormExpr (formerly `forms.unfold`): each
    representative is expanded over the distinct arrangements of its kind
    word, with sgn(sigma) times the Koszul sign.  ValueError for a
    monomial that is not a representative over syms."""
    streams = _arrangement_streams(folded, syms)
    return FormExpr({mono: c for stream in streams
                     for _, mono, c in stream})


def oracle_unfold_head(folded: FormExpr, syms, limit: int) -> FormExpr:
    """The first `limit` monomials of oracle_unfold(folded, syms) in
    canonical order (formerly `forms.unfold_head`)."""
    streams = _arrangement_streams(folded, syms)
    return FormExpr({mono: c for _, mono, c in
                     islice(heapq.merge(*streams), limit)})


def _arrangement_streams(folded: FormExpr, syms) -> list:
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


def _relabel(mono, perm, syms, pos):
    """The factors of mono with the symbol of slot k moved to slot perm[k]."""
    return [(kind, syms[perm[pos[sym]]]) for kind, sym in mono]


# -- the symbol-level fold ---------------------------------------------------

def fold(seed: FormExpr, syms) -> FormExpr:
    """The coefficients of the alternation sum_sigma sgn(sigma) sigma(seed),
    sigma relabelling syms, on the S_m-orbit representatives of its
    monomials: the folded form of the alternation, which unfold expands.

    Every seed monomial must carry exactly one factor on each symbol of
    syms (ValueError otherwise).  The S_m-orbit of such a monomial is fixed
    by its per-slot kind word, and its representative is the monomial
    whose kind word is sorted along syms.  Every seed monomial moves onto
    its representative with sgn(sigma) times the Koszul sign, weighted by
    the size of its stabilizer, prod k! over the odd kind classes of size
    k; an even class holding two symbols cancels the whole orbit.  A
    repeated symbol makes the sum vanish.

    An operator op that commutes with relabelling the symbols acts on a
    folded form F as fold(op(seed), syms) for any seed whose alternation
    is unfold(F), and the induced product sum_j (-1)^(j-1) x(u_j) ^ Y(u's
    without u_j) of a one-symbol operand x and an alternating Y on
    syms[1:] is fold(x(u_1) ^ seed(Y), syms): the symbol-level route of
    the coordinate formulas in regver.counts.
    """
    syms = list(syms)
    m = len(syms)
    pos = {s: k for k, s in enumerate(syms)}
    if len(pos) != m:
        return FormExpr()
    folded = []
    for mono, coeff in seed.terms.items():
        word = _kind_word(mono, pos, m)
        weight = _stabilizer_weight(word)
        if weight:
            # the stable sort sends slot order[j] to slot j
            order = sorted(range(m), key=word.__getitem__)
            perm = [0] * m
            for j, k in enumerate(order):
                perm[k] = j
            folded.append((coeff * weight * _perm_sign(perm),
                           _relabel(mono, perm, syms, pos)))
    return FormExpr.from_terms(folded)


def _stabilizer_weight(word) -> int:
    counts = {}
    for kind in word:
        counts[kind] = counts.get(kind, 0) + 1
    weight = 1
    for kind, k in counts.items():
        if _DEGREE[kind] % 2:
            weight *= math.factorial(k)
        elif k > 1:
            return 0
    return weight


def unfolded_len(folded: FormExpr) -> int:
    """len(unfold(folded)) without unfolding: each representative stands
    for m!/prod k! distinct monomials, k running over its kind classes."""
    total = 0
    for rep in folded.terms:
        kinds = [kind for kind, _ in rep]
        size = math.factorial(len(kinds))
        for kind in set(kinds):
            size //= math.factorial(kinds.count(kind))
        total += size
    return total


def rescale_per_factor(a: FormExpr, scale) -> FormExpr:
    """Multiply each monomial by scale**(number of factors): a slot-wise
    unit change such as u = -(1/2) log|f|^2."""
    scale = Fraction(scale)
    return FormExpr({m: c * scale ** len(m) for m, c in a.terms.items()})


def s_seed(syms, i: int) -> FormExpr:
    """The one-monomial seed (-2)^m u (del u)^(i-1) (delbar u)^(m-i) whose
    alternation over the slots is S_m^i."""
    m = len(syms)
    if not 1 <= i <= m:
        raise ValueError(f"need 1 <= i <= {m}, got i={i}")
    factors = [(ZERO, syms[0])]
    factors += [(DEL, s) for s in syms[1:i]]
    factors += [(DELBAR, s) for s in syms[i:]]
    return FormExpr.monomial((-2) ** m, factors)


def t_seed(syms) -> FormExpr:
    """A seed whose alternation is T_m = (1/(2 m!)) sum_i (-1)^i S_m^i:
    the S_m^i seeds with those weights; 1 for m = 0."""
    m = len(syms)
    if m == 0:
        return scalar(1)
    c = Fraction(1, 2 * math.factorial(m))
    acc = FormExpr.zero()
    for i in range(1, m + 1):
        acc = acc + s_seed(syms, i) * (c * (-1) ** i)
    return acc


def folded_t_log(fs) -> FormExpr:
    """T_m on function slots, in log units, folded: its seed rescaled
    before folding; T_0 = 1."""
    _require_closed(fs)
    return fold(rescale_per_factor(t_seed(fs), -HALF), fs)


def folded_payload(diff: FormExpr, syms) -> dict:
    """The payload of a difference folded over syms, as the suites give it
    for kind-count coordinates."""
    count = unfolded_len(diff)
    payload = {"difference_term_count": count,
               "difference": to_json_obj(oracle_unfold_head(diff, syms,
                                                            PAYLOAD_TERMS))}
    if count > PAYLOAD_TERMS:
        payload["truncated"] = True
    return payload


def wedge(a: FormExpr, b: FormExpr) -> FormExpr:
    """Bilinear extension of monomial concatenation plus canonicalization."""
    pairs = []
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            pairs.append((c1 * c2, m1 + m2))
    return FormExpr.from_terms(pairs)


_CONJ = {ZERO: (1, ZERO), DEL: (1, DELBAR), DELBAR: (1, DEL),
         DELDELBAR: (-1, DELDELBAR)}


def conjugate(a: FormExpr) -> FormExpr:
    """Complex conjugation for real symbols.

    Swaps del and delbar factors, negates deldelbar factors and fixes the
    degree-0 ones; multiplicative over the wedge in the given order.
    """
    pairs = []
    for mono, coeff in a.terms.items():
        sign = 1
        newmono = []
        for kind, sym in mono:
            s, newkind = _CONJ[kind]
            sign *= s
            newmono.append((newkind, sym))
        pairs.append((coeff * sign, tuple(newmono)))
    return FormExpr.from_terms(pairs)


def seed_of(folded: FormExpr) -> FormExpr:
    """A seed whose alternation is unfold(folded): every representative
    coefficient divided by the representative's stabilizer weight."""
    return FormExpr({rep: c / _stabilizer_weight([kind for kind, _ in rep])
                     for rep, c in folded.terms.items()})


def r_op(x: DeligneElement) -> FormExpr:
    """Projection making the product graded commutative and Leibniz.

    Keeps the holomorphic-degree >= p part of dx and symmetrizes with the
    (-1)^p-twisted conjugate.
    """
    n, p = x.degree, x.twist
    if n >= 2 * p:
        raise ValueError(f"r_op needs n < 2p, got n={n}, p={p}")
    fp = project_if(d(x.expr), lambda a, b: a >= p)
    return fp + conjugate(fp) * ((-1) ** p)


def deligne_product(x: DeligneElement, y: DeligneElement) -> DeligneElement:
    n, p = x.degree, x.twist
    m, q = y.degree, y.twist
    if n < 2 * p and m < 2 * q:
        expr = wedge(r_op(x), y.expr) * ((-1) ** n) + wedge(x.expr, r_op(y))
    else:
        # one operand in the form range: plain wedge
        expr = wedge(x.expr, y.expr)
    return DeligneElement(expr, n + m, p + q)


def to_counts(f: FormExpr, syms) -> Counts:
    """The kind-count coordinates of a form folded over syms: the
    coefficient of each representative with its factors in slot order."""
    closed = {s.closed for s in syms}
    assert len(closed) <= 1, "symbols must be all open or all closed"
    pos = {s: k for k, s in enumerate(syms)}
    out = {}
    for rep, c in f.terms.items():
        word = _rep_word(rep, pos, len(syms))
        z, q = word.count(ZERO), word.count(DELDELBAR)
        assert z <= 1 and q <= 1, "an even kind class holds two symbols"
        out[(z, q, word.count(DEL))] = c * canonicalize(zip(word, syms))[0]
    return Counts(len(syms), out, closed == {True})


def alternate(seed: FormExpr, syms) -> FormExpr:
    """Sum over sigma in S_m of sgn(sigma) sigma(seed), sigma relabelling
    the m symbols of syms, without enumerating S_m: unfold(fold(seed))."""
    return oracle_unfold(fold(seed, syms), syms)


def build_s(syms, i: int) -> FormExpr:
    """Basis form S_m^i: the (-2)^m-scaled antisymmetrization of
    u (del u)^(i-1) (delbar u)^(m-i) over all slot permutations."""
    return alternate(s_seed(syms, i), syms)


def bidegree_project(a: FormExpr, hol: int, antihol: int) -> FormExpr:
    """The component of Hodge bidegree exactly (hol, antihol)."""
    if hol < 0 or antihol < 0:
        raise ValueError("bidegrees must be non-negative")
    return FormExpr({m: c for m, c in a.terms.items()
                     if monomial_bidegree(m) == (hol, antihol)})


def s_basis_coefficients(expr: FormExpr, syms) -> list[Fraction]:
    """Solve the overdetermined system expressing expr over the S_m^i basis.

    Each basis form is homogeneous of bidegree (i-1, m-i), so the system
    splits by bidegree; the coefficient is pinned by one monomial and
    checked against all others.  Raises ValueError when expr is not in the
    span.
    """
    m = len(syms)
    coeffs = []
    leftover = FormExpr(expr.terms)
    for i in range(1, m + 1):
        s_i = build_s(syms, i)
        piece = bidegree_project(expr, i - 1, m - i)
        mono, base_c = next(iter(s_i.terms.items()))
        alpha = piece.terms.get(mono, Fraction(0)) / base_c
        if piece != s_i * alpha:
            raise ValueError(f"bidegree ({i - 1},{m - i}) component is not a "
                             "multiple of the basis form")
        coeffs.append(alpha)
        leftover = leftover - s_i * alpha
    if leftover:
        raise ValueError("expression has terms outside the basis bidegrees")
    return coeffs


def expand_in_basis(expr: FormExpr, binding: dict[Symbol, list[int]],
                    basis_syms: list[Symbol]) -> FormExpr:
    """Rewrite factors on bound symbols as combinations of basis symbols.

    Realizes the alphabet identifications log|fg|^2 = log|f|^2 + log|g|^2
    and d(fg)/(fg) = df/f + dg/g for monomial arguments.
    """
    total = FormExpr.zero()
    for mono, coeff in expr.terms.items():
        acc = scalar(coeff)
        for kind, sym in mono:
            vec = binding[sym]
            lin = FormExpr.zero()
            for k, a in enumerate(vec):
                if a:
                    lin = lin + factor_expr(kind, basis_syms[k]) * a
            acc = wedge(acc, lin)
        total = total + acc
    return total


def relabel(a: FormExpr, src, dst) -> FormExpr:
    """Move every factor on the symbol src[k] to dst[k], in any order;
    factors on other symbols stay.  Every monomial is canonicalized again."""
    to = dict(zip(src, dst))
    return FormExpr.from_terms(
        (c, [(kind, to.get(sym, sym)) for kind, sym in mono])
        for mono, c in a.terms.items())


def wang_form(w: WedgeElement, base: FormExpr) -> FormExpr:
    """Multilinear alternating extension of the Wang family to wedges.

    Expands over the canonical basis wedges of the ambient, applying T to
    each basis tuple with the stored integer coefficient.  base is T on
    log_symbols(w.arity), built once by the caller and relabelled onto
    each basis tuple in increasing order: build_t_log gives the unfolded
    result.  A folded base (folded_t_log) gives the folded result when the
    whole ambient basis is the only basis tuple, as in the residue of the
    top wedge: relabelling in order keeps representatives representatives.
    """
    src = log_symbols(w.arity)
    syms = ambient_symbols(w.ambient)
    total = FormExpr.zero()
    for subset, coeff in w.terms.items():
        total = total + relabel(base, src, [syms[j] for j in subset]) * coeff
    return total


def build_t_log_element(fs) -> DeligneElement:
    """T_m in log units with its degree/twist annotation."""
    m = len(fs)
    return DeligneElement(build_t_log(fs), m, m) if m else \
        DeligneElement(scalar(1), 0, 0)


def monomial_degree(mono) -> int:
    """The form degree of a monomial: the sum of its bidegree."""
    return sum(monomial_bidegree(mono))


def check_element(x: DeligneElement) -> DeligneElement:
    """Validate the degree/bidegree constraints of x; returns x."""
    n, p = x.degree, x.twist
    for mono in x.expr.terms:
        deg = monomial_degree(mono)
        if n < 2 * p:
            a, b = monomial_bidegree(mono)
            if deg != n - 1 or a > p - 1 or b > p - 1:
                raise ValueError(
                    f"monomial of degree {deg}, bidegree {(a, b)} is not "
                    f"admissible in degree {n}, twist {p}")
        elif deg != n:
            raise ValueError(
                f"monomial of degree {deg} is not admissible in form "
                f"range degree {n}")
    return x


def unfolded_payload(diff: FormExpr, limit: int = 40) -> dict:
    """The term count and the first `limit` terms of an unfolded
    difference."""
    payload = {"difference_term_count": len(diff),
               "difference": to_json_obj(diff)[:limit]}
    if len(diff) > limit:
        payload["truncated"] = True
    return payload


def signed_permutations(items):
    """All permutations with their alternating sign: the m! reference that
    the orbit construction of `alternate` is tested against."""
    items = list(items)
    for perm in permutations(range(len(items))):
        inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                  if perm[a] > perm[b])
        yield [items[k] for k in perm], -1 if inv % 2 else 1


def _omit(syms, j):
    return syms[:j] + syms[j + 1:]


def dlog_product(syms) -> FormExpr:
    """d(u_1) ^ ... ^ d(u_n)."""
    prod = scalar(1)
    for s in syms:
        prod = wedge(prod, d(gen(s)))
    return prod


def dlog_piece(syms, i: int) -> FormExpr:
    """Bidegree (i, n-i) piece of d(u_1) ^ ... ^ d(u_n)."""
    n = len(syms)
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= {n}, got {i}")
    return bidegree_project(dlog_product(syms), i, n - i)


# -- the unfolded suites -----------------------------------------------------

def nested_c(syms) -> DeligneElement:
    """C_m alternated from the single product u_1 * (u_2 * ( ... * u_m))."""
    m = len(syms)
    el = as_element(syms[-1])
    for s in reversed(syms[:-1]):
        el = deligne_product(as_element(s), el)
    acc = alternate(el.expr, syms)
    return DeligneElement(acc * Fraction(1, math.factorial(m)), m, m)


def seeded_goncharov(fs, cjm=default_cjm) -> FormExpr:
    """Goncharov's family alternated from its identity-permutation terms,
    each (del +- delbar)/2 slot expanded monomial by monomial."""
    m = len(fs)
    seed = FormExpr.zero()
    outer = Fraction((-1) ** m)
    j = 0
    while 2 * j + 1 <= m:
        expr = factor_expr(ZERO, fs[0]) * (outer * cjm(j, m) * HALF)
        for k in range(1, m):
            s = fs[k]
            if k <= 2 * j:  # dlog slot
                one_form = (factor_expr(DEL, s) + factor_expr(DELBAR, s)) * HALF
            else:  # diarg slot
                one_form = (factor_expr(DEL, s) - factor_expr(DELBAR, s)) * HALF
            expr = wedge(expr, one_form)
        seed = seed + expr
        j += 1
    return alternate(seed, fs)


def oracle_product_expansion(m: int):
    t0 = perf_counter()
    us = symbols(m)
    t_form = build_t_element(us)
    c_form = nested_c(us)
    bad = None
    if t_form.expr != c_form.expr:
        bad = {"m": m, **unfolded_payload(t_form.expr - c_form.expr)}
    return report("tm-identity", {"m": m}, bad, perf_counter() - t0,
                  {"monomials_t": len(t_form.expr), "monomials_c": len(c_form.expr)})


def oracle_s_derivative_identities(m: int, i: int):
    t0 = perf_counter()
    us = symbols(m)
    fact = math.factorial

    s_mi = build_s(us, i)
    dlogs = dlog_product(us)

    lhs_del = del_(s_mi)
    rhs_del = bidegree_project(dlogs, i, m - i) * Fraction(
        (-2) ** m * fact(i) * fact(m - i))
    if m - i:
        base = build_s(us[1:], i)
        for j, u in enumerate(us):
            term = wedge(ddb(u) * Fraction(-2),
                         relabel(base, us[1:], _omit(us, j)))
            rhs_del = rhs_del + term * Fraction((-1) ** (j + 1) * (m - i))

    lhs_dbar = delbar(s_mi)
    rhs_dbar = bidegree_project(dlogs, i - 1, m - i + 1) * Fraction(
        (-2) ** m * fact(i - 1) * fact(m - i + 1))
    if i - 1:
        base = build_s(us[1:], i - 1)
        for j, u in enumerate(us):
            term = wedge(ddb(u) * Fraction(-2),
                         relabel(base, us[1:], _omit(us, j)))
            rhs_dbar = rhs_dbar - term * Fraction((-1) ** (j + 1) * (i - 1))

    bad = None
    if lhs_del != rhs_del:
        bad = {"m": m, "i": i, "operator": "del",
               **unfolded_payload(lhs_del - rhs_del)}
    elif lhs_dbar != rhs_dbar:
        bad = {"m": m, "i": i, "operator": "delbar",
               **unfolded_payload(lhs_dbar - rhs_dbar)}
    return report("takeda", {"m": m, "i": i}, bad, perf_counter() - t0,
                  {"monomials_del": len(lhs_del), "monomials_delbar": len(lhs_dbar)})


def oracle_raw_differential(m: int):
    t0 = perf_counter()
    us = symbols(m)
    lhs = d(build_t(us))
    if m == 1:
        rhs = d(gen(us[0]))
    else:
        dlogs = dlog_product(us)
        rhs = (bidegree_project(dlogs, m, 0)
               + bidegree_project(dlogs, 0, m) * ((-1) ** (m - 1))) \
            * Fraction(2 ** (m - 1))
        base = build_t(us[1:])
        for j, u in enumerate(us):
            term = wedge(ddb(u), relabel(base, us[1:], _omit(us, j)))
            rhs = rhs + term * Fraction(2 * (-1) ** j)
    bad = None
    if lhs != rhs:
        bad = {"m": m, **unfolded_payload(lhs - rhs)}
    return report("prop52", {"m": m}, bad, perf_counter() - t0,
                  {"monomials": len(lhs)})


def oracle_differential_recursion(m: int, closed: bool = False):
    t0 = perf_counter()
    us = symbols(m)
    if closed:
        us = [Symbol(s.index, s.name, closed=True) for s in us]
    lhs = deligne_diff(build_t_element(us))
    rhs = FormExpr.zero()
    base = build_t(us[1:])
    for j, u in enumerate(us):
        du = deligne_diff(as_element(u))
        t_omit = relabel(base, us[1:], _omit(us, j))
        prod = deligne_product(du, DeligneElement(t_omit, m - 1, m - 1))
        rhs = rhs + prod.expr * ((-1) ** j)
    bad = None
    if lhs.expr != rhs:
        bad = {"m": m, "closed": closed, **unfolded_payload(lhs.expr - rhs)}
    return report("recursion", {"m": m, "closed": closed}, bad,
                  perf_counter() - t0, {"monomials": len(lhs.expr)})


def oracle_goncharov_equals_wang(m: int, cjm=default_cjm):
    t0 = perf_counter()
    fs = log_symbols(m)
    gonch = seeded_goncharov(fs, cjm)
    wang = build_t_log(fs)
    bad = None
    if gonch != wang:
        bad = {"m": m, **unfolded_payload(gonch - wang)}
    return report("goncharov-wang", {"m": m}, bad, perf_counter() - t0,
                  {"monomials": len(wang)})


def expected_sign(suite: str, div) -> int:
    """A divisor's sign as each boundary suite gave its own before they
    shared `logforms._face_sign`: the face y_i = 0 or x_i = 0 (j = 0 or 1)
    of the i-th line (-1)^(i+j) in Wang's and the mixed sweep, z_i = 0
    (-1)^i in Goncharov's and (-1)^n (-1)^i in the mixed sweep on
    (P^1)^n x P^m."""
    kind, i = div.coord
    if suite == "goncharov-boundary":
        return (-1) ** i
    if suite == "mixed-boundary" and kind == "z":
        return (-1) ** div.ambient.lines * (-1) ** i
    j = 0 if kind == "y" else 1
    return (-1) ** (i + j)


def boundary_sweep(suite: str, params: dict, ambient: Ambient,
                   folded: bool):
    """The boundary sweep on symbols: T_(N-1) built once, unfolded
    (build_t_log) or folded (folded_t_log), and moved onto each divisor's
    target symbols by wang_form and relabel, with the suite's own signs
    (expected_sign)."""
    t0 = perf_counter()
    wedge_el = WedgeElement.from_functions(ambient.basis_functions())
    base_syms = log_symbols(ambient.basis_size() - 1)
    base = (folded_t_log if folded else build_t_log)(base_syms)
    bad = None
    table = {}
    for div in ambient.divisors():
        res = wedge_el.residue(div)
        table[div.label()] = res.to_json_obj()
        lhs = -wang_form(res, base)
        target_syms = ambient_symbols(div.target())
        sign = expected_sign(suite, div)
        rhs = relabel(base, base_syms, target_syms) * sign
        if lhs != rhs:
            diff = lhs - rhs
            bad = {"divisor": div.label(), "expected_sign": sign,
                   "residue": res.to_json_obj(),
                   **(folded_payload(diff, target_syms) if folded
                      else unfolded_payload(diff))}
            break
    stats = {"divisors": len(ambient.divisors()), "residues": table}
    return report(suite, params, bad, perf_counter() - t0, stats)


def _with_sweep(folded: bool, verify, args):
    """verify(*args) with its sweep run by boundary_sweep."""
    sweep = partial(boundary_sweep, folded=folded)
    with mock.patch.object(logforms, "_boundary_check", sweep):
        return verify(*args)


def oracle_boundary(verify, *args):
    """A boundary suite with its sweep run on unfolded forms."""
    return _with_sweep(False, verify, args)


def symbol_boundary(verify, *args):
    """A boundary suite with its sweep run on folded forms, as before the
    sweeps moved onto kind-count coordinates."""
    return _with_sweep(True, verify, args)


def vanishing(m: int, folded: bool):
    """The diagonal check on the unfolded or the folded T_m."""
    t0 = perf_counter()
    syms = ambient_symbols(Ambient(m, 0))
    expr = (folded_t_log if folded else build_t_log)(syms)
    bad = None
    for i, s in enumerate(syms, start=1):
        killed = substitute_zero(expr, s)
        if not killed.is_zero():
            bad = {"m": m, "slot": i, "survivors": to_json_obj(killed)[:20]}
            break
    return report("vanishing", {"m": m}, bad, perf_counter() - t0,
                  {"monomials": unfolded_len(expr) if folded else len(expr)})


def oracle_vanishing_on_diagonal(m: int):
    return vanishing(m, folded=False)


def symbol_vanishing(m: int):
    return vanishing(m, folded=True)


# -- the symbol-level folded suites ------------------------------------------
#
# The bodies of the five algebraic suites as they were before they moved
# onto kind-count coordinates: every operator acts on a seed and is folded
# again, fold(op(seed_of(F))), and every induced product is
# fold(x(u_1) ^ seed_of(Y)).  Their deldelbar operand comes from `ddb`,
# which reads `counts.slot` as the suites do.

def symbol_folded_c(syms) -> FormExpr:
    """C_m folded: C_m = (1/m) fold(u_1 * seed_of(C_{m-1})), one Deligne
    product per step."""
    m = len(syms)
    acc = gen(syms[-1])  # C_1, its own representative
    for k in range(m - 2, -1, -1):
        n = m - 1 - k
        prod = deligne_product(as_element(syms[k]),
                               DeligneElement(seed_of(acc), n, n))
        acc = fold(prod.expr, syms[k:]) * Fraction(1, n + 1)
    return acc


def symbol_dlog_rep(syms, i: int) -> FormExpr:
    return FormExpr.monomial(1, [(DEL, s) for s in syms[:i]]
                             + [(DELBAR, s) for s in syms[i:]])


def symbol_product_expansion(m: int):
    t0 = perf_counter()
    us = symbols(m)
    t_form = fold(t_seed(us), us)
    c_form = symbol_folded_c(us)
    bad = None
    if t_form != c_form:
        bad = {"m": m, **folded_payload(t_form - c_form, us)}
    return report("tm-identity", {"m": m}, bad, perf_counter() - t0,
                  {"monomials_t": unfolded_len(t_form),
                   "monomials_c": unfolded_len(c_form)})


def symbol_s_derivative_identities(m: int, i: int):
    t0 = perf_counter()
    us = symbols(m)
    fact = math.factorial
    seed = s_seed(us, i)

    lhs_del = fold(del_(seed), us)
    rhs_del = symbol_dlog_rep(us, i) * Fraction((-2) ** m * fact(i)
                                                * fact(m - i))
    if m - i:
        induced = fold(wedge(ddb(us[0]), s_seed(us[1:], i)), us)
        rhs_del = rhs_del + induced * (2 * (m - i))

    lhs_dbar = fold(delbar(seed), us)
    rhs_dbar = symbol_dlog_rep(us, i - 1) * Fraction(
        (-2) ** m * fact(i - 1) * fact(m - i + 1))
    if i - 1:
        induced = fold(wedge(ddb(us[0]), s_seed(us[1:], i - 1)), us)
        rhs_dbar = rhs_dbar - induced * (2 * (i - 1))

    bad = None
    if lhs_del != rhs_del:
        bad = {"m": m, "i": i, "operator": "del",
               **folded_payload(lhs_del - rhs_del, us)}
    elif lhs_dbar != rhs_dbar:
        bad = {"m": m, "i": i, "operator": "delbar",
               **folded_payload(lhs_dbar - rhs_dbar, us)}
    return report("takeda", {"m": m, "i": i}, bad, perf_counter() - t0,
                  {"monomials_del": unfolded_len(lhs_del),
                   "monomials_delbar": unfolded_len(lhs_dbar)})


def symbol_raw_differential(m: int):
    t0 = perf_counter()
    us = symbols(m)
    lhs = fold(d(t_seed(us)), us)
    if m == 1:
        rhs = fold(d(gen(us[0])), us)
    else:
        rhs = (symbol_dlog_rep(us, m)
               + symbol_dlog_rep(us, 0) * (-1) ** (m - 1)) * 2 ** (m - 1)
        rhs = rhs + fold(wedge(ddb(us[0]), t_seed(us[1:])), us) * 2
    bad = None
    if lhs != rhs:
        bad = {"m": m, **folded_payload(lhs - rhs, us)}
    return report("prop52", {"m": m}, bad, perf_counter() - t0,
                  {"monomials": unfolded_len(lhs)})


def symbol_differential_recursion(m: int, closed: bool = False):
    t0 = perf_counter()
    us = symbols(m)
    if closed:
        us = [Symbol(s.index, s.name, closed=True) for s in us]
    lhs = fold(deligne_diff(DeligneElement(t_seed(us), m, m)).expr,
               us)
    prod = deligne_product(deligne_diff(as_element(us[0])),
                           DeligneElement(t_seed(us[1:]), m - 1, m - 1))
    rhs = fold(prod.expr, us)
    bad = None
    if lhs != rhs:
        bad = {"m": m, "closed": closed, **folded_payload(lhs - rhs, us)}
    return report("recursion", {"m": m, "closed": closed}, bad,
                  perf_counter() - t0, {"monomials": unfolded_len(lhs)})


def symbol_goncharov(fs, cjm=default_cjm) -> FormExpr:
    """Goncharov's family folded over fs, one representative per a."""
    m = len(fs)
    pairs = []
    for a in range(m):
        total = Fraction(0)
        j = 0
        while 2 * j + 1 <= m:
            dlogs, diargs = 2 * j, m - 1 - 2 * j
            total += cjm(j, m) * sum(
                math.comb(dlogs, p) * math.comb(diargs, a - p)
                * (-1) ** (diargs - a + p)
                for p in range(max(0, a - diargs), min(dlogs, a) + 1))
            j += 1
        coeff = total * Fraction((-1) ** m * math.factorial(a)
                                 * math.factorial(m - 1 - a), 2 ** m)
        pairs.append((coeff, [(ZERO, fs[0])] + [(DEL, s) for s in fs[1:a + 1]]
                      + [(DELBAR, s) for s in fs[a + 1:]]))
    return FormExpr.from_terms(pairs)


def symbol_goncharov_equals_wang(m: int, cjm=default_cjm):
    t0 = perf_counter()
    fs = log_symbols(m)
    gonch = symbol_goncharov(fs, cjm)
    wang = folded_t_log(fs)
    bad = None
    if gonch != wang:
        bad = {"m": m, **folded_payload(gonch - wang, fs)}
    return report("goncharov-wang", {"m": m}, bad, perf_counter() - t0,
                  {"monomials": unfolded_len(wang)})



# -- the Fraction route of the five algebraic suites ---------------------------
#
# The kind-count bodies of the five suites as they were before they moved
# onto integer coordinates: every coordinate is a `Fraction`, C_m is
# built with its 1/(n+1) per step, both sides of each identity are
# compared unscaled, and Goncharov's coordinates are the O(m^3) binomial
# sums.  The one-slot operands are read through `counts.slot`, so a fault
# patched in there reaches both routes.

def package_c(m: int) -> Counts:
    """C_m from the package's integer m! C_m (`deligne.c_counts`)."""
    return c_counts(m) * Fraction(1, math.factorial(m))


def package_goncharov(m: int, cjm=default_cjm) -> Counts:
    """Goncharov's coordinates from the package's integer ones over their
    denominator (`logforms.goncharov_counts`)."""
    gonch, den = goncharov_counts(m, cjm)
    return gonch * Fraction(1, den)


def fraction_slot(kind: int, closed: bool) -> Counts:
    return counts.slot(kind, closed) * Fraction(1)


def fraction_basis(m: int, coeffs, closed: bool = False) -> Counts:
    return Counts(m, {(1, 0, a): Fraction(c) for a, c in enumerate(coeffs)},
                  closed)


def fraction_s_counts(m: int, i: int) -> Counts:
    coeffs = [0] * m
    coeffs[i - 1] = (-2) ** m * math.factorial(i - 1) * math.factorial(m - i)
    return fraction_basis(m, coeffs)


def fraction_t_counts(m: int, closed: bool = False) -> Counts:
    if not m:
        return Counts(0, {(0, 0, 0): Fraction(1)}, closed)
    fact = math.factorial
    return fraction_basis(m, [Fraction((-1) ** i * (-2) ** m * fact(i - 1)
                                       * fact(m - i), 2 * fact(m))
                              for i in range(1, m + 1)], closed)


def fraction_c_counts(m: int) -> Counts:
    u = fraction_slot(ZERO, False)
    acc = u
    for n in range(1, m):
        acc = counts.deligne_product(u, 1, 1, acc, n, n) * Fraction(1, n + 1)
    return acc


def fraction_dlog_rep(m: int, i: int) -> Counts:
    return Counts(m, {(0, 0, i): Fraction(1)})


def fraction_goncharov_counts(m: int, cjm=default_cjm) -> Counts:
    """Goncharov's coordinates as the binomial sums
    (-1)^m 2^-m a! b! sum_j c_{j,m} sum_p C(2j,p) C(m-1-2j,a-p)
    (-1)^(m-1-2j-a+p)."""
    coeffs = []
    for a in range(m):
        total = Fraction(0)
        j = 0
        while 2 * j + 1 <= m:
            dlogs, diargs = 2 * j, m - 1 - 2 * j
            total += cjm(j, m) * sum(
                math.comb(dlogs, p) * math.comb(diargs, a - p)
                * (-1) ** (diargs - a + p)
                for p in range(max(0, a - diargs), min(dlogs, a) + 1))
            j += 1
        coeffs.append(total * Fraction((-1) ** m * math.factorial(a)
                                       * math.factorial(m - 1 - a), 2 ** m))
    return fraction_basis(m, coeffs, closed=True)


def fraction_product_expansion(m: int):
    t0 = perf_counter()
    us = symbols(m)
    t_form = fraction_t_counts(m)
    c_form = fraction_c_counts(m)
    bad = None
    if t_form != c_form:
        bad = {"m": m, **_difference_payload(t_form - c_form, us)}
    return report("tm-identity", {"m": m}, bad, perf_counter() - t0,
                  {"monomials_t": counts.unfolded_len(t_form),
                   "monomials_c": counts.unfolded_len(c_form)})


def fraction_s_derivative_identities(m: int, i: int):
    t0 = perf_counter()
    us = symbols(m)
    fact = math.factorial
    s_mi = fraction_s_counts(m, i)
    x = fraction_slot(DELDELBAR, False)

    lhs_del = counts.del_(s_mi)
    rhs_del = fraction_dlog_rep(m, i) * ((-2) ** m * fact(i) * fact(m - i))
    if m - i:
        rhs_del = rhs_del + counts.wedge(x, fraction_s_counts(m - 1, i)) \
            * (2 * (m - i))

    lhs_dbar = counts.delbar(s_mi)
    rhs_dbar = fraction_dlog_rep(m, i - 1) \
        * ((-2) ** m * fact(i - 1) * fact(m - i + 1))
    if i - 1:
        rhs_dbar = rhs_dbar \
            - counts.wedge(x, fraction_s_counts(m - 1, i - 1)) * (2 * (i - 1))

    bad = None
    if lhs_del != rhs_del:
        bad = {"m": m, "i": i, "operator": "del",
               **_difference_payload(lhs_del - rhs_del, us)}
    elif lhs_dbar != rhs_dbar:
        bad = {"m": m, "i": i, "operator": "delbar",
               **_difference_payload(lhs_dbar - rhs_dbar, us)}
    return report("takeda", {"m": m, "i": i}, bad, perf_counter() - t0,
                  {"monomials_del": counts.unfolded_len(lhs_del),
                   "monomials_delbar": counts.unfolded_len(lhs_dbar)})


def fraction_raw_differential(m: int):
    t0 = perf_counter()
    us = symbols(m)
    lhs = counts.d(fraction_t_counts(m))
    if m == 1:
        rhs = counts.d(fraction_slot(ZERO, False))
    else:
        rhs = (fraction_dlog_rep(m, m)
               + fraction_dlog_rep(m, 0) * (-1) ** (m - 1)) * 2 ** (m - 1)
        rhs = rhs + counts.wedge(fraction_slot(DELDELBAR, False),
                                 fraction_t_counts(m - 1)) * 2
    bad = None
    if lhs != rhs:
        bad = {"m": m, **_difference_payload(lhs - rhs, us)}
    return report("prop52", {"m": m}, bad, perf_counter() - t0,
                  {"monomials": counts.unfolded_len(lhs)})


def fraction_differential_recursion(m: int, closed: bool = False):
    t0 = perf_counter()
    us = symbols(m)
    if closed:
        us = [Symbol(s.index, s.name, closed=True) for s in us]
    lhs = counts.deligne_diff(fraction_t_counts(m, closed), m, m)
    du = counts.deligne_diff(fraction_slot(ZERO, closed), 1, 1)
    rhs = counts.deligne_product(du, 2, 1, fraction_t_counts(m - 1, closed),
                                 m - 1, m - 1)
    bad = None
    if lhs != rhs:
        bad = {"m": m, "closed": closed, **_difference_payload(lhs - rhs, us)}
    return report("recursion", {"m": m, "closed": closed}, bad,
                  perf_counter() - t0, {"monomials": counts.unfolded_len(lhs)})


def fraction_goncharov_equals_wang(m: int, cjm=default_cjm):
    t0 = perf_counter()
    fs = log_symbols(m)
    gonch = fraction_goncharov_counts(m, cjm)
    wang = fraction_t_counts(m, closed=True) * (-HALF) ** m
    bad = None
    if gonch != wang:
        bad = {"m": m, **_difference_payload(gonch - wang, fs)}
    return report("goncharov-wang", {"m": m}, bad, perf_counter() - t0,
                  {"monomials": counts.unfolded_len(wang)})
