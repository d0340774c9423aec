"""Specialization of the abstract calculus to rational-function arguments.

A function argument f enters through its Green generator -(1/2) log|f|^2,
a closed degree-0 symbol: its second derivative vanishes, which is what
kills every deldelbar term of the abstract identities.  Expressions are
kept in "log units", i.e. over the alphabet

    log|f|^2   (degree-0 factor),
    df/f       (del factor),
    dfbar/fbar (delbar factor),

obtained from the abstract forms by rescaling each factor by -1/2.  With
that normalization the basis forms S_m^i(f_1..f_m) have coefficient 1 per
permutation monomial and T_1(f) = -(1/2) log|f|^2.

The Goncharov family is assembled from log|f| = (1/2) log|f|^2,
dlog|f| = (df/f + dfbar/fbar)/2 and di arg f = (df/f - dfbar/fbar)/2, with
coefficients c_{j,m} = 1/((2j+1)!(m-2j-1)!).  Both families alternate
over the slots, so the comparison verifier checks that they agree in
kind-count coordinates (regver.counts), one per orbit representative:
Goncharov's from a polynomial summed by Horner's rule over the
(del +- delbar)/2 slots, T_m's closed form rescaled there; both are
integers over one denominator each, compared cross-multiplied.  They
agree by sum_j C(m, 2j+1) (1+x)^(2j) (x-1)^(m-1-2j) =
((2x)^m - (-2)^m) / (2(x+1)) = 2^(m-1) sum_a (-1)^(m-1-a) x^a: as
c_{j,m} = C(m, 2j+1)/m!, the coordinate a! b! [x^a] P / (-2)^m of
goncharov_counts (b = m-1-a) is (-1)^(a+1) a! b! / (2 m!), T_m's in log
units.  `binomial` checks the odd-part identity behind it.

The boundary sweeps read one residue per divisor as an integer g
(regver.residues): both sides of every boundary identity are multiples
of T_(N-1) on the target's symbols, and they agree exactly when -g
equals the expected sign.  A sweep labels the basis of each of its two
targets once and builds T_(N-1) only for a failing divisor's payload.
The diagonal vanishing check reads the keys of T_m's coordinates: each
one stands for a representative with one factor on every slot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from . import counts
from .counts import Counts, basis, monomials
from .deligne import (_compare, _difference_payload, scaled_t_counts,
                      t_counts)
from .forms import Symbol, to_json_obj
from .report import Report
from .residues import Ambient, FaceDivisor, residue_tuple

HALF = Fraction(1, 2)


def log_symbols(m: int) -> list[Symbol]:
    """Closed symbols standing for m generic function labels."""
    return [Symbol(k + 1, f"f{k + 1}", closed=True) for k in range(m)]


def ambient_symbols(ambient: Ambient) -> list[Symbol]:
    """Closed symbols bound to the canonical basis monomials of an ambient."""
    return [Symbol(k + 1, f.label(), closed=True)
            for k, f in enumerate(ambient.basis_functions())]


def t_log_counts(n: int) -> Counts:
    """T_n on n function slots in log units, in kind-count coordinates:
    every factor rescaled by -1/2; T_0 = 1."""
    return t_counts(n, closed=True) * (-HALF) ** n


def default_cjm(j: int, m: int) -> Fraction:
    return Fraction(1, math.factorial(2 * j + 1) * math.factorial(m - 2 * j - 1))


def goncharov_counts(m: int, cjm=default_cjm) -> tuple[Counts, int]:
    """Goncharov's alternating log/arg family on m function slots, as
    integer kind-count coordinates (see regver.counts) and the
    denominator they are over.

    The family is (-1)^m sum over j with 2j+1 <= m of c_{j,m} Alt_m of
    log|f_1| dlog|f_2| ^ .. ^ dlog|f_{2j+1}| ^ diarg f_{2j+2} ^ .. ^ diarg f_m.
    Its representatives are u (del u)^a (delbar u)^b with a + b = m-1.
    Expanding the (del +- delbar)/2 slots, with x marking del, and
    folding, which weighs each term a! b!, gives the coefficient
    a! b! [x^a] P / (-2)^m, where
    P = sum_j c_{j,m} (1+x)^(2j) (x-1)^(m-1-2j).
    Let L be the lcm of the c_{j,m}'s denominators, w_j = L c_{j,m} and
    J the last j.  L P is summed over the integers by Horner's rule in j,
    P <- P (x-1)^2 + w_j (1+x)^(2j) for j = 0..J, then times
    (x-1)^(m-1-2J): O(m^2) integer operations.  The coordinates are
    a! b! [x^a] (L P), over the denominator (-2)^m L.
    The optional cjm hook replaces c_{j,m}: `regver verify goncharov-wang
    --perturb-cjm` passes a perturbed one, so that the suite must fail.
    """
    if m < 1:
        raise ValueError("need at least one function slot")
    cs = [cjm(j, m) for j in range((m + 1) // 2)]
    lcm = math.lcm(*(c.denominator for c in cs))
    poly, binom = [], [1]  # L P and (1+x)^(2j), lowest degree first
    for c in cs:
        w = c.numerator * (lcm // c.denominator)
        # zip stops at binom's 2j+1 terms, the degree of the new P
        poly = [a + w * b for a, b in zip(_times_square(poly, -1), binom)]
        binom = _times_square(binom, 1)
    if m % 2 == 0:
        poly = [b - a for a, b in zip(poly + [0], [0] + poly)]
    fact = math.factorial
    return (basis(m, [fact(a) * fact(m - 1 - a) * poly[a] for a in range(m)],
                  closed=True), (-2) ** m * lcm)


def _times_square(poly: list, s: int) -> list:
    """poly (x + s)^2 for s = +-1, lowest degree first."""
    return [a + 2 * s * b + e for a, b, e in
            zip(poly + [0, 0], [0] + poly + [0], [0, 0] + poly)]


def verify_goncharov_equals_wang(m: int, cjm=default_cjm) -> Report:
    """Goncharov's family coincides with the Wang family on generic slots;
    both are compared in integer kind-count coordinates: T_m in log units
    is 2 m! T_m over (-2)^m 2 m!, and each side is multiplied by the other
    side's denominator over their gcd."""
    if m < 1:
        raise ValueError("m must be >= 1")
    gonch, den = goncharov_counts(m, cjm)
    wang = scaled_t_counts(m, closed=True)
    wang_den = (-2) ** m * 2 * math.factorial(m)
    g = math.gcd(den, wang_den)
    bad = _compare(gonch * (wang_den // g), wang * (den // g),
                   den * wang_den // g, lambda: log_symbols(m), m=m)
    return Report("goncharov-wang", {"m": m}, bad,
                  {"monomials": counts.unfolded_len(wang)})


# -- geometric families ------------------------------------------------------

def verify_vanishing_on_diagonal(m: int) -> Report:
    """Killing any single slot annihilates the Wang form on (P^1)^m.

    Checked on the keys of T_m's kind-count coordinates alone; the
    coefficients enter only a failing payload.  The key (z, q, p) of a
    form on n slots stands for the representative with r = n - z - q - p
    delbar factors, one factor on each of the n slots, so slot i kills it
    unless i > n or r < 0 (no representative has that key).  The report
    certifies that T_m is a form on m slots whose every key is a
    representative: T_m's representatives are multilinear in the m
    slots, so each slot kills them all.  A failing slot's `survivors`
    are the first 20 monomials of the surviving form in log units."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t_m = scaled_t_counts(m, closed=True)
    n = t_m.slots
    bad = None
    if any(sum(key) > n for key in t_m.terms):
        # no slot kills a key with r < 0, and it has no monomial to show
        bad = {"m": m, "slot": 1, "survivors": []}
    elif n < m and t_m.terms:
        # slot n + 1 kills none of the representatives
        log_units = Fraction(1, 2 * math.factorial(n)) * (-HALF) ** n
        syms = ambient_symbols(Ambient(m, 0))[:n]
        bad = {"m": m, "slot": n + 1, "survivors": to_json_obj(
            islice(monomials(t_m * log_units, syms), 20))}
    return Report("vanishing", {"m": m}, bad,
                  {"monomials": counts.unfolded_len(t_m)})


# -- boundary verifiers at the residue level ---------------------------------

def _face_sign(div: FaceDivisor) -> int:
    """The expected sign of a face of (P^1)^n x P^m: the divisor y_i = 0 is
    the j = 0 face of the i-th line and x_i = 0 the j = 1 face, with the
    cubical sign (-1)^(i+j); z_i = 0 carries the simplicial (-1)^i times
    the cross sign (-1)^n.  At m = 0 these are Wang's signs, at n = 0
    Goncharov's."""
    kind, i = div.coord
    if kind == "z":
        return (-1) ** (div.ambient.lines + i)
    return (-1) ** (i + (kind == "x"))


def _boundary_check(suite: str, params: dict, ambient: Ambient) -> Report:
    """Shared sweep: for every coordinate divisor d of the ambient, the
    residue transport -T(Res_d(omega)) must equal the signed standard form
    of the divisor geometry, with the sign of _face_sign.

    One residue per divisor, read as an integer: the residue of the top
    wedge is g times the whole target basis, and T of that basis tuple is
    T_(N-1) on the target's symbols in increasing order.  T_(N-1) is
    nonzero, so -g T_(N-1) equals the sign times T_(N-1) exactly when -g
    equals the sign; T_(N-1) (t_log_counts) is built only for a failing
    divisor's payload."""
    funcs = ambient.basis_functions()
    divisors = ambient.divisors()
    labels = {}  # target ambient -> its basis labels; a sweep has two
    bad = None
    table = {}
    for div in divisors:
        g = residue_tuple(funcs, div)
        res = []
        if g:
            target = div.target()
            if target not in labels:
                labels[target] = [f.label() for f in target.basis_functions()]
            res = [{"coeff": g, "wedge": list(labels[target])}]
        table[div.label()] = res
        sign = _face_sign(div)
        if -g != sign:
            base = t_log_counts(ambient.basis_size() - 1)
            bad = {"divisor": div.label(), "expected_sign": sign,
                   "residue": res,
                   **_difference_payload(base * (-g - sign),
                                         ambient_symbols(div.target()))}
            break
    stats = {"divisors": len(divisors), "residues": table}
    return Report(suite, params, bad, stats)


def verify_wang_boundary(m: int) -> Report:
    """Cubical boundary of the Wang current at the residue level: the face
    x_i = 0 or y_i = 0 of the i-th line carries (-1)^(i+j), j = 1 for x."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _boundary_check("wang-boundary", {"m": m}, Ambient(m, 0))


def verify_goncharov_boundary(m: int) -> Report:
    """Simplicial boundary of the Goncharov current at the residue level:
    the divisor z_i = 0 carries the sign (-1)^i."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _boundary_check("goncharov-boundary", {"m": m}, Ambient(0, m))


def verify_mixed_boundary(n: int, m: int) -> Report:
    """Boundary of the mixed family: cubical faces keep (-1)^(i+j), the
    simplicial faces pick up the extra cross sign (-1)^n."""
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError("need n, m >= 0 with n + m >= 1")
    return _boundary_check("mixed-boundary", {"n": n, "m": m},
                           Ambient(n, m))
