"""Batch suites behind `regver all`: randomized homological checks and the
hand-built two-arrow instance."""

from __future__ import annotations

import random

from .homology import (ChainComplex, ChainMap, decomposition_check,
                       normalized_complex, normalized_kernel_bases,
                       simple_of_diagram, verify_les_exactness)
from .matrices import (IntMatrix, det, invariant_factors,
                       invariant_factors_by_minors, smith_normal_form)
from .randomized import (random_chain_complex, random_chain_map,
                         random_cubical_group, random_int_matrix)
from .report import Report

SNF_SIZE = 4  # the side of the square matrices of the SNF batch


def verify_cubical_batch(count: int, seed: int = 2024) -> Report:
    """Construct random cubical groups, checking d^2 = 0 on the associated
    complex and the rank decomposition into normalized plus degenerate."""
    rng = random.Random(seed)
    bad = None
    for k in range(count):
        try:
            # construction validates face o degeneracy = id and d^2 = 0 on
            # the associated complex
            g = random_cubical_group(rng)
            bases = normalized_kernel_bases(g)
            normalized_complex(g, bases)  # validates its own d^2 = 0 too
            bad = decomposition_check(g, bases)
        except ValueError as e:
            # invalid data or a refused solve fails the check; any other
            # exception is a fault of regver, which the CLI exits 3 on
            bad = {"error": str(e)}
        if bad is not None:
            bad = {"instance": k, **bad}
            break
    return Report("homology-cubical", {"count": count, "seed": seed}, bad,
                  {"instances": count})


def verify_snf_batch(count: int, seed: int = 2025,
                     oracle_count: int = 60) -> Report:
    """SNF reconstruction, diagonal-shape and divisor-chain checks on random
    matrices, plus a cross-check of the invariant factors against the
    minor-gcd oracle."""
    rng = random.Random(seed)
    bad = None
    for k in range(count):
        m = random_int_matrix(rng, SNF_SIZE, SNF_SIZE)
        u, dm, v = smith_normal_form(m)
        if u * m * v != dm:
            bad = {"instance": k, "reason": "UmV != D", "matrix": m.to_lists()}
            break
        if abs(det(u.entries)) != 1 or abs(det(v.entries)) != 1:
            bad = {"instance": k, "reason": "transform not unimodular",
                   "matrix": m.to_lists()}
            break
        d = dm.entries
        if any(d[i][j] for i in range(SNF_SIZE) for j in range(SNF_SIZE)
               if i != j) or any(d[i][i] < 0 for i in range(SNF_SIZE)):
            bad = {"instance": k, "reason": "D not diagonal",
                   "matrix": m.to_lists()}
            break
        inv = [d[i][i] for i in range(SNF_SIZE) if d[i][i]]
        if any(b % a for a, b in zip(inv, inv[1:])):
            bad = {"instance": k, "reason": "divisor chain broken",
                   "factors": inv}
            break
    if bad is None:
        for k in range(oracle_count):
            m = random_int_matrix(rng, 3, 3)
            if invariant_factors(m) != invariant_factors_by_minors(m):
                bad = {"instance": k, "reason": "oracle mismatch",
                       "matrix": m.to_lists(),
                       "snf": invariant_factors(m),
                       "minors": invariant_factors_by_minors(m)}
                break
    return Report("homology-snf", {"count": count, "oracle_count": oracle_count,
                                   "seed": seed}, bad)


def verify_les_batch(count: int, seed: int = 2026) -> Report:
    rng = random.Random(seed)
    bad = None
    for k in range(count):
        a = random_chain_complex(rng)
        b = random_chain_complex(rng)
        f = random_chain_map(rng, a, b)
        bad = verify_les_exactness(f)
        if bad is not None:
            bad = {"instance": k, **bad}
            break
    return Report("homology-les", {"count": count, "seed": seed}, bad,
                  {"instances": count})


def two_arrow_hand_instance() -> tuple[ChainMap, ChainMap]:
    """The arrows g: A -> B and r: A -> C between three explicit two-term
    complexes, with g = identity and r onto the zero-differential
    complex."""
    a = ChainComplex(0, 1, {0: 1, 1: 1}, {1: IntMatrix.from_rows([[2]])})
    b = ChainComplex(0, 1, {0: 1, 1: 1}, {1: IntMatrix.from_rows([[2]])})
    c = ChainComplex(0, 1, {0: 1, 1: 1}, {1: IntMatrix.from_rows([[0]])})
    g = ChainMap(a, b, {0: IntMatrix.identity(1), 1: IntMatrix.identity(1)})
    r = ChainMap(a, c, {1: IntMatrix.from_rows([[1]])})
    return g, r


def verify_two_arrow_formula() -> Report:
    """The assembled simple differential of the hand-built instance must equal
    the hand-written block matrices of d(a, b, c) = (-da, db + g(a), dc - r(a))."""
    s = simple_of_diagram(*two_arrow_hand_instance())
    # degree 2 holds A_1; image is (-d_A a, g_1(a), -r_1(a)) in (A_0, B_1, C_1)
    expected_d2 = IntMatrix.from_rows([[-2], [1], [-1]])
    # degree 1 holds (A_0, B_1, C_1); image in (B_0, C_0) is
    # (d_B b + g_0(a), d_C c - r_0(a)) = (a + 2b, 0)
    expected_d1 = IntMatrix.from_rows([[1, 2, 0], [0, 0, 0]])
    bad = None
    if s.diff(2) != expected_d2:
        bad = {"degree": 2, "got": s.diff(2).to_lists(),
               "expected": expected_d2.to_lists()}
    elif s.diff(1) != expected_d1:
        bad = {"degree": 1, "got": s.diff(1).to_lists(),
               "expected": expected_d1.to_lists()}
    return Report("homology-two-arrow", {}, bad,
                  {"ranks": {str(n): s.rank(n) for n in range(s.lo, s.hi + 1)}})
