"""`regver`: batch verification front-end.

Subcommands run identity suites and emit a JSON report envelope; exit code
0 means every requested assertion passed, 1 signals a verification failure
(the report carries a counterexample), 2 a usage or input error.  Reports
are deterministic up to the elapsed-time fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import combinatorics as comb
from . import deligne, logforms, suites
from .forms import to_json_obj, to_latex
from .homology import (ComplexFormatError, complex_from_json,
                       cubical_from_json, homology, load_json_file,
                       normalized_complex)
from .report import SCHEMA_VERSION, Report

# `expand` prints m 2^(m-1) monomials for m slots, doubling its time and
# memory per slot: 12 slots take about 3 s and 300 MB, 14 over a GB.
MAX_EXPAND_SLOTS = 12

# `verify` depth limits (n + m for mixed-boundary; DEPTH_OPTION names the
# option where it is not --m).  One report at the limit takes 3-4.5 s on a
# 2-CPU x86-64 host with CPython 3.11, and past it the cost keeps growing
# polynomially: the five algebraic suites compare integer coordinates
# of about m log m bits (T_m times 2 m!), and each big-integer product
# costs more as they grow.  scripts/growth_benchmark.py measures the
# depth each suite reaches in 2 s.
MAX_VERIFY_M = {
    # m induced Deligne products, each over up to 4m coordinates
    "tm-identity": 720,
    # every i: derivations and induced wedges of one coordinate each
    "takeda": 1500,
    # one derivation or twisted differential of T_m's m coordinates
    "prop52": 2800,
    "recursion": 2800,
    # Goncharov's m coordinates by Horner's rule in j: m^2 / 2 products
    "goncharov-wang": 1600,
    # one residue per divisor, read as an integer: slot operations on
    # sparse exponent rows, then an N-1 slot Bareiss determinant each;
    # T_(N-1) only in a failing payload
    "wang-boundary": 145,
    "goncharov-boundary": 180,
    "mixed-boundary": 150,
    # T_m's m integer coordinates, two factorials each; the check reads
    # only their keys
    "vanishing": 3800,
    # max_p^2 / 2 pairs (q, p), each two integer sums of p terms
    "factorial-lemma": 180,
    # about 3 max_n^2 / 4 big-integer binomials: every C(n, k) of the
    # alternating sums and the odd C(p+1, k) beside one Pascal row
    "binomial": 720,
}

DEPTH_OPTION = {"factorial-lemma": "max-p", "binomial": "max-n"}
# the one option a suite reads besides its depth option; `verify` refuses others
EXTRA_OPTION = {"takeda": "i", "goncharov-wang": "perturb-cjm",
                "mixed-boundary": "n"}

MIXED_PAIRS = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]

LEVELS = {
    "quick": {"max_p": 30, "max_n": 20, "tm": 4, "takeda": 4, "prop52": 4,
              "recursion": 4, "goncharov": 4, "boundary": 4, "vanishing": 4,
              "cubical": 50, "snf": 50, "snf_oracle": 20, "les": 20},
    "full": {"max_p": 60, "max_n": 40, "tm": 5, "takeda": 5, "prop52": 5,
             "recursion": 5, "goncharov": 6, "boundary": 4, "vanishing": 5,
             "cubical": 200, "snf": 200, "snf_oracle": 60, "les": 100},
}


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return dispatch(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ComplexFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regver",
        description="exact symbolic verification of regulator-form identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one identity suite")
    p_verify.add_argument("suite", choices=[
        "tm-identity", "takeda", "prop52", "recursion", "goncharov-wang",
        "factorial-lemma", "binomial", "wang-boundary", "goncharov-boundary",
        "mixed-boundary", "vanishing"])
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--i", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--max-p", type=int, default=None, dest="max_p")
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_verify.add_argument("--perturb-cjm", action="store_true", default=None,
                          help="self-test hook: perturb one rational "
                               "coefficient so the suite must fail")
    p_verify.add_argument("--out", default=None)

    p_expand = sub.add_parser("expand", help="emit a form expression")
    p_expand.add_argument("family", choices=["tm", "wm", "gm", "mnm",
                                             "goncharov"])
    p_expand.add_argument("--m", type=int, default=None)
    p_expand.add_argument("--n", type=int, default=None)
    p_expand.add_argument("--format", choices=["json", "latex"],
                          default="json", dest="fmt")
    p_expand.add_argument("--out", default=None)

    p_hom = sub.add_parser("homology", help="homology of a complex file")
    p_hom.add_argument("--input", required=True)
    p_hom.add_argument("--degree", type=int, default=None)
    p_hom.add_argument("--out", default=None)

    p_cx = sub.add_parser("complex", help="complex file utilities")
    p_cx.add_argument("action", choices=["check"])
    p_cx.add_argument("--input", required=True)
    p_cx.add_argument("--out", default=None)

    p_all = sub.add_parser("all", help="run every suite at a depth level")
    p_all.add_argument("--level", choices=["quick", "full"], default="quick")
    p_all.add_argument("--out", default=None)
    return parser


def dispatch(args) -> int:
    if args.command == "verify":
        return emit(run_verify(args), args.out)
    if args.command == "expand":
        return run_expand(args)
    if args.command == "homology":
        return run_homology(args)
    if args.command == "complex":
        return run_complex_check(args)
    if args.command == "all":
        return emit(run_all(args.level), args.out)
    raise UsageError(f"unknown command {args.command}")


def _need(value, name, minimum):
    if value is None:
        raise UsageError(f"--{name} is required")
    if value < minimum:
        raise UsageError(f"--{name} must be >= {minimum}")
    return value


def _perturbed_cjm(j: int, m: int) -> Fraction:
    base = logforms.default_cjm(j, m)
    return base + 1 if j == 0 else base


def run_verify(args) -> list[Report]:
    s = args.suite
    option = DEPTH_OPTION.get(s, "m")
    for dest, value in vars(args).items():
        name = dest.replace("_", "-")
        if value is not None and dest not in ("command", "suite", "out") \
                and name not in (option, EXTRA_OPTION.get(s)):
            raise UsageError(f"--{name}: {s} does not read this option")
    depth = (args.n or 0) + (args.m or 0) if s == "mixed-boundary" else \
        getattr(args, option.replace("-", "_"))
    if s in MAX_VERIFY_M and depth is not None and depth > MAX_VERIFY_M[s]:
        what = "n + m" if s == "mixed-boundary" else option
        raise UsageError(f"--{option}: {s} verifies {what} <= "
                         f"{MAX_VERIFY_M[s]}, got {depth}")
    if s == "tm-identity":
        m = _need(args.m, "m", 1)
        return [deligne.verify_product_expansion(m)]
    if s == "takeda":
        m = _need(args.m, "m", 1)
        if args.i is not None:
            if not 1 <= args.i <= m:
                raise UsageError("--i must satisfy 1 <= i <= m")
            return [deligne.verify_s_derivative_identities(m, args.i)]
        return [deligne.verify_s_derivative_identities(m, i)
                for i in range(1, m + 1)]
    if s == "prop52":
        return [deligne.verify_raw_differential(_need(args.m, "m", 1))]
    if s == "recursion":
        return [deligne.verify_differential_recursion(_need(args.m, "m", 2))]
    if s == "goncharov-wang":
        m = _need(args.m, "m", 1)
        cjm = _perturbed_cjm if args.perturb_cjm else logforms.default_cjm
        return [logforms.verify_goncharov_equals_wang(m, cjm)]
    if s == "factorial-lemma":
        return [comb.verify_factorial_lemma(_need(args.max_p, "max-p", 0))]
    if s == "binomial":
        return [comb.verify_binomial(_need(args.max_n, "max-n", 0))]
    if s == "wang-boundary":
        return [logforms.verify_wang_boundary(_need(args.m, "m", 1))]
    if s == "goncharov-boundary":
        return [logforms.verify_goncharov_boundary(_need(args.m, "m", 1))]
    if s == "mixed-boundary":
        n = _need(args.n, "n", 0)
        m = _need(args.m, "m", 0)
        if n + m < 1:
            raise UsageError("need n + m >= 1")
        return [logforms.verify_mixed_boundary(n, m)]
    if s == "vanishing":
        return [logforms.verify_vanishing_on_diagonal(_need(args.m, "m", 1))]
    raise UsageError(f"unknown suite {s}")


def run_expand(args) -> int:
    fam = args.family
    if fam == "mnm":
        n = _need(args.n, "n", 0)
        m = _need(args.m, "m", 0)
        params = {"n": n, "m": m}
    else:
        m = _need(args.m, "m", 1 if fam == "goncharov" else 0)
        params = {"m": m}
    slots = sum(params.values())
    if slots > MAX_EXPAND_SLOTS:
        raise UsageError(f"--m: expand prints at most {MAX_EXPAND_SLOTS} "
                         f"slots, got {slots}")
    if fam == "tm":
        expr = deligne.build_t(deligne.symbols(m))
    elif fam == "wm":
        expr = logforms.build_m(m, 0)
    elif fam == "gm":
        expr = logforms.build_m(0, m)
    elif fam == "mnm":
        expr = logforms.build_m(n, m)
    else:  # goncharov
        expr = logforms.build_goncharov(logforms.log_symbols(m))
    if args.fmt == "latex":
        _write(to_latex(expr) + "\n", args.out)
    else:
        payload = {"schema_version": SCHEMA_VERSION, "tool": "regver",
                   "family": fam, "params": params,
                   "term_count": len(expr), "expression": to_json_obj(expr)}
        _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _load_complex_or_cubical(path: str):
    obj = load_json_file(path)
    if isinstance(obj, dict) and "faces" in obj:
        return cubical_from_json(obj), "cubical"
    return complex_from_json(obj), "complex"


def run_homology(args) -> int:
    loaded, kind = _load_complex_or_cubical(args.input)
    # cubical input is normalized first: that is the complex whose homology
    # the cycle-group constructions use
    cx = normalized_complex(loaded) if kind == "cubical" else loaded
    degrees = [args.degree] if args.degree is not None else \
        list(range(cx.lo, cx.hi + 1))
    table = {}
    for n in degrees:
        betti, torsion = homology(cx, n)
        table[str(n)] = {"betti": betti, "torsion": torsion}
    payload = {"schema_version": SCHEMA_VERSION, "tool": "regver",
               "input": os.path.basename(args.input), "kind": kind,
               "homology": table}
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def run_complex_check(args) -> int:
    loaded, kind = _load_complex_or_cubical(args.input)
    # parsing already validated shapes, d^2 = 0 and the cubical identities
    if kind == "cubical":
        ranks = {str(n): loaded.rank(n) for n in range(loaded.top + 1)}
    else:
        ranks = {str(n): loaded.rank(n) for n in range(loaded.lo, loaded.hi + 1)}
    rep = Report(suite="complex-check",
                 params={"input": os.path.basename(args.input), "kind": kind},
                 status="pass", elapsed=0.0, stats={"ranks": ranks})
    return emit([rep], args.out)


def suite_plan(level: str):
    cfg = LEVELS[level]
    plan = []
    plan.append((f"factorial-lemma-p{cfg['max_p']:03d}",
                 lambda: comb.verify_factorial_lemma(cfg["max_p"])))
    plan.append((f"binomial-n{cfg['max_n']:03d}",
                 lambda: comb.verify_binomial(cfg["max_n"])))
    for m in range(1, cfg["tm"] + 1):
        plan.append((f"tm-identity-m{m}",
                     lambda m=m: deligne.verify_product_expansion(m)))
    for m in range(1, cfg["takeda"] + 1):
        for i in range(1, m + 1):
            plan.append((f"takeda-m{m}-i{i}",
                         lambda m=m, i=i:
                         deligne.verify_s_derivative_identities(m, i)))
    for m in range(1, cfg["prop52"] + 1):
        plan.append((f"prop52-m{m}",
                     lambda m=m: deligne.verify_raw_differential(m)))
    for m in range(2, cfg["recursion"] + 1):
        plan.append((f"recursion-m{m}",
                     lambda m=m: deligne.verify_differential_recursion(m)))
    for m in range(1, cfg["goncharov"] + 1):
        plan.append((f"goncharov-wang-m{m}",
                     lambda m=m: logforms.verify_goncharov_equals_wang(m)))
    for m in range(1, cfg["boundary"] + 1):
        plan.append((f"wang-boundary-m{m}",
                     lambda m=m: logforms.verify_wang_boundary(m)))
        plan.append((f"goncharov-boundary-m{m}",
                     lambda m=m: logforms.verify_goncharov_boundary(m)))
    for n, m in MIXED_PAIRS:
        if n + m <= cfg["boundary"]:
            plan.append((f"mixed-boundary-n{n}-m{m}",
                         lambda n=n, m=m: logforms.verify_mixed_boundary(n, m)))
    for m in range(1, cfg["vanishing"] + 1):
        plan.append((f"vanishing-m{m}",
                     lambda m=m: logforms.verify_vanishing_on_diagonal(m)))
    plan.append(("homology-cubical",
                 lambda: suites.verify_cubical_batch(cfg["cubical"])))
    plan.append(("homology-snf",
                 lambda: suites.verify_snf_batch(cfg["snf"],
                                                 oracle_count=cfg["snf_oracle"])))
    plan.append(("homology-les", lambda: suites.verify_les_batch(cfg["les"])))
    plan.append(("homology-two-arrow", suites.verify_two_arrow_formula))
    return plan


def run_all(level: str) -> list[Report]:
    """Run the plan's suites one after another in this thread, so each
    report's `elapsed` is its own wall time; reports come back sorted by
    suite key."""
    results = {}
    for key, fn in suite_plan(level):
        rep = fn()
        rep.suite = key
        results[key] = rep
    return [results[key] for key in sorted(results)]


def emit(reports: list[Report], out) -> int:
    ok = all(r.passed for r in reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": "regver",
        "status": "pass" if ok else "fail",
        "reports": [r.to_dict() for r in reports],
    }
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)
    return 0 if ok else 1


def _write(text: str, out) -> None:
    """Write text to the --out path, or to stdout without one; a path that
    cannot be written is a usage error (exit 2), not a failed check."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"--out: cannot write: {e}") from None


if __name__ == "__main__":
    sys.exit(main())
