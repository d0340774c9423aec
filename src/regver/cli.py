"""`regver`: batch verification front-end.

Subcommands run identity suites and emit a JSON report envelope; exit code
0 means every requested assertion passed, 1 signals a verification failure
(the report carries a counterexample), 2 a usage or input error, and 3 an
internal error: an exception inside regver, reported as one line
`internal error: <type>: <message>` on stderr, never as a failed check.
Reports are deterministic up to the elapsed-time fields.

At import the module loads only the standard library that builds the
parser and dispatches.  Each command imports the layers it runs when it
runs them (`_layer`, and the imports inside the `run_*` functions and
`emit`), so that `verify` loads no linear algebra and `homology` no form
algebra; `verify`, `all` and `complex check` import a check's layer
before they time the check, so no `elapsed` includes an import.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import partial
from importlib import import_module
from itertools import chain
from time import perf_counter

# `expand` writes the m 2^(m-1) monomials of m slots as it makes them: its
# time doubles per slot, its memory stays flat.  By the rule of SUITES
# below, one output at 15 slots takes 2.3-3.9 s, at 16 about 5 s.
MAX_EXPAND_SLOTS = 15

Suite = namedtuple("Suite",
                   "option least limit extra quick full layer check")


def _layer(name: str):
    """The package module `name`, imported on first use, so that a command
    loads only the layers it runs.  Checks look their function up on it
    when called, which is where a test or the benchmark's tracer rebinds
    it."""
    return import_module(f".{name}", __package__)


# The `verify` suites in `--help` order: the depth option, its least value
# and its limit (of n + m for mixed-boundary), the one other option read
# (`verify` refuses the rest), the `all --level quick` and `full` depths,
# the layer of the check, and the check, which takes that layer's module
# and the depth ((m, i) for takeda, (n, m) for mixed-boundary) and looks
# its function up on the module when called.  One report at
# the limit takes 3-4.5 s on a 2-CPU x86-64 host with CPython 3.11, and
# past it the cost keeps growing polynomially: the algebraic suites compare
# integer coordinates of about m log m bits (T_m times 2 m!).
# scripts/growth_benchmark.py measures the depth each suite reaches in 2 s.
SUITES = {
    # m induced Deligne products, each over up to 4m coordinates
    "tm-identity": Suite(
        "m", 1, 720, None, 4, 5, "deligne",
        lambda deligne, m: deligne.verify_product_expansion(m)),
    # every i: derivations and induced wedges of one coordinate each
    "takeda": Suite(
        "m", 1, 1500, "i", 4, 5, "deligne",
        lambda deligne, m, i: deligne.verify_s_derivative_identities(m, i)),
    # one derivation or twisted differential of T_m's m coordinates
    "prop52": Suite(
        "m", 1, 2800, None, 4, 5, "deligne",
        lambda deligne, m: deligne.verify_raw_differential(m)),
    "recursion": Suite(
        "m", 2, 2800, None, 4, 5, "deligne",
        lambda deligne, m: deligne.verify_differential_recursion(m)),
    # Goncharov's m coordinates by Horner's rule in j: m^2 / 2 products
    "goncharov-wang": Suite(
        "m", 1, 1600, "perturb-cjm", 4, 6, "logforms",
        lambda logforms, m: logforms.verify_goncharov_equals_wang(m)),
    # max_p^2 / 2 pairs (q, p), each one step of two integer recurrences
    # and one product by (p-q)!, on integers of about max_p log max_p bits
    "factorial-lemma": Suite(
        "max-p", 0, 850, None, 30, 60, "combinatorics",
        lambda combinatorics, p: combinatorics.verify_factorial_lemma(p)),
    # about 3 max_n^2 / 4 big-integer binomials: every C(n, k) of the
    # alternating sums and the odd C(p+1, k) beside one Pascal row
    "binomial": Suite(
        "max-n", 0, 720, None, 20, 40, "combinatorics",
        lambda combinatorics, n: combinatorics.verify_binomial(n)),
    # one residue per divisor, read as an integer by one slot reduction of
    # sparse exponent rows along N coordinates; a report of N^2 labels
    "wang-boundary": Suite(
        "m", 1, 800, None, 4, 4, "logforms",
        lambda logforms, m: logforms.verify_wang_boundary(m)),
    "goncharov-boundary": Suite(
        "m", 1, 1100, None, 4, 4, "logforms",
        lambda logforms, m: logforms.verify_goncharov_boundary(m)),
    "mixed-boundary": Suite(
        "m", 1, 800, "n", 4, 4, "logforms",
        lambda logforms, n, m: logforms.verify_mixed_boundary(n, m)),
    # T_m's m integer coordinates, two factorials each; the check reads
    # only their keys
    "vanishing": Suite(
        "m", 1, 3800, None, 4, 5, "logforms",
        lambda logforms, m: logforms.verify_vanishing_on_diagonal(m)),
}

MIXED_PAIRS = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]

# the homology batch sizes of each `all` level
LEVELS = {
    "quick": {"cubical": 50, "snf": 50, "snf_oracle": 20, "les": 20},
    "full": {"cubical": 200, "snf": 200, "snf_oracle": 60, "les": 100},
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
    except Exception as e:  # a fault of regver, not of the input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regver",
        description="exact symbolic verification of regulator-form identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one identity suite")
    p_verify.add_argument("suite", choices=list(SUITES))
    for name in ("m", "i", "n", "max-p", "max-n"):
        p_verify.add_argument(f"--{name}", type=int, default=None)
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
    if args.command == "all":
        return emit(run_all(args.level), args.out)
    return {"expand": run_expand, "homology": run_homology,
            "complex": run_complex_check}[args.command](args)


def _need(value, name, minimum):
    if value is None:
        raise UsageError(f"--{name} is required")
    if value < minimum:
        raise UsageError(f"--{name} must be >= {minimum}")
    return value


def _perturbed_cjm(j: int, m: int):
    base = _layer("logforms").default_cjm(j, m)
    return base + 1 if j == 0 else base


def run_verify(args) -> list[Report]:
    s = args.suite
    suite = SUITES[s]
    for dest, value in vars(args).items():
        name = dest.replace("_", "-")
        if value is not None and dest not in ("command", "suite", "out") \
                and name not in (suite.option, suite.extra):
            raise UsageError(f"--{name}: {s} does not read this option")
    value = getattr(args, suite.option.replace("-", "_"))
    depth, what = value, suite.option
    if s == "mixed-boundary":
        depth, what = (args.n or 0) + (value or 0), "n + m"
    if depth is not None and depth > suite.limit:
        raise UsageError(f"--{suite.option}: {s} verifies {what} <= "
                         f"{suite.limit}, got {depth}")
    if s == "mixed-boundary":
        n, m = _need(args.n, "n", 0), _need(value, "m", 0)
        if n + m < suite.least:
            raise UsageError(f"need n + m >= {suite.least}")
        cases = [(n, m)]
    else:
        depth = _need(value, suite.option, suite.least)
        cases = [(depth,)]
    if s == "takeda":
        if args.i is not None and not 1 <= args.i <= depth:
            raise UsageError("--i must satisfy 1 <= i <= m")
        cases = [(depth, i) for i in
                 ([args.i] if args.i is not None else range(1, depth + 1))]
    layer = _layer(suite.layer)  # imported before any clock starts
    if args.perturb_cjm:  # goncharov-wang's fault injection
        return [_timed(lambda: layer.verify_goncharov_equals_wang(
            depth, _perturbed_cjm))]
    return [_timed(partial(suite.check, layer, *depths)) for depths in cases]


def run_expand(args) -> int:
    fam = args.family
    if fam != "mnm" and args.n is not None:  # only M_{n,m} has two depths
        raise UsageError(f"--n: {fam} does not read this option")
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
    from .counts import monomials, unfolded_len
    from .forms import to_json_text, to_latex
    from .report import SCHEMA_VERSION
    if fam == "tm":
        deligne = _layer("deligne")
        form, syms = deligne.t_counts(m), deligne.symbols(m)
    elif fam == "goncharov":
        from fractions import Fraction
        logforms = _layer("logforms")
        gonch, den = logforms.goncharov_counts(m)
        form, syms = gonch * Fraction(1, den), logforms.log_symbols(m)
    else:  # T in log units on (P^1)^n x P^m: W_m at (m, 0), G_m at (0, m)
        logforms = _layer("logforms")
        syms = logforms.ambient_symbols(_layer("residues").Ambient(
            *{"wm": (m, 0), "gm": (0, m)}.get(fam) or (n, m)))
        form = logforms.t_log_counts(len(syms))
    pairs = monomials(form, syms)
    if args.fmt == "latex":
        chunks = chain(to_latex(pairs), ["\n"])
    else:  # "expression" sorts first: the envelope's first "[]" is its value
        head, tail = _json({
            "schema_version": SCHEMA_VERSION, "tool": "regver",
            "family": fam, "params": params,
            "term_count": unfolded_len(form), "expression": []}).split("[]", 1)
        chunks = chain([head], to_json_text(pairs), [tail])
    with _sink(args.out) as fh:  # written as the stream goes
        fh.writelines(chunks)
    return 0


def _load_complex_or_cubical(path: str):
    """(complex or cubical group, kind) read from a file; a malformed file
    is a usage error (exit 2) with the reader's message."""
    homology = _layer("homology")
    try:
        obj = homology.load_json_file(path)
        if isinstance(obj, dict) and "faces" in obj:
            return homology.cubical_from_json(obj), "cubical"
        return homology.complex_from_json(obj), "complex"
    except homology.ComplexFormatError as e:
        raise UsageError(str(e)) from None


def run_homology(args) -> int:
    from .homology import homology, normalized_complex
    from .report import SCHEMA_VERSION
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
    _write(_json(payload), args.out)
    return 0


def run_complex_check(args) -> int:
    from .report import Report
    _layer("homology")  # imported before the clock starts

    def check():
        loaded, kind = _load_complex_or_cubical(args.input)
        # parsing already validated shapes, d^2 = 0 and the cubical
        # identities
        lo, hi = (0, loaded.top) if kind == "cubical" else \
            (loaded.lo, loaded.hi)
        ranks = {str(n): loaded.rank(n) for n in range(lo, hi + 1)}
        return Report("complex-check",
                      {"input": os.path.basename(args.input), "kind": kind},
                      stats={"ranks": ranks})
    return emit([_timed(check)], args.out)


def suite_plan(level: str):
    """(key, thunk) pairs of every check `all --level level` runs: an `--m`
    suite at every m from its least to the level's depth, a `--max-p` or
    `--max-n` suite once at that depth, then the homology batches.  The
    plan imports the layers of its checks as it binds them, so that no
    thunk's time includes an import."""
    plan = []
    for name, suite in SUITES.items():
        layer = _layer(suite.layer)
        top = getattr(suite, level)
        if name == "takeda":
            cases = [(f"-m{m}-i{i}", (m, i))
                     for m in range(suite.least, top + 1)
                     for i in range(1, m + 1)]
        elif name == "mixed-boundary":
            cases = [(f"-n{n}-m{m}", (n, m)) for n, m in MIXED_PAIRS
                     if n + m <= top]
        elif suite.option == "m":
            cases = [(f"-m{m}", (m,)) for m in range(suite.least, top + 1)]
        else:  # --max-p or --max-n: one report covers every depth to top
            cases = [(f"-{suite.option[-1]}{top:03d}", (top,))]
        plan += [(name + tag, partial(suite.check, layer, *depths))
                 for tag, depths in cases]
    cfg, suites = LEVELS[level], _layer("suites")
    return plan + [
        ("homology-cubical",
         lambda: suites.verify_cubical_batch(cfg["cubical"])),
        ("homology-snf", lambda: suites.verify_snf_batch(
            cfg["snf"], oracle_count=cfg["snf_oracle"])),
        ("homology-les", lambda: suites.verify_les_batch(cfg["les"])),
        ("homology-two-arrow", lambda: suites.verify_two_arrow_formula())]


def run_all(level: str) -> list[Report]:
    """Run the plan's suites one after another in this thread, so each
    report's `elapsed` is its own wall time, with the plan's layers
    imported before the first clock starts; reports come back sorted by
    suite key."""
    results = {}
    for key, fn in suite_plan(level):
        rep = _timed(fn)
        rep.suite = key
        results[key] = rep
    return [results[key] for key in sorted(results)]


def _timed(check) -> Report:
    """The report of check(), a call of no arguments, with the wall time
    of the whole call as its `elapsed`: every runner times its checks
    here, the checks themselves keep no clock."""
    t0 = perf_counter()
    rep = check()
    rep.elapsed = perf_counter() - t0
    return rep


def emit(reports: list[Report], out) -> int:
    from .report import SCHEMA_VERSION
    ok = all(r.passed for r in reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": "regver",
        "status": "pass" if ok else "fail",
        "reports": [r.to_dict() for r in reports],
    }
    _write(_json(payload), out)
    return 0 if ok else 1


def _json(payload) -> str:
    import json
    # every exact integer in full: lift the int-string digit limit meanwhile
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


@contextmanager
def _sink(out):
    """The --out file, or stdout without one; a path that cannot be
    written is a usage error (exit 2), not a failed check.  A reader that
    closes stdout early (`regver expand ... | head`) ends the output, not
    the run: the command keeps its exit code."""
    if not out:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError:  # nothing more can be written: drop the rest
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as e:
        raise UsageError(f"--out: cannot write: {e}") from None


def _write(text: str, out) -> None:
    """Write text to the --out path, or to stdout without one."""
    with _sink(out) as fh:
        fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
