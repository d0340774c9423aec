"""`regver`: batch verification front-end.

Subcommands run the identity and homology suites and emit a JSON report
envelope; exit code 0 means every requested assertion passed, 1 signals a
verification failure (the report carries a counterexample), 2 a usage or
input error, and 3 an internal error: an exception inside regver, reported
as one line `internal error: <type>: <message>` on stderr, never as a
failed check.  Reports are deterministic up to the elapsed-time fields.

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
                   "depths least limit others quick full layer check")


def _layer(name: str):
    """The package module `name`, imported on first use, so that a command
    loads only the layers it runs.  Checks look their function up on it
    when called, which is where a test or the benchmark's tracer rebinds
    it."""
    return import_module(f".{name}", __package__)


_M = [{"m": m} for m in range(7)]  # _M[1:5]: the settings m = 1, ..., 4

# The `verify` suites in `--help` order: the depth options, whose sum the
# limit bounds, their least value (of the sum, for two), the other options
# read (`verify` refuses the rest), the settings of `all --level quick` and
# `full`, each the options of one `verify` run, the layer of the check,
# and the check, which takes that module and the options as keywords
# (`max_p` for `--max-p`) and looks its function up on the module when
# called.  One report at the limit takes 3-4.5 s on a 2-CPU x86-64 host
# with CPython 3.11, and past it the cost keeps growing polynomially: the
# algebraic suites compare integer coordinates of about m log m bits (T_m
# times 2 m!), the batches draw `--count` instances one after another, so
# `--count k+1` replays instance k.  scripts/growth_benchmark.py measures
# the depth each suite reaches in 2 s.
SUITES = {
    # m induced Deligne products, each over up to 4m coordinates
    "tm-identity": Suite(
        ("m",), 1, 850, (), _M[1:5], _M[1:6], "deligne",
        lambda deligne, m: deligne.verify_product_expansion(m)),
    # every i: derivations and induced wedges of one coordinate each
    "takeda": Suite(
        ("m",), 1, 1800, ("i",), _M[1:5], _M[1:6], "deligne",
        lambda deligne, m, i: deligne.verify_s_derivative_identities(m, i)),
    # one derivation or twisted differential of T_m's m coordinates
    "prop52": Suite(
        ("m",), 1, 2800, (), _M[1:5], _M[1:6], "deligne",
        lambda deligne, m: deligne.verify_raw_differential(m)),
    "recursion": Suite(
        ("m",), 2, 2800, (), _M[2:5], _M[2:6], "deligne",
        lambda deligne, m: deligne.verify_differential_recursion(m)),
    # Goncharov's m coordinates by Horner's rule in j: m^2 / 2 products
    "goncharov-wang": Suite(
        ("m",), 1, 2000, ("perturb-cjm",), _M[1:5], _M[1:7], "logforms",
        lambda logforms, m, perturb_cjm=False:
            logforms.verify_goncharov_equals_wang(m, _perturbed_cjm)
            if perturb_cjm else logforms.verify_goncharov_equals_wang(m)),
    # max_p^2 / 2 pairs (q, p), each one step of two integer recurrences
    # and one product by (p-q)!, on integers of about max_p log max_p bits
    "factorial-lemma": Suite(
        ("max-p",), 0, 850, (), [{"max-p": 30}], [{"max-p": 60}],
        "combinatorics", lambda combinatorics, max_p:
            combinatorics.verify_factorial_lemma(max_p)),
    # about 3 max_n^2 / 4 big-integer binomials: every C(n, k) of the
    # alternating sums and the odd C(p+1, k) beside one Pascal row
    "binomial": Suite(
        ("max-n",), 0, 720, (), [{"max-n": 20}], [{"max-n": 40}],
        "combinatorics", lambda combinatorics, max_n:
            combinatorics.verify_binomial(max_n)),
    # one residue per divisor, read as an integer by one slot reduction of
    # sparse exponent rows along N coordinates; a report of N^2 labels
    "wang-boundary": Suite(
        ("m",), 1, 800, (), _M[1:5], _M[1:5], "logforms",
        lambda logforms, m: logforms.verify_wang_boundary(m)),
    "goncharov-boundary": Suite(
        ("m",), 1, 1100, (), _M[1:5], _M[1:5], "logforms",
        lambda logforms, m: logforms.verify_goncharov_boundary(m)),
    "mixed-boundary": Suite(
        ("n", "m"), 1, 800, (),
        [{"n": n, "m": s - n} for s in (2, 3, 4) for n in range(1, s)],
        [{"n": n, "m": s - n} for s in (2, 3, 4) for n in range(1, s)],
        "logforms",
        lambda logforms, n, m: logforms.verify_mixed_boundary(n, m)),
    # T_m's m integer coordinates, two factorials each; the check reads
    # only their keys
    "vanishing": Suite(
        ("m",), 1, 3800, (), _M[1:5], _M[1:6], "logforms",
        lambda logforms, m: logforms.verify_vanishing_on_diagonal(m)),
    # random instances of bounded size, from each batch's fixed seed: one
    # cubical group, 4 x 4 Smith form (3 x 3 oracle) or LES map per count
    "homology-cubical": Suite(
        ("count",), 1, 11000, (), [{"count": 50}], [{"count": 200}],
        "suites", lambda suites, count: suites.verify_cubical_batch(count)),
    "homology-snf": Suite(
        ("count", "oracle-count"), 1, 40000, (),
        [{"count": 50, "oracle-count": 20}],
        [{"count": 200, "oracle-count": 60}], "suites",
        lambda suites, count, oracle_count:
            suites.verify_snf_batch(count, oracle_count=oracle_count)),
    "homology-les": Suite(
        ("count",), 1, 12000, (), [{"count": 20}], [{"count": 100}],
        "suites", lambda suites, count: suites.verify_les_batch(count)),
    # one hand-built instance: no depth
    "homology-two-arrow": Suite(
        (), 0, 0, (), [{}], [{}], "suites",
        lambda suites: suites.verify_two_arrow_formula()),
}

# The integer options of `verify` in the order of their parts of an `all`
# key, with each part's format; a batch's count adds no part.
TAGS = {"n": "-n{}", "m": "-m{}", "i": "-i{}", "max-p": "-p{:03d}",
        "max-n": "-n{:03d}", "count": "", "oracle-count": ""}


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

    p_verify = sub.add_parser("verify", help="run one suite")
    p_verify.add_argument("suite", choices=list(SUITES))
    for name in TAGS:
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


def suite_checks(name: str, given: dict) -> list:
    """(key tag, thunk) pairs of suite `name` at the options `given`, one
    per i of takeda without `--i`; a usage error for an unread option or a
    missing or out-of-range value.  Imports the layer before any clock."""
    suite = SUITES[name]
    for option in given:
        if option not in suite.depths + suite.others:
            raise UsageError(f"--{option}: {name} does not read this option")
    least = suite.least if len(suite.depths) == 1 else 0  # else the sum's
    depth = sum(_need(given.get(o), o, least) for o in suite.depths)
    what = " + ".join(suite.depths)
    if depth > suite.limit:
        raise UsageError(f"--{suite.depths[-1]}: {name} verifies {what} <= "
                         f"{suite.limit}, got {depth}")
    if depth < suite.least:
        raise UsageError(f"need {what} >= {suite.least}")
    if "i" in given and not 1 <= given["i"] <= depth:
        raise UsageError("--i must satisfy 1 <= i <= m")
    cases = [{**given, "i": i} for i in range(1, depth + 1)] \
        if "i" in suite.others and "i" not in given else [given]
    layer = _layer(suite.layer)
    return [("".join(TAGS[o].format(case[o]) for o in TAGS if o in case),
             partial(suite.check, layer, **{o.replace("-", "_"): v
                                            for o, v in case.items()}))
            for case in cases]


def run_verify(args) -> list[Report]:
    """`verify`: each check of `suite_checks` at the given options, timed."""
    given = {dest.replace("_", "-"): value
             for dest, value in vars(args).items()
             if value is not None and dest not in ("command", "suite", "out")}
    return [_timed(check) for _, check in suite_checks(args.suite, given)]


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
    except homology.InvalidComplexData as e:
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
    """(key, thunk) pairs of every check `all --level level` runs: those
    of `suite_checks` at each of the level's settings of each suite, keyed
    by suite and tag."""
    return [(name + tag, check) for name, suite in SUITES.items()
            for setting in getattr(suite, level)
            for tag, check in suite_checks(name, setting)]


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
