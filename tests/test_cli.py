import ast
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from form_oracle import (alternate, oracle_latex, oracle_unfold,
                         seeded_goncharov, t_seed, to_form)
from regver import (cli, combinatorics, counts, deligne, logforms, matrices,
                    suites)
from regver import homology as homology_layer
from regver.cli import MAX_EXPAND_SLOTS, main
from regver.forms import symbols, to_json_obj
from regver.homology import complex_to_json, cubical_to_json, two_term_complex
from regver.matrices import IntMatrix
from regver.randomized import interval_cubical
from regver.residues import Ambient
from regver.report import Report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factorial_lemma_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "factorial-lemma", "--max-p", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["schema_version"] == 1
    assert payload["reports"][0]["stats"]["pairs"] == 66


def test_expand_tm_latex(capsys):
    code, out, _ = run_cli(capsys, "expand", "tm", "--m", "1",
                           "--format", "latex")
    assert code == 0
    assert out.strip() == "u_{1}"


def test_expand_wm_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "wm", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "wm"
    assert payload["term_count"] == 4
    symbols = {f["symbol"] for t in payload["expression"]
               for f in t["factors"]}
    assert symbols == {"y1/x1", "y2/x2"}


def test_expand_mnm(capsys):
    code, out, _ = run_cli(capsys, "expand", "mnm", "--n", "1", "--m", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"n": 1, "m": 1}


@pytest.mark.parametrize("argv", [
    ["tm", "--m", str(MAX_EXPAND_SLOTS + 1)],
    ["mnm", "--n", "8", "--m", str(MAX_EXPAND_SLOTS - 7)]])
def test_expand_refuses_depths_that_cannot_finish(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("the form was built")

    monkeypatch.setattr(counts, "monomials", refuse)
    monkeypatch.setattr(counts, "unfolded_len", refuse)
    code, out, err = run_cli(capsys, "expand", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --m: ")


def oracle_form(family, n, m):
    """The form `regver expand` writes, built by the oracles: T_m and
    Goncharov's family alternated from their seeds, the log-unit T on an
    ambient's symbols unfolded from its folded form."""
    if family == "tm":
        return alternate(t_seed(symbols(m)), symbols(m))
    if family == "goncharov":
        return seeded_goncharov(logforms.log_symbols(m))
    lines, proj = {"wm": (m, 0), "gm": (0, m), "mnm": (n, m)}[family]
    fs = logforms.ambient_symbols(Ambient(lines, proj))
    return oracle_unfold(to_form(logforms.t_log_counts(len(fs)), fs), fs)


@pytest.mark.parametrize("family,n,m", [
    ("tm", None, 0), ("tm", None, 4), ("wm", None, 3), ("gm", None, 0),
    ("gm", None, 3), ("goncharov", None, 1), ("goncharov", None, 4),
    ("mnm", 0, 0), ("mnm", 2, 1)])
@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_expand_writes_the_oracle_form(capsys, family, n, m, fmt):
    """The stream `expand` writes is the whole oracle form, sorted, as
    json.dumps(..., sort_keys=True, indent=2) writes it (a form on no
    slot is one record with no factor), or as the former LaTeX writer
    joined it."""
    depths = ["--m", str(m)] + (["--n", str(n)] if n is not None else [])
    code, out, err = run_cli(capsys, "expand", family, *depths,
                             "--format", fmt)
    assert (code, err) == (0, "")
    expr = oracle_form(family, n, m)
    if fmt == "latex":
        assert out == oracle_latex(expr) + "\n"
        return
    params = {"m": m} if n is None else {"n": n, "m": m}
    payload = {"schema_version": 1, "tool": "regver", "family": family,
               "params": params, "term_count": len(expr),
               "expression": to_json_obj(expr.pairs())}
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if m == 0:
        assert json.loads(out)["expression"] == [{"coeff": "1/1",
                                                  "factors": []}]


def test_expand_holds_no_whole_form(tmp_path):
    """The monomials are written as they are made: T_9's 2304 of them
    take a tracemalloc peak under 4 MiB (a whole form took 19 MiB)."""
    out = tmp_path / "t9.json"
    assert main(["expand", "tm", "--m", "1", "--out", str(out)]) == 0
    tracemalloc.start()  # the layers are imported above, not traced
    try:
        assert main(["expand", "tm", "--m", "9", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert json.loads(out.read_text())["term_count"] == 9 * 2 ** 8


@pytest.mark.parametrize("family", ["tm", "wm", "gm", "goncharov"])
def test_expand_refuses_options_the_family_does_not_read(capsys, family):
    """--n, which only mnm reads, exits 2 with one line naming it, as
    `verify` refuses an option its suite does not read."""
    code, out, err = run_cli(capsys, "expand", family, "--m", "1",
                             "--n", "5")
    assert code == 2 and out == ""
    assert err == f"error: --n: {family} does not read this option\n"
    code, _, _ = run_cli(capsys, "expand", family, "--m", "1")
    assert code == 0


VERIFY_FUNCTIONS = {
    "tm-identity": (deligne, "verify_product_expansion"),
    "takeda": (deligne, "verify_s_derivative_identities"),
    "prop52": (deligne, "verify_raw_differential"),
    "recursion": (deligne, "verify_differential_recursion"),
    "goncharov-wang": (logforms, "verify_goncharov_equals_wang"),
    "wang-boundary": (logforms, "verify_wang_boundary"),
    "goncharov-boundary": (logforms, "verify_goncharov_boundary"),
    "mixed-boundary": (logforms, "verify_mixed_boundary"),
    "vanishing": (logforms, "verify_vanishing_on_diagonal"),
    "factorial-lemma": (combinatorics, "verify_factorial_lemma"),
    "binomial": (combinatorics, "verify_binomial"),
}


def depth_argv(suite, depth):
    """verify argv at a depth: n + m for mixed-boundary, one i for takeda,
    --max-p or --max-n for the two suites that take it."""
    if suite == "mixed-boundary":
        return ["--n", "1", "--m", str(depth - 1)]
    if suite == "takeda":
        return ["--m", str(depth), "--i", "1"]
    return [f"--{cli.SUITES[suite].option}", str(depth)]


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_verify_refuses_depths_past_the_limit(capsys, monkeypatch, suite):
    """One past the suite's limit exits 2 before building anything; the
    limit itself reaches the suite once."""
    assert set(cli.SUITES) == set(VERIFY_FUNCTIONS)
    module, name = VERIFY_FUNCTIONS[suite]
    calls = []

    def stub(*args):
        calls.append(args)
        return Report(suite, {})

    monkeypatch.setattr(module, name, stub)
    limit = cli.SUITES[suite].limit
    option = cli.SUITES[suite].option
    code, out, err = run_cli(capsys, "verify", suite,
                             *depth_argv(suite, limit + 1))
    assert code == 2 and out == "" and calls == []
    assert err.startswith(f"error: --{option}: {suite} verifies ")
    assert err.strip().endswith(f"<= {limit}, got {limit + 1}")
    code, _, _ = run_cli(capsys, "verify", suite, *depth_argv(suite, limit))
    assert code == 0 and len(calls) == 1


# the options each suite reads; every other one exits 2
READS = {"takeda": {"m", "i"}, "goncharov-wang": {"m", "perturb-cjm"},
         "mixed-boundary": {"n", "m"}, "factorial-lemma": {"max-p"},
         "binomial": {"max-n"}}
OPTIONS = {"m": "2", "i": "1", "n": "1", "max-p": "2", "max-n": "2",
           "perturb-cjm": None}


def option_argv(names):
    out = []
    for name in sorted(names):
        out += [f"--{name}"] + ([OPTIONS[name]] if OPTIONS[name] else [])
    return out


@pytest.mark.parametrize("suite", sorted(VERIFY_FUNCTIONS))
def test_verify_refuses_options_the_suite_does_not_read(capsys, monkeypatch,
                                                        suite):
    """Every option but the suite's own exits 2 before running anything,
    naming the option; with only its own options the suite runs."""
    module, name = VERIFY_FUNCTIONS[suite]
    calls = []

    def stub(*args):
        calls.append(args)
        return Report(suite, {})

    monkeypatch.setattr(module, name, stub)
    reads = READS.get(suite, {"m"})
    for extra in sorted(set(OPTIONS) - reads):
        code, out, err = run_cli(capsys, "verify", suite,
                                 *option_argv(reads | {extra}))
        assert code == 2 and out == "" and calls == []
        assert err.startswith(f"error: --{extra}: {suite} does not read ")
    code, _, _ = run_cli(capsys, "verify", suite, *option_argv(reads))
    assert code == 0 and calls


@pytest.mark.parametrize("argv", [
    ["tm-identity", "--m", "3", "--perturb-cjm"],
    ["factorial-lemma", "--max-p", "3", "--m", "7", "--i", "2"]])
def test_a_fault_injection_on_the_wrong_suite_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == "" and err.startswith("error: --")


def test_usage_error_for_m_zero(capsys):
    code, _, err = run_cli(capsys, "verify", "tm-identity", "--m", "0")
    assert code == 2
    assert "--m" in err


def test_usage_error_for_unknown_suite(capsys):
    code, _, _ = run_cli(capsys, "verify", "nonsense", "--m", "1")
    assert code == 2


def test_takeda_all_indices(capsys):
    code, out, _ = run_cli(capsys, "verify", "takeda", "--m", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 3


def test_fault_injection_flips_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "goncharov-wang", "--m", "3",
                           "--perturb-cjm")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    ce = payload["reports"][0]["counterexample"]
    assert ce is not None and ce["difference_term_count"] > 0


def test_reports_deterministic_modulo_timing(capsys):
    argv = ["verify", "recursion", "--m", "3"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    scrub = lambda s: re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": 0', s)
    assert scrub(out1) == scrub(out2)


def test_homology_command(tmp_path, capsys):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(two_term_complex(1, [[2]]))))
    code, out, _ = run_cli(capsys, "homology", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["homology"]["0"] == {"betti": 0, "torsion": [2]}
    assert payload["homology"]["1"] == {"betti": 0, "torsion": []}

    code, out, _ = run_cli(capsys, "homology", "--input", str(path),
                           "--degree", "0")
    payload = json.loads(out)
    assert list(payload["homology"]) == ["0"]


def test_homology_of_cubical_file(tmp_path, capsys):
    path = tmp_path / "cub.json"
    path.write_text(json.dumps(cubical_to_json(interval_cubical(2))))
    code, out, _ = run_cli(capsys, "homology", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "cubical"
    # the interval is contractible
    assert payload["homology"]["0"] == {"betti": 1, "torsion": []}
    assert payload["homology"]["1"] == {"betti": 0, "torsion": []}


def test_complex_check(tmp_path, capsys):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(two_term_complex(1, [[2]]))))
    code, out, _ = run_cli(capsys, "complex", "check", "--input", str(path))
    assert code == 0
    assert json.loads(out)["status"] == "pass"


SLEEP_S = 0.01


def test_complex_check_reports_its_wall_time(tmp_path, capsys, monkeypatch):
    """`elapsed` is the whole check's wall time, reading the file
    included."""
    path = tmp_path / "cub.json"
    path.write_text(json.dumps(cubical_to_json(interval_cubical(2))))
    real = cli._load_complex_or_cubical

    def slow(path):
        time.sleep(SLEEP_S)
        return real(path)

    monkeypatch.setattr(cli, "_load_complex_or_cubical", slow)
    code, out, _ = run_cli(capsys, "complex", "check", "--input", str(path))
    assert code == 0
    assert json.loads(out)["reports"][0]["elapsed"] >= SLEEP_S


def sleeper(suite):
    """A check that takes SLEEP_S and reports no time of its own."""
    def check(*args):
        time.sleep(SLEEP_S)
        return Report(suite, {})
    return check


@pytest.mark.parametrize("argv, count", [
    (["takeda", "--m", "3"], 3), (["takeda", "--m", "3", "--i", "2"], 1),
    (["mixed-boundary", "--n", "1", "--m", "1"], 1),
    (["goncharov-wang", "--m", "2", "--perturb-cjm"], 1),
    (["factorial-lemma", "--max-p", "2"], 1), (["tm-identity", "--m", "2"], 1)])
def test_verify_times_every_check_it_runs(capsys, monkeypatch, argv, count):
    """The runner, not the check, sets `elapsed`: every report of `verify`,
    each takeda i included, carries the whole check's wall time."""
    module, name = VERIFY_FUNCTIONS[argv[0]]
    monkeypatch.setattr(module, name, sleeper(argv[0]))
    code, out, _ = run_cli(capsys, "verify", *argv)
    reports = json.loads(out)["reports"]
    assert code == 0 and len(reports) == count
    assert all(r["elapsed"] >= SLEEP_S for r in reports)


def test_all_times_every_check_it_runs(monkeypatch):
    monkeypatch.setattr(cli, "suite_plan", lambda level: [
        (key, sleeper(key)) for key in ("b", "a")])
    reports = cli.run_all("quick")
    assert [r.suite for r in reports] == ["a", "b"]
    assert all(r.elapsed >= SLEEP_S for r in reports)


def test_only_the_runner_keeps_a_clock():
    """No module of the package but the CLI imports `perf_counter`: the
    checks keep no clock of their own, and a direct call of one returns
    `elapsed` 0.0."""
    package = Path(cli.__file__).parent
    clocked = sorted(p.name for p in package.glob("*.py")
                     if "perf_counter" in p.read_text())
    assert clocked == ["cli.py"]
    assert combinatorics.verify_factorial_lemma(3).elapsed == 0.0


IMPORT_S = 0.25


@pytest.mark.parametrize("argv", [
    ["all", "--level", "quick"], ["verify", "takeda", "--m", "2"],
    ["verify", "goncharov-wang", "--m", "1", "--perturb-cjm"],
    ["complex", "check", "--input", "cub.json"]])
def test_no_elapsed_includes_a_layer_import(tmp_path, capsys, monkeypatch,
                                            argv):
    """`verify`, `all` and `complex check` import the layers of their
    checks before they start a clock: with each layer's first import
    taking IMPORT_S, no report's `elapsed` does."""
    if "--input" in argv:  # a cubical file for `complex check` to read
        path = tmp_path / argv[-1]
        path.write_text(json.dumps(cubical_to_json(interval_cubical(2))))
        argv = [*argv[:-1], str(path)]
    real, imported = cli._layer, set()

    def slow_import(name):
        if name not in imported:
            imported.add(name)
            time.sleep(IMPORT_S)
        return real(name)

    monkeypatch.setattr(cli, "_layer", slow_import)
    code, out, _ = run_cli(capsys, *argv)
    assert code == int(argv[-1] == "--perturb-cjm")
    assert imported
    assert all(r["elapsed"] < IMPORT_S for r in json.loads(out)["reports"])


def broad_handlers(source: str) -> int:
    """The handlers in source that catch every exception: a bare
    `except:` or one that names `Exception` or `BaseException`."""
    return sum(isinstance(node, ast.ExceptHandler) and (
        node.type is None or any(
            isinstance(name, ast.Name)
            and name.id in ("Exception", "BaseException")
            for name in ast.walk(node.type)))
        for node in ast.walk(ast.parse(source)))


def test_only_the_cli_catches_every_exception():
    """An exception inside regver exits 3 because only `cli.main` catches
    every exception: a check that did could report a fault of regver as a
    failed check (exit 1)."""
    assert broad_handlers("try:\n    pass\nexcept:\n    pass\n"
                          "try:\n    pass\nexcept (ValueError, Exception):"
                          "\n    pass\n") == 2
    package = Path(cli.__file__).parent
    assert {p.name: broad_handlers(p.read_text())
            for p in package.glob("*.py")
            if broad_handlers(p.read_text())} == {"cli.py": 1}


def test_malformed_complex_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"degrees": [0, 1], "ranks": {"0": 1, "1": 1}')
    code, _, err = run_cli(capsys, "complex", "check", "--input", str(path))
    assert code == 2
    assert "line" in err

    path.write_text(json.dumps({"degrees": [0, 1], "ranks": {"0": 1, "1": 1},
                                "differentials": {"1": [[1, 1]]}}))
    code, _, err = run_cli(capsys, "complex", "check", "--input", str(path))
    assert code == 2
    assert "differentials.1" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "vanishing", "--m", "2",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["status"] == "pass"


@pytest.mark.parametrize("command", [
    ["verify", "binomial", "--max-n", "3"], ["all", "--level", "quick"],
    ["expand", "tm", "--m", "2"], ["homology", "--input", "{input}"],
    ["complex", "check", "--input", "{input}"]])
def test_an_out_path_that_cannot_be_written_exits_two(tmp_path, capsys,
                                                      command):
    """A bad --out is a usage error, not a failed check: exit 2 with one
    error line, whatever the command computed before writing."""
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(two_term_complex(1, [[2]]))))
    argv = [a.format(input=path) for a in command]
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("error: --out: cannot write: ")
        assert err.count("\n") == 1 and str(out) in err


@pytest.mark.parametrize("command,layer,name", [
    (["verify", "tm-identity", "--m", "3"], deligne,
     "verify_product_expansion"),
    (["all", "--level", "quick"], deligne, "verify_product_expansion"),
    (["expand", "tm", "--m", "3"], counts, "monomials"),
    (["homology", "--input", "{input}"], homology_layer, "homology"),
    # the cubical batch fails its check on invalid data only
    (["all", "--level", "quick"], suites, "normalized_kernel_bases")])
def test_an_internal_error_exits_three_with_one_line(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     layer, name):
    """An exception inside regver is neither a failed check (exit 1) nor
    a traceback: exit 3 with one line naming its type and message."""
    def broken(*args, **kwargs):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(layer, name, broken)
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(two_term_complex(1, [[2]]))))
    code, out, err = run_cli(capsys, *[a.format(input=path)
                                       for a in command])
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: planted fault\n"


def test_a_reader_that_stops_early_ends_the_output_not_the_run():
    """`regver expand ... | head` writes until the pipe closes, then keeps
    the command's exit code with nothing on stderr: a closed stdout is
    neither an internal error nor a failed check."""
    proc = subprocess.Popen([sys.executable, "-m", "regver", "expand", "tm",
                             "--m", "9"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "expre'
    proc.stdout.close()  # about 1 MB is left to write, past any pipe buffer
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_status_follows_the_counterexample():
    """A report passes exactly when it has no counterexample, and its
    JSON status says so; a payload of any value, even an empty one, fails
    it."""
    for bad, status in ((None, "pass"), ({"m": 1}, "fail"), ({}, "fail"),
                        (0, "fail")):
        rep = Report("x", {}, bad)
        assert rep.passed == (status == "pass")
        assert rep.to_dict() == {"suite": "x", "params": {}, "status": status,
                                 "counterexample": bad, "elapsed": 0.0,
                                 "stats": {}}


QUICK_KEYS = sorted(
    ["binomial-n020", "factorial-lemma-p030", "homology-cubical",
     "homology-les", "homology-snf", "homology-two-arrow"]
    + [f"{family}-m{m}" for family in ("goncharov-boundary", "goncharov-wang",
                                       "prop52", "tm-identity", "vanishing",
                                       "wang-boundary")
       for m in range(1, 5)]
    + [f"recursion-m{m}" for m in range(2, 5)]
    + [f"takeda-m{m}-i{i}" for m in range(1, 5) for i in range(1, m + 1)]
    + [f"mixed-boundary-n{n}-m{m}"
       for n, m in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]])


FULL_KEYS = sorted(
    ["binomial-n040", "factorial-lemma-p060", "homology-cubical",
     "homology-les", "homology-snf", "homology-two-arrow"]
    + [f"{family}-m{m}" for family in ("prop52", "tm-identity", "vanishing")
       for m in range(1, 6)]
    + [f"goncharov-wang-m{m}" for m in range(1, 7)]
    + [f"{family}-m{m}" for family in ("goncharov-boundary", "wang-boundary")
       for m in range(1, 5)]
    + [f"recursion-m{m}" for m in range(2, 6)]
    + [f"takeda-m{m}-i{i}" for m in range(1, 6) for i in range(1, m + 1)]
    + [f"mixed-boundary-n{n}-m{m}"
       for n, m in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]])


def test_full_plan_keys():
    """The `full` plan's keys, read without running a suite."""
    assert sorted(k for k, _ in cli.suite_plan("full")) == FULL_KEYS


def test_benchmark_hooks_are_callable():
    """The benchmark's tracer and runner wrap these by name."""
    for name in ("suite_plan", "run_all", "emit", "_write"):
        assert callable(getattr(cli, name, None)), name


def test_run_all_elapsed_is_true_suite_time():
    t0 = time.perf_counter()
    reports = cli.run_all("quick")
    wall = time.perf_counter() - t0
    assert [r.suite for r in reports] == QUICK_KEYS
    assert all(r.passed for r in reports)
    # suites run one after another, so their times cannot add up to more
    # than the wall time of the whole sweep
    assert sum(r.elapsed for r in reports) <= wall


def test_binomial_odd_poly_fault_exits_one(capsys, monkeypatch):
    real = math.comb

    def perturbed(n, k):
        # +1 on C(4,1) and C(4,2) leaves the alternating sum for n = 4 at 0
        # but adds 1 to the x^1 coefficient of the odd-part side at p = 3
        return real(n, k) + ((n, k) in {(4, 1), (4, 2)})

    monkeypatch.setattr(math, "comb", perturbed)
    code, out, _ = run_cli(capsys, "verify", "binomial", "--max-n", "5")
    assert code == 1
    ce = json.loads(out)["reports"][0]["counterexample"]
    assert ce == {"identity": "odd-poly", "p": 3, "difference": {"1": "-1"}}


@pytest.mark.parametrize("command", [["homology"], ["complex", "check"]])
def test_missing_input_file_exits_two(tmp_path, capsys, command):
    path = tmp_path / "absent.json"
    code, _, err = run_cli(capsys, *command, "--input", str(path))
    assert code == 2
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("doc,field", [
    ({"degrees": [0, 1], "ranks": [1, 1], "differentials": {"1": [[1]]}},
     "ranks: expected an object"),
    ({"degrees": [0, 1], "ranks": {"0": 1, "1": 1}, "differentials": []},
     "differentials: expected an object"),
    ({"degrees": [0, 1], "ranks": {"0": 1, "1": 1},
      "differentials": {"1": [[True]]}}, "differentials.1[0]"),
    ({"degrees": [0, True], "ranks": {"0": 1, "1": 1}, "differentials": {}},
     "degrees"),
    ({"degrees": [0, 1], "ranks": {"0": 1, "1": False}, "differentials": {}},
     "ranks.1"),
    ({"levels": [0, 1], "ranks": {"0": 1, "1": 1}, "faces": [],
      "degeneracies": {}}, "faces: expected an object"),
    ({"degrees": [0, 1], "ranks": {"0": 1, "1": 1},
      "differentials": {"1\n": [[1, 2]]}},
     "differentials.'1\\n': bad degree key"),
    ({"degrees": [0, 0], "ranks": {}, "differentials": {"x\ny": []}},
     "differentials.'x\\ny': bad degree key"),
    ({"degrees": [1, 0], "ranks": {}, "differentials": {}},
     "degrees: expected lo <= hi"),
    ({"levels": [0, -1], "ranks": {}, "faces": {}, "degeneracies": {}},
     "levels: expected [0, top]"),
    ({"levels": [0, 0], "ranks": {"0": 1}, "faces": {},
      "degeneracies": {"0": {}}},
     "degeneracies.0: unexpected key, expected no level"),
    ({"degrees": [0, 1], "ranks": {"0": 1, "1": 1},
      "differentials": {"7": []}},
     "differentials.7: unexpected key, expected a degree from 1 to 1"),
    ({"degrees": [0, 0], "ranks": {"0": 1}, "differentials": {"0": []}},
     "differentials.0: unexpected key, expected no degree"),
])
def test_malformed_shapes_exit_two(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "complex", "check", "--input", str(path))
    assert code == 2
    assert err.startswith("error: ") and field in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["homology"], ["complex", "check"]])
@pytest.mark.parametrize("diffs,message", [
    ('{"1":[[2]],"01":[[3]]}', "error: differentials.01: bad degree key"),
    ('{"1":[[2]]," 1":[[3]]}', "error: differentials. 1: bad degree key"),
    ('{"+1":[[2]]}', "error: differentials.+1: bad degree key"),
    ('{"1":[[2]],"1":[[3]]}', "error: two.json: duplicate key '1'"),
])
def test_a_degree_given_twice_exits_two(tmp_path, capsys, command, diffs,
                                        message):
    """Each of these files once kept only the later matrix of degree 1 and
    exited 0 with torsion [3]."""
    path = tmp_path / "two.json"
    path.write_text('{"degrees":[0,1],"ranks":{"0":1,"1":1},'
                    f'"differentials":{diffs}}}')
    code, out, err = run_cli(capsys, *command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == message.replace("two.json", str(path)) + "\n"


@pytest.mark.parametrize("command", [["homology"], ["complex", "check"]])
@pytest.mark.parametrize("ranks,message", [
    ('{"0":1,"01":1}', "ranks.01: unexpected key, expected a degree from 0 "
                       "to 1"),
    ('{"0":1,"1":1,"7":4}', "ranks.7: unexpected key, expected a degree from "
                            "0 to 1"),
])
def test_a_rank_key_the_reader_would_skip_exits_two(tmp_path, capsys,
                                                    command, ranks, message):
    """Each of these files once exited 0, the first with rank 0 in degree
    1 and the second with the rank of degree 7 dropped."""
    path = tmp_path / "cx.json"
    path.write_text(f'{{"degrees":[0,1],"ranks":{ranks},"differentials":{{}}}}')
    code, out, err = run_cli(capsys, *command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("mutate,message", [
    (lambda o: o["ranks"].__setitem__("3", 1),
     "ranks.3: unexpected key, expected a level from 0 to 2"),
    (lambda o: o["faces"].__setitem__("02", {}),
     "faces.02: unexpected key, expected a level from 1 to 2"),
    (lambda o: o["faces"]["1"].__setitem__("1,2", [[1, 0, 0]] * 2),
     "faces.1.1,2: unexpected key, expected i,j with 1 <= i <= 1, j in 0, 1"),
    (lambda o: o["degeneracies"].__setitem__("2", {}),
     "degeneracies.2: unexpected key, expected a level from 0 to 1"),
    (lambda o: o["degeneracies"]["1"].__setitem__("3", [[1] * 3] * 4),
     "degeneracies.1.3: unexpected key, expected an index from 1 to 2"),
])
def test_a_cubical_key_the_reader_would_skip_exits_two(tmp_path, capsys,
                                                       mutate, message):
    obj = cubical_to_json(interval_cubical(2))
    mutate(obj)
    path = tmp_path / "cub.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "homology", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["homology"], ["complex", "check"]])
def test_a_huge_top_level_with_empty_tables_exits_two(tmp_path, capsys,
                                                      command):
    """The key checks cost nothing per declared level: the reader stops at
    the first missing rank."""
    path = tmp_path / "huge.json"
    path.write_text('{"levels":[0,1000000000],"ranks":{},"faces":{},'
                    '"degeneracies":{}}')
    code, out, err = run_cli(capsys, *command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: ranks.0: expected a non-negative integer\n"


def test_a_repeated_key_is_refused_in_any_object(tmp_path, capsys):
    path = tmp_path / "cx.json"
    path.write_text('{"degrees":[0,1],"ranks":{"0":1,"1":1,"0":2},'
                    '"differentials":{}}')
    code, _, err = run_cli(capsys, "homology", "--input", str(path))
    assert code == 2 and err == f"error: {path}: duplicate key '0'\n"
    path.write_text('{"degrees":[0,1],"ranks":{"0":1,"1":1},'
                    '"differentials":{"1":[[2]]},"ranks":{}}')
    code, _, err = run_cli(capsys, "complex", "check", "--input", str(path))
    assert code == 2 and err == f"error: {path}: duplicate key 'ranks'\n"


@pytest.mark.parametrize("command", [["homology"], ["complex", "check"]])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_cli(capsys, *command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: nested too deeply\n"


@pytest.fixture
def digit_limit():
    """The interpreter's default int-string digit limit, restored after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("command", [["homology"], ["complex", "check"]])
def test_an_integer_past_the_digit_limit_exits_two(tmp_path, capsys, command,
                                                   digit_limit):
    """json.load refuses an integer literal longer than the digit limit:
    invalid input, one error line and exit 2, not a traceback."""
    path = tmp_path / "long.json"
    path.write_text('{"degrees":[0,1],"ranks":{"0":1,"1":1},'
                    '"differentials":{"1":[[' + "9" * (digit_limit + 101)
                    + ']]}}')
    code, out, err = run_cli(capsys, *command, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: invalid JSON: Exceeds the limit ({digit_limit} "
                   f"digits) for integer string conversion: value has "
                   f"{digit_limit + 101} digits\n")


def test_an_answer_past_the_digit_limit_is_printed_in_full(tmp_path, capsys,
                                                           digit_limit):
    """A torsion coefficient of about 6000 digits, read from two of about
    3000, is written exactly; the digit limit is back in place after."""
    a, b = 10**2999 + 1, 10**2998 + 3
    assert math.gcd(a, b) == 1
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(
        two_term_complex(1, [[a, 0], [0, b]]))))
    code, out, _ = run_cli(capsys, "homology", "--input", str(path))
    assert code == 0 and sys.get_int_max_str_digits() == digit_limit
    sys.set_int_max_str_digits(0)
    assert json.loads(out)["homology"] == {
        "0": {"betti": 0, "torsion": [a * b]},
        "1": {"betti": 0, "torsion": []}}


@pytest.mark.parametrize("command", [["homology"], ["complex", "check"]])
def test_unbounded_degree_span_exits_two(tmp_path, capsys, command):
    from regver.homology import MAX_DEGREE_SPAN
    path = tmp_path / "wide.json"
    path.write_text('{"degrees":[0,300000],"ranks":{},"differentials":{}}')
    code, out, err = run_cli(capsys, *command, "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: degrees: ")

    path.write_text(json.dumps({"degrees": [-1, MAX_DEGREE_SPAN - 1],
                                "ranks": {}, "differentials": {}}))
    code, _, _ = run_cli(capsys, *command, "--input", str(path))
    assert code == 0


# an absent differential is the zero map: 76 bytes declaring rank 20000 in
# three degrees must not make anything multiply or reduce 20000 x 20000 zeros
BIG_ABSENT = ('{"degrees":[0,2],"ranks":{"0":20000,"1":20000,"2":20000},'
              '"differentials":{}}')


def test_absent_differentials_form_no_matrix(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("an absent differential was materialized")

    monkeypatch.setattr(IntMatrix, "__mul__", refuse)
    monkeypatch.setattr(matrices, "smith_normal_form", refuse)
    monkeypatch.setattr(matrices, "_hermite", refuse)
    path = tmp_path / "big.json"
    path.write_text(BIG_ABSENT)
    code, out, err = run_cli(capsys, "complex", "check", "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["reports"][0]["stats"]["ranks"] == \
        {"0": 20000, "1": 20000, "2": 20000}
    code, out, err = run_cli(capsys, "homology", "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["homology"] == \
        {str(n): {"betti": 20000, "torsion": []} for n in range(3)}


def test_a_zero_differential_runs_no_smith_form(tmp_path, capsys,
                                               monkeypatch):
    """A given differential with no nonzero entry has no invariant
    factors: none is sought, so a row-free one on 10^20 columns, whose
    Smith form would carry a 10^20 x 10^20 identity, costs nothing."""
    def refuse(*args):
        raise AssertionError("a zero differential was eliminated")

    monkeypatch.setattr(matrices, "smith_normal_form", refuse)
    path = tmp_path / "wide.json"
    path.write_text('{"degrees":[0,2],"ranks":{"0":0,"1":%d,"2":1},'
                    '"differentials":{"1":[]}}' % 10 ** 20)
    code, out, err = run_cli(capsys, "homology", "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["homology"] == {
        "0": {"betti": 0, "torsion": []},
        "1": {"betti": 10 ** 20, "torsion": []},
        "2": {"betti": 1, "torsion": []}}


# the 194-byte two-term complex whose differential is the 6 x 7 matrix on
# which the former pivot-loop Smith form grew without bound (CHANGES.md)
FOUND_COMPLEX = (
    '{"degrees":[0,1],"ranks":{"0":6,"1":7},"differentials":{"1":['
    '[-9,3,11,15,-3,10,23],[-5,-4,-6,-6,13,3,2],[-3,8,-2,18,0,-4,8],'
    '[9,-4,-1,-18,5,-2,-18],[-4,4,-10,-2,20,5,-6],[-12,-10,5,-2,-9,2,24]]}}')


def test_homology_of_the_found_complex(tmp_path):
    """A subprocess with a timeout, so that a Smith form that does not
    finish fails the test instead of hanging the suite."""
    path = tmp_path / "found.json"
    path.write_text(FOUND_COMPLEX)
    assert path.stat().st_size == 194
    res = subprocess.run([sys.executable, "-m", "regver", "homology",
                          "--input", str(path)],
                         capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stderr) == (0, "")
    assert json.loads(res.stdout)["homology"] == {
        "0": {"betti": 0, "torsion": [612]},
        "1": {"betti": 1, "torsion": []}}


SAMPLE_SHA256 = {
    "mod2_complex.json":
        "5961934b608b10329c33ecc69260c94c01e570a0fabec566f8a4071ffe827c2b",
    "interval_cubical.json":
        "fbfdcfd39f84c9ffe2457e0a2eea1906c17781124ea2ba3d3d2fae10a4058f1b"}


def test_scripts_run_from_any_directory(tmp_path):
    """Each script finds `src` from its own path: run outside the
    repository without PYTHONPATH, it exits 0, and `regver homology`
    reads the files that make_example_complex.py writes, which are pinned
    byte for byte (the JSON writers and `interval_cubical(2)`)."""
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable,
                          str(scripts / "make_example_complex.py")],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=60)
    assert (res.returncode, res.stderr) == (0, "")
    homology = {}
    for name, digest in SAMPLE_SHA256.items():
        data = (tmp_path / "examples_io" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        res = subprocess.run([sys.executable, "-m", "regver", "homology",
                              "--input", str(tmp_path / "examples_io" / name)],
                             capture_output=True, text=True, timeout=60)
        assert (res.returncode, res.stderr) == (0, "")
        homology[name] = json.loads(res.stdout)["homology"]
    assert homology["mod2_complex.json"]["0"]["torsion"] == [2]


def test_growth_benchmark_covers_every_limited_suite(capsys, monkeypatch):
    """The depth frontier takes its suites from the catalogue that `verify`
    checks against: for each suite, the options it passes reach the suite
    at its largest m, and one m further is refused."""
    path = Path(__file__).resolve().parent.parent / "scripts" \
        / "growth_benchmark.py"
    spec = importlib.util.spec_from_file_location("growth_benchmark", path)
    growth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(growth)
    assert growth.SUITES is cli.SUITES
    for suite, (module, name) in VERIFY_FUNCTIONS.items():
        monkeypatch.setattr(module, name,
                            lambda *args: Report("stub", {}))
        top, argv = growth.m_limit(suite), ["verify", suite]
        assert main(argv + growth.depth_args(suite, top)) == 0
        assert main(argv + growth.depth_args(suite, top + 1)) == 2
        assert f"{suite} verifies " in capsys.readouterr().err


def test_explicit_zero_differential_reads_as_an_absent_one(tmp_path, capsys):
    ranks = {"0": 2, "1": 3, "2": 1}
    zeros = {"1": [[0] * 3] * 2, "2": [[0]] * 3}
    outs = []
    for diffs in ({}, zeros, {"2": zeros["2"]}):
        path = tmp_path / "cx.json"
        path.write_text(json.dumps({"degrees": [0, 2], "ranks": ranks,
                                    "differentials": diffs}))
        code, out, _ = run_cli(capsys, "homology", "--input", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["homology"]["1"] == {"betti": 3, "torsion": []}


# -- exit-code contract of `complex check` on arbitrary JSON -------------------

small_ints = st.integers(-2, 3)
scalars = (st.none() | st.booleans() | small_ints | st.text(max_size=3)
           | st.floats(allow_nan=False, allow_infinity=False))
keys = st.sampled_from(["0", "1", "2", "-1", "1,0", "1,1", "01", " 1", "1\n",
                       "x\ny"]) | st.text(max_size=3)
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(keys, inner, max_size=3), max_leaves=12)
matrices_json = st.lists(st.lists(small_ints | scalars, max_size=3),
                         max_size=3) | json_values
levels = st.lists(small_ints, min_size=2, max_size=2) | json_values
ranks = st.dictionaries(keys, small_ints | scalars, max_size=4) | json_values
matrix_tables = st.dictionaries(keys, st.dictionaries(keys, matrices_json,
                                                      max_size=3),
                                max_size=3) | json_values
# objects shaped like complex and cubical files, each field well-formed or not
documents = json_values | st.fixed_dictionaries({
    "degrees": levels, "ranks": ranks,
    "differentials": st.dictionaries(keys, matrices_json, max_size=3)
    | json_values}) | st.fixed_dictionaries({
        "levels": levels, "ranks": ranks, "faces": matrix_tables,
        "degeneracies": matrix_tables})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(documents)
def test_complex_check_exits_zero_or_two_on_any_json(tmp_path, capsys, doc):
    check_exit_code(tmp_path, capsys, json.dumps(doc), "complex", "check")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(documents)
def test_homology_exits_zero_or_two_on_any_json(tmp_path, capsys, doc):
    check_exit_code(tmp_path, capsys, json.dumps(doc), "homology")


def check_exit_code(tmp_path, capsys, text, *command):
    """Exit 0 with nothing on stderr, or 2 with one `error:` line."""
    path = tmp_path / "any.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, *command, "--input", str(path))
    assert code in (0, 2)
    if code == 0:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


# -- the same contract on JSON text that json.dumps does not write -------------
# Repeated keys, NaN and Infinity, integer literals on both sides of the
# interpreter's 4300-digit limit and nesting past the parser's recursion
# limit are written as text.  Documents are shaped like complex and
# cubical files, each part sometimes missing, repeated or replaced by any
# JSON value, and their small ranks and matrices agree only now and then.


def json_object(pairs):
    return "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in pairs) + "}"


def json_array(items):
    return "[" + ",".join(items) + "]"


def mostly(common, rare):
    """common 15 times in 16 (one_of would draw each branch alike)."""
    return st.sampled_from([common] * 15 + [rare]).flatmap(lambda s: s)


small_texts = st.integers(-1, 3).map(str)
int_texts = mostly(small_texts, st.integers().map(str))
odd_texts = st.one_of(
    int_texts, st.floats().map(json.dumps),
    st.sampled_from(["null", "true", "false", '"1"', "1.0"]),
    st.builds(lambda sign, zeros: sign + "1" + "0" * zeros,
              st.sampled_from(["", "-"]), st.integers(4290, 4310)),
    st.integers(1, 3000).map(lambda d: "[" * d + "0" + "]" * d))
value_texts = st.recursive(
    odd_texts, lambda inner: st.lists(inner, max_size=3).map(json_array)
    | st.dictionaries(keys, inner, max_size=3).map(
        lambda d: json_object(d.items())),
    max_leaves=6)


def objects(keys, values, max_size=4):
    """Object text from distinct keys, the first sometimes repeated."""
    return mostly(st.builds(lambda d, repeat: json_object(
        [*d.items(), *list(d.items())[:repeat]]),
        st.dictionaries(keys, values, max_size=max_size),
        mostly(st.just(0), st.just(1))), value_texts)


degree_keys = mostly(st.sampled_from(["-1", "0", "1", "2"]), keys)
matrix_texts = mostly(st.lists(
    mostly(st.lists(mostly(int_texts, odd_texts), max_size=3)
           .map(json_array), value_texts),
    max_size=3).map(json_array), value_texts)
pair_texts = st.lists(small_texts, min_size=2, max_size=2).map(json_array)
degree_texts = mostly(st.builds(lambda lo, span: f"[{lo},{lo + span}]",
                                st.integers(-1, 1), st.integers(0, 2)),
                      pair_texts | value_texts)
level_texts = mostly(st.integers(0, 2).map(lambda top: f"[0,{top}]"),
                     pair_texts | value_texts)
rank_tables = objects(degree_keys, mostly(small_texts, odd_texts))
face_keys = mostly(st.sampled_from(["1", "2", "1,0", "1,1", "2,0", "2,1"]),
                   keys)
face_tables = objects(degree_keys, objects(face_keys, matrix_texts),
                      max_size=3)


def documents(**fields):
    """Object text with the given fields, one sometimes left out, and
    sometimes one more field."""
    return st.builds(
        lambda values, drop, extra: json_object(
            [(k, v) for k, v in values.items() if k != drop] + extra),
        st.fixed_dictionaries(fields),
        mostly(st.none(), st.sampled_from(sorted(fields))),
        mostly(st.just([]), st.lists(st.tuples(keys, value_texts),
                                     min_size=1, max_size=1)))


json_texts = mostly(
    documents(degrees=degree_texts, ranks=rank_tables,
              differentials=objects(degree_keys, matrix_texts))
    | documents(levels=level_texts, ranks=rank_tables, faces=face_tables,
                degeneracies=face_tables), value_texts)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(json_texts)
@example('{"degrees":[0,1],"ranks":{"0":1,"1":2},"differentials":'
         '{"1":[[2,4]]}}')
def test_any_json_text_exits_zero_or_two(tmp_path, capsys, text):
    for command in (["homology"], ["complex", "check"]):
        check_exit_code(tmp_path, capsys, text, *command)
