"""Every public function and method of `regver` has a caller in the package
or in `scripts/`, and every defaulted parameter of one is passed by some
call in the package, `scripts/` or `perfbench/`.

A top-level function counts as used when a name or an attribute elsewhere
in `src/regver` (re-exports in `__init__.py` do not count) or in
`scripts/` refers to it; a method, when a call of an attribute of its name
does (a property, when an attribute does), so that a slot or field of the
same name, such as `DeligneElement.degree`, does not hide an unused
method.  A helper that only tests reach belongs in the test oracles, not
in the package.

A defaulted parameter counts as passed when a call of a function or
method of its name (`f(...)` or `x.f(...)`) gives it by keyword, reaches
its position (after `self` or `cls` for a method), or unpacks `*args` or
`**kwargs` that may hold it.  An option that only tests set is a code
path that no report depends on: drop it, or pass it from a real caller.

The static check cannot see dunders, private helpers or a method whose
name some other call happens to share, and a reference proves no call.
The dynamic gate covers that: it runs every command in-process under
`sys.setprofile` (each `verify` suite, the homology batches included,
with and without each of its other options, such as `goncharov-wang`'s
`--perturb-cjm` fault; every `expand` family in every format; `homology`
and `complex check` on the files that `scripts/make_example_complex.py`
writes; `all --level quick`; usage errors) together with the fault
injections that reach the failing payloads, the SNF one through
`verify homology-snf`, and fails on any `def` in `src/regver`, nested
ones included, that is never entered.  The commands come from
`cli.SUITES` and the parser's choices, so a new suite or `expand` family
is exercised with no edit here.  The static check keeps names that
nothing refers to out of the package; the gate keeps out code that a
reference reaches only from tests.
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import runpy
import sys
from pathlib import Path

from regver import cli, combinatorics, suites
from regver.matrices import IntMatrix

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regver"

ALLOWED_UNUSED: set[str] = set()

ALLOWED_DEFAULTS = {
    # its value appears in every `recursion` report's params, and the tests
    # check the recursion on closed symbols with closed=True
    "deligne.verify_differential_recursion.closed",
}


def public_api():
    """{qualified name: (function node, is_method)} over src/regver/*.py."""
    api = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                api[f"{path.stem}.{node.name}"] = (node, False)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        api[f"{path.stem}.{node.name}.{item.name}"] = \
                            (item, True)
    return api


def trees(*dirs):
    """The parsed modules of src/regver (without `__init__.py`) and of the
    given directories under the repository root."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for d in dirs:
        files += (ROOT / d).glob("*.py")
    return [ast.parse(p.read_text()) for p in files]


def references():
    """(names, attributes, called attributes) referred to in the package
    and the scripts."""
    names, attrs, called = set(), set(), set()
    for tree in trees("scripts"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return names, attrs, called


def decorated(fn: ast.FunctionDef, name: str) -> bool:
    return any(isinstance(dec, ast.Name) and dec.id == name
               for dec in fn.decorator_list)


def defaulted(fn: ast.FunctionDef, is_method: bool):
    """[(parameter, call position or None)] of fn's defaulted parameters;
    the position counts from the first argument a call writes, past `self`
    or `cls` for a method that is not a staticmethod."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = is_method and not decorated(fn, "staticmethod")
    first = len(positional) - len(args.defaults)
    out = [(a.arg, k - skip) for k, a in enumerate(positional) if k >= first]
    out += [(a.arg, None) for a, default in zip(args.kwonlyargs,
                                                args.kw_defaults)
            if default is not None]
    return out


def calls():
    """{called name: [ast.Call]} over the package, scripts and perfbench."""
    found = {}
    for tree in trees("scripts", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                found.setdefault(name, []).append(node)
    return found


def passes(call: ast.Call, param: str, position) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args[:position + 1]) \
        or len(call.args) > position


def used(fn: ast.FunctionDef, is_method: bool, names, attrs, called) -> bool:
    if not is_method:
        return fn.name in names or fn.name in attrs
    return fn.name in (attrs if decorated(fn, "property") else called)


def test_every_public_helper_has_a_caller():
    refs = references()
    unused = {qual for qual, (fn, is_method) in public_api().items()
              if not used(fn, is_method, *refs)}
    assert unused == ALLOWED_UNUSED


def test_every_default_is_passed_by_a_caller():
    """A defaulted public parameter that no call in the package, the
    scripts or the benchmark passes is an option only tests set."""
    found = calls()
    unpassed = {f"{qual}.{param}"
                for qual, (fn, is_method) in public_api().items()
                for param, position in defaulted(fn, is_method)
                if not any(passes(c, param, position)
                           for c in found.get(fn.name, []))}
    assert unpassed == ALLOWED_DEFAULTS


# -- the reachability gate ----------------------------------------------------

def package_defs(package: Path = PACKAGE) -> dict:
    """{(file, first line): qualified name} of every def in the package's
    modules, nested ones included; the code of a decorated def starts at
    its first decorator."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                qual = f"{prefix}.{child.name}"
                out[(path, first)] = qual
                visit(child, path, qual)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), path.stem)
    return out


def unentered(run, package: Path = PACKAGE) -> set[str]:
    """The qualified names of the package's defs that run() never enters."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(old)
    entered = {(Path(c.co_filename).resolve(), c.co_firstlineno)
               for c in codes}
    return {qual for key, qual in package_defs(package).items()
            if key not in entered}


def choices(parser: argparse.ArgumentParser, dest: str):
    return next(a.choices for a in parser._actions if a.dest == dest)


def option_argv(setting: dict) -> list[str]:
    """The `verify` options of a catalogue setting, such as
    `--n 3 --m 1` for {"n": 3, "m": 1}."""
    return [arg for option, value in setting.items()
            for arg in (f"--{option}", str(value))]


def command_lines(tmp_path: Path) -> list[list[str]]:
    """Every command, from cli.SUITES and the parser's choices, on the
    sample files in tmp_path."""
    commands = choices(cli.build_parser(), "command")
    verify = commands["verify"]
    valued = {a.dest: a.nargs != 0 for a in verify._actions}  # not a flag
    lines = [["all", "--level", "quick"]]
    for name in choices(verify, "suite"):
        suite = cli.SUITES[name]
        setting = suite.quick[-1]
        depth = ["verify", name, *option_argv(setting)]
        lines += [depth, ["verify", name]]
        if suite.depths:
            lines.append(["verify", name, *option_argv(
                {**setting, suite.depths[-1]: suite.limit + 1})])
        for other in suite.others:
            if other not in setting:  # not given already
                value = ["1"] * valued[other.replace("-", "_")]
                lines.append(depth + [f"--{other}", *value])
    expand = commands["expand"]
    for family in choices(expand, "family"):
        depths = ["--m", "2"] + ["--n", "1"] * (family == "mnm")
        for fmt in choices(expand, "fmt"):
            lines.append(["expand", family, *depths, "--format", fmt])
    for sample in sorted(tmp_path.glob("*.json")):
        lines += [["homology", "--input", str(sample)],
                  ["homology", "--input", str(sample), "--degree", "0",
                   "--out", str(tmp_path / "out.txt")],
                  ["complex", "check", "--input", str(sample)]]
    return lines + [
        ["verify", "no-such-suite"],
        ["verify", "tm-identity", "--m", "1", "--max-n", "1"],
        ["expand", "tm", "--m", str(cli.MAX_EXPAND_SLOTS + 1)],
        ["homology", "--input", str(tmp_path / "missing.json")],
        ["verify", "tm-identity", "--m", "1",
         "--out", str(tmp_path / "no-dir" / "out.txt")]]


def clear_caches():
    """Empty the package's function caches, which earlier tests may have
    filled, so that a cached def is entered again."""
    for name, module in list(sys.modules.items()):
        if name.startswith("regver."):
            for obj in vars(module).values():
                for fn in vars(obj).values() if isinstance(obj, type) \
                        else [obj]:
                    fn = getattr(fn, "__func__", fn)  # a classmethod's
                    if hasattr(fn, "cache_clear"):
                        fn.cache_clear()


def exercise(tmp_path: Path, monkeypatch) -> list[int]:
    """Run every command line in-process and the fault injections that
    reach the failing payloads; return the exit codes."""
    clear_caches()
    script = runpy.run_path(str(ROOT / "scripts" / "make_example_complex.py"))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with monkeypatch.context() as mp:
            mp.setattr(sys, "argv", ["make_example_complex.py",
                                     str(tmp_path)])
            script["main"]()
        codes = [cli.main(line) for line in command_lines(tmp_path)]
        with monkeypatch.context() as mp:
            real = combinatorics._seeds

            def faulty(max_p):
                u, v = real(max_p)
                u[4] += 1
                return u, v

            mp.setattr(combinatorics, "_seeds", faulty)
            codes.append(cli.main(["verify", "factorial-lemma",
                                   "--max-p", "8"]))
        with monkeypatch.context() as mp:
            # U m V = D with unimodular U and V, but D = m is not diagonal
            mp.setattr(suites, "smith_normal_form",
                       lambda m: (IntMatrix.identity(m.rows), m,
                                  IntMatrix.identity(m.cols)))
            codes.append(cli.main(["verify", "homology-snf", "--count", "2",
                                   "--oracle-count", "0"]))
    return codes


def test_every_package_def_is_entered_by_a_command(tmp_path, monkeypatch):
    codes = []
    missed = unentered(lambda: codes.extend(exercise(tmp_path, monkeypatch)))
    assert missed == set()
    assert set(codes) == {0, 1, 2}
    assert codes[-2:] == [1, 1]  # both faults fail their check


def test_the_gate_reports_a_def_that_nothing_calls(tmp_path):
    (tmp_path / "planted.py").write_text(
        "def called():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner()\n"
        "\n\n"
        "class Holder:\n"
        "    def planted(self):\n"
        "        return 2\n")
    spec = importlib.util.spec_from_file_location(
        "planted", tmp_path / "planted.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert unentered(module.called, tmp_path) == {"planted.Holder.planted"}
