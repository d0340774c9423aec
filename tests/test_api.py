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
"""

import ast
from pathlib import Path

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
