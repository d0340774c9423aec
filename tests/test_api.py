"""Every public function and method of `regver` has a caller in the package
or in `scripts/`, apart from a short allowlist.

A top-level function counts as used when a name or an attribute elsewhere
in `src/regver` (re-exports in `__init__.py` do not count) or in
`scripts/` refers to it; a method, when an attribute does.  A helper that
only tests reach belongs in the test oracles, not in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regver"

ALLOWED_UNUSED = {
    # acceptance criterion 7 builds T_m in log units with its degree/twist
    "logforms.build_t_log_element",
    # the tests' admissibility validator for Deligne elements
    "deligne.DeligneElement.check",
    # the tests read the integral coefficients of RationalPoly through it
    "combinatorics.RationalPoly.coeff",
}


def public_api():
    """{qualified name: (name, is_method)} over src/regver/*.py."""
    api = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                api[f"{path.stem}.{node.name}"] = (node.name, False)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        api[f"{path.stem}.{node.name}.{item.name}"] = \
                            (item.name, True)
    return api


def references():
    """(names, attributes) referred to in the package and the scripts."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "scripts").glob("*.py")
    names, attrs = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_every_public_helper_has_a_caller():
    names, attrs = references()
    unused = {qual for qual, (name, is_method) in public_api().items()
              if name not in attrs and (is_method or name not in names)}
    assert unused == ALLOWED_UNUSED
