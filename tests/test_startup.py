"""Each command loads only the layers it runs.

Every case starts a fresh interpreter, so no import made by an earlier test
hides a missing lazy one, and records the modules that `import regver.cli`
and the command added to `sys.modules`.  The in-process reachability gate
(tests/test_api.py) cannot see which module a command imports, only which
code it enters.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = {p.stem for p in (ROOT / "src" / "regver").glob("*.py")} \
    - {"__init__", "__main__"}

# the modules that importing regver.cli, then running the command given as
# arguments (when there is one), added to sys.modules, one a line, then the
# command's exit code
PROBE = """\
import sys
before = set(sys.modules)
import regver.cli
code = regver.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def loaded(*argv) -> set[str]:
    res = subprocess.run([sys.executable, "-c", PROBE, *argv],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def layers(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("regver.")}


@pytest.fixture(scope="module")
def samples(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("samples")
    subprocess.run([sys.executable,
                    str(ROOT / "scripts" / "make_example_complex.py"),
                    str(out)], check=True, capture_output=True, timeout=120)
    return out


def test_importing_the_cli_loads_no_layer():
    modules = loaded()
    assert {m for m in modules if m.startswith("regver")} \
        == {"regver", "regver.cli"}
    assert not modules & {"dataclasses", "fractions"}


@pytest.mark.parametrize("argv,absent", [
    (["verify", "prop52", "--m", "3"],
     {"homology", "matrices", "randomized", "suites", "residues"}),
    (["expand", "tm", "--m", "3"],
     {"homology", "matrices", "randomized", "suites"}),
])
def test_an_identity_command_loads_no_linear_algebra(tmp_path, argv, absent):
    got = layers(loaded(*argv, "--out", str(tmp_path / "out.json")))
    assert got & absent == set()
    assert "cli" in got


@pytest.mark.parametrize("sample", ["mod2_complex.json",
                                    "interval_cubical.json"])
@pytest.mark.parametrize("command", [["homology"], ["complex", "check"]])
def test_a_complex_command_loads_no_form_algebra(tmp_path, samples, command,
                                                 sample):
    got = layers(loaded(*command, "--input", str(samples / sample),
                        "--out", str(tmp_path / "out.json")))
    assert got & {"deligne", "counts", "forms", "logforms",
                  "randomized"} == set()
    assert "homology" in got


@pytest.mark.parametrize("argv", [
    ["verify", "homology-cubical", "--count", "3"],
    ["verify", "homology-two-arrow"]])
def test_a_homology_suite_loads_no_form_algebra(tmp_path, argv):
    got = layers(loaded(*argv, "--out", str(tmp_path / "out.json")))
    assert {"suites", "homology", "matrices", "randomized"} <= got
    assert got & {"counts", "deligne", "logforms", "forms", "residues",
                  "combinatorics"} == set()


def test_all_loads_every_layer(tmp_path):
    got = layers(loaded("all", "--level", "quick",
                        "--out", str(tmp_path / "out.json")))
    assert got == LAYERS


@pytest.mark.parametrize("command", [["homology"], ["complex", "check"]])
def test_a_duplicate_key_exits_two_with_one_line(tmp_path, command):
    """A malformed file is a usage error raised where the complex reader
    is imported; the message and exit code are those of the reader."""
    path = tmp_path / "dup.json"
    path.write_text('{"degrees":[0,1],"ranks":{"0":1,"1":1,"0":2},'
                    '"differentials":{}}')
    res = subprocess.run([sys.executable, "-m", "regver", *command,
                          "--input", str(path)],
                         capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: {path}: duplicate key '0'\n"
