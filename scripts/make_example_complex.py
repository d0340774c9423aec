#!/usr/bin/env python3
"""Write sample complex and cubical JSON files for the `regver homology`
and `regver complex check` commands.

Usage: python scripts/make_example_complex.py [OUTDIR]
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from regver.homology import complex_to_json, cubical_to_json, two_term_complex
from regver.randomized import interval_cubical


def main():
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else \
        pathlib.Path("examples_io")
    outdir.mkdir(exist_ok=True)
    mod2 = two_term_complex(1, [[2]])
    (outdir / "mod2_complex.json").write_text(
        json.dumps(complex_to_json(mod2), indent=2, sort_keys=True) + "\n")
    (outdir / "interval_cubical.json").write_text(
        json.dumps(cubical_to_json(interval_cubical(2)), indent=2,
                   sort_keys=True) + "\n")
    print(f"wrote {outdir}/mod2_complex.json (H_0 = Z/2)")
    print(f"wrote {outdir}/interval_cubical.json (normalized H_0 = Z)")


if __name__ == "__main__":
    main()
