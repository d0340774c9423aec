#!/usr/bin/env python3
"""Print LaTeX expansions of the form families for small slot counts.

Usage: python scripts/expansion_table.py [MAX_M]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from regver.deligne import build_t, symbols
from regver.forms import to_latex
from regver.logforms import build_goncharov, build_m, log_symbols


def main():
    max_m = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    for m in range(max_m + 1):
        print(f"% m = {m}")
        print(f"T_{m} &= {to_latex(build_t(symbols(m)))} \\\\")
        print(f"W_{m} &= {to_latex(build_m(m, 0))} \\\\")
        print(f"G_{m} &= {to_latex(build_m(0, m))} \\\\")
        if m >= 1:
            print(f"r_{m - 1} &= {to_latex(build_goncharov(log_symbols(m)))} \\\\")
        print()


if __name__ == "__main__":
    main()
