#!/usr/bin/env python3
"""Timing and term-count growth of the two expensive identity suites.

Both suites compare alternating forms in folded form (`forms.fold`): one
coefficient per S_m-orbit representative, m of them for T_m against its
m 2^(m-1) monomials.  T_m is folded from its seed, C_m is built by the
recursion C_m = (1/m) fold(u_1 * seed_of(C_{m-1})), one Deligne product
per step, and Goncharov's coordinates come from binomial counts, so the
work grows polynomially in m; the term counts printed are read off the
representatives, not built.  This prints a small table so the depth
defaults of `regver all` can be sanity-checked on new hardware.

Usage: python scripts/growth_benchmark.py [MAX_M]   (default 30)
"""

import sys
from time import perf_counter

sys.path.insert(0, "src")

from regver.deligne import verify_product_expansion
from regver.logforms import verify_goncharov_equals_wang


def main():
    max_m = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    print(f"{'m':>3} {'T=C time':>10} {'terms':>12}   "
          f"{'gonch time':>10} {'terms':>12}")
    for m in range(1, max_m + 1):
        t0 = perf_counter()
        rep_c = verify_product_expansion(m)
        tc = perf_counter() - t0
        t0 = perf_counter()
        rep_g = verify_goncharov_equals_wang(m)
        tg = perf_counter() - t0
        assert rep_c.passed and rep_g.passed
        print(f"{m:>3} {tc:>9.3f}s {rep_c.stats['monomials_t']:>12}   "
              f"{tg:>9.3f}s {rep_g.stats['monomials']:>12}")


if __name__ == "__main__":
    main()
