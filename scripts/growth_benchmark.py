#!/usr/bin/env python3
"""Timing and term-count growth of the two expensive identity suites.

Both sides of both comparisons are alternating forms built by
`forms.alternate`: one seed (a single nested product for C_m, the
identity-permutation terms for Goncharov, one monomial per S_m^i) is
folded onto its S_m-orbit representatives and unfolded over the distinct
kind arrangements, so the work follows the m 2^(m-1) monomials of the
answer instead of the m! slot permutations.  The nested product itself
costs m-1 Deligne products.  This prints a small table so the depth
defaults of `regver all` can be sanity-checked on new hardware.

Usage: python scripts/growth_benchmark.py [MAX_M]   (default 8)
"""

import sys
from time import perf_counter

sys.path.insert(0, "src")

from regver.deligne import verify_product_expansion
from regver.logforms import verify_goncharov_equals_wang


def main():
    max_m = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    print(f"{'m':>3} {'T=C time':>10} {'terms':>7}   "
          f"{'gonch time':>10} {'terms':>7}")
    for m in range(1, max_m + 1):
        t0 = perf_counter()
        rep_c = verify_product_expansion(m)
        tc = perf_counter() - t0
        t0 = perf_counter()
        rep_g = verify_goncharov_equals_wang(m)
        tg = perf_counter() - t0
        assert rep_c.passed and rep_g.passed
        print(f"{m:>3} {tc:>9.3f}s {rep_c.stats['monomials_t']:>7}   "
              f"{tg:>9.3f}s {rep_g.stats['monomials']:>7}")


if __name__ == "__main__":
    main()
