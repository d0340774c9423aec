#!/usr/bin/env python3
"""Depth frontier of every `verify` suite in the suite catalogue,
`regver.cli.SUITES`.

For each suite, the largest m at which `regver verify <suite>`
subprocesses at depth m finish, exit code 0, within a wall-clock budget
(default 2 s, start-up included).  Each depth is decided by three runs: it
passes when at least two of them finish in time, so one run slowed by
machine noise does not move the frontier.  Each of a suite's depth
options in the catalogue is given the value m, so m is their common
value, and the suite's depth limit, which bounds their sum, is divided by
their count; a suite with none, such as `homology-two-arrow`, has no
frontier.  A suite that reads `--i` runs every i at each m.  The least
depth also comes from the catalogue.  The search doubles m from the
least depth (1 where that is 0) and then bisects between the last depth
that passed and the first that did not.  It never asks for more than the
depth limit; a suite that finishes at its limit reports the limit and
`"capped": true`.

Prints one JSON line:
{"budget_s": 2.0, "frontier": {"tm-identity": {"m": ..., "s": ...}, ...}}
where "s" is the wall time at the frontier depth: the slower of the two
runs that finished in time.

Usage: python scripts/growth_benchmark.py [BUDGET_S]
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from regver.cli import SUITES  # noqa: E402

RUNS = 3


def depth_args(suite: str, m: int) -> list[str]:
    """The `verify` options of depth m: m for each depth option."""
    return [a for o in SUITES[suite].depths for a in (f"--{o}", str(m))]


def m_limit(suite: str) -> int:
    """The largest m that the suite's depth limit, which bounds the sum
    of its depth options, lets through."""
    return SUITES[suite].limit // len(SUITES[suite].depths)


def run(suite: str, m: int, budget: float):
    """Up to RUNS verify runs at depth m, stopping once a majority is
    decided: the slower wall time of the majority that finished within
    the budget, or None when a majority did not."""
    need = RUNS // 2 + 1
    walls, misses = [], 0
    while len(walls) < need and misses < need:
        wall = run_once(suite, m, budget)
        if wall is None:
            misses += 1
        else:
            walls.append(wall)
    return max(walls) if len(walls) == need else None


def run_once(suite: str, m: int, budget: float):
    """The wall time of one verify run at depth m, or None when it fails
    or does not finish within the budget."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "regver", "verify", suite,
             *depth_args(suite, m)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=budget)
    except subprocess.TimeoutExpired:
        return None
    wall = perf_counter() - t0
    return wall if done.returncode == 0 and wall <= budget else None


def frontier(suite: str, budget: float) -> dict:
    limit = m_limit(suite)
    lo, lo_s = 0, None
    # doubling from a least depth of 0 would never leave it
    m = max(SUITES[suite].least, 1)
    while True:
        m = min(m, limit)
        wall = run(suite, m, budget)
        if wall is None:
            hi = m
            break
        lo, lo_s = m, wall
        if m == limit:
            return {"m": m, "s": round(wall, 3), "capped": True}
        m *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        wall = run(suite, mid, budget)
        if wall is None:
            hi = mid
        else:
            lo, lo_s = mid, wall
    return {"m": lo, "s": None if lo_s is None else round(lo_s, 3)}


def main():
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 2.0
    out = {suite: frontier(suite, budget) for suite in SUITES
           if SUITES[suite].depths}
    print(json.dumps({"budget_s": budget, "frontier": out}, sort_keys=True))


if __name__ == "__main__":
    main()
