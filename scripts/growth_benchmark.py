#!/usr/bin/env python3
"""Depth frontier of the nine identity suites, `factorial-lemma` and
`binomial`: every suite that `verify` limits.

For each suite, the largest m at which `regver verify <suite> --m m`
subprocesses finish, exit code 0, within a wall-clock budget (default
2 s, start-up included).  Each depth is decided by three runs: it passes
when at least two of them finish in time, so one run slowed by machine
noise does not move the frontier.  `factorial-lemma` and `binomial`
take their depth as `--max-p` and `--max-n` (`regver.cli.DEPTH_OPTION`).
The search doubles m from the suite's smallest depth and then bisects
between the last depth that passed and the first that did not.  It never
asks for more than the suite's depth limit (`regver.cli.MAX_VERIFY_M`,
when the checkout has one); a suite that finishes at its limit reports
the limit and `"capped": true`.  `takeda` runs every i at each m, and
`mixed-boundary` runs with `--n` equal to `--m`: its m is that common
value, and its limit, which bounds n + m, is halved.

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

from regver import cli  # noqa: E402

SUITES = {"tm-identity": 1, "takeda": 1, "prop52": 1, "recursion": 2,
          "goncharov-wang": 1, "wang-boundary": 1, "goncharov-boundary": 1,
          "mixed-boundary": 1, "vanishing": 1, "factorial-lemma": 1,
          "binomial": 1}
RUNS = 3


def depth_args(suite: str, m: int) -> list[str]:
    """The `verify` options of depth m."""
    if suite == "mixed-boundary":
        return ["--n", str(m), "--m", str(m)]
    return [f"--{getattr(cli, 'DEPTH_OPTION', {}).get(suite, 'm')}", str(m)]


def m_limit(suite: str):
    """The largest m that the suite's depth limit lets through, or None."""
    limit = getattr(cli, "MAX_VERIFY_M", {}).get(suite)
    if limit is not None and suite == "mixed-boundary":
        return limit // 2
    return limit


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
    m = SUITES[suite]
    while True:
        if limit is not None and m >= limit:
            m = limit
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
    out = {suite: frontier(suite, budget) for suite in SUITES}
    print(json.dumps({"budget_s": budget, "frontier": out}, sort_keys=True))


if __name__ == "__main__":
    main()
