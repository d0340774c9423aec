"""Benchmark passes that run inside one fresh Python process.

    python3 perfbench/worker.py passes --workload W --seed N --seconds S
        [--min-passes K] [--max-passes K] [--traced]
    python3 perfbench/worker.py cli --trace-out FILE -- <regver arguments>

`passes` runs the in-process workloads (`identities-deep`,
`homology-batch`) and prints one JSON document: the time of every pass and
of every suite call in it, the reference time measured during and around
each call (see `SpeedSampler`), every report with its suite label, the
process's peak RSS and, with `--traced`, the per-layer trace of two traced
passes after one untraced pass on the same inputs.  `cli` installs the tracer and runs
the `regver` command line in this process, then writes the trace to FILE;
it is the traced form of `python -m regver ...`.

`regver` is imported lazily, after the tracer is installed where one is
used, and always through module attributes, so that wrapped functions are
the ones called.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

IDENTITY_M = 6
HOMOLOGY_SIZES = {"cubical": 600, "snf": 2000, "snf_oracle": 300, "les": 600}
# each batch suite runs as this many calls of equal size, so that every
# timed call is short next to the machine's changes of speed
HOMOLOGY_PARTS = {"cubical": 12, "snf": 10, "les": 10}
# passes of homology-batch, each on its own input batch, so that a run
# samples more inputs than one batch holds
HOMOLOGY_BATCHES = 4
# the fixed scale of normalized times: near the fastest time of
# `reference()` under CPython 3.11 on a 2-CPU x86-64 host
REF_NOMINAL_S = 0.009
SAMPLE_PERIOD_S = 0.2     # wall time between two reference samples


def reference() -> int:
    """A fixed pure-Python workload of about 10 ms that uses no regver code:
    rational arithmetic, dictionary updates and an integer loop, the
    operations regver spends its time on.  Its time, taken during and
    around the timed work, measures how fast the shared machine runs Python
    just then.
    """
    acc, f = {}, Fraction(1, 3)
    for i in range(1000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + f * i
        f = f * Fraction(7, 5) if i % 2 else f / Fraction(7, 5)
    s = 0
    for i in range(7000):
        s += i * i % 7
    return s + len(acc)


def reference_time(chunks: int) -> float:
    """The median time of `chunks` runs of `reference()`."""
    times = []
    for _ in range(chunks):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def normalized_time(times: list, refs: list) -> float:
    """Pass time at the reference speed.

    times[r][u] is the wall time of call u in pass r and refs[r][u] the
    reference time measured during and around it.  Each call time is
    scaled by REF_NOMINAL_S / refs[r][u]; the result is the median over
    passes of the sum over calls.
    """
    return statistics.median(
        sum(t * REF_NOMINAL_S / ref for t, ref in zip(ts, rs))
        for ts, rs in zip(times, refs))


class SpeedSampler:
    """Runs `reference()` every SAMPLE_PERIOD_S of wall time from a SIGALRM
    handler, as a context manager.

    Python runs the handler in the main thread between bytecodes, so the
    work it interrupts waits while it runs.  The samples follow the
    machine's speed inside long calls as well as between them, and their
    own time is taken out of the calls they interrupt.
    """

    def __init__(self):
        self.samples = []     # (start, end) of every reference run

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference()
        self.samples.append((t0, perf_counter()))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def busy(self, t0: float, t1: float) -> float:
        """Time spent in samples that ran inside [t0, t1]."""
        return sum(b - a for a, b in self.samples if t0 <= a and b <= t1)

    def speed(self, t0: float, t1: float) -> float:
        """The mean reference time of the samples within one period of
        [t0, t1], or of the sample nearest to it when there is none."""
        near = [b - a for a, b in self.samples
                if b >= t0 - SAMPLE_PERIOD_S and a <= t1 + SAMPLE_PERIOD_S]
        if not near:
            a, b = min(self.samples, key=lambda s: abs(s[0] + s[1] - t0 - t1))
            near = [b - a]
        return statistics.mean(near)


def identities_deep_calls():
    """(label, thunk) for every identity suite of `identities-deep`."""
    from regver import deligne, logforms
    m = IDENTITY_M
    calls = [
        ("tm-identity", lambda: deligne.verify_product_expansion(m)),
        ("goncharov-wang", lambda: logforms.verify_goncharov_equals_wang(m)),
        ("prop52", lambda: deligne.verify_raw_differential(m)),
        ("recursion", lambda: deligne.verify_differential_recursion(m)),
    ]
    calls += [(f"takeda-i{i}",
               lambda i=i: deligne.verify_s_derivative_identities(m, i))
              for i in range(1, m + 1)]
    calls += [
        ("vanishing", lambda: logforms.verify_vanishing_on_diagonal(m)),
        ("wang-boundary", lambda: logforms.verify_wang_boundary(m)),
        ("goncharov-boundary", lambda: logforms.verify_goncharov_boundary(m)),
        ("mixed-boundary", lambda: logforms.verify_mixed_boundary(3, 3)),
    ]
    return calls


def homology_seeds(seed: int, batch: int) -> dict:
    """Seeds of the batch-suite calls, keyed `cubical-0`, `cubical-1`, ...,
    derived from the workload seed and the index of the input batch;
    string seeding is stable across runs."""
    rng = random.Random(f"homology-batch:{seed}:{batch}")
    return {f"{name}-{k}": rng.randrange(2 ** 31)
            for name, parts in HOMOLOGY_PARTS.items() for k in range(parts)}


def homology_batch_calls(seed: int, batch: int):
    from regver import suites
    s = homology_seeds(seed, batch)
    n, parts = HOMOLOGY_SIZES, HOMOLOGY_PARTS
    calls = []
    for k in range(parts["cubical"]):
        calls.append((f"homology-cubical-{k}",
                      lambda x=s[f"cubical-{k}"]: suites.verify_cubical_batch(
                          n["cubical"] // parts["cubical"], seed=x)))
    for k in range(parts["snf"]):
        calls.append((f"homology-snf-{k}",
                      lambda x=s[f"snf-{k}"]: suites.verify_snf_batch(
                          n["snf"] // parts["snf"], seed=x,
                          oracle_count=n["snf_oracle"] // parts["snf"])))
    for k in range(parts["les"]):
        calls.append((f"homology-les-{k}",
                      lambda x=s[f"les-{k}"]: suites.verify_les_batch(
                          n["les"] // parts["les"], seed=x)))
    return calls


def calls_for(workload: str, seed: int, batch: int):
    if workload == "identities-deep":
        return identities_deep_calls()
    if workload == "homology-batch":
        return homology_batch_calls(seed, batch)
    raise ValueError(f"no in-process workload {workload!r}")


def run_call(label: str, thunk) -> dict:
    """One suite call.  A suite that raises is recorded with its error and
    counted as failed by the harness; it does not stop the pass."""
    try:
        rep = thunk()
        return {"label": label, "report": rep.to_dict(), "passed": rep.passed}
    except Exception as e:  # recorded, then judged by the harness
        return {"label": label, "error": f"{type(e).__name__}: {e}"}


def run_pass(calls) -> tuple[list, list]:
    """One pass; returns the (start, end) wall time of every call and the
    reports, from the first call to the last verified report."""
    spans, out = [], []
    for label, thunk in calls:
        t0 = perf_counter()
        out.append(run_call(label, thunk))
        spans.append((t0, perf_counter()))
    return spans, out


def run_passes(args) -> dict:
    import regver  # noqa: F401  (import cost is set-up, not pass time)
    spans, passes = [], []
    start = perf_counter()
    with SpeedSampler() as sampler:
        while len(passes) < args.max_passes:
            # pass k runs input batch k (homology-batch only)
            k = len(passes)
            sp, reps = run_pass(calls_for(args.workload, args.seed, k))
            spans.append(sp)
            passes.append({"batch": k, "reports": reps})
            # start another pass only if it is expected to end within the
            # budget
            elapsed = perf_counter() - start
            if (len(passes) >= args.min_passes
                    and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
                break
        sleep(2 * SAMPLE_PERIOD_S)  # samples after the last call
    call_times = [[b - a - sampler.busy(a, b) for a, b in sp] for sp in spans]
    return {"times": [sum(ts) for ts in call_times], "call_times": call_times,
            "refs": [[sampler.speed(a, b) for a, b in sp] for sp in spans],
            "passes": passes}


def run_traced(args) -> dict:
    """One untraced pass, then two traced passes on the same inputs, without
    reference samples, which the traced spans would include."""
    import regver  # noqa: F401
    import tracer
    calls = calls_for(args.workload, args.seed, 0)
    tr = tracer.Tracer()
    times, passes, traces = [], [], []
    for k in range(3):
        if k == 1:
            tracer.install(tr)
        tr.reset()
        sp, reps = run_pass(calls)
        times.append(sp[-1][1] - sp[0][0])
        passes.append({"batch": 0, "reports": reps})
        if k:
            traces.append(tr.snapshot())
    return {"times": times, "passes": passes, "traces": traces}


def main_passes(argv) -> int:
    p = argparse.ArgumentParser(prog="worker.py passes")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-passes", type=int, default=2, dest="min_passes")
    p.add_argument("--max-passes", type=int, default=100, dest="max_passes")
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)
    result = run_traced(args) if args.traced else run_passes(args)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


def main_cli(argv) -> int:
    p = argparse.ArgumentParser(prog="worker.py cli")
    p.add_argument("--trace-out", required=True, dest="trace_out")
    p.add_argument("rest", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
    import tracer
    tr = tracer.Tracer()
    tracer.install(tr)
    from regver import cli
    code = cli.main(rest)
    table, counts = tr.snapshot()
    with open(args.trace_out, "w", encoding="utf-8") as fh:
        json.dump([table, counts], fh)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["passes"]:
        return main_passes(argv[1:])
    if argv[:1] == ["cli"]:
        return main_cli(argv[1:])
    print("usage: worker.py {passes|cli} ...", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
