"""The regver benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

run from the root of a source checkout (the directory holding `src/regver`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it name
every metric with its unit and sample count, and the run's metadata.  The
full result is also written to `.bench_build/perfbench/`.  `--workload all`
runs every workload in turn.  See perfbench/README.md for the workloads,
the metrics and the golden-report check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
sys.path.insert(0, str(HERE))

from worker import (HOMOLOGY_BATCHES, HOMOLOGY_PARTS,  # noqa: E402
                    HOMOLOGY_SIZES, REF_NOMINAL_S, SAMPLE_PERIOD_S,
                    homology_seeds, normalized_time, reference,
                    reference_time)

WORKLOADS = ("sweep-full", "identities-deep", "homology-batch")
SWEEP_ARGS = ["all", "--level", "full"]
SETUP_PROBES = 15         # interpreter + `import regver.cli` starts per run
SETUP_CODE = "import regver.cli"
MIN_PASSES = {"sweep-full": 3, "identities-deep": 2,
              "homology-batch": HOMOLOGY_BATCHES}
REF_CHUNKS = 9            # reference chunks around a set-up start
PASS_TIMEOUT_S = 150.0
EXACT_COUNTS = ("deligne.permutations", "forms.from_terms.pairs_in",
                "forms.from_terms.monomials_out", "matrices.mul.madds",
                "matrices.frac_rref.cells")
SUITE_FAMILIES = (
    "factorial-lemma", "binomial", "tm-identity", "takeda", "prop52",
    "recursion", "goncharov-wang", "wang-boundary", "goncharov-boundary",
    "mixed-boundary", "vanishing", "homology-cubical", "homology-snf",
    "homology-les", "homology-two-arrow")


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# -- processes ----------------------------------------------------------------

def scratch_dir(root: Path) -> Path:
    d = root / ".bench_build" / "perfbench"
    d.mkdir(parents=True, exist_ok=True)
    return d


def child_env(root: Path) -> dict:
    """The caller's environment with `src` importable and regver's own
    defaults (no REGVER_THREADS override)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("REGVER_THREADS", None)
    return env


class ThreadSampler:
    """Runs `reference()` every SAMPLE_PERIOD_S in a thread of this process,
    as a context manager, while the main thread waits for a child.

    The child of a `sweep-full` pass runs its own code and is not
    interrupted; the samples, taken on the machine's other core, follow the
    machine's speed while the pass runs.
    """

    def __init__(self):
        self.samples = []     # (start, end) of every reference run
        self._stop = threading.Event()

    def _loop(self):
        while not self._stop.is_set():
            t0 = perf_counter()
            reference()
            self.samples.append((t0, perf_counter()))
            self._stop.wait(SAMPLE_PERIOD_S)

    def __enter__(self):
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def speed(self, t0: float, t1: float) -> float:
        """The mean reference time of the samples that ran inside [t0, t1],
        or of the sample nearest to it when the child ended too soon to
        hold one (a pass that failed at start-up)."""
        inside = [b - a for a, b in self.samples if t0 <= a and b <= t1]
        if not inside:
            a, b = min(self.samples, key=lambda s: abs(s[0] + s[1] - t0 - t1))
            inside = [b - a]
        return statistics.mean(inside)


def run_process(cmd, root: Path, stdout_path: Path,
                timeout: float = PASS_TIMEOUT_S) -> dict:
    """Run one child to completion; returns its wall time, start and end,
    exit code and peak RSS.  A child past the timeout is killed (exit code
    -9)."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = perf_counter()
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": t1 - t0, "span": (t0, t1),
            "exit_code": proc.returncode, "rss_kb": usage.ru_maxrss}


def setup_probes(root: Path, n: int, warm: bool) -> tuple[list, list]:
    """n cold starts of the interpreter plus `import regver.cli`; with warm,
    after one uncounted start that lets the bytecode cache fill.  Returns
    the start times and, for each, the mean of the reference times before
    and after it (the median of REF_CHUNKS chunks each)."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    out = scratch_dir(root) / "setup.out"
    times, refs = [], []
    after = reference_time(REF_CHUNKS)
    for k in range(n + warm):
        before = after
        r = run_process(cmd, root, out, timeout=60)
        if r["exit_code"] != 0:
            raise BenchError(f"`{SETUP_CODE}` failed: "
                             + out.with_suffix(".err").read_text()[-400:])
        after = reference_time(REF_CHUNKS)
        if k or not warm:
            times.append(r["seconds"])
            refs.append((before + after) / 2)
    return times, refs


# -- golden reports -------------------------------------------------------------

def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def strip_report(rep: dict, workload: str) -> dict:
    """A report minus what legitimately varies: `elapsed`, and for
    homology-batch the seed, which comes from the workload seed."""
    rep = {k: v for k, v in rep.items() if k != "elapsed"}
    if workload == "homology-batch":
        rep["params"] = {k: v for k, v in rep["params"].items() if k != "seed"}
    return rep


def golden_path(workload: str) -> Path:
    return GOLDEN / f"{workload}.json"


def load_golden(path: Path):
    """The golden document, or None when the file is missing, unparsable or
    not in canonical form (a garbled golden file fails every suite)."""
    try:
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or canonical(doc) != text:
        return None
    return doc


def check_pass(doc: dict, golden) -> tuple[int, list[str]]:
    """(suites attempted, failures) of one pass against the golden document.

    doc is {"envelope": {...} or None, "reports": [entry]}, where an entry
    is {"label", "report"} or {"label", "error"}.  A suite fails when it
    raised, its status is not "pass", or its stripped report differs from
    the golden copy; an envelope mismatch fails every suite of the pass.
    """
    entries = doc["reports"]
    want = golden["reports"] if golden else []
    attempted = max(len(entries), len(want), 1)
    if golden is None:
        return attempted, ["golden file missing or garbled"] * attempted
    if doc.get("envelope") != golden.get("envelope"):
        return attempted, ["report envelope differs from golden"] * attempted
    failures = []
    for k in range(attempted):
        e = entries[k] if k < len(entries) else None
        g = want[k] if k < len(want) else None
        label = (e or g or {}).get("label", f"#{k}")
        if e is None or g is None:
            failures.append(f"{label}: missing or unexpected report")
        elif "error" in e:
            failures.append(f"{label}: raised {e['error']}")
        elif e["report"].get("status") != "pass":
            failures.append(f"{label}: status {e['report'].get('status')}")
        elif canonical(e) != canonical(g):
            failures.append(f"{label}: report differs from golden")
    return attempted, failures


def cli_pass_doc(out_path: Path, exit_code: int, workload: str) -> dict:
    """Read the JSON a `regver` CLI pass wrote into a check_pass document."""
    try:
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        reports = payload.pop("reports")
    except (OSError, ValueError, KeyError, AttributeError):
        return {"envelope": None, "exit_code": exit_code,
                "reports": [{"label": "output", "error":
                             f"no report JSON (exit code {exit_code})"}]}
    payload["exit_code"] = exit_code
    return {"envelope": payload, "exit_code": exit_code,
            "reports": [{"label": r.get("suite"),
                         "report": strip_report(r, workload)}
                        for r in reports]}


def inproc_pass_doc(entries: list, workload: str) -> dict:
    reports = []
    for e in entries:
        if "report" in e:
            e = {"label": e["label"], "report": strip_report(e["report"], workload)}
        reports.append(e)
    return {"envelope": None, "reports": reports}


def run_cli_pass(root: Path, argv: list[str], name: str,
                 traced: bool = False) -> dict:
    """One `regver` command as its own process: the untraced form is
    `python -m regver ARGV --out FILE`; the traced one runs the same
    command under perfbench/worker.py."""
    scratch = scratch_dir(root)
    out = scratch / f"{name}.json"
    out.unlink(missing_ok=True)
    trace_out = scratch / f"{name}.trace.json"
    trace_out.unlink(missing_ok=True)
    if traced:
        cmd = [sys.executable, str(HERE / "worker.py"), "cli",
               "--trace-out", str(trace_out), "--", *argv, "--out", str(out)]
    else:
        cmd = [sys.executable, "-m", "regver", *argv, "--out", str(out)]
    r = run_process(cmd, root, scratch / f"{name}.stdout")
    r["doc"] = cli_pass_doc(out, r["exit_code"], name)
    if traced:
        # a run that died before writing its trace already fails the golden
        # check; an empty trace keeps the result printable
        r["trace"] = (json.loads(trace_out.read_text(encoding="utf-8"))
                      if trace_out.is_file() else [{}, {}])
    return r


# -- measuring ------------------------------------------------------------------

def worker_cmd(workload: str, seed: int, seconds: float, traced: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "passes",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--min-passes", str(MIN_PASSES[workload])]
    if workload == "homology-batch":
        # exactly one pass per input batch, so that the inputs of a run
        # depend on the seed alone
        cmd += ["--max-passes", str(HOMOLOGY_BATCHES)]
    return cmd + (["--traced"] if traced else [])


def run_worker(root: Path, workload: str, seed: int, seconds: float,
               traced: bool) -> dict:
    stdout = scratch_dir(root) / f"{workload}.worker.out"
    r = run_process(worker_cmd(workload, seed, seconds, traced), root, stdout)
    if r["exit_code"] != 0:
        raise BenchError(f"worker for {workload} exited {r['exit_code']}: "
                         + stdout.with_suffix(".err").read_text()[-2000:])
    r.update(json.loads(stdout.read_text(encoding="utf-8")))
    return r


def measure(root: Path, workload: str, seed: int, seconds: float,
            traced: bool) -> dict:
    """Run the passes of one workload; returns pass times, the call times
    and reference times of each pass, the checked pass documents, peak RSS
    samples and, traced, the two traces.  A traced run makes one untraced
    pass, then two traced ones."""
    if workload == "sweep-full":
        start = perf_counter()
        runs = []
        with ThreadSampler() as sampler:
            while True:
                runs.append(run_cli_pass(root, SWEEP_ARGS, "sweep-full",
                                         traced=traced and bool(runs)))
                elapsed = perf_counter() - start
                if traced:
                    if len(runs) == 3:
                        break
                elif (len(runs) >= MIN_PASSES[workload]
                        and elapsed * (len(runs) + 1) / len(runs) > seconds):
                    break
        times = [r["seconds"] for r in runs]
        out = {"times": times, "docs": [r["doc"] for r in runs],
               "rss_kb": [r["rss_kb"] for r in runs],
               "call_times": [[t] for t in times],
               "refs": [[sampler.speed(*r["span"])] for r in runs]}
        if traced:
            out["traces"] = [r["trace"] for r in runs[1:]]
        return out
    w = run_worker(root, workload, seed, seconds, traced)
    out = {"times": w["times"], "rss_kb": [w["peak_rss_kb"]],
           "docs": [inproc_pass_doc(p["reports"], workload)
                    for p in w["passes"]]}
    if traced:
        out["traces"] = w["traces"]
    else:
        out["call_times"], out["refs"] = w["call_times"], w["refs"]
    if workload == "homology-batch":
        out["seed_errors"] = homology_seed_errors(w["passes"], seed)
    return out


def homology_seed_errors(passes: list, seed: int) -> list[str]:
    """Each homology-batch report must carry the seed derived for its call."""
    errors = []
    for k, p in enumerate(passes):
        want = homology_seeds(seed, p["batch"])
        for e in p["reports"]:
            got = e.get("report", {}).get("params", {}).get("seed")
            if "report" in e and got != want[e["label"].removeprefix("homology-")]:
                errors.append(f"pass {k} {e['label']}: seed {got}")
    return errors


# -- metrics --------------------------------------------------------------------

def per_layer(traces: list, overhead: float) -> dict:
    """Per-layer metrics: median over the traced passes (two identical
    counts, or two times)."""
    def one(table, counts):
        span = lambda n, i: table.get(n, [0, 0.0, 0.0])[i]  # noqa: E731
        m = {}
        for layer in ("forms", "deligne", "logforms", "residues", "matrices",
                      "homology", "randomized", "combinatorics"):
            m[f"{layer}.self_s"] = sum(v[2] for k, v in table.items()
                                       if k.split(".", 1)[0] == layer)
        pairs = counts.get("forms.from_terms.pairs_in", 0)
        outs = counts.get("forms.from_terms.monomials_out", 0)
        m.update({
            "forms.from_terms.calls": span("forms.from_terms", 0),
            "forms.from_terms.pairs_in": pairs,
            "forms.from_terms.monomials_out": outs,
            "forms.from_terms.yield": outs / pairs if pairs else 0.0,
            "forms.wedge.calls": span("forms.wedge", 0),
            "forms.derivation.calls": span("forms.derivation", 0),
            "deligne.permutations": counts.get("deligne.permutations", 0),
            "deligne.build_s.s": span("deligne.build_s", 1),
            "deligne.build_c.s": span("deligne.build_c", 1),
            "deligne.product.calls": span("deligne.product", 0),
            "deligne.diff.calls": span("deligne.diff", 0),
            "logforms.build_goncharov.s": span("logforms.build_goncharov", 1),
            "logforms.wang_form.calls": span("logforms.wang_form", 0),
            "residues.residue_tuple.calls": span("residues.residue_tuple", 0),
            "matrices.snf.calls": span("matrices.snf", 0),
            "matrices.snf.s": span("matrices.snf", 1),
            "matrices.frac_rref.calls": span("matrices.frac_rref", 0),
            "matrices.frac_rref.s": span("matrices.frac_rref", 1),
            "matrices.frac_rref.cells": counts.get("matrices.frac_rref.cells", 0),
            "matrices.mul.calls": span("matrices.mul", 0),
            "matrices.mul.madds": counts.get("matrices.mul.madds", 0),
            "homology.decomposition_check.s":
                span("homology.decomposition_check", 1),
            "homology.rational_homology.s": span("homology.rational_homology", 1),
            "homology.les.s": span("homology.les", 1),
            "cli.run_all.s": span("cli.run_all", 1),
            "cli.emit.s": span("cli.emit", 1),
            "cli.report_bytes": counts.get("cli.report_bytes", 0),
        })
        suites = [span(f"suite.{f}", 1) for f in SUITE_FAMILIES]
        m["cli.pool_wait_s"] = (sum(suites) - m["cli.run_all.s"]
                                if m["cli.run_all.s"] else 0.0)
        for fam, s in zip(SUITE_FAMILIES, suites):
            m[f"suite.{fam}.s"] = s
        return m

    each = [one(t, c) for t, c in traces]
    out = {k: each[0][k] if len({m[k] for m in each}) == 1
           else statistics.median(m[k] for m in each) for k in each[0]}
    out["trace.overhead_s"] = overhead
    return out


def count_mismatches(traces: list) -> list[str]:
    """The exact counts must repeat across the two traced passes."""
    counts = [c for _, c in traces]
    return [f"{k}: {counts[0].get(k, 0)} != {counts[1].get(k, 0)}"
            for k in EXACT_COUNTS if counts[0].get(k, 0) != counts[1].get(k, 0)]


def spec_units(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def source_rev(root: Path) -> str | None:
    """The git commit of the checkout, when it is a git work tree itself."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    golden = load_golden(golden_path(workload))
    # set-up probes before and after the passes, so that their median
    # spans the run and not one moment of the machine's load
    half = SETUP_PROBES // 2
    setup, setup_refs = ([], []) if trace else setup_probes(root, half, warm=True)
    res = measure(root, workload, seed, seconds, bool(trace))
    if not trace:
        more, more_refs = setup_probes(root, SETUP_PROBES - half, warm=False)
        setup += more
        setup_refs += more_refs
    attempted, failures = 0, []
    for k, doc in enumerate(res["docs"]):
        a, f = check_pass(doc, golden)
        attempted += a
        failures += [f"pass {k}: {x}" for x in f]
    failures += res.get("seed_errors", [])
    units = spec_units(root)
    samples = {}
    if trace:
        mismatches = count_mismatches(res["traces"])
        failures += [f"exact count not repeated: {x}" for x in mismatches]
        overhead = statistics.median(res["times"][1:]) - res["times"][0]
        values = per_layer(res["traces"], overhead)
        samples = {k: len(res["traces"]) for k in values}
        samples["trace.overhead_s"] = len(res["times"])
    else:
        values = {"norm_wall_s": normalized_time(res["call_times"], res["refs"]),
                  "setup_s": normalized_time([[t] for t in setup],
                                             [[r] for r in setup_refs]),
                  "peak_rss_mb": statistics.median(res["rss_kb"]) / 1024}
        samples = {"norm_wall_s": len(res["times"]), "setup_s": len(setup),
                   "peak_rss_mb": len(res["rss_kb"])}
    failed = len(failures)
    attempted = max(attempted, failed, 1)
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(res["times"]), "pass_times_s": res["times"],
        "wall_s": statistics.median(res["times"]),
        "ref_nominal_s": REF_NOMINAL_S,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "git_rev": source_rev(root),
        "fail_ratio": failed / attempted, "failures": failures[:50],
    }
    if not trace:
        meta["ref_s"] = [statistics.median(r) for r in res["refs"]]
        meta["setup_times_s"] = setup
        meta["setup_raw_s"] = statistics.median(setup)
    if workload == "homology-batch":
        meta["homology_sizes"] = HOMOLOGY_SIZES
        meta["homology_parts"] = HOMOLOGY_PARTS
        meta["homology_batches"] = HOMOLOGY_BATCHES
    metrics = {k: {"value": v, "unit": units.get(k, "s"), "samples": samples[k]}
               for k, v in values.items()}
    return {"meta": meta, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_result(res: dict, root: Path) -> None:
    meta = res["meta"]
    for name, m in res["metrics"].items():
        print(f"{meta['workload']}  {name} = {m['value']:.6g} {m['unit']}"
              f"  (n={m['samples']})")
    print(f"{meta['workload']}  fail_ratio = {meta['fail_ratio']:.6g} ratio"
          f"  ({res['failed']}/{res['attempted']} suites)")
    if not meta["trace"]:
        print(f"{meta['workload']}  wall_s = {meta['wall_s']:.6g} s"
              f"  (n={meta['passes']}, median raw pass time, not normalized)")
        print(f"{meta['workload']}  setup_raw_s = {meta['setup_raw_s']:.6g} s"
              f"  (n={len(meta['setup_times_s'])}, median raw start time,"
              f" not normalized)")
    for f in meta["failures"]:
        print(f"{meta['workload']}  FAILED {f}")
    print("meta " + json.dumps(meta, sort_keys=True))
    name = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    (scratch_dir(root) / name).write_text(canonical(res), encoding="utf-8")


def write_golden(root: Path, workload: str) -> None:
    """Capture the golden reports of one workload at seed 0; every pass of
    the capture run must agree, which also checks that reports repeat."""
    docs = measure(root, workload, 0, 0.0, traced=False)["docs"]
    entries = docs[0]["reports"]
    if any("error" in e or e["report"]["status"] != "pass" for e in entries):
        raise BenchError(f"{workload}: refusing to capture a failing pass")
    golden = {"envelope": docs[0]["envelope"], "reports": entries}
    for d in docs[1:]:
        if check_pass(d, golden)[1]:
            raise BenchError(f"{workload}: reports differ between passes")
    golden_path(workload).write_text(canonical(golden), encoding="utf-8")
    print(f"wrote {golden_path(workload)} ({len(entries)} reports)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true", dest="write_golden",
                   help="capture the golden reports instead of measuring")
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so that running children are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "regver" / "__init__.py").is_file():
        print(f"error: no src/regver under {root}; run from a regver checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.write_golden:
            for w in names:
                write_golden(root, w)
            return 0
        results = [run_workload(root, w, args.seed, args.seconds, args.trace)
                   for w in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for res in results:
        print_result(res, root)
    last = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {}}
    for res in results:
        prefix = "" if len(results) == 1 else res["meta"]["workload"] + "/"
        for name, m in res["metrics"].items():
            last["metrics"][prefix + name] = {"value": m["value"],
                                              "unit": m["unit"]}
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
