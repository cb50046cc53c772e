"""kgraphs benchmark: four workloads through the public API, checked by oracles.

    python3 perfbench/run.py --workload sphere|wedge|surface|cli
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from `src/` of the checkout
this file sits in.  Load comes from one caller in a closed loop: each
job starts after the previous one finished and was checked, and passes
run one after another, each in a fresh worker process (worker.py)
with a fixed PYTHONHASHSEED.

A run sets the workload up SETUP_REPEATS times, each in a fresh process
(import of kgraphs plus the workload's preparation), then runs passes
for about --seconds: another pass starts while it is expected to end
nearer to --seconds than stopping before it would (there is always at
least one), so a run measures --seconds rounded to whole passes.  A
sphere pass takes about 9 s, so this gives it three passes at 25 s,
where ending within --seconds would often give two.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics, among them the tracing
overhead (see tracer.Tracer.overhead; the detail line also gives the
median of the paired traced-minus-untraced pass times).  Spans of the
last traced pass are written to .perfbench-out/.  Metric names and
units come from BENCHMARK.json.

The last stdout line is the result:
  {"correct": bool, "attempted": jobs, "failed": jobs, "metrics": {...}}
The line before it gives sample counts, quartiles, the tail percentile
used and the error rate (failed / attempted).  Exit code 0 with a
result; 1 without one when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import ROOT, declared
from workloads import DEFAULT_SEED, WORKLOADS

# Set-ups per run: many where set-up is an import of about 80 ms, so the
# median is steady; few for cli, whose set-up builds S^4 in about 5 s.
SETUP_REPEATS = {"sphere": 11, "wedge": 11, "surface": 11, "cli": 3}
RUN_LIMIT_S = 170  # a whole run, set-up included, must end within this


class BenchError(Exception):
    pass


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, as
    (percentile, value).  Below 22 samples that percentile would not lie
    above the median, so the maximum (100th) is reported instead."""
    s = sorted(samples)
    n = len(s)
    if n < 22:
        return 100.0, s[-1]
    return 100.0 * (n - 10) / n, s[n - 11]


def summary(samples) -> dict:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"median": statistics.median(samples), "q1": q[0], "q3": q[2], "n": len(samples)}


class Runner:
    def __init__(self, workload: str, seed: int, outdir: Path):
        self.workload, self.seed, self.outdir = workload, seed, outdir
        self.deadline = perf_counter() + RUN_LIMIT_S

    def worker(self, mode: str, trace: int = 0) -> dict:
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), mode,
               self.workload, str(self.seed), str(trace), str(self.outdir)]
        # one fixed string-hash order, so dict and set iteration cannot move timings between runs
        env = dict(os.environ, PYTHONHASHSEED="0")
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker still running after {RUN_LIMIT_S} s") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "kgraphs" / "__init__.py").is_file():
        raise BenchError(f"no kgraphs package under {ROOT / 'src'}")
    outdir = ROOT / ".perfbench-out" / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Runner(workload, seed, outdir)
        setups = [run.worker("setup")["setup_s"] for _ in range(SETUP_REPEATS[workload])]
        plain, traced, rounds = [], [], []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            plain.append(run.worker("pass"))
            if trace:
                traced.append(run.worker("pass", trace=1))
            # start another round while a round of median length would end
            # nearer to --seconds than stopping now, so a run measures
            # --seconds rounded to whole rounds
            now = perf_counter()
            rounds.append(now - t0)
            if now + statistics.median(rounds) / 2 - start > seconds:
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    solve = [p["solve_s"] for p in plain]
    pct, tail_value = tail(solve)
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "solve_s": summary(solve),
        "passes_s": solve,
        "solve_s_tail": {"percentile": pct, "value": tail_value, "n": len(solve)},
        "setup_s": summary(setups),
        "error_rate": failed / attempted,
        "errors": sorted({e for p in passes for e in p["errors"]})[:20],
    }
    if trace:
        detail["traced_minus_untraced_s"] = summary(
            [t["solve_s"] - p["solve_s"] for p, t in zip(plain, traced)])
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced),
                          "unit": unit} for name, unit in declared("per_layer")}
    else:
        values = {
            "solve_s": statistics.median(solve),
            "solve_s_tail": tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(p["rss_mb"] for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared("end_to_end")}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
