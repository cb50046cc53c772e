"""One set-up or one pass of a workload, in a fresh process.

    python3 perfbench/worker.py setup|pass WORKLOAD SEED TRACE OUTDIR

`setup` imports kgraphs and runs the workload's preparation (writing any
input documents to OUTDIR) and reports the time both took.  `pass`
imports kgraphs and reads its inputs untimed, then times one pass over
the workload's jobs; with TRACE=1 the tracer is installed for the pass
and removed after it.  Either prints one JSON line on stdout.

Each pass gets its own process because back-to-back passes in one
interpreter drift: the heap left by the previous pass slows the next.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracer as T
import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_kgraphs():
    """Import kgraphs (and kgraphs.cli) from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import kgraphs
    import kgraphs.cli  # noqa: F401  (the cli workload calls kgraphs.cli.main)

    origin = Path(kgraphs.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"kgraphs was imported from {origin}, not from this checkout")
    return kgraphs


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every metric of a kind, "end_to_end" or "per_layer",
    in the order BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in bench[kind]]


def main(argv) -> int:
    mode, workload, seed, trace, outdir = argv
    seed, trace, outdir = int(seed), trace == "1", Path(outdir)
    t0 = perf_counter()
    K = import_kgraphs()
    if mode == "setup":
        workloads.prepare(workload, K, seed, outdir)
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    inputs = workloads.inputs(workload, seed, outdir)
    p = workloads.Pass(seed, workloads.load_hashes())
    tr = T.Tracer() if trace else None
    if tr:
        tr.install()
    elif T.installed_wrappers():
        raise SystemExit("tracer wrappers are installed in an untraced pass")
    gc.collect()
    t0 = perf_counter()
    workloads.RUNNERS[workload](K, p, inputs)
    solve = perf_counter() - t0
    result = {
        "solve_s": solve,
        "attempted": p.attempted,
        "failed": p.failed,
        "errors": p.errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tr:
        tr.remove()
        result["layers"] = tr.metrics(name for name, _ in declared("per_layer"))
        tr.write_spans(outdir.parent / f"spans-{workload}-{seed}.json")
    if T.installed_wrappers():
        raise SystemExit("tracer wrappers are still installed after the pass")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
