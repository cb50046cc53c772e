"""The benchmark checking itself.

    python3 perfbench/selfcheck.py

Shows that the checks can fail: a wrong expectation, a corrupted input
document and a wrong recorded digest each make a job fail (so the error
rate rises above 0), while the same jobs pass untouched.  Shows that
the tracer catches intra- and cross-module calls and that removing it
restores every original, so untraced passes time the bare library, and
that its overhead estimate is above 0.  Prints one JSON object and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import oracles as O
import tracer as T
import workloads as W
from worker import ROOT, import_kgraphs


def _failures(run, recorded=None) -> int:
    p = W.Pass(W.DEFAULT_SEED, recorded if recorded is not None else W.load_hashes())
    run(p)
    return p.failed


def check_wrong_expectation(K) -> bool:
    job = lambda p: p.job("simplex 2", lambda: W._simplex_job(K, 2))
    clean = _failures(job)
    O.SIGMA_SIZE[2] += 1
    try:
        broken = _failures(job)
    finally:
        O.SIGMA_SIZE[2] -= 1
    return clean == 0 and broken == 1


def check_wrong_digest(K) -> bool:
    def failures(recorded):
        return _failures(lambda p: p.job("placings 5", lambda: W._placings_job(K, p, 5)), recorded)

    wrong = {"any": {"placing-ids-5.txt": "0" * 64}}
    return failures(W.load_hashes()) == 0 and failures(wrong) == 1 and failures({}) == 1


def check_corrupted_document(K) -> bool:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp)
        W.prepare("cli", K, W.DEFAULT_SEED, out)
        clean = _failures(lambda p: W.run_cli(K, p, W.inputs("cli", W.DEFAULT_SEED, out)))
        doc = json.loads((out / "sphere4.json").read_text())
        a, b, ab = doc["compose"][0]
        doc["compose"][0] = [a, b, doc["compose"][1][2]]  # a wrong composite
        (out / "sphere4.json").write_text(json.dumps(doc, indent=2) + "\n")
        (out / "surface.json").write_text("{\"kind\": \"skeleton2\"")  # truncated
        broken = _failures(lambda p: W.run_cli(K, p, W.inputs("cli", W.DEFAULT_SEED, out)))
    return clean == 0 and broken >= 6


def check_tracer(K) -> dict:
    owners = T._kgraphs_modules() + [K.FiniteKGraph]
    before = {id(o): dict(vars(o)) for o in owners}
    tr = T.Tracer()
    tr.install()
    wrapped = T.installed_wrappers()
    try:
        K.build_sphere(2)
    finally:
        tr.remove()
    seen = {rec[0] for rec in tr.spans}
    want = {"simplex.build_sphere", "simplex.build_simplex", "simplex.enumerate_placings",
            "core.cartesian_product", "quotient.relation_from_pairs", "quotient.quotient",
            "quotient.check_congruence"}
    restored = all(vars(o).get(k) is v for o in owners for k, v in before[id(o)].items())
    return {
        "wrappers_installed": len(wrapped) > 0 and "kgraphs.homology" in wrapped,
        "intra_and_cross_module_calls_traced": want <= seen and tr.calls["simplex.leq"] > 0,
        "wrappers_removed": restored and not T.installed_wrappers(),
        "overhead_estimated": tr.overhead() > 0,
    }


def main() -> int:
    kgraphs = import_kgraphs()

    result = {
        "wrong_expectation_fails_a_job": check_wrong_expectation(kgraphs),
        "wrong_digest_fails_a_job": check_wrong_digest(kgraphs),
        "corrupted_documents_fail_jobs": check_corrupted_document(kgraphs),
        **check_tracer(kgraphs),
    }
    print(json.dumps(result, indent=2))
    return 0 if all(result.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
