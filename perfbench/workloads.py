"""The benchmark's workloads: set-up, and one pass of checked jobs.

Every workload is a closed loop with one caller: a job runs, its output
is checked against `oracles` (and, for JSON, OFF, dot and text output,
against the sha256 recorded in hashes.json), and only then does the next
job start.  A job that raises, exits with the wrong code or gives a
wrong answer is counted as failed; the pass goes on.

The library is always reached through module attributes at call time
(`K.build_sphere`, `K.cli.main`), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from pathlib import Path

import oracles as O

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
WORKLOADS = ("sphere", "wedge", "surface", "cli")

SURFACE_SIZES = (10, 40, 120)
CLI_SURFACE_SIZE = 40
HASHES = Path(__file__).with_name("hashes.json")


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def draw_tags(seed: int, n: int, stream: str) -> list[str]:
    """n catalog tags drawn from the workload seed (string seeding is stable
    across processes, unlike hash())."""
    rng = random.Random(f"{stream}:{n}:{seed}")
    return [rng.choice("STKP") for _ in range(n)]


class Pass:
    """One pass over a workload's jobs, counting attempts and failures."""

    def __init__(self, seed: int, recorded: dict | None):
        self.seed = seed
        self.recorded = recorded  # None: collect digests without comparing
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}

    def job(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # a failing job is a measurement, not a crash
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")

    def digest(self, label: str, text: str, seeded: bool = False) -> None:
        """Compare text's sha256 with the bytes recorded at the seed commit.

        Outputs that do not depend on the seed are always checked; seeded
        outputs are checked for the seeds that hashes.json records."""
        key = str(self.seed) if seeded else "any"
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.digests.setdefault(key, {})[label] = sha
        if self.recorded is None:
            return
        book = self.recorded.get(key, None if seeded else {})
        if book is not None:
            expect(book.get(label) == sha, f"digest of {label} differs from the recorded bytes")


def _groups(hs) -> list[tuple[int, tuple[int, ...]]]:
    return [(h.betti, tuple(h.torsion)) for h in hs]


def _cells(cx) -> list[int]:
    return [cx.dim(n) for n in range(cx.top + 1)]


def _alternating(cells) -> int:
    return sum((-1) ** n * c for n, c in enumerate(cells))


def _complex_of(K, model, validate):
    expect(not validate(model), "model fails validation")
    cx = K.chain_complex(model)
    return _cells(cx), _groups(K.homology(cx))


# ---------------------------------------------------------------------------
# sphere: placings, simplex and sphere builders


def _simplex_job(K, k):
    g = K.build_simplex(k)
    cells, groups = _complex_of(K, g, K.validate_kgraph)
    expect(len(g) == O.SIGMA_SIZE[k], f"|Sigma_{k}| = {len(g)}")
    expect(cells[0] == O.placings(k), f"Sigma_{k} has {cells[0]} vertices")
    if k == 4:
        expect(tuple(cells) == O.SIGMA4_CELLS, f"Sigma_4 cells {cells}")
    expect(groups == O.point_homology(k), f"H(Sigma_{k}) = {groups}")
    expect(_alternating(cells) == 1, f"chi(Sigma_{k}) = {_alternating(cells)}")


def _sphere_job(K, k):
    g = K.build_sphere(k)
    cells, groups = _complex_of(K, g, K.validate_kgraph)
    expect(len(g) == O.sphere_size(k), f"|S^{k}| = {len(g)}")
    expect(cells[0] == O.placings(k) + 1, f"S^{k} has {cells[0]} vertices")
    expect(groups == O.sphere_homology(k), f"H(S^{k}) = {groups}")
    expect(_alternating(cells) == 1 + (-1) ** k, f"chi(S^{k}) = {_alternating(cells)}")


def _placings_job(K, p, k):
    tables = K.enumerate_placings(k)
    ids = [K.placing_id(f) for f in tables]
    expect(len(tables) == O.placings(k), f"{len(tables)} placings of {{0..{k}}}")
    expect(len(set(ids)) == len(ids), "placing ids are not distinct")
    p.digest(f"placing-ids-{k}.txt", "\n".join(ids))


def run_sphere(K, p, inputs):
    for k in (2, 3, 4):
        p.job(f"simplex {k}", lambda: _simplex_job(K, k))
        p.job(f"sphere {k}", lambda: _sphere_job(K, k))
    p.job("placings 5", lambda: _placings_job(K, p, 5))


# ---------------------------------------------------------------------------
# wedge: tagged union, one-pair quotient, chain complex, JSON export


def _wedge_job(K, p, k, n):
    w = K.build_wedge(k, n)
    cells, groups = _complex_of(K, w, K.validate_kgraph)
    text = K.export_json(w)
    expect(len(w) == n * O.sphere_size(k) - (n - 1), f"|wedge| = {len(w)}")
    expect(groups == O.wedge_homology(k, n), f"H(wedge) = {groups}")
    expect(_alternating(cells) == O.euler(O.wedge_homology(k, n)), "wedge Euler characteristic")
    p.digest(f"wedge-{k}-{n}.json", text)


def run_wedge(K, p, inputs):
    for n in (8, 32):
        p.job(f"wedge 3 {n}", lambda: _wedge_job(K, p, 3, n))


# ---------------------------------------------------------------------------
# surface: seeded connected sums of catalog pieces


def surface_specs(seed: int) -> list[list[str]]:
    return [draw_tags(seed, n, "surface") for n in SURFACE_SIZES]


def _surface_job(K, tags):
    sk = K.compact_surface(tags).skeleton
    cells, groups = _complex_of(K, sk, K.validate_skeleton)
    expect(tuple(cells) == O.surface_cells(tags), f"surface cells {cells}")
    expect(groups == O.surface_homology(tags), f"H(surface) = {groups}")


def run_surface(K, p, inputs):
    for tags in inputs["specs"]:
        p.job(f"surface {len(tags)}", lambda: _surface_job(K, tags))


# ---------------------------------------------------------------------------
# cli: the verbs in-process, stdin and stdout swapped for in-memory text


def cli_tags(seed: int) -> list[str]:
    return draw_tags(seed, CLI_SURFACE_SIZE, "cli")


def prepare_cli(K, seed, outdir):
    """Write the documents the CLI verbs read: the S^4 document, the
    {0,1} x Sigma_3 product, the relation that makes it S^3, and a seeded
    marked surface."""
    simplex = K.build_simplex(3)
    product = K.cartesian_product(K.FiniteKGraph(0, ["0", "1"], {}, {}), simplex)
    # the two copies are identified on every morphism whose range is off the zero placing "0"
    pairs = [[f"(0,{m})", f"(1,{m})"] for m in simplex.morphism_ids() if simplex.r(m) != "0"]
    relation = {"kind": "relation", "over": "product.json", "mode": "generated", "pairs": pairs}
    docs = {
        "sphere4.json": K.export_json(K.build_sphere(4)),
        "product.json": K.export_json(product),
        "relation.json": json.dumps(relation, indent=2) + "\n",
        "surface.json": K.export_json(K.compact_surface(cli_tags(seed))),
    }
    for name, text in docs.items():
        (outdir / name).write_text(text, encoding="utf-8")


def _cli(K, argv, stdin: str = "") -> tuple[int, str]:
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    try:
        code = K.cli.main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out


def _cli_ok(K, argv, stdin: str = "") -> str:
    code, out = _cli(K, argv, stdin)
    expect(code == 0, f"`kgraphs {' '.join(argv)}` exited {code}")
    return out


def _check_off(out: str, vertices: int, dim: int) -> None:
    lines = out.split("\n")
    expect(lines[:2] == ["nOFF", str(dim)], "OFF header")
    nv, nf, ne = (int(x) for x in lines[2].split())
    expect(nv == vertices and ne == 0, f"OFF counts {lines[2]}")
    expect(len(lines) == 3 + nv + nf + 1 and lines[-1] == "", "OFF body length")


def run_cli(K, p, inputs):
    s4, rel = inputs["sphere4.json"], inputs["relation.json"]
    product, surface = inputs["product.json"], inputs["surface.json"]
    k4_vertices = O.placings(4) + 1

    p.job("validate S4", lambda: expect(_cli_ok(K, ["validate", "-"], s4) == "OK\n", "validate S4"))

    def homology_json():
        doc = json.loads(_cli_ok(K, ["homology", "--json", "-"], s4))
        groups = [(h["betti"], tuple(h["torsion"])) for h in doc["H"]]
        expect(groups == O.sphere_homology(4) and doc["euler"] == 2, f"H(S4) = {doc}")

    def export_off():
        out = _cli_ok(K, ["export", "off", "-"], s4)
        _check_off(out, k4_vertices, 4 + 2)  # S^k sits in R^(k+1) plus a pole axis
        p.digest("cli-export-sphere4.off", out)

    def export_json():
        out = _cli_ok(K, ["export", "json", "-"], s4)
        expect(out == s4, "export json does not round-trip the S4 document")
        p.digest("sphere4.json", out)

    def quotient():
        out = _cli_ok(K, ["quotient", product, "--relation", "-"], rel)
        doc = json.loads(out)
        nv = len(doc["vertices"])
        expect(nv == O.placings(3) + 1, f"S3 quotient has {nv} vertices")
        expect(nv + len(doc["morphisms"]) == O.sphere_size(3), "|S3| of the quotient")
        p.digest("cli-quotient-sphere3.json", out)

    p.job("homology --json S4", homology_json)
    p.job("export off S4", export_off)
    p.job("export json S4", export_json)
    p.job("quotient product", quotient)

    tags = inputs["tags"] * 2
    nv, ne, nsq = O.surface_cells(tags)
    summed = {}

    def connected_sum():
        out = _cli_ok(K, ["connected-sum", surface, surface])
        doc = json.loads(out)
        counts = (len(doc["vertices"]), len(doc["blue"]) + len(doc["red"]), len(doc["squares"]))
        expect(counts == (nv, ne, nsq), f"connected sum cells {counts}")
        p.digest("cli-connected-sum.json", out, seeded=True)
        summed["doc"] = out

    def homology_text():
        out = _cli_ok(K, ["homology", "-"], summed["doc"])
        want = "".join(
            f"H_{n} = {O.group_text(b, t)}\n" for n, (b, t) in enumerate(O.surface_homology(tags))
        )
        expect(out == want, f"homology of the sum: {out!r}")

    def export_dot():
        out = _cli_ok(K, ["export", "dot", "-"], summed["doc"])
        lines = out.split("\n")
        expect(lines[0] == "digraph {" and lines[-2:] == ["}", ""], "dot framing")
        expect(len(lines) == nv + ne + 3, f"dot has {len(lines)} lines")
        p.digest("cli-export-sum.dot", out, seeded=True)

    def placings():
        out = _cli_ok(K, ["placings", "--k", "5"])
        expect(out.count("\n") == O.placings(5), "placings --k 5 line count")
        p.digest("cli-placings-5.txt", out)

    p.job("connected-sum", connected_sum)
    p.job("validate sum", lambda: expect(
        _cli_ok(K, ["validate", "-"], summed["doc"]) == "OK\n", "validate sum"))
    p.job("homology sum", homology_text)
    p.job("export dot sum", export_dot)
    p.job("placings 5", placings)


# ---------------------------------------------------------------------------
# dispatch


def prepare(name, K, seed, outdir) -> None:
    """The workload's own set-up, timed as part of setup_s."""
    if name == "cli":
        prepare_cli(K, seed, outdir)


def inputs(name, seed, outdir) -> dict:
    """What one pass needs, read before its timer starts."""
    if name == "surface":
        return {"specs": surface_specs(seed)}
    if name == "cli":
        got = {"tags": cli_tags(seed)}
        for doc in ("sphere4.json", "relation.json"):  # fed on stdin
            got[doc] = (outdir / doc).read_text(encoding="utf-8")
        for doc in ("product.json", "surface.json"):  # read by the CLI itself
            got[doc] = str(outdir / doc)
        return got
    return {}


RUNNERS = {"sphere": run_sphere, "wedge": run_wedge, "surface": run_surface, "cli": run_cli}


def load_hashes() -> dict:
    return json.loads(HASHES.read_text(encoding="utf-8")) if HASHES.exists() else {}
