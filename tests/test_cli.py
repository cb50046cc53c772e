"""Exit codes, pipe composition, and output formats of the command line."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kgraphs
from kgraphs import enumerate_placings, export_json, loads
from kgraphs.cli import main
from kgraphs.errors import ParseError

from helpers import (
    mutated_category,
    random_grid_category,
    random_path_category,
    reference_find_violations,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_placings_count(capsys):
    code, out, _ = run(capsys, "placings", "--k", "3", "--count")
    assert code == 0 and out == "75\n"


def test_placings_listing(capsys):
    code, out, _ = run(capsys, "placings", "--k", "1")
    assert code == 0
    assert out.splitlines() == ["0", "{0,1}", "{1,0}"]


def test_placings_negative_k(capsys):
    code, _, err = run(capsys, "placings", "--k", "-1")
    assert code == 1 and "error" in err


def test_usage_error_is_exit_1(capsys):
    assert run(capsys, "placings")[0] == 1
    assert run(capsys, "no-such-verb")[0] == 1
    assert run(capsys, "build", "wedge", "--k", "2")[0] == 1  # missing --n


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "simplex", "--k", "0"),
        ("build", "simplex", "--k", "2"),
        ("build", "sphere", "--k", "1"),
        ("build", "wedge", "--k", "1", "--n", "2"),
        ("build", "surface", "--spec", "T"),
        ("build", "surface", "--spec", "T,P"),
    ],
)
def test_build_export_validate_round_trip(capsys, monkeypatch, argv):
    code, doc, _ = run(capsys, *argv)
    assert code == 0
    feed(monkeypatch, doc)
    code, out, _ = run(capsys, "export", "json", "-")
    assert code == 0
    assert out == doc  # canonical serialisation is a fixed point
    feed(monkeypatch, out)
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0 and out == "OK\n"


def test_homology_text_format(capsys, monkeypatch):
    code, doc, _ = run(capsys, "build", "simplex", "--k", "2")
    feed(monkeypatch, doc)
    code, out, _ = run(capsys, "homology", "-")
    assert code == 0
    assert out == "H_0 = Z\nH_1 = 0\nH_2 = 0\n"


def test_homology_of_double_torus(capsys, monkeypatch):
    code, doc, _ = run(capsys, "build", "surface", "--spec", "T,T")
    feed(monkeypatch, doc)
    code, out, _ = run(capsys, "homology", "-")
    assert code == 0
    assert "H_1 = Z^4" in out.splitlines()


def test_homology_json(capsys, monkeypatch):
    code, doc, _ = run(capsys, "build", "surface", "--spec", "K")
    feed(monkeypatch, doc)
    code, out, _ = run(capsys, "homology", "-", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["H"] == [
        {"betti": 1, "torsion": []},
        {"betti": 1, "torsion": [2]},
        {"betti": 0, "torsion": []},
    ]
    assert payload["euler"] == 0


def test_validate_reports_witnesses(capsys, monkeypatch, tmp_path):
    code, doc, _ = run(capsys, "build", "simplex", "--k", "1")
    data = json.loads(doc)
    data["morphisms"][0]["r"] = "nowhere"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 2
    assert "endpoints" in out


def broken_documents(count: int) -> list[str]:
    """Documents of mutated path and grid categories that load but fail validation."""
    rng = random.Random(2024)
    out = []
    while len(out) < count:
        base = rng.choice([random_path_category, random_grid_category])(rng, max_morphisms=20)
        text = export_json(mutated_category(base, rng.choice, rng.randint(1, 4)))
        try:
            g = loads(text)
        except ParseError:  # negative degrees do not load
            continue
        if reference_find_violations(g):
            out.append(text)
    return out


BROKEN = broken_documents(8)


# short stable ids: the case index and a digest of the document
@pytest.mark.parametrize("text", BROKEN, ids=[
    f"{i}-{hashlib.sha256(text.encode()).hexdigest()[:8]}" for i, text in enumerate(BROKEN)])
def test_validate_prints_the_reference_violations(capsys, monkeypatch, text):
    feed(monkeypatch, text)
    code, out, _ = run(capsys, "validate", "-")
    violations = reference_find_violations(loads(text))
    expected = "".join(f"{v.rule}: {v.detail}  witness={v.witness!r}\n" for v in violations)
    assert code == 2 and out == expected


def test_validate_bad_json_is_exit_1(capsys, monkeypatch):
    feed(monkeypatch, "{')")
    code, _, err = run(capsys, "validate", "-")
    assert code == 1 and "error" in err


def test_missing_file_is_exit_1(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 1


def test_quotient_pipeline(capsys, monkeypatch, tmp_path):
    # quotienting the trivial relation returns the same cell counts
    code, doc, _ = run(capsys, "build", "simplex", "--k", "1")
    rel = {"kind": "relation", "over": "", "mode": "generated", "pairs": []}
    rp = tmp_path / "rel.json"
    rp.write_text(json.dumps(rel))
    feed(monkeypatch, doc)
    code, out, _ = run(capsys, "quotient", "-", "--relation", str(rp))
    assert code == 0
    assert json.loads(out)["vertices"] == json.loads(doc)["vertices"]


def test_quotient_rejects_bad_relation(capsys, monkeypatch, tmp_path):
    code, doc, _ = run(capsys, "build", "simplex", "--k", "1")
    # merging a vertex identity with an edge breaks the degree condition
    rel = {"kind": "relation", "over": "", "mode": "explicit",
           "classes": [["0", "(0,{0,1})"]]}
    rp = tmp_path / "rel.json"
    rp.write_text(json.dumps(rel))
    feed(monkeypatch, doc)
    code, out, _ = run(capsys, "quotient", "-", "--relation", str(rp))
    assert code == 2
    assert "not a congruence" in out and "d fails" in out


def test_connected_sum_command(capsys, tmp_path):
    for tag, name in (("T", "a.json"), ("P", "b.json")):
        code, doc, _ = run(capsys, "build", "surface", "--spec", tag)
        (tmp_path / name).write_text(doc)
    code, out, _ = run(
        capsys, "connected-sum", str(tmp_path / "a.json"), str(tmp_path / "b.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert {"u", "v", "square"} <= set(doc)


def test_connected_sum_validates_loaded_documents(capsys, tmp_path):
    # loading a marked document does not validate it; the connected sum's
    # full check of its result is what catches a missing square
    code, doc, _ = run(capsys, "build", "surface", "--spec", "T,P")
    data = json.loads(doc)
    data["squares"].remove(next(sq for sq in data["squares"] if sq != data["square"]))
    (tmp_path / "broken.json").write_text(json.dumps(data))
    code, doc, _ = run(capsys, "build", "surface", "--spec", "K")
    (tmp_path / "k.json").write_text(doc)
    code, out, err = run(
        capsys, "connected-sum", str(tmp_path / "broken.json"), str(tmp_path / "k.json")
    )
    assert code == 2
    assert out == ""
    assert "connected sum fails validation" in err
    assert "Traceback" not in err


def test_export_dot_stable(capsys, monkeypatch):
    code, doc, _ = run(capsys, "build", "surface", "--spec", "T")
    feed(monkeypatch, doc)
    code, first, _ = run(capsys, "export", "dot", "-")
    feed(monkeypatch, doc)
    code, second, _ = run(capsys, "export", "dot", "-")
    assert code == 0 and first == second
    assert first.count("style=solid") == 4 and first.count("style=dashed") == 4


def test_export_off_counts(capsys, monkeypatch):
    code, doc, _ = run(capsys, "build", "simplex", "--k", "2")
    feed(monkeypatch, doc)
    code, out, _ = run(capsys, "export", "off", "-")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "13 6 0"
    # vertex rows then quad rows
    assert len(lines) == 2 + 13 + 6
    assert all(row.startswith("4 ") for row in lines[-6:])


def test_export_off_needs_embedding(capsys, monkeypatch):
    code, doc, _ = run(capsys, "build", "surface", "--spec", "S")
    feed(monkeypatch, doc)
    code, _, err = run(capsys, "export", "off", "-")
    assert code == 2 and "embedding" in err


def test_console_script_entry_point():
    # the child imports the same kgraphs as this process, PYTHONPATH set or not
    src = str(Path(kgraphs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-m", "kgraphs.cli", "placings", "--k", "2", "--count"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0 and out.stdout.strip() == "13"


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # the records are hand-written, so start-up pays for neither module;
    # -S keeps site-packages' .pth files out of the child's modules
    src = str(Path(kgraphs.__file__).resolve().parents[1])
    code = "import sys, kgraphs, kgraphs.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0 and out.stdout.strip() == "[]", out.stderr


def test_placings_count_uses_the_recurrence(capsys):
    for k in range(7):
        code, out, _ = run(capsys, "placings", "--k", str(k), "--count")
        assert code == 0 and out == f"{len(enumerate_placings(k))}\n"
    # far beyond what listing could reach (A000670 at n = 10)
    code, out, _ = run(capsys, "placings", "--k", "9", "--count")
    assert code == 0 and out == "102247563\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "simplex", "--k", "-1"),
        ("build", "sphere", "--k", "-1"),
        ("build", "wedge", "--k", "-1", "--n", "2"),
        ("build", "wedge", "--k", "2", "--n", "0"),
        ("build", "surface", "--spec", "X"),
        ("build", "surface", "--spec", ",,"),
        ("build", "surface", "--spec", "T,Q"),
        ("placings", "--k", "-1"),
        ("placings", "--k", "two"),
        ("validate", "-"),  # stdin below: JSON nested too deeply to parse
    ],
)
def test_bad_builder_arguments_are_one_line_usage_errors(capsys, monkeypatch, argv):
    feed(monkeypatch, "[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


BROKEN_CATEGORY = {  # e's source "zz" is not a vertex
    "kind": "category", "rank": 1, "vertices": ["u", "v"],
    "morphisms": [{"id": "e", "d": [1], "r": "u", "s": "zz"}], "compose": [],
}
BROKEN_SKELETON = {
    "kind": "skeleton2", "vertices": ["u", "v"],
    "blue": [{"id": "e", "r": "u", "s": "zz"}], "red": [], "squares": [],
}


def embedded_square(a_source, b_degree):
    """An embedded rank-2 document with one square sq = a b = c d."""
    return {
        "kind": "category", "rank": 2, "vertices": ["p", "q", "r", "s"],
        "morphisms": [
            {"id": "a", "d": [1, 0], "r": "p", "s": a_source},
            {"id": "b", "d": b_degree, "r": a_source, "s": "s"},
            {"id": "c", "d": [0, 1], "r": "p", "s": "r"},
            {"id": "d", "d": [1, 0], "r": "r", "s": "s"},
            {"id": "sq", "d": [1, 1], "r": "p", "s": "s"},
        ],
        "compose": [["a", "b", "sq"], ["c", "d", "sq"]],
        "embedding": {"p": [0, 0], "q": [1, 0], "r": [0, 1], "s": [1, 1]},
    }


@pytest.mark.parametrize("doc", [BROKEN_CATEGORY, BROKEN_SKELETON])
def test_export_dot_draws_broken_documents(capsys, monkeypatch, doc):
    feed(monkeypatch, json.dumps(doc))
    code, out, err = run(capsys, "export", "dot", "-")
    assert code == 0 and "Traceback" not in err
    assert out == (
        'digraph {\n  "u";\n  "v";\n  "zz" -> "u" [label="e", style=solid];\n}\n'
    )


def test_export_mesh_is_not_a_format(capsys, monkeypatch):
    code, doc, _ = run(capsys, "build", "simplex", "--k", "2")
    feed(monkeypatch, doc)
    code, out, err = run(capsys, "export", "mesh", "-")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture
def documents(tmp_path, capsys):
    """Paths of well-formed and malformed documents, by name."""
    docs = {
        "garbage": "{')",
        "deep": "[" * 100000 + "]" * 100000,
        "no-kind": json.dumps({"rank": 1}),
        "bad-rank": json.dumps({**BROKEN_CATEGORY, "rank": True}),
        "broken-category": json.dumps(BROKEN_CATEGORY),
        "broken-skeleton": json.dumps(BROKEN_SKELETON),
        "corner-off-vertices": json.dumps(embedded_square("zz", [0, 1])),
        "face-not-an-edge": json.dumps(embedded_square("q", [2, 0])),
        "foreign-relation": json.dumps(
            {"kind": "relation", "over": "", "mode": "generated", "pairs": [["0", "nope"]]}
        ),
        "empty-relation": json.dumps(
            {"kind": "relation", "over": "", "mode": "generated", "pairs": []}
        ),
        "overlapping-relation": json.dumps(
            {"kind": "relation", "mode": "explicit",
             "classes": [["0", "(0,{0,1})"], ["0", "{0,1}"]]}
        ),
        "overlapping-relation-with-pairs": json.dumps(
            {"kind": "relation", "mode": "explicit",
             "classes": [["{0,1}", "{1,0}"], ["{1,0}", "0"]], "pairs": [["0", "{0,1}"]]}
        ),
        "huge-rank": json.dumps(
            {"kind": "category", "rank": 2**64, "vertices": ["v"], "morphisms": [], "compose": []}
        ),
    }
    for name, argv in (
        ("simplex", ("build", "simplex", "--k", "1")),
        ("torus", ("build", "surface", "--spec", "T")),
    ):
        code, text, _ = run(capsys, *argv)
        assert code == 0
        docs[name] = text
    unmarked = json.loads(docs["torus"])
    for key in ("u", "v", "square"):
        del unmarked[key]
    docs["unmarked"] = json.dumps(unmarked)
    # marked tori that fail validation once summed: a blue edge off the
    # vertices, and a square naming an edge the torus does not have
    off_vertex = json.loads(docs["torus"])
    off_vertex["blue"][1]["r"] = "nowhere"
    docs["edge-off-vertices"] = json.dumps(off_vertex)
    unknown_edge = json.loads(docs["torus"])
    unknown_edge["squares"][-1][0] = "zz"
    docs["square-unknown-edge"] = json.dumps(unknown_edge)
    paths = {}
    for name, text in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    return paths


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("validate",), 1),
        (("validate", "garbage"), 1),
        (("validate", "no-kind"), 1),
        (("validate", "bad-rank"), 1),
        (("validate", "empty-relation"), 1),
        (("validate", "broken-category"), 2),
        (("validate", "broken-skeleton"), 2),
        (("homology",), 1),
        (("homology", "deep"), 1),
        (("homology", "garbage"), 1),
        (("homology", "empty-relation"), 1),
        (("homology", "broken-category"), 2),
        (("homology", "--json", "broken-skeleton"), 2),
        (("homology", "--json", "garbage"), 1),
        (("homology", "--json", "broken-category"), 2),
        (("export", "png", "simplex"), 1),
        (("export", "dot"), 1),
        (("export", "dot", "garbage"), 1),
        (("export", "dot", "empty-relation"), 1),
        (("export", "off", "deep"), 1),
        (("export", "off", "torus"), 2),
        (("export", "off", "broken-category"), 2),
        (("export", "off", "broken-skeleton"), 2),
        (("export", "off", "corner-off-vertices"), 2),
        (("export", "off", "face-not-an-edge"), 2),
        (("export", "json", "no-kind"), 1),
        (("export", "json", "empty-relation"), 1),
        (("quotient", "simplex"), 1),
        (("quotient", "garbage", "--relation", "empty-relation"), 1),
        (("quotient", "simplex", "--relation", "garbage"), 1),
        (("quotient", "simplex", "--relation", "foreign-relation"), 2),
        (("quotient", "empty-relation", "--relation", "simplex"), 1),
        (("quotient", "simplex", "--relation", "simplex"), 1),
        (("quotient", "broken-category", "--relation", "empty-relation"), 2),
        (("quotient", "torus", "--relation", "empty-relation"), 1),
        (("connected-sum", "torus"), 1),
        (("connected-sum", "torus", "unmarked"), 1),
        (("connected-sum", "unmarked", "torus"), 1),
        (("connected-sum", "torus", "garbage"), 1),
        (("connected-sum", "torus", "simplex"), 1),
        (("quotient", "simplex", "--relation", "overlapping-relation"), 1),
        (("quotient", "simplex", "--relation", "overlapping-relation-with-pairs"), 1),
        # far past anything listable, so refused before any allocation
        (("placings", "--k", HUGE), 1),
        (("placings", "--count", "--k", HUGE), 1),
        (("build", "simplex", "--k", HUGE), 1),
        (("build", "sphere", "--k", HUGE), 1),
        (("build", "wedge", "--k", HUGE, "--n", "2"), 1),
        (("validate", "huge-rank"), 1),
        (("connected-sum", "edge-off-vertices", "torus"), 2),
        (("connected-sum", "torus", "edge-off-vertices"), 2),
        (("connected-sum", "square-unknown-edge", "torus"), 2),
        (("connected-sum", "torus", "square-unknown-edge"), 2),
    ],
)
def test_every_verb_fails_without_a_traceback(capsys, documents, argv, code):
    argv = [str(documents.get(a, a)) for a in argv]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert "Traceback" not in err
    if code == 1 or argv[0] == "connected-sum":
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("build", "surface"), "build surface needs --spec"),
        (("build", "sphere"), "build sphere needs --k"),
        (("quotient", "-", "--relation", "-"), "at most one of FILE and REL can be stdin"),
    ],
)
def test_missing_inputs_are_one_line_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
