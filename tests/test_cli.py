"""Exit codes, pipe composition, and output formats of the command line."""

import io
import json
import subprocess
import sys

import pytest

from kgraphs import enumerate_placings
from kgraphs.cli import main


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
    out = subprocess.run(
        [sys.executable, "-m", "kgraphs.cli", "placings", "--k", "2", "--count"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0 and out.stdout.strip() == "13"


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
