import json

import pytest

from currentrep.algebra import AlgebraDescriptor, CurrentElement
from currentrep.cli import main
from currentrep.modrep import build_baby_verma, enumerate_lambda
from currentrep.pchar import PChar


def run(argv):
    try:
        return main(argv)
    except SystemExit as ex:  # argparse errors
        return ex.code


def test_verify_structure_pass(capsys):
    code = run(["verify", "structure", "--kind", "sl", "-n", "2", "-p", "3",
                "-m", "1", "--seed", "7", "--samples", "25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_rejects_nonprime(capsys):
    code = run(["verify", "cartan", "--kind", "sl", "-n", "2", "-p", "4", "-m", "1"])
    assert code == 2


def test_verify_rejects_unknown_suite():
    assert run(["verify", "nosuch", "--kind", "sl", "-n", "2", "-p", "3", "-m", "1"]) == 2


def test_json_output_deterministic(tmp_path):
    args = ["verify", "index", "--kind", "sl", "-n", "2", "-p", "3", "-m", "1",
            "--seed", "11", "--samples", "30", "--format", "json"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    doc1 = json.loads(out1.read_text())
    doc2 = json.loads(out2.read_text())
    for doc in (doc1, doc2):
        for chk in doc["checks"]:
            chk.pop("millis")
    assert doc1 == doc2
    # schema fields
    chk = json.loads(out1.read_text())["checks"][0]
    for field in ("claim", "paper_ref", "params", "formula_value",
                  "oracle_value", "match", "seed", "millis"):
        assert field in chk


def test_tsv_output(capsys):
    code = run(["verify", "reduction", "--kind", "sl", "-n", "2", "-p", "3",
                "-m", "1", "--seed", "3", "--format", "tsv"])
    out = capsys.readouterr().out
    assert code == 0
    header = out.splitlines()[0].split("\t")
    assert header[:2] == ["claim", "paper_ref"]


def test_inspect_algebra(capsys):
    assert run(["inspect", "algebra", "sl", "2", "3", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_gm"] == 6 and doc["rank"] == 1 and doc["positive_roots"] == 1


def test_inspect_element_and_pchar(tmp_path, capsys):
    alg = AlgebraDescriptor("sl", 2, 3, 1)
    e = CurrentElement.from_matrix(alg, [[0, 1], [0, 0]])
    f = tmp_path / "e.json"
    f.write_text(json.dumps(e.to_json_dict()))
    assert run(["inspect", "element", str(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "nilpotent" and doc["centralizer_dim"] == 2

    assert run(["inspect", "pchar", "from-element", str(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["homogeneous_degree"] == 1 and doc["class"] == "nilpotent"


def test_inspect_module(tmp_path, capsys):
    alg = AlgebraDescriptor("sl", 2, 3, 1)
    chi = PChar.zero(alg)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[0])
    f = tmp_path / "z.json"
    f.write_text(json.dumps(Z.to_json_dict()))
    assert run(["inspect", "module", str(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 9 and doc["axioms_ok"] is True


def test_inspect_missing_file():
    assert run(["inspect", "element", "/nonexistent/file.json"]) == 2


def test_inspect_parse_error(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert run(["inspect", "element", str(f)]) == 2


def test_limit_option_skips_oversized_constructions(capsys):
    code = run(["verify", "cartan", "--kind", "sl", "-n", "2", "-p", "3", "-m", "1",
                "--seed", "5", "--limit", "10", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    # the oversized constructions are skipped, not failed, and the report
    # states the limit that the suite applied
    assert code == 0
    assert report["config"]["limit"] == 10
    reasons = [s["reason"] for s in report["skipped"]]
    assert reasons and all(r.endswith("exceeds limit 10") for r in reasons)


def test_verify_rejects_nonpositive_samples_and_limits(capsys):
    args = ["verify", "index", "--kind", "sl", "-n", "2", "-p", "3", "-m", "1"]
    assert run(args + ["--samples", "0"]) == 2
    assert run(args + ["--limit", "-5"]) == 2
    assert "usage error" in capsys.readouterr().err
