import json

import pytest

from nablachain.cli import main, run
from nablachain.verify import CheckResult

R2_DOC = json.dumps(
    {
        "kind": "scalar",
        "terms": [
            {"c": "1", "e": [2, 0, 0]},
            {"c": "1", "e": [0, 2, 0]},
            {"c": "1", "e": [0, 0, 2]},
        ],
    }
)

ROT_DOC = json.dumps(
    {
        "kind": "vector",
        "components": [
            [{"c": "-1", "e": [0, 1, 0]}],
            [{"c": "1", "e": [1, 0, 0]}],
            [],
        ],
    }
)

CENSUS_TABLE = (
    "length     total  meaningless  trivial-zero  nontrivial\n"
    "     1         3            0             0           3\n"
    "     2         9            4             2           3\n"
    "     3        27           19             5           3\n"
)


@pytest.fixture
def r2_file(tmp_path):
    path = tmp_path / "r2.json"
    path.write_text(R2_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def rot_file(tmp_path):
    path = tmp_path / "rot.json"
    path.write_text(ROT_DOC, encoding="utf-8")
    return str(path)


# -- classify ----------------------------------------------------------------


def test_classify_meaningless(capsys):
    assert main(["classify", "grad ∘ grad"]) == 0
    assert capsys.readouterr().out == "meaningless\n"


def test_classify_trivial_zero(capsys):
    assert main(["classify", "div ∘ curl"]) == 0
    out = capsys.readouterr().out
    assert out == "zero (scalar), annihilating pair at position 0: div curl\n"


def test_classify_nontrivial(capsys):
    assert main(["classify", "curl ∘ curl ∘ curl"]) == 0
    out = capsys.readouterr().out
    assert out == "nontrivial: curl-power, order 3, signature vector -> vector\n"


def test_classify_parse_error(capsys):
    assert main(["classify", "grad rot"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse chain" in captured.err


# -- census ------------------------------------------------------------------


def test_census_table_bytes(capsys):
    assert main(["census", "--max", "3"]) == 0
    assert capsys.readouterr().out == CENSUS_TABLE


def test_census_json_rows(capsys):
    assert main(["census", "--max", "4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["length"] for r in rows] == [1, 2, 3, 4]
    assert rows[3] == {
        "length": 4,
        "total": 81,
        "meaningless": 68,
        "trivial_zero": 10,
        "nontrivial": 3,
    }
    for r in rows:
        assert r["meaningless"] + r["trivial_zero"] + r["nontrivial"] == r["total"]


@pytest.mark.parametrize("bad", ["0", "13", "-2"])
def test_census_rejects_out_of_range_bounds(bad, capsys):
    assert main(["census", "--max", bad]) == 1
    assert capsys.readouterr().err != ""


# -- apply -------------------------------------------------------------------


def test_apply_laplacian_document(r2_file, capsys):
    assert main(["apply", "--chain", "div ∘ grad", "--field", r2_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"kind": "scalar", "terms": [{"c": "6", "e": [0, 0, 0]}]}


def test_apply_annihilated_chain_is_zero_vector(r2_file, capsys):
    assert main(["apply", "--chain", "curl ∘ grad", "--field", r2_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"kind": "vector", "components": [[], [], []]}


def test_apply_meaningless_chain_exits_two(r2_file, capsys):
    assert main(["apply", "--chain", "grad ∘ grad", "--field", r2_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""


def test_apply_at_point(r2_file, capsys):
    code = main(
        ["apply", "--chain", "div ∘ grad", "--field", r2_file, "--at", "1/2,0,0"]
    )
    assert code == 0
    assert capsys.readouterr().out == "6\n"


def test_apply_at_point_vector_value(rot_file, capsys):
    code = main(["apply", "--chain", "curl", "--field", rot_file, "--at", "0,0,0"])
    assert code == 0
    assert capsys.readouterr().out == "(0, 0, 2)\n"


def test_apply_at_point_json(r2_file, capsys):
    code = main(
        [
            "apply",
            "--chain",
            "div ∘ grad",
            "--field",
            r2_file,
            "--at",
            "1,2,3",
            "--json",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "scalar", "value": "6"}


def test_apply_at_json_vector(rot_file, capsys):
    code = main(
        ["apply", "--chain", "curl", "--field", rot_file, "--at", "1,1,1", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"kind": "vector", "value": ["0", "0", "2"]}


@pytest.mark.parametrize("bad", ["1,2", "1,2,3,4", "a,b,c", "1/0,0,0"])
def test_apply_rejects_malformed_points(r2_file, bad, capsys):
    assert main(["apply", "--chain", "grad", "--field", r2_file, "--at", bad]) == 1
    assert capsys.readouterr().err != ""


def test_apply_sort_mismatch_is_usage_error(rot_file, capsys):
    assert main(["apply", "--chain", "grad", "--field", rot_file]) == 1
    assert "expected scalar input" in capsys.readouterr().err


def test_apply_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["apply", "--chain", "grad", "--field", missing]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_apply_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["apply", "--chain", "grad", "--field", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_apply_duplicate_monomials_rejected(tmp_path, capsys):
    doc = {
        "kind": "scalar",
        "terms": [{"c": "1", "e": [1, 0, 0]}, {"c": "2", "e": [1, 0, 0]}],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["apply", "--chain", "grad", "--field", str(path)]) == 1
    assert capsys.readouterr().err != ""


# -- order -------------------------------------------------------------------


def test_order_of_squared_radius(r2_file, capsys):
    assert main(["order", "--collection", "harmonic", "--field", r2_file]) == 0
    assert capsys.readouterr().out == "order 2\n"


def test_order_bound_exceeded(r2_file, capsys):
    code = main(
        ["order", "--collection", "harmonic", "--field", r2_file, "--max", "1"]
    )
    assert code == 0
    assert capsys.readouterr().out == "exceeds 1\n"


def test_order_curling_collection(rot_file, capsys):
    assert main(["order", "--collection", "curling", "--field", rot_file]) == 0
    assert capsys.readouterr().out == "order 2\n"


def test_order_sort_mismatch(rot_file, capsys):
    assert main(["order", "--collection", "harmonic", "--field", rot_file]) == 1
    assert capsys.readouterr().err != ""


def test_order_unknown_collection(r2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["order", "--collection", "spherical", "--field", r2_file])
    assert exc.value.code == 1
    assert capsys.readouterr().err != ""


# -- verify ------------------------------------------------------------------


def test_verify_passes_and_reports(capsys):
    code = main(["verify", "--suite", "identities", "--trials", "5"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith("checks passed")
    checks = lines[:-1]
    assert checks
    assert all(line.startswith("PASS ") for line in checks)
    assert checks == sorted(checks)


def test_verify_output_is_deterministic(capsys):
    argv = ["verify", "--suite", "oracle", "--trials", "5", "--seed", "42"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_failure_exits_three(capsys, monkeypatch):
    def broken(suite, trials, seed, degree):
        return (
            CheckResult("good check", True),
            CheckResult("bad check", False, "deviation 1.0"),
        )

    monkeypatch.setattr("nablachain.verify.run_suite", broken)
    assert main(["verify", "--suite", "identities"]) == 3
    out = capsys.readouterr().out
    assert "PASS good check" in out
    assert "FAIL bad check: deviation 1.0" in out
    assert "1/2 checks passed" in out


def test_verify_rejects_bad_trials(capsys):
    assert main(["verify", "--suite", "identities", "--trials", "0"]) == 1
    assert capsys.readouterr().err != ""


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "everything"])
    assert exc.value.code == 1


# -- entry points ------------------------------------------------------------


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_run_wraps_main(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["nablachain", "classify", "div"])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("nontrivial")


def test_apply_deeply_nested_document(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    assert main(["apply", "--chain", "grad", "--field", str(path)]) == 1
    assert "nested too deeply" in capsys.readouterr().err
