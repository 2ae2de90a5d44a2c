import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nablachain
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


@pytest.mark.parametrize(
    "collection, field, want",
    [("harmonic", "rot", "scalar"), ("curling", "r2", "vector"), ("vharmonic", "r2", "vector")],
)
def test_order_rejects_the_other_sort(collection, field, want, request, capsys):
    path = request.getfixturevalue(f"{field}_file")
    assert main(["order", "--collection", collection, "--field", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected {want} input" in captured.err


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


@pytest.mark.parametrize("module", ["nablachain", "nablachain.cli"])
def test_python_dash_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=str(Path(nablachain.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", module, "classify", "div curl"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout == "zero (scalar), annihilating pair at position 0: div curl\n"


def test_apply_deeply_nested_document(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    assert main(["apply", "--chain", "grad", "--field", str(path)]) == 1
    assert "nested too deeply" in capsys.readouterr().err


# -- the error boundary --------------------------------------------------------


def _assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    return captured.err


def test_apply_null_terms_exits_one(tmp_path, capsys):
    path = tmp_path / "null.json"
    path.write_text('{"kind": "scalar", "terms": null}', encoding="utf-8")
    assert main(["apply", "--chain", "grad", "--field", str(path)]) == 1
    assert "terms must be an array" in _assert_one_line_error(capsys)


def test_apply_non_utf8_field_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "scalar", "terms": [{"c": "1", "e": [1, 0, 0]}]} é'.encode("latin-1"))
    assert main(["apply", "--chain", "grad", "--field", str(path)]) == 1
    assert "cannot read" in _assert_one_line_error(capsys)


def test_apply_repeated_key_exits_one(tmp_path, capsys):
    # Decoding kept the last "c" and printed the constant 4.
    path = tmp_path / "repeated.json"
    path.write_text('{"kind": "scalar", "terms": [{"c": "1", "e": [2, 0, 0], "c": "2"}]}', encoding="utf-8")
    assert main(["apply", "--chain", "div grad", "--field", str(path)]) == 1
    _assert_one_line_error(capsys)


def test_apply_json_integer_past_the_digit_limit_exits_one(tmp_path, capsys):
    path = tmp_path / "long.json"
    digits = "9" * (_int_str_limit() + 1)
    path.write_text('{"kind": "scalar", "terms": [{"c": "1", "e": [%s, 0, 0]}]}' % digits, encoding="utf-8")
    assert main(["apply", "--chain", "grad", "--field", str(path)]) == 1
    assert "not valid JSON" in _assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "argv", [["apply", "--chain", "grad"], ["order", "--collection", "harmonic"]]
)
def test_field_over_the_term_budget_exits_one(r2_file, argv, monkeypatch, capsys):
    monkeypatch.setattr("nablachain.fields.MAX_TERMS", 2)
    assert main(argv + ["--field", r2_file]) == 1
    assert "term budget" in _assert_one_line_error(capsys)


def _int_str_limit() -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter does not limit int-to-str conversion")
    return limit


def test_result_too_large_to_print_exits_one(tmp_path, capsys):
    # The coefficient itself decodes; its product with the exponent 10**6
    # has more digits than str() may produce.
    digits = "9" * (_int_str_limit() - 1)
    doc = {"kind": "scalar", "terms": [{"c": digits, "e": [10**6, 0, 0]}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["apply", "--chain", "grad", "--field", str(path)]) == 1
    _assert_one_line_error(capsys)


def test_value_too_large_to_print_exits_one(r2_file, capsys):
    point = f"1e{_int_str_limit()},0,0"
    assert main(["apply", "--chain", "grad", "--field", r2_file, "--at", point]) == 1
    _assert_one_line_error(capsys)


def test_value_too_large_to_print_from_a_valid_point_exits_one(r2_file, capsys):
    # The coordinate has as many digits as str() may produce; twice it has one more.
    point = f"{'9' * _int_str_limit()},0,0"
    assert main(["apply", "--chain", "grad", "--field", r2_file, "--at", point]) == 1
    assert "bad point" not in _assert_one_line_error(capsys)


@pytest.mark.parametrize("point", ["1e3,0,0", "0.5,0,0", "1e10000000,0,0", "+1,0,0"])
def test_apply_at_reads_the_coefficient_grammar(r2_file, point, capsys):
    # Coordinates are integers or ratios of integers, as in field files.
    assert main(["apply", "--chain", "grad", "--field", r2_file, "--at", point]) == 1
    assert "bad point" in _assert_one_line_error(capsys)


_OPERATOR_WORDS = st.sampled_from(["grad", "curl", "div", "∇1", "nabla2", "DIV"])
_CHAIN_TEXTS = st.one_of(
    st.builds(
        str.join,
        st.sampled_from([" ", " ∘ ", ".", " o "]),
        st.lists(_OPERATOR_WORDS, min_size=1, max_size=3),
    ),
    st.text(max_size=12),
)
_INTS = st.integers(-(10**6), 10**6)
_RATIOS = st.tuples(_INTS, st.integers(1, 10**6)).map("{0[0]}/{0[1]}".format)


def _field_documents(coefficients, exponents):
    terms = st.lists(st.fixed_dictionaries({"c": coefficients, "e": exponents}), max_size=4)
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("scalar"), "terms": terms}),
        st.fixed_dictionaries(
            {"kind": st.just("vector"), "components": st.lists(terms, min_size=3, max_size=3)}
        ),
    )


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, st.text(max_size=6))
_FIELD_FILES = st.one_of(
    _field_documents(
        _INTS.map(str) | _RATIOS, st.lists(st.integers(0, 10**6), min_size=3, max_size=3)
    ),
    st.one_of(
        _field_documents(
            st.one_of(_INTS, st.text(max_size=6), st.tuples(_INTS, _INTS).map("{0[0]}/{0[1]}".format)),
            st.lists(st.one_of(_INTS, st.booleans()), max_size=4),
        ),
        st.recursive(
            _JSON_SCALARS,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
            max_leaves=8,
        ),
    ),
).map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=20)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["classify", "apply", "order"]),
    chain=_CHAIN_TEXTS,
    document=_FIELD_FILES,
    collection=st.sampled_from(["harmonic", "curling"]),
    bound=st.integers(-1, 8),
)
def test_main_never_raises(tmp_path, capsys, command, chain, document, collection, bound):
    path = tmp_path / "field.json"
    path.write_bytes(document)
    argv = {
        "classify": ["classify", "--", chain],
        "apply": ["apply", f"--chain={chain}", "--field", str(path)],
        "order": ["order", "--collection", collection, "--field", str(path), "--max", str(bound)],
    }[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code:
        assert captured.out == ""
        assert captured.err.count("\n") == 1
