import json
from pathlib import Path

import pytest

from nablachain import fields, verify
from nablachain.cli import main
from nablachain.collections import CollectionKind
from nablachain.errors import TermLimitError


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nonsense", 10, 42, 4)


def test_bad_parameters_are_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("identities", 0, 42, 4)
    with pytest.raises(ValueError):
        verify.run_suite("identities", 10, 42, -1)


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_every_suite_passes(suite):
    results = verify.run_suite(suite, 10, 42, 4)
    assert results
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_results_come_back_sorted():
    results = verify.run_suite("identities", 5, 42, 4)
    names = [r.name for r in results]
    assert names == sorted(names)


def test_runs_are_deterministic():
    a = verify.run_suite("examples", 8, 7, 4)
    b = verify.run_suite("examples", 8, 7, 4)
    assert a == b


def test_seed_changes_the_draws_not_the_outcome():
    a = verify.run_suite("identities", 10, 1, 4)
    b = verify.run_suite("identities", 10, 2, 4)
    assert all(r.passed for r in a)
    assert all(r.passed for r in b)


def test_check_results_carry_names_and_details():
    results = verify.run_suite("oracle", 5, 42, 3)
    for r in results:
        assert r.name
        assert isinstance(r.detail, str)


GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c['suite']}-{c['seed']}")
def test_verify_output_matches_golden(case, capsys):
    argv = ["verify", "--suite", case["suite"], "--seed", str(case["seed"]), "--trials", str(case["trials"])]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


BROKEN_CURL_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "verify_golden_broken_curl.json").read_text(encoding="utf-8")
)


def _drop_curl_signs(monkeypatch):
    """Curl is the only caller of _add_partial with sign -1: this curl ignores its minus signs."""
    add_partial = fields._add_partial
    monkeypatch.setattr(fields, "_add_partial", lambda acc, p, i, sign: add_partial(acc, p, i, 1))


@pytest.mark.parametrize("case", BROKEN_CURL_GOLDEN, ids=lambda c: f"{c['suite']}-{c['seed']}")
def test_verify_failure_output_matches_golden(case, capsys, monkeypatch):
    """A curl that ignores its minus signs fails the same checks with the same details."""
    _drop_curl_signs(monkeypatch)
    argv = ["verify", "--suite", case["suite"], "--seed", str(case["seed"]), "--trials", str(case["trials"])]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


def test_basis_checks_ignore_trials_and_seed(capsys, monkeypatch):
    # The checks that sweep the monomial basis draw nothing, so a failure
    # names the same monomial whatever --trials and --seed say.
    _drop_curl_signs(monkeypatch)
    fails = []
    for trials, seed in [(1, 0), (100, 7)]:
        assert main(["verify", "--suite", "identities", "--trials", str(trials), "--seed", str(seed)]) == 3
        fails.append([line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")])
    assert len(fails[0]) == 9
    assert fails[0] == fails[1]


def test_harmonic_checks_ignore_trials_and_seed(capsys, monkeypatch):
    # Every examples check sweeps a fixed list of cases built from the
    # monomial and harmonic bases, so the whole report, failures
    # included, is the same whatever --trials and --seed say.
    _drop_curl_signs(monkeypatch)
    outs = []
    for trials, seed in [(1, 0), (100, 7)]:
        assert main(["verify", "--suite", "examples", "--trials", str(trials), "--seed", str(seed)]) == 3
        outs.append(capsys.readouterr().out)
    assert "FAIL iterate order ladder: curling of VectorField(f1=-x2, f2=x1, f3=0): got Order(n=1)" in outs[0]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("degree", [0, 4, 6])
def test_order_ladder_follows_the_degree(degree, monkeypatch):
    # The ladder's highest-order fields are r^4 h for h of degree --degree.
    swept = {}
    each = verify._each

    def recording_each(name, cases, violation):
        swept[name] = cases
        return each(name, cases, violation)

    monkeypatch.setattr(verify, "_each", recording_each)
    verify.run_suite("examples", degree=degree)
    ladder = swept["iterate order ladder"]
    harmonic = [field for kind, field, _ in ladder if kind is CollectionKind.HARMONIC]
    assert max(f.degree() for f in harmonic) == degree + 4


def test_oracle_suite_passes_where_cubic_error_exceeds_old_floor():
    # At this seed a curl entry deviates by about 1.2e-9: above the former
    # absolute floor of 1e-9, inside the cubic error bound of about 3e-8.
    results = verify.run_suite("oracle", seed=1495622847)
    assert [r for r in results if not r.passed] == []


def _laplacian_n_squared(f):
    """The fused laplacian with n * n where n * (n - 1) belongs."""
    out = {}
    for e, c in f._terms.items():
        for i in range(3):
            if e[i] > 1:
                d = e[:i] + (e[i] - 2,) + e[i + 1:]
                out[d] = out.get(d, 0) + e[i] * e[i] * c
    return fields._finish(out)


def test_domain_error_inside_a_check_is_reported_as_its_failure(capsys, monkeypatch):
    # A domain error raised while judging an input must fail that check
    # (exit 3), not abort the run as bad input.
    def over_budget(f):
        raise TermLimitError("laplacian over budget")

    monkeypatch.setattr(fields, "laplacian", over_budget)
    assert main(["verify", "--suite", "examples", "--trials", "5"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert ("FAIL third-order products vanish on harmonic inputs: "
            "TermLimitError: laplacian over budget") in out


def test_broken_laplacian_fails_the_harmonic_precondition(capsys, monkeypatch):
    monkeypatch.setattr(fields, "laplacian", _laplacian_n_squared)
    assert main(["verify", "--suite", "examples", "--trials", "5"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert "FAIL third-order products vanish on harmonic inputs: scalar field is not harmonic" in out
    assert out[-1] == "1/8 checks passed"
