"""Tests of the benchmark itself; run with ``python3 -m pytest bench``."""

from __future__ import annotations

import functools
import json
import random
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import nablachain as nb  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["apply", "classify", "verify"]
COUNT_SUFFIXES = (".calls", ".terms_in", ".terms_out", ".ops_applied", ".zero_results", ".rejected",
                  ".bytes", "verify.checks", "verify.checks_failed")


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    """run.main in-process on smoke-size workloads; returns (exit code, result line)."""
    monkeypatch.setattr(workloads, "WORKLOADS", {
        name: functools.partial(cls, smoke=True) for name, cls in workloads.WORKLOADS.items()})
    monkeypatch.setattr(run, "OUT", tmp_path)

    def bench(*args: str):
        code = run.main(["--seconds", "0.2", *args])
        return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return bench


def build(name: str, seed: int, part: int = 0) -> list:
    return workloads.WORKLOADS[name](smoke=True).build(nb, seed, part, run.make_hooks(nb))


# -- the result line and the report ---------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_result_line(bench, tmp_path, name, trace):
    code, result = bench("--workload", name, "--seed", "3", "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.END_TO_END if trace == "0" else tracing.LAYER_METRICS
    assert list(result["metrics"]) == list(wanted)
    report = json.loads((tmp_path / f"{name}-seed3-trace{trace}.json").read_text())
    assert report["metrics"]["error_ratio"]["value"] == 0
    assert {"python", "nproc", "commit", "seed", "inputs_sha256"} <= set(report)
    assert all("samples" in m and "unit" in m for m in report["metrics"].values())
    if trace == "0":
        per_pass = len(build(name, 3))
        assert report["metrics"]["p50_ms"]["samples"] == per_pass
        assert report["metrics"]["setup_s"]["samples"] == report["metrics"]["passes"]["value"]
    if trace == "1":
        spans = (tmp_path / f"{name}-seed3-trace1-spans.jsonl").read_text().splitlines()
        assert {"name", "start_ns", "end_ns", "parent", "op"} <= set(json.loads(spans[0]))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["classify", "apply"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_fails_without_the_package(tmp_path):
    alone = tmp_path / "alone"
    shutil.copytree(HERE, alone / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", alone)
    cmd = [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=alone, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", ["classify", "apply"])
def test_traced_counts_repeat_exactly(bench, monkeypatch, tmp_path, name):
    counts = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        monkeypatch.setattr(run, "OUT", out)
        assert bench("--workload", name, "--seed", "5", "--trace", "1")[0] == 0
        metrics = json.loads((out / f"{name}-seed5-trace1.json").read_text())["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(COUNT_SUFFIXES) or ".outcome." in k})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


# -- inputs -------------------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_depend_only_on_the_seed_and_pass(name):
    assert run.digest(build(name, 1)) == run.digest(build(name, 1))
    assert run.digest(build(name, 1)) != run.digest(build(name, 2))
    assert run.digest(build(name, 1, 0)) != run.digest(build(name, 1, 1))


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_no_input_runs_twice_in_a_run(bench, monkeypatch, name, trace):
    seen = Counter()
    real = run.run_pass

    def recording(op, api, items, errors):
        seen.update(repr(item) for item in items if item is not None)
        return real(op, api, items, errors)

    monkeypatch.setattr(run, "run_pass", recording)
    assert bench("--workload", name, "--seed", "4", "--trace", trace)[0] == 0
    repeats = sum(n - 1 for n in seen.values())
    # Classify draws some texts of length one or two more than once by chance.
    assert repeats <= (0.05 * sum(seen.values()) if name == "classify" else 0)
    assert len(seen) >= 2 or name == "verify"


def test_classify_inputs_mix_spellings_and_malformed_texts():
    items = workloads.Classify().build(nb, 1, 0, None)
    texts = [t for t in items if t is not None]
    kinds = Counter(reference.classify_text(t)[0] for t in texts)
    assert items.count(None) == 1
    assert 0.01 < kinds["error"] / len(texts) < 0.03
    for spelling in ("∇1", "nabla2", "Div", "∇₁", " o ", "."):
        assert any(spelling in t for t in texts)


def test_apply_fields_reach_the_large_scale():
    items = workloads.Apply().build(nb, 1, 0, run.make_hooks(nb))
    sizes = sorted(workloads.term_count(nb.loads_field(doc)) for doc, _ in items)
    assert 10 <= sizes[len(sizes) // 2] <= 20
    assert 270 <= sizes[len(sizes) * 4 // 5] <= 370
    outcomes = Counter(reference.apply_document(doc, text)[0] for doc, text in items)
    assert 0 < outcomes["error"] < 0.1 * len(items)


def word_shape(ops: list[str]) -> tuple[str, int]:
    """The shape twin_word and drawn_shape work with, read off a whole word."""
    pairs = list(zip(ops, ops[1:]))
    for j, (outer, inner) in enumerate(pairs):
        if reference.SORTS[outer][0] != reference.SORTS[inner][1]:
            return ("stop", j)
    for j, pair in enumerate(pairs):
        if pair in reference.ANNIHILATING:
            return ("zero", j)
    return ("normal", 0)


def test_drawn_shapes_and_twins_agree():
    rng = random.Random(3)
    for _ in range(2000):
        length = rng.randint(1, 30)
        shape = workloads.drawn_shape(rng, length, composing_only=rng.random() < 0.5)
        assert word_shape(workloads.twin_word(rng, length, *shape)) == shape


def test_classify_passes_keep_each_text_shape():
    workload = workloads.Classify(smoke=True)
    first, second = (workload.build(nb, 1, part, None) for part in (0, 1))
    for a, b in zip(first, second, strict=True):
        ops_a, ops_b = (None, None) if a is None else (reference.parse_chain(a), reference.parse_chain(b))
        assert (ops_a is None) == (ops_b is None)
        if ops_a is not None:
            assert len(ops_a) == len(ops_b)
            assert word_shape(ops_a) == word_shape(ops_b)
    assert sum(a == b for a, b in zip(first, second)) < 0.05 * len(first)


def test_apply_passes_scale_the_same_draws():
    workload = workloads.Apply(smoke=True)
    first, second = (workload.build(nb, 1, part, run.make_hooks(nb)) for part in (0, 1))
    assert [text for _, text in first] == [text for _, text in second]
    sizes = [[workloads.term_count(nb.loads_field(doc)) for doc, _ in items] for items in (first, second)]
    assert sizes[0] == sizes[1]
    assert all(a != b for (a, _), (b, _) in zip(first, second))


# -- the reference --------------------------------------------------------------


def test_reference_agrees_with_the_readme():
    assert reference.classify_text("div ∘ curl") == ("trivial", "scalar", 0)
    assert reference.classify_text("curl curl curl") == ("nontrivial", "curl-power", 3)
    assert reference.classify_text("grad grad") == ("meaningless",)
    assert reference.classify_text("div grad f") == reference.PARSE_REJECTED
    assert reference.census(3) == (19, 5, 3)
    r2 = nb.dumps_field(nb.corpus.radius_squared())
    assert reference.apply_document(r2, "div ∘ grad") == (
        "ok", {"kind": "scalar", "terms": [{"c": "6", "e": [0, 0, 0]}]})


def _mismatches(name: str, api, items=None) -> list:
    workload = workloads.WORKLOADS[name](smoke=True)
    items = items if items is not None else workload.build(nb, 1, 0, run.make_hooks(nb))
    raws = run.run_pass(workload.op, api, items, nb.NablachainError)[2]
    return run.mismatches(workload, raws, workload.expect(items))


def _api(**overrides) -> types.SimpleNamespace:
    return types.SimpleNamespace(**{**vars(run.make_api(nb)), **overrides})


def test_reference_passes_the_real_package():
    assert _mismatches("classify", _api()) == []
    assert _mismatches("apply", _api()) == []


def test_reference_catches_a_wrong_classification():
    def wrong(chain):
        result = nb.classify(chain)
        return nb.Nontrivial(nb.Family.CURL_POWER, len(chain)) if len(chain) == 7 else result

    bad = _mismatches("classify", _api(classify=wrong))
    assert bad and all(got[0] == "nontrivial" for _, got, _ in bad)


def test_reference_catches_a_wrong_census():
    def wrong(length):
        row = nb.census(length)
        return nb.Census(length, row.meaningless_count, row.trivial_count + 1, row.nontrivial_count)

    assert len(_mismatches("classify", _api(census=wrong))) == 2


def test_reference_catches_a_corrupted_apply_output():
    bad = _mismatches("apply", _api(apply_chain=lambda c, f: nb.apply_chain(c, f) * 2))
    assert bad


def test_reference_catches_an_unexpected_exception():
    def crash(chain, field):
        raise AttributeError("boom")

    bad = _mismatches("apply", _api(apply_chain=crash))
    assert len(bad) == 50 and all(got[0] == "exception" for _, got, _ in bad)


def test_reference_catches_a_failed_or_missing_check():
    def fake_suite(passing=True, drop=False):
        def run_suite(suite, trials, seed, degree):
            names = reference.EXPECTED_CHECKS[suite][1 if drop else 0:]
            return tuple(nb.CheckResult(n, passing or suite != "examples") for n in names)
        return run_suite

    assert _mismatches("verify", _api(run_suite=fake_suite())) == []
    assert len(_mismatches("verify", _api(run_suite=fake_suite(passing=False)))) == 1
    assert len(_mismatches("verify", _api(run_suite=fake_suite(drop=True)))) == 1


# -- tracing --------------------------------------------------------------------


def _recording_api():
    calls = Counter()

    def record(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    api = run.make_api(nb)
    for name, value in vars(api).items():
        if callable(value) and not isinstance(value, type):
            setattr(api, name, record(name, value))
    return api, calls


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_runs_call_the_same_functions(name):
    workload = workloads.WORKLOADS[name](smoke=True)
    items = workload.build(nb, 2, 0, run.make_hooks(nb))
    plain_api, plain = _recording_api()
    run.run_pass(workload.op, plain_api, items, nb.NablachainError)
    traced_api, traced = _recording_api()
    tracer = tracing.Tracer()
    run.run_pass(workload.op, tracing.TracedApi(traced_api, tracer), items, nb.NablachainError)
    assert plain == traced and sum(plain.values()) >= len(items)
    assert len(tracer.spans) == sum(traced.values())


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("op.apply", 0, 100, -1, 0),
        ("parser.parse", 10, 20, 0, 0),
        ("fields.apply_chain", 30, 90, 0, 0),
    ]
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert metrics["parser.parse.self_ms"] == (10 / 1e6, 1)
    assert metrics["fields.apply_chain.p50_us"] == (60 / 1e3, 1)
    assert metrics["classify.classify.calls"] == (0, 0)
