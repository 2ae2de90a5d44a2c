"""Spans and counts recorded around calls into the package's public functions.

``TracedApi`` exposes the same names as the untraced api, so a workload's
operation runs unchanged in both modes.  Each call is wrapped in a span
(name, start, end, parent span, operation id) kept in memory; counts are
taken at the same boundaries.  ``layer_metrics`` derives self times from
the spans once the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter_ns

import reference
from workloads import term_count

SUITES = tuple(reference.EXPECTED_CHECKS)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named ``name``."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op_id)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op": op}) + "\n")


class TracedApi:
    """The untraced api's functions, each called inside a span."""

    def __init__(self, api, tracer: Tracer):
        self._api = api
        self._t = tracer

    # parser / classify
    def parse(self, text):
        try:
            return self._t.call("parser.parse", self._api.parse, text)
        except self._api.ParseError:
            self._t.counts["classify.outcome.rejected"] += 1
            raise

    def classify(self, chain):
        result = self._t.call("classify.classify", self._api.classify, chain)
        kind = {"Meaningless": "meaningless", "TrivialZero": "trivial", "Nontrivial": "nontrivial"}
        self._t.counts["classify.outcome." + kind[type(result).__name__]] += 1
        return result

    def census(self, length):
        return self._t.call("classify.census", self._api.census, length)

    # fields codec and engine
    def loads_field(self, text):
        self._t.counts["fields.loads_field.bytes"] += len(text.encode())
        return self._t.call("fields.loads_field", self._api.loads_field, text)

    def dumps_field(self, field):
        text = self._t.call("fields.dumps_field", self._api.dumps_field, field)
        self._t.counts["fields.dumps_field.bytes"] += len(text.encode())
        return text

    def apply_chain(self, chain, field):
        counts = self._t.counts
        counts["fields.apply_chain.terms_in"] += term_count(field)
        try:
            result = self._t.call("fields.apply_chain", self._api.apply_chain, chain, field)
        except self._api.NablachainError:
            counts["fields.apply_chain.rejected"] += 1
            raise
        counts["fields.apply_chain.terms_out"] += term_count(result)
        counts["fields.apply_chain.ops_applied"] += len(chain)
        if result.is_zero:
            counts["fields.apply_chain.zero_results"] += 1
            if reference.classify_ops([op.value for op in chain])[0] == "trivial":
                counts["fields.apply_chain.zero_known"] += 1
        return result

    # verify
    def run_suite(self, suite, trials, seed, degree):
        results = self._t.call("verify.run_suite." + suite, self._api.run_suite, suite, trials, seed, degree)
        self._t.counts["verify.checks"] += len(results)
        self._t.counts["verify.checks_failed"] += sum(not r.passed for r in results)
        return results


class TracedHooks:
    """Set-up hooks: corpus draws and Polynomial products, each inside a span."""

    def __init__(self, hooks, tracer: Tracer):
        self._h = hooks
        self._t = tracer

    def random_polynomial(self, rng, degree):
        return self._t.call("setup.corpus_draw", self._h.random_polynomial, rng, degree)

    def random_vector_field(self, rng, degree):
        return self._t.call("setup.corpus_draw", self._h.random_vector_field, rng, degree)

    def mul(self, a, b):
        return self._t.call("setup.polynomial_mul", self._h.mul, a, b)

    def pow(self, a, k):
        return self._t.call("setup.polynomial_mul", self._h.pow, a, k)


# Per-layer metrics: name -> (unit, better).  Every workload reports all of
# them; a layer the workload does not reach reads 0.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "parser.parse.calls": ("count", "lower"),
    "parser.parse.self_ms": ("ms", "lower"),
    "parser.parse.p50_us": ("us", "lower"),
    "classify.classify.calls": ("count", "lower"),
    "classify.classify.self_ms": ("ms", "lower"),
    "classify.classify.p50_us": ("us", "lower"),
    "classify.census.self_ms": ("ms", "lower"),
    "classify.outcome.meaningless": ("count", "higher"),
    "classify.outcome.trivial": ("count", "higher"),
    "classify.outcome.nontrivial": ("count", "higher"),
    "classify.outcome.rejected": ("count", "higher"),
    "fields.loads_field.calls": ("count", "lower"),
    "fields.loads_field.self_ms": ("ms", "lower"),
    "fields.loads_field.bytes": ("bytes", "lower"),
    "fields.dumps_field.calls": ("count", "lower"),
    "fields.dumps_field.self_ms": ("ms", "lower"),
    "fields.dumps_field.bytes": ("bytes", "lower"),
    "fields.apply_chain.calls": ("count", "lower"),
    "fields.apply_chain.self_ms": ("ms", "lower"),
    "fields.apply_chain.p50_us": ("us", "lower"),
    "fields.apply_chain.p99_us": ("us", "lower"),
    "fields.apply_chain.terms_in": ("count", "lower"),
    "fields.apply_chain.terms_out": ("count", "lower"),
    "fields.apply_chain.ops_applied": ("count", "lower"),
    "fields.apply_chain.zero_results": ("count", "lower"),
    "fields.apply_chain.rejected": ("count", "lower"),
    "fields.apply_chain.zero_result_ratio": ("ratio", "lower"),
    "setup.corpus_draw.self_ms": ("ms", "lower"),
    "setup.polynomial_mul.self_ms": ("ms", "lower"),
    **{
        f"verify.run_suite.{suite}.{stat}": ("ms", "lower")
        for suite in SUITES
        for stat in ("self_ms", "p50_ms")
    },
    "verify.checks": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def percentile(values: list, q: float):
    if not values:
        return 0
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count), derived from spans and counts."""
    child_ns = Counter()
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict[str, list[int]] = {}
    for sid, (name, start, end, _, _) in enumerate(tracer.spans):
        self_ns.setdefault(name, []).append(end - start - child_ns[sid])

    out: dict[str, tuple[float, int]] = {}
    for metric, (unit, _) in LAYER_METRICS.items():
        layer, _, stat = metric.rpartition(".")
        samples = self_ns.get(layer, [])
        n = len(samples)
        if stat == "calls":
            out[metric] = (n, n)
        elif stat == "self_ms":
            out[metric] = (sum(samples) / 1e6, n)
        elif stat in ("p50_us", "p99_us", "p50_ms"):
            q = 0.99 if stat == "p99_us" else 0.5
            scale = 1e3 if unit == "us" else 1e6
            out[metric] = (percentile(samples, q) / scale, n)
    calls = len(self_ns.get("fields.apply_chain", []))
    zero_known = tracer.counts["fields.apply_chain.zero_known"]
    out["fields.apply_chain.zero_result_ratio"] = (zero_known / calls if calls else 0.0, calls)
    out["trace.overhead_ratio"] = (overhead_ratio, 1)
    for metric in LAYER_METRICS:
        if metric not in out:
            out[metric] = (tracer.counts[metric], 1)
    return out
