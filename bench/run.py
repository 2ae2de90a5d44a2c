"""nablachain benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Imports nablachain from ``src/`` next to this directory and fails (exit 2,
no result line) when it is not there.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  Every operation's outcome is checked against ``reference`` outside
the timed region; any mismatch makes the exit code 1.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full report, with run metadata and sample counts, is
written to ``bench/out/`` (and spans, for a traced run).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import operator
import os
import platform
import resource
import statistics
import sys
import types
from array import array
from collections import namedtuple
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # reports and spans
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "peak_rss_mb": "MB"}

Raised = namedtuple("Raised", "kind name")


def make_api(nb) -> types.SimpleNamespace:
    """The public functions the workloads call, taken from one import of the package."""
    return types.SimpleNamespace(
        parse=nb.parse,
        classify=nb.classify,
        census=nb.census,
        loads_field=nb.loads_field,
        dumps_field=nb.dumps_field,
        apply_chain=nb.apply_chain,
        run_suite=nb.run_suite,
        ParseError=nb.ParseError,
        NablachainError=nb.NablachainError,
    )


def make_hooks(nb) -> types.SimpleNamespace:
    """Corpus draws and Polynomial products used while building inputs."""
    return types.SimpleNamespace(
        random_polynomial=nb.corpus.random_polynomial,
        random_vector_field=nb.corpus.random_vector_field,
        mul=operator.mul,
        pow=operator.pow,
    )


def set_up(workload, seed: int, part: int, tracer=None):
    """Import nablachain afresh and build one pass's inputs; returns (seconds, nb, items)."""
    for name in [m for m in sys.modules if m == "nablachain" or m.startswith("nablachain.")]:
        del sys.modules[name]
    start = perf_counter()
    nb = importlib.import_module("nablachain")
    hooks = make_hooks(nb)
    if tracer is not None:
        tracer.op_id = -1
        hooks = tracing.TracedHooks(hooks, tracer)
    items = workload.build(nb, seed, part, hooks)
    return perf_counter() - start, nb, items


def digest(items: list) -> str:
    return hashlib.sha256(json.dumps(items, ensure_ascii=False).encode()).hexdigest()


def run_pass(op, api, items: list, errors: type):
    """Run op on every item; returns (wall seconds, per-op latencies in ns, raw outcomes).

    ``errors`` is the package's base exception: a rejection, not a crash.
    """
    latencies = array("q")
    raws = []
    start = perf_counter()
    for item in items:
        t = perf_counter_ns()
        try:
            raw = op(api, item)
        except errors as exc:
            raw = Raised("error", type(exc).__name__)
        except Exception as exc:  # an unexpected exception is a wrong answer, not a crash
            raw = Raised("exception", f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter_ns() - t)
        raws.append(raw)
    return perf_counter() - start, latencies, raws


def mismatches(workload, raws: list, expected: list) -> list:
    """(index, got, expected) for every outcome that differs from the reference."""
    bad = []
    for i, (raw, want) in enumerate(zip(raws, expected)):
        try:
            got = raw if isinstance(raw, Raised) else workload.outcome(raw)
        except Exception as exc:  # an unreadable result is a wrong answer
            got = ("unreadable", repr(exc))
        if got != want:
            bad.append((i, got, want))
    return bad


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class WrongPackage(Exception):
    """The package was imported from somewhere other than ``src/``."""


class Run:
    """One run's set-ups, with attempted and failed counts across its checked passes.

    Every set-up imports the package afresh and builds the inputs of one
    pass, so passes do not share inputs.  All passes call the functions of
    the first import, which stay warm from pass to pass.
    """

    def __init__(self, workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.api = None
        self.setup_s: list[float] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failures: list = []

    def inputs(self, part: int) -> list:
        gc.collect()
        seconds, nb, items = set_up(self.workload, self.seed, part, self.tracer)
        self.setup_s.append(seconds)
        self.digests.append(digest(items))
        if self.api is None:
            if not Path(nb.__file__).resolve().is_relative_to(SRC):
                raise WrongPackage(f"imported nablachain from {nb.__file__}, not from {SRC}")
            self.api = make_api(nb)
        return items

    def timed_pass(self, items: list):
        gc.collect()
        return run_pass(self.workload.op, self.api, items, self.api.NablachainError)

    def check(self, items: list, raws: list) -> None:
        """Compare with the reference; called only outside timed regions."""
        self.attempted += len(raws)
        self.failures += mismatches(self.workload, raws, self.workload.expect(items))


def measure(run: Run, seconds: float) -> dict:
    """Timed passes, each over its own inputs, for about `seconds` of timed work.

    Another pass starts only while at least half of it fits in the budget.
    Load from other tenants of a shared machine only ever adds time, and it
    comes in phases of seconds that would otherwise dominate the spread, so
    the timings keep the fastest of each: where every pass does the same
    work (``workload.twins``), each item's fastest time across passes;
    otherwise the fastest pass.
    """
    passes, every = [], array("q")
    wall = 0.0
    for part in itertools.count():
        items = run.inputs(part)
        dt, lat, raws = run.timed_pass(items)
        if part == 0:
            # After one set-up and one pass, before any reference work, so
            # the harness's own memory peaks do not hide the program's.
            rss = peak_rss_mb()
        run.check(items, raws)
        wall += dt
        passes.append(lat)
        every.extend(lat)
        if wall + dt / 2 >= seconds:
            break
    best = [array("q", (min(t) for t in zip(*passes)))] if run.workload.twins else passes
    n = len(items)
    metrics = {
        "ops_per_s": (max(len(lat) / (sum(lat) / 1e9) for lat in best), n),
        "p50_ms": (min(statistics.median(lat) for lat in best) / 1e6, n),
        "peak_rss_mb": (rss, 1),
        "setup_s": (min(run.setup_s), len(run.setup_s)),
        "wall_ops_per_s": (len(every) / wall, len(every)),
    }
    # p99 over every timed operation, only where at least ten lie beyond it.
    if len(every) * 0.01 >= 10:
        metrics["p99_ms"] = (tracing.percentile(every, 0.99) / 1e6, len(every))
    return metrics | {"passes": (len(passes), len(passes)), "timed_s": (wall, len(every))}


def trace(run: Run) -> dict:
    """Items untraced and traced in turn; per-layer metrics from the traced calls.

    The untraced and traced items come from different passes of the same
    schedule, so no item runs twice.  Alternating per item lets both sides
    see the same machine state, so the overhead ratio does not drift with
    load from outside the process.
    """
    workload, tracer = run.workload, run.tracer
    traced_api = None

    def traced_op(traced_api, item):
        tracer.op_id += 1
        return tracer.call("op." + workload.name, workload.op, traced_api, item)

    plain_s = traced_s = 0.0
    for j in range(workload.trace_passes):
        plain_items, traced_items = run.inputs(2 * j), run.inputs(2 * j + 1)
        traced_api = traced_api or tracing.TracedApi(run.api, tracer)
        plain_raws, traced_raws = [], []
        for plain, traced in zip(plain_items, traced_items, strict=True):
            dt, _, raws = run_pass(workload.op, run.api, [plain], run.api.NablachainError)
            plain_s += dt
            plain_raws += raws
            dt, _, raws = run_pass(traced_op, traced_api, [traced], run.api.NablachainError)
            traced_s += dt
            traced_raws += raws
        run.check(plain_items, plain_raws)
        run.check(traced_items, traced_raws)
    return tracing.layer_metrics(tracer, (traced_s - plain_s) / plain_s)


UNITS = {
    **END_TO_END,
    **{name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()},
    "p99_ms": "ms",
    "wall_ops_per_s": "1/s",
    "error_ratio": "ratio",
    "harness_rss_mb": "MB",
    "passes": "count",
    "timed_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nablachain" / "__init__.py").is_file():
        print(f"error: the nablachain package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    harness_rss = peak_rss_mb()
    workload = workloads.WORKLOADS[args.workload]()
    run = Run(workload, args.seed, tracing.Tracer() if args.trace else None)
    try:
        if args.trace:
            metrics = trace(run)
            reported = list(tracing.LAYER_METRICS)
        else:
            metrics = measure(run, args.seconds)
            reported = list(END_TO_END)
    except WrongPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = len(run.failures)
    metrics["error_ratio"] = (failed / run.attempted, run.attempted)
    metrics["harness_rss_mb"] = (harness_rss, 1)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": nproc(),
        "commit": git_commit(),
        "inputs_sha256": run.digests,
        "setup_runs_s": run.setup_s,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name], "samples": samples}
            for name, (value, samples) in metrics.items()
        },
        "first_failures": [repr(f)[:500] for f in run.failures[:5]],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, ensure_ascii=False) + "\n")
    if run.tracer is not None:
        run.tracer.write(OUT / f"{stem}-spans.jsonl")

    for name, m in report["metrics"].items():
        print(f"{name:42} {m['value']:>16.6g} {m['unit']:6} samples={m['samples']}")
    for f in report["first_failures"]:
        print("MISMATCH", f, file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": report["metrics"][name]["value"], "unit": report["metrics"][name]["unit"]}
            for name in reported
        },
    }
    print(json.dumps(result, ensure_ascii=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
