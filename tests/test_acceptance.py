"""Acceptance gate.

Each test covers one numbered criterion and prints a single
``[criterion NN] PASS/FAIL`` line regardless of output capture, so a full
run reads as a checklist.  The checks here lean on independent, in-test
logic where that is feasible, rather than trusting the library to grade
itself.
"""

import json
import math
import random
import time

import pytest

from nablachain.classify import (
    Family,
    Nontrivial,
    TrivialZero,
    census,
    classify,
    meaningful_chains,
    nontrivial_chain,
)
from nablachain.cli import main
from nablachain.collections import CollectionKind, Order, collection_order
from nablachain.corpus import (
    each_slot,
    harmonic_basis,
    random_point,
    random_polynomial,
    random_vector_field,
)
from nablachain.errors import MeaninglessChainError, SortMismatchError
from nablachain.fdcheck import FdConfig, cross_check
from nablachain.fields import (
    Polynomial,
    VectorField,
    apply_chain,
    laplacian,
)
from nablachain.operators import (
    Chain,
    Meaningful,
    Operator,
    Sort,
    chain,
    chain_signature,
    compose_signatures,
)
from nablachain.verify import CheckResult

G, C, D = Operator.GRAD, Operator.CURL, Operator.DIV

x1 = Polynomial.variable(1)
x2 = Polynomial.variable(2)
x3 = Polynomial.variable(3)
r2 = x1 * x1 + x2 * x2 + x3 * x3


def _run(num, label, body, capsys):
    try:
        body()
        ok, detail = True, ""
    except BaseException as exc:  # noqa: BLE001 - the gate must always report
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}")
    if not ok:
        pytest.fail(f"criterion {num:02d} ({label}): {detail}")


def _best_of(repeats, fn):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _partition(length):
    trivial, nontrivial = set(), set()
    for c in meaningful_chains(length):
        outcome = classify(c)
        if isinstance(outcome, TrivialZero):
            trivial.add(tuple(c))
        else:
            nontrivial.add(tuple(c))
    return trivial, nontrivial


def test_criterion_01_second_order_census(capsys):
    def body():
        row = census(2)
        assert row.meaningful_count == 5
        trivial, nontrivial = _partition(2)
        assert trivial == {(D, C), (C, G)}
        assert nontrivial == {(D, G), (C, C), (G, D)}
        assert _best_of(5, lambda: census(2)) < 1e-3

    _run(1, "second-order census", body, capsys)


def test_criterion_02_third_order_census(capsys):
    def body():
        row = census(3)
        assert row.meaningful_count == 8
        trivial, nontrivial = _partition(3)
        assert nontrivial == {(G, D, G), (C, C, C), (D, G, D)}
        assert trivial == {
            (C, C, G),
            (D, C, G),
            (D, C, C),
            (G, D, C),
            (C, G, D),
        }
        assert _best_of(5, lambda: census(3)) < 1e-3

    _run(2, "third-order census", body, capsys)


def test_criterion_03_three_families_at_every_length(capsys):
    def body():
        start = time.perf_counter()
        for n in range(1, 13):
            assert census(n).nontrivial_count == 3
            _, nontrivial = _partition(n)
            expected = {tuple(nontrivial_chain(f, n)) for f in Family}
            assert nontrivial == expected
        assert time.perf_counter() - start < 5.0

    _run(3, "three nontrivial families at every length", body, capsys)


def test_criterion_04_classifier_matches_evaluation(capsys):
    # A chain of length n is a constant-coefficient operator of order n:
    # it is identically zero exactly when it kills every monomial of
    # total degree n, so these witnesses decide it.
    def degree_n_monomials(sort, n):
        zero = Polynomial.zero()
        fields = []
        for a in range(n + 1):
            for b in range(n + 1 - a):
                m = x1**a * x2**b * x3 ** (n - a - b)
                if sort is Sort.SCALAR:
                    fields.append(m)
                else:
                    fields += [VectorField(m, zero, zero), VectorField(zero, m, zero), VectorField(zero, zero, m)]
        return fields

    def body():
        start = time.perf_counter()
        seen = 0
        for n in range(1, 6):
            for c in meaningful_chains(n):
                seen += 1
                sig = chain_signature(c)
                assert isinstance(sig, Meaningful)
                witnesses = degree_n_monomials(sig.input, n)
                all_zero = all(apply_chain(c, w).is_zero for w in witnesses)
                outcome = classify(c)
                if isinstance(outcome, TrivialZero):
                    assert all_zero, f"{c} claimed zero but a witness disagrees"
                else:
                    assert not all_zero, f"{c} claimed nonzero on every witness"
        assert seen == 3 + 5 + 8 + 13 + 21 == 50
        assert time.perf_counter() - start < 10.0

    _run(4, "classifier agrees with symbolic evaluation", body, capsys)


def test_criterion_05_grouping_agreement(capsys):
    _UNDEF = object()

    def attempt(fn):
        try:
            return fn()
        except (MeaninglessChainError, SortMismatchError):
            return _UNDEF

    def unit_sig(op):
        return Meaningful(op.domain, op.codomain)

    def body():
        rng = random.Random(5)
        scalars = [random_polynomial(rng, 3) for _ in range(10)]
        vectors = [random_vector_field(rng, 3) for _ in range(10)]
        cases = 0
        for o_out in Operator:
            for o_mid in Operator:
                for o_in in Operator:
                    flat = Chain((o_out, o_mid, o_in))
                    left_sig = compose_signatures(
                        chain_signature(chain(o_out, o_mid)), unit_sig(o_in)
                    )
                    right_sig = compose_signatures(
                        unit_sig(o_out), chain_signature(chain(o_mid, o_in))
                    )
                    assert left_sig == right_sig == chain_signature(flat)
                    for fields in (scalars, vectors):
                        cases += 1
                        for field in fields:
                            flat_val = attempt(lambda: apply_chain(flat, field))
                            left_val = attempt(
                                lambda: apply_chain(
                                    Chain((o_out, o_mid)),
                                    apply_chain(chain(o_in), field),
                                )
                            )
                            right_val = attempt(
                                lambda: apply_chain(
                                    chain(o_out),
                                    apply_chain(Chain((o_mid, o_in)), field),
                                )
                            )
                            assert left_val == right_val == flat_val
        assert cases == 54

    _run(5, "all 54 grouping cases agree", body, capsys)


def test_criterion_06_annihilation_identities(capsys):
    def body():
        start = time.perf_counter()
        rng = random.Random(6)
        scalars = [random_polynomial(rng, 4) for _ in range(100)]
        vectors = [random_vector_field(rng, 4) for _ in range(100)]
        for f in scalars:
            assert apply_chain(Chain((C, G)), f).is_zero
        for v in vectors:
            assert apply_chain(Chain((D, C)), v).is_zero
        third_order_trivial = (
            Chain((C, C, G)),
            Chain((D, C, G)),
            Chain((D, C, C)),
            Chain((G, D, C)),
            Chain((C, G, D)),
        )
        for c in third_order_trivial:
            sig = chain_signature(c)
            witnesses = scalars if sig.input is Sort.SCALAR else vectors
            for w in witnesses:
                assert apply_chain(c, w).is_zero
        assert time.perf_counter() - start < 5.0

    _run(6, "annihilating pairs vanish exactly", body, capsys)


def test_criterion_07_curl_curl_equals_grad_div(capsys):
    def body():
        for v in each_slot([h for m in range(5) for h in harmonic_basis(m)]):
            lhs = apply_chain(Chain((C, C)), v)
            rhs = apply_chain(Chain((G, D)), v)
            assert lhs == rhs

    _run(7, "curl curl equals grad div on vector harmonics", body, capsys)


def test_criterion_08_third_order_products_vanish(capsys):
    def body():
        chains = list(meaningful_chains(3))
        assert len(chains) == 8
        for f in (h for m in range(5) for h in harmonic_basis(m)):
            assert laplacian(f).is_zero
            for v in each_slot([f]):
                for c in chains:
                    assert apply_chain(c, f if c.innermost.domain is Sort.SCALAR else v).is_zero

    _run(8, "order-3 products vanish on harmonic inputs", body, capsys)


def test_criterion_09_multiplication_identities(capsys):
    def lap(f, n):
        for _ in range(n):
            f = laplacian(f)
        return f

    def body():
        start = time.perf_counter()
        rng = random.Random(9)
        for _ in range(20):
            f = random_polynomial(rng, 4)
            for n in range(1, 5):
                # lap^n(x f) = 2n d(lap^(n-1) f)/dx + x lap^n f
                assert lap(x1 * f, n) == 2 * n * lap(f, n - 1).partial(1) + x1 * lap(f, n)
                # lap^n(x^2 f) = 4n(n-1) d2(lap^(n-2) f)/dx2 + 4n x d(lap^(n-1) f)/dx
                #                + 2n lap^(n-1) f + x^2 lap^n f; the first term is 0 at n = 1
                assert lap(x1 * x1 * f, n) == (
                    4 * n * (n - 1) * lap(f, max(n - 2, 0)).partial(1).partial(1)
                    + 4 * n * x1 * lap(f, n - 1).partial(1)
                    + 2 * n * lap(f, n - 1)
                    + x1 * x1 * lap(f, n)
                )
        for n in (2, 3):
            for h in (h for m in range(4) for h in harmonic_basis(m)):
                low = r2 ** (n - 2) * h
                for multiplier in (x1, r2):
                    lifted = collection_order(
                        CollectionKind.HARMONIC, multiplier * low, n
                    )
                    assert isinstance(lifted, Order)
                    assert lifted.n <= n
        assert time.perf_counter() - start < 10.0

    _run(9, "multiplication identities and order inclusions", body, capsys)


def test_criterion_10_strict_order_witnesses(capsys):
    def body():
        for field, want in ((x1 * x1 - x2 * x2, 1), (r2, 2), (r2 * r2, 3)):
            got = collection_order(CollectionKind.HARMONIC, field, 10)
            assert got == Order(want)

    _run(10, "strict order witnesses 1, 2, 3", body, capsys)


def test_criterion_11_fibonacci_counts(capsys):
    def body():
        counts = [census(n).meaningful_count for n in range(1, 9)]
        assert counts == [3, 5, 8, 13, 21, 34, 55, 89]

    _run(11, "meaningful counts follow the Fibonacci law", body, capsys)


def test_criterion_12_numeric_oracle_agreement(capsys):
    def body():
        start = time.perf_counter()
        cfg = FdConfig(h=1e-5)
        rng = random.Random(12)
        plans = (
            (G, lambda: random_polynomial(rng, 3)),
            (C, lambda: random_vector_field(rng, 3)),
            (D, lambda: random_vector_field(rng, 3)),
        )
        for op, draw in plans:
            for _ in range(20):
                field = draw()
                points = [random_point(rng) for _ in range(10)]
                # Each row is held to max(1e-6 * |w|, 1e-9) at depth one.
                assert cross_check(chain(op), field, points, cfg).passed
        quartic = x1 * x1 * x1 * x1

        def error(h):
            return cross_check(chain(G), quartic, [(1.0, 0.0, 0.0)], FdConfig(h=h)).rows[0].deviation

        ratio = error(1e-2) / error(1e-3)
        assert 25.0 <= ratio <= 400.0
        assert time.perf_counter() - start < 5.0

    _run(12, "finite differences agree with exact derivatives", body, capsys)


def test_criterion_13_cli_contract(capsys, monkeypatch, tmp_path):
    def body():
        assert main(["classify", "grad ∘ grad"]) == 0
        assert capsys.readouterr().out == "meaningless\n"
        assert main(["classify", "div ∘ curl"]) == 0
        assert (
            capsys.readouterr().out
            == "zero (scalar), annihilating pair at position 0: div curl\n"
        )
        assert main(["classify", "curl ∘ curl ∘ curl"]) == 0
        assert (
            capsys.readouterr().out
            == "nontrivial: curl-power, order 3, signature vector -> vector\n"
        )

        assert main(["census", "--max", "3"]) == 0
        assert capsys.readouterr().out == (
            "length     total  meaningless  trivial-zero  nontrivial\n"
            "     1         3            0             0           3\n"
            "     2         9            4             2           3\n"
            "     3        27           19             5           3\n"
        )

        field_file = tmp_path / "r2.json"
        field_file.write_text(
            json.dumps(
                {
                    "kind": "scalar",
                    "terms": [
                        {"c": "1", "e": [2, 0, 0]},
                        {"c": "1", "e": [0, 2, 0]},
                        {"c": "1", "e": [0, 0, 2]},
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert (
            main(["apply", "--chain", "div ∘ grad", "--field", str(field_file)])
            == 0
        )
        capsys.readouterr()
        assert main(["classify", "grad rot"]) == 1
        capsys.readouterr()
        assert (
            main(["apply", "--chain", "grad ∘ grad", "--field", str(field_file)])
            == 2
        )
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(
                "nablachain.verify.run_suite",
                lambda suite, trials, seed, degree: (
                    CheckResult("forced failure", False, "injected"),
                ),
            )
            assert main(["verify", "--suite", "identities"]) == 3
        capsys.readouterr()

        argv = ["verify", "--suite", "identities", "--seed", "42"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[-1].endswith("checks passed")

    _run(13, "command-line contract", body, capsys)
