import math
from fractions import Fraction

import pytest

from nablachain.errors import (
    DepthUnsupportedError,
    MeaninglessChainError,
    NumericalFailureError,
    SortMismatchError,
)
from nablachain import fdcheck
from nablachain.fdcheck import (
    DEPTH2_REL_TOL,
    REL_TOL,
    CrossCheckReport,
    FdConfig,
    cross_check,
)
from nablachain.fields import Polynomial, VectorField
from nablachain.operators import Chain, Operator

G, C, D = Operator.GRAD, Operator.CURL, Operator.DIV

x1 = Polynomial.variable(1)
x2 = Polynomial.variable(2)
x3 = Polynomial.variable(3)
r2 = x1 * x1 + x2 * x2 + x3 * x3
rot = VectorField(-x2, x1, Polynomial.zero())
identity = VectorField(x1, x2, x3)


def test_config_defaults():
    cfg = FdConfig()
    assert cfg.h == 1e-3
    assert REL_TOL == 1e-6
    assert cfg.abs_floor == 1e-9


@pytest.mark.parametrize(
    "kwargs",
    [
        {"h": 0.0},
        {"h": 1.0},
        {"h": -1e-3},
        {"abs_floor": float("inf")},
        {"abs_floor": float("nan")},
        {"abs_floor": 0.0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FdConfig(**kwargs)


def test_tolerance_depth_semantics():
    cfg = FdConfig()
    assert cfg.tolerance(2.0) == pytest.approx(2e-6)
    assert cfg.tolerance(6.0, depth=2) == pytest.approx(6.0 * DEPTH2_REL_TOL)
    assert cfg.tolerance(0.0) == cfg.abs_floor


def test_fd_partial_square():
    report = cross_check(Chain((G,)), x1 * x1, [(1.0, 0.0, 0.0)])
    assert report.passed
    assert report.rows[0].exact == 2.0


def test_fd_partial_constant():
    report = cross_check(Chain((G,)), Polynomial.constant(5), [(0.3, -0.7, 1.1)])
    assert all(row.deviation <= FdConfig().abs_floor for row in report.rows)


def test_fd_partial_mixed_product():
    report = cross_check(Chain((G,)), x1 * x2 * x3, [(2.0, 1.0, 3.0)])
    assert report.passed
    assert report.rows[1].exact == 6.0


def test_fd_partial_rejects_vector_input():
    with pytest.raises(SortMismatchError):
        cross_check(Chain((G,)), rot, [(0.0, 0.0, 0.0)])


def test_fd_first_order_div_of_identity():
    report = cross_check(Chain((D,)), identity, [(0.2, -0.4, 0.9)])
    assert report.passed
    assert report.rows[0].exact == 3.0


def test_fd_first_order_curl_of_rotation():
    report = cross_check(Chain((C,)), rot, [(0.5, 0.5, 0.5)])
    assert report.passed
    assert [row.exact for row in report.rows] == [0.0, 0.0, 2.0]


def test_fd_first_order_grad_of_transcendental():
    # The stencil takes arbitrary callables, not just polynomial closures.
    got = fdcheck._fd_apply(G, lambda p: math.sin(p[0]), FdConfig().h)((0.0, 0.0, 0.0))
    assert got[0] == pytest.approx(1.0, abs=1e-6)
    assert got[1] == pytest.approx(0.0, abs=1e-9)
    assert got[2] == pytest.approx(0.0, abs=1e-9)


def test_fd_first_order_sort_mismatch():
    with pytest.raises(SortMismatchError):
        cross_check(Chain((G,)), rot, [(0.0, 0.0, 0.0)])
    with pytest.raises(SortMismatchError):
        cross_check(Chain((D,)), x1, [(0.0, 0.0, 0.0)])


def test_cross_check_rejects_a_wrong_sort_before_sampling(monkeypatch):
    # apply_chain's sort check is the only one: curl of a scalar builds no sampler.
    calls = []
    monkeypatch.setattr(fdcheck, "_float_evaluator", lambda field: calls.append(field))
    with pytest.raises(SortMismatchError):
        cross_check(Chain((C,)), x1, [(0.0, 0.0, 0.0)])
    assert calls == []


def test_float_evaluator_adds_the_terms_in_stored_order():
    # Exactly the literal expression: one float per coefficient, terms summed left to right.
    third = Fraction(1, 3)
    p = Polynomial({(2, 1, 0): third, (0, 0, 3): -2})
    assert fdcheck._float_evaluator(p)((1, 2, 3)) == 0.0 + float(third) * 1.0**2 * 2.0**1 + -2.0 * 3.0**3
    v = VectorField(x1 * x2, Polynomial({(0, 0, 1): Fraction(2, 7)}), Polynomial.zero())
    assert fdcheck._float_evaluator(v)((0.5, 4, -1)) == (0.5 * 4.0, float(Fraction(2, 7)) * -1.0, 0.0)


def test_non_finite_samples_are_reported():
    for bad in (float("inf"), float("nan")):
        with pytest.raises(NumericalFailureError):
            fdcheck._fd_apply(G, lambda p: bad, FdConfig().h)((0.0, 0.0, 0.0))


def test_cross_check_depth_two_laplacian():
    report = cross_check(
        Chain((D, G)), r2, [(0.1, 0.2, 0.3), (1.0, -1.0, 0.5)]
    )
    assert isinstance(report, CrossCheckReport)
    assert report.passed
    assert len(report.rows) == 2
    assert report.max_deviation <= max(row.tolerance for row in report.rows)


def test_cross_check_single_curl():
    report = cross_check(Chain((C,)), rot, [(0.0, 0.0, 0.0), (0.7, -0.2, 0.4)])
    assert report.passed
    # One row per point and component for vector-valued output.
    assert len(report.rows) == 6


def test_cross_check_depth_limit():
    with pytest.raises(DepthUnsupportedError):
        cross_check(Chain((G, D, G)), x1, [(0.0, 0.0, 0.0)])


def test_cross_check_depth_limit_precedes_meaning():
    with pytest.raises(DepthUnsupportedError):
        cross_check(Chain((G, G, G)), x1, [(0.0, 0.0, 0.0)])


def test_cross_check_rejects_meaningless_pairs():
    with pytest.raises(MeaninglessChainError):
        cross_check(Chain((G, G)), x1, [(0.0, 0.0, 0.0)])


def test_cross_check_needs_a_point():
    with pytest.raises(ValueError):
        cross_check(Chain((G,)), x1, [])


def test_cross_check_row_bookkeeping():
    points = [(0.1, 0.1, 0.1), (0.2, 0.3, 0.4), (-0.5, 0.6, -0.7)]
    report = cross_check(Chain((G,)), r2, points)
    assert report.passed
    assert len(report.rows) == 9
    for row in report.rows:
        assert row.ok
        assert row.deviation <= row.tolerance
        assert row.point in points


def test_cross_check_uses_depth_tolerance():
    # A depth-2 chain gets the looser relative tolerance.
    report = cross_check(Chain((D, G)), x1 * x1 * x2, [(0.9, 0.8, 0.7)])
    assert report.passed
    exact = 2 * 0.8
    row = report.rows[0]
    assert row.tolerance == pytest.approx(max(DEPTH2_REL_TOL * exact, 1e-9))


def test_float_overflow_is_a_numerical_failure():
    with pytest.raises(NumericalFailureError):
        cross_check(Chain((G,)), Polynomial({(200, 0, 0): 1}), [(40.0, 0.0, 0.0)])


@pytest.mark.parametrize(
    "op, field",
    [
        (G, Polynomial({(1, 0, 0): 10**400})),
        (C, VectorField(x1, Polynomial({(0, 0, 1): 10**400}), x3)),
    ],
    ids=["grad", "curl"],
)
def test_coefficient_past_the_float_range_is_a_numerical_failure(op, field):
    with pytest.raises(NumericalFailureError):
        cross_check(Chain((op,)), field, [(0.0, 0.0, 0.0)])


def test_curl_samples_its_field_six_times():
    # One column per axis, each sampled once above and once below the point.
    calls = []
    sample = fdcheck._float_evaluator(rot)

    def evaluate(point):
        calls.append(point)
        return sample(point)

    got = fdcheck._fd_apply(C, evaluate, FdConfig().h)((0.5, 0.5, 0.5))
    assert len(calls) == 6
    assert abs(got[2] - 2.0) <= FdConfig().tolerance(2.0)


@pytest.mark.parametrize("op", [C, D])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_vector_component_is_reported(op, bad):
    with pytest.raises(NumericalFailureError):
        fdcheck._fd_apply(op, lambda p: (0.0, bad, 1.0), FdConfig().h)((0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "c, field",
    [(Chain((C,)), rot), (Chain((G,)), r2), (Chain((D, G)), r2 * x1), (Chain((C, C)), identity)],
)
def test_cross_check_rows_carry_exact_and_numeric(c, field):
    report = cross_check(c, field, [(0.3, -0.1, 0.8), (0.0, 0.5, -0.5)])
    for row in report.rows:
        assert abs(row.numeric - row.exact) == row.deviation


def test_cross_check_rows_hold_the_exact_values():
    report = cross_check(Chain((C,)), rot, [(0.3, -0.1, 0.8), (0.0, 0.5, -0.5)])
    assert [row.exact for row in report.rows] == [0.0, 0.0, 2.0] * 2


def test_fd_curl_matches_exact_on_every_component():
    # curl (x3, x1, x2) = (1, 1, 1): a sign slip in any component shows.
    report = cross_check(Chain((C,)), VectorField(x3, x1, x2), [(0.3, -0.6, 0.2)])
    assert report.passed
    assert [row.exact for row in report.rows] == [1.0, 1.0, 1.0]
