"""Central-difference oracle, independent of the exact engine.

The whole point of this module is to distrust ``fields``: derivatives
are estimated only from point samples, so agreement between the two
routes checks both at once.  Each first-order operation differentiates
with the symmetric quotient ``(f(p + h e) - f(p - h e)) / 2h``, which
carries an O(h^2) truncation error.  Nesting two such quotients divides
machine epsilon by h^2, so length-two chains are judged against a
relaxed relative tolerance, and chains longer than two are refused
rather than checked badly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .errors import (
    DepthUnsupportedError,
    NumericalFailureError,
    SortMismatchError,
)
from .fields import FieldValue, apply_chain, sort_of
from .operators import Chain, Operator, Sort

Point = tuple[float, float, float]
Sample = Union[float, Point]

# Relative tolerance replacing cfg.rel_tol when two quotients nest.
DEPTH2_REL_TOL = 1e-3


@dataclass(frozen=True)
class FdConfig:
    """Step size and acceptance tolerances for numeric comparison.

    A numeric estimate is accepted when it is within
    ``max(rel_tol * |exact|, abs_floor)`` of the exact value.
    """

    h: float = 1e-3
    rel_tol: float = 1e-6
    abs_floor: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.h < 1.0:
            raise ValueError("step size must lie in (0, 1)")
        if self.rel_tol <= 0.0 or self.abs_floor <= 0.0:
            raise ValueError("tolerances must be positive")

    def tolerance(self, exact: float, depth: int = 1) -> float:
        rel = DEPTH2_REL_TOL if depth >= 2 else self.rel_tol
        return max(rel * abs(exact), self.abs_floor)


@dataclass(frozen=True)
class SampledField:
    """A field known only through point evaluation."""

    sort: Sort
    evaluate: Callable[[Point], Sample]


def as_sampled(field: FieldValue) -> SampledField:
    return SampledField(sort_of(field), field.eval_float)


def _shifted(point: Point, axis: int, delta: float) -> Point:
    moved = list(point)
    moved[axis - 1] += delta
    return (moved[0], moved[1], moved[2])


def _checked(value: float, point: Point) -> float:
    if not math.isfinite(value):
        raise NumericalFailureError(f"non-finite sample {value!r} near {point}")
    return value


def _sample(f: Callable[[Point], Sample], point: Point) -> Sample:
    """f at point, with float overflow reported as a numerical failure."""
    try:
        return f(point)
    except OverflowError as exc:
        raise NumericalFailureError(f"overflow sampling near {point}: {exc}") from exc


def _quotient(f: Callable[[Point], float], axis: int, point: Point, h: float) -> float:
    upper = _checked(float(_sample(f, _shifted(point, axis, h))), point)
    lower = _checked(float(_sample(f, _shifted(point, axis, -h))), point)
    return (upper - lower) / (2.0 * h)


def fd_partial(field: SampledField, axis: int, point: Point, cfg: FdConfig) -> float:
    """Symmetric difference quotient of a scalar field along one axis."""
    if field.sort is not Sort.SCALAR:
        raise SortMismatchError(Sort.SCALAR, field.sort, context="fd_partial")
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    return _quotient(field.evaluate, axis, point, cfg.h)  # type: ignore[arg-type]


def _component(field: SampledField, index: int) -> Callable[[Point], float]:
    def pick(point: Point) -> float:
        return field.evaluate(point)[index]  # type: ignore[index]

    return pick


def fd_first_order(op: Operator, field: SampledField, point: Point, cfg: FdConfig) -> Sample:
    """One numeric first-order operation at a point."""
    if field.sort is not op.domain:
        raise SortMismatchError(op.domain, field.sort, context=op.value)
    h = cfg.h
    if op is Operator.GRAD:
        f = field.evaluate
        return (
            _quotient(f, 1, point, h),  # type: ignore[arg-type]
            _quotient(f, 2, point, h),  # type: ignore[arg-type]
            _quotient(f, 3, point, h),  # type: ignore[arg-type]
        )
    f1, f2, f3 = (_component(field, i) for i in range(3))
    if op is Operator.CURL:
        return (
            _quotient(f3, 2, point, h) - _quotient(f2, 3, point, h),
            _quotient(f1, 3, point, h) - _quotient(f3, 1, point, h),
            _quotient(f2, 1, point, h) - _quotient(f1, 2, point, h),
        )
    return (
        _quotient(f1, 1, point, h)
        + _quotient(f2, 2, point, h)
        + _quotient(f3, 3, point, h)
    )


def fd_apply(op: Operator, field: SampledField, cfg: FdConfig) -> SampledField:
    """Wrap a numeric first-order operation as another sampled field."""
    if field.sort is not op.domain:
        raise SortMismatchError(op.domain, field.sort, context=op.value)

    def evaluate(point: Point) -> Sample:
        return fd_first_order(op, field, point, cfg)

    return SampledField(op.codomain, evaluate)


@dataclass(frozen=True)
class CrossCheckRow:
    point: Point
    deviation: float
    tolerance: float
    ok: bool


@dataclass(frozen=True)
class CrossCheckReport:
    passed: bool
    max_deviation: float
    rows: tuple[CrossCheckRow, ...]


def _as_components(value: Sample) -> tuple[float, ...]:
    if isinstance(value, tuple):
        return value
    return (value,)


def cross_check(
    c: Chain,
    field: FieldValue,
    points: Iterable[Point],
    cfg: FdConfig = FdConfig(),
) -> CrossCheckReport:
    """Compare exact and sampled application of a short chain.

    Chains longer than two raise DepthUnsupportedError; the nested
    quotient noise beyond that depth would drown any sensible tolerance.
    Length-two chains are judged at the relaxed relative tolerance.
    """
    depth = len(c)
    if depth > 2:
        raise DepthUnsupportedError(
            f"numeric route supports chains of length <= 2, got {depth}"
        )
    exact = apply_chain(c, field)
    numeric = as_sampled(field)
    for op in reversed(c.ops):
        numeric = fd_apply(op, numeric, cfg)

    rows = []
    worst = 0.0
    for point in points:
        exact_value = _as_components(_sample(exact.eval_float, point))
        numeric_value = _as_components(_sample(numeric.evaluate, point))
        for want, got in zip(exact_value, numeric_value):
            deviation = abs(_checked(got, point) - want)
            tolerance = cfg.tolerance(want, depth)
            worst = max(worst, deviation)
            rows.append(CrossCheckRow(point, deviation, tolerance, deviation <= tolerance))
    return CrossCheckReport(
        passed=all(row.ok for row in rows),
        max_deviation=worst,
        rows=tuple(rows),
    )
