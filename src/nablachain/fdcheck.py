"""Central-difference oracle, independent of the exact engine.

This module distrusts ``fields``: derivatives are estimated only from
point samples, so agreement between the two routes checks both at once.
``cross_check`` is the only entry: once ``apply_chain`` has rejected a
meaningless chain or a wrong sort, it samples the field and the exact
result through ``_float_evaluator``, the package's only float code, and
chains ``_fd_apply`` over the operators.  There is one stencil, a
column: along axis k it takes the symmetric quotient
``(f(p + h e_k) - f(p - h e_k)) / 2h`` of every component.  grad, curl and
div are read off the three columns, six samples in all, with an O(h^2)
truncation error.  Nesting two quotients divides machine epsilon by h^2,
so length-two chains are judged against a relaxed relative tolerance,
and chains longer than two are refused rather than checked badly.  Any
non-finite sample or float overflow raises NumericalFailureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .errors import DepthUnsupportedError, NumericalFailureError
from .fields import FieldValue, VectorField, apply_chain
from .operators import Chain, Operator

Point = tuple[float, float, float]
Sample = Union[float, Point]

# Relative tolerances for one quotient and for two nested quotients.
REL_TOL = 1e-6
DEPTH2_REL_TOL = 1e-3


@dataclass(frozen=True)
class FdConfig:
    """Step size and absolute floor for numeric comparison.

    A numeric estimate is accepted when it is within
    ``max(REL_TOL * |exact|, abs_floor)`` of the exact value.
    """

    h: float = 1e-3
    abs_floor: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.h < 1.0:
            raise ValueError("step size must lie in (0, 1)")
        if not 0.0 < self.abs_floor < math.inf:
            raise ValueError("the absolute floor must be positive and finite")

    def tolerance(self, exact: float, depth: int = 1) -> float:
        rel = DEPTH2_REL_TOL if depth >= 2 else REL_TOL
        return max(rel * abs(exact), self.abs_floor)


def _float_evaluator(field: FieldValue) -> Callable[[Point], Sample]:
    """The field in floats, coefficients converted once; terms added in order, not by (compensating) ``sum``."""
    vector = isinstance(field, VectorField)
    try:
        tables = [[(float(c), *e) for e, c in p.terms.items()] for p in (field.components if vector else (field,))]
    except OverflowError as exc:
        raise NumericalFailureError(f"coefficient out of float range: {exc}") from exc

    def evaluate(point: Point) -> Sample:
        x1, x2, x3 = [float(v) for v in point]
        values = []
        for terms in tables:
            total = 0.0
            for c, e1, e2, e3 in terms:
                total += c * x1**e1 * x2**e2 * x3**e3
            values.append(total)
        return tuple(values) if vector else values[0]

    return evaluate


def _shifted(point: Point, axis: int, delta: float) -> Point:
    moved = list(point)
    moved[axis - 1] += delta
    return (moved[0], moved[1], moved[2])


def _sample(f: Callable[[Point], Sample], point: Point) -> tuple[float, ...]:
    """The components of f at point, each checked to be finite."""
    try:
        value = f(point)
        parts = value if isinstance(value, tuple) else (value,)
        for part in parts:
            if not math.isfinite(part):
                raise NumericalFailureError(f"non-finite sample {part!r} near {point}")
    except OverflowError as exc:
        raise NumericalFailureError(f"overflow sampling near {point}: {exc}") from exc
    return parts


def _column(f: Callable[[Point], Sample], axis: int, point: Point, h: float) -> tuple[float, ...]:
    """The symmetric quotient of every component of f along one axis."""
    upper = _sample(f, _shifted(point, axis, h))
    lower = _sample(f, _shifted(point, axis, -h))
    return tuple([(u - l) / (2.0 * h) for u, l in zip(upper, lower)])


def _fd_apply(op: Operator, f: Callable[[Point], Sample], h: float) -> Callable[[Point], Sample]:
    """The sampled function of one first-order operation on f.

    Column ``dk`` holds the quotient of every component along axis k, so
    ``dk[i]`` estimates the partial of component i + 1 along axis k.
    """

    def evaluate(point: Point) -> Sample:
        d1, d2, d3 = (_column(f, axis, point, h) for axis in (1, 2, 3))
        if op is Operator.GRAD:
            return (d1[0], d2[0], d3[0])
        if op is Operator.CURL:
            return (d2[2] - d3[1], d3[0] - d1[2], d1[1] - d2[0])
        return d1[0] + d2[1] + d3[2]

    return evaluate


@dataclass(frozen=True)
class CrossCheckRow:
    point: Point
    deviation: float
    tolerance: float
    ok: bool
    exact: float
    numeric: float


@dataclass(frozen=True)
class CrossCheckReport:
    passed: bool
    max_deviation: float
    rows: tuple[CrossCheckRow, ...]


def cross_check(
    c: Chain,
    field: FieldValue,
    points: Iterable[Point],
    cfg: FdConfig = FdConfig(),
) -> CrossCheckReport:
    """Compare exact and sampled application of a short chain.

    Chains longer than two raise DepthUnsupportedError; the nested
    quotient noise beyond that depth would drown any sensible tolerance.
    Length-two chains are judged at the relaxed relative tolerance.  No
    points raise ValueError: agreement over nothing is no agreement.
    """
    depth = len(c)
    if depth > 2:
        raise DepthUnsupportedError(
            f"numeric route supports chains of length <= 2, got {depth}"
        )
    exact = apply_chain(c, field)
    exact_float, numeric = _float_evaluator(exact), _float_evaluator(field)
    for op in reversed(c.ops):
        numeric = _fd_apply(op, numeric, cfg.h)

    rows = []
    for point in points:
        exact_value = _sample(exact_float, point)
        numeric_value = _sample(numeric, point)
        for want, got in zip(exact_value, numeric_value):
            deviation = abs(got - want)
            tolerance = cfg.tolerance(want, depth)
            rows.append(CrossCheckRow(point, deviation, tolerance, deviation <= tolerance, want, got))
    if not rows:
        raise ValueError("cross_check needs at least one point")
    return CrossCheckReport(
        passed=all(row.ok for row in rows),
        max_deviation=max(row.deviation for row in rows),
        rows=tuple(rows),
    )
