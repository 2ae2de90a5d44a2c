"""Corpus-driven verification suites.

Four suites, each a list of named checks: ``identities``
(annihilations, the curl-of-curl decomposition, linearity, degree
bookkeeping, classifier-versus-evaluation agreement), ``associativity``
(all grouping cases of three-step composition), ``examples`` (the
paper's identities between collections: the coordinate and
squared-coordinate multiplication identities, read from one laplacian
ladder per field, curl curl against grad div on vector harmonics, the
third-order products on harmonic inputs, and collection-order facts),
and ``oracle`` (exact engine against the finite-difference route).
Both groupings in ``associativity`` run the same operators, so it sees
how ``apply_chain`` orders and groups them, never the operators
themselves; an operator slip is caught by the other three suites
(``tests/test_mutants.py``).

Claims closed under linear combination are checked on a basis over
degrees 0..degree, which proves them for every field of those degrees.
The monomials (``corpus.monomials``) carry both annihilations, the
decomposition, the third-order zeros, the degree steps (grad's "exactly
one lower" as Euler's x . grad m == d m, which is linear), the
multiplication identities and classifier agreement (a length-n chain on
the degree-n monomials); the harmonic basis (``corpus.harmonic_basis``),
scalar and in each vector slot, carries the harmonic claims of
``examples``.  ``iterate order ladder`` ("exact order" is not linear)
sweeps cases built from them: r^(2(k-1)) h for each basis h and
k = 1, 2, 3, of order exactly k by Almansi's theorem.  Trials and seed
steer only ``chain linearity``, which licenses the sweeps, and the
oracle's draws.

Every check runs through one runner,
``_sweep(name, seed, reps, draw, violation)``, the only code here that
builds a ``CheckResult``.  It seeds the generator from the pair (seed,
check name), so checks are independent of execution order and reports
are reproducible byte for byte.  For each i below reps, ``draw(rng, i)``
builds the i-th input and is the only code that consumes the
generator; ``violation(input)`` must not consume it, and returns None
when the claim holds or the failure detail otherwise.  Checks over a
fixed list of cases go through ``_each``, whose draw is ``cases[i]``.
A ``NablachainError`` raised while drawing or judging an input fails
the check, with the error's type and message as the detail, so a
broken engine is a violation rather than an aborted suite; so is an
unmet precondition (an input that is not harmonic).  Draw order is part
of the report format, as it is for the corpus itself.  The oracle's
sampling-agreement fields have total degree three whatever the degree
argument, and ``cross_check`` judges them against an absolute floor of
1e-7: on cubics the difference quotient's error stays below about
3e-8, while higher degrees would swamp any fixed floor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional, TypeVar

from . import fields
from .classify import TrivialZero, classify, meaningful_chains
from .collections import CollectionKind, Order, collection_order
from .corpus import (
    each_slot,
    harmonic_basis,
    monomials,
    random_point,
    random_polynomial,
    random_vector_field,
    radius_squared,
)
from .errors import MeaninglessChainError, NablachainError, SortMismatchError
from .fdcheck import FdConfig, cross_check
from .fields import FieldValue, Polynomial, VectorField, apply_chain
from .operators import (
    Chain,
    Meaningful,
    Operator,
    Sort,
    chain,
    chain_signature,
    compose_signatures,
)
from .parser import format_chain


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check; detail carries a counterexample."""

    name: str
    passed: bool
    detail: str = ""


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


_Input = TypeVar("_Input")


def _sweep(
    name: str,
    seed: int,
    reps: int,
    draw: Callable[[random.Random, int], _Input],
    violation: Callable[[_Input], Optional[str]],
) -> CheckResult:
    """Judge reps seeded draws in order; the first violation or domain error fails the check."""
    rng = _rng(seed, name)
    for i in range(reps):
        try:
            detail = violation(draw(rng, i))
        except NablachainError as exc:
            detail = f"{type(exc).__name__}: {exc}"
        if detail is not None:
            return CheckResult(name, False, detail)
    return CheckResult(name, True)


def _each(name: str, cases: list[_Input], violation: Callable[[_Input], Optional[str]]) -> CheckResult:
    """Judge a fixed list of cases in order; consumes no randomness."""
    return _sweep(name, 0, len(cases), lambda rng, i: cases[i], violation)


def _draw_field(rng: random.Random, sort: Sort, degree: int) -> FieldValue:
    if sort is Sort.SCALAR:
        return random_polynomial(rng, degree)
    return random_vector_field(rng, degree)


def _draw_points(rng: random.Random) -> list[tuple[float, float, float]]:
    return [random_point(rng) for _ in range(10)]


# The rotation field (-x2, x1, 0): curl is a nonzero constant, so its
# curling order is exactly 2.
_ROTATION = VectorField(-Polynomial.variable(2), Polynomial.variable(1), Polynomial.zero())
_CURL_CURL = chain(Operator.CURL, Operator.CURL)
_GRAD_DIV = chain(Operator.GRAD, Operator.DIV)
_DIV_GRAD = chain(Operator.DIV, Operator.GRAD)


# -- identities --------------------------------------------------------------


def _check_linearity(trials: int, seed: int, degree: int) -> CheckResult:
    """Input i tests pair i % pairs of chain i // pairs."""
    chains = [c for n in (1, 2, 3) for c in meaningful_chains(n)]
    pairs = max(1, trials // 20)

    def draw(rng, i):
        c = chains[i // pairs]
        u = _draw_field(rng, c.innermost.domain, degree)
        w = _draw_field(rng, c.innermost.domain, degree)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return c, u, w, a, b

    def violation(case):
        c, u, w, a, b = case
        if apply_chain(c, a * u + b * w) == a * apply_chain(c, u) + b * apply_chain(c, w):
            return None
        return f"chain {format_chain(c)}, u = {u!r}, w = {w!r}"

    return _sweep("chain linearity", seed, len(chains) * pairs, draw, violation)


def _degree(field: FieldValue) -> int:
    if isinstance(field, Polynomial):
        return field.degree()
    return max(comp.degree() for comp in field.components)


def _check_degree_step(op: Operator, basis: list[FieldValue]) -> CheckResult:
    """op lowers each monomial's degree d by at least one; grad by exactly one, as x . grad m == d m (Euler)."""
    x1, x2, x3 = (Polynomial.variable(axis) for axis in (1, 2, 3))

    def violation(m):
        out = apply_chain(chain(op), m)
        holds = out.is_zero or _degree(out) <= _degree(m) - 1
        if op is Operator.GRAD:
            holds = holds and x1 * out.f1 + x2 * out.f2 + x3 * out.f3 == _degree(m) * m
        return None if holds else f"{'f' if op is Operator.GRAD else 'v'} = {m!r}"

    return _each(f"degree step {op.value}", basis, violation)


def _basis(sort: Sort, degree: int) -> list[FieldValue]:
    """Every monomial field of the sort with total degree <= degree."""
    return [m for d in range(degree + 1) for m in monomials(sort, d)]


def _check_classifier_agreement() -> CheckResult:
    """A chain of length n is zero exactly when it kills every degree-n monomial of its input sort."""
    witnesses = {(sort, n): monomials(sort, n) for sort in Sort for n in range(1, 6)}

    def violation(c):
        all_zero = all(apply_chain(c, m).is_zero for m in witnesses[c.innermost.domain, len(c.ops)])
        return None if isinstance(classify(c), TrivialZero) == all_zero else f"chain {format_chain(c)}"

    return _each("classifier evaluation agreement",
                 [c for n in range(1, 6) for c in meaningful_chains(n)], violation)


def run_identities(trials: int, seed: int, degree: int) -> list[CheckResult]:
    basis = {sort: _basis(sort, degree) for sort in Sort}
    curl_grad = chain(Operator.CURL, Operator.GRAD)
    div_curl = chain(Operator.DIV, Operator.CURL)

    def decomposition(v):
        lhs = apply_chain(_CURL_CURL, v) + fields.vector_laplacian(v)
        return None if lhs == apply_chain(_GRAD_DIV, v) else f"v = {v!r}"

    results = [
        _each("annihilation curl after grad", basis[Sort.SCALAR],
              lambda f: None if apply_chain(curl_grad, f).is_zero else f"f = {f!r}"),
        _each("annihilation div after curl", basis[Sort.VECTOR],
              lambda v: None if apply_chain(div_curl, v).is_zero else f"v = {v!r}"),
        _each("curl of curl decomposition", basis[Sort.VECTOR], decomposition),
        _check_linearity(trials, seed, degree),
        _check_classifier_agreement(),
    ]
    for c in meaningful_chains(3):
        if isinstance(classify(c), TrivialZero):
            results.append(_each(
                f"third-order zero: {format_chain(c)}", basis[c.innermost.domain],
                lambda field: None if apply_chain(c, field).is_zero else f"input = {field!r}",
            ))
    results += [_check_degree_step(op, basis[op.domain]) for op in Operator]
    return results


# -- associativity -----------------------------------------------------------

_UNDEFINED = object()


def _grouped(outer: tuple[Operator, ...], inner: tuple[Operator, ...], field):
    """outer applied after inner, or _UNDEFINED when either step has no value."""
    try:
        return apply_chain(Chain(outer), apply_chain(Chain(inner), field))
    except (MeaninglessChainError, SortMismatchError):
        return _UNDEFINED


def _grouping_signatures_violation(triple: tuple[Operator, ...]) -> Optional[str]:
    sigs = [Meaningful(op.domain, op.codomain) for op in triple]
    left = compose_signatures(compose_signatures(sigs[0], sigs[1]), sigs[2])
    right = compose_signatures(sigs[0], compose_signatures(sigs[1], sigs[2]))
    flat = chain_signature(Chain(triple))
    return None if left == right == flat else f"triple {format_chain(Chain(triple))}"


def _check_grouping_values(sort: Sort, trials: int, seed: int, degree: int) -> CheckResult:
    """Input i applies triple i // per to its own field."""
    triples = list(product(Operator, repeat=3))
    per = max(1, min(trials, 10))

    def violation(case):
        triple, field = case
        left = _grouped(triple[:2], triple[2:], field)
        right = _grouped(triple[:1], triple[1:], field)
        if (left is _UNDEFINED) != (right is _UNDEFINED):
            return f"triple {format_chain(Chain(triple))}: one grouping undefined"
        if left is not _UNDEFINED and left != right:
            return f"triple {format_chain(Chain(triple))}, input = {field!r}"
        return None

    return _sweep(f"grouping values agree on {sort.value}s", seed, len(triples) * per,
                  lambda rng, i: (triples[i // per], _draw_field(rng, sort, degree)), violation)


def run_associativity(trials: int, seed: int, degree: int) -> list[CheckResult]:
    return [
        _each("grouping signatures agree", list(product(Operator, repeat=3)),
              _grouping_signatures_violation),
        _check_grouping_values(Sort.SCALAR, trials, seed, degree),
        _check_grouping_values(Sort.VECTOR, trials, seed, degree),
    ]


# -- examples ----------------------------------------------------------------


_ORDER3_CHAINS = tuple(meaningful_chains(3))


def _harmonic_products_violation(field: FieldValue) -> Optional[str]:
    """Every third-order chain on the field's sort kills a harmonic f or a vector harmonic v."""
    if isinstance(field, Polynomial):
        sort, label = Sort.SCALAR, "f"
        if not fields.laplacian(field).is_zero:
            return "scalar field is not harmonic"
    else:
        sort, label = Sort.VECTOR, "v"
        if not fields.vector_laplacian(field).is_zero:
            return "vector field is not vector harmonic"
    for c in _ORDER3_CHAINS:
        if c.innermost.domain is sort and not apply_chain(c, field).is_zero:
            return f"chain {format_chain(c)}, {label} = {field!r}"
    return None


def _laplacian_ladder(f: Polynomial) -> list[Polynomial]:
    """[f, lap f, ..., lap^4 f]: the iterates both multiplication identities read."""
    ladder = [f]
    for _ in range(4):
        ladder.append(fields.laplacian(ladder[-1]))
    return ladder


def _coordinate_multiple_rhs(lap_f: list[Polynomial], x: Polynomial, axis: int, n: int) -> Polynomial:
    """The right side of lap^n(x f) == 2n d(lap^(n-1) f)/dx + x lap^n f, x the axis coordinate."""
    return 2 * n * lap_f[n - 1].partial(axis) + x * lap_f[n]


def _squared_coordinate_multiple_rhs(lap_f: list[Polynomial], x: Polynomial, axis: int, n: int) -> Polynomial:
    """The right side of the squared-coordinate identity:

        lap^n(x^2 f) == 4n(n-1) d2(lap^(n-2) f)/dx2 + 4n x d(lap^(n-1) f)/dx
                        + 2n lap^(n-1) f + x^2 lap^n f

    At n == 1 the first term's factor is zero, so the iterate it names
    (taken as f itself) never counts.
    """
    return (
        4 * n * (n - 1) * lap_f[max(n - 2, 0)].partial(axis).partial(axis)
        + 4 * n * (x * lap_f[n - 1].partial(axis))
        + 2 * n * lap_f[n - 1]
        + x * x * lap_f[n]
    )


def _check_multiplication_identity(
    name: str, power: int, rhs: Callable[[list[Polynomial], Polynomial, int, int], Polynomial], degree: int,
) -> CheckResult:
    """lap^n(x^power f) against rhs at n = 1..4 on each (monomial f, axis), from one ladder each of f and x^power f."""

    def violation(case):
        f, axis = case
        x = Polynomial.variable(axis)
        lap_f = _laplacian_ladder(f)
        lap_mf = _laplacian_ladder(x**power * f)
        for n in (1, 2, 3, 4):
            if lap_mf[n] != rhs(lap_f, x, axis, n):
                return f"f = {f!r}, n = {n}, axis = {axis}"
        return None

    return _each(name, [(f, axis) for f in _basis(Sort.SCALAR, degree) for axis in (1, 2, 3)], violation)


def _vector_harmonic_swap_violation(v: VectorField) -> Optional[str]:
    """curl curl == grad div on fields with vanishing vector laplacian."""
    if not fields.vector_laplacian(v).is_zero:
        return "field is not vector harmonic (componentwise laplacians do not vanish)"
    return None if apply_chain(_CURL_CURL, v) == apply_chain(_GRAD_DIV, v) else f"v = {v!r}"


def _order_violation(case: tuple[CollectionKind, FieldValue, int]) -> Optional[str]:
    """The field's order is exactly want; for a harmonic order, (div grad)^m kills it exactly when m >= want."""
    kind, field, want = case
    got = collection_order(kind, field, 10)
    if got != Order(want):
        return f"{kind.value} of {field!r}: got {got!r}"
    if kind is CollectionKind.HARMONIC:
        iterate = field
        for m in range(1, want + 1):
            iterate = apply_chain(_DIV_GRAD, iterate)
            if iterate.is_zero != (m >= want):
                return f"{kind.value} of {field!r}: iterate {m} of {want}"
    return None


def _check_order_witnesses() -> CheckResult:
    x1 = Polynomial.variable(1)
    x2 = Polynomial.variable(2)
    r2 = radius_squared()
    cases = [
        (CollectionKind.HARMONIC, x1, 1),
        (CollectionKind.HARMONIC, x1 * x1 - x2 * x2, 1),
        (CollectionKind.HARMONIC, r2, 2),
        (CollectionKind.HARMONIC, r2 * r2, 3),
        (CollectionKind.CURLING, _ROTATION, 2),
    ]
    return _each("collection order witnesses", cases, _order_violation)


def _check_multiplier_keeps_membership(
    multiplier: Polynomial, label: str, polyharmonic: list[tuple[Polynomial, int]],
) -> CheckResult:
    """multiplier * f has order <= n = k + 1 for each polyharmonic f of order k <= 2."""

    def violation(case):
        f, k = case
        got = collection_order(CollectionKind.HARMONIC, multiplier * f, 10)
        if isinstance(got, Order) and got.n <= k + 1:
            return None
        return f"f = {f!r}, n = {k + 1}, got {got!r}"

    return _each(f"{label} multiple stays polyharmonic", [(f, k) for f, k in polyharmonic if k <= 2], violation)


def _check_order_ladder(polyharmonic: list[tuple[Polynomial, int]], degree: int) -> CheckResult:
    """Each polyharmonic field, each order-2 one in each vector slot, the rotation plus each monomial's gradient."""
    grad = chain(Operator.GRAD)
    cases = (
        [(CollectionKind.HARMONIC, f, k) for f, k in polyharmonic]
        + [(CollectionKind.VECTOR_HARMONIC, w, 2) for w in each_slot([f for f, k in polyharmonic if k == 2])]
        + [(CollectionKind.CURLING, _ROTATION + apply_chain(grad, g), 2) for g in _basis(Sort.SCALAR, degree)]
    )
    return _each("iterate order ladder", cases, _order_violation)


def run_examples(trials: int, seed: int, degree: int) -> list[CheckResult]:
    harmonic = [h for m in range(degree + 1) for h in harmonic_basis(m)]
    vector_harmonic = each_slot(harmonic)
    # By Almansi's theorem r^(2(k-1)) h has harmonic order exactly k.
    radii = [radius_squared() ** j for j in range(3)]
    polyharmonic = [(radii[k - 1] * h, k) for h in harmonic for k in (1, 2, 3)]
    return [
        _each("third-order products vanish on harmonic inputs", harmonic + vector_harmonic,
              _harmonic_products_violation),
        _check_multiplication_identity("laplacian power of coordinate multiple", 1,
                                       _coordinate_multiple_rhs, degree),
        _check_multiplication_identity("laplacian power of squared-coordinate multiple", 2,
                                       _squared_coordinate_multiple_rhs, degree),
        _each("curl of curl equals grad of div on vector harmonics", vector_harmonic,
              _vector_harmonic_swap_violation),
        _check_order_witnesses(),
        _check_multiplier_keeps_membership(Polynomial.variable(1), "coordinate", polyharmonic),
        _check_multiplier_keeps_membership(radius_squared(), "radius-squared", polyharmonic),
        _check_order_ladder(polyharmonic, degree),
    ]


# -- oracle ------------------------------------------------------------------

# On a cubic the central quotient's error is exactly h^2/6 times a third
# partial, which only the x_k^3 term feeds; merged draw coefficients are
# at most 8 * 9 = 72, so that is at most 72 h^2 = 7.2e-9 per quotient.
# Each entry takes at most 3 quotients, and rounding adds about
# eps * |f| / h <= 1.6e-9 (|f| <= 72 on the unit box) per quotient:
# together below about 3e-8, so a floor of 1e-7 leaves room.
_AGREEMENT_CFG = FdConfig(h=1e-5, abs_floor=1e-7)
_AGREEMENT_DEGREE = 3


def _check_sampling_agreement(op: Operator, trials: int, seed: int) -> CheckResult:
    def violation(case):
        field, points = case
        report = cross_check(chain(op), field, points, _AGREEMENT_CFG)
        bad = next((row for row in report.rows if not row.ok), None)
        if bad is None:
            return None
        return f"field = {field!r}, point = {bad.point}, |{bad.numeric} - {bad.exact}|"

    return _sweep(f"{op.value} sampling agreement", seed, trials,
                  lambda rng, i: (_draw_field(rng, op.domain, _AGREEMENT_DEGREE), _draw_points(rng)),
                  violation)


def _step_convergence_violation(quartic: Polynomial) -> Optional[str]:
    """The x1-partial of x1^4 at (1, 0, 0) is 4; its error shrinks as h^2."""
    errors = [
        cross_check(chain(Operator.GRAD), quartic, [(1.0, 0.0, 0.0)], FdConfig(h=h)).rows[0].deviation
        for h in (1e-2, 1e-3)
    ]
    ratio = errors[0] / errors[1]
    return None if 25.0 <= ratio <= 400.0 else f"error ratio {ratio} outside [25, 400]"


def _check_cross(name: str, c: Chain, field: FieldValue, seed: int) -> CheckResult:
    def violation(points):
        report = cross_check(c, field, points)
        return None if report.passed else f"max deviation {report.max_deviation}"

    return _sweep(name, seed, 1, lambda rng, i: _draw_points(rng), violation)


def run_oracle(trials: int, seed: int, degree: int) -> list[CheckResult]:
    results = [_check_sampling_agreement(op, trials, seed) for op in Operator]
    results.append(_each("quadratic step convergence", [Polynomial.monomial((4, 0, 0))],
                         _step_convergence_violation))
    results.append(_check_cross("nested laplacian cross-check", chain(Operator.DIV, Operator.GRAD),
                                radius_squared(), seed))
    results.append(_check_cross("first-order curl cross-check", chain(Operator.CURL), _ROTATION, seed))
    return results


# -- dispatch ----------------------------------------------------------------

SUITES: dict[str, Callable[[int, int, int], list[CheckResult]]] = {
    "identities": run_identities,
    "associativity": run_associativity,
    "examples": run_examples,
    "oracle": run_oracle,
}

DEFAULT_TRIALS = 100
DEFAULT_SEED = 42
DEFAULT_DEGREE = 4


def run_suite(
    name: str,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    degree: int = DEFAULT_DEGREE,
) -> tuple[CheckResult, ...]:
    """Run one named suite; results sorted by check name."""
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r} (choose from {known})")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    results = SUITES[name](trials, seed, degree)
    return tuple(sorted(results, key=lambda r: r.name))
