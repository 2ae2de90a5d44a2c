"""Deterministic pseudorandom field corpora for the verification suites.

Everything here draws from an explicit ``random.Random`` so that a seed
pins the whole corpus and counterexamples can be reproduced.  The
generator is intentionally simple enough to restate in a sentence each:

* ``random_polynomial(rng, degree)``: the number of terms is
  ``rng.randint(1, 8)``; for each term a total degree ``d =
  rng.randint(0, degree)`` is drawn, split into exponents ``e1 =
  rng.randint(0, d)``, ``e2 = rng.randint(0, d - e1)``, ``e3 = d - e1 -
  e2``; the coefficient is ``rng.randint(-9, 9)``.  Zero coefficients
  and repeated exponent triples simply merge away, so the draw can
  produce fewer stored terms than requested, including the zero
  polynomial.
* ``random_boxed_polynomial(rng)``: same term loop, but each exponent
  is drawn as ``rng.randint(0, 3)`` independently, and the coefficient
  as ``rng.randint(-5, 5)``.  This variant serves ``witness_corpus``:
  it reaches the high mixed degrees needed to witness that a long
  derivative chain is not identically zero.
* a vector draw is three scalar draws of its kind, one per component.
* ``random_point(rng)`` draws each coordinate uniformly from [-1, 1].
* harmonic draws are integer combinations of a fixed basis of harmonic
  polynomials through degree three, with coefficients
  ``rng.randint(-9, 9)``, redrawn until nonzero.

All draws consume the generator strictly left to right, so inserting a
new draw anywhere changes every corpus after it; treat the order as part
of the format.
"""

from __future__ import annotations

import random
from typing import Callable

from .fields import Polynomial, VectorField

COEFF_LO = -9
COEFF_HI = 9
# The boxed draws serve only witness_corpus, with coefficients in [-5, 5].
WITNESS_COEFF_LO = -5
WITNESS_COEFF_HI = 5
WITNESS_MAX_EXPONENT = 3
WITNESS_DRAWS = 20
MAX_TERMS_PER_DRAW = 8


def _draw_terms(rng: random.Random, exponents: Callable[[], tuple[int, ...]], lo: int, hi: int) -> Polynomial:
    """The shared term loop: a term count, then per term its exponents and coefficient."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, MAX_TERMS_PER_DRAW)):
        key = exponents()
        c = rng.randint(lo, hi)
        terms[key] = terms.get(key, 0) + c
    return Polynomial(terms)


def random_polynomial(rng: random.Random, degree: int) -> Polynomial:
    """A random polynomial of total degree <= degree; may be zero."""

    def exponents() -> tuple[int, int, int]:
        d = rng.randint(0, degree)
        e1 = rng.randint(0, d)
        e2 = rng.randint(0, d - e1)
        return (e1, e2, d - e1 - e2)

    return _draw_terms(rng, exponents, COEFF_LO, COEFF_HI)


def random_boxed_polynomial(rng: random.Random) -> Polynomial:
    """A random polynomial with each exponent <= WITNESS_MAX_EXPONENT independently."""
    return _draw_terms(
        rng, lambda: tuple(rng.randint(0, WITNESS_MAX_EXPONENT) for _ in range(3)),
        WITNESS_COEFF_LO, WITNESS_COEFF_HI,
    )


def random_vector_field(rng: random.Random, degree: int) -> VectorField:
    return VectorField(*(random_polynomial(rng, degree) for _ in range(3)))


def random_boxed_vector_field(rng: random.Random) -> VectorField:
    return VectorField(*(random_boxed_polynomial(rng) for _ in range(3)))


def _m(e1: int, e2: int, e3: int, c: int = 1) -> Polynomial:
    return Polynomial.monomial((e1, e2, e3), c)


# Harmonic polynomials through total degree 3: 1 constant, 3 linear,
# 5 quadratic, 7 cubic, as integer term maps.  Integer combinations stay
# harmonic, and a draw sums them into one map before building anything.
_HARMONIC_TERMS: tuple[dict[tuple[int, int, int], int], ...] = (
    {(0, 0, 0): 1},
    {(1, 0, 0): 1},
    {(0, 1, 0): 1},
    {(0, 0, 1): 1},
    {(1, 1, 0): 1},
    {(1, 0, 1): 1},
    {(0, 1, 1): 1},
    {(2, 0, 0): 1, (0, 2, 0): -1},
    {(0, 2, 0): 1, (0, 0, 2): -1},
    {(1, 1, 1): 1},
    {(1, 2, 0): 1, (1, 0, 2): -1},
    {(2, 1, 0): 1, (0, 1, 2): -1},
    {(2, 0, 1): 1, (0, 2, 1): -1},
    {(3, 0, 0): 1, (1, 2, 0): -3},
    {(0, 3, 0): 1, (0, 1, 2): -3},
    {(0, 0, 3): 1, (2, 0, 1): -3},
)
HARMONIC_BASIS: tuple[Polynomial, ...] = tuple(Polynomial(t) for t in _HARMONIC_TERMS)


def random_harmonic_polynomial(rng: random.Random) -> Polynomial:
    """A nonzero integer combination of the harmonic basis."""
    while True:
        terms: dict[tuple[int, int, int], int] = {}
        for basis_terms in _HARMONIC_TERMS:
            c = rng.randint(COEFF_LO, COEFF_HI)
            if c:
                for e, k in basis_terms.items():
                    terms[e] = terms.get(e, 0) + c * k
        p = Polynomial(terms)
        if not p.is_zero:
            return p


def random_vector_harmonic_field(rng: random.Random) -> VectorField:
    """A vector field whose components are each harmonic, not all zero."""
    return VectorField(
        random_harmonic_polynomial(rng),
        random_harmonic_polynomial(rng),
        random_harmonic_polynomial(rng),
    )


def radius_squared() -> Polynomial:
    return _m(2, 0, 0) + _m(0, 2, 0) + _m(0, 0, 2)


def random_polyharmonic_of_order(rng: random.Random, order: int) -> Polynomial:
    """A field whose laplacian order is exactly the one requested.

    Multiplying a harmonic field by the squared radius raises the order
    by exactly one, so order k comes from k - 1 such multiplications.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    p = random_harmonic_polynomial(rng)
    r2 = radius_squared()
    for _ in range(order - 1):
        p = r2 * p
    return p


def random_point(rng: random.Random) -> tuple[float, float, float]:
    """A point drawn uniformly from the cube [-1, 1]^3."""
    return (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def witness_corpus(seed: int = 42) -> tuple[tuple[Polynomial, ...], tuple[VectorField, ...]]:
    """Fields used to cross-check the syntactic classifier by evaluation.

    Two fixed witnesses plus ``WITNESS_DRAWS`` (20) boxed random ones per
    sort.  The random ones bound each exponent (not the total degree) by
    three: a chain of length five differentiates five times, so
    certifying that its value is not identically zero takes witnesses of
    total degree well above five.  Coefficients are drawn from [-5, 5].
    """
    rng = random.Random(f"{seed}:witness")
    scalars = [_m(2, 1, 0) + _m(0, 0, 1)]
    vectors = [VectorField(_m(0, 1, 1), _m(2, 0, 0), _m(1, 1, 1))]
    scalars.extend(random_boxed_polynomial(rng) for _ in range(WITNESS_DRAWS))
    vectors.extend(random_boxed_vector_field(rng) for _ in range(WITNESS_DRAWS))
    return tuple(scalars), tuple(vectors)
