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
* a vector draw is three scalar draws of its kind, one per component.
* ``random_point(rng)`` draws each coordinate uniformly from [-1, 1].
* harmonic draws are integer combinations of a fixed basis of harmonic
  polynomials through degree three, with coefficients
  ``rng.randint(-9, 9)``, redrawn until nonzero.

One enumeration consumes no randomness: ``monomials(sort, d)`` lists
each monomial of total degree exactly d with coefficient 1, for vectors
in each of the three slots; it is a basis for the linear claims.

All draws consume the generator strictly left to right, so inserting a
new draw anywhere changes every corpus after it; treat the order as part
of the format.
"""

from __future__ import annotations

import random

from .fields import FieldValue, Polynomial, VectorField
from .operators import Sort

COEFF_LO = -9
COEFF_HI = 9
MAX_TERMS_PER_DRAW = 8


def random_polynomial(rng: random.Random, degree: int) -> Polynomial:
    """A random polynomial of total degree <= degree; may be zero."""
    terms: dict[tuple[int, int, int], int] = {}
    for _ in range(rng.randint(1, MAX_TERMS_PER_DRAW)):
        d = rng.randint(0, degree)
        e1 = rng.randint(0, d)
        e2 = rng.randint(0, d - e1)
        key = (e1, e2, d - e1 - e2)
        terms[key] = terms.get(key, 0) + rng.randint(COEFF_LO, COEFF_HI)
    return Polynomial(terms)


def random_vector_field(rng: random.Random, degree: int) -> VectorField:
    return VectorField(*(random_polynomial(rng, degree) for _ in range(3)))


def monomials(sort: Sort, d: int) -> list[FieldValue]:
    """Every monomial of total degree exactly d with coefficient 1; a vector one in each slot."""
    scalars = [Polynomial.monomial((e1, e2, d - e1 - e2)) for e1 in range(d + 1) for e2 in range(d + 1 - e1)]
    if sort is Sort.SCALAR:
        return scalars
    zero = Polynomial.zero()
    return [VectorField(*(m if i == slot else zero for i in range(3))) for m in scalars for slot in range(3)]


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
    return VectorField(*(random_harmonic_polynomial(rng) for _ in range(3)))


def radius_squared() -> Polynomial:
    return Polynomial({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})


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

