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

Two enumerations consume no randomness and are the bases the swept
claims are built on: ``monomials(sort, d)``, each monomial of total degree
exactly d with coefficient 1, and ``harmonic_basis(m)``, the 2m+1
primitive integer harmonic polynomials of degree m.

All draws consume the generator strictly left to right, so inserting a
new draw anywhere changes every corpus after it; treat the order as part
of the format.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import factorial, gcd

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


def each_slot(scalars: list[Polynomial]) -> list[VectorField]:
    """Each scalar as a vector field in each of the three slots, the others zero."""
    zero = Polynomial.zero()
    return [VectorField(*(s if i == slot else zero for i in range(3))) for s in scalars for slot in range(3)]


def monomials(sort: Sort, d: int) -> list[FieldValue]:
    """Every monomial of total degree exactly d with coefficient 1; a vector one in each slot."""
    scalars = [Polynomial.monomial((e1, e2, d - e1 - e2)) for e1 in range(d + 1) for e2 in range(d + 1 - e1)]
    return scalars if sort is Sort.SCALAR else each_slot(scalars)


@lru_cache(maxsize=None)
def harmonic_basis(m: int) -> tuple[Polynomial, ...]:
    """The 2m+1 primitive integer harmonic polynomials of degree m, built on first use.

    Each is m! * sum_j x1^j/j! * g_j, g_(j+2) = -(d2^2 + d3^2) g_j, seeded by g_0 = x2^b x3^(m-b)
    or g_1 = x2^b x3^(m-1-b); each g_j is an int map over (x2, x3) exponents, not an engine value.
    """
    seeds = [(0, {(b, m - b): 1}) for b in range(m + 1)] + [(1, {(b, m - 1 - b): 1}) for b in range(m)]
    basis = []
    for j, g in seeds:
        terms: dict[tuple[int, int, int], int] = {}
        while g:
            step: dict[tuple[int, int], int] = {}
            for (a, b), c in g.items():
                terms[j, a, b] = factorial(m) // factorial(j) * c
                for d, n in (((a - 2, b), a), ((a, b - 2), b)):
                    if n > 1:
                        step[d] = step.get(d, 0) - n * (n - 1) * c
            g = {e: c for e, c in step.items() if c}
            j += 2
        divisor = gcd(*terms.values())
        basis.append(Polynomial({e: c // divisor for e, c in terms.items()}))
    return tuple(basis)


def radius_squared() -> Polynomial:
    return Polynomial({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})


def random_point(rng: random.Random) -> tuple[float, float, float]:
    """A point drawn uniformly from the cube [-1, 1]^3."""
    return (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

