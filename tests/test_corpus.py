import random
from math import comb

import pytest

from nablachain.collections import CollectionKind, Order, collection_order
from nablachain.corpus import (
    COEFF_HI,
    COEFF_LO,
    HARMONIC_BASIS,
    monomials,
    radius_squared,
    random_harmonic_polynomial,
    random_point,
    random_polyharmonic_of_order,
    random_polynomial,
    random_vector_field,
    random_vector_harmonic_field,
)
from nablachain.fields import Polynomial, VectorField, laplacian
from nablachain.operators import Sort


def test_same_seed_reproduces_draws():
    a = [random_polynomial(random.Random(1), 4) for _ in range(5)]
    b = [random_polynomial(random.Random(1), 4) for _ in range(5)]
    assert a == b


def test_distinct_seeds_usually_differ():
    a = random_polynomial(random.Random(1), 4)
    b = random_polynomial(random.Random(2), 4)
    assert a != b


def test_random_polynomial_degree_bound():
    rng = random.Random(3)
    for _ in range(50):
        p = random_polynomial(rng, 4)
        assert len(p.terms) <= 8
        for exps in p.terms:
            assert sum(exps) <= 4


def test_coefficient_range_is_respected():
    # Duplicate monomials merge, so one coefficient can absorb up to 8 draws.
    rng = random.Random(5)
    for _ in range(50):
        p = random_polynomial(rng, 3)
        assert all(8 * COEFF_LO <= c <= 8 * COEFF_HI for c in p.terms.values())


def test_vector_draws_are_componentwise():
    rng = random.Random(6)
    v = random_vector_field(rng, 4)
    assert isinstance(v, VectorField)
    assert all(comp.degree() <= 4 for comp in v.components)


def test_harmonic_basis_properties():
    assert len(HARMONIC_BASIS) == 16
    assert len(set(HARMONIC_BASIS)) == 16
    for h in HARMONIC_BASIS:
        assert laplacian(h) == Polynomial.zero()


def test_random_harmonic_polynomial_is_harmonic():
    rng = random.Random(7)
    for _ in range(20):
        h = random_harmonic_polynomial(rng)
        assert h != Polynomial.zero()
        assert laplacian(h) == Polynomial.zero()


def test_random_vector_harmonic_field_componentwise():
    rng = random.Random(8)
    for _ in range(10):
        v = random_vector_harmonic_field(rng)
        for comp in v.components:
            assert laplacian(comp) == Polynomial.zero()


def test_radius_squared_value():
    x1 = Polynomial.variable(1)
    x2 = Polynomial.variable(2)
    x3 = Polynomial.variable(3)
    assert radius_squared() == x1 * x1 + x2 * x2 + x3 * x3


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_polyharmonic_draws_have_exact_order(k):
    rng = random.Random(9)
    for _ in range(5):
        f = random_polyharmonic_of_order(rng, k)
        assert collection_order(CollectionKind.HARMONIC, f, 10) == Order(k)


def test_polyharmonic_rejects_bad_order():
    with pytest.raises(ValueError):
        random_polyharmonic_of_order(random.Random(0), 0)


def test_random_point_bounds():
    rng = random.Random(10)
    for _ in range(50):
        p = random_point(rng)
        assert len(p) == 3
        assert all(-1.0 <= c <= 1.0 for c in p)


@pytest.mark.parametrize("d", range(9))
def test_monomials_enumerate_each_degree_once(d):
    scalars = monomials(Sort.SCALAR, d)
    assert len(set(scalars)) == len(scalars) == comb(d + 2, 2)
    for f in scalars:
        ((e, c),) = f.terms.items()
        assert sum(e) == d and c == 1
    vectors = monomials(Sort.VECTOR, d)
    assert len(set(vectors)) == len(vectors) == 3 * comb(d + 2, 2)
    for v in vectors:
        nonzero = [comp for comp in v.components if not comp.is_zero]
        assert len(nonzero) == 1 and nonzero[0] in scalars
