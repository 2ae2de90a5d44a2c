import random
from fractions import Fraction
from math import comb, gcd

import pytest

from nablachain import fields
from nablachain.collections import CollectionKind, Order, collection_order
from nablachain.corpus import (
    COEFF_HI,
    COEFF_LO,
    harmonic_basis,
    monomials,
    radius_squared,
    random_point,
    random_polynomial,
    random_vector_field,
)
from nablachain.fields import Polynomial, VectorField, laplacian
from nablachain.operators import Sort

from test_mutants import _add_partial_without_n


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


# The hand-written harmonic basis through degree 3 that harmonic_basis replaced.
OLD_HARMONIC_TERMS = (
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


def _rank(polys):
    """Exact rank of the polynomials' coefficient vectors, by Fraction elimination."""
    keys = sorted({e for p in polys for e in p.terms})
    rows = [[Fraction(p.terms.get(e, 0)) for e in keys] for p in polys]
    rank = 0
    for col in range(len(keys)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _second_partials_sum(h):
    """d1^2 h + d2^2 h + d3^2 h as a term map, zeros dropped."""
    out = {}
    for e, c in h.terms.items():
        for i in range(3):
            if e[i] > 1:
                d = e[:i] + (e[i] - 2,) + e[i + 1:]
                out[d] = out.get(d, 0) + e[i] * (e[i] - 1) * c
    return {d: c for d, c in out.items() if c}


@pytest.mark.parametrize("m", range(9))
def test_harmonic_basis_of_each_degree(m):
    basis = harmonic_basis(m)
    assert len(set(basis)) == len(basis) == 2 * m + 1
    for h in basis:
        assert all(sum(e) == m for e in h.terms)
        coeffs = list(h.terms.values())
        assert all(type(c) is int for c in coeffs) and gcd(*coeffs) == 1
        assert laplacian(h).is_zero
        assert _second_partials_sum(h) == {}
    assert _rank(basis) == 2 * m + 1


@pytest.mark.parametrize("m", range(4))
def test_harmonic_basis_spans_the_old_table(m):
    old = [Polynomial(t) for t in OLD_HARMONIC_TERMS if sum(next(iter(t))) == m]
    assert len(old) == 2 * m + 1
    assert _rank(list(harmonic_basis(m)) + old) == 2 * m + 1


def test_harmonic_basis_does_not_depend_on_the_engines_partial(monkeypatch):
    # A cached basis built with the engine's partial would carry a mutant
    # into every later test.
    want = harmonic_basis(3)
    monkeypatch.setattr(fields, "_add_partial", _add_partial_without_n)
    harmonic_basis.cache_clear()
    try:
        assert harmonic_basis(3) == want
    finally:
        harmonic_basis.cache_clear()


def test_radius_squared_value():
    x1 = Polynomial.variable(1)
    x2 = Polynomial.variable(2)
    x3 = Polynomial.variable(3)
    assert radius_squared() == x1 * x1 + x2 * x2 + x3 * x3


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_radius_powers_of_the_basis_have_exact_order(k):
    # Almansi: r^(2(k-1)) h with h harmonic and nonzero has harmonic order exactly k.
    for h in (h for m in range(5) for h in harmonic_basis(m)):
        f = radius_squared() ** (k - 1) * h
        assert collection_order(CollectionKind.HARMONIC, f, 10) == Order(k)


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
