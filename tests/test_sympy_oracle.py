"""Differential oracle: the exact engine against sympy's polynomial algebra.

sympy is a test-only dependency; without it this module is skipped.  Drawn
coefficients are negative, non-integral and chosen to cancel or sum to
integers, so the engine's int/Fraction storage is exercised at its seams.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablachain.fields import (
    Polynomial,
    VectorField,
    curl,
    div,
    dumps_field,
    grad,
    laplacian,
    loads_field,
)

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x1:4")

exponents = st.tuples(*[st.integers(0, 3)] * 3)
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)
term_maps = st.dictionaries(exponents, coefficients, max_size=6)


@st.composite
def polynomial_pairs(draw):
    """Two polynomials; some of q's terms cancel p's or sum with them to an integer."""
    p_terms = draw(term_maps)
    q_terms = draw(term_maps)
    for e, c in p_terms.items():
        how = draw(st.sampled_from(("independent", "cancel", "integral")))
        if how == "cancel":
            q_terms[e] = -c
        elif how == "integral":
            q_terms[e] = draw(st.integers(-3, 3)) - c
    return Polynomial(p_terms), Polynomial(q_terms)


polynomials = polynomial_pairs().map(lambda pq: pq[0] + pq[1])
vector_fields = st.builds(VectorField, polynomials, polynomials, polynomials)

oracle = settings(max_examples=25, deadline=None)


def to_sympy(p: Polynomial):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *X, domain="QQ")


def assert_matches(p: Polynomial, want) -> None:
    """p has the terms of the sympy Poly want, each int when integral and a Fraction otherwise."""
    assert dict(p.terms) == {e: Fraction(int(r.p), int(r.q)) for e, r in want.as_dict().items()}
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in p.terms.values())


@oracle
@given(polynomial_pairs(), coefficients)
def test_ring_operations_match_sympy(pq, k):
    p, q = pq
    sp, sq = to_sympy(p), to_sympy(q)
    assert_matches(p + q, sp + sq)
    assert_matches(p - q, sp - sq)
    assert_matches(-p, -sp)
    assert_matches(p * q, sp * sq)
    assert_matches(p * k, sp * sympy.Rational(k.numerator, k.denominator))
    assert_matches(k * p, sp * sympy.Rational(k.numerator, k.denominator))


@oracle
@given(polynomials)
def test_scalar_operators_match_sympy(p):
    sp = to_sympy(p)
    for axis in (1, 2, 3):
        assert_matches(p.partial(axis), sp.diff(X[axis - 1]))
    for got, x in zip(grad(p).components, X):
        assert_matches(got, sp.diff(x))
    assert_matches(laplacian(p), sum((sp.diff(x, x) for x in X), to_sympy(Polynomial.zero())))


@oracle
@given(vector_fields)
def test_vector_operators_match_sympy(v):
    f1, f2, f3 = (to_sympy(c) for c in v.components)
    x1, x2, x3 = X
    want = (
        f3.diff(x2) - f2.diff(x3),
        f1.diff(x3) - f3.diff(x1),
        f2.diff(x1) - f1.diff(x2),
    )
    for got, expr in zip(curl(v).components, want):
        assert_matches(got, expr)
    assert_matches(div(v), f1.diff(x1) + f2.diff(x2) + f3.diff(x3))


@oracle
@given(polynomials, vector_fields)
def test_json_round_trip_matches_sympy(p, v):
    back = loads_field(dumps_field(p))
    assert back == p
    assert_matches(back, to_sympy(p))
    assert loads_field(dumps_field(v)) == v


@oracle
@given(polynomial_pairs())
def test_equal_polynomials_hash_equal(pq):
    p, q = pq
    assert hash(p + q) == hash(q + p)
    rebuilt = Polynomial(dict(p.terms))
    assert rebuilt == p and hash(rebuilt) == hash(p)
    as_ints = Polynomial({e: int(c) for e, c in p.terms.items() if c.denominator == 1})
    as_fractions = Polynomial({e: Fraction(c) for e, c in as_ints.terms.items()})
    assert as_ints == as_fractions and hash(as_ints) == hash(as_fractions)
