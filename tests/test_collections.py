import random

import pytest

from nablachain import verify
from nablachain.classify import meaningful_chains
from nablachain.collections import (
    CollectionKind,
    ExceedsBound,
    Order,
    collection_order,
)
from nablachain.corpus import each_slot, harmonic_basis, random_polynomial
from nablachain.errors import SortMismatchError
from nablachain.fields import Polynomial, VectorField, apply_chain, laplacian, vector_laplacian
from nablachain.operators import Chain, Operator, Sort
from nablachain.parser import format_chain

G, C, D = Operator.GRAD, Operator.CURL, Operator.DIV

x1 = Polynomial.variable(1)
x2 = Polynomial.variable(2)
x3 = Polynomial.variable(3)
r2 = x1 * x1 + x2 * x2 + x3 * x3
rot = VectorField(-x2, x1, Polynomial.zero())


@pytest.mark.parametrize(
    "field, want",
    [
        (x1, 1),
        (x1 * x1 - x2 * x2, 1),
        (r2, 2),
        (r2 * r2, 3),
    ],
)
def test_harmonic_orders(field, want):
    assert collection_order(CollectionKind.HARMONIC, field, 10) == Order(want)


def test_curling_order():
    assert collection_order(CollectionKind.CURLING, rot, 10) == Order(2)


def test_vector_harmonic_order():
    v = VectorField(r2, x1, Polynomial.zero())
    assert collection_order(CollectionKind.VECTOR_HARMONIC, v, 10) == Order(2)


def test_order_respects_bound():
    assert collection_order(CollectionKind.HARMONIC, r2 * r2, 2) == ExceedsBound(2)
    assert collection_order(CollectionKind.CURLING, rot, 1) == ExceedsBound(1)


def test_order_validates_inputs():
    with pytest.raises(SortMismatchError):
        collection_order(CollectionKind.HARMONIC, rot, 5)
    with pytest.raises(SortMismatchError):
        collection_order(CollectionKind.CURLING, x1, 5)
    with pytest.raises(SortMismatchError):
        collection_order(CollectionKind.VECTOR_HARMONIC, x1, 5)
    with pytest.raises(ValueError):
        collection_order(CollectionKind.HARMONIC, x1, 0)
    # A kind's value is not a kind: (x1^2, 0, 0) has curling order 1, not
    # the vector harmonic order 2 an unchecked fall-through would report.
    with pytest.raises(TypeError):
        collection_order("curling", VectorField(x1 * x1, Polynomial.zero(), Polynomial.zero()), 5)


def test_annihilates_examples():
    assert apply_chain(Chain((D, G)), x1 * x2 * x3).is_zero
    assert not apply_chain(Chain((D, G)), x1 * x1).is_zero
    assert apply_chain(Chain((C, C)), rot).is_zero


def test_zero_field_has_order_one():
    assert collection_order(CollectionKind.HARMONIC, Polynomial.zero(), 3) == Order(1)


# -- the identities that move a field between orders ------------------------
#
# Each is stated here from laplacian, partial and apply_chain alone; the
# examples suite of verify checks the same identities from ladders built
# once per field.


def lap_power(f, n):
    for _ in range(n):
        f = laplacian(f)
    return f


def coordinate_multiple_holds(f, n, axis=1):
    """lap^n(x f) == 2n d(lap^(n-1) f)/dx + x lap^n f."""
    x = Polynomial.variable(axis)
    return lap_power(x * f, n) == 2 * n * lap_power(f, n - 1).partial(axis) + x * lap_power(f, n)


def squared_coordinate_multiple_holds(f, n, axis=1):
    """lap^n(x^2 f) == 4n(n-1) d2(lap^(n-2) f)/dx2 + 4n x d(lap^(n-1) f)/dx
    + 2n lap^(n-1) f + x^2 lap^n f, the first term vanishing at n == 1."""
    x = Polynomial.variable(axis)
    rhs = (
        4 * n * (n - 1) * lap_power(f, max(n - 2, 0)).partial(axis).partial(axis)
        + 4 * n * x * lap_power(f, n - 1).partial(axis)
        + 2 * n * lap_power(f, n - 1)
        + x * x * lap_power(f, n)
    )
    return lap_power(x * x * f, n) == rhs


def swap_holds(v):
    """curl curl == grad div on a vector harmonic field."""
    assert vector_laplacian(v).is_zero
    return apply_chain(Chain((C, C)), v) == apply_chain(Chain((G, D)), v)


def third_order_report(f, v):
    """Chain text mapped to whether it kills f (scalar input) or v (vector input)."""
    assert laplacian(f).is_zero and vector_laplacian(v).is_zero
    return {
        format_chain(c): apply_chain(c, f if c.innermost.domain is Sort.SCALAR else v).is_zero
        for c in meaningful_chains(3)
    }


def test_coordinate_multiple_base_case():
    # lap(x1 * x1) = 2 against 2 * d(x1)/dx1 + x1 * lap(x1) = 2.
    assert coordinate_multiple_holds(x1, 1)


def test_coordinate_multiple_zero_field():
    for n in (1, 2, 5):
        assert coordinate_multiple_holds(Polynomial.zero(), n)


def test_coordinate_multiple_random_fields():
    rng = random.Random(7)
    for _ in range(10):
        f = random_polynomial(rng, 4)
        for n in (2, 3, 4):
            assert coordinate_multiple_holds(f, n)


def test_coordinate_multiple_other_axes():
    rng = random.Random(8)
    f = random_polynomial(rng, 4)
    for axis in (1, 2, 3):
        assert coordinate_multiple_holds(f, 2, axis)


def test_squared_coordinate_constant_field():
    assert squared_coordinate_multiple_holds(Polynomial.constant(1), 2)


def test_squared_coordinate_worked_value():
    # Both sides equal 24 for f = x1^2 at the second iterate.
    f = x1 * x1
    assert laplacian(laplacian(x1 * x1 * f)) == Polynomial.constant(24)
    assert squared_coordinate_multiple_holds(f, 2)


def test_squared_coordinate_base_form():
    rng = random.Random(9)
    for _ in range(10):
        assert squared_coordinate_multiple_holds(random_polynomial(rng, 4), 1)


def test_squared_coordinate_random_fields():
    rng = random.Random(10)
    for _ in range(10):
        f = random_polynomial(rng, 4)
        for n in (2, 3, 4):
            assert squared_coordinate_multiple_holds(f, n)


def test_squared_coordinate_other_axes():
    rng = random.Random(11)
    f = random_polynomial(rng, 3)
    for axis in (2, 3):
        assert squared_coordinate_multiple_holds(f, 3, axis)


def test_swap_on_rotated_coordinates():
    assert swap_holds(VectorField(x2, x3, x1))


def test_swap_on_quadratic_harmonics():
    assert swap_holds(VectorField(x1 * x2, x2 * x3, x3 * x1))


def test_swap_requires_vector_harmonic_input():
    v = VectorField(x1 * x1, Polynomial.zero(), Polynomial.zero())
    assert verify._vector_harmonic_swap_violation(v) == (
        "field is not vector harmonic (componentwise laplacians do not vanish)"
    )


def test_report_vanishes_on_harmonic_inputs():
    f, v = x1 * x1 - x2 * x2, VectorField(x2, x3, x1)
    report = third_order_report(f, v)
    assert len(report) == 8
    assert all(report.values())
    assert "grad div grad" in report
    assert "curl curl curl" in report
    assert verify._harmonic_products_violation(f) is None
    assert verify._harmonic_products_violation(v) is None


def test_report_on_random_harmonic_inputs():
    for f in (h for m in range(5) for h in harmonic_basis(m)):
        for v in each_slot([f]):
            assert all(third_order_report(f, v).values())


def test_report_rejects_non_harmonic_scalar():
    violation = verify._harmonic_products_violation(x1 * x1)
    assert violation == "scalar field is not harmonic"


def test_report_rejects_non_harmonic_vector():
    violation = verify._harmonic_products_violation(VectorField(r2, x1, x2))
    assert violation == "vector field is not vector harmonic"


# -- ladder facts over generated fields --------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_generated_fields_have_exact_order(k):
    for h in harmonic_basis(3):
        f = r2 ** (k - 1) * h
        assert collection_order(CollectionKind.HARMONIC, f, 8) == Order(k)


def test_iterates_kill_at_and_above_the_order():
    f = r2 * r2 * harmonic_basis(3)[0]
    lap2 = Chain((D, G, D, G))
    lap3 = Chain((D, G, D, G, D, G))
    assert not apply_chain(Chain((D, G)), f).is_zero
    assert not apply_chain(lap2, f).is_zero
    assert apply_chain(lap3, f).is_zero
