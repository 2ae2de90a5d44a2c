import random

import pytest

from nablachain.collections import (
    CollectionKind,
    ExceedsBound,
    Order,
    check_coordinate_multiple,
    check_squared_coordinate_multiple,
    check_vector_harmonic_swap,
    collection_order,
    third_order_annihilation_report,
)
from nablachain.corpus import (
    random_harmonic_polynomial,
    random_polyharmonic_of_order,
    random_polynomial,
)
from nablachain.errors import NotInCollectionError, SortMismatchError
from nablachain.fields import Polynomial, VectorField, apply_chain, laplacian
from nablachain.operators import Chain, Operator

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
    with pytest.raises(ValueError):
        collection_order(CollectionKind.HARMONIC, x1, 0)


def test_required_sorts():
    assert CollectionKind.HARMONIC.required_sort.value == "scalar"
    assert CollectionKind.CURLING.required_sort.value == "vector"
    assert CollectionKind.VECTOR_HARMONIC.required_sort.value == "vector"


def test_annihilates_examples():
    assert apply_chain(Chain((D, G)), x1 * x2 * x3).is_zero
    assert not apply_chain(Chain((D, G)), x1 * x1).is_zero
    assert apply_chain(Chain((C, C)), rot).is_zero


def test_zero_field_has_order_one():
    assert collection_order(CollectionKind.HARMONIC, Polynomial.zero(), 3) == Order(1)


# -- the coordinate-multiplication identity ----------------------------------


def test_coordinate_multiple_base_case():
    # lap(x1 * x1) = 2 against 2 * d(x1)/dx1 + x1 * lap(x1) = 2.
    assert check_coordinate_multiple(x1, 1)


def test_coordinate_multiple_zero_field():
    for n in (1, 2, 5):
        assert check_coordinate_multiple(Polynomial.zero(), n)


def test_coordinate_multiple_random_fields():
    rng = random.Random(7)
    for _ in range(10):
        f = random_polynomial(rng, 4)
        for n in (2, 3, 4):
            assert check_coordinate_multiple(f, n)


def test_coordinate_multiple_other_axes():
    rng = random.Random(8)
    f = random_polynomial(rng, 4)
    for axis in (1, 2, 3):
        assert check_coordinate_multiple(f, 2, axis)


def test_coordinate_multiple_rejects_bad_order():
    with pytest.raises(ValueError):
        check_coordinate_multiple(x1, 0)


# -- the squared-coordinate identity -----------------------------------------


def test_squared_coordinate_constant_field():
    assert check_squared_coordinate_multiple(Polynomial.constant(1), 2)


def test_squared_coordinate_worked_value():
    # Both sides equal 24 for f = x1^2 at the second iterate.
    f = x1 * x1
    assert laplacian(laplacian(x1 * x1 * f)) == Polynomial.constant(24)
    assert check_squared_coordinate_multiple(f, 2)


def test_squared_coordinate_base_form():
    rng = random.Random(9)
    for _ in range(10):
        assert check_squared_coordinate_multiple(random_polynomial(rng, 4), 1)


def test_squared_coordinate_random_fields():
    rng = random.Random(10)
    for _ in range(10):
        f = random_polynomial(rng, 4)
        for n in (2, 3, 4):
            assert check_squared_coordinate_multiple(f, n)


def test_squared_coordinate_other_axes():
    rng = random.Random(11)
    f = random_polynomial(rng, 3)
    for axis in (2, 3):
        assert check_squared_coordinate_multiple(f, 3, axis)


def test_squared_coordinate_rejects_bad_order():
    with pytest.raises(ValueError):
        check_squared_coordinate_multiple(x1, 0)


# -- the curl-curl swap on vector harmonic fields ----------------------------


def test_swap_on_rotated_coordinates():
    assert check_vector_harmonic_swap(VectorField(x2, x3, x1))


def test_swap_on_quadratic_harmonics():
    assert check_vector_harmonic_swap(VectorField(x1 * x2, x2 * x3, x3 * x1))


def test_swap_requires_vector_harmonic_input():
    with pytest.raises(NotInCollectionError):
        check_vector_harmonic_swap(VectorField(x1 * x1, Polynomial.zero(), Polynomial.zero()))


# -- the third-order annihilation report -------------------------------------


def test_report_vanishes_on_harmonic_inputs():
    report = third_order_annihilation_report(
        x1 * x1 - x2 * x2, VectorField(x2, x3, x1)
    )
    assert len(report) == 8
    assert all(report.values())
    assert "grad div grad" in report
    assert "curl curl curl" in report


def test_report_on_random_harmonic_inputs():
    rng = random.Random(12)
    for _ in range(5):
        f = random_harmonic_polynomial(rng)
        v = VectorField(
            random_harmonic_polynomial(rng),
            random_harmonic_polynomial(rng),
            random_harmonic_polynomial(rng),
        )
        assert all(third_order_annihilation_report(f, v).values())


def test_report_rejects_non_harmonic_scalar():
    with pytest.raises(NotInCollectionError):
        third_order_annihilation_report(x1 * x1, VectorField(x2, x3, x1))


def test_report_rejects_non_harmonic_vector():
    with pytest.raises(NotInCollectionError):
        third_order_annihilation_report(x1, VectorField(r2, x1, x2))


# -- ladder facts over generated fields --------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_generated_fields_have_exact_order(k):
    rng = random.Random(13 + k)
    for _ in range(5):
        f = random_polyharmonic_of_order(rng, k)
        assert collection_order(CollectionKind.HARMONIC, f, 8) == Order(k)


def test_iterates_kill_at_and_above_the_order():
    rng = random.Random(17)
    f = random_polyharmonic_of_order(rng, 3)
    lap2 = Chain((D, G, D, G))
    lap3 = Chain((D, G, D, G, D, G))
    assert not apply_chain(Chain((D, G)), f).is_zero
    assert not apply_chain(lap2, f).is_zero
    assert apply_chain(lap3, f).is_zero
