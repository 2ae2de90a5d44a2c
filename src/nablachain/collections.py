"""Annihilation collections: polyharmonic, curling, and vector harmonic fields.

A scalar field is polyharmonic of order n when n applications of the
laplacian kill it; a vector field is curling of order n when n curls do,
and vector harmonic of order n when n componentwise laplacians do.  Each
family is nested upward in n, and this module reports the least order,
which makes the strictness of those nestings checkable on witnesses.

The module also carries the two multiplication identities that push a
field one level up the polyharmonic ladder (multiply by a coordinate, or
by the squared radius), and the curl-curl identity that holds on vector
harmonic fields.  Every checker computes both sides of its identity
independently and compares exact polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from . import fields
from .classify import TrivialZero, classify, meaningful_chains
from .errors import NotInCollectionError, SortMismatchError
from .fields import FieldValue, Polynomial, VectorField, apply_chain, sort_of
from .operators import Operator, Sort, chain
from .parser import format_chain

DEFAULT_MAX_ORDER = 16


class CollectionKind(Enum):
    HARMONIC = "harmonic"
    CURLING = "curling"
    VECTOR_HARMONIC = "vharmonic"

    @property
    def required_sort(self) -> Sort:
        return Sort.SCALAR if self is CollectionKind.HARMONIC else Sort.VECTOR


@dataclass(frozen=True)
class Order:
    """Least n such that the n-fold defining iterate vanishes."""

    n: int


@dataclass(frozen=True)
class ExceedsBound:
    """No iterate up to the bound vanished."""

    bound: int


OrderResult = Union[Order, ExceedsBound]


def collection_order(kind: CollectionKind, field: FieldValue, max_n: int = DEFAULT_MAX_ORDER) -> OrderResult:
    """Least n <= max_n with the n-fold iterate identically zero.

    On polynomial fields grad, curl and div each lower the degree by at
    least one and the laplacian by at least two, so every order is at
    most the field's degree + 1 (1 for the zero field) and resolves once
    max_n reaches it; below that, any collection can come back as
    ExceedsBound.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if sort_of(field) != kind.required_sort:
        raise SortMismatchError(kind.required_sort, sort_of(field), context=kind.value)
    current = field
    for n in range(1, max_n + 1):
        if kind is CollectionKind.HARMONIC:
            current = fields.laplacian(current)
        elif kind is CollectionKind.CURLING:
            current = apply_chain(chain(Operator.CURL), current)
        else:
            current = fields.vector_laplacian(current)
        if current.is_zero:
            return Order(n)
    return ExceedsBound(max_n)


def _laplacian_power(f: Polynomial, n: int) -> Polynomial:
    for _ in range(n):
        f = fields.laplacian(f)
    return f


def check_coordinate_multiple(f: Polynomial, n: int, axis: int = 1) -> bool:
    """Coordinate multiplication identity for iterated laplacians.

    Both sides of

        lap^n(x * f)  ==  2n * d(lap^(n-1) f)/dx  +  x * lap^n(f)

    are computed independently (x meaning the chosen coordinate) and
    compared as exact polynomials.  True for every polynomial f; a false
    return means the engine itself is broken.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = Polynomial.variable(axis)
    lhs = _laplacian_power(x * f, n)
    rhs = 2 * n * _laplacian_power(f, n - 1).partial(axis) + x * _laplacian_power(f, n)
    return lhs == rhs


def check_squared_coordinate_multiple(f: Polynomial, n: int, axis: int = 1) -> bool:
    """Squared-coordinate multiplication identity for iterated laplacians.

    Both sides of

        lap^n(x^2 * f) == 4n(n-1) * d2(lap^(n-2) f)/dx2
                          + 4n * x * d(lap^(n-1) f)/dx
                          + 2n * lap^(n-1) f
                          + x^2 * lap^n(f)

    are compared.  At n == 1 the first term's factor is zero, so the
    iterate it names (lap^(-1), taken as f itself) never counts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = Polynomial.variable(axis)
    x2 = x * x
    lhs = _laplacian_power(x2 * f, n)
    rhs = (
        4 * n * (n - 1) * _laplacian_power(f, n - 2).partial(axis).partial(axis)
        + 4 * n * (x * _laplacian_power(f, n - 1).partial(axis))
        + 2 * n * _laplacian_power(f, n - 1)
        + x2 * _laplacian_power(f, n)
    )
    return lhs == rhs


def check_vector_harmonic_swap(v: VectorField) -> bool:
    """curl curl == grad div, on fields with vanishing vector laplacian.

    Raises NotInCollectionError when the precondition fails; the identity
    is false off the vector harmonic collection.
    """
    if not fields.vector_laplacian(v).is_zero:
        raise NotInCollectionError("field is not vector harmonic (componentwise laplacians do not vanish)")
    curl_curl = apply_chain(chain(Operator.CURL, Operator.CURL), v)
    return curl_curl == apply_chain(chain(Operator.GRAD, Operator.DIV), v)


# The eight meaningful third-order words, the three nontrivial ones
# first (sorted() is stable, so each group keeps enumeration order).
# The report's first failing entry is the counterexample ``verify``
# prints, and nontrivial-first is the order that detail is pinned to:
# plain enumeration order would name another chain under a broken curl
# ("curl curl grad" instead of "curl curl curl").
_ORDER3_CHAINS = tuple(
    sorted(meaningful_chains(3), key=lambda c: isinstance(classify(c), TrivialZero))
)


def third_order_annihilation_report(f: Polynomial, v: VectorField) -> dict[str, bool]:
    """Annihilation report for all eight meaningful third-order chains.

    Requires f harmonic and v vector harmonic; scalar-input chains are
    applied to f, vector-input chains to v.  Returns chain text mapped to
    whether the result vanished; on such inputs every entry is True.
    """
    if not fields.laplacian(f).is_zero:
        raise NotInCollectionError("scalar field is not harmonic")
    if not fields.vector_laplacian(v).is_zero:
        raise NotInCollectionError("vector field is not vector harmonic")
    report = {}
    for c in _ORDER3_CHAINS:
        arg = f if c.innermost.domain == Sort.SCALAR else v
        report[format_chain(c)] = apply_chain(c, arg).is_zero
    return report
