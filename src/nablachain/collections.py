"""Annihilation collections: polyharmonic, curling, and vector harmonic fields.

A scalar field is polyharmonic of order n when n applications of the
laplacian kill it; a vector field is curling of order n when n curls do,
and vector harmonic of order n when n componentwise laplacians do.  Each
family is nested upward in n, and this module reports the least order,
which makes the strictness of those nestings checkable on witnesses.

The identities that move a field between orders (coordinate and
squared-coordinate multiples, curl curl against grad div on vector
harmonic fields, third-order products on harmonic inputs) are claims,
not collections: they live in ``verify``'s ``examples`` suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from . import fields
from .fields import FieldValue, apply_chain
from .operators import Operator, chain

DEFAULT_MAX_ORDER = 16


class CollectionKind(Enum):
    HARMONIC = "harmonic"
    CURLING = "curling"
    VECTOR_HARMONIC = "vharmonic"


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
    ExceedsBound.  A field of the wrong sort is rejected with
    SortMismatchError by the first iterate's operator: ``laplacian``,
    ``vector_laplacian`` or, for curl, ``apply_chain``.  A kind that is
    not a ``CollectionKind`` is a ``TypeError``.
    """
    if not isinstance(kind, CollectionKind):
        raise TypeError(f"kind must be a CollectionKind, got {kind!r}")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
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
