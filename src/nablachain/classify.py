"""Classification of operator chains: meaningless, identically zero, or nontrivial.

Every meaningful chain either contains an annihilating adjacent pair
(div after curl, or curl after grad) and is therefore identically zero
on its whole domain, or it is one of exactly three surviving words per
length: the alternating word ending innermost in grad, the pure curl
power, and the alternating word ending innermost in div.  The adjacency
rules force this: inside a meaningful chain with no annihilating pair,
grad can only be followed outward by div, div only by grad, and curl
only by curl, so the innermost operator determines the whole word.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

from .operators import (
    MEANINGLESS,
    Chain,
    Meaningless,
    Operator,
    Sort,
    chain_signature,
)

# Adjacent (outer, inner) pairs that annihilate every field.
ANNIHILATING_PAIRS = (
    (Operator.DIV, Operator.CURL),
    (Operator.CURL, Operator.GRAD),
)

DEFAULT_CENSUS_BOUND = 12


class Family(Enum):
    """The three nontrivial normal-form families, keyed by innermost operator."""

    GRAD_DIV_ALTERNATING = "grad-div-alternating"
    CURL_POWER = "curl-power"
    DIV_GRAD_ALTERNATING = "div-grad-alternating"


_FAMILY_BY_INNERMOST = {
    Operator.GRAD: Family.GRAD_DIV_ALTERNATING,
    Operator.CURL: Family.CURL_POWER,
    Operator.DIV: Family.DIV_GRAD_ALTERNATING,
}


@dataclass(frozen=True)
class TrivialZero:
    """A meaningful chain that is identically zero on its whole domain.

    ``witness_index`` is the position of the leftmost annihilating
    adjacent pair, counted from the outermost end.
    """

    output_sort: Sort
    witness_index: int


@dataclass(frozen=True)
class Nontrivial:
    family: Family
    order: int


Classification = Union[Meaningless, TrivialZero, Nontrivial]


@dataclass(frozen=True)
class Census:
    """Exact classification counts over all 3^length chains of one length."""

    length: int
    meaningless_count: int
    trivial_count: int
    nontrivial_count: int

    @property
    def total(self) -> int:
        return 3**self.length

    @property
    def meaningful_count(self) -> int:
        return self.trivial_count + self.nontrivial_count


def classify(c: Chain) -> Classification:
    """Classify a chain as meaningless, trivially zero, or nontrivial.

    Chains of length 1 are nontrivial: none of the base operators is
    identically zero.
    """
    if isinstance(chain_signature(c), Meaningless):
        return MEANINGLESS
    for i in range(len(c) - 1):
        if (c[i], c[i + 1]) in ANNIHILATING_PAIRS:
            return TrivialZero(c.outermost.codomain, i)
    return Nontrivial(_FAMILY_BY_INNERMOST[c.innermost], len(c))


def nontrivial_chain(family: Family, order: int) -> Chain:
    """The unique nontrivial chain of the given family and length.

    The word is built inward-out: the innermost operator names the
    family, and each step outward is the only non-annihilating extension.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if family is Family.CURL_POWER:
        return Chain((Operator.CURL,) * order)
    inner = Operator.GRAD if family is Family.GRAD_DIV_ALTERNATING else Operator.DIV
    other = Operator.DIV if inner is Operator.GRAD else Operator.GRAD
    ops = tuple(inner if k % 2 == 0 else other for k in range(order))
    return Chain(ops[::-1])


def meaningful_chains(length: int) -> Iterator[Chain]:
    """Yield every meaningful chain of the given length.

    Words are grown from the innermost operator outward, extending only
    with operators whose domain matches the codomain grown so far, so the
    enumeration never touches the meaningless bulk of the 3^length space.
    """
    if length < 1:
        raise ValueError("length must be >= 1")

    def grow(word: tuple[Operator, ...]) -> Iterator[tuple[Operator, ...]]:
        if len(word) == length:
            yield word
            return
        for op in Operator:
            if op.domain == word[0].codomain:
                yield from grow((op,) + word)

    for start in Operator:
        for word in grow((start,)):
            yield Chain(word)


def census(length: int) -> Census:
    """Classify all 3^length chains of one length and count the outcomes.

    Only the meaningful words are materialised (there are few of them);
    everything else fails the adjacency test and is counted meaningless.
    """
    if not 1 <= length <= DEFAULT_CENSUS_BOUND:
        raise ValueError(f"length must be between 1 and {DEFAULT_CENSUS_BOUND}, got {length}")
    trivial = 0
    nontrivial = 0
    meaningful = 0
    for c in meaningful_chains(length):
        meaningful += 1
        outcome = classify(c)
        if isinstance(outcome, TrivialZero):
            trivial += 1
        elif isinstance(outcome, Nontrivial):
            nontrivial += 1
        else:
            raise AssertionError(f"meaningful chain classified meaningless: {c}")
    return Census(length, 3**length - meaningful, trivial, nontrivial)
