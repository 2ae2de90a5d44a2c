"""First-order differential operators on R^3 and their composition algebra.

Three operators act between two field sorts: grad maps scalar to vector,
curl maps vector to vector, div maps vector to scalar.  A chain of
operators is meaningful only when every adjacent pair lines up, i.e. the
domain of the outer operator equals the codomain of the inner one.
Chains that fail this test have no value on any field; they are reported
as meaningless rather than raising at construction time, so that callers
can inspect and classify them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union


class Sort(Enum):
    """The two field sorts an operator can consume or produce."""

    SCALAR = "scalar"
    VECTOR = "vector"


class Operator(Enum):
    """The three first-order differential operators."""

    GRAD = "grad"
    CURL = "curl"
    DIV = "div"

    @property
    def domain(self) -> Sort:
        return _SIGNATURES[self][0]

    @property
    def codomain(self) -> Sort:
        return _SIGNATURES[self][1]


_SIGNATURES = {
    Operator.GRAD: (Sort.SCALAR, Sort.VECTOR),
    Operator.CURL: (Sort.VECTOR, Sort.VECTOR),
    Operator.DIV: (Sort.VECTOR, Sort.SCALAR),
}


@dataclass(frozen=True)
class Meaningless:
    """Result of composing operators whose sorts do not line up.

    Stands for the nowhere-defined value: such a composition is undefined
    on every field.  It only ever appears as an output; no operation in
    this package accepts it as an input.
    """


MEANINGLESS = Meaningless()


@dataclass(frozen=True)
class Meaningful:
    """Signature of a composable chain: input sort in, output sort out."""

    input: Sort
    output: Sort


ChainSignature = Union[Meaningful, Meaningless]


@dataclass(frozen=True)
class Chain:
    """A nonempty sequence of operators, element 0 outermost.

    ``Chain((Operator.DIV, Operator.CURL, Operator.GRAD))`` denotes
    div after curl after grad: the rightmost operator applies first.
    """

    ops: tuple[Operator, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.ops, tuple):
            object.__setattr__(self, "ops", tuple(self.ops))
        if len(self.ops) == 0:
            raise ValueError("a chain must contain at least one operator")
        for op in self.ops:
            if not isinstance(op, Operator):
                raise TypeError(f"chain elements must be Operator, got {op!r}")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.ops)

    def __getitem__(self, index):
        return self.ops[index]

    @property
    def outermost(self) -> Operator:
        return self.ops[0]

    @property
    def innermost(self) -> Operator:
        return self.ops[-1]


def chain(*ops: Operator) -> Chain:
    """Convenience constructor: ``chain(DIV, GRAD)`` is div after grad."""
    return Chain(tuple(ops))


def compose_signatures(outer: ChainSignature, inner: ChainSignature) -> ChainSignature:
    """Compose two chain signatures; meaninglessness is absorbing."""
    if isinstance(outer, Meaningless) or isinstance(inner, Meaningless):
        return MEANINGLESS
    if outer.input != inner.output:
        return MEANINGLESS
    return Meaningful(inner.input, outer.output)


def chain_signature(c: Chain) -> ChainSignature:
    """Signature of a whole chain.

    Meaningless as soon as one adjacent pair fails to compose; otherwise
    the innermost domain and the outermost codomain.  Grouping does not
    matter: folding pairwise from either end gives the same result.
    """
    for outer, inner in zip(c.ops, c.ops[1:]):
        if outer.domain != inner.codomain:
            return MEANINGLESS
    return Meaningful(c.innermost.domain, c.outermost.codomain)
