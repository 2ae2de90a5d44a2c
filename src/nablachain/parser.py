"""Text form of operator chains.

Grammar::

    chain := op (sep op)*
    sep   := whitespace+ | "∘" | "." | standalone "o"
    op    := grad | ∇1 | nabla1          (gradient)
           | curl | ∇2 | nabla2          (curl)
           | div  | ∇3 | nabla3          (divergence)

Operator names are case-insensitive and the subscript digits ₁₂₃ are
accepted in place of 1 2 3.  The leftmost operator is the outermost one,
so ``"div curl grad"`` parses to the chain applying grad first.  The
glyphs "∘" and "." separate operators even without surrounding spaces;
a bare "o" acts as a separator only when it stands on its own between
spaces, so that a typo glued to a name is reported instead of silently
split.  Applied arguments have no place in this little language: a
trailing "f" is an unknown token, not an ignored one.
"""

from __future__ import annotations

import re

from .errors import NablachainError
from .operators import Chain, Operator


class ParseError(NablachainError):
    """Raised for text that is not a chain; carries the failing offset."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"at offset {position}: {message}")


_ALIASES = {
    "grad": Operator.GRAD,
    "∇1": Operator.GRAD,
    "nabla1": Operator.GRAD,
    "curl": Operator.CURL,
    "∇2": Operator.CURL,
    "nabla2": Operator.CURL,
    "div": Operator.DIV,
    "∇3": Operator.DIV,
    "nabla3": Operator.DIV,
}

_SUBSCRIPTS = str.maketrans("₁₂₃", "123")
# Python's \s matches exactly the characters str.isspace() accepts.
_WORD = re.compile(r"[^\s∘.]+")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Split into (word, offset) pairs; glyph separators are dropped here."""
    return [(m.group(), m.start()) for m in _WORD.finditer(text)]


def parse(text: str) -> Chain:
    """Parse a chain expression; leftmost token becomes the outermost operator."""
    ops = []
    for word, offset in _tokenize(text):
        if word in ("o", "O"):
            continue
        op = _ALIASES.get(word.casefold().translate(_SUBSCRIPTS))
        if op is None:
            raise ParseError(offset, f"unknown token {word!r}")
        ops.append(op)
    if not ops:
        raise ParseError(0, "empty chain expression")
    return Chain(tuple(ops))


def format_chain(c: Chain) -> str:
    """Canonical text: lowercase names joined by single spaces."""
    return " ".join(op.value for op in c)
