"""Independent reference answers for the benchmark workloads.

Nothing here imports nablachain.  The chain rules are restated from the
README (a sort table plus the two annihilating pairs), the census counts
follow the Fibonacci law, and chains are applied to fields by a small
differentiator over plain ``Fraction`` dicts read straight from the JSON
documents.  The harness compares every operation's outcome with these
answers outside every timed region.
"""

from __future__ import annotations

import json
from fractions import Fraction

# op -> (domain sort, codomain sort)
SORTS = {
    "grad": ("scalar", "vector"),
    "curl": ("vector", "vector"),
    "div": ("vector", "scalar"),
}
# Adjacent (outer, inner) pairs that annihilate every field.
ANNIHILATING = {("div", "curl"), ("curl", "grad")}
# Nontrivial family, named by the innermost operator.
FAMILY = {
    "grad": "grad-div-alternating",
    "curl": "curl-power",
    "div": "div-grad-alternating",
}

_ALIASES = {
    **{name: name for name in SORTS},
    "∇1": "grad", "nabla1": "grad",
    "∇2": "curl", "nabla2": "curl",
    "∇3": "div", "nabla3": "div",
}
_SUBSCRIPTS = str.maketrans("₁₂₃", "123")

# Check names each suite reports at the CLI defaults, sorted.
EXPECTED_CHECKS = {
    "identities": (
        "annihilation curl after grad",
        "annihilation div after curl",
        "chain linearity",
        "classifier evaluation agreement",
        "curl of curl decomposition",
        "degree step curl",
        "degree step div",
        "degree step grad",
        "third-order zero: curl curl grad",
        "third-order zero: curl grad div",
        "third-order zero: div curl curl",
        "third-order zero: div curl grad",
        "third-order zero: grad div curl",
    ),
    "associativity": (
        "grouping signatures agree",
        "grouping values agree on scalars",
        "grouping values agree on vectors",
    ),
    "examples": (
        "collection order witnesses",
        "coordinate multiple stays polyharmonic",
        "curl of curl equals grad of div on vector harmonics",
        "iterate order ladder",
        "laplacian power of coordinate multiple",
        "laplacian power of squared-coordinate multiple",
        "radius-squared multiple stays polyharmonic",
        "third-order products vanish on harmonic inputs",
    ),
    "oracle": (
        "curl sampling agreement",
        "div sampling agreement",
        "first-order curl cross-check",
        "grad sampling agreement",
        "nested laplacian cross-check",
        "quadratic step convergence",
    ),
}

PARSE_REJECTED = ("error", "ParseError")
MEANINGLESS_REJECTED = ("error", "MeaninglessChainError")
SORT_REJECTED = ("error", "SortMismatchError")


# -- chains -------------------------------------------------------------------


def parse_chain(text: str) -> list[str] | None:
    """Operator names, outermost first, or None when the text is not a chain."""
    for glyph in ("∘", "."):
        text = text.replace(glyph, " ")
    ops = []
    for word in text.split():
        if word in ("o", "O"):
            continue
        op = _ALIASES.get(word.casefold().translate(_SUBSCRIPTS))
        if op is None:
            return None
        ops.append(op)
    return ops or None


def is_meaningful(ops: list[str]) -> bool:
    return all(SORTS[outer][0] == SORTS[inner][1] for outer, inner in zip(ops, ops[1:]))


def classify_ops(ops: list[str]) -> tuple:
    """('meaningless',), ('trivial', sort, index) or ('nontrivial', family, order)."""
    if not is_meaningful(ops):
        return ("meaningless",)
    for i, pair in enumerate(zip(ops, ops[1:])):
        if pair in ANNIHILATING:
            return ("trivial", SORTS[ops[0]][1], i)
    return ("nontrivial", FAMILY[ops[-1]], len(ops))


def classify_text(text: str) -> tuple:
    ops = parse_chain(text)
    return PARSE_REJECTED if ops is None else classify_ops(ops)


def census(length: int) -> tuple[int, int, int]:
    """(meaningless, trivial, nontrivial) over all 3**length chains.

    Meaningful counts follow 3, 5, 8, 13, ...; three of them are nontrivial.
    """
    a, b = 3, 5
    for _ in range(length - 1):
        a, b = b, a + b
    return (3**length - a, a - 3, 3)


# -- fields -------------------------------------------------------------------

Poly = dict  # exponent triple -> nonzero Fraction


def _partial(p: Poly, axis: int) -> Poly:
    out = {}
    for e, c in p.items():
        if e[axis]:
            d = list(e)
            d[axis] -= 1
            out[tuple(d)] = c * e[axis]
    return out


def _combine(p: Poly, q: Poly, sign: int) -> Poly:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _apply_op(op: str, field: list[Poly]) -> list[Poly]:
    if op == "grad":
        (f,) = field
        return [_partial(f, 0), _partial(f, 1), _partial(f, 2)]
    f1, f2, f3 = field
    if op == "div":
        return [_combine(_combine(_partial(f1, 0), _partial(f2, 1), 1), _partial(f3, 2), 1)]
    return [
        _combine(_partial(f3, 1), _partial(f2, 2), -1),
        _combine(_partial(f1, 2), _partial(f3, 0), -1),
        _combine(_partial(f2, 0), _partial(f1, 1), -1),
    ]


def _read_terms(entries: list) -> Poly:
    return {tuple(t["e"]): Fraction(t["c"]) for t in entries if Fraction(t["c"])}


def _write_terms(p: Poly) -> list:
    return [
        {"c": str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}", "e": list(e)}
        for e, c in sorted(p.items())
    ]


def apply_document(doc_text: str, chain_text: str) -> tuple:
    """('ok', output document as parsed JSON) or the expected rejection."""
    ops = parse_chain(chain_text)
    if ops is None:
        return PARSE_REJECTED
    if not is_meaningful(ops):
        return MEANINGLESS_REJECTED
    doc = json.loads(doc_text)
    if doc["kind"] == "scalar":
        field = [_read_terms(doc.get("terms") or [])]
    else:
        field = [_read_terms(c) for c in doc.get("components") or [[], [], []]]
    if SORTS[ops[-1]][0] != doc["kind"]:
        return SORT_REJECTED
    for op in reversed(ops):
        field = _apply_op(op, field)
    if len(field) == 1:
        return ("ok", {"kind": "scalar", "terms": _write_terms(field[0])})
    return ("ok", {"kind": "vector", "components": [_write_terms(c) for c in field]})
