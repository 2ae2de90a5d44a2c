"""Exact polynomial fields on R^3 and the differential operators on them.

Scalar fields are sparse multivariate polynomials in x1, x2, x3 with
rational coefficients, stored as a map from exponent triples to nonzero
coefficients.  An integral coefficient is stored as a plain ``int`` and
any other as a ``fractions.Fraction``, never as a Fraction with
denominator 1, so the map is canonical and integer-only work never
touches Fraction arithmetic.  The public ``Polynomial.terms`` is that
map itself, read-only.  Vector fields are triples of such polynomials
against the standard basis.  All arithmetic is exact, so the zero test
is decidable: a field is identically zero iff every term map is empty.
That is what makes this module usable as ground truth for operator
identities; floating point never enters.

The public ``Polynomial(terms)`` constructor validates its input.  Every
operation in this module builds its result through the private
``Polynomial._trusted``, which checks only the term budget: results of
operations on valid polynomials are valid by construction.

The JSON exchange format (used by the CLI) is a single document::

    {"kind": "scalar", "terms": [{"c": "3/2", "e": [2, 0, 1]}, ...]}
    {"kind": "vector", "components": [[...], [...], [...]]}

where each component of a vector document is a terms array, "c" is an
integer or integer-ratio string in ASCII digits (``-?[0-9]+`` or
``-?[0-9]+/[0-9]+``, nothing else), and "e" is the exponent triple.  An
empty or missing terms array denotes the zero field; a repeated exponent
triple, a key repeated in any object, and any key the format does not
name, is an input error rather than something silently merged or
ignored.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Union

from .errors import (
    FieldFormatError,
    MeaninglessChainError,
    SortMismatchError,
    TermLimitError,
)
from .operators import Chain, Meaningless, Operator, Sort, chain_signature
from .parser import format_chain

Exponents = tuple[int, int, int]
Coefficient = Union[int, Fraction]

# Results larger than this raise TermLimitError; iterated second-order
# operators shrink polynomials, so only pathological inputs get near it.
MAX_TERMS = 10**6


def _is_int(value) -> bool:
    """An int that is not a bool: JSON true/false must not pass as 1/0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_exponents(e) -> bool:
    """Three non-negative ints, none a bool: ``_is_int`` inlined, as the decoder's hot loop."""
    return len(e) == 3 and all(isinstance(x, int) and type(x) is not bool and x >= 0 for x in e)


def _check_axis(axis) -> None:
    if not _is_int(axis) or axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis!r}")


def _canonical(c: Coefficient) -> Coefficient:
    """The stored form of a coefficient: int when integral, else Fraction."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def _coerce_coeff(value) -> Coefficient:
    if isinstance(value, Fraction) or _is_int(value):
        return _canonical(value)
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__}")


def _add_partial(acc: dict[Exponents, Coefficient], p: Polynomial, i: int, sign: int) -> None:
    """Add sign times the partial of p along x_(i+1) into acc, in place."""
    get = acc.get
    for e, c in p._terms.items():
        n = e[i]
        if n:
            d = list(e)
            d[i] = n - 1
            d = tuple(d)
            acc[d] = get(d, 0) + sign * n * c


def _finish(acc: dict[Exponents, Coefficient]) -> Polynomial:
    """A polynomial from accumulated sums: zeros dropped, coefficients canonical."""
    return Polynomial._trusted(
        {e: c if type(c) is int else _canonical(c) for e, c in acc.items() if c}
    )


class Polynomial:
    """A sparse polynomial in x1, x2, x3 over the rationals.

    Kept canonical at all times: no stored coefficient is zero, and an
    integral one is a plain ``int``, so structural equality of the term
    maps is exact equality of polynomials.  ``terms`` is the stored map,
    read-only.  Instances are treated as immutable; ``_trusted`` is the
    only constructor the module's own operations use.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, Union[int, Fraction]] | None = None):
        canonical: dict[Exponents, Coefficient] = {}
        if terms:
            for exps, coeff in terms.items():
                e = tuple(exps)
                if not _is_exponents(e):
                    raise ValueError(f"exponents must be a triple of non-negative ints, got {exps!r}")
                c = _coerce_coeff(coeff)
                if c != 0:
                    canonical[e] = c
        if len(canonical) > MAX_TERMS:
            raise TermLimitError(f"polynomial with {len(canonical)} terms exceeds the {MAX_TERMS} term budget")
        self._terms = canonical

    @classmethod
    def _trusted(cls, terms: dict[Exponents, Coefficient]) -> Polynomial:
        """Adopt a canonical term map without copying or validating it.

        The caller guarantees the exponents are triples of non-negative
        ints and every value is a nonzero canonical coefficient; only the
        term budget is checked.
        """
        if len(terms) > MAX_TERMS:
            raise TermLimitError(f"polynomial with {len(terms)} terms exceeds the {MAX_TERMS} term budget")
        p = object.__new__(cls)
        p._terms = terms
        return p

    @property
    def terms(self) -> Mapping[Exponents, Coefficient]:
        """The stored term map, read-only: int coefficients when integral, else Fraction."""
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls) -> Polynomial:
        return cls()

    @classmethod
    def constant(cls, value) -> Polynomial:
        return cls({(0, 0, 0): value})

    @classmethod
    def monomial(cls, exponents: Exponents, coeff=1) -> Polynomial:
        return cls({tuple(exponents): coeff})

    @classmethod
    def variable(cls, axis: int) -> Polynomial:
        """The coordinate polynomial x_axis, axis in {1, 2, 3}."""
        _check_axis(axis)
        exps = [0, 0, 0]
        exps[axis - 1] = 1
        return cls({tuple(exps): 1})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    # Equality and hashing read the internal map: n == Fraction(n) and
    # hash(n) == hash(Fraction(n)), and the map is canonical besides.
    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        merged = dict(self._terms)
        get = merged.get
        for e, c in other._terms.items():
            merged[e] = get(e, 0) + c
        return _finish(merged)

    def __neg__(self) -> Polynomial:
        return Polynomial._trusted({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            k = _coerce_coeff(other)
            return _finish({e: k * c for e, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc: dict[Exponents, Coefficient] = {}
        get = acc.get
        right = list(other._terms.items())
        for (a1, b1, c1), k1 in self._terms.items():
            for (a2, b2, c2), k2 in right:
                e = (a1 + a2, b1 + b2, c1 + c2)
                acc[e] = get(e, 0) + k1 * k2
            if len(acc) > MAX_TERMS:
                raise TermLimitError(f"product exceeds the {MAX_TERMS} term budget")
        return _finish(acc)

    def __rmul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> Polynomial:
        if not _is_int(exponent) or exponent < 0:
            raise ValueError("exponent must be a non-negative int")
        result = Polynomial.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def partial(self, axis: int) -> Polynomial:
        """Formal partial derivative along x_axis, axis in {1, 2, 3}."""
        _check_axis(axis)
        out: dict[Exponents, Coefficient] = {}
        _add_partial(out, self, axis - 1, 1)
        return _finish(out)

    def eval(self, point) -> Fraction:
        """Exact evaluation at a point of rationals (or ints)."""
        x1, x2, x3 = (Fraction(v) for v in point)
        total = Fraction(0)
        for (e1, e2, e3), c in self._terms.items():
            total += c * x1**e1 * x2**e2 * x3**e3
        return total

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        ordered = sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        for e, c in ordered:
            powers = [
                f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
                for i, k in enumerate(e)
                if k > 0
            ]
            if not powers:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(powers))
            elif c == -1:
                parts.append("-" + "*".join(powers))
            else:
                parts.append("*".join([str(c)] + powers))
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class VectorField:
    """Three polynomial components against the standard basis."""

    f1: Polynomial
    f2: Polynomial
    f3: Polynomial

    def __post_init__(self) -> None:
        for comp in (self.f1, self.f2, self.f3):
            if not isinstance(comp, Polynomial):
                raise TypeError(f"vector field components must be Polynomial, got {type(comp).__name__}")

    @property
    def components(self) -> tuple[Polynomial, Polynomial, Polynomial]:
        return (self.f1, self.f2, self.f3)

    @classmethod
    def zero(cls) -> VectorField:
        return cls(Polynomial.zero(), Polynomial.zero(), Polynomial.zero())

    @property
    def is_zero(self) -> bool:
        return self.f1.is_zero and self.f2.is_zero and self.f3.is_zero

    def __add__(self, other) -> VectorField:
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(self.f1 + other.f1, self.f2 + other.f2, self.f3 + other.f3)

    def __sub__(self, other) -> VectorField:
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(self.f1 - other.f1, self.f2 - other.f2, self.f3 - other.f3)

    def __neg__(self) -> VectorField:
        return VectorField(-self.f1, -self.f2, -self.f3)

    def __mul__(self, other) -> VectorField:
        if isinstance(other, (int, Fraction, Polynomial)):
            return VectorField(self.f1 * other, self.f2 * other, self.f3 * other)
        return NotImplemented

    def __rmul__(self, other) -> VectorField:
        if isinstance(other, (int, Fraction, Polynomial)):
            return self * other
        return NotImplemented

    def eval(self, point) -> tuple[Fraction, Fraction, Fraction]:
        return (self.f1.eval(point), self.f2.eval(point), self.f3.eval(point))


FieldValue = Union[Polynomial, VectorField]


def sort_of(field: FieldValue) -> Sort:
    if isinstance(field, Polynomial):
        return Sort.SCALAR
    if isinstance(field, VectorField):
        return Sort.VECTOR
    raise TypeError(f"not a field value: {field!r}")


def _check_sort(field: FieldValue, expected: type, operator: str) -> None:
    """Every operator's guard: unless field is exactly an expected instance, raise SortMismatchError."""
    if type(field) is not expected:
        raise SortMismatchError(sort_of(expected.zero()), sort_of(field), context=operator)


def grad(f: Polynomial) -> VectorField:
    """Gradient: the vector of the three partial derivatives."""
    _check_sort(f, Polynomial, "grad")
    return VectorField(f.partial(1), f.partial(2), f.partial(3))


def curl(v: VectorField) -> VectorField:
    """Curl: the antisymmetric cross-derivative combination.

    Each output component is accumulated in one map, with no
    intermediate polynomials.
    """
    _check_sort(v, VectorField, "curl")
    f1, f2, f3 = v.components
    out1: dict[Exponents, Coefficient] = {}
    out2: dict[Exponents, Coefficient] = {}
    out3: dict[Exponents, Coefficient] = {}
    _add_partial(out1, f3, 1, 1)
    _add_partial(out1, f2, 2, -1)
    _add_partial(out2, f1, 2, 1)
    _add_partial(out2, f3, 0, -1)
    _add_partial(out3, f2, 0, 1)
    _add_partial(out3, f1, 1, -1)
    return VectorField(_finish(out1), _finish(out2), _finish(out3))


def div(v: VectorField) -> Polynomial:
    """Divergence: the sum of the component partials, in one map."""
    _check_sort(v, VectorField, "div")
    out: dict[Exponents, Coefficient] = {}
    for i, comp in enumerate(v.components):
        _add_partial(out, comp, i, 1)
    return _finish(out)


def laplacian(f: Polynomial) -> Polynomial:
    """div after grad, fused into one pass of second partials."""
    _check_sort(f, Polynomial, "laplacian")
    out: dict[Exponents, Coefficient] = {}
    get = out.get
    for e, c in f._terms.items():
        for i in range(3):
            n = e[i]
            if n > 1:
                d = list(e)
                d[i] = n - 2
                d = tuple(d)
                out[d] = get(d, 0) + n * (n - 1) * c
    return _finish(out)


def vector_laplacian(v: VectorField) -> VectorField:
    """Componentwise laplacian."""
    _check_sort(v, VectorField, "vector_laplacian")
    return VectorField(laplacian(v.f1), laplacian(v.f2), laplacian(v.f3))


# apply_chain is the only reader, so a hook on grad, curl or div goes there.
_OPERATORS = {Operator.GRAD: grad, Operator.CURL: curl, Operator.DIV: div}


def apply_chain(c: Chain, field: FieldValue) -> FieldValue:
    """Apply a chain innermost-first to a field.

    Raises MeaninglessChainError for chains whose signature is undefined,
    before looking at the field at all, and SortMismatchError when the
    field sort does not match the chain input sort.
    """
    sig = chain_signature(c)
    if isinstance(sig, Meaningless):
        raise MeaninglessChainError(f"chain has no defined value: {format_chain(c)}")
    actual = sort_of(field)
    if sig.input != actual:
        raise SortMismatchError(sig.input, actual, context="chain input")
    # A meaningful chain fed its input sort gives every operator its domain.
    current = field
    for op in reversed(c.ops):
        current = _OPERATORS[op](current)
    return current


# -- JSON exchange format ----------------------------------------------------


def _terms_to_json(p: Polynomial) -> list[dict]:
    # str() of a canonical coefficient is "n" for an int and "n/d" for a Fraction.
    return [{"c": str(c), "e": list(e)} for e, c in sorted(p._terms.items())]


# The whole coefficient grammar.  Integers get a regex of their own: one
# pattern with an optional ratio group costs a quarter more per coefficient.
_INTEGER = re.compile(r"-?[0-9]+")
_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)")
# One decoder for every call: json.loads with a hook builds a new one each time.
_DECODER = json.JSONDecoder(object_pairs_hook=tuple)


def _parse_coefficient(text: str) -> Coefficient:
    """The canonical int or Fraction that text spells, or ValueError."""
    if _INTEGER.fullmatch(text):
        return int(text)
    ratio = _RATIO.fullmatch(text)
    if ratio is None:
        raise ValueError("not an integer or a ratio of integers")
    numerator, denominator = int(ratio[1]), int(ratio[2])
    if denominator == 0:
        raise ValueError("zero denominator")
    return _canonical(Fraction(numerator, denominator))


def _terms_from_pairs(entries, where: str) -> Polynomial:
    if not isinstance(entries, list):
        raise FieldFormatError(f"{where}: terms must be an array")
    seen: dict[Exponents, Coefficient] = {}
    for entry in entries:
        # An object arrives as its (key, value) pairs: a repeated key leaves "c" or "e" out.
        if type(entry) is not tuple or len(entry) != 2:
            raise FieldFormatError(f"{where}: each term needs exactly the keys 'c' and 'e'")
        (k1, raw_c), (k2, raw_e) = entry
        if k1 == "e":
            k1, raw_c, k2, raw_e = k2, raw_e, k1, raw_c
        if k1 != "c" or k2 != "e":
            raise FieldFormatError(f"{where}: each term needs exactly the keys 'c' and 'e'")
        if not (isinstance(raw_e, list) and _is_exponents(raw_e)):
            raise FieldFormatError(f"{where}: 'e' must be three non-negative integers, got {raw_e!r}")
        if not isinstance(raw_c, str):
            raise FieldFormatError(f"{where}: 'c' must be a string, got {raw_c!r}")
        try:
            c = _parse_coefficient(raw_c)
        except ValueError as exc:
            raise FieldFormatError(f"{where}: bad coefficient {raw_c!r}") from exc
        e = tuple(raw_e)
        if e in seen:
            raise FieldFormatError(f"{where}: duplicate exponent triple {raw_e!r}")
        seen[e] = c
    return _finish(seen)


def dumps_field(field: FieldValue) -> str:
    """Encode a field as its canonical JSON document."""
    if sort_of(field) is Sort.SCALAR:
        return json.dumps({"kind": "scalar", "terms": _terms_to_json(field)})
    return json.dumps({"kind": "vector", "components": [_terms_to_json(c) for c in field.components]})


def loads_field(text: str) -> FieldValue:
    """Decode a field document; raises FieldFormatError on any defect."""
    try:
        pairs = _DECODER.decode(text)
    except ValueError as exc:
        # JSONDecodeError, and an integer past the interpreter's digit limit.
        raise FieldFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FieldFormatError("field document is nested too deeply") from exc
    doc = dict(pairs) if type(pairs) is tuple else {}
    if "kind" not in doc or len(doc) != len(pairs):
        raise FieldFormatError("field document must be an object with a 'kind' and no key repeated")
    kind = doc["kind"]
    if kind not in ("scalar", "vector"):
        raise FieldFormatError(f"unknown field kind {kind!r}")
    body = "terms" if kind == "scalar" else "components"
    extra = [key for key in doc if key not in ("kind", body)]
    if extra:
        raise FieldFormatError(f"{kind} field document has unknown keys {extra!r}")
    if kind == "scalar":
        return _terms_from_pairs(doc.get("terms", []), "scalar terms")
    comps = doc.get("components", [[], [], []])
    if not isinstance(comps, list) or len(comps) != 3:
        raise FieldFormatError("vector field needs exactly three components")
    return VectorField(*(_terms_from_pairs(c, f"component {i + 1}") for i, c in enumerate(comps)))
