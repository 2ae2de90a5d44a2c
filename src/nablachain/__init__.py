"""Symbolic operator algebra for grad, curl and div on R^3.

Chains of the three first-order differential operators are parsed,
type-checked and classified: a chain is meaningless when adjacent sorts
clash, identically zero when it contains an annihilating pair, and
otherwise one of exactly three nontrivial normal forms per length.
Every classification claim is backed by an exact polynomial engine over
the rationals and an independent finite-difference oracle.
"""

from .classify import (
    Census,
    Classification,
    Family,
    Nontrivial,
    TrivialZero,
    census,
    classify,
    meaningful_chains,
    nontrivial_chain,
)
from .collections import (
    CollectionKind,
    ExceedsBound,
    Order,
    OrderResult,
    collection_order,
)
from .errors import (
    DepthUnsupportedError,
    FieldFormatError,
    MeaninglessChainError,
    NablachainError,
    NumericalFailureError,
    SortMismatchError,
    TermLimitError,
)
from .fdcheck import CrossCheckReport, FdConfig, cross_check
from .fields import (
    FieldValue,
    Polynomial,
    VectorField,
    apply_chain,
    curl,
    div,
    dumps_field,
    grad,
    laplacian,
    loads_field,
    sort_of,
    vector_laplacian,
)
from .operators import (
    Chain,
    ChainSignature,
    Meaningful,
    Meaningless,
    Operator,
    Sort,
    chain,
    chain_signature,
    compose_signatures,
)
from .parser import ParseError, format_chain, parse
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "Census",
    "Chain",
    "ChainSignature",
    "CheckResult",
    "Classification",
    "CollectionKind",
    "CrossCheckReport",
    "DepthUnsupportedError",
    "ExceedsBound",
    "Family",
    "FdConfig",
    "FieldFormatError",
    "FieldValue",
    "Meaningful",
    "Meaningless",
    "MeaninglessChainError",
    "NablachainError",
    "Nontrivial",
    "NumericalFailureError",
    "Operator",
    "Order",
    "OrderResult",
    "ParseError",
    "Polynomial",
    "Sort",
    "SortMismatchError",
    "TermLimitError",
    "TrivialZero",
    "VectorField",
    "apply_chain",
    "census",
    "chain",
    "chain_signature",
    "classify",
    "collection_order",
    "compose_signatures",
    "cross_check",
    "curl",
    "div",
    "dumps_field",
    "format_chain",
    "grad",
    "laplacian",
    "loads_field",
    "meaningful_chains",
    "nontrivial_chain",
    "parse",
    "run_suite",
    "sort_of",
    "vector_laplacian",
]
