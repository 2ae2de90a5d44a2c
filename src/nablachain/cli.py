"""Command-line front end.

Exit codes are a scripting contract: 0 success, 1 usage or input error,
2 a meaningless chain was supplied where a value was required, 3 a
verification suite found a violated identity.  Results go to stdout,
diagnostics to stderr.  The ``cmd_*`` functions only call the library and
print, and let errors propagate; ``main`` alone turns an exception into an
exit code and a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import verify
from .classify import (
    DEFAULT_CENSUS_BOUND,
    Nontrivial,
    TrivialZero,
    census,
    classify,
)
from .collections import (
    DEFAULT_MAX_ORDER,
    CollectionKind,
    Order,
    collection_order,
)
from .errors import FieldFormatError, MeaninglessChainError, NablachainError
from .fields import Coefficient, _parse_coefficient, apply_chain, dumps_field, loads_field
from .operators import Chain, Meaningful, chain_signature
from .parser import ParseError, format_chain, parse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MEANINGLESS = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_field(path: str):
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FieldFormatError(f"cannot read {path}: {exc}") from exc
    return loads_field(raw)


def _parse_point(text: str) -> tuple[Coefficient, Coefficient, Coefficient]:
    """Three coordinates in the field files' coefficient grammar."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated values, got {text!r}")
    try:
        a, b, c = (_parse_coefficient(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad point {text!r}: {exc}") from exc
    return (a, b, c)


def cmd_classify(args: argparse.Namespace) -> int:
    c = parse(args.expr)
    result = classify(c)
    if isinstance(result, TrivialZero):
        i = result.witness_index
        pair = format_chain(Chain(c[i:i + 2]))
        print(
            f"zero ({result.output_sort.value}), "
            f"annihilating pair at position {i}: {pair}"
        )
    elif isinstance(result, Nontrivial):
        sig = chain_signature(c)
        assert isinstance(sig, Meaningful)
        print(
            f"nontrivial: {result.family.value}, order {result.order}, "
            f"signature {sig.input.value} -> {sig.output.value}"
        )
    else:
        print("meaningless")
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    if not 1 <= args.max <= DEFAULT_CENSUS_BOUND:
        raise ValueError(
            f"--max must lie between 1 and {DEFAULT_CENSUS_BOUND}, got {args.max}"
        )
    rows = [census(n) for n in range(1, args.max + 1)]
    if args.json:
        doc = [
            {
                "length": row.length,
                "total": row.total,
                "meaningless": row.meaningless_count,
                "trivial_zero": row.trivial_count,
                "nontrivial": row.nontrivial_count,
            }
            for row in rows
        ]
        print(json.dumps(doc))
        return EXIT_OK
    print(
        f"{'length':>6}  {'total':>8}  {'meaningless':>11}  "
        f"{'trivial-zero':>12}  {'nontrivial':>10}"
    )
    for row in rows:
        print(
            f"{row.length:>6}  {row.total:>8}  {row.meaningless_count:>11}  "
            f"{row.trivial_count:>12}  {row.nontrivial_count:>10}"
        )
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    result = apply_chain(parse(args.chain), _load_field(args.field))
    if args.at is None:
        print(dumps_field(result))
        return EXIT_OK
    value = result.eval(_parse_point(args.at))
    if isinstance(value, tuple):
        if args.json:
            print(json.dumps({"kind": "vector", "value": [str(v) for v in value]}))
        else:
            print(f"({', '.join(str(v) for v in value)})")
    else:
        if args.json:
            print(json.dumps({"kind": "scalar", "value": str(value)}))
        else:
            print(str(value))
    return EXIT_OK


def cmd_order(args: argparse.Namespace) -> int:
    kind = CollectionKind(args.collection)
    result = collection_order(kind, _load_field(args.field), args.max)
    if isinstance(result, Order):
        print(f"order {result.n}")
    else:
        print(f"exceeds {result.bound}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite, args.trials, args.seed, args.degree)
    for r in results:
        if r.passed:
            print(f"PASS {r.name}")
        else:
            print(f"FAIL {r.name}: {r.detail}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nablachain",
        description="Classify, apply and verify chains of grad, curl and div.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a chain expression")
    p.add_argument("expr", help="chain text, outermost operator first")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("census", help="count chains of each length")
    p.add_argument("--max", type=int, default=DEFAULT_CENSUS_BOUND,
                   help="largest chain length to include")
    p.add_argument("--json", action="store_true", help="machine-readable rows")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("apply", help="apply a chain to a field file")
    p.add_argument("--chain", required=True, help="chain text")
    p.add_argument("--field", required=True, help="path to a JSON field file")
    p.add_argument("--at", help="evaluate the result at a point 'a,b,c'")
    p.add_argument("--json", action="store_true",
                   help="with --at, wrap the value in JSON")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("order", help="least annihilation order of a field")
    p.add_argument("--collection", required=True,
                   choices=[k.value for k in CollectionKind])
    p.add_argument("--field", required=True, help="path to a JSON field file")
    p.add_argument("--max", type=int, default=DEFAULT_MAX_ORDER,
                   help="give up beyond this order")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--trials", type=int, default=verify.DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--degree", type=int, default=verify.DEFAULT_DEGREE)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MeaninglessChainError as exc:
        print(exc, file=sys.stderr)
        return EXIT_MEANINGLESS
    except ParseError as exc:
        print(f"cannot parse chain: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NablachainError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
