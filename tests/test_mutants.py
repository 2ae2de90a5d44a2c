"""Engine mutants must be caught: each one makes some verify suite exit 3.

The exit code of every suite under every mutant is pinned, so a suite
that stops catching a mutant, or starts to, shows up cell by cell.

Every mutant is installed with one patch at the single binding it
changes, which is enough to reach every caller in the package:
``fields._OPERATORS`` for grad, curl and div, the ``fields.laplacian``
and ``fields.vector_laplacian`` attributes for the two laplacians,
``fields._add_partial`` and ``fields._finish`` for the shared partial
and result builder, ``fdcheck._column`` for the oracle's stencil and ``ANNIHILATING_PAIRS``
for the classifier.  The outermost-first slip in ``apply_chain`` is a
module global ``reversed`` in ``fields`` that shadows the builtin; the
module has no such attribute, so every patch runs with
``raising=False``.  The classifier's module is reached through
``importlib``, because the package attribute ``nablachain.classify`` is
the re-exported function.  No suite may exit with anything but 0 or 3
under a mutant: a broken engine is a violation, not bad input.
"""

import importlib

import pytest

from nablachain import fdcheck, fields, verify
from nablachain.cli import main
from nablachain.collections import CollectionKind, ExceedsBound, collection_order
from nablachain.fields import Polynomial, VectorField
from nablachain.operators import Operator

from test_verify import _laplacian_n_squared


def _div_without_x3(v):
    return v.f1.partial(1) + v.f2.partial(2)


def _curl_swapped_23(v):
    c1, c2, c3 = fields.curl(v).components
    return VectorField(c1, c3, c2)


def _grad_doubled(f):
    return 2 * fields.grad(f)


def _grad_swapped_12(f):
    g1, g2, g3 = fields.grad(f).components
    return VectorField(g2, g1, g3)


def _column_over_h(f, axis, point, h):
    upper = fdcheck._sample(f, fdcheck._shifted(point, axis, h))
    lower = fdcheck._sample(f, fdcheck._shifted(point, axis, -h))
    return tuple([(u - l) / h for u, l in zip(upper, lower)])


def _add_partial_without_n(acc, p, i, sign):
    for e, c in p._terms.items():
        if e[i]:
            d = e[:i] + (e[i] - 1,) + e[i + 1:]
            acc[d] = acc.get(d, 0) + sign * c


def _add_partial_lowering_by_2(acc, p, i, sign):
    for e, c in p._terms.items():
        if e[i]:
            d = e[:i] + (e[i] - 2,) + e[i + 1:]
            acc[d] = acc.get(d, 0) + sign * e[i] * c


def _vector_laplacian_without_f3(v):
    return VectorField(fields.laplacian(v.f1), fields.laplacian(v.f2), Polynomial.zero())


def _finish_keeping_zeros(acc):
    return Polynomial._trusted({e: fields._canonical(c) for e, c in acc.items()})


# (module or table, binding, replacement,
#  exit codes of associativity, examples, identities and oracle at --trials 5)
MUTANTS = {
    "laplacian n*n": (fields, "laplacian", _laplacian_n_squared, (0, 3, 3, 0)),
    "vector_laplacian drops f3": (fields, "vector_laplacian", _vector_laplacian_without_f3, (0, 3, 3, 0)),
    "div without x3": (fields._OPERATORS, Operator.DIV, _div_without_x3, (0, 3, 3, 3)),
    "curl components 2 and 3 swapped": (fields._OPERATORS, Operator.CURL, _curl_swapped_23, (0, 3, 3, 3)),
    "grad doubled": (fields._OPERATORS, Operator.GRAD, _grad_doubled, (0, 3, 3, 3)),
    "grad components 1 and 2 swapped": (fields._OPERATORS, Operator.GRAD, _grad_swapped_12, (0, 3, 3, 3)),
    "oracle column divides by h, not 2h": (fdcheck, "_column", _column_over_h, (0, 0, 0, 3)),
    "apply_chain applies the ops outermost first": (fields, "reversed", lambda ops: ops, (3, 3, 3, 3)),
    "_add_partial drops the factor n": (fields, "_add_partial", _add_partial_without_n, (0, 3, 3, 3)),
    "_add_partial lowers the exponent by 2": (fields, "_add_partial", _add_partial_lowering_by_2, (0, 3, 3, 3)),
    "_finish keeps zeros": (fields, "_finish", _finish_keeping_zeros, (0, 3, 3, 0)),
    "classifier misses curl-grad": (
        importlib.import_module("nablachain.classify"),
        "ANNIHILATING_PAIRS",
        ((Operator.DIV, Operator.CURL),),
        (0, 0, 3, 0),
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_some_suite(mutant, monkeypatch, capsys):
    target, binding, replacement, expected = MUTANTS[mutant]
    if isinstance(target, dict):
        monkeypatch.setitem(target, binding, replacement)
    else:
        monkeypatch.setattr(target, binding, replacement, raising=False)
    suites = sorted(verify.SUITES)
    codes = tuple(main(["verify", "--suite", suite, "--trials", "5"]) for suite in suites)
    capsys.readouterr()
    assert suites == ["associativity", "examples", "identities", "oracle"]
    assert codes == expected, dict(zip(suites, codes))


def test_one_patch_reaches_the_collection_iterates(monkeypatch):
    # Iterates that never vanish: no collection order can resolve.
    monkeypatch.setitem(fields._OPERATORS, Operator.CURL, lambda v: v)
    monkeypatch.setattr(fields, "laplacian", lambda f: f)
    x1 = Polynomial.variable(1)
    rotation = VectorField(-Polynomial.variable(2), x1, Polynomial.zero())
    for kind, field in [(CollectionKind.HARMONIC, x1), (CollectionKind.CURLING, rotation),
                        (CollectionKind.VECTOR_HARMONIC, rotation)]:
        assert collection_order(kind, field, 4) == ExceedsBound(4)
