"""Engine mutants must be caught: each one makes some verify suite exit 3.

Every mutant is installed with one patch at the single binding its
operator has (``fields._OPERATORS`` for grad, curl and div, the
``fields.laplacian`` attribute for the laplacian), which is enough to
reach every caller in the package.  No suite may exit with anything but
0 or 3 under a mutant: a broken engine is a violation, not bad input.
"""

import pytest

from nablachain import fields, verify
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


MUTANTS = {
    "laplacian n*n": ("laplacian", _laplacian_n_squared),
    "div without x3": (Operator.DIV, _div_without_x3),
    "curl components 2 and 3 swapped": (Operator.CURL, _curl_swapped_23),
    "grad doubled": (Operator.GRAD, _grad_doubled),
    "grad components 1 and 2 swapped": (Operator.GRAD, _grad_swapped_12),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_some_suite(mutant, monkeypatch, capsys):
    binding, replacement = MUTANTS[mutant]
    if binding == "laplacian":
        monkeypatch.setattr(fields, "laplacian", replacement)
    else:
        monkeypatch.setitem(fields._OPERATORS, binding, replacement)
    codes = {suite: main(["verify", "--suite", suite, "--trials", "5"]) for suite in sorted(verify.SUITES)}
    capsys.readouterr()
    assert set(codes.values()) <= {0, 3}, codes
    assert 3 in codes.values(), codes


def test_one_patch_reaches_the_collection_iterates(monkeypatch):
    # Iterates that never vanish: no collection order can resolve.
    monkeypatch.setitem(fields._OPERATORS, Operator.CURL, lambda v: v)
    monkeypatch.setattr(fields, "laplacian", lambda f: f)
    x1 = Polynomial.variable(1)
    rotation = VectorField(-Polynomial.variable(2), x1, Polynomial.zero())
    for kind, field in [(CollectionKind.HARMONIC, x1), (CollectionKind.CURLING, rotation),
                        (CollectionKind.VECTOR_HARMONIC, rotation)]:
        assert collection_order(kind, field, 4) == ExceedsBound(4)
