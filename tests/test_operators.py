import pytest

from nablachain.operators import (
    MEANINGLESS,
    Chain,
    Meaningful,
    Meaningless,
    Operator,
    Sort,
    chain,
    chain_signature,
    compose_signatures,
)


def test_operator_signatures():
    assert (Operator.GRAD.domain, Operator.GRAD.codomain) == (Sort.SCALAR, Sort.VECTOR)
    assert (Operator.CURL.domain, Operator.CURL.codomain) == (Sort.VECTOR, Sort.VECTOR)
    assert (Operator.DIV.domain, Operator.DIV.codomain) == (Sort.VECTOR, Sort.SCALAR)


def test_domain_codomain_properties():
    assert Operator.GRAD.domain is Sort.SCALAR
    assert Operator.GRAD.codomain is Sort.VECTOR
    assert Operator.DIV.codomain is Sort.SCALAR


@pytest.mark.parametrize(
    "outer, inner, expected",
    [
        (Operator.DIV, Operator.GRAD, Meaningful(Sort.SCALAR, Sort.SCALAR)),
        (Operator.CURL, Operator.GRAD, Meaningful(Sort.SCALAR, Sort.VECTOR)),
        (Operator.GRAD, Operator.DIV, Meaningful(Sort.VECTOR, Sort.VECTOR)),
        (Operator.CURL, Operator.CURL, Meaningful(Sort.VECTOR, Sort.VECTOR)),
        (Operator.DIV, Operator.CURL, Meaningful(Sort.VECTOR, Sort.SCALAR)),
        (Operator.GRAD, Operator.GRAD, MEANINGLESS),
        (Operator.GRAD, Operator.CURL, MEANINGLESS),
        (Operator.DIV, Operator.DIV, MEANINGLESS),
        (Operator.CURL, Operator.DIV, MEANINGLESS),
    ],
)
def test_compose_pair(outer, inner, expected):
    assert chain_signature(chain(outer, inner)) == expected


def test_compose_signatures_absorbs_meaningless():
    good = Meaningful(Sort.SCALAR, Sort.VECTOR)
    assert compose_signatures(MEANINGLESS, good) == MEANINGLESS
    assert compose_signatures(good, MEANINGLESS) == MEANINGLESS
    assert compose_signatures(MEANINGLESS, MEANINGLESS) == MEANINGLESS


def test_compose_signatures_checks_interface():
    grad_sig = Meaningful(Sort.SCALAR, Sort.VECTOR)
    div_sig = Meaningful(Sort.VECTOR, Sort.SCALAR)
    assert compose_signatures(div_sig, grad_sig) == Meaningful(Sort.SCALAR, Sort.SCALAR)
    assert compose_signatures(grad_sig, grad_sig) == MEANINGLESS


def test_chain_signature_examples():
    assert chain_signature(chain(Operator.DIV, Operator.CURL, Operator.GRAD)) == Meaningful(
        Sort.SCALAR, Sort.SCALAR
    )
    assert chain_signature(chain(Operator.GRAD, Operator.GRAD)) == MEANINGLESS
    assert chain_signature(chain(Operator.CURL)) == Meaningful(Sort.VECTOR, Sort.VECTOR)


def test_chain_rejects_empty():
    with pytest.raises(ValueError):
        Chain(())


def test_chain_rejects_non_operators():
    with pytest.raises(TypeError):
        Chain(("grad",))


def test_chain_coerces_sequences():
    c = Chain([Operator.DIV, Operator.GRAD])
    assert isinstance(c.ops, tuple)
    assert len(c) == 2
    assert list(c) == [Operator.DIV, Operator.GRAD]
    assert c[0] is Operator.DIV
    assert c.outermost is Operator.DIV
    assert c.innermost is Operator.GRAD


def test_chains_hash_and_compare_by_content():
    a = chain(Operator.CURL, Operator.CURL)
    b = Chain((Operator.CURL, Operator.CURL))
    assert a == b
    assert hash(a) == hash(b)
    assert a != chain(Operator.CURL)


def test_meaningless_is_a_singleton_value():
    assert Meaningless() == MEANINGLESS
    assert Meaningful(Sort.SCALAR, Sort.SCALAR) != MEANINGLESS
