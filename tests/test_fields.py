import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nablachain.fields
from nablachain.errors import (
    FieldFormatError,
    MeaninglessChainError,
    SortMismatchError,
    TermLimitError,
)
from nablachain.fields import (
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
from nablachain.operators import Chain, Operator, Sort, chain

G, C, D = Operator.GRAD, Operator.CURL, Operator.DIV

x1 = Polynomial.variable(1)
x2 = Polynomial.variable(2)
x3 = Polynomial.variable(3)


@st.composite
def polynomials(draw, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(3))
        terms[e] = terms.get(e, 0) + draw(st.integers(-9, 9))
    return Polynomial(terms)


@st.composite
def vector_fields(draw):
    return VectorField(draw(polynomials()), draw(polynomials()), draw(polynomials()))


# -- construction and arithmetic ---------------------------------------------


def test_zero_coefficients_are_dropped():
    p = Polynomial({(1, 0, 0): 0, (0, 1, 0): 2})
    assert p == 2 * x2
    assert p.terms == {(0, 1, 0): Fraction(2)}


def test_integral_coefficients_are_ints():
    p = Polynomial({(1, 0, 0): 3, (0, 1, 0): Fraction(6, 2), (0, 0, 1): Fraction(1, 2)})
    assert type(p.terms[(1, 0, 0)]) is int
    assert type(p.terms[(0, 1, 0)]) is int
    assert type(p.terms[(0, 0, 1)]) is Fraction


def test_terms_is_read_only():
    p = x1 * x1 + x2 * Fraction(1, 2)
    before, before_hash = dict(p.terms), hash(p)
    with pytest.raises(TypeError):
        p.terms[(1, 0, 0)] = 1
    with pytest.raises(TypeError):
        del p.terms[(2, 0, 0)]
    assert dict(p.terms) == before and hash(p) == before_hash
    assert p == x1 * x1 + x2 * Fraction(1, 2)


def test_coefficients_are_stored_canonically():
    # == and hash treat n and Fraction(n) alike, so only the stored map shows
    # whether an integral result was reduced to int.
    half = Fraction(1, 2)
    h = x1 * x1 * half + x2 * Fraction(1, 3)
    v = VectorField(x1 * x1 * half + x3 * x3 * half, x2 * x2 * half, x1 * x1 * Fraction(1, 3))
    results = [
        Polynomial({(1, 0, 0): Fraction(4, 2), (0, 1, 0): half}),
        loads_field('{"kind": "scalar", "terms": [{"c": "4/2", "e": [1, 0, 0]}, {"c": "1/3", "e": [0, 1, 0]}]}'),
        h * 3,
        x1 * half + x1 * half,
        h.partial(1),
        curl(v).f2,
        div(v),
        laplacian(h),
    ]
    # Each result has an integral coefficient reached through Fraction arithmetic.
    for p in results:
        stored = p.terms.values()
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in stored), p
        assert any(type(c) is int for c in stored), p


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        Polynomial({(0, 0, 0): 0.5})


def test_bad_exponents_are_rejected():
    with pytest.raises(ValueError):
        Polynomial({(1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial({(-1, 0, 0): 1})


def test_constructors():
    assert Polynomial.zero().is_zero
    assert Polynomial.constant(Fraction(3, 2)).eval((0, 0, 0)) == Fraction(3, 2)
    assert Polynomial.monomial((2, 0, 1), 4) == 4 * x1 * x1 * x3
    assert Polynomial.variable(2) == x2


def test_degree():
    assert Polynomial.zero().degree() == -1
    assert Polynomial.constant(5).degree() == 0
    assert (x1 * x2 * x2 + x3).degree() == 3


def test_arithmetic_examples():
    p = x1 + x2
    assert p - x2 == x1
    assert -p == Polynomial({(1, 0, 0): -1, (0, 1, 0): -1})
    assert p * p == x1 * x1 + 2 * x1 * x2 + x2 * x2
    assert p**0 == Polynomial.constant(1)
    assert p**2 == p * p
    assert Fraction(1, 2) * (2 * x1) == x1


@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero() == p
    assert p * Polynomial.constant(1) == p


@given(polynomials())
def test_subtraction_of_self_is_zero(p):
    assert (p - p).is_zero


def test_partial_derivative_examples():
    assert (x1 * x1 * x2).partial(1) == 2 * x1 * x2
    assert Polynomial({(2, 0, 1): Fraction(3, 2)}).partial(1) == 3 * x1 * x3
    assert Polynomial.constant(7).partial(3).is_zero
    assert (x1 * x1 * x2).partial(3).is_zero


def test_partial_rejects_bad_axis():
    with pytest.raises(ValueError):
        x1.partial(0)


@given(polynomials(), polynomials())
def test_partial_is_linear_and_leibniz(p, q):
    assert (p + q).partial(1) == p.partial(1) + q.partial(1)
    assert (p * q).partial(2) == p.partial(2) * q + p * q.partial(2)


# -- differential operators --------------------------------------------------


def test_grad_example():
    assert grad(x1 * x1) == VectorField(2 * x1, Polynomial.zero(), Polynomial.zero())


def test_curl_example():
    rot = VectorField(-x2, x1, Polynomial.zero())
    assert curl(rot) == VectorField(
        Polynomial.zero(), Polynomial.zero(), Polynomial.constant(2)
    )


def test_div_example():
    assert div(VectorField(x1, x2, x3)) == Polynomial.constant(3)


def test_laplacian_equals_div_of_grad():
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    assert laplacian(r2) == Polynomial.constant(6)
    for p in (r2, x1 * x2 * x3, (x1 + x2) ** 3):
        assert laplacian(p) == div(grad(p))


def test_vector_laplacian_is_componentwise():
    v = VectorField(x1 * x1, x2 * x2, Polynomial.zero())
    assert vector_laplacian(v) == VectorField(
        Polynomial.constant(2), Polynomial.constant(2), Polynomial.zero()
    )


@given(polynomials(max_exp=2), polynomials(max_exp=2))
def test_operators_are_linear(p, q):
    assert grad(p + q) == grad(p) + grad(q)
    u = VectorField(p, q, p * q)
    w = VectorField(q, p, p + q)
    assert curl(u + w) == curl(u) + curl(w)
    assert div(u + w) == div(u) + div(w)


@given(polynomials())
def test_grad_drops_degree_by_exactly_one(p):
    if p.degree() < 1:
        return
    out = grad(p)
    assert not out.is_zero
    assert max(c.degree() for c in out.components) == p.degree() - 1


@given(vector_fields())
def test_curl_and_div_drop_degree_or_vanish(v):
    before = max(c.degree() for c in v.components)
    rotated = curl(v)
    if not rotated.is_zero:
        assert max(c.degree() for c in rotated.components) <= before - 1
    spread = div(v)
    if not spread.is_zero:
        assert spread.degree() <= before - 1


def test_apply_operator_checks_sort():
    with pytest.raises(SortMismatchError) as err:
        apply_chain(chain(G), VectorField.zero())
    assert "expected scalar input, got vector" in str(err.value)
    with pytest.raises(SortMismatchError):
        apply_chain(chain(D), x1)


@pytest.mark.parametrize(
    "operator, wrong",
    [(grad, VectorField.zero()), (curl, x1), (div, x1), (laplacian, VectorField.zero()), (vector_laplacian, x1)],
    ids=["grad", "curl", "div", "laplacian", "vector_laplacian"],
)
def test_operator_rejects_the_other_sort(operator, wrong):
    with pytest.raises(SortMismatchError, match=f"^{operator.__name__}: expected"):
        operator(wrong)


def test_apply_chain_examples():
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    assert apply_chain(Chain((D, G)), r2) == Polynomial.constant(6)
    assert apply_chain(Chain((C, G)), x1 * x1 * x2).is_zero


def test_apply_chain_rejects_meaningless_before_sort():
    with pytest.raises(MeaninglessChainError):
        apply_chain(Chain((G, G)), VectorField.zero())


def test_apply_chain_rejects_wrong_input_sort():
    with pytest.raises(SortMismatchError):
        apply_chain(Chain((D, G)), VectorField.zero())


def test_sort_of():
    assert sort_of(x1) is Sort.SCALAR
    assert sort_of(VectorField.zero()) is Sort.VECTOR
    with pytest.raises(TypeError):
        sort_of("field")


# -- evaluation --------------------------------------------------------------


def test_eval_examples():
    assert (x1 * x1 * x2).eval((2, 3, 0)) == 12
    assert VectorField.zero().eval((5, 5, 5)) == (0, 0, 0)
    assert grad(x1 * x1).eval((Fraction(1, 2), 0, 0)) == (1, 0, 0)


def test_eval_is_exact_on_rationals():
    p = Polynomial({(1, 0, 0): Fraction(1, 3)})
    assert p.eval((Fraction(1, 7), 0, 0)) == Fraction(1, 21)


# -- vector field algebra ----------------------------------------------------


def test_vector_field_operations():
    u = VectorField(x1, x2, x3)
    w = VectorField(x2, x3, x1)
    assert (u + w) - w == u
    assert -u == VectorField(-x1, -x2, -x3)
    assert 2 * u == VectorField(2 * x1, 2 * x2, 2 * x3)
    assert x1 * u == u * x1
    assert u.components == (x1, x2, x3)
    assert not u.is_zero
    assert VectorField.zero().is_zero


# -- term budget -------------------------------------------------------------


def test_term_limit_is_enforced(monkeypatch):
    monkeypatch.setattr(nablachain.fields, "MAX_TERMS", 4)
    a = x1 + x2 + x3 + Polynomial.constant(1)
    with pytest.raises(TermLimitError):
        a * (x1 + Polynomial.constant(1))


def test_term_limit_applies_to_construction(monkeypatch):
    monkeypatch.setattr(nablachain.fields, "MAX_TERMS", 2)
    with pytest.raises(TermLimitError):
        Polynomial({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})


# -- repr --------------------------------------------------------------------


def test_repr_is_readable():
    assert repr(Polynomial.zero()) == "0"
    assert repr(x1 - x2) == "x1 - x2"
    assert repr(Polynomial({(2, 0, 1): Fraction(3, 2)})) == "3/2*x1^2*x3"
    assert repr(-x3) == "-x3"


# -- JSON exchange -----------------------------------------------------------


def test_scalar_json_round_trip():
    p = Polynomial({(2, 0, 1): Fraction(3, 2), (0, 0, 0): -4})
    doc = json.loads(dumps_field(p))
    assert doc["kind"] == "scalar"
    assert loads_field(json.dumps(doc)) == p
    assert loads_field(dumps_field(p)) == p


def test_vector_json_round_trip():
    v = VectorField(x1 * x2, Polynomial.zero(), Polynomial.constant(Fraction(-1, 3)))
    assert loads_field(json.dumps(json.loads(dumps_field(v)))) == v
    assert loads_field(dumps_field(v)) == v


@given(polynomials())
def test_json_round_trip_property(p):
    assert loads_field(dumps_field(p)) == p


def test_zero_fields_serialize_to_empty_terms():
    assert json.loads(dumps_field(Polynomial.zero())) == {"kind": "scalar", "terms": []}
    assert json.loads(dumps_field(VectorField.zero()))["components"] == [[], [], []]


@pytest.mark.parametrize("value", [5, None, "x1", [x1, x2, x3]])
def test_dumps_field_rejects_non_fields(value):
    with pytest.raises(TypeError, match="not a field value"):
        dumps_field(value)


def test_missing_terms_mean_zero():
    assert loads_field(json.dumps({"kind": "scalar"})).is_zero
    assert loads_field(json.dumps({"kind": "vector"})).is_zero


def test_duplicate_exponent_triples_are_rejected():
    doc = {
        "kind": "scalar",
        "terms": [{"c": "1", "e": [1, 0, 0]}, {"c": "2", "e": [1, 0, 0]}],
    }
    with pytest.raises(FieldFormatError):
        loads_field(json.dumps(doc))


@pytest.mark.parametrize(
    "doc",
    [
        {"terms": []},
        {"kind": "matrix"},
        {"kind": "scalar", "terms": [{"c": "1"}]},
        {"kind": "scalar", "terms": [{"c": "1", "e": [1, 0]}]},
        {"kind": "scalar", "terms": [{"c": "1", "e": [1, 0, -1]}]},
        {"kind": "scalar", "terms": [{"c": 1, "e": [1, 0, 0]}]},
        {"kind": "scalar", "terms": [{"c": "one", "e": [1, 0, 0]}]},
        {"kind": "scalar", "terms": [{"c": "1/0", "e": [1, 0, 0]}]},
        {"kind": "vector", "components": [[], []]},
        {"kind": "vector", "components": "nope"},
        {"kind": "scalar", "terms": [{"c": "1e5000", "e": [1, 0, 0]}]},
        {"kind": "scalar", "terms": [{"c": "1.5", "e": [1, 0, 0]}]},
        {"kind": "scalar", "terms": [{"c": "+1", "e": [1, 0, 0]}]},
        {"kind": "scalar", "terms": [{"c": " 2 ", "e": [1, 0, 0]}]},
        {"kind": "scalar", "terms": [{"c": "1_000", "e": [1, 0, 0]}]},
        {"kind": "scalar", "terms": None},
        {"kind": "vector", "components": None},
        {"kind": "vector", "components": [None, [], []]},
    ],
)
def test_malformed_documents_are_rejected(doc):
    with pytest.raises(FieldFormatError):
        loads_field(json.dumps(doc))


def test_reducible_ratio_decodes_to_an_integer():
    p = loads_field(json.dumps({"kind": "scalar", "terms": [{"c": "4/2", "e": [1, 0, 0]}]}))
    assert p == Polynomial.monomial((1, 0, 0), 2)
    assert json.loads(dumps_field(p))["terms"] == [{"c": "2", "e": [1, 0, 0]}]


def test_loads_field_rejects_bad_json():
    with pytest.raises(FieldFormatError):
        loads_field("{not json")


def test_dumped_json_is_valid_json():
    text = dumps_field(grad(x1 * x1 * x2))
    assert json.loads(text)["kind"] == "vector"


# -- booleans are not integers -----------------------------------------------


@pytest.mark.parametrize("terms", [{(True, 0, 0): 1}, {(1, 0, False): 1}])
def test_boolean_exponents_are_rejected(terms):
    with pytest.raises(ValueError):
        Polynomial(terms)


def test_boolean_coefficients_are_rejected():
    with pytest.raises(TypeError):
        Polynomial({(1, 0, 0): True})
    with pytest.raises(TypeError):
        x1 * True


def test_boolean_powers_are_rejected():
    with pytest.raises(ValueError):
        x1 ** True
    with pytest.raises(ValueError):
        x1 ** False


@pytest.mark.parametrize("exps", ["[true, 0, 0]", "[1, 0, false]"])
def test_boolean_exponents_are_rejected_by_the_decoder(exps):
    with pytest.raises(FieldFormatError):
        loads_field('{"kind": "scalar", "terms": [{"c": "1", "e": %s}]}' % exps)


def test_vector_field_components_must_be_polynomials():
    with pytest.raises(TypeError):
        VectorField(1, 2, 3)
    with pytest.raises(TypeError):
        VectorField(x1, x2, "x3")


# -- named constructors validate like the public constructor -----------------


@pytest.mark.parametrize("value", [0.1, "1/3", True])
def test_constant_and_monomial_reject_non_rational_coefficients(value):
    with pytest.raises(TypeError):
        Polynomial.constant(value)
    with pytest.raises(TypeError):
        Polynomial.monomial((1, 0, 0), value)


@pytest.mark.parametrize("axis", [1.0, "1", True])
def test_variable_and_partial_reject_non_int_axes(axis):
    with pytest.raises(ValueError):
        Polynomial.variable(axis)
    with pytest.raises(ValueError):
        x1.partial(axis)


# -- the decoder accepts only the documented keys ----------------------------


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "scalar", "components": [[], [], []], "terms": [{"c": "1", "e": [0, 0, 0]}]}',
        '{"kind": "vector", "terms": [{"c": "1", "e": [0, 0, 0]}]}',
        '{"kind": "scalar", "terms": [{"c": "1", "e": [0, 0, 0], "x": 5}]}',
        '{"kind": "vector", "components": [[], [], [{"c": "1", "e": [0, 0, 0], "c2": "2"}]]}',
    ],
    ids=["scalar-document", "vector-document", "scalar-term", "vector-term"],
)
def test_unknown_keys_are_rejected(text):
    with pytest.raises(FieldFormatError):
        loads_field(text)


def test_deeply_nested_json_is_a_format_error():
    with pytest.raises(FieldFormatError, match="nested too deeply"):
        loads_field("[" * 100000)


# -- a repeated key is rejected at any level ---------------------------------


REPEATED_C = '{"kind": "scalar", "terms": [{"c": "1", "e": [2, 0, 0], "c": "2"}]}'


@pytest.mark.parametrize(
    "text",
    [
        REPEATED_C,
        '{"kind": "scalar", "kind": "vector"}',
        '{"kind": "scalar", "terms": [], "terms": [{"c": "1", "e": [0, 0, 0]}]}',
        '{"kind": "vector", "components": [[{"e": [0, 0, 0], "e": [1, 0, 0]}], [], []]}',
    ],
    ids=["term-c", "kind", "terms", "vector-term-e"],
)
def test_repeated_keys_are_rejected(text):
    with pytest.raises(FieldFormatError):
        loads_field(text)


def test_json_integer_past_the_digit_limit_is_a_format_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter does not limit int-from-str conversion")
    digits = "9" * max(5000, limit + 1)
    with pytest.raises(FieldFormatError):
        loads_field('{"kind": "scalar", "terms": [{"c": "1", "e": [%s, 0, 0]}]}' % digits)


def test_keys_decode_in_any_order():
    text = '{"terms": [{"e": [2, 0, 0], "c": "3"}, {"c": "-1", "e": [0, 1, 0]}], "kind": "scalar"}'
    assert loads_field(text) == Polynomial({(2, 0, 0): 3, (0, 1, 0): -1})


# -- the decoder is total ----------------------------------------------------

# Arbitrary JSON values, with every slot of the field format either well
# formed or anything at all, so that both outcomes are reached.
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(["scalar", "vector", "1", "-2/3"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "terms", "components", "c", "e"]) | st.text(max_size=3),
                      inner, max_size=3),
    max_leaves=6,
)


def _mostly(well_formed):
    return st.sampled_from([True, True, True, False]).flatmap(lambda ok: well_formed if ok else _ANY_JSON)


_TERMS_JSON = _mostly(st.lists(
    _mostly(st.fixed_dictionaries({
        "c": _mostly(st.integers().map(str) | st.tuples(st.integers(), st.integers()).map("{0[0]}/{0[1]}".format)),
        "e": _mostly(st.lists(st.integers(0, 4), min_size=3, max_size=3)),
    })),
    max_size=4,
))
_FIELD_JSON = _mostly(
    st.fixed_dictionaries({"kind": st.just("scalar")}, optional={"terms": _TERMS_JSON})
    | st.fixed_dictionaries(
        {"kind": st.just("vector")}, optional={"components": _mostly(st.lists(_TERMS_JSON, min_size=3, max_size=3))}
    )
    | st.fixed_dictionaries({"kind": _ANY_JSON}, optional={"terms": _ANY_JSON, "components": _ANY_JSON})
)
# Short texts over the format's JSON tokens, alone or spliced into a
# canonical document; only text can repeat a key.
_JSON_TOKENS = st.lists(
    st.sampled_from(
        ["{", "}", "[", "]", ",", ":", " ", '"kind"', '"scalar"', '"vector"', '"terms"', '"components"',
         '"c"', '"e"', '"1"', '"1/2"', "0", "2", "-1", "1e400", "true", "null", '"c": "2", ', '"kind": "vector", ']
    ),
    max_size=12,
).map("".join)


@st.composite
def _spliced_documents(draw):
    text = dumps_field(draw(polynomials(max_terms=2) | vector_fields()))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 6)))
    return text[:start] + draw(_JSON_TOKENS) + text[end:]


def _assert_accepted_exactly_or_rejected(text):
    try:
        f = loads_field(text)
    except FieldFormatError:
        return
    canonical = dumps_field(f)
    assert loads_field(canonical) == f
    assert dumps_field(loads_field(canonical)) == canonical


@settings(max_examples=200, deadline=None)
@given(_FIELD_JSON.map(json.dumps))
def test_decoder_is_total_on_json_values(text):
    _assert_accepted_exactly_or_rejected(text)


@settings(max_examples=200, deadline=None)
@given(_JSON_TOKENS | _spliced_documents())
def test_decoder_is_total_on_json_texts(text):
    _assert_accepted_exactly_or_rejected(text)
