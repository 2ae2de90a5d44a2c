import importlib
import types

import pytest

import nablachain

# Each restated another public spelling or route, whose survivor README names,
# graded one identity that a verify check of the examples suite now states,
# or was a hand-written harmonic table or draw that corpus.harmonic_basis replaced.
REMOVED = {
    "ScalarField": "fields",
    "is_zero": "fields",
    "eval_at": "fields",
    "apply_operator": "fields",
    "field_to_json": "fields",
    "field_from_json": "fields",
    "annihilates": "collections",
    "signature": "operators",
    "compose_pair": "operators",
    "SampledField": "fdcheck",
    "as_sampled": "fdcheck",
    "fd_apply": "fdcheck",
    "fd_first_order": "fdcheck",
    "fd_partial": "fdcheck",
    "check_coordinate_multiple": "collections",
    "check_squared_coordinate_multiple": "collections",
    "check_vector_harmonic_swap": "collections",
    "third_order_annihilation_report": "collections",
    "NotInCollectionError": "errors",
    "HARMONIC_BASIS": "corpus",
    "random_vector_harmonic_field": "corpus",
    "random_harmonic_polynomial": "corpus",
    "random_polyharmonic_of_order": "corpus",
}


def test_all_is_sorted_and_unique():
    assert nablachain.__all__ == sorted(set(nablachain.__all__))


def test_all_names_the_public_attributes():
    for name in nablachain.__all__:
        assert hasattr(nablachain, name), name
    public = {
        name
        for name, value in vars(nablachain).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(nablachain.__all__)


@pytest.mark.parametrize("name, module", sorted(REMOVED.items()))
def test_removed_spellings_are_gone(name, module):
    assert not hasattr(nablachain, name)
    assert not hasattr(importlib.import_module(f"nablachain.{module}"), name)


def test_fields_evaluate_only_exactly():
    # Float sampling lives in fdcheck alone; a VectorField's components are read as .components.
    assert not hasattr(nablachain.Polynomial, "eval_float")
    assert not hasattr(nablachain.VectorField, "eval_float")
    assert not hasattr(nablachain.VectorField, "__iter__")
