import json

import pytest

from taurank.fields import QQ, PrimeField, SeedStream
from taurank.io import (
    ModuleFormatError,
    load_module_file,
    module_from_dict,
    module_from_expr,
    module_to_dict,
)
from taurank.reps import injective, iso_test, projective

from helpers import conjugate


def test_roundtrip_fractions(alg_b, tmp_path):
    data = {
        "algebra": "ALG-B",
        "dim": [1, 1, 0],
        "arrows": {"a": [["1/2"]]},
    }
    m = module_from_dict(alg_b, data)
    assert m.arrows["a"].rows[0][0] == QQ.from_fraction("1/2")
    path = tmp_path / "m.mod.json"
    path.write_text(json.dumps(module_to_dict(m)))
    m2 = load_module_file(alg_b, path)
    assert m2 == m
    assert json.loads(path.read_text())["arrows"]["a"] == [["1/2"]]


def test_roundtrip_conjugated_projective(alg_a, tmp_path):
    m = conjugate(projective(alg_a, 3), SeedStream(9))
    path = tmp_path / "p3c.mod.json"
    path.write_text(json.dumps(module_to_dict(m)))
    m2 = load_module_file(alg_a, path)
    assert iso_test(m2, projective(alg_a, 3))


def test_relation_violation_rejected(alg_b):
    data = {"dim": [1, 1, 1], "arrows": {"a": [[1]], "b": [[1]]}}
    with pytest.raises(AssertionError):
        module_from_dict(alg_b, data)


def test_bad_dim_vector_rejected(alg_b):
    with pytest.raises(ModuleFormatError):
        module_from_dict(alg_b, {"dim": [1, 1]})
    with pytest.raises(ModuleFormatError):
        module_from_dict(alg_b, {"dim": [1, -1, 0]})


def test_boolean_dim_and_entries_rejected(alg_b):
    with pytest.raises(ModuleFormatError, match="'dim'"):
        module_from_dict(alg_b, {"dim": [True, 0, 0]})
    with pytest.raises(ModuleFormatError, match="True"):
        module_from_dict(alg_b, {"dim": [1, 1, 0], "arrows": {"a": [[True]]}})
    # a JSON 1 is still an entry
    assert module_from_dict(alg_b, {"dim": [1, 1, 0], "arrows": {"a": [[1]]}}).arrows["a"].rows == [[1]]


def test_non_object_module_file_rejected(alg_b):
    for data in (5, "dim", [1, 1, 0]):
        with pytest.raises(ModuleFormatError):
            module_from_dict(alg_b, data)


def test_bad_matrix_shape_rejected(alg_b):
    data = {"dim": [1, 1, 0], "arrows": {"a": [[1, 2]]}}
    with pytest.raises(ModuleFormatError):
        module_from_dict(alg_b, data)


def test_unknown_arrow_rejected(alg_b):
    data = {"dim": [1, 1, 0], "arrows": {"zz": [[1]]}}
    with pytest.raises(ModuleFormatError):
        module_from_dict(alg_b, data)


def test_unknown_key_rejected(alg_b):
    # a misspelled "arrows" must not load as the module with no arrows
    for data in ({"dim": [1, 1, 0], "arrow": {"a": [[1]]}},
                 {"dim": [1, 1, 0], "arrows": {"a": [[1]]}, "field": "Q"}):
        with pytest.raises(ModuleFormatError, match="unknown key"):
            module_from_dict(alg_b, data)
    # "algebra" is an informational key
    data = {"algebra": "ALG-B", "dim": [1, 1, 0], "arrows": {"a": [[1]]}}
    assert module_from_dict(alg_b, data).arrows["a"].rows == [[1]]


def test_expr_parsing(alg_b):
    m = module_from_expr(alg_b, "S(2) + S(3)")
    assert m.dims == (0, 1, 1)
    m = module_from_expr(alg_b, "P(2)^2+I(1)")
    assert m.dims == tuple(
        2 * a + b
        for a, b in zip(projective(alg_b, 2).dims, injective(alg_b, 1).dims)
    )
    with pytest.raises(ModuleFormatError):
        module_from_expr(alg_b, "Q(1)")
    with pytest.raises(ModuleFormatError):
        module_from_expr(alg_b, "S(9)")


def test_prime_field_module(alg_b):
    f = PrimeField(13)
    data = {"dim": [1, 1, 0], "arrows": {"a": [["1/2"]]}}
    m = module_from_dict(alg_b, data, field=f)
    assert m.arrows["a"].rows[0][0] == pow(2, -1, 13)
