import pytest

from burnfuse.burnside import basis, element, single
from burnfuse.errors import InputError
from burnfuse.fusion import characteristic_idempotent, fusion_system
from burnfuse.groups import parse_group
from burnfuse.serialize import (dump_json, element_from_json, element_to_json,
                                stable_to_json)

S3 = parse_group("S3")
S4 = parse_group("S4")


def test_integer_round_trip():
    x = element(S3, S4, {b: i - 2 for i, b in enumerate(basis(S3, S4))})
    assert element_from_json(element_to_json(x)) == x


def test_padic_round_trip():
    x = element(S3, S3, {b: 1 for b in basis(S3, S3)}).lift(2, 6)
    data = element_to_json(x)
    assert data["scalars"] == {"p": 2, "k": 6}
    assert element_from_json(data) == x


def test_json_bytes_stable():
    x = single(basis(S3, S3)[2])
    first = dump_json(element_to_json(x))
    again = dump_json(element_to_json(element_from_json(element_to_json(x))))
    assert first == again


def test_loader_canonicalizes_conjugate_presentations():
    # the subgroup generated by another transposition is conjugate to the
    # canonical one; the loader must fold it onto the same class
    data = {
        "source": "S3", "target": "S3", "scalars": "int",
        "terms": [{"K": ["(1 2)"], "phi": [["(1 2)", "(1 2)"]], "coeff": "1"}],
    }
    x = element_from_json(data)
    b = x.support()[0]
    assert b.K.order == 2
    data2 = {
        "source": "S3", "target": "S3", "scalars": "int",
        "terms": [{"K": ["(1 3)"], "phi": [["(1 3)", "(1 3)"]], "coeff": "1"}],
    }
    assert element_from_json(data2) == x


def test_loader_rejects_non_homomorphism():
    # sending an order-3 generator to an order-2 element is no homomorphism
    data = {
        "source": "S3", "target": "S3", "scalars": "int",
        "terms": [{"K": ["(1 2 3)"], "phi": [["(1 2 3)", "(1 2)"]],
                   "coeff": "1"}],
    }
    with pytest.raises(InputError):
        element_from_json(data)


def test_loader_accepts_a_generator_repeated_with_one_image():
    # a repeat is malformed only when its images differ (test_cli)
    once = {"K": ["(1 2)"], "phi": [["(1 2)", "(1 2)"]], "coeff": "1"}
    twice = {"K": ["(1 2)"] * 2, "phi": once["phi"] * 2, "coeff": "1"}
    data = {"source": "S3", "target": "S3", "scalars": "int"}
    assert element_from_json(data | {"terms": [twice]}) == \
        element_from_json(data | {"terms": [once]})


def test_loader_rejects_malformed():
    with pytest.raises(InputError):
        element_from_json({"source": "S3"})
    with pytest.raises(InputError):
        element_from_json({"source": "S3", "target": "S3",
                           "scalars": {"p": 2}, "terms": []})
    bad_gen = {
        "source": "C2", "target": "C2", "scalars": "int",
        "terms": [{"K": ["(1 2 3)"], "phi": [["(1 2 3)", "()"]],
                   "coeff": "1"}],
    }
    from burnfuse.errors import BurnfuseError
    with pytest.raises(BurnfuseError):
        element_from_json(bad_gen)


def test_stable_round_trip():
    F = fusion_system(S3, 3)
    w = characteristic_idempotent(F, 4)
    data = stable_to_json(w)
    assert data["leftFusion"] == {"group": "S3", "p": 3}
    assert data["rightFusion"] == {"group": "S3", "p": 3}
    assert element_from_json(data) == w.underlying
