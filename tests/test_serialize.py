import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from burnfuse.burnside import basis, element, single
from burnfuse.cli import run
from burnfuse.errors import InputError
from burnfuse.fusion import characteristic_idempotent, fusion_system
from burnfuse.groups import parse_group
from burnfuse.perms import cycle_string, p_inv, p_mul
from burnfuse.serialize import (class_to_json, dump_json, element_from_json,
                                element_to_json, stable_to_json)

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


def s3_term(K, phi):
    return {"source": "S3", "target": "S3", "scalars": "int",
            "terms": [{"K": K, "phi": phi, "coeff": "1"}]}


@pytest.mark.parametrize("written,canonical", [
    # a rotated cycle
    (s3_term(["(2 3 1)"], [["(3 1 2)", "(2 1 3)"]]),
     s3_term(["(1 2 3)"], [["(1 2 3)", "(1 3 2)"]])),
    # a written fixed point, and cycles out of order
    (s3_term(["(1 2)(3)"], [["(3)(2 1)", "(3)(1 2)"]]),
     s3_term(["(1 2)"], [["(1 2)", "(1 2)"]])),
    # the same K = S3 by other generators
    (s3_term(["(1 3)", "(2 3)"], [["(1 3)", "()"], ["(2 3)", "()"]]),
     s3_term(["(2 3)", "(1 2 3)"], [["(2 3)", "()"], ["(1 2 3)", "()"]])),
])
def test_loader_reads_non_canonical_cycle_strings(written, canonical):
    x = element_from_json(written)
    assert x == element_from_json(canonical)
    assert dump_json(element_to_json(x)) == \
        dump_json(element_to_json(element_from_json(canonical)))


MALFORMED = [
    {"source": "S3"},
    {"source": "S3", "target": "S3", "scalars": {"p": 2}, "terms": []},
    # point 3 in a group of degree 2
    {"source": "C2", "target": "C2", "scalars": "int",
     "terms": [{"K": ["(1 2 3)"], "phi": [["(1 2 3)", "()"]], "coeff": "1"}]},
    # an out-of-range point in a phi image
    {"source": "S3", "target": "C2", "scalars": "int",
     "terms": [{"K": ["(1 2)"], "phi": [["(1 2)", "(1 3)"]], "coeff": "1"}]},
    # a generator outside the source group
    {"source": "C3", "target": "C2", "scalars": "int",
     "terms": [{"K": ["(1 2)"], "phi": [["(1 2)", "()"]], "coeff": "1"}]},
    # unparsable and repeated-point cycle strings
    s3_term(["(1 2"], [["(1 2", "()"]]),
    s3_term(["(1 2)(2 3)"], [["(1 2)(2 3)", "()"]]),
    # fewer phi pairs than K generators
    s3_term(["(1 2)", "(1 2 3)"], [["(1 2)", "(1 2)"]]),
    # a phi domain generator outside K
    s3_term(["(1 2)"], [["(1 2 3)", "()"]]),
    # a phi image outside the target group
    {"source": "S3", "target": "C3", "scalars": "int",
     "terms": [{"K": ["(1 2)"], "phi": [["(1 2)", "(1 2)"]], "coeff": "1"}]},
    # coefficients that int() takes but that are no decimal strings: an
    # underscore, a non-ASCII digit (ARABIC-INDIC THREE), a sign and spaces
    *({"source": "S3", "target": "S3", "scalars": "int",
       "terms": [{"K": ["(1 2)"], "phi": [["(1 2)", "(1 2)"]], "coeff": c}]}
      for c in ("1_0", "\u0663", " +2 ")),
    # the same strings as p and k
    {"source": "S3", "target": "S3", "scalars": {"p": "\u0663", "k": 2},
     "terms": []},
    {"source": "S3", "target": "S3", "scalars": {"p": 3, "k": " +2 "},
     "terms": []},
    # a K or phi the term cache cannot key on: not iterable, or holding an
    # unhashable value
    s3_term(["(1 2)"], 5),
    s3_term(["(1 2)"], [5]),
    s3_term(["(1 2"], [["(1 2)", ["(1 2)"]]]),
]


def over_other_groups(data):
    """data with its terms moved to (S4, S4), where its strings may load."""
    terms = data.get("terms")
    if not isinstance(terms, list):
        return None
    return {"source": "S4", "target": "S4", "scalars": "int",
            "terms": [t | {"coeff": "1"} if isinstance(t, dict) else t
                      for t in terms]}


def assert_fails_twice_alike(data):
    messages = []
    for _ in range(2):
        with pytest.raises(InputError) as info:
            element_from_json(data)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_loader_rejects_malformed():
    # cycle strings and terms are memoized, errors are not: a second load
    # fails alike
    for data in MALFORMED:
        assert_fails_twice_alike(data)


@pytest.mark.parametrize("data", MALFORMED)
def test_loader_rejects_malformed_after_other_groups(data):
    # a term that loads over other groups fills the term cache; the key
    # holds the groups, so the malformed load still fails
    other = over_other_groups(data)
    if other is not None:
        try:
            element_from_json(other)
        except InputError:
            pass
    assert_fails_twice_alike(data)


def test_loader_rejects_malformed_in_a_fresh_process():
    script = """if True:
        import json, sys
        from burnfuse.errors import InputError
        from burnfuse.serialize import element_from_json
        for data in json.load(sys.stdin):
            for _ in range(2):
                try:
                    element_from_json(data)
                except InputError:
                    continue
                print("loaded", json.dumps(data))
    """
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script],
                          input=json.dumps(MALFORMED), capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.parametrize("coeff", ["1_0", "\u0663", " +2 "])
def test_non_decimal_coefficient_exits_two(tmp_path, capsys, coeff):
    data = {"source": "S3", "target": "S3", "scalars": "int",
            "terms": [{"K": ["(1 2)"], "phi": [["(1 2)", "(1 2)"]],
                       "coeff": coeff}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = run(["compose", str(path), str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("value,want", [
    ("10", 10), ("-7", -7), ("007", 7), ("-0", 0), (12, 12), (-3, -3),
])
def test_loader_reads_decimal_coefficients(value, want):
    data = s3_term(["(1 2)"], [["(1 2)", "(1 2)"]])
    b = element_from_json(data).support()[0]
    data["terms"][0]["coeff"] = value
    assert element_from_json(data) == element(S3, S3, {b: want})


def test_term_cache_keys_on_the_groups():
    # one term dict, spelt as no other test spells it: its image (1 2) lies
    # outside C3 but inside S3. Loads over the two pairs alternate, so each
    # follows the other once
    term = {"K": ["(2 1)"], "phi": [["(2 1)(3)", "(2 1)"]], "coeff": "1"}
    C3 = parse_group("C3")
    b = next(b for b in basis(S3, S3)
             if b.K.order == 2 and any(b.phi.image_indices))
    for target in (C3, S3, C3, S3, C3):
        data = {"source": "S3", "target": target.label, "scalars": "int",
                "terms": [term]}
        if target is C3:
            with pytest.raises(InputError, match="not in the target group"):
                element_from_json(data)
        else:
            x = element_from_json(data)
            assert x == single(b)
            assert x.support()[0] is b


def scrambled(rng, perm):
    """A non-canonical cycle string of perm, written without cycle_string:
    cycles in random order, each rotated, fixed points sometimes written."""
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        seen.update(cycle)
        if len(cycle) > 1 or rng.random() < 0.3:
            r = rng.randrange(len(cycle))
            cycles.append(cycle[r:] + cycle[:r])
    rng.shuffle(cycles)
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")"
                   for c in cycles) or "()"


ROUND_TRIP_GROUPS = [parse_group(s) for s in ("S3", "S4", "D8", "C6")]


def scrambled_term(rng, b, coeff):
    """A term of class b with scrambled cycle strings."""
    gens = b.K.generators()
    return {"K": [scrambled(rng, k) for k in gens],
            "phi": [[scrambled(rng, k), scrambled(rng, b.phi(k))]
                    for k in gens],
            "coeff": coeff}


def test_two_spellings_of_one_class_add():
    # one class written twice in one file, under two spellings: two cache
    # entries that hold the one interned class
    rng = random.Random("two-spellings")
    data = {"source": "D8", "target": "S4", "scalars": "int"}
    for b in basis(parse_group("D8"), S4):
        if not b.K.generators():
            continue
        first = scrambled_term(rng, b, "2")
        second = scrambled_term(rng, b, "-5")
        while second["K"] == first["K"] and second["phi"] == first["phi"]:
            second = scrambled_term(rng, b, "-5")
        for term in (first, second):
            assert element_from_json(data | {"terms": [term]}).support()[0] \
                is b
        assert element_from_json(data | {"terms": [first, second]}) == \
            single(b, -3)


def test_class_to_json_returns_new_lists():
    b = next(b for b in basis(S4, S4) if len(b.K.generators()) == 2)
    want = class_to_json(b)
    got = class_to_json(b)
    got["K"].append("(1 2)")
    got["K"][0] = "()"
    got["phi"][0][1] = "(1 2)"
    got["phi"].clear()
    assert class_to_json(b) == want
    assert class_to_json(b) is not want
    assert want["phi"][0] is not class_to_json(b)["phi"][0]


def old_label(b):
    """The label as BisetClass.label wrote it before it read its strings
    from the class's cached description."""
    gens = b.K.generators()
    kpart = ",".join(cycle_string(g) for g in gens) or "()"
    if not gens:
        ppart = "triv"
    else:
        ppart = ",".join(f"{cycle_string(g)}->{cycle_string(b.phi(g))}"
                         for g in gens)
    return f"[{kpart}; {ppart}]"


def label_as_written(data):
    """The label that a class's JSON names."""
    kpart = ",".join(data["K"]) or "()"
    ppart = ",".join(f"{g}->{h}" for g, h in data["phi"]) or "triv"
    return f"[{kpart}; {ppart}]"


@pytest.mark.parametrize("G,H", [("S4", "S4"), ("D8", "Q8")])
def test_label_and_json_name_one_description(G, H):
    for b in basis(parse_group(G), parse_group(H)):
        data = class_to_json(b)
        assert b.label() == old_label(b)
        assert [g for g, _ in data["phi"]] == data["K"] == \
            [cycle_string(g) for g in b.K.generators()]
        assert [h for _, h in data["phi"]] == \
            [cycle_string(b.phi(g)) for g in b.K.generators()]
        assert b.label() == label_as_written(data)


@pytest.mark.parametrize("G,H", itertools.product(ROUND_TRIP_GROUPS,
                                                  repeat=2),
                         ids=lambda g: g.label)
def test_conjugated_scrambled_terms_load_canonically(G, H):
    # [gKg^-1, c_h phi c_g^-1] is the class [K, phi]; written with
    # scrambled cycle strings it must load, and print, as single(b)
    rng = random.Random(f"{G.label}-{H.label}")
    for b in basis(G, H):
        g, h = rng.choice(G.elements), rng.choice(H.elements)
        gi, hi = p_inv(g), p_inv(h)
        gens = [p_mul(p_mul(g, k), gi) for k in b.K.generators()]
        images = [p_mul(p_mul(h, b.phi(k)), hi) for k in b.K.generators()]
        data = {"source": G.label, "target": H.label, "scalars": "int",
                "terms": [{"K": [scrambled(rng, k) for k in gens],
                           "phi": [[scrambled(rng, k), scrambled(rng, f)]
                                   for k, f in zip(gens, images)],
                           "coeff": "1"}]}
        x = element_from_json(data)
        assert x == single(b)
        assert dump_json(element_to_json(x)) == \
            dump_json(element_to_json(single(b)))


def test_stable_round_trip():
    F = fusion_system(S3, 3)
    w = characteristic_idempotent(F, 4)
    data = stable_to_json(w)
    assert data["leftFusion"] == {"group": "S3", "p": 3}
    assert data["rightFusion"] == {"group": "S3", "p": 3}
    assert element_from_json(data) == w.underlying


def oracle_dump_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1)


def assert_writes_like_json(data):
    """dump_json writes the oracle's text, or raises its TypeError."""
    try:
        want = oracle_dump_json(data)
    except TypeError as exc:
        with pytest.raises(TypeError) as got:
            dump_json(data)
        assert str(got.value) == str(exc)
    else:
        assert dump_json(data) == want


class _Str(str):
    """A str subclass: dump_json writes it by the general path, and json by
    its string data."""


# text over every code point, surrogates and control characters included,
# as str and as a str subclass
_TEXT = st.text(st.characters(blacklist_categories=()))
_TEXTS = _TEXT | _TEXT.map(_Str)
_SCALARS = (_TEXTS | st.integers() | st.integers(-10**40, 10**40)
            | st.floats() | st.booleans() | st.none())
# json sorts a dict's items, so keys of one dict must be comparable: text,
# numbers with bools, or a single None
_DICTS = [
    lambda values: st.dictionaries(_TEXTS, values, max_size=5),
    lambda values: st.dictionaries(st.integers() | st.floats() | st.booleans(),
                                   values, max_size=5),
    lambda values: st.dictionaries(st.none(), values, max_size=1),
]
_JSON = st.recursive(_SCALARS, lambda values: st.one_of(
    st.lists(values, max_size=5), st.lists(values, max_size=5).map(tuple),
    *(d(values) for d in _DICTS)), max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_JSON)
def test_dump_json_matches_json_dumps(data):
    assert_writes_like_json(data)


@pytest.mark.parametrize("data", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, "\u2603\x00\x1f\"\\\ud800",
    {True: 1, False: 0, 2: 2, 1.5: None}, {None: [None, True, False]},
    [10**100, -10**100, 0.1, -0.0, 1e300, float("nan"), float("inf"),
     float("-inf")],
    {float("nan"): 1, float("inf"): 2, float("-inf"): 3},
    {_Str("k\u2603"): _Str("v\x00"), "a": [_Str("i"), "j"], _Str("b"): {}},
    # not serializable: a value, a key, keys json cannot sort
    {"a": [1, object()]}, {"a": {1, 2}}, [b"bytes"], {"a": 1j},
    {(1, 2): 0}, {1: "one", "1": "one"}, {None: 0, 1: 1},
])
def test_dump_json_edge_cases(data):
    assert_writes_like_json(data)


def test_dump_json_of_elements_matches_json_dumps():
    x = element(S3, S4, {b: i - 2 for i, b in enumerate(basis(S3, S4))})
    for y in (x, x.lift(3, 5), single(basis(S4, S4)[7]).lift(2, 64)):
        assert dump_json(element_to_json(y)) == \
            oracle_dump_json(element_to_json(y))
