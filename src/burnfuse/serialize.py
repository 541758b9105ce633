"""JSON encoding and decoding of Burnside elements, and encoding of stable
elements.

An element serializes as its group specs, a scalar descriptor, and a list of
terms; each term carries the subgroup K by generator cycle-strings, the map
phi by generator-image pairs, and the coefficient as a decimal string. The
loader rebuilds and canonicalizes each distinct term, once per process, and
rejects maps that are not homomorphisms, so round-trips are exact and
order-independent.
"""

from __future__ import annotations

import functools
import json
import re
from json.encoder import encode_basestring_ascii as _quote

from .burnside import (BisetClass, BurnsideElement, _canonical_pair,
                       _class_strings)
from .errors import GroupParseError, InputError
from .groups import PermGroup, _propagate, generated_subgroup, parse_group
from .padic import check_scalars
from .perms import cycle_string, parse_cycles


def class_to_json(b: BisetClass) -> dict:
    """A basis class [K, phi]: K by its generators' cycle strings, phi by
    each generator's image. The strings are the class's cached
    `_class_strings`; the lists are new on every call, so a caller that
    mutates them cannot reach the cache."""
    gens, images = _class_strings(b)
    return {"K": list(gens), "phi": [[g, h] for g, h in zip(gens, images)]}


def element_to_json(x: BurnsideElement) -> dict:
    scalars = ({"p": x.prime, "k": x.precision} if x.is_padic else "int")
    return {
        "source": x.source.label,
        "target": x.target.label,
        "scalars": scalars,
        "terms": [class_to_json(b) | {"coeff": str(c)}
                  for b, c in x._items()],
    }


def _term_from_json(term: dict, source: PermGroup,
                    target: PermGroup) -> BisetClass:
    """The class of one JSON term, validated once per distinct term: the
    key is the groups, by value, and what the checks read of K and phi, as
    tuples. A K or phi that is not iterable, or holds an unhashable value,
    raises TypeError."""
    return _term_class(source, target, tuple(term.get("K", [])),
                       tuple(map(tuple, term.get("phi", []))))


@functools.lru_cache(maxsize=None)
def _term_class(source: PermGroup, target: PermGroup, gen_strings: tuple,
                phi_pairs: tuple) -> BisetClass:
    """Build and check [K, phi] from its strings. Keyed on every input the
    class depends on; an error is raised again on every call, because
    lru_cache keeps no exceptions."""
    gens = [parse_cycles(s, source.degree) for s in gen_strings]
    for g in gens:
        if g not in source:
            raise InputError(f"generator {cycle_string(g)} is not in the "
                             f"source group {source.label}")
    K = generated_subgroup(source, tuple(map(source.index, gens)))
    if len(phi_pairs) != len(gen_strings):
        raise InputError("phi must give exactly one image per K generator")
    images = {}
    for dom_s, img_s in phi_pairs:
        dom = parse_cycles(dom_s, source.degree)
        img = parse_cycles(img_s, target.degree)
        if dom not in K:
            raise InputError(f"phi domain generator {dom_s} is not in K")
        if img not in target:
            raise InputError(f"phi image {img_s} is not in the target group")
        if images.setdefault(dom, img) != img:
            raise InputError(f"phi domain generator {dom_s} has two images")
    # extend generator images over K; reject non-homomorphisms
    full = _propagate(K, [source.index(g) for g in images],
                      [target.index(h) for h in images.values()], target)
    if full is None or len(full) != K.order:
        raise InputError("the phi generator images do not define a homomorphism")
    return _canonical_pair(source, target, K.indices,
                           tuple(map(full.__getitem__, K.indices)))


_DECIMAL = re.compile(r"-?[0-9]+")


def _integer(value) -> int:
    """An integer given in JSON as an int or a decimal string: ASCII digits
    with an optional leading minus, so no sign, space, underscore or
    non-ASCII digit that int() alone would take."""
    if type(value) is int:
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise InputError(f"expected an integer or a decimal string, got {value!r}")


def element_from_json(data: dict) -> BurnsideElement:
    """The element that data encodes. This is the decode boundary: an error
    that malformed data, or a bad group spec or cycle string inside it,
    raises while it is decoded becomes InputError."""
    try:
        source = parse_group(data["source"])
        target = parse_group(data["target"])
        scalars = data["scalars"]
        p = k = None
        if scalars != "int":
            p, k = _integer(scalars["p"]), _integer(scalars["k"])
            check_scalars(p, k)
        terms: dict[BisetClass, int] = {}
        for term in data["terms"]:
            b = _term_from_json(term, source, target)
            terms[b] = terms.get(b, 0) + _integer(term["coeff"])
        return BurnsideElement._from_ints(source, target, terms, p, k)
    except (AttributeError, GroupParseError, KeyError, TypeError,
            ValueError) as exc:
        raise InputError(f"malformed JSON ({type(exc).__name__}: {exc})") \
            from exc


def stable_to_json(x) -> dict:
    """The JSON of a fusion.StableElement: its underlying element and the
    group and prime of each side."""
    data = element_to_json(x.underlying)
    data["leftFusion"] = {"group": x.left_fusion.ambient.label,
                          "p": x.left_fusion.prime}
    data["rightFusion"] = {"group": x.right_fusion.ambient.label,
                           "p": x.right_fusion.prime}
    return data


def load_element(path: str) -> BurnsideElement:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        raise InputError(f"cannot read element from {path}: {exc}") from exc
    return element_from_json(data)


_INFINITY = float("inf")


def _scalar_text(o) -> str | None:
    """The JSON text of None, a bool, an int or a float, as json writes it;
    None for any other value."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INFINITY:
            return "Infinity"
        if o == -_INFINITY:
            return "-Infinity"
        return float.__repr__(o)
    return None


def _key_text(key) -> str:
    text = key if isinstance(key, str) else _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return text


def _json_text(o, indent: str) -> str:
    """The text of o, nested under the line prefix indent, as json.dumps
    writes it with sort_keys=True, separators (",", ": ") and indent=1.
    A key, item or value whose type is exactly str, the common leaf, is
    quoted inline; str subclasses and everything else take the general
    path."""
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + " "
        return ("{\n" + inner + (",\n" + inner).join([
            _quote(k if type(k) is str else _key_text(k)) + ": "
            + (_quote(v) if type(v) is str else _json_text(v, inner))
            for k, v in sorted(o.items())]) + "\n" + indent + "}")
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + " "
        return ("[\n" + inner + (",\n" + inner).join([
            _quote(v) if type(v) is str else _json_text(v, inner)
            for v in o]) + "\n" + indent + "]")
    text = _scalar_text(o)
    if text is None:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        f"is not JSON serializable")
    return text


def dump_json(data: dict) -> str:
    """The bytes of json.dumps(data, sort_keys=True, separators=(",", ": "),
    indent=1): keys sorted, one space of indent per level, ASCII escapes.
    Written here, because json's own encoder falls back to pure Python
    whenever an indent is given; like json, it raises TypeError on a value
    or key it cannot write."""
    return _json_text(data, "")
