"""JSON encoding and decoding of Burnside elements and stable elements.

An element serializes as its group specs, a scalar descriptor, and a list of
terms; each term carries the subgroup K by generator cycle-strings, the map
phi by generator-image pairs, and the coefficient as a decimal string. The
loader rebuilds and canonicalizes every term and rejects maps that are not
homomorphisms, so round-trips are exact and order-independent.
"""

from __future__ import annotations

import json

from .burnside import BisetClass, BurnsideElement, canonical_class
from .errors import InputError
from .fusion import FusionSystem, StableElement, fusion_system
from .groups import GroupHom, PermGroup, Subgroup, mulclose, parse_group
from .padic import PadicInt
from .perms import cycle_string, parse_cycles


def _term_to_json(b: BisetClass, coeff) -> dict:
    gens = b.K.generators()
    return {
        "K": [cycle_string(g) for g in gens],
        "phi": [[cycle_string(g), cycle_string(b.phi(g))] for g in gens],
        "coeff": str(coeff.residue if isinstance(coeff, PadicInt) else coeff),
    }


def element_to_json(x: BurnsideElement) -> dict:
    scalars = ({"p": x.prime, "k": x.precision} if x.is_padic else "int")
    return {
        "source": x.source.label,
        "target": x.target.label,
        "scalars": scalars,
        "terms": [_term_to_json(b, c) for b, c in x.terms()],
    }


def _term_from_json(term: dict, source: PermGroup,
                    target: PermGroup) -> BisetClass:
    gen_strings = term.get("K", [])
    gens = [parse_cycles(s, source.degree) for s in gen_strings]
    for g in gens:
        if g not in source:
            raise InputError(f"generator {cycle_string(g)} is not in the "
                             f"source group {source.label}")
    elements = mulclose(gens, source.degree, source.order)
    K = Subgroup(source, elements)
    phi_pairs = term.get("phi", [])
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
        images[dom] = img
    # extend generator images over K; reject non-homomorphisms
    from .groups import _propagate
    full = _propagate(K, [source.index(g) for g in images],
                      [target.index(h) for h in images.values()], target)
    if full is None or len(full) != K.order:
        raise InputError("the phi generator images do not define a homomorphism")
    try:
        hom = GroupHom.from_indices(K, target, map(full.__getitem__, K.indices))
    except Exception as exc:
        raise InputError(f"invalid phi: {exc}") from exc
    return canonical_class(source, target, K, hom)


def element_from_json(data: dict) -> BurnsideElement:
    try:
        source = parse_group(data["source"])
        target = parse_group(data["target"])
        scalars = data["scalars"]
        raw_terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed element JSON: {exc}") from exc
    padic = scalars != "int"
    if padic:
        try:
            p, k = int(scalars["p"]), int(scalars["k"])
        except (KeyError, TypeError) as exc:
            raise InputError("scalars must be 'int' or {p, k}") from exc
    terms: dict[BisetClass, object] = {}
    for term in raw_terms:
        b = _term_from_json(term, source, target)
        try:
            c = int(term["coeff"])
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad coefficient in {term!r}") from exc
        coeff = PadicInt(p, k, c) if padic else c
        prev = terms.get(b)
        terms[b] = coeff if prev is None else prev + coeff
    return BurnsideElement(source, target, terms)


def stable_to_json(x: StableElement) -> dict:
    data = element_to_json(x.underlying)
    data["leftFusion"] = {"group": x.left_fusion.ambient.label,
                          "p": x.left_fusion.prime}
    data["rightFusion"] = {"group": x.right_fusion.ambient.label,
                           "p": x.right_fusion.prime}
    return data


def stable_from_json(data: dict) -> StableElement:
    try:
        lf = data["leftFusion"]
        rf = data["rightFusion"]
        F1 = fusion_system(parse_group(lf["group"]), int(lf["p"]))
        F2 = fusion_system(parse_group(rf["group"]), int(rf["p"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed stable element JSON: {exc}") from exc
    underlying = element_from_json(data)
    if underlying.source != F1.sylow_group or underlying.target != F2.sylow_group:
        raise InputError("the element does not live over the Sylow pair "
                         "of the declared fusion systems")
    return StableElement(underlying, F1, F2)


def load_element(path: str) -> BurnsideElement:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read element from {path}: {exc}") from exc
    return element_from_json(data)


def dump_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1)
