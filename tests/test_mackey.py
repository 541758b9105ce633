"""Composition, restriction and opposite by the [K, phi] formulas, against
the concrete constructions they replaced, which live on here as oracles.

Each oracle realizes the transitive bisets as explicit action tables, builds
the biset it wants on points, and decomposes it into orbits:

* composition takes the coequalizer (X x Y) / (x*h, y) ~ (x, h*y);
* restriction keeps the action rows of the restricting maps' images;
* opposite swaps the two actions through inverses.

`oracle_restrict_basis` is the element-level route restriction took before
it folded the cached Mackey products: whole elements composed with the
classes of the restricting maps.
"""

import random
import re

import pytest

from burnfuse.burnside import (BurnsideElement, ConcreteBiset,
                               _restrict_basis, basis, canonical_class,
                               compose, decompose, opposite, realize,
                               restrict_along, single)
from burnfuse.errors import BisetError, SubgroupError
from burnfuse.fusion import _twists, fusion_system
from burnfuse.groups import (GroupHom, as_group, homomorphisms,
                             inclusion_hom, parse_group, sylow,
                             subgroups_up_to_conjugacy)


def coequalizer(X, Y):
    """The (G,K)-biset (X x Y) / (x*h, y) ~ (x, h*y)."""
    H = X.target
    G, Kg = X.source, Y.target
    pair_orbit = {}
    n_orbits = 0
    hs = [(H.inv[i], i) for i in range(H.order)]
    for i in range(X.size):
        xrow_cache = [X.right[hi_inv][i] for hi_inv, _ in hs]
        for j in range(Y.size):
            if (i, j) in pair_orbit:
                continue
            oid = n_orbits
            n_orbits += 1
            for pos, (_, hi) in enumerate(hs):
                pair_orbit[(xrow_cache[pos], Y.left[hi][j])] = oid
    reps = [None] * n_orbits
    for pair, oid in pair_orbit.items():
        if reps[oid] is None or pair < reps[oid]:
            reps[oid] = pair
    left = [[pair_orbit[(X.left[gi][i], j)] for i, j in reps]
            for gi in range(G.order)]
    right = [[pair_orbit[(i, Y.right[ki][j])] for i, j in reps]
             for ki in range(Kg.order)]
    return ConcreteBiset(G, Kg, n_orbits, left, right)


def oracle_compose(b1, b2):
    return decompose(coequalizer(realize(b1), realize(b2)))


def oracle_restrict(b, left_hom=None, right_hom=None):
    X = realize(b)
    if left_hom is not None:
        src = as_group(left_hom.domain)
        left = [X.left[i] for i in left_hom.image_indices]
    else:
        src, left = b.source, X.left
    if right_hom is not None:
        tgt = as_group(right_hom.domain)
        right = [X.right[i] for i in right_hom.image_indices]
    else:
        tgt, right = b.target, X.right
    return decompose(ConcreteBiset(src, tgt, X.size, left, right))


def oracle_restrict_basis(b, left_hom=None, right_hom=None):
    """Restriction of the class b along a: S -> G and c: T -> H as whole
    elements: single(b) composed with single([S, a]) on the left, then with
    single([c(T), c^-1]) on the right, and the terms of the result."""
    x = single(b)
    if left_hom is not None:
        S = as_group(left_hom.domain)
        whole = S.full_subgroup()
        a = GroupHom.from_indices(whole, b.source, left_hom.image_indices)
        x = compose(single(canonical_class(S, b.source, whole, a)), x)
    if right_hom is not None:
        T, H = as_group(right_hom.domain), right_hom.codomain
        image = H.subgroup(set(right_hom.images))
        inverse = dict(zip(right_hom.images, T.elements))
        x = compose(x, single(canonical_class(H, T, image, inverse)))
    return tuple(x.terms())


def oracle_opposite(b):
    X = realize(b)
    G, H = b.source, b.target
    left = [X.right[i] for i in H.inv]
    right = [X.left[i] for i in G.inv]
    return decompose(ConcreteBiset(H, G, X.size, left, right))


# Each triple (G, H, M) samples basis pairs over (G,H) and (H,M).
COMPOSE_CASES = [
    ("S3", "S4", "S3", 40), ("S4", "S3", "S4", 16), ("C6", "S3", "C6", 40),
    ("A4", "S3", "A4", 40), ("D8", "Q8", "D8", 40), ("S4", "S4", "S4", 10),
    ("A4", "A4", "S3", 40), ("C2xC2", "D8", "C4", 40),
]


@pytest.mark.parametrize("gs,hs,ms,samples", COMPOSE_CASES)
def test_compose_matches_coequalizer(gs, hs, ms, samples):
    G, H, M = parse_group(gs), parse_group(hs), parse_group(ms)
    rng = random.Random(f"{gs},{hs},{ms}")
    for _ in range(samples):
        b1 = rng.choice(basis(G, H))
        b2 = rng.choice(basis(H, M))
        assert compose(single(b1), single(b2)) == oracle_compose(b1, b2)


def _sample_homs(P, G, rng, count=3):
    """The inclusion and up to count - 1 other homs P -> G, seeded, plus a
    non-injective one if none was drawn and P is not trivial."""
    homs = homomorphisms(P, G)
    incl = inclusion_hom(P)
    others = [f for f in homs if f != incl]
    picks = [incl] + rng.sample(others, min(count - 1, len(others)))
    if P.order > 1 and all(f.is_injective for f in picks):
        picks.append(next(f for f in homs if not f.is_injective))
    return picks


def _injective_homs(T, H, rng, count=2):
    """The inclusion and up to count - 1 other injective homs T -> H."""
    incl = inclusion_hom(T)
    others = [f for f in homomorphisms(T, H)
              if f.is_injective and f != incl]
    return [incl] + rng.sample(others, min(count - 1, len(others)))


RESTRICT_PAIRS = [("S3", "S4"), ("S4", "S3"), ("A4", "C6"), ("D8", "S3")]


@pytest.mark.parametrize("gs,hs", RESTRICT_PAIRS)
def test_restrict_matches_sliced_actions(gs, hs):
    G, H = parse_group(gs), parse_group(hs)
    rng = random.Random(f"{gs},{hs}")
    classes = basis(G, H)
    lefts = [f for P in subgroups_up_to_conjugacy(G)
             for f in _sample_homs(P, G, rng)]
    rights = [f for T in subgroups_up_to_conjugacy(H)
              for f in _injective_homs(T, H, rng)]
    assert any(not f.is_injective for f in lefts)
    assert any(f != inclusion_hom(f.domain) for f in rights)
    for a in lefts:
        for b in rng.sample(classes, min(6, len(classes))):
            assert restrict_along(single(b), a) == oracle_restrict(b, a)
    for c in rights:
        for b in rng.sample(classes, min(6, len(classes))):
            assert restrict_along(single(b), None, c) == \
                oracle_restrict(b, None, c)
    for _ in range(12):
        a, c, b = rng.choice(lefts), rng.choice(rights), rng.choice(classes)
        assert restrict_along(single(b), a, c) == oracle_restrict(b, a, c)


@pytest.mark.parametrize("gs", ["S3", "A4", "C6", "D8", "Q8", "S4"])
@pytest.mark.parametrize("p", [2, 3])
def test_restrict_basis_matches_element_route(gs, p):
    # every basis class over (G, G), restricted to the Sylow pair (P, P)
    # on the left, on the right and on both sides, and on the right along
    # an injective map P -> G that is not the inclusion; then every basis
    # class over the Sylow group S along each twist of `_twists`, so the
    # per-map caches of the restricting classes see keys other than
    # inclusions. Both sides are compared as dicts: cached products keep
    # the Mackey order, and the element route sorts its terms.
    G = parse_group(gs)
    P = sylow(G, p)
    incl = inclusion_hom(P)
    moved = next((f for f in homomorphisms(P, G)
                  if f.is_injective and f != incl), None)
    maps = [(incl, None), (None, incl), (incl, incl)]
    if moved is not None:
        maps += [(None, moved), (incl, moved)]
    for b in basis(G, G):
        for a, c in maps:
            assert dict(_restrict_basis(b, a, c)) == \
                dict(oracle_restrict_basis(b, a, c))
    F = fusion_system(G, p)
    S = F.sylow_group
    twists = [t for Q in subgroups_up_to_conjugacy(S) for t in _twists(F, Q)]
    for b in basis(S, S):
        for t in twists:
            for a, c in ((t, None), (None, t), (t, t)):
                assert dict(_restrict_basis(b, a, c)) == \
                    dict(oracle_restrict_basis(b, a, c))


@pytest.mark.parametrize("gs,hs", [("S3", "S4"), ("A4", "S4"), ("D8", "Q8"),
                                   ("S4", "S4")])
def test_opposite_matches_swapped_actions(gs, hs):
    G, H = parse_group(gs), parse_group(hs)
    bifree = [b for b in basis(G, H) if b.phi.is_injective]
    assert bifree
    for b in bifree:
        assert opposite(single(b)) == oracle_opposite(b)


def test_restrict_rejects_non_injective_right_map():
    S3, S4 = parse_group("S3"), parse_group("S4")
    T = S4.full_subgroup()
    collapse = next(f for f in homomorphisms(T, S4)
                    if not f.is_injective and len(set(f.images)) > 1)
    x = single(basis(S3, S4)[0])
    message = ("^right restriction along a non-injective map "
               "would break freeness$")
    with pytest.raises(BisetError, match=message):
        restrict_along(x, right_hom=collapse)
    for b in basis(S3, S4)[:4]:
        with pytest.raises(BisetError, match=message):
            _restrict_basis(b, None, collapse)


def test_restrict_along_rejects_maps_into_another_group():
    S3, S4 = parse_group("S3"), parse_group("S4")
    x = single(basis(S3, S3)[0])
    into_s4 = inclusion_hom(S4.full_subgroup())
    with pytest.raises(SubgroupError, match="^left map does not land"):
        restrict_along(x, left_hom=into_s4)
    with pytest.raises(SubgroupError, match="^right map does not land"):
        restrict_along(x, right_hom=into_s4)


def test_opposite_names_the_non_bifree_class():
    S3 = parse_group("S3")
    classes = basis(S3, S3)
    bad = next(b for b in classes if not b.phi.is_injective)
    good = [b for b in classes if b.phi.is_injective][:3]
    x = BurnsideElement(S3, S3, {**{b: 2 for b in good}, bad: -1})
    with pytest.raises(BisetError,
                       match="^" + re.escape(bad.label()) + " is not bifree"):
        opposite(x)
