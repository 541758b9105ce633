"""Composition, restriction and opposite by the [K, phi] formulas, against
the concrete constructions they replaced, which live on here as oracles.

Each oracle realizes the transitive bisets as explicit action tables, builds
the biset it wants on points, and decomposes it into orbits:

* composition takes the coequalizer (X x Y) / (x*h, y) ~ (x, h*y);
* restriction keeps the action rows of the restricting maps' images;
* opposite swaps the two actions through inverses.
"""

import random
import re

import pytest

from burnfuse.burnside import (BurnsideElement, ConcreteBiset, basis,
                               compose, decompose, opposite, realize,
                               restrict_along, single)
from burnfuse.errors import BisetError
from burnfuse.groups import (as_group, homomorphisms, inclusion_hom,
                             parse_group, subgroups_up_to_conjugacy)


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
    with pytest.raises(BisetError, match="non-injective"):
        restrict_along(x, right_hom=collapse)


def test_opposite_names_the_non_bifree_class():
    S3 = parse_group("S3")
    classes = basis(S3, S3)
    bad = next(b for b in classes if not b.phi.is_injective)
    good = [b for b in classes if b.phi.is_injective][:3]
    x = BurnsideElement(S3, S3, {**{b: 2 for b in good}, bad: -1})
    with pytest.raises(BisetError,
                       match="^" + re.escape(bad.label()) + " is not bifree"):
        opposite(x)
