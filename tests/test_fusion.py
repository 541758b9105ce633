import random

import pytest

from burnfuse import fusion
from burnfuse.burnside import (BurnsideElement, basis, canonical_class,
                               compose, identity_class, identity_element,
                               restrict, restrict_along, single)
from burnfuse.completion import completion_unit_inverse
from burnfuse.errors import (ConvergenceError, FormulaMismatchError,
                             FusionError, NonUnitError,
                             NotSemicharacteristicError, ScalarMismatchError)
from burnfuse.fusion import (StableElement, _twists, a_fus,
                             characteristic_idempotent, fusion_system,
                             invert_stable, is_fusion_preserving, is_stable,
                             is_unit_semichar, stable_basis, stable_coordinates,
                             stable_pair_classes, stabilize)
from burnfuse.groups import (GroupHom, all_subgroups, homomorphisms,
                             inclusion_hom, parse_group,
                             subgroups_up_to_conjugacy)
from burnfuse.padic import PRECISION_CAP, PadicInt
from burnfuse.perms import p_inv, p_mul

from test_kernel import oracle_all_subgroups

S3 = parse_group("S3")
S4 = parse_group("S4")
A4 = parse_group("A4")
C3 = parse_group("C3")
C6 = parse_group("C6")
D8 = parse_group("D8")
A5 = parse_group("A5")
S5 = parse_group("S5")
S3xC3 = parse_group("S3xC3")
S4xC2 = parse_group("S4xC2")
D8xC2 = parse_group("D8xC2")
C2 = parse_group("C2")
E = parse_group("C1")


def p_conj(g, x):
    """g x g^-1."""
    return p_mul(p_mul(g, x), p_inv(g))


def identity_hom_on(F):
    S = F.sylow_group
    return GroupHom(S.full_subgroup(), S, dict((x, x) for x in S.elements))


def oracle_morphisms(F, P, Q):
    """The maps P -> Q of the form x -> g x g^-1 over g in the ambient
    group with g P g^-1 <= Q, as sorted permutation image tuples aligned
    with P's elements."""
    qset = set(Q.elements)
    return sorted({images for images in (tuple(p_conj(g, x) for x in P.elements)
                                         for g in F.ambient.elements)
                   if qset.issuperset(images)})


def oracle_is_fusion_preserving(phi, F1, F2):
    """Fusion preservation on permutation tuples and dicts: every morphism
    psi: P -> S1 has a companion rho: phi(P) -> S2 with
    phi . psi = rho . phi on P."""
    S1, S2 = F1.sylow_group, F2.sylow_group
    for P in subgroups_up_to_conjugacy(S1):
        imgP = S2.subgroup({phi(x) for x in P.elements})
        candidates = oracle_morphisms(F2, imgP, S2)
        for psi in oracle_morphisms(F1, P, S1):
            required = {}
            for x, y in zip(P.elements, psi):
                if required.setdefault(phi(x), phi(y)) != phi(y):
                    return False
            if not any(all(rho[i] == required[z]
                           for i, z in enumerate(imgP.elements))
                       for rho in candidates):
                return False
    return True


def oracle_stable_pair_classes(F1, F2):
    """Fusion classes of the basis over the Sylow pair by union-find:
    every class is merged with each (a(K), b . phi . a^-1), over all
    fusion morphisms a and b, on permutation tuples."""
    S1, S2 = F1.sylow_group, F2.sylow_group
    ordinary = basis(S1, S2)
    index = {b: i for i, b in enumerate(ordinary)}
    parent = list(range(len(ordinary)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for b in ordinary:
        imgK = S2.subgroup(set(b.phi.images))
        betas = [dict(zip(imgK.elements, beta))
                 for beta in oracle_morphisms(F2, imgK, S2)]
        for alpha in oracle_morphisms(F1, b.K, S1):
            newK = S1.subgroup(set(alpha))
            inv_alpha = dict(zip(alpha, b.K.elements))
            for beta in betas:
                mapped = {y: beta[b.phi(inv_alpha[y])] for y in newK.elements}
                ri, rj = find(index[b]), find(index[canonical_class(
                    S1, S2, newK, mapped)])
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for b, i in index.items():
        groups.setdefault(find(i), []).append(b)
    return tuple(sorted((tuple(sorted(g, key=lambda b: b.sort_key))
                         for g in groups.values()),
                        key=lambda grp: grp[0].sort_key))


@pytest.mark.parametrize("specs", [("S3", "D6"), ("D6", "S3"),
                                   ("C2xC2", "D4")], ids="-".join)
def test_equal_groups_get_fusion_systems_with_their_own_labels(specs):
    # equal as groups, so the systems are equal and share every cache keyed
    # on F; each still prints the label of the group it was built from
    G, H = map(parse_group, specs)
    assert G == H
    FG, FH = fusion_system(G, 2), fusion_system(H, 2)
    assert FG == FH and hash(FG) == hash(FH)
    assert (FG.label, FH.label) == (f"F_2({specs[0]})", f"F_2({specs[1]})")
    assert fusion_system(G, 2) is FG


def test_fusion_morphism_sets():
    F2 = fusion_system(S3, 2)
    S = F2.sylow_group
    assert len(F2.morphisms_to_sylow(S.full_subgroup())) == 1
    F3 = fusion_system(S3, 3)
    T = F3.sylow_group
    assert len(F3.morphisms_to_sylow(T.full_subgroup())) == 2
    F5 = fusion_system(C3, 5)
    assert F5.sylow.order == 1
    e = F5.sylow_group
    assert len(F5.morphisms_to_sylow(e.full_subgroup())) == 1
    with pytest.raises(FusionError):  # a subgroup of S3, not of the Sylow group
        F3.morphisms_to_sylow(F3.sylow)
    # every subgroup of S, class representative or not, against the oracle
    for G, p in [(S3, 2), (S3, 3), (S4, 2), (S4, 3), (A4, 2), (D8, 2)]:
        F = fusion_system(G, p)
        S = F.sylow_group
        for P in all_subgroups(S):
            got = [phi.images for phi in F.morphisms_to_sylow(P)]
            assert got == oracle_morphisms(F, P, S)


def test_fusion_axioms():
    # injectivity, S-conjugation maps present, factorization through image
    for G, p in [(S3, 2), (S3, 3), (S4, 2), (A4, 2)]:
        F = fusion_system(G, p)
        S = F.sylow_group
        classes = subgroups_up_to_conjugacy(S)
        for P in classes:
            morphs = F.morphisms_to_sylow(P)
            for phi in morphs:
                assert phi.is_injective
            conj_maps = set()
            for s in S.elements:
                images = tuple(p_conj(s, x) for x in P.elements)
                conj_maps.add(images)
            have = {phi.images for phi in morphs}
            assert conj_maps <= have
            for phi in morphs:
                img = S.subgroup(set(phi.images))
                onto = {phi(x): x for x in P.elements}
                back = oracle_morphisms(F, img, P)
                assert tuple(onto[y] for y in img.elements) in back
                # the inverse is a morphism into S as well
                assert tuple(onto[y] for y in img.elements) in {
                    rho.images for rho in F.morphisms_to_sylow(img)}


def test_is_fusion_preserving():
    F3 = fusion_system(S3, 3)
    FC3 = fusion_system(C3, 3)
    assert is_fusion_preserving(identity_hom_on(F3), F3, F3)
    # the same underlying map, viewed into the trivial fusion system on C3,
    # has no companion for the inversion
    cross = GroupHom(F3.sylow_group.full_subgroup(), FC3.sylow_group,
                     dict((x, x) for x in F3.sylow_group.elements))
    assert not is_fusion_preserving(cross, F3, FC3)
    assert is_fusion_preserving(cross, FC3, F3)


@pytest.mark.parametrize("G,H,p", [(S3, S3, 3), (S3, C3, 3), (A4, A4, 2),
                                   (A4, S4, 2), (S4, S4, 2), (S4, D8, 2),
                                   (C6, S3, 2)],
                         ids=lambda v: v.label if hasattr(v, "label") else str(v))
def test_is_fusion_preserving_matches_oracle(G, H, p):
    F1, F2 = fusion_system(G, p), fusion_system(H, p)
    S1, S2 = F1.sylow_group, F2.sylow_group
    for phi in homomorphisms(S1.full_subgroup(), S2):
        assert is_fusion_preserving(phi, F1, F2) == \
            oracle_is_fusion_preserving(phi, F1, F2)


def test_is_fusion_preserving_oracle_sees_both_answers():
    verdicts = set()
    for G, H, p in [(A4, A4, 2), (S3, C3, 3)]:
        F1, F2 = fusion_system(G, p), fusion_system(H, p)
        for phi in homomorphisms(F1.sylow_group.full_subgroup(),
                                 F2.sylow_group):
            verdicts.add(is_fusion_preserving(phi, F1, F2))
    assert verdicts == {True, False}


PARTITION_CASES = [(S3, S3, 2), (S3, S3, 3), (S4, S4, 2), (S4, A4, 2),
                   (A4, S4, 2), (D8, S4, 2), (C6, S3, 3), (S4, S3, 3)]


@pytest.mark.parametrize("G,H,p", PARTITION_CASES,
                         ids=lambda v: v.label if hasattr(v, "label") else str(v))
def test_stable_pair_classes_match_union_find_oracle(G, H, p):
    F1, F2 = fusion_system(G, p), fusion_system(H, p)
    assert stable_pair_classes(F1, F2) == oracle_stable_pair_classes(F1, F2)


def test_group_homs_restrict_to_fusion_preserving():
    # any group homomorphism carrying S into T restricts to a fusion
    # preserving map between the induced systems
    for G, H, p in [(C6, S3, 2), (C6, S3, 3), (S3, S4, 2), (C3, S3, 3)]:
        FG, FH = fusion_system(G, p), fusion_system(H, p)
        S, T = FG.sylow, FH.sylow
        tset = set(T.elements)
        for phi in homomorphisms(G.full_subgroup(), H):
            if not all(phi(s) in tset for s in S.elements):
                continue
            restricted = GroupHom(FG.sylow_group.full_subgroup(),
                                  FH.sylow_group,
                                  {s: phi(s) for s in FG.sylow_group.elements})
            assert is_fusion_preserving(restricted, FG, FH)


def test_is_stable_examples():
    F3 = fusion_system(S3, 3)
    x = restrict(identity_element(S3), F3.sylow, F3.sylow)
    assert is_stable(x, F3, F3)
    S = F3.sylow_group
    idc = identity_class(S)
    assert not is_stable(single(idc).lift(3, 4), F3, F3)
    both = x.lift(3, 4)
    assert is_stable(both, F3, F3)


def test_restrictions_always_stable():
    for G, H, p in [(S3, S3, 2), (S3, S3, 3), (S3, S4, 2), (C6, S3, 3)]:
        F1, F2 = fusion_system(G, p), fusion_system(H, p)
        for b in basis(G, H):
            y = restrict(single(b), F1.sylow, F2.sylow)
            assert is_stable(y, F1, F2)


def oracle_twisted_restrictions_equal(x, fus, side):
    """Stability on one side by whole-element restriction: along every
    fusion morphism P -> S the restriction equals the one along the
    inclusion, compared as elements."""
    S = fus.sylow_group
    for P in subgroups_up_to_conjugacy(S):
        incl = inclusion_hom(P)
        morphs = fus.morphisms_to_sylow(P)
        if side == "left":
            base = restrict_along(x, left_hom=incl)
        else:
            base = restrict_along(x, right_hom=incl)
        for phi in morphs:
            if phi.images == incl.images:
                continue
            if side == "left":
                other = restrict_along(x, left_hom=phi)
            else:
                other = restrict_along(x, right_hom=phi)
            if other != base:
                return False
    return True


def oracle_is_stable(x, F1, F2):
    return (oracle_twisted_restrictions_equal(x, F1, "left")
            and oracle_twisted_restrictions_equal(x, F2, "right"))


ORACLE_CASES = [(S3, S3, 2), (S3, S3, 3), (S3, S4, 2), (A4, S4, 2),
                (S4, S4, 2), (C6, S3, 3), (D8, S4, 2), (S4, A4, 2),
                (A5, A4, 2), (S3xC3, S3, 3)]


@pytest.mark.parametrize("G,H,p", ORACLE_CASES,
                         ids=lambda v: v.label if hasattr(v, "label") else str(v))
def test_is_stable_matches_restriction_oracle(G, H, p):
    k = 3
    F1, F2 = fusion_system(G, p), fusion_system(H, p)
    pool = basis(F1.sylow_group, F2.sylow_group)
    rng = random.Random(2024 + len(pool))

    def random_sum(coeff):
        picks = rng.sample(pool, min(3, len(pool)))
        return sum((coeff() * single(b) for b in picks[1:]),
                   coeff() * single(picks[0]))

    integer = [random_sum(lambda: rng.randrange(-3, 4)) for _ in range(4)]
    integer += [restrict(single(b), F1.sylow, F2.sylow)
                for b in rng.sample(basis(G, H), 2)]
    stabilized = [stabilize(single(b), F1, F2, k).underlying
                  for b in rng.sample(pool, min(3, len(pool)))]
    # p^(k-1) [b] is stable mod p^(k-1); these are not stable mod p^k
    tops = [PadicInt(p, k, p ** (k - 1)) * single(b).lift(p, k) for b in pool]
    unstable = [t for t in tops if not oracle_is_stable(t, F1, F2)]
    perturbed = [s + rng.choice(unstable) for s in stabilized if unstable]
    padic = [random_sum(lambda: PadicInt(p, k, rng.randrange(p ** k)))
             for _ in range(4)]
    seen = set()
    for x in integer + stabilized + perturbed + padic:
        want = oracle_is_stable(x, F1, F2)
        assert is_stable(x, F1, F2) == want
        seen.add(want)
    for s in stabilized:
        assert is_stable(s, F1, F2)
    for x in perturbed:
        assert not is_stable(x, F1, F2)
        assert is_stable(x.reduce_to(k - 1), F1, F2)
    assert seen == ({True, False} if unstable else {True})


def inner_orbit(S, images):
    """The image tuples of c_s . phi over s in S, for phi given by its
    image tuple."""
    return {tuple(p_conj(s, y) for y in images) for s in S.elements}


def oracle_overgroup_restrictions(F, P):
    """The restrictions to P of every fusion morphism R -> S, over the
    subgroups R of S that contain P with index p, as image tuples aligned
    with P's elements."""
    S = F.sylow_group
    pset = set(P.elements)
    out = set()
    for R in oracle_all_subgroups(S):
        if len(R) == F.prime * P.order and pset <= set(R):
            for psi in oracle_morphisms(F, S.subgroup(R), S):
                at = dict(zip(R, psi))
                out.add(tuple(at[x] for x in P.elements))
    return out


@pytest.mark.parametrize("G,p", [(S4, 2), (A4, 2), (A5, 2), (S3xC3, 3),
                                 (S4xC2, 2)],
                         ids=lambda v: v.label if hasattr(v, "label") else str(v))
def test_twists_cover_every_fusion_morphism(G, p):
    # every fusion morphism on a subgroup class is an Inn(S)-translate of
    # the inclusion or of a kept twist, or extends to an index-p overgroup;
    # the kept twists are fusion morphisms that no other rule covers
    F = fusion_system(G, p)
    S = F.sylow_group
    kept = 0
    for P in subgroups_up_to_conjugacy(S):
        morphs = set(oracle_morphisms(F, P, S))
        covered = (inner_orbit(S, P.elements)
                   | oracle_overgroup_restrictions(F, P))
        for phi in _twists(F, P):
            assert phi.images in morphs
            assert phi.images not in covered
            covered |= inner_orbit(S, phi.images)
            kept += 1
        assert morphs <= covered
    assert kept > 0


def test_stable_coordinates_precision():
    F = fusion_system(S3, 3)
    x = stabilize(single(identity_class(F.sylow_group)), F, F, 3)
    with pytest.raises(ScalarMismatchError):
        stable_coordinates(x, 4)
    coarse = stable_coordinates(x, 2)
    assert coarse == [(cls, PadicInt(3, 2, c.residue))
                      for cls, c in stable_coordinates(x)]


def test_characteristic_idempotent_trivial_fusion():
    for spec, p in [("C2", 2), ("C3", 3), ("D8", 2), ("C2xC2", 2), ("Q8", 2)]:
        G = parse_group(spec)
        F = fusion_system(G, p)
        w = characteristic_idempotent(F, 6)
        assert w.underlying == identity_element(F.sylow_group).lift(p, 6)


def test_characteristic_idempotent_s3_closed_forms():
    F2 = fusion_system(S3, 2)
    w = characteristic_idempotent(F2, 8)
    assert w.underlying == identity_element(F2.sylow_group).lift(2, 8)
    # iteration oracle: squaring the restricted biset follows the scalar
    # recursion a -> 2a + 2a^2 on the free-class coefficient
    X = restrict(identity_element(S3), F2.sylow, F2.sylow)
    free = [b for b in X.support() if b.K.order == 1][0]
    a = 1
    cur = X
    for _ in range(4):
        cur = compose(cur, cur)
        a = 2 * a + 2 * a * a
        assert cur.coefficient(free) == a

    F3 = fusion_system(S3, 3)
    for k in (2, 4, 8):
        w3 = characteristic_idempotent(F3, k)
        u = (3 ** k + 1) // 2
        assert sorted(c.residue for _, c in w3.underlying.terms()) == [u, u]


def test_characteristic_idempotent_a4_closed_form():
    # V4 is normal in A4, so the restricted biset is 1 + rot + rot^2 and the
    # idempotent is the 2-adic inverse of 3 times that sum
    F = fusion_system(A4, 2)
    w = characteristic_idempotent(F, 6)
    u = pow(3, -1, 64)
    assert u == 43
    coeffs = [c.residue for _, c in w.underlying.terms()]
    assert coeffs == [43, 43, 43]


def test_idempotent_square_and_stability():
    for spec, p in [("S3", 2), ("S3", 3), ("S4", 2), ("A4", 2), ("A4", 3),
                    ("C6", 2), ("C6", 3)]:
        F = fusion_system(parse_group(spec), p)
        w = characteristic_idempotent(F, 6)
        assert compose(w.underlying, w.underlying) == w.underlying
        assert is_stable(w.underlying, F, F)


# the fusion systems on which the step counts quoted in fusion._fixed_point
# were measured
LIMIT_CASES = [(S4, 2), (S4, 3), (S5, 2), (A5, 2), (A5, 5), (D8xC2, 2),
               (S4xC2, 2), (S3, 3)]


def oracle_idempotent_lift(F, k):
    """omega at precision k by lifting omega mod p, from the powering at
    k = 1, along e -> 3e^2 - 2e^3: if e^2 = e mod p^j, the image is
    idempotent mod p^2j, so each step doubles the precision."""
    p = F.prime
    e = characteristic_idempotent(F, 1).underlying
    j = 1
    while j < k:
        j = min(2 * j, k)
        e = BurnsideElement(e.source, e.target, {
            b: c.residue for b, c in e.terms()}).lift(p, j)
        e2 = compose(e, e)
        e = e2.scaled(3) - compose(e2, e).scaled(2)
    return e


@pytest.mark.parametrize("k", [64, 128])
@pytest.mark.parametrize("G,p", LIMIT_CASES,
                         ids=[f"{G.label}-{p}" for G, p in LIMIT_CASES])
def test_characteristic_idempotent_matches_quadratic_lift(G, p, k):
    F = fusion_system(G, p)
    w = characteristic_idempotent(F, k).underlying
    assert w.precision == k
    assert w == oracle_idempotent_lift(F, k)


def test_idempotent_past_a_64_step_ceiling():
    # a fixed ceiling of 64 steps once refused k = 63 here
    F = fusion_system(S5, 2)
    w = characteristic_idempotent(F, 63).underlying
    assert w == oracle_idempotent_lift(F, 63)


def test_fixed_point_bound_follows_k_and_order():
    calls = []

    def toggle(y):
        calls.append(y)
        return 1 - y

    # |D8| = 8 has bit length 4: the bound is 4 + 3 + 2 * 16 + 1 = 40 at k = 4
    F = fusion_system(D8, 2)
    with pytest.raises(ConvergenceError, match=r"^toggle for F_2\(D8\) did "
                       "not stabilize within 40 steps$"):
        fusion._fixed_point(toggle, 0, 4, F, "toggle")
    assert len(calls) == 40
    # a step that reaches its fixed point returns it
    assert fusion._fixed_point(lambda y: min(y + 1, 7), 0, 1, F, "count") == 7


def test_precision_cap():
    F = fusion_system(S3, 3)
    assert characteristic_idempotent(F, PRECISION_CAP).precision \
        == PRECISION_CAP
    with pytest.raises(ScalarMismatchError, match="exceeds the cap"):
        characteristic_idempotent(F, PRECISION_CAP + 1)
    for k in (0, -3):
        with pytest.raises(ScalarMismatchError, match="at least 1"):
            characteristic_idempotent(F, k)


def test_stable_element_constructor_validates():
    F3 = fusion_system(S3, 3)
    S = F3.sylow_group
    with pytest.raises(FusionError):
        StableElement(single(identity_class(S)).lift(3, 4), F3, F3)
    # stable on the left but not on the right
    F1, F2 = fusion_system(S3, 2), fusion_system(S4, 2)
    one_sided = [x for x in (single(b).lift(2, 3)
                             for b in basis(F1.sylow_group, F2.sylow_group))
                 if oracle_twisted_restrictions_equal(x, F1, "left")
                 and not oracle_twisted_restrictions_equal(x, F2, "right")]
    assert one_sided
    with pytest.raises(FusionError):
        StableElement(one_sided[0], F1, F2)


@pytest.mark.parametrize("G,H,p", [(S4, S4, 2), (S3xC3, S3, 3)],
                         ids=lambda v: v.label if hasattr(v, "label") else str(v))
def test_stable_column_plus_an_unstable_class_is_rejected(G, H, p):
    k = 3
    F1, F2 = fusion_system(G, p), fusion_system(H, p)
    columns = [s.underlying for s in stable_basis(F1, F2, k)[:6]]
    unstable = [x for x in (single(b).lift(p, k)
                            for b in basis(F1.sylow_group, F2.sylow_group))
                if not oracle_is_stable(x, F1, F2)]
    assert unstable
    for i, x in enumerate(unstable):
        with pytest.raises(FusionError):
            StableElement(columns[i % len(columns)] + x, F1, F2)


def test_stable_basis_counts():
    F3 = fusion_system(S3, 3)
    sb = stable_basis(F3, F3, 4)
    # classes: (e, triv), (C3, 0), and (C3, id) merged with (C3, inv)
    assert len(sb) == 3
    Fe = fusion_system(E, 3)
    assert len(stable_basis(Fe, F3, 4)) == 1
    Ft = fusion_system(C3, 3)
    assert len(stable_basis(Ft, Ft, 4)) == len(basis(Ft.sylow_group,
                                                     Ft.sylow_group))


def test_stable_basis_count_matches_element_dedupe():
    # the merge count agrees with the number of distinct stabilized classes
    for G, p in [(S3, 3), (S3, 2), (A4, 2)]:
        F = fusion_system(G, p)
        w = characteristic_idempotent(F, 4).underlying
        seen = []
        for b in basis(F.sylow_group, F.sylow_group):
            v = compose(compose(w, single(b).lift(p, 4)), w)
            if not any(v == u for u in seen):
                seen.append(v)
        assert len(seen) == len(stable_pair_classes(F, F))


def test_omega_absorbs_stable_basis():
    for G, p in [(S3, 3), (A4, 2), (S4, 2)]:
        F = fusion_system(G, p)
        w = characteristic_idempotent(F, 4).underlying
        for s in stable_basis(F, F, 4):
            assert compose(w, s.underlying) == s.underlying
            assert compose(s.underlying, w) == s.underlying


def test_stabilize_projection():
    F3 = fusion_system(S3, 3)
    x = restrict(identity_element(S3), F3.sylow, F3.sylow)
    s = stabilize(x, F3, F3, 4)
    again = stabilize(s.underlying, F3, F3, 4)
    assert again.underlying == s.underlying
    # the identity class stabilizes to the idempotent itself
    w = characteristic_idempotent(F3, 4)
    s2 = stabilize(single(identity_class(F3.sylow_group)), F3, F3, 4)
    assert s2.underlying == w.underlying


def test_stabilize_s4_class():
    F = fusion_system(S4, 2)
    S = F.sylow_group
    cls = [b for b in basis(S, S) if b.K.order == 2][0]
    s = stabilize(single(cls), F, F, 4)
    assert is_stable(s.underlying, F, F)


def test_is_unit_semichar():
    F3 = fusion_system(S3, 3)
    w = characteristic_idempotent(F3, 4)
    assert is_unit_semichar(w)
    h = stabilize(restrict(identity_element(S3), F3.sylow, F3.sylow),
                  F3, F3, 4)
    assert is_unit_semichar(h)
    F2 = fusion_system(S3, 2)
    h2 = stabilize(restrict(identity_element(S3), F2.sylow, F2.sylow),
                   F2, F2, 4)
    assert is_unit_semichar(h2)  # |S3 : C2| = 3 is odd
    pw = StableElement(3 * w.underlying, F3, F3)
    assert not is_unit_semichar(pw)


def test_is_unit_semichar_rejects_non_semichar():
    FD8 = fusion_system(parse_group("D8"), 2)
    S = FD8.sylow_group
    twisted = [b for b in basis(S, S)
               if b.K.order == 2 and b.phi.is_injective
               and set(b.phi.images) != set(b.K.elements)]
    z = stabilize(single(twisted[0]), FD8, FD8, 4)
    with pytest.raises(NotSemicharacteristicError):
        is_unit_semichar(z)


def test_stability_definitions_agree():
    # the elementary twisted-restriction test and absorption by the
    # characteristic idempotents decide the same property
    rng = random.Random(314)
    for G, p in [(S3, 2), (S3, 3), (A4, 2)]:
        F = fusion_system(G, p)
        S = F.sylow_group
        w = characteristic_idempotent(F, 4).underlying
        pool = basis(S, S)
        for _ in range(12):
            picks = rng.sample(pool, min(2, len(pool)))
            x = None
            for b in picks:
                part = PadicInt(p, 4, rng.randrange(p ** 4)) * single(b).lift(p, 4)
                x = part if x is None else x + part
            absorbed = (compose(w, x) == x and compose(x, w) == x)
            assert is_stable(x, F, F) == absorbed


def test_semichar_ring_compatibility():
    # on semicharacteristic stable elements the augmentation is
    # multiplicative: quotienting a composite matches the ring product of
    # the quotients, with the product read off the marks oracle
    from burnfuse.burnside import augment, ring_product
    from test_burnside import marks
    for G, p in [(S3, 2), (S3, 3), (A4, 2)]:
        F = fusion_system(G, p)
        w = characteristic_idempotent(F, 4)
        h = stabilize(restrict(identity_element(G), F.sylow, F.sylow),
                      F, F, 4)
        for x, y in [(w, h), (h, h), (w, w)]:
            lhs = augment(compose(x.underlying, y.underlying))
            rhs = ring_product(augment(x.underlying), augment(y.underlying))
            assert marks(lhs) == marks(rhs)


def test_invert_stable_identity():
    F3 = fusion_system(S3, 3)
    w = characteristic_idempotent(F3, 4)
    assert invert_stable(w, 4).underlying == w.underlying


def test_invert_stable_s3_p3_closed_form():
    # the stabilized group biset is 1 + inversion; its inverse scales the
    # same sum by the 3-adic 1/4
    F3 = fusion_system(S3, 3)
    h = stabilize(restrict(identity_element(S3), F3.sylow, F3.sylow),
                  F3, F3, 4)
    inv = invert_stable(h, 4)
    assert sorted(c.residue for _, c in inv.underlying.terms()) == [61, 61]
    w = characteristic_idempotent(F3, 4).underlying
    assert compose(h.underlying, inv.underlying) == w


def test_invert_stable_s3_p2_frozen():
    # recorded output at k = 6: the free-class coefficient solves
    # 1 + 3b = 0 mod 64, so b = 21
    F2 = fusion_system(S3, 2)
    h = stabilize(restrict(identity_element(S3), F2.sylow, F2.sylow),
                  F2, F2, 6)
    inv = invert_stable(h, 6)
    S = F2.sylow_group
    free = [b for b in inv.underlying.support() if b.K.order == 1][0]
    assert inv.underlying.coefficient(identity_class(S)).residue == 1
    assert inv.underlying.coefficient(free).residue == 21
    w = characteristic_idempotent(F2, 6).underlying
    assert compose(inv.underlying, h.underlying) == w


def test_invert_stable_rejects_non_unit():
    F3 = fusion_system(S3, 3)
    w = characteristic_idempotent(F3, 4)
    pw = StableElement(3 * w.underlying, F3, F3)
    with pytest.raises(NonUnitError):
        invert_stable(pw, 4)


def test_a_fus_identity_and_chain():
    for G, p in [(S3, 2), (S3, 3), (A4, 2)]:
        F = fusion_system(G, p)
        w = characteristic_idempotent(F, 4)
        assert a_fus(identity_hom_on(F), F, F, 4).underlying == w.underlying


def test_a_fus_functorial():
    # e -> C3 -> C3 with the target carrying the S3-fusion
    F3 = fusion_system(S3, 3)
    Fe = fusion_system(E, 3)
    Se, S = Fe.sylow_group, F3.sylow_group
    psi = GroupHom(Se.full_subgroup(), S, {Se.identity: S.identity})
    phi = identity_hom_on(F3)
    left = compose(a_fus(psi, Fe, F3, 4).underlying,
                   a_fus(phi, F3, F3, 4).underlying)
    chain = GroupHom(Se.full_subgroup(), S, {Se.identity: S.identity})
    right = a_fus(chain, Fe, F3, 4).underlying
    assert left == right


def test_a_fus_rejects_non_preserving():
    F3 = fusion_system(S3, 3)
    FC3 = fusion_system(C3, 3)
    cross = GroupHom(F3.sylow_group.full_subgroup(), FC3.sylow_group,
                     dict((x, x) for x in F3.sylow_group.elements))
    with pytest.raises(FusionError):
        a_fus(cross, F3, FC3, 4)


def dense_residues(elt, ordinary, p, k):
    """The coefficients of elt on the ordinary basis, mod p^k."""
    if elt.is_padic and elt.precision < k:
        raise ScalarMismatchError(
            f"cannot raise precision {elt.precision} to {k}")
    mod = p ** k
    terms = {b: c.residue if elt.is_padic else c for b, c in elt.terms()}
    return [terms.get(b, 0) % mod for b in ordinary]


def dense_solve_unit_pivot(columns, target, p, k):
    """Solve sum_j c_j columns[j] = target over Z/p^k by elimination with
    unit pivots over the whole ordinary basis. Returns the coefficient
    list, or None if inconsistent."""
    mod = p ** k
    ncols = len(columns)
    nrows = len(target)
    a = [[columns[j][i] % mod for j in range(ncols)] + [target[i] % mod]
         for i in range(nrows)]
    pivot_row_of_col: dict[int, int] = {}
    used_rows: set[int] = set()
    for j in range(ncols):
        pivot = next((i for i in range(nrows)
                      if i not in used_rows and a[i][j] % p != 0), None)
        if pivot is None:
            raise FormulaMismatchError(
                "stable basis columns are not independent mod p")
        inv = pow(a[pivot][j], -1, mod)
        a[pivot] = [(v * inv) % mod for v in a[pivot]]
        for i in range(nrows):
            if i != pivot and a[i][j]:
                f = a[i][j]
                a[i] = [(v - f * w) % mod for v, w in zip(a[i], a[pivot])]
        used_rows.add(pivot)
        pivot_row_of_col[j] = pivot
    for i in range(nrows):
        if i not in used_rows and a[i][ncols] % mod != 0:
            return None
    return [a[pivot_row_of_col[j]][ncols] for j in range(ncols)]


@pytest.mark.parametrize("G,H,p", [(S4, S4, 2), (S5, S5, 2), (S5, S4, 3),
                                   (A4, S4, 2), (S3, S3, 3), (D8xC2, C2, 2),
                                   (A5, A5, 2), (S4, S3, 3)],
                         ids=lambda v: v.label if hasattr(v, "label") else str(v))
def test_stable_coordinates_match_dense_oracle(G, H, p):
    k = 3
    F1, F2 = fusion_system(G, p), fusion_system(H, p)
    sb = stable_basis(F1, F2, k)
    ordinary = basis(F1.sylow_group, F2.sylow_group)
    columns = [dense_residues(s.underlying, ordinary, p, k) for s in sb]
    rng = random.Random(7 + len(ordinary))
    for _ in range(3):
        coeffs = [PadicInt(p, k, rng.randrange(p ** k)) for _ in sb]
        total = sum((c * s.underlying for c, s in zip(coeffs[1:], sb[1:])),
                    coeffs[0] * sb[0].underlying)
        got = stable_coordinates(StableElement(total, F1, F2))
        assert [cls for cls, _ in got] == list(stable_pair_classes(F1, F2))
        want = dense_solve_unit_pivot(
            columns, dense_residues(total, ordinary, p, k), p, k)
        assert [c.residue for _, c in got] == want
        assert [c for _, c in got] == coeffs


def reversed_basis(element, n):
    """Each column on a foreign fusion class: a class gets no unit pivot or
    support on a class of larger or equal |K|."""
    return lambda F1, F2, k, i: element(F1, F2, k, n - 1 - i)


def skewed_basis(element, n):
    """p times the first element added to the second: the second keeps its
    unit pivot but gains support on a class of larger or equal |K|."""
    def skewed(F1, F2, k, i):
        if i != 1:
            return element(F1, F2, k, i)
        first, second = element(F1, F2, k, 0), element(F1, F2, k, 1)
        return StableElement(second.underlying + F1.prime * first.underlying,
                             F1, F2)
    return skewed


def stable_sum(F1, F2, k):
    """The sum of the stable basis elements, whose support meets every
    fusion class, so solving it builds every column."""
    sb = stable_basis(F1, F2, k)
    total = sum((s.underlying for s in sb[1:]), sb[0].underlying)
    support = set(total.support())
    assert all(support.intersection(cls)
               for cls in stable_pair_classes(F1, F2))
    return StableElement(total, F1, F2)


@pytest.mark.parametrize("misalign", [reversed_basis, skewed_basis])
def test_stable_columns_reject_misaligned_basis(monkeypatch, misalign):
    # the columns and stable_basis are built through one per-class
    # function; misaligned there, the first column built off its class
    # must raise
    F = fusion_system(S4, 2)
    x = stable_sum(F, F, 3)
    n = len(stable_pair_classes(F, F))
    monkeypatch.setattr(fusion, "_stable_element",
                        misalign(fusion._stable_element, n))
    fusion._stable_column.cache_clear()
    try:
        with pytest.raises(FormulaMismatchError):
            stable_coordinates(x)
    finally:
        fusion._stable_column.cache_clear()


@pytest.mark.parametrize("G,H,p", [(S4, S4, 2), (S5, S4, 3), (S5, S5, 2),
                                   (D8xC2, D8xC2, 2), (D8xC2, S4, 2)],
                         ids=lambda v: v.label if hasattr(v, "label") else str(v))
def test_lazy_columns_match_stable_basis(G, H, p):
    # each column, built on first use, is the matching stable basis
    # element itself, with a unit pivot inside its own fusion class
    k = 3
    F1, F2 = fusion_system(G, p), fusion_system(H, p)
    classes = stable_pair_classes(F1, F2)
    for i, (cls, s) in enumerate(zip(classes, stable_basis(F1, F2, k))):
        stable, pivot, inv = fusion._stable_column(F1, F2, k, i)
        assert stable is s
        assert pivot in cls
        assert s.underlying.coefficient(pivot).residue * inv % p ** k == 1


@pytest.mark.parametrize("G,H,p", [(S4, S4, 2), (S5, S4, 3)],
                         ids=lambda v: v.label if hasattr(v, "label") else str(v))
def test_each_class_is_stabilized_once(monkeypatch, G, H, p):
    # stable_basis and the columns that solving reads are one store: across
    # both, each fusion class is stabilized exactly once
    k = 3
    F1, F2 = fusion_system(G, p), fusion_system(H, p)
    calls = []
    build = fusion._stable_element

    def counted(F1, F2, k, i):
        calls.append(i)
        return build(F1, F2, k, i)

    monkeypatch.setattr(fusion, "_stable_element", counted)
    fusion._stable_column.cache_clear()
    try:
        sb = stable_basis(F1, F2, k)
        got = stable_coordinates(stable_sum(F1, F2, k))
        assert [c.residue for _, c in got] == [1] * len(sb)
        assert sorted(calls) == list(range(len(sb)))
        assert all(s is fusion._stable_column(F1, F2, k, i)[0]
                   for i, s in enumerate(sb))
    finally:
        fusion._stable_column.cache_clear()


def test_coordinates_do_not_depend_on_solve_order():
    # columns are built in the order elements meet their classes; the
    # coordinates must come out the same either way
    F1, F2 = fusion_system(S4, 2), fusion_system(D8xC2, 2)
    k = 3
    sb = stable_basis(F1, F2, k)
    rng = random.Random(11)
    elements = []
    for _ in range(2):
        picks = rng.sample(range(len(sb)), 3)
        total = sum((PadicInt(2, k, rng.randrange(1, 8)) * sb[i].underlying
                     for i in picks[1:]), sb[picks[0]].underlying)
        elements.append(StableElement(total, F1, F2))
    results = []
    for order in (elements, elements[::-1]):
        fusion._stable_column.cache_clear()
        got = {id(x): stable_coordinates(x) for x in order}
        results.append([got[id(x)] for x in elements])
    assert results[0] == results[1]
    assert [stable_coordinates(x) for x in elements] == results[0]


def test_unit_inverse_builds_few_columns():
    # is_unit_semichar solves one element with support on few classes:
    # only the columns of those classes are built
    F = fusion_system(S4xC2, 2)
    fusion._stable_column.cache_clear()
    completion_unit_inverse.__wrapped__(S4xC2, 2, 4)
    filled = fusion._stable_column.cache_info().currsize
    assert 0 < filled and 100 * filled < len(stable_pair_classes(F, F))


def test_stable_coordinates_round_trip():
    F3 = fusion_system(S3, 3)
    sb = stable_basis(F3, F3, 4)
    rng = random.Random(42)
    coeffs = [PadicInt(3, 4, rng.randrange(81)) for _ in sb]
    total = None
    for c, s in zip(coeffs, sb):
        part = c * s.underlying
        total = part if total is None else total + part
    elt = StableElement(total, F3, F3)
    got = {cls: c for cls, c in stable_coordinates(elt)}
    classes = stable_pair_classes(F3, F3)
    for cls, c in zip(classes, coeffs):
        assert got[cls] == c
