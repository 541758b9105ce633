import functools
import itertools
import operator
import random

import pytest

from burnfuse.burnside import (BurnsideElement, ConcreteBiset, TRIVIAL,
                               _ideal_power_lattice, augment,
                               augmentation_ideal_generators, basis,
                               burnside_ring_class, burnside_ring_element,
                               canonical_class, cardinality, compose,
                               decompose, element, ideal_power_membership,
                               identity_class, identity_element, in_kernel,
                               kernel_basis_elements, opposite, power, realize,
                               restrict, ring_product, semichar_embed, single,
                               zero)
from burnfuse.errors import BisetError, ScalarMismatchError
from burnfuse.groups import (GroupHom, Subgroup, as_group, homomorphisms,
                             parse_group, sylow, subgroups_up_to_conjugacy)
from burnfuse.padic import PRECISION_CAP, PadicInt
from burnfuse.perms import gather, p_inv, p_mul
from burnfuse.serialize import element_from_json, element_to_json
from burnfuse.verify import ROUND_TRIP_ROSTER

from test_groups import oracle_double_cosets
from test_intlattice import OracleDenseLattice
from test_padic import ref_add, ref_mul, ref_sub

S3 = parse_group("S3")
S4 = parse_group("S4")
C2 = parse_group("C2")
C3 = parse_group("C3")
C6 = parse_group("C6")
E = parse_group("C1")


def trivial_hom(sub, codomain):
    return GroupHom.from_indices(sub, codomain, (0,) * sub.order)


def group_as_biset(G, A, B):
    """G with left A-multiplication and right B-multiplication; built from
    raw group multiplication, independently of realize."""
    left = [[G.index(p_mul(a, g)) for g in G.elements] for a in A.elements]
    right = [[G.index(p_mul(g, b)) for g in G.elements] for b in B.elements]
    from burnfuse.groups import as_group
    return ConcreteBiset(as_group(A), as_group(B), G.order, left, right)


def brute_force_basis_count(G, H):
    """Independent count of transitive classes: enumerate all (K, phi) pairs
    and merge under simultaneous conjugation, working on raw image maps."""
    pairs = set()
    reps = []
    for K in subgroups_up_to_conjugacy(G):
        for phi in homomorphisms(K, H):
            key = (K.elements, phi.images)
            if key in pairs:
                continue
            reps.append((K, phi))
            for g in G.elements:
                gi = p_inv(g)
                kelems = tuple(sorted(p_mul(p_mul(g, x), gi)
                                      for x in K.elements))
                base = {p_mul(p_mul(g, x), gi): phi(x) for x in K.elements}
                for h in H.elements:
                    hi = p_inv(h)
                    imgs = tuple(p_mul(p_mul(h, base[x]), hi)
                                 for x in sorted(base))
                    pairs.add((kelems, imgs))
    # the orbit sweep above only visits pairs whose K is already a class
    # representative, which is exactly what the basis enumerates
    merged = set()
    for K, phi in reps:
        canon = canonical_class(G, H, K, phi)
        merged.add(canon)
    return len(merged)


@pytest.mark.parametrize("G,H,count", [
    (E, E, 1), (C2, C2, 3), (C3, C3, 4), (S3, S3, 8), (C6, C6, 12),
])
def test_basis_counts(G, H, count):
    assert len(basis(G, H)) == count
    assert len(basis(G, H)) == brute_force_basis_count(G, H)


def test_basis_c2_shape():
    labels = {(b.K.order, b.phi.is_injective) for b in basis(C2, C2)}
    assert labels == {(2, False), (2, True), (1, True)}


def test_basis_is_sorted_by_descending_k():
    for G in (C2, S3, C6):
        b = basis(G, G)
        orders = [cls.K.order for cls in b]
        assert orders == sorted(orders, reverse=True)
        # the identity class sits in the leading |K| = |G| block
        head = [cls for cls in b if cls.K.order == G.order]
        assert identity_class(G) in head
        assert list(b) == sorted(b, key=lambda c: c.sort_key)


def test_realize_sizes():
    assert realize(identity_class(S3)).size == 6
    b = basis(E, C2)[0]
    X = realize(b)
    assert X.size == 2
    X.validate()
    incl = canonical_class(C2, S3, C2.full_subgroup(),
                           {C2.identity: S3.identity, (1, 0): (0, 2, 1)})
    assert realize(incl).size == 6


def test_round_trip_small():
    for G, H in [(C2, C2), (C3, C3), (S3, S3), (C2, S3)]:
        for b in basis(G, H):
            assert decompose(realize(b)) == single(b)


A5 = parse_group("A5")


@pytest.mark.parametrize("G,H", [
    (S4, S4), (S4, parse_group("D8")), (A5, C2),
    (parse_group("C2xC2xC2"), parse_group("A4")),
    (as_group(sylow(S4, 2)), as_group(sylow(A5, 2))),
], ids=["S4,S4", "S4,D8", "A5,C2", "C2xC2xC2,A4", "Syl2(S4),Syl2(A5)"])
def test_round_trip_beyond_small_groups(G, H):
    # larger and nonsolvable groups, and subgroups viewed as groups, whose
    # element order is not the order of a standard spec
    for b in basis(G, H):
        assert decompose(realize(b)) == single(b)


def oracle_realize(b):
    """The closed formula `realize` used before its coset and block tables
    were cached: coset minima by a min over each gathered coset, and every
    point of x's classes by a product x^-1 m in G."""
    G, H, K, phi = b.source, b.target, b.K, b.phi
    gmul, hmul, ginv = G.mul, H.mul, G.inv
    coset_min = [min(gather(row, K.indices)) for row in gmul]
    minima = sorted(set(coset_min))
    offset = {m: i * H.order for i, m in enumerate(minima)}
    phi_inv = dict(zip(K.indices, map(H.inv.__getitem__, phi.image_indices)))
    # points_of[x][h] is the point of the class of (x, h)
    points_of = []
    for x, m in enumerate(coset_min):
        base = offset[m]
        points_of.append([base + v for v in hmul[phi_inv[gmul[ginv[x]][m]]]])
    left = [[y for m in minima for y in points_of[row[m]]] for row in gmul]
    right = [[base + v for base in offset.values() for v in col]
             for col in zip(*hmul)]
    return ConcreteBiset(G, H, len(minima) * H.order, left, right)


# every tenth of the 196 ordered pairs of the round-trip roster
_ROSTER_PAIRS = list(itertools.product(ROUND_TRIP_ROSTER, repeat=2))[::10]


@pytest.mark.parametrize("G,H", [
    (S4, S4), (A5, C2), (parse_group("D8"), parse_group("Q8")), (E, C2),
    (as_group(sylow(S4, 2)), as_group(sylow(A5, 2))),
    *[(parse_group(g), parse_group(h)) for g, h in _ROSTER_PAIRS],
], ids=["S4,S4", "A5,C2", "D8,Q8", "C1,C2", "Syl2(S4),Syl2(A5)",
        *[f"{g},{h}" for g, h in _ROSTER_PAIRS]])
def test_realize_matches_closed_formula_oracle(G, H):
    for b in basis(G, H):
        X, Y = realize(b), oracle_realize(b)
        assert (X.size, X.left, X.right) == (Y.size, Y.left, Y.right)


def test_decompose_group_bisets():
    # independent construction from multiplication tables
    S = sylow(S3, 2)
    d = decompose(group_as_biset(S3, S, S))
    from burnfuse.groups import as_group
    Sg = as_group(S)
    assert len(d.support()) == 2
    assert d.coefficient(identity_class(Sg)) == 1
    free = [b for b in d.support() if b.K.order == 1]
    assert len(free) == 1 and d.coefficient(free[0]) == 1

    T = sylow(S3, 3)
    d3 = decompose(group_as_biset(S3, T, T))
    Tg = as_group(T)
    assert d3.coefficient(identity_class(Tg)) == 1
    twisted = [b for b in d3.support() if b != identity_class(Tg)]
    assert len(twisted) == 1
    tw = twisted[0]
    assert tw.K.order == 3 and tw.phi.is_injective
    assert tw.phi.images != tw.K.elements


def test_decompose_rejects_bad_bisets():
    # non-free right action: two points with trivial right C2-action
    left = [[0, 1], [0, 1]]
    right = [[0, 1], [0, 1]]
    X = ConcreteBiset(C2, C2, 2, left, right)
    with pytest.raises(BisetError, match="^right action is not free$"):
        decompose(X)
    # a left 4-cycle on 4 points is not an action of C2
    ident = [0, 1, 2, 3]
    other = [2, 3, 0, 1]
    bad = ConcreteBiset(C2, C2, 4,
                        [ident, [1, 2, 3, 0]],
                        [ident, other])
    with pytest.raises(BisetError, match="^left table is not an action$"):
        decompose(bad)


C4 = parse_group("C4")
_I2, _S2 = [0, 1], [1, 0]
_I4 = [0, 1, 2, 3]


def _c4_on_two_points():
    """C4 acting on 2 points through C4 -> C2: g^2 fixes both points, though
    the generator moves them."""
    return [_S2 if p_mul(h, h) != C4.identity else _I2 for h in C4.elements]


def _c4_with_trivial_square():
    """C4 acting on its 4 points, except that g^2, for g the generator, acts
    trivially: the generator's row is right, and the table is no action."""
    g = C4.generator_indices()[0]
    rows = [list(p) for p in C4.elements]
    rows[C4.mul[g][g]] = _I4
    return rows


@pytest.mark.parametrize("source,target,size,left,right,message", [
    (C2, C2, 2, [_I2], [_I2, _S2],
     "action table shape does not match group orders"),
    (C2, C2, 2, [_I2, _S2], [_I2, _S2, _I2],
     "action table shape does not match group orders"),
    (C2, C2, 2, [_S2, _I2], [_I2, _S2], "left identity does not act trivially"),
    (C2, C2, 2, [_I2, _S2], [_S2, _I2], "right identity does not act trivially"),
    # a 4-cycle is no action of C2
    (C2, C2, 4, [_I4, [1, 2, 3, 0]], [_I4, [1, 0, 3, 2]],
     "left table is not an action"),
    (C2, C2, 4, [_I4, [1, 0, 3, 2]], [_I4, [1, 2, 3, 0]],
     "right table is not an action"),
    # the generator rows alone are no evidence: the row of g^2 is checked too
    (C4, E, 4, _c4_with_trivial_square(), [_I4],
     "left table is not an action"),
    (E, C4, 4, [_I4], _c4_with_trivial_square(),
     "right table is not an action"),
    # (2 3) on the left and the free (1 2)(3 4) on the right
    (C2, C2, 4, [_I4, [0, 2, 1, 3]], [_I4, [1, 0, 3, 2]],
     "left and right actions do not commute"),
    # C2 acting trivially on 2 points
    (C2, C2, 2, [_I2, _I2], [_I2, _I2], "right action is not free"),
    (E, C4, 2, [_I2], _c4_on_two_points(), "right action is not free"),
    # entries past the last point, and a row too short for the points
    (C2, C2, 2, [_I2, [1, 5]], [_I2, _S2], "action table entry out of range"),
    (C2, C2, 2, [_I2, _S2], [_I2, [1, 5]], "action table entry out of range"),
    (C2, C2, 2, [_I2, [1]], [_I2, _S2], "action table entry out of range"),
], ids=["left-shape", "right-shape", "left-identity", "right-identity",
        "left-action", "right-action", "left-action-C4-square",
        "right-action-C4-square", "commute", "free-trivial", "free-C4",
        "left-entry-range", "right-entry-range", "left-row-short"])
def test_validate_rejects(source, target, size, left, right, message):
    X = ConcreteBiset(source, target, size, left, right)
    with pytest.raises(BisetError, match=f"^{message}$"):
        X.validate()


def test_decompose_of_non_free_biset_raises_validate_message():
    # every orbit check in decompose comes after validate's freeness check
    X = ConcreteBiset(E, C4, 2, [_I2], _c4_on_two_points())
    with pytest.raises(BisetError, match="^right action is not free$"):
        decompose(X)


def test_compose_examples():
    x1 = single(basis(E, C2)[0])
    x2 = single([b for b in basis(C2, E) if b.K.order == 1][0])
    out = compose(x1, x2)
    assert out == 2 * single(basis(E, E)[0])

    aut = [b for b in basis(C3, C3)
           if b.K.order == 3 and b.phi.is_injective]
    idc = identity_class(C3)
    inv = [b for b in aut if b != idc][0]
    assert compose(single(inv), single(inv)) == single(idc)


def compose_double_coset_oracle(b1, b2):
    """Mackey-style formula for the product of two transitive classes,
    summed over double cosets of the middle group, on permutation tuples.
    Independent of the coequalizer routine and of the index tables that
    _compose_basis reads."""
    G, H, M = b1.source, b1.target, b2.target
    K, phi = b1.K, b1.phi
    L, psi = b2.K, b2.phi
    phiK = H.subgroup(set(phi.images))
    out = {}
    for x, _ in oracle_double_cosets(H, phiK, L):
        xi = p_inv(x)
        members, images = [], []
        for k in K.elements:
            t = p_mul(p_mul(xi, phi(k)), x)
            if t in L:
                members.append(k)
                images.append(psi(t))
        Kx = Subgroup(G, members)
        b = canonical_class(G, M, Kx, dict(zip(Kx.elements, images)))
        out[b] = out.get(b, 0) + 1
    return BurnsideElement(G, M, out)


def test_compose_matches_double_coset_oracle():
    rng = random.Random(101)
    for G, H, M in [(S3, S3, S3), (S3, S4, S3), (C6, S3, C6), (C2, C2, C2)]:
        for _ in range(8):
            b1 = rng.choice(basis(G, H))
            b2 = rng.choice(basis(H, M))
            assert compose(single(b1), single(b2)) == \
                compose_double_coset_oracle(b1, b2)


def random_element(G, H, rng, terms=3, bound=3):
    pool = basis(G, H)
    picks = rng.sample(pool, min(terms, len(pool)))
    return BurnsideElement(G, H, {b: rng.randint(-bound, bound) for b in picks})


def test_compose_bilinear():
    rng = random.Random(102)
    for _ in range(10):
        x1 = random_element(S3, S3, rng)
        x2 = random_element(S3, S3, rng)
        y = random_element(S3, C6, rng)
        assert compose(x1 + x2, y) == compose(x1, y) + compose(x2, y)
        assert compose(y.scaled(0) + y, x := random_element(C6, C6, rng)) == \
            compose(y, x)


def test_compose_associative():
    rng = random.Random(103)
    for _ in range(15):
        x = random_element(S3, C6, rng, terms=2)
        y = random_element(C6, S3, rng, terms=2)
        z = random_element(S3, S3, rng, terms=2)
        assert compose(compose(x, y), z) == compose(x, compose(y, z))


def test_compose_group_mismatch():
    with pytest.raises(BisetError):
        compose(identity_element(S3), identity_element(C2))


def test_compose_scalar_rules():
    x = identity_element(S3)
    xp = x.lift(2, 4)
    assert compose(xp, x) == xp
    assert compose(x, xp) == xp
    with pytest.raises(ScalarMismatchError):
        compose(xp, x.lift(3, 4))
    with pytest.raises(ScalarMismatchError):
        compose(xp, x.lift(2, 5))
    assert compose(xp, x.lift(2, 4)) == xp


def test_restrict_examples():
    S, T = sylow(S3, 2), sylow(S3, 3)
    r = restrict(identity_element(S3), S, S)
    assert r == decompose(group_as_biset(S3, S, S))
    # 6 points with free right C3-action: two orbits
    x = single(basis(E, S3)[0])
    rr = restrict(x, E.full_subgroup(), T)
    from burnfuse.groups import as_group
    Tg = as_group(T)
    assert rr == 2 * single(basis(as_group(E.full_subgroup()), Tg)[0])


def test_opposite_examples():
    assert opposite(identity_element(S3)) == identity_element(S3)
    for H in (C2, S3):
        x = single(basis(E, H)[0])
        op = opposite(x)
        assert op.source == H and op.target == E
        b = op.support()[0]
        assert b.K.order == 1 and op.coefficient(b) == 1
    # transfer class of an embedded C2 in S3
    incl = canonical_class(C2, S3, C2.full_subgroup(),
                           {C2.identity: S3.identity, (1, 0): (0, 2, 1)})
    op = opposite(single(incl))
    assert cardinality(op) == 6
    b = op.support()[0]
    assert b.K.order == 2 and b.phi.is_injective


def test_opposite_involution_and_antihom():
    rng = random.Random(104)
    bifree = [b for b in basis(S3, S4) if b.phi.is_injective]
    bifree2 = [b for b in basis(S4, S3) if b.phi.is_injective]
    for _ in range(8):
        x = BurnsideElement(S3, S4, {rng.choice(bifree): rng.randint(-2, 2),
                                     rng.choice(bifree): rng.randint(-2, 2)})
        y = BurnsideElement(S4, S3, {rng.choice(bifree2): rng.randint(-2, 2)})
        assert opposite(opposite(x)) == x
        assert opposite(compose(x, y)) == compose(opposite(y), opposite(x))


def test_opposite_rejects_non_bifree():
    full = S3.full_subgroup()
    zero_cls = canonical_class(S3, S3, full, trivial_hom(full, S3))
    with pytest.raises(BisetError):
        opposite(single(zero_cls))


def test_augment_examples():
    S = sylow(S3, 2)
    x = restrict(identity_element(S3), S, S)
    a = augment(x)
    from burnfuse.groups import as_group
    Sg = as_group(S)
    # the quotient S3/C2 is a 3-point left C2-set: one fixed point and one
    # free orbit
    assert a.coefficient(burnside_ring_class(Sg, Sg.full_subgroup())) == 1
    trivial_sub = Sg.subgroup([Sg.identity])
    assert a.coefficient(burnside_ring_class(Sg, trivial_sub)) == 1
    assert cardinality(a) == 3

    # any phi maps to the same left quotient
    for b in basis(S3, S4):
        assert augment(single(b)) == burnside_ring_element(S3, [(b.K, 1)])

    full = S3.full_subgroup()
    zero_cls = canonical_class(S3, S3, full, trivial_hom(full, S3))
    om = identity_element(S3) - single(zero_cls)
    assert augment(om).is_zero
    assert in_kernel(om)


def test_augment_compose_compatible():
    rng = random.Random(105)
    for _ in range(8):
        x = random_element(S3, C6, rng, terms=2)
        y = random_element(C6, S3, rng, terms=2)
        assert augment(compose(x, y)) == compose(x, augment(y))


def test_semichar_embed():
    assert semichar_embed(burnside_ring_element(
        S3, [(S3.full_subgroup(), 1)])) == identity_element(S3)
    e_sub = C2.subgroup([C2.identity])
    emb = semichar_embed(burnside_ring_element(
        C2, [(e_sub, 1), (C2.full_subgroup(), -2)]))
    assert emb == BurnsideElement(C2, C2, {
        canonical_class(C2, C2, e_sub, {C2.identity: C2.identity}): 1,
        identity_class(C2): -2})
    # section of augmentation on the whole ring
    for G in (C2, S3, C6):
        for K in subgroups_up_to_conjugacy(G):
            a = burnside_ring_element(G, [(K, 1)])
            assert augment(semichar_embed(a)) == a


def _fixed_points(G, L, K):
    """Number of L-fixed cosets in G/K, i.e. cosets gK with g^-1 L g <= K,
    on permutation tuples."""
    kset = set(K.elements)
    seen, count = set(), 0
    for g in G.elements:
        if g in seen:
            continue
        seen.update(p_mul(g, k) for k in K.elements)
        gi = p_inv(g)
        if all(p_mul(p_mul(gi, x), g) in kset for x in L.generators()):
            count += 1
    return count


def marks(a):
    """The ring-product oracle: the vector of fixed-point counts of a
    virtual G-set, indexed by the subgroup classes of G in their canonical
    order, summed with the reference scalar arithmetic. Multiplication in
    the Burnside ring is pointwise on these vectors."""
    assert a.target == TRIVIAL
    G = a.source
    return tuple(functools.reduce(ref_add, (ref_mul(c, _fixed_points(G, L, b.K))
                                            for b, c in a.terms()), 0)
                 for L in subgroups_up_to_conjugacy(G))


def test_marks_examples():
    assert marks(burnside_ring_element(
        S3, [(S3.full_subgroup(), 1)])) == (1, 1, 1, 1)
    e_sub = C2.subgroup([C2.identity])
    assert marks(burnside_ring_element(C2, [(e_sub, 1)])) == (2, 0)
    assert marks(burnside_ring_element(S3, [(sylow(S3, 2), 1)])) == (3, 1, 0, 0)


def test_marks_multiplicative_oracle():
    rng = random.Random(106)
    for G in (S3, C6, parse_group("D8")):
        classes = subgroups_up_to_conjugacy(G)
        for _ in range(6):
            a = burnside_ring_element(
                G, [(rng.choice(classes), rng.randint(-2, 3)) for _ in range(2)])
            b = burnside_ring_element(
                G, [(rng.choice(classes), rng.randint(-2, 3)) for _ in range(2)])
            pointwise = tuple(u * v for u, v in zip(marks(a), marks(b)))
            assert marks(ring_product(a, b)) == pointwise
            assert marks(augment(compose(semichar_embed(a),
                                         semichar_embed(b)))) == pointwise


def _left_cosets(G, K):
    """Left cosets gK: representatives (minimal member) and the coset number
    of each element, all as element indices."""
    lookup = [-1] * G.order
    reps = []
    for g, row in enumerate(G.mul):
        if lookup[g] >= 0:
            continue
        reps.append(g)
        for x in map(row.__getitem__, K.indices):
            lookup[x] = len(reps) - 1
    return reps, lookup


def oracle_ring_product(G, K, L):
    """The ring-product oracle by orbits: decompose the G-set G/K x G/L with
    the diagonal action into orbits, each contributing G/(point stabilizer).
    Independent of the Mackey composition."""
    repsK, lookK = _left_cosets(G, K)
    repsL, lookL = _left_cosets(G, L)
    gens = [G.mul[i] for i in G.generator_indices()]
    seen = set()
    terms = {}
    for start in itertools.product(range(len(repsK)), range(len(repsL))):
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 1
        while stack:
            i, j = stack.pop()
            for row in gens:
                nxt = (lookK[row[repsK[i]]], lookL[row[repsL[j]]])
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
                    size += 1
        i, j = start
        stab = [g for g, row in enumerate(G.mul)
                if lookK[row[repsK[i]]] == i and lookL[row[repsL[j]]] == j]
        assert size * len(stab) == G.order
        b = burnside_ring_class(G, Subgroup.from_indices(G, stab))
        terms[b] = terms.get(b, 0) + 1
    return BurnsideElement(G, TRIVIAL, terms)


@pytest.mark.parametrize("spec", ["S3", "C6", "D8", "Q8", "A4", "S4", "C3xC3"])
def test_ring_product_matches_orbit_oracle(spec):
    G = parse_group(spec)
    classes = subgroups_up_to_conjugacy(G)
    for K, L in itertools.product(classes, repeat=2):
        got = ring_product(burnside_ring_element(G, [(K, 1)]),
                           burnside_ring_element(G, [(L, 1)]))
        assert got == oracle_ring_product(G, K, L), (K, L)


def test_ring_product_scalar_rules():
    D8 = parse_group("D8")
    rng = random.Random(108)
    classes = subgroups_up_to_conjugacy(D8)
    a = burnside_ring_element(D8, [(K, rng.randint(-3, 3)) for K in classes])
    b = burnside_ring_element(D8, [(K, rng.randint(-3, 3)) for K in classes])
    assert ring_product(a.lift(2, 4), b) == ring_product(a, b).lift(2, 4)
    assert ring_product(a, b.lift(2, 4)).precision == 4
    with pytest.raises(ScalarMismatchError):
        ring_product(a.lift(2, 4), b.lift(2, 5))
    with pytest.raises(BisetError):
        ring_product(a, burnside_ring_element(S3, [(S3.full_subgroup(), 1)]))
    with pytest.raises(BisetError):
        ring_product(semichar_embed(a), b)


def augment_oracle(x):
    """[K, phi] -> G/K, class by class."""
    out = {}
    for b, c in x.terms():
        key = burnside_ring_class(x.source, b.K)
        out[key] = ref_add(out[key], c) if key in out else c
    return BurnsideElement(x.source, TRIVIAL, out)


@pytest.mark.parametrize("G,H", [("S4", "S3"), ("D8", "C2xC2"), ("A4", "A4")])
def test_augment_matches_per_class_map(G, H):
    G, H = parse_group(G), parse_group(H)
    rng = random.Random(109)
    for _ in range(6):
        x = random_element(G, H, rng, terms=5)
        assert augment(x) == augment_oracle(x)
        xp = x.lift(3, 4)
        assert augment(xp) == augment_oracle(xp)
    assert augment(zero(G, H)) == zero(G, TRIVIAL)


def test_ideal_membership_examples():
    assert ideal_power_membership(zero(S3, S3), 1)
    assert ideal_power_membership(zero(S3, S3), 3)

    e_sub = C2.subgroup([C2.identity])
    y = burnside_ring_element(C2, [(e_sub, 1), (C2.full_subgroup(), -2)])
    y2 = ring_product(y, y)
    # ([C2/e] - 2)^2 = -2([C2/e] - 2) since [C2/e]^2 = 2 [C2/e]
    assert y2 == burnside_ring_element(
        C2, [(e_sub, -2), (C2.full_subgroup(), 4)])
    sq = semichar_embed(y2)
    assert ideal_power_membership(sq, 2)
    assert ideal_power_membership(sq, 1, scale=2)

    # recorded lattice result: the identity-minus-trivial idempotent is not
    # in the ideal times the module at power one
    full = S3.full_subgroup()
    zero_cls = canonical_class(S3, S3, full, trivial_hom(full, S3))
    om = identity_element(S3) - single(zero_cls)
    assert ideal_power_membership(om, 1) is False
    assert ideal_power_membership(om, 1, restrict_to_kernel=True) is False


def test_ideal_membership_kernel_flag():
    # elements outside the augmentation kernel can never lie in I * K
    assert not ideal_power_membership(identity_element(S3), 1,
                                      restrict_to_kernel=True)
    with pytest.raises(ScalarMismatchError):
        ideal_power_membership(identity_element(S3).lift(2, 3), 1)


def oracle_ideal_power_lattice(G, H, m, kernel_only):
    """I_G^m * M by its definition: every product of m augmentation-ideal
    generators (the Burnside ring is commutative, so one product per
    multiset) acting through the semicharacteristic embedding on every
    generator of M, the full (G,H) module or its augmentation kernel."""
    bl = basis(G, H)
    module = (kernel_basis_elements(G, H) if kernel_only
              else [single(b) for b in bl])
    lat = OracleDenseLattice(len(bl))
    for combo in itertools.combinations_with_replacement(
            augmentation_ideal_generators(G), m):
        acting = semichar_embed(functools.reduce(ring_product, combo))
        for y in module:
            prod = compose(acting, y)
            lat.add_vector([prod.coefficient(b) for b in bl])
    return lat


IDEAL_POWER_PAIRS = [("C2xC2", "C2xC2"), ("S3", "S3"), ("C6", "C6"),
                     ("D8", "D8"), ("Q8", "Q8"), ("A4", "A4"), ("S3", "C2"),
                     ("C4", "S3")]


@pytest.mark.parametrize("gs,hs", IDEAL_POWER_PAIRS)
def test_ideal_power_lattice_matches_product_oracle(gs, hs):
    # I^m * M built one power at a time spans the same lattice as the
    # m-fold products of generators acting on M
    G, H = parse_group(gs), parse_group(hs)
    bl = basis(G, H)
    for kernel_only in (False, True):
        for m in (1, 2, 3):
            built = _ideal_power_lattice(G, H, m, kernel_only)
            oracle = oracle_ideal_power_lattice(G, H, m, kernel_only)
            assert all(dict(zip(bl, row)) in built
                       for row in oracle.basis()), (m, kernel_only)
            assert all([row.get(b, 0) for b in bl] in oracle
                       for row in built.basis()), (m, kernel_only)


def test_scaled_membership_divides_by_the_scale():
    # x lies in 2 * I^2 * K exactly when x = 2r with r in I^2 * K
    G = parse_group("C2xC2")
    rows = _ideal_power_lattice(G, G, 2, True).basis()
    assert rows
    extra = basis(G, G)[0]
    for row in rows:
        r = BurnsideElement._from_ints(G, G, row)
        assert ideal_power_membership(r.scaled(2), 2, restrict_to_kernel=True,
                                      scale=2)
        # r / 2 is not integral, or its entry at the pivot of r is half
        # that pivot, which no element of I^2 * K has there
        assert not ideal_power_membership(r, 2, restrict_to_kernel=True,
                                          scale=2)
        assert not ideal_power_membership(r.scaled(2) + single(extra), 2,
                                          restrict_to_kernel=True, scale=2)
        # 0 * I^2 * K is zero
        assert not ideal_power_membership(r, 2, restrict_to_kernel=True,
                                          scale=0)
    assert ideal_power_membership(zero(G, G), 2, scale=0)


def test_ideal_topology_lemma_substrate():
    # products of n+1 ideal generators land in p * I for |S| = p^n
    for spec, p in [("C2", 2), ("C4", 2), ("C2xC2", 2), ("C3", 3)]:
        S = parse_group(spec)
        n = 0
        o = S.order
        while o > 1:
            o //= p
            n += 1
        gens = augmentation_ideal_generators(S)
        for combo in itertools.product(gens, repeat=n + 1):
            prod = combo[0]
            for g in combo[1:]:
                prod = ring_product(prod, g)
            assert ideal_power_membership(prod, 1, scale=p)


def test_identity_two_sided():
    for G in (C2, S3, C6):
        e = identity_element(G)
        for b in basis(G, G):
            assert compose(e, single(b)) == single(b)
            assert compose(single(b), e) == single(b)


def test_power():
    S = sylow(S3, 2)
    x = restrict(identity_element(S3), S, S)
    assert power(x, 1) == x
    assert power(x, 3) == compose(x, compose(x, x))


def test_element_equality_min_precision():
    x = identity_element(S3).lift(2, 6)
    y = identity_element(S3).lift(2, 3)
    assert x == y
    z = x - x
    assert z == zero(S3, S3)
    assert z.is_zero


def test_element_equality_ignores_classes_vanishing_at_lower_precision():
    a, b = basis(S3, S3)[:2]
    x = element(S3, S3, {a: 1, b: 2}).lift(2, 4)
    assert x == single(a).lift(2, 1)
    assert single(a).lift(2, 1) == x
    assert x != single(a).lift(2, 2)


def test_constructor_checks_coefficients():
    a, b = basis(S3, S3)[:2]
    with pytest.raises(ScalarMismatchError,
                       match="^mixed integer and p-adic coefficients$"):
        element(S3, S3, {a: 1, b: PadicInt(2, 4, 1)})
    with pytest.raises(ScalarMismatchError,
                       match=r"^coefficients at \(2, 4\) and \(2, 5\) in one element$"):
        element(S3, S3, {a: PadicInt(2, 4, 1), b: PadicInt(2, 5, 1)})
    # a float is refused whatever its value, zero and whole numbers included
    for c in (1.5, 1.0, 0.0):
        with pytest.raises(ScalarMismatchError, match=f"^unsupported coefficient {c}$"):
            element(S3, S3, {a: c})
    with pytest.raises(ScalarMismatchError, match="^residue must be an integer"):
        element(S3, S3, {a: PadicInt(2, 3, 1.5)})
    with pytest.raises(BisetError, match="does not live over"):
        element(S3, C2, {a: 1})
    # zero coefficients are dropped before the kinds are compared
    x = element(S3, S3, {a: 0, b: PadicInt(2, 4, 17)})
    assert (x.prime, x.precision, x.coefficient(b)) == (2, 4, PadicInt(2, 4, 1))
    assert not element(S3, S3, {a: PadicInt(2, 4, 16)}).is_padic
    # a bool coefficient is stored as a plain int, so it prints and
    # serializes as one
    x = element(S3, S3, {a: True})
    assert str(x) == f"1 {a.label()}"
    assert element_from_json(element_to_json(x)) == single(a)


@pytest.mark.parametrize("x", [zero(S3, S3), identity_element(S3)],
                         ids=["zero", "identity"])
def test_lift_validates_scalars(x):
    with pytest.raises(ScalarMismatchError, match="^4 is not prime$"):
        x.lift(4, 2)
    with pytest.raises(ScalarMismatchError,
                       match="^precision must be at least 1$"):
        x.lift(2, 0)
    for p, k in [(2, 3.0), (2.0, 3), (2, True)]:
        with pytest.raises(ScalarMismatchError, match="must be an integer"):
            x.lift(p, k)


@pytest.mark.parametrize("x", [zero(S3, S3), identity_element(S3).lift(2, 4)],
                         ids=["zero", "padic"])
@pytest.mark.parametrize("k,match", [
    (2.5, "^precision must be an integer, not 2.5$"),
    (0, "^precision must be at least 1$"),
    (-7, "^precision must be at least 1$"),
    (PRECISION_CAP + 1,
     f"^precision {PRECISION_CAP + 1} exceeds the cap {PRECISION_CAP}$")])
def test_reduce_to_checks_precision_first(x, k, match):
    # a zero element once returned itself for any k
    with pytest.raises(ScalarMismatchError, match=match):
        x.reduce_to(k)


def test_sum_does_not_depend_on_supports():
    a, b = basis(S3, S3)[:2]
    xa, xb = single(a), single(b)
    assert xb + xa.lift(2, 4) == (xb + xa).lift(2, 4)
    assert xa.lift(2, 4) + xb == (xa + xb).lift(2, 4)
    assert xb - xa.lift(2, 4) == (xb - xa).lift(2, 4)
    assert (xb + xa.lift(2, 4)).precision == 4
    assert xa + xa.lift(2, 4) == (2 * xa).lift(2, 4)
    assert zero(S3, S3) + xa.lift(2, 4) == xa.lift(2, 4)


@pytest.mark.parametrize("overlap", [False, True], ids=["disjoint", "overlap"])
def test_unequal_scalars_raise_whatever_the_supports(overlap):
    a, b = basis(S3, S3)[:2]
    x = single(a).lift(2, 6)
    other = a if overlap else b
    for y, message in [(single(other).lift(2, 3), "precision mismatch: 6 vs 3"),
                       (single(other).lift(3, 6), "prime mismatch: 2 vs 3")]:
        with pytest.raises(ScalarMismatchError, match=f"^{message}$"):
            x + y
        with pytest.raises(ScalarMismatchError, match=f"^{message}$"):
            x - y
    with pytest.raises(ScalarMismatchError,
                       match="^precision mismatch: 6 vs 3$"):
        PadicInt(2, 3, 1) * x
    with pytest.raises(ScalarMismatchError, match="^prime mismatch: 2 vs 3$"):
        x.scaled(PadicInt(3, 6, 1))


def test_padic_scaling_takes_the_scalar_rule():
    a = basis(S3, S3)[0]
    assert PadicInt(2, 4, 3) * single(a) == (3 * single(a)).lift(2, 4)
    assert PadicInt(2, 4, 3) * single(a).lift(2, 4) == \
        (3 * single(a)).lift(2, 4)
    assert (PadicInt(2, 4, 16) * single(a)).is_zero


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (5, 3)])
def test_arithmetic_matches_reference_scalars(p, k):
    # every coefficient of x + y, x - y, a scaling and compose(x, y) is the
    # reference arithmetic of test_padic applied to the operands'
    # coefficients, over random p-adic and integer operands; products of
    # basis classes come from the Mackey oracle
    rng = random.Random(110 + p)
    zero_pk = PadicInt(p, k, 0)
    mackey = functools.lru_cache(maxsize=None)(compose_double_coset_oracle)

    def padic_element(G, H):
        picks = rng.sample(basis(G, H), 3)
        return element(G, H, {b: PadicInt(p, k, rng.randrange(1, p ** k))
                              for b in picks})

    def expect(got, support, coefficient):
        # lifting through zero_pk gives an integer operand the (p, k) of its
        # partner; classes whose coefficient vanishes drop out
        want = {b: ref_add(zero_pk, coefficient(b)) for b in support}
        assert dict(got.terms()) == {b: c for b, c in want.items() if c.residue}

    for G, H, M in [(S3, S3, S3), (C6, S3, C2)]:
        for _ in range(4):
            x = padic_element(G, H)
            for y in (padic_element(G, H), random_element(G, H, rng)):
                for op, ref in [(operator.add, ref_add), (operator.sub, ref_sub)]:
                    expect(op(x, y), basis(G, H),
                           lambda b: ref(x.coefficient(b), y.coefficient(b)))
                    expect(op(y, x), basis(G, H),
                           lambda b: ref(y.coefficient(b), x.coefficient(b)))
            s, n = PadicInt(p, k, rng.randrange(p ** k)), rng.randint(-9, 9)
            y = random_element(G, H, rng)
            for scalar, z in [(s, x), (n, x), (s, y)]:
                expect(scalar * z, basis(G, H),
                       lambda b: ref_mul(scalar, z.coefficient(b)))
            z, w = padic_element(H, M), random_element(H, M, rng)
            for u, v in [(x, z), (x, w), (y, z)]:
                def composite(b):
                    total = 0
                    for b1, c1 in u.terms():
                        for b2, c2 in v.terms():
                            m = mackey(b1, b2).coefficient(b)
                            total = ref_add(total, ref_mul(ref_mul(c1, c2), m))
                    return total
                expect(compose(u, v), basis(G, M), composite)


def test_padic_difference_with_itself_is_integer_zero():
    x = identity_element(S3).lift(2, 4)
    d = x - x
    assert d.is_zero and not d.is_padic
    assert (d.prime, d.precision) == (None, None)
    assert element_to_json(d)["scalars"] == "int"


def test_padic_file_with_repeated_term_loads_as_sum():
    b = basis(S3, S3)[1]
    term = element_to_json(single(b))["terms"][0]
    data = {"source": S3.label, "target": S3.label,
            "scalars": {"p": 2, "k": 4},
            "terms": [dict(term, coeff="13"), dict(term, coeff="7")]}
    x = element_from_json(data)
    assert x.coefficient(b) == PadicInt(2, 4, 4)
    assert x == single(b).lift(2, 4).scaled(20)
    data["terms"][1]["coeff"] = "3"
    assert not element_from_json(data).is_padic
    data["scalars"] = {"p": 4, "k": 4}
    with pytest.raises(ScalarMismatchError, match="^4 is not prime$"):
        element_from_json(data)


def test_cardinality():
    assert cardinality(identity_element(S3)) == 6
    x = single(basis(E, S3)[0])
    assert cardinality(x) == 6
    assert cardinality(2 * x) == 12
