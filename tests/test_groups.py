import itertools

import pytest

from burnfuse.burnside import basis, canonical_class, restrict, single
from burnfuse.errors import (CapExceededError, GroupParseError,
                             HomomorphismError, SubgroupError)
from burnfuse.groups import (GroupHom, Subgroup, as_group, double_cosets,
                             homomorphisms, mulclose, parse_group, sylow,
                             subgroups_up_to_conjugacy, trivial_group)
from burnfuse.perms import (cycle_string, gather, identity_perm, p_inv,
                            p_mul, parse_cycles)


def p_order(a):
    e = identity_perm(len(a))
    cur, n = a, 1
    while cur != e:
        cur = p_mul(cur, a)
        n += 1
    return n


def test_perm_basics():
    a = parse_cycles("(1 2 3)", 3)
    assert a == (1, 2, 0)
    assert p_mul(a, p_inv(a)) == identity_perm(3)
    assert p_order(a) == 3
    assert cycle_string(a) == "(1 2 3)"
    assert cycle_string(identity_perm(4)) == "()"
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)


@pytest.mark.parametrize("idx", [(), (3,), (4, 0), (5, 1, 1, 6, 0)])
def test_gather(idx):
    # itemgetter returns a bare item for one index, so lengths 0 and 1 take
    # another path than 2 and more; every path returns a tuple
    for table in ((7, 5, 3, 8, 9, 2, 6), [7, 5, 3, 8, 9, 2, 6]):
        assert gather(table, idx) == tuple(table[i] for i in idx)
        assert gather(table, list(idx)) == tuple(table[i] for i in idx)
    # the tracer counts every binding of p_mul, so gather must not be one
    assert gather is not p_mul


def test_cycle_parse_errors():
    with pytest.raises(GroupParseError):
        parse_cycles("(1 2", 3)
    with pytest.raises(GroupParseError):
        parse_cycles("(1 5)", 3)
    with pytest.raises(GroupParseError):
        parse_cycles("(1 2)(2 3)", 3)


@pytest.mark.parametrize("spec,order,degree", [
    ("C2", 2, 2),
    ("S4", 24, 4),
    ("A4", 12, 4),
    ("D8", 8, 4),
    ("D12", 12, 6),
    ("Q8", 8, 8),
    ("C2xC2", 4, 4),
    ("C1", 1, 1),
])
def test_parse_group_families(spec, order, degree):
    G = parse_group(spec)
    assert G.order == order
    assert G.degree == degree


def test_parse_explicit_perm_group():
    # closure oracle: multiply generators until nothing new appears
    G = parse_group("perm 3: (1 2 3), (1 2)")
    gens = [(1, 2, 0), (1, 0, 2)]
    closure = {identity_perm(3)}
    while True:
        new = {p_mul(a, b) for a in closure for b in gens} - closure
        if not new:
            break
        closure |= new
    assert set(G.elements) == closure
    assert G.order == 6


def test_parse_group_determinism_and_equality():
    assert parse_group("S3") is parse_group("S3")
    assert parse_group("perm 3: (1 2 3), (1 2)") == parse_group("S3")


def test_parse_errors():
    for bad in ("", "B5", "D7", "C2x", "perm 0: ()", "perm 3: (1 4)"):
        with pytest.raises(GroupParseError):
            parse_group(bad)


def test_order_cap():
    with pytest.raises(CapExceededError):
        parse_group("S9")


def two_generated_subgroups(G):
    # independent enumeration for groups whose subgroups need at most
    # two generators
    found = set()
    elems = list(G.elements)
    for a, b in itertools.product(elems, repeat=2):
        found.add(tuple(sorted(mulclose([a, b], G.degree, G.order))))
    return found


@pytest.mark.parametrize("spec,count", [("C2", 2), ("S3", 4), ("S4", 11)])
def test_subgroup_class_counts(spec, count):
    G = parse_group(spec)
    classes = subgroups_up_to_conjugacy(G)
    assert len(classes) == count
    orders = [s.order for s in classes]
    assert orders == sorted(orders)


@pytest.mark.parametrize("spec", ["S3", "D8", "A4", "Q8", "S4", "C6"])
def test_subgroup_classes_cover_everything(spec):
    G = parse_group(spec)
    classes = subgroups_up_to_conjugacy(G)
    all_subs = two_generated_subgroups(G)
    covered = set()
    for rep in classes:
        for g in G.elements:
            gi = p_inv(g)
            covered.add(tuple(sorted(p_mul(p_mul(g, x), gi)
                                     for x in rep.elements)))
    assert covered == all_subs


def test_sylow_examples():
    S3 = parse_group("S3")
    assert sylow(S3, 2).order == 2
    assert sylow(S3, 5).order == 1
    S4 = parse_group("S4")
    P = sylow(S4, 2)
    assert P.order == 8
    # dihedral: nonabelian with more than one element of order 2
    Pg = as_group(P)
    involutions = [g for g in Pg.elements if p_order(g) == 2]
    assert len(involutions) == 5


@pytest.mark.parametrize("spec", ["S3", "S4", "A4", "C6", "D12", "Q8"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_sylow_invariant(spec, p):
    G = parse_group(spec)
    P = sylow(G, p)
    index = G.order // P.order
    assert P.order * index == G.order
    assert index % p != 0
    # order is the exact p-part
    assert P.order & (P.order - 1) == 0 if p == 2 else True
    assert sylow(G, p) == P  # deterministic


def test_double_cosets():
    S3 = parse_group("S3")
    full = S3.full_subgroup()
    assert double_cosets(S3, full, full) == ((S3.identity, 6),)
    C2 = S3.subgroup([S3.identity, (0, 2, 1)])
    sizes = sorted(size for _, size in double_cosets(S3, C2, C2))
    assert sizes == [2, 4]
    C3 = S3.subgroup(mulclose([(1, 2, 0)], 3, 6))
    sizes = sorted(size for _, size in double_cosets(S3, C3, C3))
    assert sizes == [3, 3]
    # sizes always partition the group
    A4 = parse_group("A4")
    V = sylow(A4, 2)
    C3a = sylow(A4, 3)
    assert sum(s for _, s in double_cosets(A4, V, C3a)) == 12


@pytest.mark.parametrize("spec", ["S3", "A4", "D8", "S4"])
def test_double_coset_size_formula(spec):
    # |AgB| = |A| |B| / |A meet gBg^-1|
    G = parse_group(spec)
    classes = subgroups_up_to_conjugacy(G)
    A, B = classes[1], classes[-2]
    for g, size in double_cosets(G, A, B):
        gi = p_inv(g)
        conjB = {p_mul(p_mul(g, x), gi) for x in B.elements}
        meet = len(conjB & set(A.elements))
        assert size == A.order * B.order // meet


def brute_force_hom_count(K, H):
    # enumerate every map fixing the identity and test multiplicativity
    dom = [x for x in K.elements if x != K.parent.identity]
    count = 0
    for images in itertools.product(H.elements, repeat=len(dom)):
        full = dict(zip(dom, images))
        full[K.parent.identity] = H.identity
        if all(full[p_mul(a, b)] == p_mul(full[a], full[b])
               for a in K.elements for b in K.elements):
            count += 1
    return count


@pytest.mark.parametrize("ks,hs,expected", [
    ("C2", "C2", 2),
    ("C2", "S3", 4),
    ("C3", "C2", 1),
])
def test_homomorphism_examples(ks, hs, expected):
    K = parse_group(ks).full_subgroup()
    H = parse_group(hs)
    homs = homomorphisms(K, H)
    assert len(homs) == expected
    assert len(set(homs)) == expected


@pytest.mark.parametrize("ks,hs", [
    ("C2", "C2"), ("C2", "S3"), ("C3", "C2"), ("C6", "D8"),
    ("S3", "C2xC2"), ("C2xC2", "S3"),
])
def test_homomorphism_counts_match_brute_force(ks, hs):
    K = parse_group(ks).full_subgroup()
    H = parse_group(hs)
    assert len(homomorphisms(K, H)) == brute_force_hom_count(K, H)


def test_group_hom_rejects_non_multiplicative():
    C4 = parse_group("C4")
    C2 = parse_group("C2")
    gen = next(g for g in C4.elements if p_order(g) == 4)
    swap = (1, 0)
    bad = {x: (swap if x == gen else C2.identity) for x in C4.elements}
    with pytest.raises(HomomorphismError):
        GroupHom(C4.full_subgroup(), C2, bad)


@pytest.mark.parametrize("spec,elements", [
    ("A4", [(0, 1, 2, 3), (1, 0, 2, 3)]),  # a transposition, not in A4
    ("S3", [(1, 0, 2)]),                   # no identity
    ("S3", [(0, 1, 2), (1, 2, 0)]),        # (1 2 3) without its inverse
    ("S3", [(0, 1, 2), (1, 0, 2), (2, 1, 0)]),  # (1 2), (1 3): not closed
])
def test_subgroup_rejects_non_subgroups(spec, elements):
    with pytest.raises(SubgroupError):
        parse_group(spec).subgroup(elements)


def test_subgroup_of_another_group_is_rejected():
    S3, S4 = parse_group("S3"), parse_group("S4")
    foreign = S4.full_subgroup()
    x = single(basis(S3, S3)[0])
    with pytest.raises(SubgroupError):
        restrict(x, foreign, S3.full_subgroup())
    with pytest.raises(SubgroupError):
        restrict(x, S3.full_subgroup(), foreign)
    with pytest.raises(SubgroupError):
        double_cosets(S3, foreign, S3.full_subgroup())


def test_group_hom_rejects_partial_and_outside_maps():
    S3, C2 = parse_group("S3"), parse_group("C2")
    K = S3.subgroup([S3.identity, (1, 0, 2)])
    with pytest.raises(HomomorphismError):
        GroupHom(K, C2, {S3.identity: C2.identity})
    with pytest.raises(HomomorphismError):
        GroupHom(K, C2, {S3.identity: C2.identity, (1, 0, 2): (1, 0, 2)})


def test_canonical_class_rejects_non_homomorphism():
    S3 = parse_group("S3")
    C3 = S3.subgroup(mulclose([(1, 2, 0)], 3, 6))
    swap = (1, 0, 2)
    bad = {x: (S3.identity if x == S3.identity else swap)
           for x in C3.elements}
    with pytest.raises(HomomorphismError):
        canonical_class(S3, S3, C3, bad)


def test_as_group_round_trip():
    S4 = parse_group("S4")
    P = sylow(S4, 2)
    Pg = as_group(P)
    assert Pg.degree == 4
    assert set(Pg.elements) == set(P.elements)
    assert parse_group(Pg.label) == Pg


def test_trivial_group():
    e = trivial_group()
    assert e.order == 1
    assert e == parse_group("C1")


def test_full_subgroup_is_built_once():
    S4 = parse_group("S4")
    full = S4.full_subgroup()
    assert full is S4.full_subgroup()
    assert full.elements == S4.elements and full.parent is S4
