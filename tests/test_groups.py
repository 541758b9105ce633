import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from burnfuse import groups
from burnfuse.burnside import basis, canonical_class, restrict, single
from burnfuse.errors import (CapExceededError, GroupParseError,
                             HomomorphismError, SubgroupError)
from burnfuse.groups import (GroupHom, PermGroup, Subgroup, all_subgroups,
                             as_group, enumeration_cap, generated_subgroup,
                             homomorphisms, mulclose, parse_group, sylow,
                             subgroups_up_to_conjugacy, trivial_group)
from burnfuse.cli import run
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


def test_parse_group_checks_the_cap_on_every_call():
    # "S4" is parsed by other tests too; the perm spec, by no other test,
    # reaches the uncached builder here. Either is refused under a cap
    # below 24 whether or not it was parsed before, and answers otherwise.
    for spec in ("S4", "perm 4: (1 2 3 4), (1 2)"):
        for _ in range(2):
            with enumeration_cap(10), pytest.raises(CapExceededError):
                parse_group(spec)
            assert parse_group(spec).order == 24
    with pytest.raises(CapExceededError, match="enumeration cap 200"):
        parse_group("S8")


def test_results_do_not_depend_on_cache_state_under_a_cap():
    # nothing below parse_group reads the cap, so a group in hand answers
    # the same under any cap, whatever is cached: cold on an equal group
    # that has built no table yet, and warm on the parsed one
    S4 = parse_group("S4")
    fresh = PermGroup(S4.degree, S4.generators, S4.label)
    steps = (basis, subgroups_up_to_conjugacy, sylow, homomorphisms,
             all_subgroups)

    def results(G):
        return (basis(G, G), subgroups_up_to_conjugacy(G), sylow(G, 2),
                homomorphisms(G.full_subgroup(), G), all_subgroups(G))

    for step in steps:
        step.cache_clear()
    with enumeration_cap(2):
        cold = results(fresh)
        warm = results(S4)
    assert cold == warm == results(S4)
    assert fresh._mul is not None


def _refuse_to_build(monkeypatch):
    """Make every generator builder fail, so that a spec which reaches one
    fails the test at once instead of allocating."""
    def refuse(*args, **kwargs):
        raise AssertionError("built generators of an oversized group")
    for name in ("_cyclic", "_symmetric", "_alternating", "_dihedral",
                 "_quaternion", "parse_cycles", "PermGroup"):
        monkeypatch.setattr(groups, name, refuse)


@pytest.mark.parametrize("spec", [
    "C99999999999999999999", "S99999999999999999999", "A99999999999999999999",
    "D99999999999999999998", "S9", "A9", "C400xC400", "S8xC3",
    "Q8xC2xC99999999999999999999", "C100001", "C100000",
    "perm 99999999999999999999: ()", "perm 100001: (1 2)",
])
def test_oversized_spec_fails_before_building(monkeypatch, spec):
    _refuse_to_build(monkeypatch)
    with pytest.raises(CapExceededError):
        parse_group(spec)


def test_oversized_spec_exits_two(monkeypatch, capsys):
    _refuse_to_build(monkeypatch)
    assert run(["basis", "C99999999999999999999", "C1"]) == 2
    assert "exceeds the closure cap" in capsys.readouterr().err


def test_closure_cap_boundary(monkeypatch):
    # an order at the cap builds, one past it fails before building
    monkeypatch.setattr(groups, "CLOSURE_CAP", 24)
    build = groups._build_group.__wrapped__  # bypass the cache of full-cap groups
    assert build("S4").order == 24
    assert build("A4xC2").order == 24
    assert build("perm 24: (1 2)").order == 2
    _refuse_to_build(monkeypatch)
    for spec in ("S4xC2", "A5", "C25", "D26", "Q8xC2xC2", "perm 25: ()"):
        with pytest.raises(CapExceededError):
            build(spec)


def test_element_table_cap(monkeypatch):
    # order x degree is at most ten times the closure cap: named specs fail
    # before building, perm specs when closure passes 10 * cap // degree
    monkeypatch.setattr(groups, "CLOSURE_CAP", 24)
    build = groups._build_group.__wrapped__
    assert build("C15").order == 15
    assert build("perm 20: (1 2 3)(4 5 6 7)").order == 12
    with pytest.raises(CapExceededError):
        build("perm 100: (1 2 3)(4 5 6 7)")
    with pytest.raises(CapExceededError):
        build("perm 21: (1 2 3)(4 5 6 7)")
    _refuse_to_build(monkeypatch)
    for spec in ("C20", "C16", "D24", "C12xC2"):
        with pytest.raises(CapExceededError):
            build(spec)


def test_cayley_table_cap(monkeypatch):
    # |G|^2 at the cap builds; past it, mul, inv and conj refuse before
    # any row is gathered
    monkeypatch.setattr(groups, "TABLE_CAP", 36)
    build = groups._build_group.__wrapped__  # fresh groups, no table yet
    assert len(build("S3").mul) == 6
    G = build("A4")

    def refuse(*args):
        raise AssertionError("gathered a row of an oversized table")
    monkeypatch.setattr(groups, "gather", refuse)
    for table in ("mul", "inv", "conj"):
        with pytest.raises(CapExceededError, match="table cap 36"):
            getattr(G, table)


def test_cayley_table_cap_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(groups, "TABLE_CAP", 60)
    spec = "perm 4: (1 4 3 2), (1 3)"  # D8, not built elsewhere
    assert run(["basis", spec, "C1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exceed the table cap 60" in err


def test_table_cap_admits_s7():
    assert 5040 ** 2 <= groups.TABLE_CAP < 40320 ** 2


def test_named_factor_orders():
    cap = 10 ** 6
    for n in range(1, 12):
        assert groups._atom_order("S", n, cap) == min(math.factorial(n), cap + 1)
        assert groups._atom_order("A", n, cap) == \
            min(max(math.factorial(n) // 2, 1), cap + 1)
        assert groups._atom_order("C", n, cap) == n
    assert groups._atom_order("S", 10 ** 30, cap) == cap + 1


def two_generated_subgroups(G):
    # independent enumeration for groups whose subgroups need at most
    # two generators
    found = set()
    elems = list(G.elements)
    for a, b in itertools.product(elems, repeat=2):
        found.add(tuple(sorted(mulclose([a, b], G.degree, G.order))))
    return found


def oracle_generated(G, gens):
    # closure by permutation products, checked as a subgroup from tuples
    return Subgroup(G, mulclose(gather(G.elements, gens), G.degree, G.order))


@pytest.mark.parametrize("spec", ["S3", "S4", "D8xC2", "A5"])
def test_generated_subgroup_matches_mulclose(spec):
    G = parse_group(spec)
    rng = random.Random(23)
    for H in subgroups_up_to_conjugacy(G):
        gens = H.generator_indices()
        K = generated_subgroup(G, gens)
        assert K == oracle_generated(G, gens) == H
        assert K.indices == H.indices and K.elements == H.elements
        # each generator lies outside the span of the ones before it
        for i, g in enumerate(gens):
            assert g not in oracle_generated(G, gens[:i]).indices
        # any generating tuple, in any order and with repeats
        redundant = tuple(rng.sample(H.indices, min(H.order, 3))) + gens[::-1]
        assert generated_subgroup(G, redundant) == H
        # tuples of random elements of G
        some = tuple(rng.choices(range(G.order), k=rng.randint(0, 3)))
        assert generated_subgroup(G, some) == oracle_generated(G, some)
    assert generated_subgroup(G, ()) == oracle_generated(G, ())


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


def oracle_double_cosets(G, A, B):
    """The partition of G into A\\G/B double cosets as (representative,
    size) pairs, on permutation tuples: each representative is the first
    member of its double coset in G.elements. Reads no index table."""
    seen, out = set(), []
    for g in G.elements:
        if g not in seen:
            coset = {p_mul(p_mul(a, g), b) for a in A.elements for b in B.elements}
            seen |= coset
            out.append((g, len(coset)))
    return out


def double_cosets(G, A, B):
    """groups._double_cosets on subgroups A and B, with permutation
    representatives, after checking it against oracle_double_cosets."""
    got = [(G.elements[g], size)
           for g, size in groups._double_cosets(G, A.indices, B.indices)]
    assert got == oracle_double_cosets(G, A, B)
    return got


def test_double_cosets():
    S3 = parse_group("S3")
    full = S3.full_subgroup()
    assert double_cosets(S3, full, full) == [(S3.identity, 6)]
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


def oracle_is_subgroup(G, elements):
    """The all-pairs check on permutation tuples that `Subgroup` ran
    before it closed the set on the Cayley table: the identity, every
    inverse and every product."""
    s = set(elements)
    return (G.identity in s and all(p_inv(x) in s for x in s)
            and all(p_mul(a, b) in s for a in s for b in s))


def oracle_is_homomorphism(K, H, mapping):
    """The |K|^2 product check on permutation tuples that `GroupHom` ran
    before it compared the map with its propagated generator images: total
    on K, into H and multiplicative."""
    if not all(x in mapping and mapping[x] in H for x in K.elements):
        return False
    return all(mapping[p_mul(a, b)] == p_mul(mapping[a], mapping[b])
               for a in K.elements for b in K.elements)


def accepts(build, *args):
    try:
        build(*args)
    except (SubgroupError, HomomorphismError):
        return False
    return True


SUBGROUP_SPECS = ["S4", "D8", "Q8", "A4"]
HOM_PAIRS = [("C4", "C2"), ("S3", "S3"), ("D8", "C2xC2"), ("Q8", "S3")]


@pytest.mark.parametrize("spec", SUBGROUP_SPECS)
def test_subgroup_check_matches_oracle_one_element_off(spec):
    # every subgroup, and every set one element away from one
    G = parse_group(spec)
    for H in all_subgroups(G):
        assert accepts(Subgroup, G, H.elements)
        for x in G.elements:
            members = set(H.elements) ^ {x}
            assert accepts(Subgroup, G, members) == \
                oracle_is_subgroup(G, members), (H, x)


@pytest.mark.parametrize("ks,hs", HOM_PAIRS)
def test_group_hom_check_matches_oracle_one_image_off(ks, hs):
    # every homomorphism, and every map one image away from one
    K, H = parse_group(ks).full_subgroup(), parse_group(hs)
    for hom in homomorphisms(K, H):
        mapping = dict(zip(K.elements, hom.images))
        assert GroupHom(K, H, mapping) == hom
        for x in K.elements:
            for y in H.elements:
                changed = {**mapping, x: y}
                assert accepts(GroupHom, K, H, changed) == \
                    oracle_is_homomorphism(K, H, changed), (x, y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(SUBGROUP_SPECS), st.booleans(), st.data())
def test_subgroup_check_matches_oracle_on_random_sets(spec, near, data):
    # random subsets of G, or a random subgroup with a few elements added
    # and dropped
    G = parse_group(spec)
    some = st.sets(st.sampled_from(G.elements), max_size=3 if near else 24)
    members = data.draw(some)
    if near:
        H = data.draw(st.sampled_from(all_subgroups(G)))
        members = (set(H.elements) | members) - data.draw(some)
    assert accepts(Subgroup, G, members) == oracle_is_subgroup(G, members)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(HOM_PAIRS), st.data())
def test_group_hom_check_matches_oracle_on_random_maps(pair, data):
    # random maps from any subgroup K of the first group, total or not
    G, H = parse_group(pair[0]), parse_group(pair[1])
    K = data.draw(st.sampled_from(all_subgroups(G)))
    mapping = data.draw(st.fixed_dictionaries(
        {x: st.sampled_from(H.elements) for x in K.elements}))
    if data.draw(st.booleans()):  # a near homomorphism: one image off
        hom = data.draw(st.sampled_from(homomorphisms(K, H)))
        mapping = {**dict(zip(K.elements, hom.images)),
                   **dict(list(mapping.items())[:1])}
    assert accepts(GroupHom, K, H, mapping) == \
        oracle_is_homomorphism(K, H, mapping)


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
