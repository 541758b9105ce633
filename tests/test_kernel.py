"""The integer-indexed group kernel against the permutation-tuple
implementations it replaced, which live on here as oracles.

The tuple oracles multiply image tuples with perms.p_mul and never touch a
Cayley table, a conjugation table or a bitmask; `oracle_mul` builds the
Cayley table itself that way, one product per pair of elements. The
exception is `oracle_lattice_by_joins`, the join-by-join lattice that
`all_subgroups` and the subgroup classes were once read from: it runs on
the Cayley table, but it reaches every subgroup without the class
representatives.
"""

import itertools
import random

import pytest

from burnfuse import cli, groups
from burnfuse.burnside import (_canonical_pair, _compose_basis, _outer_twists,
                               basis)
from burnfuse.fusion import fusion_system
from burnfuse.groups import (Subgroup, _cyclic_masks, _hom_images, _join,
                             all_subgroups, as_group, class_rep_and_conjugator,
                             enumeration_cap, homomorphisms, mulclose,
                             normalizer, parse_group, subgroups_up_to_conjugacy,
                             sylow)
from burnfuse.perms import gather, p_inv, p_mul


def oracle_mul(G):
    """The Cayley table by multiplying every pair of image tuples, as
    `PermGroup.mul` did before it filled rows from the generators' rows."""
    return tuple(tuple(G.index(p_mul(a, b)) for b in G.elements)
                 for a in G.elements)


@pytest.mark.parametrize("G", [
    parse_group("C1"), parse_group("S3"), parse_group("Q8"),
    parse_group("A5"), parse_group("S4xC2"),
    as_group(sylow(parse_group("S4"), 2)),
    parse_group("perm 4: (1 2 3 4), (1 2), (1 2 3 4)"),
], ids=["C1", "S3", "Q8", "A5", "S4xC2", "Syl2(S4)", "perm-repeated"])
def test_mul_matches_product_oracle(G):
    assert G.mul == oracle_mul(G)


def oracle_all_subgroups(G):
    """Every subgroup of G as a sorted element tuple, built bottom-up by
    one-element extensions, sorted by (order, elements)."""
    e = G.identity
    trivial = frozenset([e])
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for hset in frontier:
            for g in G.elements:
                if g in hset:
                    continue
                closed = frozenset(
                    mulclose(list(hset) + [g], G.degree, G.order))
                if closed not in seen:
                    seen.add(closed)
                    new.append(closed)
        frontier = new
    return sorted((tuple(sorted(s)) for s in seen),
                  key=lambda s: (len(s), s))


def oracle_lattice_by_joins(G):
    """Every subgroup of G, sorted by (order, elements), built bottom-up
    on the Cayley table as joins with cyclic subgroups, which generate
    every subgroup: the route that `all_subgroups` took before it became
    the conjugates of the class representatives."""
    mul = G.mul
    cyclic = {}  # bitmask of <g> -> its first generator g
    for g, cmask in enumerate(_cyclic_masks(G)[1:], 1):
        cyclic.setdefault(cmask, g)
    found = {1: ([0], ())}
    frontier = [1]
    while frontier:
        new = []
        for hmask in frontier:
            elems, gens = found[hmask]
            for cmask, g in cyclic.items():
                if not cmask & ~hmask:
                    continue
                joined, jmask = _join(mul, elems, hmask, gens, g)
                if jmask not in found:
                    found[jmask] = (joined, (*gens, g))
                    new.append(jmask)
        frontier = new
    subs = [Subgroup.from_indices(G, elems) for elems, _ in found.values()]
    subs.sort(key=lambda s: (s.order, s.indices))
    return tuple(subs)


def oracle_subgroup_classes(G):
    """The class representatives of G's subgroups as the route that
    preceded cyclic extension found them: every subgroup of the join
    lattice that is its own class representative, in lattice order."""
    return tuple(H for H in oracle_lattice_by_joins(G)
                 if class_rep_and_conjugator(G, H.indices)[0] == H)


def _conj(g, x):
    return p_mul(p_mul(g, x), p_inv(g))


def _centralizer(elements, subset):
    """The members of `elements` that commute with every member of
    `subset`, on permutation tuples."""
    return [g for g in elements if all(_conj(g, x) == x for x in subset)]


class TupleCanonicalizer:
    """Canonical [K, phi] on permutation tuples: K moves to the conjugate
    with the least sorted element tuple, then the image tuple is minimized
    over pre-conjugation by the normalizer and post-conjugation by the
    target. Normalizer elements that give the same twisted map are tried
    once. Conjugates by target elements are tabulated as tuple -> tuple
    dicts, and class representatives and normalizers are memoized per
    subgroup, as the library memoizes them."""

    def __init__(self, source, target):
        self.source, self.target = source, target
        self._reps = {}
        self._normalizers = {}
        # t -> h t h^-1 for each h of the target, in element order
        self._target_conjugations = [
            {t: _conj(h, t) for t in target.elements}.__getitem__
            for h in target.elements]

    def class_rep(self, elements):
        """(least conjugate, first g in element order reaching it)."""
        if elements not in self._reps:
            best = best_g = None
            for g in self.source.elements:
                conj = tuple(sorted(_conj(g, x) for x in elements))
                if best is None or conj < best:
                    best, best_g = conj, g
            self._reps[elements] = (best, best_g)
        return self._reps[elements]

    def normalizer(self, elements):
        if elements not in self._normalizers:
            members = set(elements)
            self._normalizers[elements] = [
                g for g in self.source.elements
                if all(_conj(g, x) in members for x in elements)]
        return self._normalizers[elements]

    def __call__(self, K_elements, images):
        """(K0 elements, canonical image tuple) for the pair K -> images."""
        K0, g0 = self.class_rep(K_elements)
        g0i = p_inv(g0)
        imap = dict(zip(K_elements, images))
        base = {x: imap[p_mul(p_mul(g0i, x), g0)] for x in K0}
        twists = {tuple(base[p_mul(p_mul(p_inv(n), x), n)] for x in K0)
                  for n in self.normalizer(K0)}
        best = None
        for twisted in twists:
            for by_h in self._target_conjugations:
                cand = tuple(by_h(t) for t in twisted)
                if best is None or cand < best:
                    best = cand
        return K0, best


ROSTER = ("S3", "C6", "D8", "Q8", "A4", "S4")
BASIS_PAIRS = list(itertools.product(ROSTER, ROSTER)) + [("A4", "A5"),
                                                         ("D12", "S4"),
                                                         ("S3", "S5")]


@pytest.mark.parametrize("gs,hs", BASIS_PAIRS)
def test_basis_matches_tuple_canonicalization(gs, hs):
    G, H = parse_group(gs), parse_group(hs)
    oracle = TupleCanonicalizer(G, H)
    expected = set()
    for K in subgroups_up_to_conjugacy(G):
        for hom in homomorphisms(K, H):
            b = _canonical_pair(G, H, K.indices, hom.image_indices)
            want = oracle(K.elements, hom.images)
            assert (b.K.elements, b.phi.images) == want
            expected.add(want)
    got = [(b.K.elements, b.phi.images) for b in basis(G, H)]
    assert set(got) == expected and len(got) == len(expected)
    assert got == sorted(got, key=lambda kp: (-len(kp[0]), kp))


@pytest.mark.parametrize("spec", ["S4", "D8xC2", "Q8", "C6", "A5"])
def test_least_conjugates_match_tuples(spec):
    # per element: the least conjugate, and the conjugators reaching it,
    # one per coset of the centre, all on permutation tuples
    G = parse_group(spec)
    els = G.elements
    centre = _centralizer(els, els)
    least, reach = groups.least_conjugates(G)
    for t, x in enumerate(els):
        m = min(_conj(h, x) for h in els)
        assert els[least[t]] == m
        cosets = [frozenset(p_mul(els[h], z) for z in centre)
                  for h in reach[t]]
        assert len(set(cosets)) == len(cosets)
        assert set().union(*cosets) == {h for h in els if _conj(h, x) == m}


def oracle_order(x):
    """The order of a permutation tuple, by powering it."""
    e, y, n = tuple(range(len(x))), x, 1
    while y != e:
        y = p_mul(y, x)
        n += 1
    return n


def oracle_hom_images(K, H):
    """Hom(K, H) as image-index tuples aligned with K.indices: every tuple
    of generator images whose orders fit, in itertools.product order, kept
    when `_propagate` extends it over K. Element orders come from powering
    the permutations."""
    gens = K.generator_indices()
    if not gens:
        return [(0,)]
    orders = [oracle_order(h) for h in H.elements]
    candidates = [[h for h in range(H.order)
                   if oracle_order(K.parent.elements[g]) % orders[h] == 0]
                  for g in gens]
    out = []
    for images in itertools.product(*candidates):
        phi = groups._propagate(K, gens, images, H)
        if phi is not None:
            out.append(gather(phi, K.indices))
    return out


@pytest.mark.parametrize("gs,hs", [("S4", "S4"), ("S4", "S3"), ("D8", "Q8"),
                                   ("A4", "S4"), ("C2xC2xC2", "D8"),
                                   ("Q8", "S4"), ("S3", "S5"), ("D12", "S4")])
def test_backtracking_homs_match_product_order(gs, hs):
    # backtracking prunes inconsistent prefixes but must return the list,
    # in the order, of the full product over generator images
    G, H = parse_group(gs), parse_group(hs)
    for K in subgroups_up_to_conjugacy(G):
        assert [hom.image_indices for hom in homomorphisms(K, H)] == \
            oracle_hom_images(K, H)


@pytest.mark.parametrize("gs,hs", list(itertools.product(ROSTER, ROSTER))
                         + [("A5", "S5"), ("S4", "S5")])
def test_filtered_homs_meet_every_target_orbit(gs, hs):
    # basis enumerates Hom(K, H) only up to post-conjugation by H: the
    # filtered maps must be homomorphisms, and every homomorphism must be
    # H-conjugate to one of them, so both lists have the same least
    # conjugates (read on H's conjugation table)
    G, H = parse_group(gs), parse_group(hs)
    rows = H.conj

    def least(images):
        return min(gather(row, images) for row in rows)

    for K in subgroups_up_to_conjugacy(G):
        full = [hom.image_indices for hom in homomorphisms(K, H)]
        filtered = _hom_images(K, H, up_to_conjugacy=True)
        assert set(filtered) <= set(full)
        assert set(map(least, full)) == set(map(least, filtered))


@pytest.mark.parametrize("up_to_conjugacy", [False, True])
def test_capped_homs_stop_one_past_the_cap(up_to_conjugacy):
    # a capped enumeration returns the first cap + 1 maps of the full list
    K, H = parse_group("C2xC2").full_subgroup(), parse_group("D8")
    full = _hom_images(K, H, up_to_conjugacy)
    for cap in (0, 1, 5, len(full) - 1):
        assert _hom_images(K, H, up_to_conjugacy, cap) == full[:cap + 1]
    assert _hom_images(K, H, up_to_conjugacy, len(full)) == full


def test_canonical_pair_on_conjugated_inputs():
    # decompose hands over subgroups that are not class representatives;
    # the graph of [K, phi] may also come in any order
    G, H = parse_group("S4"), parse_group("S3")
    oracle = TupleCanonicalizer(G, H)
    rng = random.Random(5)
    for b in basis(G, H):
        for g in G.elements[::5]:
            K = tuple(sorted(_conj(g, x) for x in b.K.elements))
            gi = p_inv(g)
            for h in H.elements[::2]:
                images = tuple(_conj(h, b.phi(p_mul(p_mul(gi, x), g)))
                               for x in K)
                sub = G.subgroup(K)
                img = tuple(map(H.index, images))
                got = _canonical_pair(G, H, sub.indices, img)
                assert got == b
                assert (got.K.elements, got.phi.images) == oracle(K, images)
                graph = list(zip(sub.indices, img))
                rng.shuffle(graph)
                assert _canonical_pair(G, H, *zip(*graph)) == b


@pytest.mark.parametrize("spec", ["S4", "A4", "D12", "A5", "Q8", "C2xC2xC2",
                                  "D8xC2", "S3xC3"])
def test_all_subgroups_match_one_element_extensions(spec):
    G = parse_group(spec)
    want = oracle_all_subgroups(G)
    assert [s.elements for s in all_subgroups(G)] == want
    assert [s.elements for s in oracle_lattice_by_joins(G)] == want


@pytest.mark.parametrize("spec", ["S4", "D12", "A5"])
def test_class_reps_and_normalizers_match_tuples(spec):
    G = parse_group(spec)
    oracle = TupleCanonicalizer(G, G)
    for H in all_subgroups(G):
        rep, g = class_rep_and_conjugator(G, H.indices)
        assert (rep.elements, G.elements[g]) == oracle.class_rep(H.elements)
        assert normalizer(G, H).elements == tuple(oracle.normalizer(H.elements))


@pytest.mark.parametrize("spec", ["S4", "D12", "A5"])
def test_class_table_ignores_fill_and_member_order(spec):
    # a fresh group fills its class table in reverse lattice order, from
    # members listed backwards; the lattice comes from the cached group,
    # since listing it on the fresh one would fill the table first
    lattice = all_subgroups(parse_group(spec))
    G = groups._build_group.__wrapped__(spec)
    oracle = TupleCanonicalizer(G, G)
    assert not G._classes
    for H in reversed(lattice):
        rep, g = class_rep_and_conjugator(G, H.indices[::-1])
        assert (rep.elements, G.elements[g]) == oracle.class_rep(H.elements)


@pytest.mark.parametrize("spec", ["S3", "S4", "A4", "A5", "D8", "Q8", "D12",
                                  "C12", "C2xC2xC2", "C3xC3", "S3xC3", "S5",
                                  "S4xC2", "D8xC2"])
def test_subgroup_classes_match_all_subgroups_route(spec):
    G = parse_group(spec)
    got = subgroups_up_to_conjugacy(G)
    want = oracle_subgroup_classes(G)
    assert [H.elements for H in got] == [H.elements for H in want]


def test_subgroup_classes_build_no_lattice(monkeypatch):
    def lattice(G):
        raise AssertionError("built the whole subgroup lattice")
    monkeypatch.setattr(groups, "all_subgroups", lattice)
    S4 = groups._build_group.__wrapped__("S4")
    assert len(subgroups_up_to_conjugacy(S4)) == 11


@pytest.mark.parametrize("spec", ["S4", "A5", "D12", "S4xC2"])
def test_outer_twists_count_cosets_of_k_times_centralizer(spec):
    # |N_G(K) : K C_G(K)| = |N_G(K)| |Z(K)| / (|K| |C_G(K)|), since
    # K meets C_G(K) in Z(K)
    G = parse_group(spec)
    oracle = TupleCanonicalizer(G, G)
    for K in subgroups_up_to_conjugacy(G):
        n = len(oracle.normalizer(K.elements))
        c = len(_centralizer(G.elements, K.elements))
        z = len(_centralizer(K.elements, K.elements))
        assert len(_outer_twists(G, K)) * K.order * c == n * z


def test_s5_subgroup_lattice():
    S5 = parse_group("S5")
    assert len(all_subgroups(S5)) == 156
    assert len(subgroups_up_to_conjugacy(S5)) == 19
    with enumeration_cap(360):
        A6 = parse_group("A6")
        assert len(all_subgroups(A6)) == 501
        assert len(subgroups_up_to_conjugacy(A6)) == 22


def test_tables_are_lazy_and_capped(capsys):
    S8 = groups._build_group("S8")  # the group the command parses, unchecked
    assert cli.run(["basis", "S8", "C1"]) == 2
    assert "enumeration cap" in capsys.readouterr().err
    assert not {"mul", "inv", "conj"} & vars(S8).keys()


def assert_subgroup_and_hom(K, phi):
    """K's elements are closed under products and phi, read off its
    permutation images, is multiplicative into its codomain; a finite
    nonempty set closed under products is a subgroup."""
    els = K.elements
    members = set(els)
    assert members and all(p_mul(a, b) in members for a in els for b in els)
    assert phi.domain == K and set(phi.images) <= set(phi.codomain.elements)
    f = dict(zip(els, phi.images))
    assert all(f[p_mul(a, b)] == p_mul(f[a], f[b]) for a in els for b in els)


@pytest.mark.parametrize("gs,hs", [("S3", "S3"), ("S4", "S4"), ("D8", "Q8"),
                                   ("A4", "S4"), ("A5", "C2")])
def test_basis_and_homs_are_subgroups_and_homs(gs, hs):
    # from_indices checks nothing, so what the kernel builds by
    # construction is checked here on permutation tuples
    G, H = parse_group(gs), parse_group(hs)
    for b in basis(G, H):
        assert_subgroup_and_hom(b.K, b.phi)
    for K in subgroups_up_to_conjugacy(G):
        for hom in homomorphisms(K, H):
            assert_subgroup_and_hom(K, hom)


@pytest.mark.parametrize("spec,p", [("S4", 2), ("A4", 2)])
def test_fusion_morphisms_are_homs(spec, p):
    F = fusion_system(parse_group(spec), p)
    for P in all_subgroups(F.sylow_group):
        morphs = F.morphisms_to_sylow(P)
        assert morphs
        for alpha in morphs:
            assert_subgroup_and_hom(P, alpha)


def test_mackey_terms_are_subgroups_and_homs():
    roster = [parse_group(s) for s in ("C2", "S3", "C3")]
    for G, H, M in itertools.product(roster, repeat=3):
        for b1 in basis(G, H):
            for b2 in basis(H, M):
                for b, _ in _compose_basis(b1, b2):
                    assert_subgroup_and_hom(b.K, b.phi)
