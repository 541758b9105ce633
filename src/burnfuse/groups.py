"""Finite permutation groups: parsing, element enumeration, subgroup and
conjugacy machinery, Sylow subgroups, double cosets, and homomorphism
enumeration.

Everything is deterministic: elements are ordered lexicographically by image
tuple, subgroup class representatives minimize their sorted element tuple,
and all enumeration sweeps follow those orders.

Arithmetic runs on element indices. A group's elements are sorted by image
tuple, so index order equals tuple order and a lexicographic minimum over
index tuples picks the same representative as one over permutation tuples;
the identity, the smallest permutation, has index 0. Each group builds, on
first use, a multiplication table, an inverse table and a conjugation table
on indices, and refuses one of more than TABLE_CAP entries. The
enumeration cap in force (`enumeration_cap`) is read in one place,
`parse_group`, on every call; nothing below parsing reads it, so no cache
depends on it. Subgroups carry their sorted index tuple and an int
bitmask; the bitmask serves membership, subset tests, hashing,
deduplication and as the key of the group's class table, never ordering:
`class_rep_and_conjugator` reads a subgroup's class representative there,
also for a subgroup known only as the members of a graph {(k, phi(k))}
that `burnside` canonicalizes. Permutation tuples remain at the edges:
parsing, labels, JSON and the public `elements` and `images` fields.

Validation happens once, where permutations enter: `Subgroup(parent,
elements)`, `PermGroup.subgroup` and `GroupHom` from a dict check their
input as the element loader does, by closure (`_close`) and by propagating
generator images (`_propagate`). `Subgroup.from_indices` and
`GroupHom.from_indices` check nothing; their callers build subgroups and
homomorphisms by construction (joins, conjugates, normalizers, propagated
generator images, the closure of checked generators), and tuple oracles in
the tests check those constructions and both checks.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import re

from .errors import (CapExceededError, GroupParseError, HomomorphismError,
                     SubgroupError)
from .perms import (Perm, cycle_string, gather, identity_perm,
                    is_permutation, p_mul, parse_cycles)

CLOSURE_CAP = 100_000
# The most entries a Cayley table may hold: S7's 5040^2 fit, S8's do not.
TABLE_CAP = 30_000_000
ENUM_CAP = 200
# The seed of the sampled checks (`verify all`, `verify functor`). It sits
# with the other command defaults, so the command line reads it without
# loading `verify`.
DEFAULT_SEED = 20260808
# The enumeration cap in force; `enumeration_cap` sets it for one block.
_enum_cap = contextvars.ContextVar("enum_cap", default=ENUM_CAP)


@contextlib.contextmanager
def enumeration_cap(cap: int):
    """Run the block under enumeration cap `cap`, restoring the previous cap
    when it exits or raises."""
    token = _enum_cap.set(cap)
    try:
        yield
    finally:
        _enum_cap.reset(token)


def mulclose(gens, degree: int, cap: int) -> set[Perm]:
    """Close a set of permutations under products."""
    e = identity_perm(degree)
    els = {e}
    els.update(gens)
    frontier = [g for g in els if g != e]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = p_mul(a, g)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > cap:
                        raise CapExceededError(
                            f"group closure exceeded cap {cap}")
        frontier = new
    return els


def _mask(indices) -> int:
    """The bitmask with the given bit positions set."""
    return sum(map((1).__lshift__, indices))


def _join(mul, elems, mask: int, gens, g: int) -> tuple[list[int], int]:
    """Dimino's step on a Cayley table: the subgroup generated by the
    subgroup `elems` (bitmask `mask`) and the element g, as (elements,
    bitmask). `gens` together with g must generate that subgroup; the result
    is a union of left cosets r*elems closed under left multiplication by
    the generators."""
    gens = (*gens, g)
    out = list(elems)
    reps = [0]
    for r in reps:
        for s in gens:
            y = mul[s][r]
            if not mask >> y & 1:
                coset = gather(mul[y], elems)
                out.extend(coset)
                mask |= _mask(coset)
                reps.append(y)
    return out, mask


def _close(mul, gens) -> tuple[list[int], tuple[int, ...]]:
    """Dimino's algorithm on a Cayley table: the subgroup generated by the
    indices gens, as (elements, irredundant generators), the generators
    being each index of gens, in order, that the previous ones do not
    generate."""
    kept: list[int] = []
    closure, cmask = [0], 1
    for x in gens:
        if not cmask >> x & 1:
            closure, cmask = _join(mul, closure, cmask, kept, x)
            kept.append(x)
    return closure, tuple(kept)


class PermGroup:
    """A finite group of permutations with fully enumerated elements.

    Two PermGroups are equal when they have the same degree and the same
    element set; the label and generating set are presentation data only.
    """

    def __init__(self, degree: int, generators, label: str = "?", *,
                 _elements=None):
        self.degree = degree
        gens = tuple(tuple(g) for g in generators)
        for g in gens:
            if len(g) != degree or not is_permutation(g):
                raise GroupParseError(
                    f"{g} is not a permutation of degree {degree}")
        self.generators = gens
        if _elements is not None:
            self.elements = tuple(sorted(_elements))
        else:
            # the element table holds order x degree ints; bound both
            cap = min(CLOSURE_CAP, 10 * CLOSURE_CAP // degree)
            self.elements = tuple(sorted(mulclose(gens, degree, cap)))
        self.label = label
        self._index = {p: i for i, p in enumerate(self.elements)}
        self._gen_idx = tuple(self._index[g] for g in dict.fromkeys(gens))
        self._hash = hash((degree, self.elements))
        self._full = None
        self._classes: dict[int, tuple[Subgroup, int]] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    def index(self, p: Perm) -> int:
        return self._index[p]

    def __contains__(self, p) -> bool:
        return p in self._index

    @functools.cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table on indices: mul[a][b] is the index of
        elements[a] * elements[b], applying elements[b] first.

        Only the generators' rows are computed from permutation products.
        The other rows are filled breadth first from the identity's, since
        mul[a*g][b] = mul[a][mul[g][b]]: the row of a*g is the row of a
        gathered at the row of g. The generators generate the group, so
        every row is reached. A table of more than TABLE_CAP entries is
        refused with CapExceededError before any row is built, and then
        nothing is cached."""
        index, els = self._index, self.elements
        if len(els) ** 2 > TABLE_CAP:
            raise CapExceededError(f"|G|^2 = {len(els) ** 2} Cayley table "
                                   f"entries exceed the table cap {TABLE_CAP}")
        gen_rows = [tuple([index[tuple(map(els[g].__getitem__, b))]
                           for b in els]) for g in self._gen_idx]
        rows = [None] * len(els)
        rows[0] = tuple(range(len(els)))
        reached = [0]
        for a in reached:
            row = rows[a]
            for g, grow in zip(self._gen_idx, gen_rows):
                c = row[g]
                if rows[c] is None:
                    rows[c] = gather(row, grow)
                    reached.append(c)
        return tuple(rows)

    @functools.cached_property
    def inv(self) -> tuple[int, ...]:
        """inv[a] is the index of the inverse of elements[a]."""
        return tuple(row.index(0) for row in self.mul)

    @functools.cached_property
    def conj(self) -> tuple[tuple[int, ...], ...]:
        """The conjugation table: conj[h][t] is the index of h t h^-1."""
        mul, inv = self.mul, self.inv
        cols = tuple(zip(*mul))  # cols[b][a] is the index of a * b
        return tuple(gather(cols[inv[h]], mul[h]) for h in range(len(mul)))

    def generator_indices(self) -> tuple[int, ...]:
        return self._gen_idx

    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, elements)

    def full_subgroup(self) -> "Subgroup":
        """The whole group as a Subgroup, built once."""
        if self._full is None:
            self._full = Subgroup.from_indices(self, range(self.order))
        return self._full

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PermGroup({self.label!r}, order={self.order})"


class Subgroup:
    """A subgroup of a PermGroup, stored as its sorted element tuple, the
    matching sorted tuple of parent indices, and their bitmask.

    The sorted element tuple, equivalently the index tuple, is the key used
    everywhere to pick deterministic conjugacy-class representatives.
    Built from permutations, the set is checked to be a subgroup: closing
    it on the parent's Cayley table must add nothing; `from_indices`
    checks nothing.
    """

    __slots__ = ("parent", "elements", "indices", "mask", "_gens", "_hash")

    def __init__(self, parent: PermGroup, elements):
        try:
            idx = {parent._index[tuple(x)] for x in elements}
        except KeyError as exc:
            raise SubgroupError(
                f"{exc.args[0]} is not in the parent group") from None
        closure, gens = _close(parent.mul, sorted(idx))
        if len(closure) != len(idx):
            missing = min(set(closure) - idx)
            raise SubgroupError(f"not a subgroup: it generates "
                                f"{parent.elements[missing]}, which it lacks")
        self._setup(parent, idx)
        self._gens = gens

    @classmethod
    def from_indices(cls, parent: PermGroup, indices) -> "Subgroup":
        """The subgroup with the given parent indices (repeats allowed). The
        caller guarantees they form a subgroup; nothing is checked."""
        self = cls.__new__(cls)
        self._setup(parent, set(indices))
        return self

    def _setup(self, parent: PermGroup, idx: set[int]) -> None:
        self.parent = parent
        self.indices = tuple(sorted(idx))
        self.elements = gather(parent.elements, self.indices)
        self.mask = _mask(self.indices)
        self._gens = None
        self._hash = hash((parent, self.mask))

    @property
    def order(self) -> int:
        return len(self.indices)

    def __contains__(self, p) -> bool:
        i = self.parent._index.get(p)
        return i is not None and bool(self.mask >> i & 1)

    def generator_indices(self) -> tuple[int, ...]:
        """A greedy irredundant generating set as parent indices: each
        element, in order, that the previous ones do not generate."""
        if self._gens is None:
            self._gens = _close(self.parent.mul, self.indices)[1]
        return self._gens

    def generators(self) -> tuple[Perm, ...]:
        """A greedy irredundant generating set, deterministic."""
        return tuple(map(self.parent.elements.__getitem__,
                         self.generator_indices()))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.mask == other.mask

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.label})"


@functools.lru_cache(maxsize=None)
def generated_subgroup(G: PermGroup, gens: tuple[int, ...]) -> Subgroup:
    """The subgroup of G generated by the elements with indices gens,
    closed on the Cayley table."""
    return Subgroup.from_indices(G, _close(G.mul, gens)[0])


@functools.lru_cache(maxsize=None)
def as_group(sub: Subgroup) -> PermGroup:
    """View a subgroup as a PermGroup in the same permutation universe. Its
    element i is sub.elements[i], which has index sub.indices[i] in the
    parent, because both orders are the order of the image tuples."""
    gens = sub.generators()
    if gens:
        body = ", ".join(cycle_string(g) for g in gens)
    else:
        body = "()"
    label = f"perm {sub.parent.degree}: {body}"
    return PermGroup(sub.parent.degree, gens, label, _elements=sub.elements)


class GroupHom:
    """A group homomorphism from a Subgroup into a PermGroup, stored as the
    image tuple aligned with the sorted domain elements, and as the matching
    codomain indices. Built from a dict, the map is checked to be total, into
    the codomain and multiplicative: it must equal the `_propagate`
    extension of its generator images; `from_indices` checks nothing."""

    __slots__ = ("domain", "codomain", "images", "image_indices", "_map",
                 "_hash")

    def __init__(self, domain: Subgroup, codomain: PermGroup, mapping: dict):
        try:
            images = tuple(mapping[x] for x in domain.elements)
        except KeyError as exc:
            raise HomomorphismError(f"map not total: missing {exc}") from exc
        for y in images:
            if y not in codomain:
                raise HomomorphismError(f"image {y} is not in the codomain")
        img = tuple(map(codomain._index.__getitem__, images))
        f = dict(zip(domain.indices, img))
        gens = domain.generator_indices()
        ext = _propagate(domain, gens, gather(f, gens), codomain)
        if ext is None:
            raise HomomorphismError("not multiplicative: the generator images "
                                    "extend to no homomorphism")
        for a in domain.indices:
            if f[a] != ext[a]:
                raise HomomorphismError(
                    f"not multiplicative at {domain.parent.elements[a]}: the "
                    f"generator images send it to {codomain.elements[ext[a]]}")
        self._setup(domain, codomain, img)

    @classmethod
    def from_indices(cls, domain: Subgroup, codomain: PermGroup,
                     image_indices) -> "GroupHom":
        """The map sending domain.indices[i] to codomain element
        image_indices[i]. The caller guarantees it is a homomorphism;
        nothing is checked."""
        self = cls.__new__(cls)
        self._setup(domain, codomain, tuple(image_indices))
        return self

    def _setup(self, domain: Subgroup, codomain: PermGroup,
               img: tuple[int, ...]) -> None:
        self.domain = domain
        self.codomain = codomain
        self.image_indices = img
        self.images = gather(codomain.elements, img)
        self._map = None
        self._hash = hash((domain, codomain, img))

    def __call__(self, x: Perm) -> Perm:
        if self._map is None:
            self._map = dict(zip(self.domain.elements, self.images))
        return self._map[x]

    @property
    def is_injective(self) -> bool:
        return len(set(self.image_indices)) == self.domain.order

    def generator_pairs(self) -> tuple[tuple[Perm, Perm], ...]:
        return tuple((g, self(g)) for g in self.domain.generators())

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GroupHom):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.image_indices == other.image_indices)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        pairs = ", ".join(f"{cycle_string(a)}->{cycle_string(b)}"
                          for a, b in self.generator_pairs())
        return f"GroupHom({pairs or 'trivial'})"


@functools.lru_cache(maxsize=None)
def inclusion_hom(sub: Subgroup) -> GroupHom:
    """The inclusion of sub into its parent, one object per subgroup, so
    caches keyed on it compare by identity."""
    return GroupHom.from_indices(sub, sub.parent, sub.indices)


# ---------------------------------------------------------------------------
# parsing

_ATOM_RE = re.compile(r"^([CSDA])(\d+)$")
_PERM_RE = re.compile(r"^perm\s+(\d+)\s*:\s*(.*)$", re.S)


def _cyclic(n: int) -> list[Perm]:
    if n == 1:
        return []
    return [tuple((i + 1) % n for i in range(n))]


def _symmetric(n: int) -> list[Perm]:
    if n <= 1:
        return []
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple((i + 1) % n for i in range(n)))
    return gens


def _alternating(n: int) -> list[Perm]:
    if n <= 2:
        return []
    gens = []
    for i in range(n - 2):
        images = list(range(n))
        images[i], images[i + 1], images[i + 2] = images[i + 1], images[i + 2], images[i]
        gens.append(tuple(images))
    return gens


def _dihedral(order: int) -> list[Perm]:
    """Dihedral group of the given even order."""
    n = order // 2
    if n == 1:
        return [(1, 0)]
    if n == 2:
        return [(1, 0, 2, 3), (0, 1, 3, 2)]
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return [rot, ref]


def _quaternion() -> list[Perm]:
    # unit quaternions 1, i, -1, -i, j, k, -j, -k under left multiplication
    i = (1, 2, 3, 0, 5, 6, 7, 4)
    j = (4, 7, 6, 5, 2, 1, 0, 3)
    return [i, j]


def _parse_atom(token: str) -> tuple[str, int, int]:
    """The family letter, index and degree of a named factor: Q8 is
    ("Q", 8, 8), and D<n> acts on n/2 points from n = 6."""
    if token == "Q8":
        return "Q", 8, 8
    m = _ATOM_RE.match(token)
    if not m:
        raise GroupParseError(f"unrecognized group token {token!r}")
    family, n = m.group(1), int(m.group(2))
    if n < 1:
        raise GroupParseError(f"bad index in {token!r}")
    if family == "D" and n % 2 != 0:
        raise GroupParseError(
            f"dihedral token {token!r} must carry an even order >= 2")
    return family, n, n // 2 if family == "D" and n > 4 else n


def _atom_order(family: str, n: int, cap: int) -> int:
    """The order of a named factor, or cap + 1 once it provably exceeds cap.
    S<n> has order n! and A<n> order n!/2 (1 for n <= 2); the product stops
    as soon as it passes cap, so a huge n costs no more than a small one."""
    if family in "CDQ":
        return min(n, cap + 1)
    order = 1
    for i in range(3 if family == "A" else 2, n + 1):
        order *= i
        if order > cap:
            return cap + 1
    return order


def _atom_generators(family: str, n: int) -> list[Perm]:
    """The generators of a named factor."""
    if family == "Q":
        return _quaternion()
    return {"C": _cyclic, "S": _symmetric, "A": _alternating,
            "D": _dihedral}[family](n)


def parse_group(spec: str) -> PermGroup:
    """The group of a spec string, built once per spec and refused with
    CapExceededError, on every call, when its order passes the enumeration
    cap in force. Nothing else reads the cap: a group once returned runs
    its operations under any cap, and `as_group` and a PermGroup built
    directly are not capped.

    Grammar: named families C<n>, D<2n>, S<n>, A<n>, Q8, products joined
    with 'x' (e.g. C2xC2), or the explicit form
    'perm <degree>: <cycles>, <cycles>, ...' with 1-based disjoint cycles.
    """
    G = _build_group(spec)
    cap = _enum_cap.get()
    if G.order > cap:
        raise CapExceededError(
            f"|G| = {G.order} exceeds the enumeration cap {cap}")
    return G


@functools.lru_cache(maxsize=None)
def _build_group(spec: str) -> PermGroup:
    """The group of a spec string (see `parse_group`), with no cap check."""
    text = spec.strip()
    if not text:
        raise GroupParseError("empty group spec")
    m = _PERM_RE.match(text)
    if m:
        degree = int(m.group(1))
        if degree < 1:
            raise GroupParseError("degree must be positive")
        if degree > CLOSURE_CAP:
            raise CapExceededError(
                f"degree {degree} exceeds the closure cap {CLOSURE_CAP}")
        body = m.group(2).strip()
        gens = []
        if body:
            for part in body.split(","):
                gens.append(parse_cycles(part, degree))
        label = f"perm {degree}: " + (", ".join(cycle_string(g) for g in gens)
                                      if gens else "()")
        return PermGroup(degree, gens, label)
    tokens = [t.strip() for t in text.split("x")]
    atoms = [_parse_atom(token) for token in tokens]
    # check the order and the element table (order x degree ints) before
    # building a generator: C<n> alone is a tuple of length n, so a huge n
    # would exhaust memory before closure hit its cap
    order = 1
    for family, n, _ in atoms:
        order = min(order * _atom_order(family, n, CLOSURE_CAP),
                    CLOSURE_CAP + 1)
    if order > CLOSURE_CAP:
        raise CapExceededError(
            f"|{text}| exceeds the closure cap {CLOSURE_CAP}")
    size = order * sum(d for _, _, d in atoms)  # entries of the element table
    if size > 10 * CLOSURE_CAP:
        raise CapExceededError(f"{text} needs {size} element table entries, "
                               f"past the cap {10 * CLOSURE_CAP}")
    degree = 0
    gens: list[Perm] = []
    for family, n, d in atoms:
        gens = [g + tuple(range(len(g), len(g) + d)) for g in gens]
        pad = tuple(range(degree))
        gens.extend(pad + tuple(degree + i for i in g)
                    for g in _atom_generators(family, n))
        degree += d
    label = "x".join(tokens)
    return PermGroup(degree, gens, label)


def trivial_group() -> PermGroup:
    return _build_group("C1")  # not an input, so not capped


# ---------------------------------------------------------------------------
# subgroup machinery

@functools.lru_cache(maxsize=None)
def _cyclic_masks(G: PermGroup) -> tuple[int, ...]:
    """The bitmask of <g> for each element index g of G; the order of g is
    its mask's bit count."""
    mul = G.mul
    out = []
    for g in range(len(mul)):
        powers = [0]
        x = g
        while x:
            powers.append(x)
            x = mul[x][g]
        out.append(_mask(powers))
    return tuple(out)


def class_rep_and_conjugator(G: PermGroup, members) -> tuple[Subgroup, int]:
    """The canonical representative R of the class of the subgroup H with
    element indices `members` (any order), and the least index g with
    g H g^-1 = R. Both are read from G's class table, keyed
    by bitmask; the first lookup in a class fills in the whole class: if T
    is the set conjugating H onto R, T a^-1 is the set for a H a^-1."""
    found = G._classes.get(_mask(members))
    if found is None:
        mul, inv, conj = G.mul, G.inv, G.conj
        masks = [_mask(gather(row, members)) for row in conj]
        reach = {m: g for g, m in enumerate(masks)}  # some g reaching each
        R = Subgroup.from_indices(G, min(sorted(gather(conj[g], members))
                                         for g in reach.values()))
        to_rep = [h for h, m in enumerate(masks) if m == R.mask]
        for m, a in reach.items():
            G._classes[m] = (R, min(mul[h][inv[a]] for h in to_rep))
        found = G._classes[_mask(members)]
    return found


@functools.lru_cache(maxsize=None)
def subgroups_up_to_conjugacy(G: PermGroup) -> tuple[Subgroup, ...]:
    """One canonical representative per conjugacy class of subgroups,
    sorted by (order, elements).

    Built by cyclic extension of class representatives only (Neubüser):
    starting from the trivial class, each new representative H is joined
    with one cyclic subgroup <g> outside H per N_G(H)-orbit, and the join
    is mapped to its class through the class table. Every class is
    reached: every subgroup is a chain of joins with cyclic subgroups,
    x^-1 <J, C> x = <x^-1 J x, x^-1 C x> moves such a chain onto one
    through the representative, and n <H, C> n^-1 = <H, n C n^-1> for n in
    N_G(H)."""
    mul, conj = G.mul, G.conj
    cyclic = _cyclic_masks(G)
    reps = [class_rep_and_conjugator(G, (0,))[0]]
    found = {reps[0].mask}
    for H in reps:
        gens = H.generator_indices()
        normal_rows = gather(conj, normalizer(G, H).indices)
        done: set[int] = set()  # bitmasks of <g> in the orbits joined so far
        for g, cmask in enumerate(cyclic):
            if H.mask >> g & 1 or cmask in done:
                continue
            done.update(cyclic[row[g]] for row in normal_rows)
            joined, _ = _join(mul, H.indices, H.mask, gens, g)
            R = class_rep_and_conjugator(G, joined)[0]
            if R.mask not in found:
                found.add(R.mask)
                reps.append(R)
    reps.sort(key=lambda s: (s.order, s.indices))
    return tuple(reps)


@functools.lru_cache(maxsize=None)
def all_subgroups(G: PermGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G, sorted by (order, elements): the conjugates of
    the class representatives."""
    found: dict[int, Subgroup] = {}
    for R in subgroups_up_to_conjugacy(G):
        for row in G.conj:
            members = gather(row, R.indices)
            mask = _mask(members)
            if mask not in found:
                found[mask] = Subgroup.from_indices(G, members)
    return tuple(sorted(found.values(), key=lambda s: (s.order, s.indices)))


@functools.lru_cache(maxsize=None)
def normalizer(G: PermGroup, H: Subgroup) -> Subgroup:
    gens = H.generator_indices()
    mask = H.mask
    members = [g for g, row in enumerate(G.conj)
               if all(mask >> row[x] & 1 for x in gens)]
    return Subgroup.from_indices(G, members)


def _p_part(order: int, p: int) -> int:
    q = 1
    while order % (q * p) == 0:
        q *= p
    return q


@functools.lru_cache(maxsize=None)
def sylow(G: PermGroup, p: int) -> Subgroup:
    """The Sylow p-subgroup with minimal canonical key; trivial if p does
    not divide |G|."""
    from .padic import check_scalars
    check_scalars(p)
    target = _p_part(G.order, p)
    mul = G.mul
    P = Subgroup.from_indices(G, [0])
    while P.order < target:
        N = normalizer(G, P)
        for g in N.indices:
            if P.mask >> g & 1:
                continue
            gp = g
            for _ in range(p - 1):
                gp = mul[gp][g]
            if P.mask >> gp & 1:
                elems, _ = _join(mul, P.indices, P.mask,
                                 P.generator_indices(), g)
                P = Subgroup.from_indices(G, elems)
                break
        else:
            raise AssertionError("Sylow growth step failed")
    return class_rep_and_conjugator(G, P.indices)[0]


@functools.lru_cache(maxsize=None)
def _double_cosets(G: PermGroup, a, b) -> tuple[tuple[int, int], ...]:
    """The partition of G into a\\G/b double cosets, for subgroups given by
    element indices a and b, as (least index, size) pairs."""
    mul = G.mul
    seen: set[int] = set()
    out = []
    for g in range(G.order):
        if g in seen:
            continue
        coset: set[int] = set()
        for x in a:
            coset.update(map(mul[mul[x][g]].__getitem__, b))
        seen.update(coset)
        out.append((g, len(coset)))
    assert sum(size for _, size in out) == G.order
    return tuple(out)


def _propagate(domain: Subgroup, gens, images, codomain: PermGroup):
    """Extend generator images over the whole domain, working on indices:
    gens are parent indices of domain elements, images codomain indices.
    Returns the map domain index -> codomain index, or None on
    inconsistency."""
    dmul, cmul = domain.parent.mul, codomain.mul
    phi = {0: 0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            drow, crow = dmul[x], cmul[phi[x]]
            for g, h in zip(gens, images):
                y = drow[g]
                fy = crow[h]
                known = phi.get(y)
                if known is None:
                    phi[y] = fy
                    new.append(y)
                elif known != fy:
                    return None
        frontier = new
    return phi


@functools.lru_cache(maxsize=None)
def least_conjugates(H: PermGroup) -> tuple[tuple[int, ...],
                                            tuple[tuple[int, ...], ...]]:
    """For each element index t of H: the least index m in its conjugacy
    class, and the h with h t h^-1 = m, one per coset of the centre Z(H)
    (conjugation by hz is conjugation by h). If a conjugates t to m, those
    h are the coset C_H(m) a."""
    mul, inv, conj = H.mul, H.inv, H.conj
    n = len(mul)
    centre = [z for z, row in enumerate(conj) if row == tuple(range(n))]
    least, reach = [-1] * n, [()] * n
    for m in range(n):
        if least[m] >= 0:
            continue  # a smaller element of m's class came first
        reps: list[int] = []  # C_H(m), one element per coset of Z(H)
        covered: set[int] = set()
        for c, row in enumerate(conj):
            if row[m] == m and c not in covered:
                covered.update(gather(mul[c], centre))
                reps.append(c)
        for h, row in enumerate(conj):
            t = row[m]  # h m h^-1 = t, so h^-1 conjugates t to m
            if least[t] < 0:
                least[t] = m
                reach[t] = tuple(mul[c][inv[h]] for c in reps)
    return tuple(least), tuple(reach)


def _hom_images(K: Subgroup, H: PermGroup, up_to_conjugacy: bool = False,
                cap: float = math.inf):
    """The homomorphisms K -> H as image-index tuples aligned with
    K.indices, in lexicographic order of the generator images.

    Backtracking, depth first in index order: the image of generator i is
    chosen only when the images of generators 1..i are consistent on the
    subgroup those generators span (`_propagate`), since a map that is not
    a homomorphism there extends to none on K. The order is that of
    itertools.product over the candidate images.

    With up_to_conjugacy, image i is kept only when it is least in its
    orbit under C, the common centralizer in H of images 1..i-1 (C = H
    for the first generator), and C then shrinks to the centralizer of
    image i in C. Every H-orbit of homomorphisms under post-conjugation
    still has a member here: conjugate phi so that phi(g_1) is least in
    its class, then by an element of C_H(phi(g_1)) so that phi(g_2) is
    least in its orbit, and so on.

    With a cap, it stops as soon as it has found more than cap maps and
    returns those cap + 1, so that a Hom set too large to hold is never
    built; the caller refuses such a set."""
    gens = K.generator_indices()
    if not gens:
        return [(0,)]
    h_orders = [m.bit_count() for m in _cyclic_masks(H)]
    candidates = []
    for g in gens:
        n = _cyclic_masks(K.parent)[g].bit_count()
        candidates.append([h for h in range(H.order) if n % h_orders[h] == 0])
    last = len(gens) - 1
    images: list[int] = []
    out = []

    def extend(i: int, rows) -> None:
        # rows: the conjugation rows of C, or None without up_to_conjugacy
        for h in candidates[i]:
            if len(out) > cap:
                return
            if rows is not None and any(row[h] < h for row in rows):
                continue
            images.append(h)
            phi = _propagate(K, gens[:i + 1], images, H)
            if phi is not None and i == last:
                out.append(gather(phi, K.indices))
            elif phi is not None:
                extend(i + 1, None if rows is None
                       else [row for row in rows if row[h] == h])
            images.pop()

    extend(0, list(H.conj) if up_to_conjugacy else None)
    return out


@functools.lru_cache(maxsize=None)
def homomorphisms(K: Subgroup, H: PermGroup) -> tuple[GroupHom, ...]:
    """All group homomorphisms K -> H, in lexicographic order of the
    generator images. `burnside.basis` enumerates them only up to
    conjugacy in H (see `_hom_images`); this is the full list."""
    return tuple(GroupHom.from_indices(K, H, img) for img in _hom_images(K, H))
