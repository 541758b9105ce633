"""Fusion systems induced by a finite group on a Sylow p-subgroup, and the
stable calculus built on them: stability tests, characteristic idempotents
as p-adic limits of powers of the restricted group biset, stable bases,
inversion of stable units by two independent formulas, and the functor that
sends a fusion-preserving map phi to [S, phi] composed with the target
idempotent."""

from __future__ import annotations

import functools

from .burnside import (BisetClass, BurnsideElement, _canonical_pair, augment,
                       basis, compose, identity_element, power, restrict,
                       restrict_along, single)
from .errors import (ConvergenceError, FormulaMismatchError, FusionError,
                     NonUnitError, NotSemicharacteristicError,
                     ScalarMismatchError)
from .groups import (GroupHom, PermGroup, Subgroup, all_subgroups, as_group,
                     inclusion_hom, subgroups_up_to_conjugacy, sylow)
from .padic import PadicInt, check_scalars
from .perms import gather


class FusionSystem:
    """The fusion system on a chosen Sylow p-subgroup S of G: morphisms
    between subgroups of S are the homomorphisms induced by conjugation
    in G. Constructed through fusion_system(); morphism sets are computed
    on demand and cached."""

    __slots__ = ("ambient", "prime", "sylow", "sylow_group", "_hash")

    def __init__(self, ambient: PermGroup, prime: int):
        check_scalars(prime)
        self.ambient = ambient
        self.prime = prime
        self.sylow = sylow(ambient, prime)
        self.sylow_group = as_group(self.sylow)
        self._hash = hash((ambient, prime))

    @property
    def label(self) -> str:
        return f"F_{self.prime}({self.ambient.label})"

    @functools.lru_cache(maxsize=None)
    def morphisms_to_sylow(self, P: Subgroup) -> tuple[GroupHom, ...]:
        """All maps P -> S of the form x -> g x g^-1 with g in the ambient
        group and g P g^-1 <= S, deduplicated as maps and sorted by image
        indices, cached on (F, P). They are read off the ambient
        conjugation table: S's ambient indices are sorted, so ambient index
        S.indices[i] is index i of the Sylow group."""
        if P.parent != self.sylow_group:
            raise FusionError("the argument must be a subgroup of the Sylow group")
        S = self.sylow.indices
        local = [-1] * self.ambient.order
        for i, a in enumerate(S):
            local[a] = i
        dom = [S[i] for i in P.indices]
        found = {img for img in (gather(local, gather(row, dom))
                                 for row in self.ambient.conj)
                 if -1 not in img}
        return tuple(GroupHom.from_indices(P, self.sylow_group, img)
                     for img in sorted(found))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FusionSystem):
            return NotImplemented
        return self.ambient == other.ambient and self.prime == other.prime

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FusionSystem({self.label}, S of order {self.sylow.order})"


def fusion_system(G: PermGroup, p: int) -> FusionSystem:
    """The fusion system of G at p, cached per (G, label, p): groups that
    are equal under another label get equal systems that print their own."""
    return _fusion_system(G, G.label, p)


@functools.lru_cache(maxsize=None)
def _fusion_system(G: PermGroup, label: str, p: int) -> FusionSystem:
    return FusionSystem(G, p)


def is_fusion_preserving(phi: GroupHom, F1: FusionSystem,
                         F2: FusionSystem) -> bool:
    """Whether the square commutes on every subgroup class P of S1: each
    morphism psi: P -> S1 of F1 has a companion rho: phi(P) -> S2 in F2
    with phi . psi = rho . phi on P. Both sides are compared as tuples of
    S2 indices along P, and phi's image indices are aligned with S1's
    elements."""
    S1, S2 = F1.sylow_group, F2.sylow_group
    if phi.domain.elements != S1.elements:
        raise FusionError("the map must be defined on the whole Sylow group")
    if phi.codomain != S2:
        raise FusionError("the map must land in the target Sylow group")
    f = phi.image_indices
    for P in subgroups_up_to_conjugacy(S1):
        fP = gather(f, P.indices)
        imgP = Subgroup.from_indices(S2, fP)
        companions = {gather(dict(zip(imgP.indices, rho.image_indices)), fP)
                      for rho in F2.morphisms_to_sylow(imgP)}
        if any(gather(f, psi.image_indices) not in companions
               for psi in F1.morphisms_to_sylow(P)):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _orbit_representatives(F: FusionSystem, P: Subgroup) -> tuple[GroupHom, ...]:
    """The fusion morphisms P -> S taken one per Inn(S)-orbit {c_s . phi},
    the first of each orbit in `morphisms_to_sylow` order. The morphisms
    on P are closed under these translates: c_s . c_g is c_(sg)."""
    rows = F.sylow_group.conj
    seen: set[tuple] = set()
    out = []
    for phi in F.morphisms_to_sylow(P):
        if phi.image_indices not in seen:
            out.append(phi)
            seen.update(gather(row, phi.image_indices) for row in rows)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _twists(F: FusionSystem, P: Subgroup) -> tuple[GroupHom, ...]:
    """The fusion morphisms phi: P -> S along which stability is checked,
    sorted by image indices: one per Inn(S)-orbit (`_orbit_representatives`),
    as x -> s^-1 x is a biset isomorphism from the restriction along
    c_s . psi to the one along psi, leaving out the orbits of
    - the inclusion;
    - the restrictions of the fusion morphisms psi: R -> S with P < R and
      |R:P| = p: restriction is functorial and Z-linear, so
      res_{psi|P} = res_{P->R} . res_psi agrees with res_{P->R} . res_incl
      once R is checked. In a p-group every proper subgroup has index p in
      a larger one, so induction from S down covers every P.
    Both sets left out are unions of orbits."""
    S = F.sylow_group
    implied = {gather(row, P.indices) for row in S.conj}
    for R in all_subgroups(S):
        if R.order == F.prime * P.order and R.mask & P.mask == P.mask:
            at = [i for i, x in enumerate(R.indices) if P.mask >> x & 1]
            implied.update(gather(psi.image_indices, at)
                           for psi in F.morphisms_to_sylow(R))
    return tuple(phi for phi in _orbit_representatives(F, P)
                 if phi.image_indices not in implied)


def is_stable(x: BurnsideElement, F1: FusionSystem, F2: FusionSystem) -> bool:
    """Elementary stability: restricting along any fusion morphism on either
    side gives the same element as restricting along the inclusion. Only
    the twists of `_twists` are checked: the other morphisms are
    Inn(S)-translates of these or of the inclusion, or restrictions of
    morphisms on index-p overgroups, and give the same verdict. Each
    restriction is `restrict_along` (one inclusion hom per subgroup, so its
    cached basis restrictions are found by identity), and the elements must
    agree: mod p^k for a p-adic element, exactly for an integer one."""
    if x.source != F1.sylow_group or x.target != F2.sylow_group:
        raise FusionError("element does not live over the Sylow pair")
    if F1.prime != F2.prime:
        raise FusionError("fusion systems at different primes")
    if x.is_padic and x.prime != F1.prime:
        raise ScalarMismatchError(
            f"element prime {x.prime} differs from fusion prime {F1.prime}")
    for side, fus in enumerate((F1, F2)):
        for P in subgroups_up_to_conjugacy(fus.sylow_group):
            twists = _twists(fus, P)
            if not twists:
                continue
            # side 0 restricts the left action, side 1 the right one
            restrictions = (restrict_along(x, *((h, None), (None, h))[side])
                            for h in (inclusion_hom(P),) + twists)
            base = next(restrictions)
            if any(r != base for r in restrictions):
                return False
    return True


class StableElement:
    """An element of the stable (fusion-invariant) part of the p-complete
    Burnside module over a Sylow pair. Stability is verified at
    construction at the stored precision."""

    __slots__ = ("underlying", "left_fusion", "right_fusion")

    def __init__(self, underlying: BurnsideElement, left_fusion: FusionSystem,
                 right_fusion: FusionSystem):
        if not underlying.is_zero and not underlying.is_padic:
            raise ScalarMismatchError("stable elements carry p-adic scalars")
        if not is_stable(underlying, left_fusion, right_fusion):
            raise FusionError("element is not stable for the given fusion systems")
        self.underlying = underlying
        self.left_fusion = left_fusion
        self.right_fusion = right_fusion

    @property
    def prime(self) -> int:
        return self.left_fusion.prime

    @property
    def precision(self):
        return self.underlying.precision

    def __eq__(self, other):
        if not isinstance(other, StableElement):
            return NotImplemented
        return (self.left_fusion == other.left_fusion
                and self.right_fusion == other.right_fusion
                and self.underlying == other.underlying)

    def __str__(self):
        return str(self.underlying)

    def __repr__(self):
        return (f"StableElement({self.left_fusion.label} -> "
                f"{self.right_fusion.label}: {self.underlying})")


def _fixed_point(step, y, k: int, F: FusionSystem, route: str):
    """The first fixed point of y, step(y), step(step(y)), ...; raises
    ConvergenceError after k + k.bit_length() + 2n^2 + 1 steps, n the bit
    length of |S|. That suffices for omega (Y -> Y^p) and for the limit
    route (n-th iterate x^((p-1)p^n - 1)): the iterates lie in a commutative
    ring L of size p^l <= p^(k r), r the rank of A(S, S), and r <= 2^(2n^2)
    (at most 2^(n^2) subgroups and maps from each). In each local factor of
    L a nilpotent y has y^(p^N) = 0 once p^N >= l, and a unit that has a
    limit is 1 + y, y nilpotent, with (1 + y)^(p^N) = 1 once N >= k +
    log_p l, as p^(N - v_p(j)) divides C(p^N, j). The series route (t ->
    omega + t d) has no such proof: on the fusion systems of the tests it
    made k or k + 1 steps, at k up to 128."""
    n = F.sylow.order.bit_length()
    bound = k + k.bit_length() + 2 * n * n + 1
    for _ in range(bound):
        nxt = step(y)
        if nxt == y:
            return nxt
        y = nxt
    raise ConvergenceError(
        f"{route} for {F.label} did not stabilize within {bound} steps")


@functools.lru_cache(maxsize=None)
def characteristic_idempotent(F: FusionSystem, k: int) -> StableElement:
    """The unit of the stable endomorphism ring, computed as the p-adic
    stabilization of Y -> Y^p starting from the (p-1)-st power of the group
    biset restricted to the Sylow subgroup."""
    p = F.prime
    X = restrict(identity_element(F.ambient), F.sylow, F.sylow).lift(p, k)
    Y = power(X, p - 1)
    omega = _fixed_point(lambda y: power(y, p), Y, k, F, "omega powering")
    if compose(omega, omega) != omega:
        raise FormulaMismatchError("stabilized power is not idempotent")
    return StableElement(omega, F, F)


def stabilize(x: BurnsideElement, F1: FusionSystem, F2: FusionSystem,
              k: int) -> StableElement:
    """Project onto the stable part: compose with the characteristic
    idempotents on both sides."""
    w1 = characteristic_idempotent(F1, k).underlying
    w2 = characteristic_idempotent(F2, k).underlying
    out = compose(compose(w1, x.lift(F1.prime, k)), w2)
    return StableElement(out, F1, F2)


@functools.lru_cache(maxsize=None)
def stable_pair_classes(F1: FusionSystem, F2: FusionSystem) \
        -> tuple[tuple[BisetClass, ...], ...]:
    """Partition of the ordinary basis classes over the Sylow pair into
    fusion-conjugacy classes: (K, phi) is identified with
    (a(K), b . phi . a^-1) for fusion morphisms a: K -> S1 and
    b: phi(K) -> S2, both sets asked of the fusion systems on K and on
    phi(K) themselves. Fusion morphisms compose and include the inverses,
    so the one-step image of a pair is its whole class; each class is built
    from its least member, and the classes come in the order of those.
    Replacing a by c_s . a, or b by c_t . b, gives a pair conjugate to the
    first under S1 x S2, which is the same class, so a runs over one
    morphism per Inn(S1)-orbit and b over one per Inn(S2)-orbit
    (`_orbit_representatives`)."""
    S1, S2 = F1.sylow_group, F2.sylow_group
    seen: set[BisetClass] = set()
    out = []
    for b in basis(S1, S2):
        if b in seen:
            continue
        # beta_phis lists each beta . phi along K, beta a fusion map on phi(K)
        phi = b.phi.image_indices
        img = Subgroup.from_indices(S2, phi)
        beta_phis = [gather(dict(zip(img.indices, rho.image_indices)), phi)
                     for rho in _orbit_representatives(F2, img)]
        members = set()
        for alpha in _orbit_representatives(F1, b.K):
            for beta_phi in beta_phis:  # the graph of beta . phi . alpha^-1
                graph = sorted(zip(alpha.image_indices, beta_phi))
                members.add(_canonical_pair(S1, S2, *zip(*graph)))
        seen |= members
        out.append(tuple(sorted(members, key=lambda m: m.sort_key)))
    return tuple(out)


def _stable_element(F1: FusionSystem, F2: FusionSystem, k: int,
                    i: int) -> StableElement:
    """The stable basis element of fusion class i of `stable_pair_classes`:
    the class's least member composed with the idempotents on both sides."""
    return stabilize(single(stable_pair_classes(F1, F2)[i][0]), F1, F2, k)


def stable_basis(F1: FusionSystem, F2: FusionSystem, k: int) \
        -> tuple[StableElement, ...]:
    """One stable basis element per fusion-conjugacy class of pairs, in the
    order of `stable_pair_classes`: the elements of `_stable_column`."""
    return tuple(_stable_column(F1, F2, k, i)[0]
                 for i in range(len(stable_pair_classes(F1, F2))))


@functools.lru_cache(maxsize=None)
def _stable_column(F1: FusionSystem, F2: FusionSystem, k: int, i: int) \
        -> tuple[StableElement, BisetClass, int]:
    """The stable basis element of fusion class i (`_stable_element`), a
    member of the fusion class whose coefficient is a unit mod p, and that
    coefficient's inverse mod p^k; built and checked once per class.

    The columns are block-triangular over the fusion classes ordered by
    descending |K|: omega is bifree, so by Mackey composing with it never
    raises |K|, and at equal |K| it stays inside the fusion class. A column
    with support on another class of the same or larger |K|, or without a
    unit on its own class, raises FormulaMismatchError."""
    members = set(stable_pair_classes(F1, F2)[i])
    p = F1.prime
    stable = _stable_element(F1, F2, k, i)
    column = stable.underlying._items()
    pivot = next(((b, c) for b, c in column if b in members and c % p),
                 None)
    if pivot is None:
        raise FormulaMismatchError(
            "stable basis columns are not independent mod p")
    order = pivot[0].K.order  # fusion morphisms are injective: one |K|
    if any(b not in members and b.K.order >= order for b, _ in column):
        raise FormulaMismatchError(
            "stable basis columns are not triangular over the fusion classes")
    return stable, pivot[0], pow(pivot[1], -1, p ** k)


def stable_coordinates(x: StableElement, k: int | None = None) \
        -> list[tuple[tuple[BisetClass, ...], PadicInt]]:
    """Coordinates of a stable element in the stable basis, as pairs
    (fusion class of (K, phi), coefficient). The stable columns are
    triangular, so the classes are solved one at a time in order of
    descending |K|: a class on which the rest of the element is zero has
    coefficient zero, and its column is never built; otherwise the
    coefficient is read at the pivot of the class's column
    (`_stable_column`, built on first use), the column is subtracted, and
    every member of the class must then be zero mod p^k."""
    F1, F2 = x.left_fusion, x.right_fusion
    elt = x.underlying
    p = F1.prime
    k = k if k is not None else elt.precision
    if k is None:
        raise ScalarMismatchError("a precision is required for zero elements")
    if elt.is_padic and elt.precision < k:
        raise ScalarMismatchError(
            f"cannot raise precision {elt.precision} to {k}")
    mod = p ** k
    rest = {b: c % mod for b, c in elt._terms.items()}
    zero = PadicInt(p, k, 0)  # PadicInt is immutable: one zero serves all
    out = []
    for i, cls in enumerate(stable_pair_classes(F1, F2)):
        if not any(map(rest.get, cls)):
            out.append((cls, zero))
            continue
        stable, pivot, inv = _stable_column(F1, F2, k, i)
        a = rest.get(pivot, 0) * inv % mod
        if a:
            for b, c in stable.underlying._terms.items():
                rest[b] = (rest.get(b, 0) - a * c) % mod
        if any(map(rest.get, cls)):
            raise FusionError(
                "stable element failed to solve in the stable basis")
        out.append((cls, PadicInt(p, k, a)))
    return out


def is_unit_semichar(x: StableElement) -> bool:
    """For a semicharacteristic stable element over one fusion system:
    whether the cardinality of its underlying virtual left S-set is a unit
    mod p. Raises if the element is supported on a fusion class with no
    inclusion pair [K, i_K]."""
    F1, F2 = x.left_fusion, x.right_fusion
    if F1 != F2:
        raise FusionError("semicharacteristic elements need equal fusion systems")
    if x.underlying.is_zero:
        return False
    S = F1.sylow_group
    incl = {_canonical_pair(S, S, K.indices, K.indices)
            for K in subgroups_up_to_conjugacy(S)}
    for cls, coeff in stable_coordinates(x):
        if not coeff.is_zero and incl.isdisjoint(cls):
            raise NotSemicharacteristicError(
                f"support on non-inclusion class {cls[0].label()}")
    quotient = augment(x.underlying)._terms.items()
    return sum(c * b.size for b, c in quotient) % x.prime != 0


def invert_stable(x: StableElement, k: int) -> StableElement:
    """Invert a semicharacteristic stable unit by two routes that must agree:
    the geometric series x^(p-2) sum_i (1 - x^(p-1))^i and the limit of
    x^((p-1)p^n - 1). The inverse is two-sided against the characteristic
    idempotent."""
    if not is_unit_semichar(x):
        raise NonUnitError("cardinality is divisible by p; not invertible")
    F = x.left_fusion
    p = F.prime
    omega = characteristic_idempotent(F, k).underlying
    u = x.underlying.lift(p, k)
    xp1 = power(u, p - 1)
    head = power(u, p - 2) if p > 2 else omega
    # series route: the partial sums t of omega sum_i d^i
    d = omega - xp1
    total = _fixed_point(lambda t: omega + compose(t, d), omega, k, F,
                         "series")
    series = compose(head, total)
    # limit route: z_0 = x^(p-2), z_{n+1} = z_n^p . x^(p-1)
    z = _fixed_point(lambda z: compose(power(z, p), xp1), head, k, F, "limit")
    if series != z:
        raise FormulaMismatchError(
            "series and limit formulas disagree at the stated precision")
    if compose(u, series) != omega or compose(series, u) != omega:
        raise FormulaMismatchError("computed inverse fails the unit property")
    return StableElement(series, F, F)


def a_fus(phi: GroupHom, F1: FusionSystem, F2: FusionSystem,
          k: int) -> StableElement:
    """The stable class [S1, phi] of a fusion-preserving map, realized as
    [S1, phi] composed with the right idempotent; composing the left
    idempotent as well must not change the value."""
    if not is_fusion_preserving(phi, F1, F2):
        raise FusionError("the map is not fusion preserving")
    S1, S2 = F1.sylow_group, F2.sylow_group
    p = F1.prime
    cls = _canonical_pair(S1, S2, S1.full_subgroup().indices,
                          phi.image_indices)
    base = single(cls).lift(p, k)
    w2 = characteristic_idempotent(F2, k).underlying
    out = compose(base, w2)
    w1 = characteristic_idempotent(F1, k).underlying
    if compose(w1, out) != out:
        raise FormulaMismatchError(
            "left idempotent failed to absorb a fusion-preserving class")
    return StableElement(out, F1, F2)


__all__ = [
    "FusionSystem", "StableElement", "fusion_system", "is_fusion_preserving",
    "is_stable", "characteristic_idempotent", "stabilize", "stable_basis",
    "stable_pair_classes", "stable_coordinates", "is_unit_semichar",
    "invert_stable", "a_fus",
]
