"""Burnside modules of finite groups.

The module of virtual (G,H)-bisets with free right H-action has a canonical
basis of transitive classes [K, phi] with K a subgroup of G up to conjugacy
and phi: K -> H a homomorphism up to pre-conjugation by the normalizer of K
and post-conjugation by H. Composition of two classes is the Mackey sum over
double cosets in the middle group, and the other operations are derived
from it: restriction is composition with the classes of the restricting
maps, augmentation is composition with the (H, trivial)-biset H/H, and the
Burnside ring A(G), embedded as the classes [K, i_K], multiplies by
composition. The opposite of a bifree class is the class of the inverse
map. realize and decompose convert between classes and explicit bisets
with action tables.

Coefficients are plain ints: a nonzero p-adic element carries one (p, k)
and holds residues in [0, p^k), and zero is an integer element. compose, +,
- and PadicInt scaling follow one scalar rule: an integer or zero operand
takes its partner's (p, k), and two p-adic operands must agree in p and k.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import BisetError, ScalarMismatchError, SubgroupError
from .groups import (GroupHom, PermGroup, Subgroup, _double_cosets,
                     _hom_images, as_group, class_rep_and_conjugator,
                     inclusion_hom, least_conjugates, normalizer,
                     subgroups_up_to_conjugacy, trivial_group)
from .padic import PadicInt, check_precision, check_scalars
from .perms import cycle_string, gather


class BisetClass:
    """The canonical representative [K, phi] of a transitive (G,H)-biset
    class. Instances are produced by _canonical_pair and are interned, so
    equal classes are usually the same object."""

    __slots__ = ("source", "target", "K", "phi", "_hash", "sort_key")

    def __init__(self, source: PermGroup, target: PermGroup,
                 K: Subgroup, phi: GroupHom):
        self.source = source
        self.target = target
        self.K = K
        self.phi = phi
        self._hash = hash((source, target, K, phi.image_indices))
        self.sort_key = (-K.order, K.indices, phi.image_indices)

    @property
    def size(self) -> int:
        return self.source.order * self.target.order // self.K.order

    def label(self) -> str:
        gens = self.K.generators()
        kpart = ",".join(cycle_string(g) for g in gens) or "()"
        if not gens:
            ppart = "triv"
        else:
            ppart = ",".join(f"{cycle_string(g)}->{cycle_string(self.phi(g))}"
                             for g in gens)
        return f"[{kpart}; {ppart}]"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, BisetClass):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.K == other.K
                and self.phi.image_indices == other.phi.image_indices)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __repr__(self):
        return f"BisetClass({self.label()})"


@functools.lru_cache(maxsize=None)
def _outer_twists(G: PermGroup, K0: Subgroup) -> tuple[tuple[int, ...], ...]:
    """The twists of maps K0 -> H by N_G(K0), one per coset of K0 C_G(K0):
    the position permutation sending position i of K0.indices to the
    position of n^-1 k_i n, so that a map given as a tuple aligned with
    K0.indices twists to gather(tuple, twist). A twist by c in C_G(K0) is
    the identity, and one by k in K0 is post-conjugation by phi(k)^-1, so
    the twists by a coset differ only by post-conjugation in the target."""
    conj, mul, inv = G.conj, G.mul, G.inv
    gens = K0.generator_indices()
    centralizer = [c for c, row in enumerate(conj)
                   if all(row[x] == x for x in gens)]
    inner: set[int] = set()  # K0 C_G(K0), as a union of cosets k C_G(K0)
    for k in K0.indices:
        if k not in inner:
            inner.update(gather(mul[k], centralizer))
    position = {x: i for i, x in enumerate(K0.indices)}
    covered: set[int] = set()
    out = []
    for n in normalizer(G, K0).indices:
        if n not in covered:
            covered.update(mul[n][x] for x in inner)
            out.append(gather(position, gather(conj[inv[n]], K0.indices)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _canonical_pair(source: PermGroup, target: PermGroup, members: tuple,
                    images: tuple) -> BisetClass:
    """Canonicalize [K, phi] given by its graph {(k, phi(k))} as two aligned
    index tuples: K's members in increasing order, so that equal pairs share
    a cache entry, and their images in the target. K, named by its bitmask,
    moves to its class representative (`class_rep_and_conjugator`), then
    the image tuple is minimized over pre-conjugation by the normalizer and
    post-conjugation by the target.

    The pre-conjugations are one twist per coset of K0 C_G(K0) in N_G(K0)
    (`_outer_twists`); the other twists add only target conjugates of
    these. Conjugation fixes the identity, so the least image tuple comes
    from the twisted tuples whose first image other than the identity, at
    position j, comes last, and among those from the ones whose image at j
    has the least conjugate m. Only the conjugation rows taking that image
    to m can then win: `least_conjugates` lists them, one per coset of
    Z(H). The least of the tuples they give is the canonical image."""
    K0, g0 = class_rep_and_conjugator(source, members)
    conj, inv = source.conj, source.inv
    # base, aligned with K0.indices: x -> phi(g0^-1 x g0) on K0 = g0 K g0^-1
    base = gather(dict(zip(members, images)),
                  gather(conj[inv[g0]], K0.indices))
    image = base  # the trivial map is its own canonical image
    if any(base):
        least, reach = least_conjugates(target)
        by_key: dict = {}  # (-j, least conjugate at j) -> twisted tuples
        for t in {gather(base, tw) for tw in _outer_twists(source, K0)}:
            j = next(i for i, x in enumerate(t) if x)
            by_key.setdefault((-j, least[t[j]]), []).append(t)
        key, seeds = min(by_key.items())
        j = -key[0]
        rows = target.conj
        image = min(gather(rows[h], t) for t in seeds for h in reach[t[j]])
    return BisetClass(source, target, K0,
                      GroupHom.from_indices(K0, target, image))


def canonical_class(source: PermGroup, target: PermGroup, K: Subgroup,
                    phi) -> BisetClass:
    """The class [K, phi] of a GroupHom, or of a dict checked as one."""
    if not isinstance(phi, GroupHom):
        phi = GroupHom(K, target, phi)
    return _canonical_pair(source, target, K.indices, phi.image_indices)


@functools.lru_cache(maxsize=None)
def basis(G: PermGroup, H: PermGroup) -> tuple[BisetClass, ...]:
    """The canonical basis of the Burnside module over (G, H), ordered by
    descending |K| then canonical keys."""
    seen = set()
    out = []
    for K in subgroups_up_to_conjugacy(G):
        # every H-orbit of maps meets this list, and _canonical_pair
        # minimizes over post-conjugation by H
        for images in _hom_images(K, H, up_to_conjugacy=True):
            b = _canonical_pair(G, H, K.indices, images)
            if b not in seen:
                seen.add(b)
                out.append(b)
    out.sort(key=lambda b: b.sort_key)
    return tuple(out)


# ---------------------------------------------------------------------------
# elements

def _scalar_rule(x, y) -> tuple[int | None, int | None]:
    """The (p, k) of a result from the prime and precision of two operands,
    elements or PadicInt scalars (see the module docstring)."""
    if x.prime is None:
        return y.prime, y.precision
    for name in ("prime", "precision"):
        a, b = getattr(x, name), getattr(y, name)
        if b is not None and a != b:
            raise ScalarMismatchError(f"{name} mismatch: {a} vs {b}")
    return x.prime, x.precision


def _accumulate(out: dict, c: int, pairs) -> None:
    """Add c * mult to out[b] for every (b, mult) in pairs."""
    for b, mult in pairs:
        out[b] = out.get(b, 0) + c * mult


class BurnsideElement:
    """A finite integer or p-adic linear combination of BisetClass values
    over a fixed (source, target) pair: nonzero int coefficients, and the
    (p, k) of a p-adic element in prime and precision (None otherwise).
    +, - and scaling follow the scalar rule of the module docstring."""

    __slots__ = ("source", "target", "_terms", "prime", "precision")

    def __init__(self, source: PermGroup, target: PermGroup, terms: dict):
        scalars, ints = None, {}  # scalars: (p, k), or (None, None) for int
        for b, c in terms.items():
            if b.source != source or b.target != target:
                raise BisetError(
                    f"term {b!r} does not live over ({source.label}, {target.label})")
            if isinstance(c, PadicInt):
                this, c = (c.prime, c.precision), c.residue
            elif isinstance(c, int):
                this = (None, None)
            else:
                raise ScalarMismatchError(f"unsupported coefficient {c!r}")
            if not c:
                continue
            if scalars not in (None, this):
                raise ScalarMismatchError(
                    "mixed integer and p-adic coefficients"
                    if (None, None) in (scalars, this)
                    else f"coefficients at {scalars} and {this} in one element")
            scalars, ints[b] = this, int(c)  # a bool is stored as 0 or 1
        self.source, self.target, self._terms = source, target, ints
        self.prime, self.precision = scalars or (None, None)

    @classmethod
    def _from_ints(cls, source: PermGroup, target: PermGroup, terms: dict,
                   prime: int | None = None,
                   precision: int | None = None) -> "BurnsideElement":
        """The element with int coefficients terms, reduced mod p^k when a
        prime is given. The caller guarantees that the classes live over
        (source, target) and that (p, k) is valid; nothing is checked."""
        self = cls.__new__(cls)
        self.source, self.target = source, target
        if prime is None:
            self._terms = {b: c for b, c in terms.items() if c}
        else:
            mod = prime ** precision
            self._terms = {b: r for b, c in terms.items() if (r := c % mod)}
        self.prime, self.precision = ((prime, precision) if self._terms
                                      else (None, None))
        return self

    def _scalar(self, c: int):
        return c if self.prime is None else PadicInt(self.prime, self.precision, c)

    @property
    def is_padic(self) -> bool:
        return self.prime is not None

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _items(self) -> list[tuple[BisetClass, int]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key)

    def terms(self):
        return [(b, self._scalar(c)) for b, c in self._items()]

    def support(self):
        return sorted(self._terms, key=lambda b: b.sort_key)

    def coefficient(self, b: BisetClass):
        return self._scalar(self._terms.get(b, 0))

    def lift(self, p: int, k: int) -> "BurnsideElement":
        """Coerce to p-adic coefficients at precision k."""
        if self.is_padic:
            if self.prime != p:
                raise ScalarMismatchError(
                    f"cannot lift prime {self.prime} element to prime {p}")
            return self.reduce_to(k)
        check_scalars(p, k)
        return BurnsideElement._from_ints(self.source, self.target,
                                          self._terms, p, k)

    def reduce_to(self, k: int) -> "BurnsideElement":
        check_precision(k)
        if self.is_zero:
            return self
        if not self.is_padic:
            raise ScalarMismatchError("only p-adic elements carry a precision")
        if k > self.precision:
            raise ScalarMismatchError(
                f"cannot raise precision {self.precision} to {k}")
        return BurnsideElement._from_ints(self.source, self.target,
                                          self._terms, self.prime, k)

    def _binop(self, other, sign: int) -> "BurnsideElement":
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            raise BisetError("cannot add elements over different group pairs")
        out = dict(self._terms)
        _accumulate(out, sign, other._terms.items())
        return BurnsideElement._from_ints(self.source, self.target, out,
                                          *_scalar_rule(self, other))

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, scalar) -> "BurnsideElement":
        if isinstance(scalar, PadicInt):
            pk, scalar = _scalar_rule(self, scalar), scalar.residue
        elif isinstance(scalar, int):
            pk = self.prime, self.precision
        else:
            raise ScalarMismatchError(f"unsupported coefficient {scalar!r}")
        return BurnsideElement._from_ints(self.source, self.target, {
            b: scalar * c for b, c in self._terms.items()}, *pk)

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, PadicInt)):
            return self.scaled(scalar)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        if (self.source != other.source or self.target != other.target
                or self.prime != other.prime):
            return False
        if self.precision != other.precision:  # compare at the lower one
            k = min(self.precision, other.precision)
            return self.reduce_to(k) == other.reduce_to(k)
        return self._terms == other._terms

    def __hash__(self):
        raise TypeError("BurnsideElement is not hashable")

    def __str__(self):
        if self.is_zero:
            return "0"
        fmt = "({}) {}" if self.is_padic else "{} {}"
        return " + ".join(fmt.format(c, b.label()) for b, c in self.terms())

    def __repr__(self):
        return f"BurnsideElement({self})"


def element(source: PermGroup, target: PermGroup, terms) -> BurnsideElement:
    return BurnsideElement(source, target, dict(terms))


def zero(source: PermGroup, target: PermGroup) -> BurnsideElement:
    return BurnsideElement(source, target, {})


def single(b: BisetClass, coeff=1) -> BurnsideElement:
    return BurnsideElement(b.source, b.target, {b: coeff})


def identity_class(G: PermGroup) -> BisetClass:
    full = G.full_subgroup().indices
    return _canonical_pair(G, G, full, full)


def identity_element(G: PermGroup) -> BurnsideElement:
    return BurnsideElement(G, G, {identity_class(G): 1})


def cardinality(x: BurnsideElement):
    """Total point count of the virtual biset."""
    return x._scalar(sum(c * b.size for b, c in x._terms.items()))


# ---------------------------------------------------------------------------
# concrete bisets

class ConcreteBiset:
    """An explicit (G,H)-biset on points {0..size-1} with full action tables:
    left[i][x] is the action of source.elements[i] and right[j][x] the action
    of target.elements[j]."""

    __slots__ = ("source", "target", "size", "left", "right")

    def __init__(self, source: PermGroup, target: PermGroup, size: int,
                 left, right):
        self.source = source
        self.target = target
        self.size = size
        self.left = tuple(map(tuple, left))
        self.right = tuple(map(tuple, right))

    def validate(self) -> None:
        """Check the biset axioms; raises BisetError on failure.

        Homomorphy of the tables is checked on (generator, element) pairs,
        and commutation on generator pairs, which suffices. Freeness is
        checked last: no row right[h] with h not the identity has a fixed
        point, which, given the action axioms, is what a free right action
        means.
        """
        G, H, n = self.source, self.target, self.size
        left, right = self.left, self.right
        if len(left) != G.order or len(right) != H.order:
            raise BisetError("action table shape does not match group orders")
        ident = tuple(range(n))
        if left[0] != ident:
            raise BisetError("left identity does not act trivially")
        if right[0] != ident:
            raise BisetError("right identity does not act trivially")
        # an entry past the points, or a short row, fails a lookup in gather
        try:
            for gi in G.generator_indices():
                grow = left[gi]
                for ai, prod in enumerate(G.mul[gi]):
                    if left[prod] != gather(grow, left[ai]):
                        raise BisetError("left table is not an action")
            hmul = H.mul
            for hi in H.generator_indices():
                hrow = right[hi]
                for ai in range(H.order):
                    if right[hmul[ai][hi]] != gather(hrow, right[ai]):
                        raise BisetError("right table is not an action")
            for gi in G.generator_indices():
                grow = left[gi]
                for hi in H.generator_indices():
                    hrow = right[hi]
                    if gather(grow, hrow) != gather(hrow, grow):
                        raise BisetError(
                            "left and right actions do not commute")
        except IndexError:
            raise BisetError("action table entry out of range") from None
        if any(any(map(operator.eq, row, ident)) for row in right[1:]):
            raise BisetError("right action is not free")


@functools.lru_cache(maxsize=None)
def _cosets(G: PermGroup, K: Subgroup) -> tuple[tuple[int, ...], ...]:
    """The left cosets xK of K in G as (minima, pos, u): the least element
    of each coset in increasing order, pos[x] the position of the coset of
    x among them, and u[x] = x^-1 min(xK), an element of K.

    Walking G in index order, the first element of each unseen coset is its
    minimum m; the coset is mK, and u[m k] = k^-1.
    """
    kidx = K.indices
    kinv = gather(G.inv, kidx)
    pos = [-1] * G.order
    u = [0] * G.order
    minima = []
    for x, row in enumerate(G.mul):
        if pos[x] < 0:
            i = len(minima)
            minima.append(x)
            for y, k in zip(gather(row, kidx), kinv):
                pos[y] = i
                u[y] = k
    return tuple(minima), tuple(pos), tuple(u)


@functools.lru_cache(maxsize=None)
def _blocks(H: PermGroup, m: int) -> tuple[tuple, tuple]:
    """(blocks, right) for m blocks of |H| points, point (i, h) numbered
    i*|H| + h: blocks[i][t] lists the points (i, t h) for h in H, and right
    is the right multiplication table (i, h).h0 = (i, h h0)."""
    n = H.order
    blocks = tuple(tuple(tuple([i * n + v for v in row]) for row in H.mul)
                   for i in range(m))
    right = tuple(tuple([base + v for base in range(0, m * n, n) for v in col])
                  for col in zip(*H.mul))
    return blocks, right


# maxsize=0 stores no biset; cache_info() still counts the calls, which the
# benchmark tracer reads. ROADMAP item 5, step 3, removes it.
@functools.lru_cache(maxsize=0)
def realize(b: BisetClass) -> ConcreteBiset:
    """The transitive biset (G x H) / (g k, h) ~ (g, phi(k) h) with left and
    right multiplication actions, by a closed formula.

    The members of the class of (g, h) are (g k, phi(k)^-1 h) for k in K, and
    their first entries run once over the coset gK. So each class has exactly
    one member (m, h) with m = min(gK), and these pairs are the points: m runs
    over the coset minima in increasing order, h over H, and (m, h) is point
    pos(m)*|H| + h. The right action is (m, h).h0 = (m, h h0). The class of
    (x, h) is the point (min(xK), phi(u)^-1 h) with u = x^-1 min(xK), so the
    left action is g.(m, h) = the class of (g m, h).

    The coset table of (G, K) and the blocks and right table of (H, |G:K|)
    are cached (`_cosets`, `_blocks`) and shared by every class with the
    same K or the same H and index; the biset itself is not kept.
    """
    G, H, K = b.source, b.target, b.K
    minima, pos, u = _cosets(G, K)
    size = len(minima) * H.order
    if size != b.size:
        raise AssertionError("realized biset has the wrong cardinality")
    blocks, right = _blocks(H, len(minima))
    # twist[k] is the index of phi(k)^-1, for k in K
    twist = dict(zip(K.indices, gather(H.inv, b.phi.image_indices)))
    # points_of[x] lists the points of the classes of (x, h) for h in H
    points_of = list(map(operator.getitem, gather(blocks, pos),
                         gather(twist, u)))
    if len(minima) == 1:  # K = G: the one minimum is the identity, g.1 = g
        left = points_of
    else:
        pick, from_x = operator.itemgetter(*minima), points_of.__getitem__
        left = [tuple(itertools.chain.from_iterable(map(from_x, gm)))
                for gm in map(pick, G.mul)]
    return ConcreteBiset(G, H, size, left, right)


def decompose(X: ConcreteBiset) -> BurnsideElement:
    """Write a concrete biset as a sum of transitive classes, in one pass.

    Each (G x H)-orbit is transitive with free right H-action, so picking a
    point x gives K = {g : g.x in x.H} and phi(g) = the unique h with
    g.x = x.h; the orbit is the class [K, phi]. The points are walked in
    order; the orbit of each unseen point x is the union of the right orbits
    of the g.x, which are then marked seen.
    """
    X.validate()
    G, H, n = X.source, X.target, X.size
    seen = [False] * n
    terms: dict[BisetClass, int] = {}
    for x0 in range(n):
        if seen[x0]:
            continue
        to_h = {row[x0]: hi for hi, row in enumerate(X.right)}
        members = []
        images = []
        for gi, row in enumerate(X.left):
            y = row[x0]
            hi = to_h.get(y)
            if hi is not None:
                members.append(gi)
                images.append(hi)
            if not seen[y]:
                for hrow in X.right:
                    seen[hrow[y]] = True
        b = _canonical_pair(G, H, tuple(members), tuple(images))
        terms[b] = terms.get(b, 0) + 1
    total = sum(b.size * c for b, c in terms.items())
    if total != n:
        raise AssertionError("orbit decomposition lost points")
    return BurnsideElement._from_ints(G, H, terms)


@functools.lru_cache(maxsize=None)
def _compose_basis(b1: BisetClass, b2: BisetClass) -> tuple[tuple[BisetClass, int], ...]:
    """The Mackey formula: [K, phi] over (G,H) composed with [L, psi] over
    (H,M) is the sum, over representatives x of phi(K)\\H/L, of
    [K_x, psi o c_{x^-1} o phi] with K_x = {k in K : x^-1 phi(k) x in L}."""
    G, H, M = b1.source, b1.target, b2.target
    K, phi_idx = b1.K, b1.phi.image_indices
    L = b2.K
    psi = dict(zip(L.indices, b2.phi.image_indices))
    terms: dict[BisetClass, int] = {}
    for x, _ in _double_cosets(H, frozenset(phi_idx), L.indices):
        row = H.conj[H.inv[x]]  # t -> x^-1 t x
        members, images = [], []
        for k, t in zip(K.indices, phi_idx):
            img = psi.get(row[t])
            if img is not None:
                members.append(k)
                images.append(img)
        b = _canonical_pair(G, M, tuple(members), tuple(images))
        terms[b] = terms.get(b, 0) + 1
    return tuple(sorted(terms.items(), key=lambda kv: kv[0].sort_key))


def compose(x: BurnsideElement, y: BurnsideElement) -> BurnsideElement:
    """Composition over (G,H) x (H,K) -> (G,K), bilinear in both arguments,
    with the scalars of `_scalar_rule`."""
    if x.target != y.source:
        raise BisetError(
            f"cannot compose ({x.source.label},{x.target.label}) with "
            f"({y.source.label},{y.target.label})")
    pk = _scalar_rule(x, y)
    out: dict[BisetClass, int] = {}
    for b1, c1 in x._terms.items():
        for b2, c2 in y._terms.items():
            _accumulate(out, c1 * c2, _compose_basis(b1, b2))
    return BurnsideElement._from_ints(x.source, y.target, out, *pk)


def power(x: BurnsideElement, n: int) -> BurnsideElement:
    """The n-th composition power of an element over (G, G), n >= 1."""
    if x.source != x.target:
        raise BisetError("powers need a (G,G) element")
    if n < 1:
        raise ValueError("exponent must be at least 1")
    result = None
    base = x
    while n:
        if n & 1:
            result = base if result is None else compose(result, base)
        n >>= 1
        if n:
            base = compose(base, base)
    return result


# ---------------------------------------------------------------------------
# restriction, opposite, augmentation

def _inverse_class(f: GroupHom, target: PermGroup) -> BisetClass:
    """The class [f(D), f^-1] over (codomain of f, target) of an injective
    hom f on D, where target is D's parent group or D viewed as a group
    (`as_group`), whose i-th element is D's i-th element."""
    H, D = f.codomain, f.domain
    dom = D.indices if target == D.parent else range(D.order)
    return _canonical_pair(H, target, *zip(*sorted(zip(f.image_indices, dom))))


@functools.lru_cache(maxsize=None)
def _restrict_basis(b: BisetClass, left_hom: GroupHom | None,
                    right_hom: GroupHom | None) -> tuple[tuple[BisetClass, int], ...]:
    """Restriction along a: S -> G and c: T -> H is the composition
    [S, a] o b o [c(T), c^-1], folded from the cached Mackey products of
    `_compose_basis`."""
    if right_hom is not None and not right_hom.is_injective:
        raise BisetError("right restriction along a non-injective map "
                         "would break freeness")
    terms = {b: 1}
    if left_hom is not None:
        src = as_group(left_hom.domain)
        terms = dict(_compose_basis(_canonical_pair(
            src, b.source, src.full_subgroup().indices,
            left_hom.image_indices), b))
    if right_hom is not None:
        c = _inverse_class(right_hom, as_group(right_hom.domain))
        out: dict[BisetClass, int] = {}
        for b1, mult in terms.items():
            _accumulate(out, mult, _compose_basis(b1, c))
        terms = out
    return tuple(sorted(((b1, m) for b1, m in terms.items() if m),
                        key=lambda kv: kv[0].sort_key))


def restrict_along(x: BurnsideElement, left_hom: GroupHom | None = None,
                   right_hom: GroupHom | None = None) -> BurnsideElement:
    """Pull back the left action along left_hom and the right action along
    right_hom (either may be omitted). The homomorphisms map into the
    element's source and target groups respectively."""
    if left_hom is not None and left_hom.codomain != x.source:
        raise SubgroupError("left map does not land in the source group")
    if right_hom is not None and right_hom.codomain != x.target:
        raise SubgroupError("right map does not land in the target group")
    src = as_group(left_hom.domain) if left_hom is not None else x.source
    tgt = as_group(right_hom.domain) if right_hom is not None else x.target
    out: dict[BisetClass, int] = {}
    for b, c in x._terms.items():
        _accumulate(out, c, _restrict_basis(b, left_hom, right_hom))
    return BurnsideElement._from_ints(src, tgt, out, x.prime, x.precision)


def restrict(x: BurnsideElement, S: Subgroup, T: Subgroup) -> BurnsideElement:
    """Restrict the actions to subgroups S of the source and T of the target."""
    if S.parent != x.source:
        raise SubgroupError("S is not a subgroup of the source group")
    if T.parent != x.target:
        raise SubgroupError("T is not a subgroup of the target group")
    return restrict_along(x, inclusion_hom(S), inclusion_hom(T))


@functools.lru_cache(maxsize=None)
def _opposite_basis(b: BisetClass) -> tuple[tuple[BisetClass, int], ...]:
    """The opposite of [K, phi] over (G,H) is [phi(K), phi^-1] over (H,G)."""
    if not b.phi.is_injective:
        raise BisetError(
            f"{b.label()} is not bifree; opposite needs an injective phi")
    return ((_inverse_class(b.phi, b.source), 1),)


def opposite(x: BurnsideElement) -> BurnsideElement:
    """Swap the two actions of a bifree element: an (H,G)-element results.
    Every class in the support must have injective phi."""
    out: dict[BisetClass, int] = {}
    for b, c in x._terms.items():
        _accumulate(out, c, _opposite_basis(b))
    return BurnsideElement._from_ints(x.target, x.source, out, x.prime,
                                      x.precision)


TRIVIAL = trivial_group()


def augment(x: BurnsideElement) -> BurnsideElement:
    """Quotient by the free right action: [K, phi] maps to the left G-set
    G/K, an element over (G, trivial). This is composition with the
    (H, trivial)-biset H/H, the class [H, 0]: its one double coset
    phi(K)\\H/H gives [K, 0]. The kernel of this map consists of the
    elements with augment(x) = 0."""
    H = x.target
    return compose(x, single(burnside_ring_class(H, H.full_subgroup())))


def in_kernel(x: BurnsideElement) -> bool:
    return augment(x).is_zero


def semichar_embed(a: BurnsideElement) -> BurnsideElement:
    """Embed the Burnside ring into the (G,G) module: G/K maps to the
    biset G x_K G, the class [K, inclusion]."""
    if a.target != TRIVIAL:
        raise BisetError("semichar_embed expects an element over (G, trivial)")
    G = a.source
    return BurnsideElement._from_ints(G, G, {
        _canonical_pair(G, G, b.K.indices, b.K.indices): c
        for b, c in a._terms.items()}, a.prime, a.precision)


def burnside_ring_class(G: PermGroup, K: Subgroup) -> BisetClass:
    """The class of the G-set G/K in the Burnside ring A(G)."""
    return _canonical_pair(G, TRIVIAL, K.indices, (0,) * K.order)


def burnside_ring_element(G: PermGroup, terms) -> BurnsideElement:
    return BurnsideElement(G, TRIVIAL, {
        burnside_ring_class(G, K): c for K, c in terms})


def ring_product(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Product in the Burnside ring A(G). G/K x G/L is the sum over x in
    K\\G/L of G/(K intersect xLx^-1), which is the Mackey composition
    [K, i_K] o [L, 0] of the embedded first factor with the second; the
    scalar rules are those of compose."""
    if a.target != TRIVIAL or b.target != TRIVIAL:
        raise BisetError("ring_product expects elements over (G, trivial)")
    if a.source != b.source:
        raise BisetError("ring_product needs a common group")
    return compose(semichar_embed(a), b)


# ---------------------------------------------------------------------------
# augmentation-ideal powers and lattice membership

def augmentation_ideal_generators(G: PermGroup) -> tuple[BurnsideElement, ...]:
    """The integral basis [G/K] - |G/K| [G/G] of the augmentation ideal,
    one generator per proper subgroup class."""
    full_class = burnside_ring_class(G, G.full_subgroup())
    out = []
    for K in subgroups_up_to_conjugacy(G):
        if K.order == G.order:
            continue
        cls = burnside_ring_class(G, K)
        out.append(BurnsideElement(G, TRIVIAL, {
            cls: 1, full_class: -(G.order // K.order)}))
    return tuple(out)


def _action_vectors(ring_elements, module_gens) -> list[dict]:
    """The terms of semichar_embed(a) . y for each a of ring_elements (the
    outer loop) and each y of module_gens."""
    return [compose(acting, y)._terms
            for acting in map(semichar_embed, ring_elements)
            for y in module_gens]


def kernel_basis_elements(G: PermGroup, H: PermGroup) -> tuple[BurnsideElement, ...]:
    """An integral basis of the kernel of augmentation inside the (G,H)
    module: differences of classes sharing the same subgroup K."""
    by_k: dict[Subgroup, list[BisetClass]] = {}
    for b in basis(G, H):
        by_k.setdefault(b.K, []).append(b)
    out = []
    for group in by_k.values():
        base = group[0]
        for other in group[1:]:
            out.append(BurnsideElement(G, H, {other: 1, base: -1}))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _ideal_power_lattice(G: PermGroup, H: PermGroup, m: int,
                         kernel_only: bool) -> IntegerLattice:
    """I_G^m * M over the classes of basis(G, H), where M is the (G,H)
    module or its augmentation kernel, built as I_G * (I_G^(m-1) * M): the
    augmentation-ideal generators act on the generators of M when m = 1,
    and otherwise on the rows of the lattice one power down."""
    from .intlattice import IntegerLattice
    if m == 1:
        module_gens = (kernel_basis_elements(G, H) if kernel_only
                       else tuple(single(b) for b in basis(G, H)))
    else:
        below = _ideal_power_lattice(G, H, m - 1, kernel_only)
        module_gens = [BurnsideElement._from_ints(G, H, row)
                       for row in below.basis()]
    lat = IntegerLattice()
    for terms in _action_vectors(augmentation_ideal_generators(G), module_gens):
        lat.add_vector(terms)
    return lat


def ideal_power_membership(x: BurnsideElement, m: int, *,
                           restrict_to_kernel: bool = False,
                           scale: int = 1) -> bool:
    """Decide by exact lattice reduction whether x lies in
    scale * I_G^m * M, where I_G is the augmentation ideal acting through
    the semicharacteristic embedding and M is the full (G,H) module or its
    augmentation kernel: every coefficient of x is divisible by scale, and
    x / scale lies in I_G^m * M."""
    if x.is_padic:
        raise ScalarMismatchError("membership requires integer coefficients")
    if m < 1:
        raise ValueError("the ideal power must be at least 1")
    if restrict_to_kernel and not in_kernel(x):
        return False
    if not scale:
        return x.is_zero
    if any(c % scale for c in x._terms.values()):
        return False
    lat = _ideal_power_lattice(x.source, x.target, m, restrict_to_kernel)
    return {b: c // scale for b, c in x._terms.items()} in lat


__all__ = [
    "BisetClass", "BurnsideElement", "ConcreteBiset",
    "basis", "canonical_class", "realize", "decompose", "compose", "power",
    "restrict", "restrict_along", "opposite", "augment", "in_kernel",
    "semichar_embed", "ring_product", "ideal_power_membership",
    "identity_element", "identity_class", "element", "zero", "single",
    "cardinality", "burnside_ring_class", "burnside_ring_element",
    "augmentation_ideal_generators", "kernel_basis_elements", "TRIVIAL",
]
