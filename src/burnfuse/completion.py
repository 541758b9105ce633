"""The algebraic p-completion map between Burnside modules.

A virtual (G,H)-biset restricts to a stable element over the Sylow pair
(S, T); composing with the inverse of the stabilized (T,T)-biset H gives the
completion map. This module also provides the per-prime splitting idempotent
approximants, the verification that they sum to the identity-minus-trivial
idempotent in the augmentation-adic topology, the rank comparison between
the quotient by the Sylow-restriction kernel ideal and the stable basis, and
the transfer counterexample for groups of order prime to p.
"""

from __future__ import annotations

import functools
import json

from .burnside import (BurnsideElement, _action_rows, _canonical_pair,
                       basis, burnside_ring_element, cardinality, compose,
                       ideal_power_membership, identity_element, opposite,
                       power, restrict, restrict_along, single)
from .errors import FusionError, InputError
from .fusion import (StableElement, a_fus, characteristic_idempotent,
                     fusion_system, invert_stable, stable_pair_classes,
                     stabilize)
from .groups import (GroupHom, PermGroup, as_group, inclusion_hom, sylow,
                     subgroups_up_to_conjugacy, trivial_group)
from .intlattice import kernel_basis, smith_invariant_factors
from .padic import check_scalars, xgcd


class CheckEntry:
    """A single named verdict with enough witness data to re-run it."""

    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: dict | None = None):
        self.name = name
        self.passed = bool(passed)
        self.witness = witness or {}

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "witness": self.witness}

    def __repr__(self):
        return f"CheckEntry({self.name}: {'PASS' if self.passed else 'FAIL'})"


class CompletionReport:
    """A titled list of check entries with shared context."""

    def __init__(self, title: str, context: dict):
        self.title = title
        self.context = context
        self.checks: list[CheckEntry] = []

    def add(self, name: str, passed: bool, **witness) -> None:
        self.checks.append(CheckEntry(name, passed, witness))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"title": self.title, "context": self.context,
                "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}

    def to_text(self) -> str:
        lines = [f"{self.title}  [{json.dumps(self.context, sort_keys=True)}]"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            extra = ""
            if c.witness:
                extra = "  " + json.dumps(c.witness, sort_keys=True, default=str)
            lines.append(f"  {mark}  {c.name}{extra}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def completion_unit(H: PermGroup, p: int, k: int) -> StableElement:
    """The stabilized (T,T)-biset H for T a Sylow p-subgroup of H."""
    T = sylow(H, p)
    F = fusion_system(H, p)
    return stabilize(restrict(identity_element(H), T, T), F, F, k)


@functools.lru_cache(maxsize=None)
def completion_unit_inverse(H: PermGroup, p: int, k: int) -> StableElement:
    """The inverse of the stabilized (T,T)-biset H, cached per (H, p, k):
    it is the expensive input-independent part of the completion map."""
    return invert_stable(completion_unit(H, p, k), k)


def complete(x: BurnsideElement, p: int, k: int) -> StableElement:
    """The p-completion map: restrict to the Sylow pair and compose with the
    inverse of the stabilized (T,T)-biset of the target group."""
    G, H = x.source, x.target
    S, T = sylow(G, p), sylow(H, p)
    y = restrict(x, S, T).lift(p, k)
    hinv = completion_unit_inverse(H, p, k)
    out = compose(y, hinv.underlying)
    return StableElement(out, fusion_system(G, p), fusion_system(H, p))


def completion_defining_identity(x: BurnsideElement, p: int, k: int) -> bool:
    """Internal consistency of the completion map: composing the completed
    element with the stabilized target biset returns the plain restriction."""
    G, H = x.source, x.target
    S, T = sylow(G, p), sylow(H, p)
    lhs = compose(complete(x, p, k).underlying, completion_unit(H, p, k).underlying)
    rhs = restrict(x, S, T).lift(p, k)
    return lhs == rhs


def complete_functor_check(x: BurnsideElement, y: BurnsideElement,
                           p: int, k: int) -> CompletionReport:
    """Functoriality of completion: c(x o y) = c(x) o c(y), plus identity
    preservation on both endpoint groups."""
    report = CompletionReport("completion functoriality", {
        "groups": [x.source.label, x.target.label, y.target.label],
        "p": p, "k": k})
    both = complete(compose(x, y), p, k)
    split = compose(complete(x, p, k).underlying, complete(y, p, k).underlying)
    report.add("c(x o y) = c(x) o c(y)", both.underlying == split)
    for G in (x.source, y.target):
        cid = complete(identity_element(G), p, k)
        w = characteristic_idempotent(fusion_system(G, p), k)
        report.add(f"c(id_{G.label}) = idempotent", cid.underlying == w.underlying)
    return report


def hom_class_check(phi: GroupHom, p: int, k: int) -> bool:
    """For a group homomorphism phi: G -> H, defined on all of G, with
    phi(S) inside T, the completion of the class [G, phi] equals the stable
    class of the restricted map phi|_S."""
    G, H = phi.domain.parent, phi.codomain
    S, T = sylow(G, p), sylow(H, p)
    f = phi.image_indices
    if not all(T.mask >> f[s] & 1 for s in S.indices):
        raise FusionError("the homomorphism does not carry S into T")
    F1, F2 = fusion_system(G, p), fusion_system(H, p)
    via_completion = complete(
        single(_canonical_pair(G, H, phi.domain.indices, f)), p, k)
    # ambient index T.indices[j] is index j of the Sylow group T
    local = {t: j for j, t in enumerate(T.indices)}
    restricted = GroupHom.from_indices(
        F1.sylow_group.full_subgroup(), F2.sylow_group,
        [local[f[s]] for s in S.indices])
    via_fusion = a_fus(restricted, F1, F2, k)
    return via_completion.underlying == via_fusion.underlying


# ---------------------------------------------------------------------------
# splitting idempotents

def splitting_idempotent_approx(G: PermGroup, p: int, n: int) -> BurnsideElement:
    """The exact integer element ([S,i_S] - [S,0])^((p-1)p^n) over (G,G)."""
    if n < 0:
        raise InputError("the iterate index must be nonnegative")
    check_scalars(p)
    S = sylow(G, p)
    # for p not dividing |G|, S is trivial, the two classes are one, and
    # the pairs sum to zero
    base = BurnsideElement(G, G, [
        (_canonical_pair(G, G, S.indices, S.indices), 1),
        (_canonical_pair(G, G, S.indices, (0,) * S.order), -1)])
    return power(base, (p - 1) * p ** n)


def unit_minus_trivial(G: PermGroup) -> BurnsideElement:
    """The idempotent [G, i_G] - [G, 0] over (G, G)."""
    zero = _canonical_pair(G, G, G.full_subgroup().indices, (0,) * G.order)
    return identity_element(G) - single(zero)


def prime_divisors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def bezout_coefficients(values: list[int]) -> list[int]:
    """Integers a_i with sum a_i * values[i] = gcd(values)."""
    coeffs = [1]
    g = values[0]
    for v in values[1:]:
        x, y, g = xgcd(g, v)
        coeffs = [c * x for c in coeffs] + [y]
    return coeffs


def verify_splitting_sum(G: PermGroup, k_max: int,
                         schedule_cap: int = 8) -> CompletionReport:
    """Check that the per-prime splitting idempotent approximants sum to
    [G,i_G] - [G,0] in the augmentation-adic topology: for each k up to
    k_max, find an iterate index whose defect lies in I^k applied to the
    augmentation kernel of the (G,G) module.

    At each power k one scan tries n = 0, 1, ..., schedule_cap and records
    the least n that attains membership; exhaustion is reported, not
    raised. The search shares one iterate index across the primes.
    k_max below 1 or schedule_cap below 0 would check nothing and raises
    InputError.
    """
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    if schedule_cap < 0:
        raise InputError("schedule_cap must be nonnegative")
    primes = prime_divisors(G.order)
    report = CompletionReport("splitting idempotent sum", {
        "group": G.label, "primes": list(primes), "k_max": k_max})
    indices = [G.order // sylow(G, p).order for p in primes]
    if primes:
        coeffs = bezout_coefficients(indices)
        report.add("bezout relation",
                   sum(a * m for a, m in zip(coeffs, indices)) == 1,
                   coefficients=dict(zip(map(str, primes), coeffs)),
                   indices=dict(zip(map(str, primes), indices)))
    target = unit_minus_trivial(G)

    @functools.cache
    def defect(n: int) -> BurnsideElement:
        d = target
        for p in primes:
            d = d - splitting_idempotent_approx(G, p, n)
        return d

    for k in range(1, k_max + 1):
        attained = next((n for n in range(schedule_cap + 1)
                         if ideal_power_membership(defect(n), k,
                                                   restrict_to_kernel=True)),
                        None)
        if attained is None:
            report.add(f"membership at power {k}", False,
                       schedule_exhausted_at=schedule_cap)
        else:
            stabilized = (defect(attained).is_zero
                          or defect(attained) == defect(attained + 1))
            report.add(f"membership at power {k}", True, n=attained,
                       iterates={str(p): attained for p in primes},
                       exact_idempotent=bool(stabilized))
    return report


# ---------------------------------------------------------------------------
# quotient rank versus stable rank

def restriction_kernel_elements(G: PermGroup, p: int) \
        -> tuple[BurnsideElement, ...]:
    """An integral basis of the kernel of the restriction map from the
    Burnside ring of G to the Burnside ring of its canonical Sylow
    p-subgroup."""
    S = sylow(G, p)
    classes_G = subgroups_up_to_conjugacy(G)
    restricted = [restrict_along(burnside_ring_element(G, [(K, 1)]),
                                 inclusion_hom(S)) for K in classes_G]
    matrix = [[xr.coefficient(b) for xr in restricted]
              for b in basis(as_group(S), trivial_group())]
    kern = kernel_basis(matrix)
    return tuple(burnside_ring_element(G, list(zip(classes_G, v)))
                 for v in kern)


def stable_rank_check(G: PermGroup, H: PermGroup, p: int) -> tuple[int, int]:
    """Compare the minimal number of generators over Z_p of the quotient of
    the (G,H) module by the restriction-kernel ideal with the size of the
    stable basis for the induced fusion systems. The two must be equal."""
    bl = basis(G, H)
    gens = _action_rows(restriction_kernel_elements(G, p),
                        [single(b) for b in bl], G, H)
    invs = smith_invariant_factors(gens)
    p_torsion = sum(1 for d in invs if d % p == 0)
    rank_quotient = len(bl) - len(invs) + p_torsion
    F1, F2 = fusion_system(G, p), fusion_system(H, p)
    rank_stable = len(stable_pair_classes(F1, F2))
    return rank_quotient, rank_stable


# ---------------------------------------------------------------------------
# transfer counterexample

def transfer_counterexample_check(H: PermGroup, p: int,
                                  k: int = 8) -> CompletionReport:
    """For H of order prime to p, completion sends the restriction biset to
    the identity but its opposite (the transfer) to |H| times the identity,
    so completion does not commute with taking opposites."""
    check_scalars(p, k)
    if H.order % p == 0:
        raise InputError(
            f"|{H.label}| = {H.order} must be prime to {p}")
    report = CompletionReport("transfer counterexample", {
        "group": H.label, "order": H.order, "p": p, "k": k})
    E = trivial_group()
    x = single(basis(E, H)[0])  # the (e,H)-biset H
    cx = complete(x, p, k)
    # both Sylow subgroups are trivial, so each stable module is free of
    # rank one on its [e, triv] class; "identity" means coefficient 1 there
    unit_fwd = single(basis(cx.underlying.source,
                            cx.underlying.target)[0]).lift(p, k)
    report.add("c(restriction) = identity", cx.underlying == unit_fwd)
    cop = complete(opposite(x), p, k)
    unit_bwd = single(basis(cop.underlying.source,
                            cop.underlying.target)[0]).lift(p, k)
    value = cardinality(cop.underlying)
    report.add("c(transfer) = |H| . identity",
               cop.underlying == H.order * unit_bwd, value=str(value))
    expect_distinct = (H.order % p ** k) != 1
    distinct = opposite(cx.underlying) != cop.underlying
    if expect_distinct:
        report.add("opposite(c(x)) differs from c(opposite(x))", distinct)
    else:
        report.add("degenerate case |H| = 1 mod p^k", not distinct,
                   note="both sides coincide")
    return report


__all__ = [
    "CheckEntry", "CompletionReport", "complete", "completion_unit",
    "completion_unit_inverse", "completion_defining_identity",
    "complete_functor_check", "hom_class_check",
    "splitting_idempotent_approx", "unit_minus_trivial",
    "verify_splitting_sum", "stable_rank_check",
    "transfer_counterexample_check", "restriction_kernel_elements",
    "prime_divisors", "bezout_coefficients",
]
