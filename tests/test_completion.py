import os
import random
import subprocess
import sys
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from burnfuse.burnside import (basis, burnside_ring_class,
                               burnside_ring_element, canonical_class,
                               cardinality, compose, identity_element,
                               opposite, restrict, single, zero)
from burnfuse.completion import (bezout_coefficients, complete,
                                 complete_functor_check,
                                 completion_defining_identity, completion_unit,
                                 completion_unit_inverse, hom_class_check,
                                 prime_divisors, restriction_kernel_elements,
                                 splitting_idempotent_approx, stable_rank_check,
                                 transfer_counterexample_check,
                                 unit_minus_trivial, verify_splitting_sum)
from burnfuse.errors import InputError
from burnfuse.fusion import (characteristic_idempotent, fusion_system,
                             is_stable)
from burnfuse.groups import (GroupHom, as_group, parse_group, sylow,
                             subgroups_up_to_conjugacy)
from burnfuse.intlattice import (IntegerLattice, kernel_basis,
                                 smith_invariant_factors)
from burnfuse.padic import PadicInt
from burnfuse.perms import p_inv, p_mul

S3 = parse_group("S3")
S4 = parse_group("S4")
C3 = parse_group("C3")
C6 = parse_group("C6")
E = parse_group("C1")


def test_complete_identity_gives_idempotent():
    for G, p in [(S3, 2), (S3, 3), (C6, 2), (S4, 2)]:
        c = complete(identity_element(G), p, 4)
        w = characteristic_idempotent(fusion_system(G, p), 4)
        assert c.underlying == w.underlying


def test_complete_trivial_source_examples():
    # the (e, C3)-biset C3 followed by its transfer completes to 3 at p = 2
    x = single(basis(E, C3)[0])
    back = single([b for b in basis(C3, E) if b.K.order == 1][0])
    eHe = compose(x, back)
    c = complete(eHe, 2, 4)
    b = c.underlying.support()[0]
    assert c.underlying.coefficient(b) == PadicInt(2, 4, 3)

    # the twisted unit of the target cancels: coefficient 1 at p = 3
    y = single(basis(E, S3)[0])
    cy = complete(y, 3, 4)
    assert [c.residue for _, c in cy.underlying.terms()] == [1]


def test_complete_outputs_stable():
    for gs, hs, p in [("S3", "S3", 2), ("S3", "S4", 2), ("C6", "S3", 3)]:
        G, H = parse_group(gs), parse_group(hs)
        F1, F2 = fusion_system(G, p), fusion_system(H, p)
        for b in list(basis(G, H))[:4]:
            c = complete(single(b), p, 3)
            assert is_stable(c.underlying, F1, F2)


def test_completion_defining_identity_all_basis():
    for gs, hs in [("S3", "S3"), ("C6", "S3")]:
        G, H = parse_group(gs), parse_group(hs)
        for p in (2, 3):
            for b in basis(G, H):
                assert completion_defining_identity(single(b), p, 3)


def test_completion_unit_cached_and_unit():
    h1 = completion_unit_inverse(S4, 2, 4)
    h2 = completion_unit_inverse(S4, 2, 4)
    assert h1 is h2
    w = characteristic_idempotent(fusion_system(S4, 2), 4).underlying
    assert compose(completion_unit(S4, 2, 4).underlying, h1.underlying) == w


def test_functor_check_random_pairs():
    rng = random.Random(77)
    b1, b2 = basis(S3, S4), basis(S4, S3)
    for _ in range(6):
        x, y = single(rng.choice(b1)), single(rng.choice(b2))
        rep = complete_functor_check(x, y, 2, 3)
        assert rep.passed, rep.to_text()


def test_hom_class_check_inclusion():
    C2 = parse_group("C2")
    t = (0, 2, 1)
    images = {C2.identity: S3.identity, (1, 0): t}
    assert hom_class_check(GroupHom(C2.full_subgroup(), S3, images), 2, 4)


def test_hom_class_check_rejects_bad_sylow_image():
    from burnfuse.errors import FusionError
    C2 = parse_group("C2")
    # send the generator to a transposition outside the chosen Sylow subgroup
    T = sylow(S3, 2)
    other = next(g for g in S3.elements
                 if g != S3.identity and g not in T
                 and sorted(g) == [0, 1, 2] and g != (1, 2, 0) and g != (2, 0, 1))
    images = {C2.identity: S3.identity, (1, 0): other}
    with pytest.raises(FusionError):
        hom_class_check(GroupHom(C2.full_subgroup(), S3, images), 2, 4)


# Restricting along the full subgroup of S3 and taking the basis over it
# fill the group caches with an equal group labelled "perm 3: (2 3), (1 2)".
# Each order runs in a fresh process, so the caches of this one stay clean.
LABEL_PROBE = """
import sys
from burnfuse.burnside import (basis, burnside_ring_element, identity_element,
                               restrict)
from burnfuse.completion import splitting_idempotent_approx, unit_minus_trivial
from burnfuse.groups import as_group, parse_group

S3 = parse_group("S3")

def fill_caches_with_an_equal_group():
    x = burnside_ring_element(S3, [(S3.full_subgroup(), 1)])
    restrict(x, S3.full_subgroup(), x.target.full_subgroup())
    A = as_group(S3.full_subgroup())
    for b in basis(A, A):
        pass

def labels():
    return [y.source.label for y in (identity_element(S3),
                                     splitting_idempotent_approx(S3, 3, 0),
                                     unit_minus_trivial(S3))]

seen = []
for step in sys.argv[1:]:
    if step == "fill":
        fill_caches_with_an_equal_group()
    else:
        seen += labels()
print(seen)
"""


@pytest.mark.parametrize("steps", [["fill", "labels"],
                                   ["labels", "fill", "labels"]],
                         ids=["equal-group-first", "S3-first"])
def test_elements_over_G_carry_the_label_of_G(steps):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", LABEL_PROBE, *steps],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True,
                          timeout=60)
    want = ["S3"] * 3 * steps.count("labels")
    assert proc.stdout == f"{want}\n"


def test_splitting_idempotent_approx_examples():
    # for a p-group the element [S,id] - [S,0] is already idempotent
    C2 = parse_group("C2")
    x = splitting_idempotent_approx(C2, 2, 0)
    assert x == unit_minus_trivial(C2)
    assert compose(x, x) == x

    # exponent 1 at n = 0, p = 2 returns the element itself
    y = splitting_idempotent_approx(S3, 2, 0)
    S = sylow(S3, 2)
    incl = canonical_class(S3, S3, S, dict(zip(S.elements, S.elements)))
    zero_cls = canonical_class(S3, S3, S, {x_: S3.identity for x_ in S.elements})
    assert y == single(incl) - single(zero_cls)

    # recorded coefficient vector at p = 3, n = 1: the base satisfies
    # X^2 = 2X, so the sixth power is 32 X
    z = splitting_idempotent_approx(S3, 3, 1)
    T = sylow(S3, 3)
    incl3 = canonical_class(S3, S3, T, dict(zip(T.elements, T.elements)))
    zero3 = canonical_class(S3, S3, T, {x_: S3.identity for x_ in T.elements})
    assert z == 32 * (single(incl3) - single(zero3))


def test_splitting_idempotent_approx_is_zero_for_p_prime_to_the_order():
    # S is trivial, so [S, i_S] = [S, 0] and the base is zero
    for G, p, n in ((S3, 5, 0), (parse_group("C3"), 2, 1), (S3, 7, 2)):
        x = splitting_idempotent_approx(G, p, n)
        assert x.is_zero
        assert x == zero(G, G)


def test_verify_splitting_sum_c2():
    report = verify_splitting_sum(parse_group("C2"), 4)
    assert report.passed
    # single prime: the defect vanishes identically from the start
    for check in report.checks:
        if check.name.startswith("membership"):
            assert check.witness["n"] == 0
            assert check.witness["exact_idempotent"]


def test_verify_splitting_sum_s3_c6():
    for spec in ("S3", "C6"):
        report = verify_splitting_sum(parse_group(spec), 3)
        assert report.passed, report.to_text()
        ns = [c.witness["n"] for c in report.checks
              if c.name.startswith("membership")]
        assert ns == sorted(ns)


def test_verify_splitting_sum_builds_each_approximant_once(monkeypatch):
    # every power rescans the iterates from 0, and the stabilization check
    # reads the next one: each (p, n) approximant is still built once
    from burnfuse import completion
    calls = []

    def counted(G, p, n):
        calls.append((p, n))
        return splitting_idempotent_approx(G, p, n)
    monkeypatch.setattr(completion, "splitting_idempotent_approx", counted)
    for G in (S3, C6):
        calls.clear()
        assert verify_splitting_sum(G, 3).passed
        last = max(n for _, n in calls)
        assert sorted(calls) == [(p, n) for p in prime_divisors(G.order)
                                 for n in range(last + 1)]


def test_verify_splitting_sum_s4_power_three():
    # the recorded iterates at which the S4 defect enters I^k * K for
    # k = 1, 2, 3, with K the augmentation kernel of the (S4, S4) module
    report = verify_splitting_sum(S4, 3)
    assert report.passed, report.to_text()
    assert [c.witness["n"] for c in report.checks
            if c.name.startswith("membership")] == [1, 2, 4]


def test_splitting_membership_monotone_in_iterate():
    # once membership holds at an iterate it holds at the next one
    from burnfuse.burnside import ideal_power_membership
    G = S3
    for k in (1, 2):
        attained = None
        for n in range(0, 4):
            d = unit_minus_trivial(G)
            for p in prime_divisors(G.order):
                d = d - splitting_idempotent_approx(G, p, n)
            if ideal_power_membership(d, k, restrict_to_kernel=True):
                attained = n
                break
        assert attained is not None
        d = unit_minus_trivial(G)
        for p in prime_divisors(G.order):
            d = d - splitting_idempotent_approx(G, p, attained + 1)
        assert ideal_power_membership(d, k, restrict_to_kernel=True)


def test_bezout():
    primes = prime_divisors(S3.order)
    assert primes == (2, 3)
    indices = [S3.order // sylow(S3, p).order for p in primes]
    coeffs = bezout_coefficients(indices)
    assert sum(a * m for a, m in zip(coeffs, indices)) == 1


def test_rank_comparison_cases():
    assert stable_rank_check(E, E, 2) == (1, 1)
    rq, rs = stable_rank_check(S3, S3, 3)
    assert rq == rs == 3
    rq, rs = stable_rank_check(S3, S3, 2)
    assert rq == rs == 3
    rq, rs = stable_rank_check(S4, S3, 2)
    assert rq == rs


def oracle_det(m):
    """Determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j]
               * oracle_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def oracle_invariant_factors(matrix):
    """d_k = D_k / D_(k-1), where the determinantal divisor D_k is the gcd
    of all k-by-k minors; the list stops at the rank, where D_k turns 0."""
    rows, cols = len(matrix), len(matrix[0])
    factors, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                d = gcd(d, oracle_det([[matrix[i][j] for j in ci] for i in ri]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


_SMALL_MATRICES = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-6, 6), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SMALL_MATRICES)
def test_smith_matches_determinantal_divisor_oracle(matrix):
    assert smith_invariant_factors(matrix) == oracle_invariant_factors(matrix)


def restriction_kernel_along(G, S):
    """restriction_kernel_elements with the Sylow subgroup S of G in place
    of the canonical one."""
    basis_S = basis(as_group(S), E)
    classes = subgroups_up_to_conjugacy(G)
    columns = []
    for K in classes:
        xr = restrict(burnside_ring_element(G, [(K, 1)]), S, E.full_subgroup())
        columns.append([xr.coefficient(b) for b in basis_S])
    matrix = [list(row) for row in zip(*columns)]
    return [burnside_ring_element(G, list(zip(classes, v)))
            for v in kernel_basis(matrix)]


def test_restriction_kernel_independent_of_sylow():
    # the kernel ideal does not depend on which Sylow subgroup restricts
    G, p = S3, 2
    S_canonical = sylow(G, p)
    conjugates = {G.subgroup({p_mul(p_mul(g, x), p_inv(g))
                              for x in S_canonical.elements})
                  for g in G.elements}
    assert len(conjugates) == 3
    base = restriction_kernel_elements(G, p)
    assert restriction_kernel_along(G, S_canonical) == list(base)
    for other in conjugates:
        alt = restriction_kernel_along(G, other)
        classes = subgroups_up_to_conjugacy(G)
        def lattice(elems):
            lat = IntegerLattice()
            for x in elems:
                lat.add_vector([x.coefficient(burnside_ring_class(G, K))
                                for K in classes])
            return lat
        la, lb = lattice(base), lattice(alt)
        for row in la.basis():
            assert row in lb
        for row in lb.basis():
            assert row in la


def test_transfer_counterexample():
    rep = transfer_counterexample_check(C3, 2, 4)
    assert rep.passed
    values = [c.witness.get("value") for c in rep.checks if c.witness]
    assert "3 mod 2^4" in values
    rep5 = transfer_counterexample_check(parse_group("C5"), 2, 4)
    assert rep5.passed
    repE = transfer_counterexample_check(E, 2, 4)
    assert repE.passed
    with pytest.raises(InputError):
        transfer_counterexample_check(parse_group("C4"), 2, 4)


def test_transfer_value_is_group_order():
    # completion of the round trip through the trivial group multiplies by
    # the group order, which is not 1 in the p-adics
    x = single(basis(E, C3)[0])
    cop = complete(opposite(x), 2, 5)
    assert cardinality(cop.underlying) == PadicInt(2, 5, 3)
    cx = complete(x, 2, 5)
    assert opposite(cx.underlying) != cop.underlying


def test_report_serialization():
    rep = transfer_counterexample_check(C3, 2, 4)
    data = rep.to_json()
    assert data["passed"] is True
    assert all("name" in c and "passed" in c for c in data["checks"])
    text = rep.to_text()
    assert "PASS" in text
