import copy
import functools
import operator
import pickle
import random

import pytest

from burnfuse.burnside import (basis, cardinality, compose, element,
                               identity_class, single)
from burnfuse.completion import (splitting_idempotent_approx,
                                 transfer_counterexample_check)
from burnfuse.errors import CapExceededError, ScalarMismatchError
from burnfuse.fusion import fusion_system, stabilize, stable_coordinates
from burnfuse.groups import parse_group, sylow
from burnfuse.padic import (PRECISION_CAP, PRIME_CAP, PadicInt, check_scalars,
                            is_prime, xgcd)


def ref_op(op, a, b):
    """The reference scalar arithmetic of the tests, on (p, k, residue): op
    on two coefficients, each an int or a PadicInt. An int takes its
    partner's (p, k); two PadicInt operands must agree in both."""
    pk = {(c.prime, c.precision) for c in (a, b) if isinstance(c, PadicInt)}
    if len(pk) > 1:
        raise ScalarMismatchError(f"scalars disagree: {sorted(pk)}")
    r = op(getattr(a, "residue", a), getattr(b, "residue", b))
    if not pk:
        return r
    (p, k), = pk
    return PadicInt(p, k, r % p ** k)


ref_add = functools.partial(ref_op, operator.add)
ref_sub = functools.partial(ref_op, operator.sub)
ref_mul = functools.partial(ref_op, operator.mul)


def test_reference_arithmetic_examples():
    assert ref_add(PadicInt(2, 4, 3), PadicInt(2, 4, 13)) == PadicInt(2, 4, 0)
    assert ref_mul(PadicInt(3, 3, 2), PadicInt(3, 3, 14)) == PadicInt(3, 3, 1)
    assert ref_sub(1, PadicInt(3, 3, 5)) == PadicInt(3, 3, 23)
    assert ref_mul(2, 3) == 6
    for other in (PadicInt(2, 2, 1), PadicInt(3, 4, 1)):
        with pytest.raises(ScalarMismatchError):
            ref_add(PadicInt(2, 4, 5), other)


def test_no_arithmetic():
    a = PadicInt(2, 4, 3)
    for op in (operator.add, operator.sub, operator.mul):
        for x, y in [(a, 1), (1, a), (a, a)]:
            with pytest.raises(TypeError):
                op(x, y)
    with pytest.raises(TypeError):
        -a
    assert not hasattr(a, "reduce_to")


# PadicInt has no arithmetic of its own: its values meet as the coefficients
# of BurnsideElements, under burnside's scalar rule. on(a) is a * [b] for one
# basis class b of B(S3, S3), so its coefficient at b is the scalar a.
S3 = parse_group("S3")
S3_BASIS = basis(S3, S3)


def on(a, b=S3_BASIS[0]):
    return a * single(b)


def coeff(x, b=S3_BASIS[0]):
    return x.coefficient(b)


def random_element(rng, p, k):
    return element(S3, S3, {b: PadicInt(p, k, rng.randrange(p ** k))
                            for b in S3_BASIS})


def test_examples():
    assert (on(PadicInt(2, 4, 3)) + on(PadicInt(2, 4, 13))).is_zero
    assert coeff(PadicInt(3, 3, 2) * on(PadicInt(3, 3, 14))) == PadicInt(3, 3, 1)
    # unequal precisions raise; reduce first to add at the lower one
    x, y = on(PadicInt(2, 4, 5)), on(PadicInt(2, 2, 1))
    with pytest.raises(ScalarMismatchError, match="precision mismatch"):
        x + y
    with pytest.raises(ScalarMismatchError, match="precision mismatch"):
        PadicInt(2, 2, 1) * x
    assert coeff(x.reduce_to(2) + y) == PadicInt(2, 2, 2)


def test_prime_mismatch_rejected():
    x, y = on(PadicInt(2, 3, 1)), on(PadicInt(3, 3, 1))
    for bad in (lambda: x + y, lambda: x - y, lambda: PadicInt(3, 3, 1) * x,
                lambda: compose(x, y), lambda: x.lift(3, 3)):
        with pytest.raises(ScalarMismatchError):
            bad()


def test_ring_axioms_random():
    rng = random.Random(7)
    for p, k in [(2, 6), (3, 4), (5, 3)]:
        mod = p ** k
        for _ in range(20):
            a, b = (PadicInt(p, k, rng.randrange(mod)) for _ in range(2))
            u, v, w = (random_element(rng, p, k) for _ in range(3))
            assert (u + v) + w == u + (v + w)
            assert u + v == v + u
            assert a * (v + w) == a * v + a * w
            assert ref_add(a, b) * u == a * u + b * u
            assert ref_mul(a, b) * u == a * (b * u)
            assert (u + (-u)).is_zero and (u - u).is_zero
            assert 1 * u == u and PadicInt(p, k, 1) * u == u
            assert all(c.precision == k for _, c in (a * u + v).terms())


def test_precision_monotonicity():
    rng = random.Random(9)
    p, k = 3, 5
    for _ in range(20):
        a = PadicInt(p, k, rng.randrange(p ** k))
        x, y = random_element(rng, p, k), random_element(rng, p, k)
        a3 = PadicInt(p, 3, a.residue)
        for op, op3 in [(lambda s, t: s + t, None), (lambda s, t: s - t, None),
                        (compose, None),
                        (lambda s, t: a * s + t, lambda s, t: a3 * s + t)]:
            reduced_then = (op3 or op)(x.reduce_to(3), y.reduce_to(3))
            then_reduced = op(x, y).reduce_to(3)
            assert reduced_then.terms() == then_reduced.terms()
            assert all(c.precision == 3 for _, c in reduced_then.terms())


def test_int_mixing():
    # an int scalar or an integer element takes its partner's (p, k)
    a = on(PadicInt(3, 3, 5))
    assert coeff(2 * a) == PadicInt(3, 3, 10)
    assert coeff(a + on(1)) == coeff(on(1) + a) == PadicInt(3, 3, 6)
    assert coeff(on(1) - a) == PadicInt(3, 3, -4 % 27)
    assert PadicInt(3, 3, 5) * on(1) == (5 * on(1)).lift(3, 3)
    assert ref_add(PadicInt(3, 3, 5), 1) == PadicInt(3, 3, 6)


def test_not_prime_rejected():
    # is_prime is cached; every construction still checks the prime
    for _ in range(2):
        with pytest.raises(ScalarMismatchError):
            PadicInt(4, 2, 1)


@pytest.mark.parametrize("args", [(2, 3, 1.5), (2, 3.0, 5), (2.0, 3, 5),
                                  (2, True, 1), (2, 3, "5"), (3, 2, None)])
def test_scalars_must_be_integers(args):
    with pytest.raises(ScalarMismatchError, match="must be an integer"):
        PadicInt(*args)


def test_precision_cap():
    assert PadicInt(2, PRECISION_CAP, -1).residue == 2 ** PRECISION_CAP - 1
    with pytest.raises(ScalarMismatchError, match="exceeds the cap"):
        PadicInt(2, PRECISION_CAP + 1, 1)


MERSENNE_61 = 2 ** 61 - 1


def test_huge_prime_hits_the_cap():
    # trial division below the cap is quick; past it nothing is divided
    assert is_prime(2 ** 31 - 1) and PRIME_CAP == 2 ** 31
    for check in (is_prime, lambda p: PadicInt(p, 2, 1),
                  lambda p: check_scalars(p, 2),
                  lambda p: fusion_system(parse_group("S3"), p),
                  lambda p: sylow(parse_group("S3"), p),
                  lambda p: splitting_idempotent_approx(parse_group("S3"),
                                                        p, 1),
                  lambda p: transfer_counterexample_check(parse_group("C3"),
                                                          p)):
        with pytest.raises(CapExceededError, match=f"^{MERSENNE_61} exceeds"):
            check(MERSENNE_61)


def test_str():
    assert str(PadicInt(2, 4, 5)) == "5 mod 2^4"


def test_xgcd_and_primality():
    for a, b in [(12, 18), (35, 64), (0, 5), (7, 0)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_value_semantics():
    a = PadicInt(2, 3, 13)
    assert a == PadicInt(2, 3, 5) and hash(a) == hash(PadicInt(2, 3, 5))
    assert a != PadicInt(2, 4, 5) and a != PadicInt(3, 3, 5)
    # never equal to an int or any other type, from either side
    assert a != 5 and 5 != a and a != "5" and a != (2, 3, 5)
    assert len({a, PadicInt(2, 3, 5), PadicInt(2, 4, 5)}) == 2
    assert repr(a) == "PadicInt(prime=2, precision=3, residue=5)"


def test_immutable():
    a = PadicInt(2, 3, 5)
    for name in ("prime", "precision", "residue", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    with pytest.raises(AttributeError):
        del a.residue
    assert a == PadicInt(2, 3, 5)


def test_copy_and_pickle_round_trip():
    a = PadicInt(5, 2, 7)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and repr(b) == repr(a)
    nested = copy.deepcopy({a: [a]})
    assert nested == {a: [a]}
    with pytest.raises(AttributeError):
        pickle.loads(pickle.dumps(a)).residue = 0


def test_post_init_sees_every_construction(monkeypatch):
    # the benchmark's padic.PadicInt.constructions counter wraps this hook,
    # so every PadicInt that a src path hands out must have run it
    S3 = parse_group("S3")
    a, b = basis(S3, S3)[:2]
    x = element(S3, S3, {a: 3, b: 10}).lift(3, 2)
    F = fusion_system(S3, 3)
    w = stabilize(single(identity_class(F.sylow_group)), F, F, 3)
    seen = []
    original = PadicInt.__post_init__

    def hook(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(PadicInt, "__post_init__", hook)
    direct = PadicInt(3, 2, 10)
    assert seen == [direct] and seen[0] is direct
    handed_out = [c for _, c in x.terms()]
    handed_out += [x.coefficient(b), x.coefficient(basis(S3, S3)[2])]
    handed_out.append(cardinality(x))
    assert [(c.prime, c.precision, c.residue) for c in handed_out] == [
        (3, 2, 3), (3, 2, 1), (3, 2, 1), (3, 2, 0),
        (3, 2, (3 * a.size + 10 * b.size) % 9)]
    handed_out += [c for _, c in stable_coordinates(w)]
    assert len(handed_out) > 5
    assert all(any(c is s for s in seen) for c in handed_out)
