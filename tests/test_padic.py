import random

import pytest

from burnfuse.errors import ScalarMismatchError
from burnfuse.padic import PadicInt, is_prime, xgcd


def test_examples():
    assert (PadicInt(2, 4, 3) + PadicInt(2, 4, 13)).residue == 0
    assert (PadicInt(3, 3, 2) * PadicInt(3, 3, 14)).residue == 1
    mixed = PadicInt(2, 4, 5) + PadicInt(2, 2, 1)
    assert (mixed.precision, mixed.residue) == (2, 2)


def test_prime_mismatch_rejected():
    with pytest.raises(ScalarMismatchError):
        PadicInt(2, 3, 1) + PadicInt(3, 3, 1)


def test_not_prime_rejected():
    # is_prime is cached; every construction still checks the prime
    for _ in range(2):
        with pytest.raises(ScalarMismatchError):
            PadicInt(4, 2, 1)


def test_ring_axioms_random():
    rng = random.Random(7)
    for p, k in [(2, 6), (3, 4), (5, 3)]:
        mod = p ** k
        for _ in range(50):
            a, b, c = (PadicInt(p, k, rng.randrange(mod)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == PadicInt(p, k, 0)
            assert 1 * a == a


def test_precision_monotonicity():
    rng = random.Random(9)
    for _ in range(40):
        p, k = 3, 5
        a = PadicInt(p, k, rng.randrange(p ** k))
        b = PadicInt(p, k, rng.randrange(p ** k))
        for op in (lambda x, y: x + y, lambda x, y: x * y):
            reduced_then = op(a.reduce_to(3), b.reduce_to(3))
            then_reduced = op(a, b).reduce_to(3)
            assert reduced_then == then_reduced


def test_str():
    assert str(PadicInt(2, 4, 5)) == "5 mod 2^4"


def test_int_mixing():
    a = PadicInt(3, 3, 5)
    assert 2 * a == PadicInt(3, 3, 10)
    assert a + 1 == PadicInt(3, 3, 6)
    assert 1 - a == PadicInt(3, 3, -4)


def test_xgcd_and_primality():
    for a, b in [(12, 18), (35, 64), (0, 5), (7, 0)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
