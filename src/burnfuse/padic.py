"""Fixed-precision p-adic integers as immutable values, a residue mod p^k
with no arithmetic: callers compute on the plain int residues."""

from __future__ import annotations

import functools

from .errors import ScalarMismatchError


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_scalars(p: int, k: int) -> None:
    """Raise ScalarMismatchError unless p is an int prime and k an int at
    least 1; a bool is not taken for an int."""
    for name, value in (("prime", p), ("precision", k)):
        if type(value) is not int:
            raise ScalarMismatchError(f"{name} must be an integer, not {value!r}")
    if not is_prime(p):
        raise ScalarMismatchError(f"{p} is not prime")
    if k < 1:
        raise ScalarMismatchError("precision must be at least 1")


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class PadicInt:
    """A p-adic integer truncated at precision p^k: an int residue in
    [0, p^k). Instances are immutable values with no arithmetic: equal and
    hashed by (prime, precision, residue), never equal to an int. They scale
    a BurnsideElement under burnside's scalar rule.
    """

    __slots__ = ("prime", "precision", "residue")

    def __init__(self, prime: int, precision: int, residue: int):
        if not isinstance(residue, int):
            raise ScalarMismatchError(
                f"residue must be an integer, not {residue!r}")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "residue", residue)
        self.__post_init__()

    def __post_init__(self):
        """Validate the scalars and reduce the residue; every construction
        runs this hook."""
        check_scalars(self.prime, self.precision)
        object.__setattr__(self, "residue",
                           self.residue % self.prime ** self.precision)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through the constructor: slots with a raising __setattr__
        # cannot be restored field by field by pickle or copy
        return type(self), (self.prime, self.precision, self.residue)

    def _key(self) -> tuple[int, int, int]:
        return self.prime, self.precision, self.residue

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"PadicInt(prime={self.prime!r}, precision={self.precision!r}, "
                f"residue={self.residue!r})")

    @property
    def is_zero(self) -> bool:
        return self.residue == 0

    def __str__(self) -> str:
        return f"{self.residue} mod {self.prime}^{self.precision}"
