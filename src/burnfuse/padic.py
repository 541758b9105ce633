"""Fixed-precision p-adic integers as immutable values, a residue mod p^k
with no arithmetic: callers compute on the plain int residues."""

from __future__ import annotations

import functools

from .errors import CapExceededError, ScalarMismatchError

# Trial division below PRIME_CAP takes milliseconds. Each p-adic limit takes
# about k steps: at PRECISION_CAP the slowest pinned commands (`invert-unit
# S6 --p 2`, `verify functor S6 S5 S4 --p 2`) take 6.9 s on a 2-CPU host.
PRIME_CAP = 2 ** 31
PRECISION_CAP = 1024


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial division; n past PRIME_CAP raises CapExceededError."""
    if n > PRIME_CAP:
        raise CapExceededError(f"{n} exceeds the prime cap {PRIME_CAP}")
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_precision(k: int) -> None:
    """Raise ScalarMismatchError unless k is an int in [1, PRECISION_CAP];
    a bool is not taken for an int."""
    if type(k) is not int:
        raise ScalarMismatchError(f"precision must be an integer, not {k!r}")
    if k < 1:
        raise ScalarMismatchError("precision must be at least 1")
    if k > PRECISION_CAP:
        raise ScalarMismatchError(
            f"precision {k} exceeds the cap {PRECISION_CAP}")


def check_scalars(p: int, k: int = 1) -> None:
    """The one range rule for a prime p and a precision k: check_precision,
    then p must be an int prime."""
    check_precision(k)
    if type(p) is not int:
        raise ScalarMismatchError(f"prime must be an integer, not {p!r}")
    if not is_prime(p):
        raise ScalarMismatchError(f"{p} is not prime")


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
