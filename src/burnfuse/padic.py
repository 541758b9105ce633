"""Fixed-precision p-adic integers: residues mod p^k with exact arithmetic."""

from __future__ import annotations

import functools
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PadicInt:
    """A p-adic integer truncated at precision p^k.

    Arithmetic between operands requires equal primes; the result carries
    the minimum of the operand precisions. Integers mix freely and are
    lifted to the partner's precision.
    """

    prime: int
    precision: int
    residue: int

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ScalarMismatchError(f"{self.prime} is not prime")
        if self.precision < 1:
            raise ScalarMismatchError("precision must be at least 1")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    @property
    def modulus(self) -> int:
        return self.prime ** self.precision

    @property
    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    @property
    def is_zero(self) -> bool:
        return self.residue == 0

    def reduce_to(self, precision: int) -> "PadicInt":
        if precision > self.precision:
            raise ScalarMismatchError(
                f"cannot raise precision {self.precision} to {precision}")
        return PadicInt(self.prime, precision, self.residue)

    def _coerce(self, other) -> "PadicInt":
        if isinstance(other, PadicInt):
            if other.prime != self.prime:
                raise ScalarMismatchError(
                    f"prime mismatch: {self.prime} vs {other.prime}")
            return other
        if isinstance(other, int):
            return PadicInt(self.prime, self.precision, other)
        return NotImplemented

    def _binop(self, other, op):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = min(self.precision, other.precision)
        return PadicInt(self.prime, k, op(self.residue, other.residue))

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt(self.prime, self.precision, -self.residue)

    def __str__(self) -> str:
        return f"{self.residue} mod {self.prime}^{self.precision}"
