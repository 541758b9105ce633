"""Exact integer lattices: row-echelon (Hermite-style) reduction, membership,
kernels, and Smith invariant factors read off alternating echelon forms."""

from __future__ import annotations

from bisect import bisect_left
from math import gcd

from .padic import xgcd


class IntegerLattice:
    """A sublattice of Z^n kept in pivot-echelon form.

    Rows are stored sorted by pivot column; pivots are positive. Supports
    incremental insertion and exact membership tests.
    """

    __slots__ = ("dim", "rows", "pivots")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _pivot_row(self, col: int) -> int | None:
        i = bisect_left(self.pivots, col)
        if i < len(self.pivots) and self.pivots[i] == col:
            return i
        return None

    def add_vector(self, vec) -> None:
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != dimension {self.dim}")
        vec = list(vec)
        for j in range(self.dim):
            if vec[j] == 0:
                continue
            i = self._pivot_row(j)
            if i is None:
                if vec[j] < 0:
                    vec = [-v for v in vec]
                where = bisect_left(self.pivots, j)
                self.rows.insert(where, vec)
                self.pivots.insert(where, j)
                return
            row = self.rows[i]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for jj in range(j, self.dim):
                    vec[jj] -= q * row[jj]
            else:
                x, y, g = xgcd(a, b)
                ag, mbg = a // g, -(b // g)
                for jj in range(j, self.dim):
                    aa, bb = row[jj], vec[jj]
                    row[jj] = x * aa + y * bb
                    vec[jj] = mbg * aa + ag * bb

    def __contains__(self, vec) -> bool:
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != dimension {self.dim}")
        vec = list(vec)
        for j in range(self.dim):
            if vec[j] == 0:
                continue
            i = self._pivot_row(j)
            if i is None:
                return False
            row = self.rows[i]
            if vec[j] % row[j] != 0:
                return False
            q = vec[j] // row[j]
            for jj in range(j, self.dim):
                vec[jj] -= q * row[jj]
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> list[list[int]]:
        return [row.copy() for row in self.rows]


def kernel_basis(matrix: list[list[int]]) -> list[list[int]]:
    """Integer basis of {x in Z^n : M x = 0} for an m-by-n matrix M."""
    if not matrix:
        return []
    m, n = len(matrix), len(matrix[0])
    lat = IntegerLattice(m + n)
    for j in range(n):
        aug = [matrix[i][j] for i in range(m)] + [0] * n
        aug[m + j] = 1
        lat.add_vector(aug)
    out = []
    for piv, row in zip(lat.pivots, lat.rows):
        if piv >= m:
            out.append(row[m:])
    return out


def smith_invariant_factors(matrix: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Echelonizes the rows, then the columns, in turn until each row holds
    only its pivot (Kannan and Bachem); gcd/lcm swaps then put the pivots
    in a divisibility chain."""
    rows = matrix
    while True:
        lat = IntegerLattice(len(rows[0]) if rows else 0)
        for row in rows:
            lat.add_vector(row)
        if not any(any(row[j + 1:]) for j, row in zip(lat.pivots, lat.rows)):
            break
        rows = list(zip(*lat.rows))
    factors = [row[j] for j, row in zip(lat.pivots, lat.rows)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return factors
