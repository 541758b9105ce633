"""Exact integer lattices: row-echelon (Hermite-style) reduction, membership,
kernels, and Smith invariant factors read off alternating echelon forms."""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd

from .padic import xgcd


def _row(vec) -> dict:
    """A fresh {column: nonzero entry} copy of vec, a mapping or a list read
    as {index: entry}."""
    items = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
    return {c: v for c, v in items if v}


def _subtract(vec: dict, q: int, row: dict) -> None:
    """vec -= q * row, in place, dropping the entries that become zero."""
    for c, v in row.items():
        if w := vec.get(c, 0) - q * v:
            vec[c] = w
        else:
            del vec[c]


class IntegerLattice:
    """A sublattice of the free abelian group on int columns, kept in
    pivot-echelon form.

    Each row is a {column: nonzero int} dict stored in rows under its pivot,
    its least column; pivots are positive. Supports incremental insertion
    and exact membership tests, which copy their argument.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}

    def add_vector(self, vec) -> None:
        vec = _row(vec)
        while vec:
            j = min(vec)
            row = self.rows.get(j)
            if row is None:
                self.rows[j] = ({c: -v for c, v in vec.items()}
                                if vec[j] < 0 else vec)
                return
            a, b = row[j], vec[j]
            if b % a == 0:  # the stored row stays as it is
                _subtract(vec, b // a, row)
            else:
                x, y, g = xgcd(a, b)
                ag, mbg = a // g, -(b // g)
                cols = row.keys() | vec.keys()
                self.rows[j] = {c: v for c in cols if (
                    v := x * row.get(c, 0) + y * vec.get(c, 0))}
                vec = {c: v for c in cols if (
                    v := mbg * row.get(c, 0) + ag * vec.get(c, 0))}

    def __contains__(self, vec) -> bool:
        vec = _row(vec)
        while vec:
            j = min(vec)
            row = self.rows.get(j)
            if row is None or vec[j] % row[j] != 0:
                return False
            _subtract(vec, vec[j] // row[j], row)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> list[dict]:
        return [dict(self.rows[j]) for j in sorted(self.rows)]


def kernel_basis(matrix: list[list[int]]) -> list[list[int]]:
    """Integer basis of {x in Z^n : M x = 0} for an m-by-n matrix M."""
    if not matrix:
        return []
    m, n = len(matrix), len(matrix[0])
    lat = IntegerLattice()
    for j in range(n):
        aug = {i: matrix[i][j] for i in range(m)}
        aug[m + j] = 1
        lat.add_vector(aug)
    return [[row.get(m + j, 0) for j in range(n)]
            for row in lat.basis() if min(row) >= m]


def smith_invariant_factors(matrix) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix, given
    as rows that are lists or mappings.

    Echelonizes the rows, then the columns, in turn until each row holds
    only its pivot (Kannan and Bachem); gcd/lcm swaps then put the pivots
    in a divisibility chain."""
    rows = matrix
    while True:
        lat = IntegerLattice()
        for row in rows:
            lat.add_vector(row)
        echelon = lat.basis()
        if all(len(row) == 1 for row in echelon):
            break
        columns: dict = {}
        for i, row in enumerate(echelon):
            for c, v in row.items():
                columns.setdefault(c, {})[i] = v
        rows = [columns[c] for c in sorted(columns)]
    factors = [v for row in echelon for v in row.values()]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return factors
