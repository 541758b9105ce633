import random
from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from burnfuse.burnside import (BurnsideElement, _ideal_power_lattice, basis,
                               ideal_power_membership)
from burnfuse.groups import parse_group
from burnfuse.intlattice import (IntegerLattice, kernel_basis,
                                 smith_invariant_factors)
from burnfuse.padic import xgcd


class OracleDenseLattice:
    """The dense echelon form: rows are lists of length dim, kept sorted by
    pivot column, reduced column by column with the same exact-division and
    xgcd steps as IntegerLattice."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _pivot_row(self, col: int):
        i = bisect_left(self.pivots, col)
        if i < len(self.pivots) and self.pivots[i] == col:
            return i
        return None

    def add_vector(self, vec) -> None:
        assert len(vec) == self.dim
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
        assert len(vec) == self.dim
        vec = list(vec)
        for j in range(self.dim):
            if vec[j] == 0:
                continue
            i = self._pivot_row(j)
            if i is None or vec[j] % self.rows[i][j] != 0:
                return False
            row = self.rows[i]
            q = vec[j] // row[j]
            for jj in range(j, self.dim):
                vec[jj] -= q * row[jj]
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> list[list[int]]:
        return [row.copy() for row in self.rows]


def dense(row: dict, dim: int) -> list[int]:
    return [row.get(j, 0) for j in range(dim)]


def test_membership_basics():
    lat = IntegerLattice()
    lat.add_vector([2, 0, 0])
    lat.add_vector([0, 3, 1])
    assert [2, 0, 0] in lat
    assert [4, 3, 1] in lat
    assert [1, 0, 0] not in lat
    assert [0, 3, 0] not in lat
    assert lat.rank == 2


def test_membership_closed_under_combinations():
    rng = random.Random(11)
    for _ in range(20):
        dim = 5
        lat = IntegerLattice()
        gens = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(4)]
        for g in gens:
            lat.add_vector(g)
        for _ in range(10):
            combo = [0] * dim
            for g in gens:
                c = rng.randint(-3, 3)
                combo = [a + c * b for a, b in zip(combo, g)]
            assert combo in lat


def test_kernel_basis():
    # x + y + z = 0 and x - z = 0 has kernel spanned by (1, -2, 1)
    m = [[1, 1, 1], [1, 0, -1]]
    kern = kernel_basis(m)
    assert len(kern) == 1
    v = kern[0]
    assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in m)
    assert [abs(c) for c in v] == [1, 2, 1]


def test_kernel_random_consistency():
    rng = random.Random(12)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        kern = kernel_basis(m)
        for v in kern:
            assert all(sum(row[i] * v[i] for i in range(cols)) == 0
                       for row in m)
        rank = len(smith_invariant_factors(m)) if any(any(r) for r in m) else 0
        assert len(kern) == cols - rank


def test_smith_invariant_factors():
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 4], [4, 8]]) == [2]
    assert smith_invariant_factors([[0, 0], [0, 0]]) == []
    factors = smith_invariant_factors([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    assert factors == [1, 30, 30]


def test_smith_divisibility_chain_random():
    rng = random.Random(13)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        factors = smith_invariant_factors(m)
        assert all(factors[i] > 0 for i in range(len(factors)))
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


matrices = st.integers(1, 8).flatmap(lambda dim: st.lists(
    st.lists(st.integers(-9, 9), min_size=dim, max_size=dim),
    min_size=1, max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices, st.randoms(use_true_random=False))
def test_sparse_lattice_matches_dense_oracle(matrix, rng):
    # the same rows as lists and as {index: entry} dicts give the dense
    # oracle's echelon form, pivot for pivot and row for row
    dim = len(matrix[0])
    oracle = OracleDenseLattice(dim)
    from_lists, from_dicts = IntegerLattice(), IntegerLattice()
    for row in matrix:
        oracle.add_vector(row)
        from_lists.add_vector(row)
        from_dicts.add_vector({j: v for j, v in enumerate(row) if v})
    for lat in (from_lists, from_dicts):
        assert lat.rank == oracle.rank
        assert sorted(lat.rows) == oracle.pivots
        assert [dense(row, dim) for row in lat.basis()] == oracle.basis()
    probes = [list(row) for row in matrix]
    for _ in range(5):
        coeffs = [rng.randint(-3, 3) for _ in matrix]
        probes.append([sum(c * row[j] for c, row in zip(coeffs, matrix))
                       for j in range(dim)])
    for row in matrix:
        for j in range(dim):
            for d in (-1, 1):
                moved = list(row)
                moved[j] += d
                probes.append(moved)
    for vec in probes:
        want = vec in oracle
        assert (vec in from_lists) == want
        assert ({j: v for j, v in enumerate(vec)} in from_dicts) == want


def test_add_vector_and_membership_leave_their_argument_unchanged():
    lat = IntegerLattice()
    vec = {0: 2, 1: -3, 2: 5}
    lat.add_vector(vec)
    lat.add_vector([3, 1, 0])
    assert vec == {0: 2, 1: -3, 2: 5}
    probe = [5, -2, 5]
    assert probe in lat
    assert probe == [5, -2, 5]
    probe = {0: 4, 1: -6, 2: 10}
    assert probe in lat
    assert probe == {0: 4, 1: -6, 2: 10}
    # no row aliases an argument: reducing later vectors left them intact
    assert vec == {0: 2, 1: -3, 2: 5}

    G = parse_group("C2xC2")
    bl = basis(G, G)
    for row in _ideal_power_lattice(G, G, 1, False).basis():
        x = BurnsideElement._from_ints(G, G, {bl[i]: c for i, c in row.items()})
        for y, scale in ((x, 1), (x.scaled(2), 2)):
            terms = dict(y._terms)
            assert ideal_power_membership(y, 1, scale=scale)
            assert y._terms == terms
