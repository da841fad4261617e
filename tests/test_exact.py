import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from toeplab._exact import det_int, divided_differences, integer_nullspace, pivot_columns, rank, solve_square


@pytest.mark.parametrize("rows,det", [
    ([], 1),
    ([[5]], 5),
    ([[0, 1], [1, 0]], -1),                    # one swap
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),    # two swaps: a 3-cycle
    ([[0, 2, 1], [3, 0, 0], [0, 0, 4]], -24),  # swap at the first column
    ([[2, 1, 3], [0, 0, 5], [0, 4, 1]], -40),  # swap at the second column
    ([[1, 2], [2, 4]], 0),                     # dependent rows
    ([[0, 1], [0, 2]], 0),                     # zero column
    ([[0, 0, 1], [1, 2, 3], [2, 4, 7]], 0),    # zero second pivot after a swap
])
def test_det_int_hand_computed(rows, det):
    assert det_int(rows) == det
    assert isinstance(det_int(rows), int)


def test_det_int_rejects_non_square():
    with pytest.raises(ValueError):
        det_int([[1, 2]])


@pytest.mark.parametrize("rows,pivots", [
    ([], []),
    ([[0, 0], [0, 0]], []),                     # zero matrix
    ([[1, 2], [2, 4]], [0]),                    # rank-deficient
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [0, 1]),  # rank-deficient square
    ([[0, 1, 2], [0, 2, 5]], [1, 2]),           # a zero first column is skipped
    ([[1, 1, 1], [2, 2, 3]], [0, 2]),           # a dependent middle column is skipped
    ([[0, 3], [2, 1]], [0, 1]),                 # swap at the first pivot
])
def test_rank_and_pivot_columns_hand_computed(rows, pivots):
    assert pivot_columns(rows) == pivots
    assert rank(rows) == len(pivots)


@pytest.mark.parametrize("rows,rhs,x", [
    ([], [], []),
    ([[1, 2], [2, 4]], [1, 2], None),           # singular, consistent
    ([[1, 2], [2, 4]], [1, 3], None),           # singular, inconsistent
    ([[0, 1], [0, 2]], [1, 2], None),           # zero column
    ([[0, 2], [3, 1]], [4, 5], [1, 2]),         # swap at the first pivot: det -6
    ([[2, 1, 3], [0, 0, 5], [0, 4, 1]], [7, 10, -2], [1, -1, 2]),  # swap at the second pivot: det -40
    ([[2, 1], [1, 3]], [1, 0], [Fraction(3, 5), Fraction(-1, 5)]),  # a rational solution
])
def test_solve_square_hand_computed(rows, rhs, x):
    got = solve_square(rows, rhs)
    assert got == x
    assert got is None or all(isinstance(v, Fraction) for v in got)


def test_solve_square_rejects_non_square():
    with pytest.raises(ValueError):
        solve_square([[1, 2]], [1])


@pytest.mark.parametrize("rows,basis", [
    ([[0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),  # a zero row: the identity
    ([[1, 1, 0], [2, 2, 0]], [[-1, 1, 0], [0, 0, 1]]),  # dependent rows
    ([[1, 2, 3], [4, 5, 6]], [[1, -2, 1]]),
    ([[2, 4]], [[-2, 1]]),                              # primitive: divided by the gcd
    ([[2, -3]], [[3, 2]]),                              # positive at the free column
    ([[-2, 3]], [[3, 2]]),
    ([[-2, -3]], [[-3, 2]]),                            # a negative pivot
    ([[0, 0], [1, 2]], [[-2, 1]]),                      # swap at the first pivot
    ([[1, 2], [3, 4]], []),                             # full rank
])
def test_integer_nullspace_hand_computed(rows, basis):
    assert integer_nullspace(rows) == basis


def _laplace_det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def _minor_rank(rows):
    """The largest k with a nonzero k x k minor."""
    ncol = len(rows[0]) if rows else 0
    return max((k for k in range(1, min(len(rows), ncol) + 1)
                for rs in combinations(rows, k) for cs in combinations(range(ncol), k)
                if _laplace_det([[r[c] for c in cs] for r in rs])), default=0)


def test_exact_agrees_with_oracles_on_random_matrices():
    rng = random.Random(2357)
    for _ in range(300):
        nrow, ncol = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(ncol)] for _ in range(nrow)]
        if nrow > 1 and rng.random() < 0.3:  # a dependent row
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[-2])]
        r = _minor_rank(rows)
        assert rank(rows) == r
        # a pivot is a column that raises the rank of the columns left of it
        assert pivot_columns(rows) == [c for c in range(ncol)
                                       if _minor_rank([row[:c + 1] for row in rows]) > _minor_rank([row[:c] for row in rows])]
        basis = integer_nullspace(rows)
        free = [c for c in range(ncol) if c not in pivot_columns(rows)]
        assert len(basis) == ncol - r
        for c, v in zip(free, basis):
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
            assert gcd(*v) == 1 and v[c] > 0 and all(v[o] == 0 for o in free if o != c)
        square = [row[:nrow] for row in rows] if ncol >= nrow else None
        if square is not None:
            assert det_int(square) == _laplace_det(square)
            b = [rng.randint(-9, 9) for _ in range(nrow)]
            x = solve_square(square, b)
            if _laplace_det(square) == 0:
                assert x is None
            else:
                assert [sum(a * v for a, v in zip(row, x)) for row in square] == b


@pytest.mark.parametrize("xs,ys,coeffs", [
    ([3], [7], [7]),                                      # a constant through one point
    ([0, 1, 2, 3], [1, 1, 1, 1], [1, 0, 0, 0]),           # a constant: zeros past degree 0
    ([1, 2, 3, 4], [1, 4, 9, 16], [1, 3, 1, 0]),          # k^2 = 1 + 3(k-1) + (k-1)(k-2)
    ([0, 1, 2, 3, 4], [0, 1, 8, 27, 64], [0, 1, 3, 1, 0]),  # k^3, leading coefficient 1
    ([2, -1, 5], [5, -1, 11], [5, 2, 0]),                 # 2k + 1 on unordered nodes
])
def test_divided_differences_hand_polynomials(xs, ys, coeffs):
    got = divided_differences([Fraction(x) for x in xs], [Fraction(y) for y in ys])
    assert got == coeffs
    assert all(isinstance(c, Fraction) for c in got)


def test_divided_differences_rational_nodes():
    # p(x) = x^2 / 3 - x / 2 through x = 1/2, 1/3, 1/4: Newton form over those nodes
    xs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    ys = [x * x / 3 - x / 2 for x in xs]
    c = divided_differences(xs, ys)
    assert c[2] == Fraction(1, 3)
    assert c[1] == Fraction(1, 3) * (xs[0] + xs[1]) - Fraction(1, 2)
    assert c[0] == ys[0]
