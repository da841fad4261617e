from fractions import Fraction

import pytest

from toeplab._exact import det_int, divided_differences


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
