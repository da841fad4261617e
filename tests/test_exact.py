import pytest

from toeplab._exact import det_int


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
