import json
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from toeplab.cli import main
from toeplab.errors import UnboundedFiberError, ValidationError
from toeplab.multiindex import (
    SubtorusData,
    diagonal_circle,
    dimension_of_degree_space,
    enumerate_degree,
    enumerate_fiber,
    fiber_polytope_vertices,
    full_torus,
    grlex_key,
    recession_pointed,
)
from toeplab.toric import EXAMPLE_SUBTORI


def test_enumerate_degree_order_and_count():
    mis = enumerate_degree(2, 2)
    assert mis == [(2, 0), (1, 1), (0, 2)]
    for n, k in [(2, 5), (3, 4), (4, 6)]:
        mis = enumerate_degree(n, k)
        assert len(mis) == dimension_of_degree_space(n, k)
        assert all(sum(mi) == k for mi in mis)
        keys = [grlex_key(mi) for mi in mis]
        assert keys == sorted(keys)
        assert len(set(mis)) == len(mis)


def test_enumerate_degree_zero():
    assert enumerate_degree(3, 0) == [(0, 0, 0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_degree_matches_brute_force(n):
    for k in range(7):
        brute = sorted((b for b in product(range(k + 1), repeat=n) if sum(b) == k), key=grlex_key)
        assert enumerate_degree(n, k) == brute


def test_grlex_orders_by_total_degree_first():
    assert grlex_key((0, 2)) > grlex_key((1, 0))
    assert grlex_key((1, 1)) > grlex_key((2, 0))


def test_subtorus_validation():
    with pytest.raises(ValidationError):
        SubtorusData(n=2, d=0, weight_matrix=(), alpha=())
    with pytest.raises(ValidationError):
        SubtorusData(n=2, d=1, weight_matrix=((1, 1, 1),), alpha=(1,))
    # rank-deficient weight rows
    with pytest.raises(ValidationError):
        SubtorusData(n=2, d=2, weight_matrix=((1, 1), (2, 2)), alpha=(1, 2))


def _distinguish_on(tmp_path, subtorus, n, name="out"):
    """Exit code and output of a CLI distinguish run on an explicit subtorus
    record, the one reader of such records."""
    coordinate = [{"terms": [{"gamma": [int(j == i) for j in range(n)], "coeff": 1}]} for i in (0, 1)]
    manifest = {"subtorus": subtorus, "symbol_a": coordinate[0], "symbol_b": coordinate[1], "k_max": 3}
    mpath = tmp_path / f"{name}.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / name
    return main(["--experiment", "distinguish", "--manifest", str(mpath), "--out", str(out)]), out


def test_subtorus_json_round_trip(tmp_path):
    code, out = _distinguish_on(tmp_path, {"n": 4, "d": 2, "Bt": [[1, 1, 0, 0], [0, 0, 1, 1]], "alpha": [1, 1]}, 4)
    assert code == 0
    # the record reads as the product_of_lines example it spells out
    code, example = _distinguish_on(tmp_path, {"example": "product_of_lines"}, 4, "example")
    assert code == 0
    assert (out / "distinguish.json").read_bytes() == (example / "distinguish.json").read_bytes()
    for record in ({"n": 2, "d": 1, "Bt": [[1, 1]]}, {"n": 2, "d": 1, "Bt": [[1, 1]], "alpha": [1], "extra": 0}):
        code, out = _distinguish_on(tmp_path, record, 2, "bad")
        assert code == 2 and not out.exists()


@pytest.mark.parametrize("field,value", [
    ("Bt", [[1, 1.9]]), ("Bt", [[1, "1"]]), ("Bt", [[True, 1]]), ("Bt", 5),
    ("n", "2"), ("n", 2.0), ("d", True), ("alpha", [True]), ("alpha", [1.0]), ("alpha", "1"),
])
def test_subtorus_from_json_accepts_only_integers(tmp_path, field, value):
    code, out = _distinguish_on(tmp_path, {"n": 2, "d": 1, "Bt": [[1, 1]], "alpha": [1], field: value}, 2)
    assert code == 2 and not out.exists()


def test_recession_pointed():
    assert recession_pointed(diagonal_circle(3))
    assert not recession_pointed(SubtorusData(n=2, d=1, weight_matrix=((1, -1),), alpha=(0,)))


@pytest.mark.parametrize("Bt,pointed", [
    (((1, 0),), False),                          # zero weight column: e_2 is a ray
    (((1, 2, 0), (0, 0, 1)), True),              # positive weights, 1 not in the row space
    (((1, 1, -1),), False),                      # mixed signs: (1, 0, 1) is a ray
    (((1, 0, -1, 0), (0, 1, 0, -1)), False),     # (1, 1, 1, 1) is a ray
    (((1, 1, 1),), True),                        # diagonal circle: 1 is the row itself
    (((1, 1, 0, 0), (0, 0, 1, 1)), True),        # product of lines: 1 is the row sum
    (((1, 2), (0, 1)), True),                    # d = n
    (((1, -1), (1, 1)), True),                   # d = n with mixed signs
], ids=["zero_column", "positive", "mixed_signs", "two_rays", "diagonal", "product_of_lines",
        "full_rank_square", "full_rank_mixed"])
def test_recession_pointed_hand_cases(Bt, pointed):
    sub = SubtorusData(n=len(Bt[0]), d=len(Bt), weight_matrix=Bt, alpha=(0,) * len(Bt))
    assert recession_pointed(sub) is pointed


def test_fiber_diagonal_equals_degree_space():
    sub = diagonal_circle(2)
    for k in (1, 3, 7):
        assert enumerate_fiber(sub, k) == enumerate_degree(2, k)


def test_fiber_weighted_mixes_degrees():
    sub = SubtorusData(n=2, d=1, weight_matrix=((1, 2),), alpha=(2,))
    assert enumerate_fiber(sub, 1) == [(0, 1), (2, 0)]
    assert [len(enumerate_fiber(sub, k)) for k in (1, 2, 3)] == [2, 3, 4]


def test_fiber_product_of_lines_counts():
    sub = SubtorusData(n=4, d=2, weight_matrix=((1, 1, 0, 0), (0, 0, 1, 1)), alpha=(1, 1))
    assert [len(enumerate_fiber(sub, k)) for k in (1, 2, 5)] == [4, 9, 36]


def test_fiber_full_torus_single_point():
    sub = full_torus((1, 2))
    assert enumerate_fiber(sub, 3) == [(3, 6)]


@pytest.mark.parametrize(
    "weight_matrix, alpha",
    [
        (((1, 1, 1), (1, -1, 0)), (4, 0)),
        # each negative weight has a later nonzero weight in its row, so the
        # lower and upper ends of its clamp differ
        (((1, 1, 1), (1, -1, -2)), (3, 0)),
        # zero weights at the ends and inside the second row: those
        # coordinates are free in that row, not pinned to zero
        (((1, 1, 1, 1), (0, 1, -1, 0)), (3, 0)),
        (((1, 1, 1, 1), (2, 0, -1, 0)), (4, 1)),
        (((1, 2, 1, 1), (0, 0, 1, -1)), (4, 1)),
    ],
)
def test_fiber_mixed_sign_weights_match_brute_force(weight_matrix, alpha):
    n = len(weight_matrix[0])
    sub = SubtorusData(n=n, d=2, weight_matrix=weight_matrix, alpha=alpha)
    for k in (1, 2, 5):
        box = range(alpha[0] * k + 1)
        brute = [
            beta
            for beta in product(box, repeat=n)
            if all(sum(w * b for w, b in zip(row, beta)) == k * a for row, a in zip(weight_matrix, alpha))
        ]
        assert brute
        assert enumerate_fiber(sub, k) == sorted(brute, key=grlex_key)


def test_fiber_unbounded_raises():
    sub = SubtorusData(n=2, d=1, weight_matrix=((1, -1),), alpha=(0,))
    with pytest.raises(UnboundedFiberError):
        enumerate_fiber(sub, 1)
    # an all-zero weight column leaves its coordinate free
    sub = SubtorusData(n=3, d=2, weight_matrix=((1, 0, 1), (0, 0, 1)), alpha=(1, 1))
    with pytest.raises(UnboundedFiberError):
        enumerate_fiber(sub, 1)


def test_fiber_rejects_int64_overflow():
    # full_torus((1, 2)) has the single point (k, 2k); the second row's
    # reach 4k decides the cut at k = 2**60
    sub = full_torus((1, 2))
    assert enumerate_fiber(sub, 2**59) == [(2**59, 2**60)]
    with pytest.raises(ValidationError):
        enumerate_fiber(sub, 2**60)


def test_fiber_counts_weights_of_coordinates_pinned_at_zero():
    # x_0 = 0 in every point, yet its weight still enters the int64 search
    assert enumerate_fiber(SubtorusData(n=4, d=1, weight_matrix=((2**61, 1, 1, 1),), alpha=(1,)), 1) == [
        (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    with pytest.raises(ValidationError, match="int64"):
        enumerate_fiber(SubtorusData(n=4, d=1, weight_matrix=((2**70, 1, 1, 1),), alpha=(1,)), 1)


def test_fiber_refuses_oversized_search_before_allocating():
    # C(305, 5) ~ 2.1e10 points; the prefix count at coordinate 3 already
    # passes the limit, so the search stops before repeating those rows
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="level 300 fiber has 348881876 live prefixes at coordinate 3"):
        enumerate_fiber(diagonal_circle(6), 300)
    assert time.perf_counter() - start < 1.0


def test_fiber_rejects_bad_level():
    with pytest.raises(ValidationError):
        enumerate_fiber(diagonal_circle(2), 0)


@pytest.mark.parametrize("level", [2.5, 2.0, True])
def test_non_integer_levels_are_refused(level):
    # neither 2.5 nor True may stand for an integer level
    with pytest.raises(ValidationError, match="integer"):
        enumerate_fiber(diagonal_circle(3), level)
    with pytest.raises(ValidationError, match="integers"):
        enumerate_degree(3, level)
    with pytest.raises(ValidationError, match="integers"):
        enumerate_degree(level, 2)


ORDER_FIBERS = {name: (sub.weight_matrix, [enumerate_fiber(sub, k) for k in (1, 2, 4)])
                for name, sub in EXAMPLE_SUBTORI.items()}
ORDER_FIBERS |= {f"degree_{n}": (((1,) * n,), [enumerate_degree(n, k) for k in (1, 2, 4)]) for n in (2, 3, 4, 5)}


@pytest.mark.parametrize("name", sorted(ORDER_FIBERS))
def test_shifts_inside_a_fiber_keep_its_order(name):
    # hardy_sphere.assemble_block pairs the rows alpha with alpha + s >= 0, in
    # order, with the rows beta with beta - s >= 0; that needs every shift of
    # sum zero that stays in the fiber to keep the graded-lex order
    weights, fibers = ORDER_FIBERS[name]
    n = len(weights[0])
    shifts = [s for s in product(range(-2, 3), repeat=n)
              if sum(s) == 0 and all(sum(w * e for w, e in zip(row, s)) == 0 for row in weights)]
    assert len(shifts) > 1 or name in ("full_torus_12", "weighted_line")
    for fiber in fibers:
        rows = np.array(fiber, dtype=np.int64)
        for s in shifts:
            moved = rows[(rows + s >= 0).all(axis=1)] + s
            assert moved.tolist() == rows[(rows - s >= 0).all(axis=1)].tolist(), s


def test_polytope_vertices_weighted_segment():
    sub = SubtorusData(n=2, d=1, weight_matrix=((1, 2),), alpha=(2,))
    verts = fiber_polytope_vertices(sub)
    assert set(verts) == {(Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))}


def test_polytope_vertices_returns_a_new_list():
    # the exact solves are cached; a caller's edits must not reach the cache
    sub = diagonal_circle(3)
    verts = fiber_polytope_vertices(sub)
    verts.clear()
    assert len(fiber_polytope_vertices(sub)) == 3


def test_polytope_vertices_scale_with_level():
    sub = diagonal_circle(3)
    level1 = set(fiber_polytope_vertices(sub, level=1))
    level3 = set(fiber_polytope_vertices(sub, level=3))
    assert level3 == {tuple(3 * c for c in v) for v in level1}
