import json
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from toeplab.canonical_model import ModelIndex, QuadratureSpec, annihilation_residual
from toeplab.cli import main
from toeplab.errors import UnboundedFiberError, ValidationError
from toeplab.hardy_sphere import InvariantSymbol, SymbolPoly, assemble_block, invariant_eigenvalue, monomial_norm
from toeplab.inverse import extrapolate_ray, loglog_slope, ray_levels, reconstruct, spectral_distinguishability
from toeplab.multiindex import (
    SubtorusData,
    _check_int,
    _check_ints,
    _check_rational,
    _check_real,
    diagonal_circle,
    dimension_of_degree_space,
    enumerate_degree,
    enumerate_fiber,
    fiber_polytope_vertices,
    full_torus,
    grlex_key,
    recession_pointed,
)
from toeplab.reduction import (
    MAX_SAMPLES,
    c0_simplex_quad,
    c0_sphere_mc,
    mean_stderr,
    sample_sphere,
    sphere_sigma_volume,
)
from toeplab.spectral import TestFunction, fit_expansion, richardson_limit, scaled_measure
from toeplab.toric import EXAMPLE_SUBTORI, equivariant_spectrum, theorem2_leading


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


def test_subtorus_refuses_an_alpha_of_the_wrong_length():
    with pytest.raises(ValidationError, match=r"^alpha must be a list or tuple of length 1, got \(1, 2\)$"):
        SubtorusData(n=2, d=1, weight_matrix=((1, 1),), alpha=(1, 2))


def test_fiber_of_an_empty_level_polytope_is_empty():
    # x + y = -k has no solution x, y >= 0
    assert enumerate_fiber(SubtorusData(n=2, d=1, weight_matrix=((1, 1),), alpha=(-1,)), 3) == []


def test_subtorus_keeps_list_input_as_hashable_tuples():
    # the fiber and vertex caches key on the subtorus and its weight matrix
    sub = SubtorusData(n=2, d=1, weight_matrix=[[1, 2]], alpha=[2])
    assert (sub.weight_matrix, sub.alpha) == (((1, 2),), (2,))
    assert sub == SubtorusData(n=2, d=1, weight_matrix=((1, 2),), alpha=(2,))
    assert enumerate_fiber(sub, 1) == [(0, 1), (2, 0)]


def test_fiber_rejects_bad_level():
    with pytest.raises(ValidationError):
        enumerate_fiber(diagonal_circle(2), 0)


@pytest.mark.parametrize("level", [2.5, 2.0, True])
def test_non_integer_levels_are_refused(level):
    # neither 2.5 nor True may stand for an integer level
    with pytest.raises(ValidationError, match="integer"):
        enumerate_fiber(diagonal_circle(3), level)
    with pytest.raises(ValidationError, match="k must be an integer >= 0"):
        enumerate_degree(3, level)
    with pytest.raises(ValidationError, match="n must be an integer >= 1"):
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


def test_check_int_returns_the_int_and_names_what_it_refuses():
    assert _check_int(3, "k", 1, "op") == 3
    assert _check_int(2, "d", 1, "op", high=2) == 2
    with pytest.raises(ValidationError, match=r"^d must be an integer from 1 to 2, got 3$") as info:
        _check_int(3, "d", 1, "op", high=2)
    assert info.value.operation == "op"
    with pytest.raises(ValidationError, match=r"^k must be an integer >= 1, got True$"):
        _check_int(True, "k", 1, "op")
    with pytest.raises(ValidationError, match=r"^k must be an integer >= 1, got 2.5$"):
        _check_int(2.5, "k", 1, "op")
    # numpy integers stay refused, as _is_int refuses them
    with pytest.raises(ValidationError, match=r"^k must be an integer >= 1, got "):
        _check_int(np.int64(2), "k", 1, "op")


def test_check_int_without_a_floor_names_no_bounds():
    assert _check_int(-7, "m", None, "op") == -7
    with pytest.raises(ValidationError, match=r"^m must be an integer, got 2.5$"):
        _check_int(2.5, "m", None, "op")


def test_check_ints_returns_a_tuple_and_names_what_it_refuses():
    assert _check_ints([1, 2], "mu", 0, "op") == (1, 2)
    assert _check_ints((), "mu", 0, "op") == ()
    assert _check_ints((-1, 3), "alpha", None, "op", length=2) == (-1, 3)
    with pytest.raises(ValidationError, match=r"^mu must be a list or tuple of length 2, got \[1\]$") as info:
        _check_ints([1], "mu", 0, "op", length=2)
    assert info.value.operation == "op"
    # a string, a scalar, a range and an array are not read as integer lists
    for values in ("12", 5, range(2), np.array([1, 2])):
        with pytest.raises(ValidationError, match=r"^mu must be a list or tuple, got "):
            _check_ints(values, "mu", 0, "op")
    with pytest.raises(ValidationError, match=r"^mu must be an integer >= 0, got -1$"):
        _check_ints([1, -1], "mu", 0, "op")


def test_check_rational_returns_a_fraction_and_names_what_it_refuses():
    assert _check_rational("1/3", "c", "op") == Fraction(1, 3)
    assert _check_rational(" -2/4 ", "c", "op") == Fraction(-1, 2)
    assert _check_rational(0.1, "c", "op") == Fraction(0.1)  # the float's exact value
    assert _check_rational(np.float64(0.5), "c", "op") == Fraction(1, 2)  # a float subclass
    assert _check_rational(Fraction(2, 6), "c", "op") == Fraction(1, 3)
    assert _check_rational(10**400, "c", "op") == 10**400
    for value in (True, np.int64(2), float("inf"), "7" * 5000, "inf", Fraction):
        with pytest.raises(ValidationError, match=r"^c must be an int, finite float, Fraction or fraction string, got ") as info:
            _check_rational(value, "c", "op")
        assert info.value.operation == "op"


def test_check_real_returns_a_float_and_names_what_it_refuses():
    assert _check_real(3, "tol", "op", low=0) == 3.0 and isinstance(_check_real(3, "tol", "op"), float)
    assert _check_real(-1e308, "re", "op") == -1e308
    assert _check_real(np.float64(0.5), "re", "op") == 0.5  # a float subclass
    with pytest.raises(ValidationError, match=r"^tol must be a finite int or float >= 0, got -1$") as info:
        _check_real(-1, "tol", "op", low=0)
    assert info.value.operation == "op"
    with pytest.raises(ValidationError, match=r"^re must be a finite int or float, got nan$"):
        _check_real(float("nan"), "re", "op")
    with pytest.raises(ValidationError, match=r"^re must be a finite int or float, got "):
        _check_real(np.int64(2), "re", "op")


A1 = InvariantSymbol.coordinate(0, 2)
F_X = TestFunction.polynomial([0.0, 1.0])
SPECTRUM_3 = equivariant_spectrum(A1, diagonal_circle(2), 3)
HALF = [(Fraction(1, 2), Fraction(1, 2))]
FIT_SAMPLES = [(k, 1.0 + 1.0 / k) for k in (8, 16, 32, 64)]


def circle_spectrum(k):
    return equivariant_spectrum(A1, diagonal_circle(2), k)


# Every public integer argument, by "function.argument", "Class.method.argument"
# or "Class.field": a call with the value, the name _check_int gives it, and its
# bounds.  tests/test_hygiene.py fails on an integer argument of src/toeplab
# that neither this table nor MULTI_INDEX_ARGUMENTS has a row for.
INTEGER_ARGUMENTS = {
    "enumerate_degree.n": (lambda v: enumerate_degree(v, 2), "n", 1, None),
    "enumerate_degree.k": (lambda v: enumerate_degree(3, v), "k", 0, None),
    "SubtorusData.n": (lambda v: SubtorusData(n=v, d=1, weight_matrix=((1, 1),), alpha=(1,)), "n", 1, None),
    "SubtorusData.d": (lambda v: SubtorusData(n=2, d=v, weight_matrix=((1, 1),), alpha=(1,)), "d", 1, 2),
    "diagonal_circle.n": (diagonal_circle, "n", 1, None),
    "fiber_polytope_vertices.level": (lambda v: fiber_polytope_vertices(diagonal_circle(2), v), "level", 1, None),
    "enumerate_fiber.k": (lambda v: enumerate_fiber(diagonal_circle(2), v), "k", 1, None),
    "dimension_of_degree_space.n": (lambda v: dimension_of_degree_space(v, 3), "n", 1, None),
    "dimension_of_degree_space.k": (lambda v: dimension_of_degree_space(2, v), "k", 0, None),
    "monomial_norm.n": (lambda v: monomial_norm((1, 0), v), "n", 1, None),
    "InvariantSymbol.n": (lambda v: InvariantSymbol(n=v, poly=(((1, 0), Fraction(1)),)), "n", 1, None),
    "InvariantSymbol.from_poly.n": (lambda v: InvariantSymbol.from_poly([((1, 0), 1)], v), "n", 1, None),
    "InvariantSymbol.coordinate.i": (lambda v: InvariantSymbol.coordinate(v, 2), "i", 0, 1),
    "InvariantSymbol.coordinate.n": (lambda v: InvariantSymbol.coordinate(0, v), "n", 1, None),
    "assemble_block.n": (lambda v: assemble_block(A1.to_symbol_poly(), v, 2), "n", 1, None),
    "assemble_block.k": (lambda v: assemble_block(A1.to_symbol_poly(), 2, v), "k", 0, None),
    "equivariant_spectrum.k": (lambda v: equivariant_spectrum(A1, diagonal_circle(2), v), "k", 1, None),
    "theorem2_leading.samples": (lambda v: theorem2_leading(A1, F_X, diagonal_circle(2), samples=v),
                                 "samples", 10_000, MAX_SAMPLES),
    "theorem2_leading.seed": (lambda v: theorem2_leading(A1, F_X, diagonal_circle(2), samples=10_000, seed=v), "seed", 0, None),
    "theorem2_leading.batch_size": (lambda v: theorem2_leading(A1, F_X, diagonal_circle(2), samples=10_000, batch_size=v),
                                    "batch_size", 2, None),
    "sphere_sigma_volume.n": (sphere_sigma_volume, "n", 1, None),
    "sample_sphere.n": (lambda v: sample_sphere(v, 4, np.random.default_rng(0)), "n", 1, None),
    "mean_stderr.samples": (lambda v: mean_stderr([np.ones(2)], v), "samples", 2, None),
    "c0_sphere_mc.n": (lambda v: c0_sphere_mc(A1, F_X, v, samples=10_000), "n", 1, None),
    "c0_sphere_mc.samples": (lambda v: c0_sphere_mc(A1, F_X, 2, samples=v), "samples", 10_000, MAX_SAMPLES),
    "c0_sphere_mc.seed": (lambda v: c0_sphere_mc(A1, F_X, 2, samples=10_000, seed=v), "seed", 0, None),
    "c0_sphere_mc.batch_size": (lambda v: c0_sphere_mc(A1, F_X, 2, samples=10_000, batch_size=v), "batch_size", 2, None),
    "c0_simplex_quad.n": (lambda v: c0_simplex_quad(A1, F_X, v), "n", 1, None),
    "c0_simplex_quad.mesh": (lambda v: c0_simplex_quad(A1, F_X, 2, mesh=v), "mesh", 8, None),
    "scaled_measure.m": (lambda v: scaled_measure(3.0, v, 2), "m", 0, None),
    "scaled_measure.k": (lambda v: scaled_measure(3.0, 1, v), "k", 1, None),
    "fit_expansion.order": (lambda v: fit_expansion(FIT_SAMPLES, order=v), "order", 0, None),
    # a sample's level k, here the first of four
    "fit_expansion.samples": (lambda v: fit_expansion([(v, 1.0)] + FIT_SAMPLES[1:], order=0), "k", 1, None),
    "richardson_limit.order": (lambda v: richardson_limit([4, 8, 16], [1.0, 2.0, 3.0], v), "order", 0, None),
    "extrapolate_ray.order": (lambda v: extrapolate_ray([4, 8, 16], [1.0, 2.0, 3.0], v), "order", 0, None),
    "ray_levels.denominator": (lambda v: ray_levels(v, 10), "denominator", 1, None),
    "ray_levels.k_max": (lambda v: ray_levels(2, v), "k_max", 1, None),
    "reconstruct.n": (lambda v: reconstruct(circle_spectrum, v, HALF, 8), "n", 1, None),
    "reconstruct.k_max": (lambda v: reconstruct(circle_spectrum, 2, HALF, v), "k_max", 1, None),
    "reconstruct.order": (lambda v: reconstruct(circle_spectrum, 2, HALF, 8, order=v), "order", 0, None),
    "spectral_distinguishability.k_max": (lambda v: spectral_distinguishability(circle_spectrum, circle_spectrum, v),
                                          "k_max", 1, None),
    "ModelIndex.k_dim": (lambda v: ModelIndex(m=(1,), k_dim=v), "k_dim", 0, None),
    "QuadratureSpec.hermite_points": (lambda v: QuadratureSpec(hermite_points=v), "hermite_points", 2, None),
    "QuadratureSpec.fourier_points": (lambda v: QuadratureSpec(fourier_points=v), "fourier_points", 2, None),
}

# Every multi-index a caller passes, by the same keys: a call with one entry,
# the name the error gives the multi-index, and an entry's bounds (none for a
# level or frequency that may be any integer).
MULTI_INDEX_ARGUMENTS = {
    "full_torus.alpha": (lambda v: full_torus((v, 2)), "alpha", None, None),
    "monomial_norm.mu": (lambda v: monomial_norm((v, 0), 2), "mu", 0, None),
    "SymbolPoly.from_terms.terms": (lambda v: SymbolPoly.from_terms([((v, 0), (v, 0), 1.0)]), "exponents", 0, None),
    "InvariantSymbol.from_poly.terms": (lambda v: InvariantSymbol.from_poly([((v, 0), 1)], 2), "exponents", 0, None),
    "invariant_eigenvalue.alpha": (lambda v: invariant_eigenvalue(A1, (v, 1)), "alpha", 0, None),
    # the second entry keeps the truncated point on the level-3 fiber
    "EquivariantSpectrum.eigenvalues_of.betas": (lambda v: SPECTRUM_3.eigenvalues_of([(v, 3 - int(v))]), "beta", 0, None),
    "ModelIndex.m": (lambda v: ModelIndex(m=(v,), k_dim=1), "m", None, None),
    "SubtorusData.weight_matrix": (lambda v: SubtorusData(n=2, d=1, weight_matrix=((v, 1),), alpha=(1,)), "weights", None, None),
    "SubtorusData.alpha": (lambda v: SubtorusData(n=2, d=1, weight_matrix=((1, 1),), alpha=(v,)), "alpha", None, None),
    "richardson_limit.ks": (lambda v: richardson_limit([v, 8], [1.0, 2.0], 1), "ks", 1, None),
}

# The same sequence arguments, keyed alike: a call with the whole sequence (one
# weight row for a weight matrix, one point for a batch of points) and its name.
SEQUENCE_ARGUMENTS = {
    "full_torus.alpha": (full_torus, "alpha"),
    "monomial_norm.mu": (lambda v: monomial_norm(v, 2), "mu"),
    "SymbolPoly.from_terms.terms": (lambda v: SymbolPoly.from_terms([(v, (1, 0), 1.0)]), "exponents"),
    "InvariantSymbol.from_poly.terms": (lambda v: InvariantSymbol.from_poly([(v, 1)], 2), "exponents"),
    "invariant_eigenvalue.alpha": (lambda v: invariant_eigenvalue(A1, v), "alpha"),
    "EquivariantSpectrum.eigenvalues_of.betas": (lambda v: SPECTRUM_3.eigenvalues_of([v]), "beta"),
    "ModelIndex.m": (lambda v: ModelIndex(m=v, k_dim=1), "m"),
    "SubtorusData.weight_matrix": (lambda v: SubtorusData(n=2, d=1, weight_matrix=(v,), alpha=(1,)), "weights"),
    "SubtorusData.alpha": (lambda v: SubtorusData(n=2, d=1, weight_matrix=((1, 1),), alpha=v), "alpha"),
    "richardson_limit.ks": (lambda v: richardson_limit(v, [1.0, 2.0], 1), "ks"),
}

# Every exact rational a caller passes, by the same keys: a call with the value,
# the name _check_rational gives it, and values refused there besides the common ones.
RATIONAL_ARGUMENTS = {
    # a NaN or infinite coefficient is refused first, as not finite (test_hardy_sphere)
    "InvariantSymbol.from_poly.terms": (lambda v: InvariantSymbol.from_poly([((1, 0), v)], 2), "coefficient", []),
    "reconstruct.grid": (lambda v: reconstruct(circle_spectrum, 2, [(v, Fraction(1, 2))], 8), "grid coordinate",
                         [float("nan"), float("inf"), -float("inf")]),
}


# Every public real argument, by the same keys: a call with the value, the name
# _check_real gives it, and its floor (None when there is none).  tests/test_hygiene.py
# fails on a real-named argument of src/toeplab that has no row here.
REAL_ARGUMENTS = {
    "TestFunction.polynomial.coeffs": (lambda v: TestFunction.polynomial([0.0, v]), "coefficient", None),
    "spectral_distinguishability.tol": (lambda v: spectral_distinguishability(circle_spectrum, circle_spectrum, 2, tol=v),
                                        "tol", 0),
    "theorem2_leading.volume": (lambda v: theorem2_leading(A1, F_X, diagonal_circle(2), samples=10_000, volume=v),
                                "volume", 0),
    "SymbolPoly.from_json.re": (lambda v: SymbolPoly.from_json(
        {"terms": [{"gamma": [1, 0], "delta": [1, 0], "re": v, "im": 0.0}]}), "re", None),
    "SymbolPoly.from_json.im": (lambda v: SymbolPoly.from_json(
        {"terms": [{"gamma": [1, 0], "delta": [0, 1], "re": 1.0, "im": v}]}), "im", None),
    "loglog_slope.xs": (lambda v: loglog_slope([v, 2.0], [1.0, 2.0]), "xs", 0),
    "loglog_slope.ys": (lambda v: loglog_slope([1.0, 2.0], [v, 2.0]), "ys", 0),
    "annihilation_residual.step": (lambda v: annihilation_residual(ModelIndex(m=(1,), k_dim=1), (0.3,), (0.1,), step=v),
                                   "step", 0),
}


@pytest.mark.parametrize("key", sorted(REAL_ARGUMENTS))
def test_real_arguments_refuse_non_finite_bools_strings_and_values_below_the_floor(key):
    call, name, low = REAL_ARGUMENTS[key]
    for value in [float("nan"), float("inf"), -float("inf"), True, "1.5", 10**400] + ([] if low is None else [low - 1]):
        with pytest.raises(ValidationError) as info:
            call(value)
        assert f"{name} must be a finite int or float" in str(info.value) and f"got {value!r}" in str(info.value), value


@pytest.mark.parametrize("key", sorted(RATIONAL_ARGUMENTS))
def test_rational_arguments_refuse_bools_complex_unparsed_strings_and_lists(key):
    call, name, extra = RATIONAL_ARGUMENTS[key]
    for value in [True, None, 1 + 2j, "x", "1/0", "nan", [1]] + extra:
        with pytest.raises(ValidationError) as info:
            call(value)
        message = str(info.value)
        assert f"{name} must be an int, finite float, Fraction or fraction string" in message, value
        assert f"got {value!r}" in message, value


def _refused_values(low, high):
    """2.5, 2.0, True, and where there are bounds the float at the lower bound,
    a float just above it and the ints just outside them."""
    values = [2.5, 2.0, True]
    if low is not None:
        values += [float(low), low + 0.5, low - 1]
    if high is not None:
        values.append(high + 1)
    return values


@pytest.mark.parametrize("key", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_floats_bools_and_out_of_range(key):
    call, name, low, high = INTEGER_ARGUMENTS[key]
    for value in _refused_values(low, high):
        with pytest.raises(ValidationError) as info:
            call(value)
        assert f"{name} must be an integer" in str(info.value) and f"got {value!r}" in str(info.value), value


@pytest.mark.parametrize("key", sorted(MULTI_INDEX_ARGUMENTS))
def test_multi_index_entries_refuse_floats_bools_and_out_of_range(key):
    call, name, low, high = MULTI_INDEX_ARGUMENTS[key]
    for value in _refused_values(low, high):
        with pytest.raises(ValidationError) as info:
            call(value)
        assert f"{name} must be an integer" in str(info.value) and f"got {value!r}" in str(info.value), value


def test_every_multi_index_argument_has_a_sequence_row():
    assert sorted(SEQUENCE_ARGUMENTS) == sorted(MULTI_INDEX_ARGUMENTS)


@pytest.mark.parametrize("key", sorted(SEQUENCE_ARGUMENTS))
def test_sequence_arguments_refuse_scalars_and_strings(key):
    call, name = SEQUENCE_ARGUMENTS[key]
    for value in (5, "12"):
        with pytest.raises(ValidationError) as info:
            call(value)
        assert f"{name} must be a list or tuple" in str(info.value) and f"got {value!r}" in str(info.value), value
