import time
from fractions import Fraction

import pytest

from toeplab import toric
from toeplab.errors import ValidationError
from toeplab.hardy_sphere import InvariantSymbol
from toeplab.inverse import (
    extrapolate_ray,
    loglog_slope,
    ray_levels,
    reconstruct,
    spectral_distinguishability,
)
from toeplab.multiindex import diagonal_circle, full_torus
from toeplab.toric import equivariant_spectrum

A1 = InvariantSymbol.coordinate(0, 2)
A2 = InvariantSymbol.coordinate(1, 2)


def circle_oracle(symbol):
    return lambda k: equivariant_spectrum(symbol, diagonal_circle(2), k)


def test_ray_levels():
    assert ray_levels(8, 64) == [8, 16, 32, 64]
    assert ray_levels(3, 64) == [3, 6, 15, 30, 63]
    assert ray_levels(16, 10) == []
    assert ray_levels(4, 20, spacing="all") == [4, 8, 12, 16, 20]
    with pytest.raises(ValidationError):
        ray_levels(0, 10)
    with pytest.raises(ValidationError):
        ray_levels(4, 20, spacing="dyadic")


def test_extrapolate_orders_sharpen_the_limit():
    ks = [8, 16, 32, 64]
    vals = [Fraction(k // 4 + 1, k + 2) for k in ks]  # -> 1/4
    devs = {}
    for order in (0, 1, 2, 3):
        res = extrapolate_ray(ks, vals, order)
        devs[order] = abs(res.limit - 0.25)
        assert not res.low_confidence
    assert devs[1] < devs[0] / 10
    assert devs[2] < devs[1] / 5
    assert devs[3] < devs[2] / 4
    # order 0 reports the last raw increment
    res0 = extrapolate_ray(ks, vals, 0)
    assert res0.limit == float(vals[-1])
    assert res0.error == pytest.approx(abs(float(vals[-1] - vals[-2])))


def test_extrapolate_flags_noise_amplification():
    res = extrapolate_ray([8, 16, 32, 64], [0.5, 0.5001, 0.49999, 0.50001], 3)
    assert res.low_confidence
    assert res.error > abs(0.50001 - 0.49999)


def test_extrapolate_sample_requirements():
    with pytest.raises(ValidationError):
        extrapolate_ray([8], [1.0], 0)
    with pytest.raises(ValidationError):
        extrapolate_ray([8, 16], [1.0, 2.0], 2)
    with pytest.raises(ValidationError):
        extrapolate_ray([8, 16], [1.0], 1)


def test_reconstruct_on_coordinate_symbol():
    calls = []
    base = circle_oracle(A1)

    def oracle(k):
        calls.append(k)
        return base(k)

    grid = [(0, 1), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))]
    rec = reconstruct(oracle, 2, grid, 64, order=1)
    assert len(calls) == len(set(calls)) == 7  # one spectrum per distinct level
    ray_half = rec.rays[1]
    # lambda is exactly 1/2 along the central ray
    assert ray_half.estimate == 0.5
    assert ray_half.error == 0.0
    assert not ray_half.low_confidence
    # worst point is (0, 1): residual 1/33 - 1/34 after one acceleration step
    assert rec.max_error(lambda p: p[0]) == pytest.approx(1 / 1122, rel=1e-12)


def test_reconstruct_order_zero_error():
    rec = reconstruct(circle_oracle(A1), 2, [(0, 1)], 64, order=0)
    # raw eigenvalue at the top level: 1/(64 + 2)
    assert rec.max_error(lambda p: p[0]) == pytest.approx(1 / 66, rel=1e-12)


def test_reconstruct_marks_unreachable_points_missing():
    rec = reconstruct(circle_oracle(A1), 2, [(Fraction(1, 16), Fraction(15, 16))], 20, order=1)
    assert rec.rays[0].missing
    assert rec.rays[0].ks == (16,)
    assert rec.rays[0].estimate is None
    with pytest.raises(ValidationError):
        rec.max_error(lambda p: p[0])


def test_reconstruct_rejects_off_simplex_points():
    with pytest.raises(ValidationError):
        reconstruct(circle_oracle(A1), 2, [(Fraction(1, 2), Fraction(1, 3))], 16)
    with pytest.raises(ValidationError):
        reconstruct(circle_oracle(A1), 2, [(Fraction(3, 2), Fraction(-1, 2))], 16)
    with pytest.raises(ValidationError):
        reconstruct(circle_oracle(A1), 2, [(1,)], 16)


@pytest.mark.parametrize("point", [5, "12", {0: 1, 1: 0}, (1, 0, 0)], ids=["scalar", "string", "dict", "three"])
def test_reconstruct_refuses_points_that_are_not_coordinate_lists(point):
    with pytest.raises(ValidationError, match=r"must be a list or tuple of 2 coordinates$"):
        reconstruct(circle_oracle(A1), 2, [point], 16)


# The three-coordinate ray symbol 1/2 + 2/3 a_1^2 + 1/5 a_2 a_3 of the benchmark's inverse run.
RAY_SYMBOL = InvariantSymbol.from_poly(
    [((0, 0, 0), Fraction(1, 2)), ((2, 0, 0), Fraction(2, 3)), ((0, 1, 1), Fraction(1, 5))], 3
)
RAY_GRID = [
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)),
    (Fraction(1, 12), Fraction(5, 6), Fraction(1, 12)),
]


def test_reconstruct_refuses_ray_reads_past_the_byte_limit_before_planning():
    # 3.3e11 levels on the one ray; the oracle is never called and no level list is built
    def no_oracle(k):
        raise AssertionError("a level was read")

    third = (Fraction(1, 3),) * 3
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match="bytes, over the 2147483648-byte limit") as info:
        reconstruct(no_oracle, 3, [third], 10**12, spacing="all")
    assert time.perf_counter() - t0 < 1.0
    assert info.value.operation == "inverse.reconstruct"
    # geometric spacing reads 39 levels of the same ray, well inside the limit
    rec = reconstruct(lambda k: equivariant_spectrum(InvariantSymbol.coordinate(0, 3), diagonal_circle(3), k),
                      3, [third], 10**12)
    assert len(rec.rays[0].ks) == 39


def test_reconstruct_reads_rays_without_fibers(monkeypatch):
    def no_fibers(sub, k):
        raise AssertionError(f"level {k} fiber enumerated")

    monkeypatch.setattr(toric, "enumerate_fiber", no_fibers)
    calls = []

    def oracle(k):
        calls.append(k)
        return equivariant_spectrum(RAY_SYMBOL, diagonal_circle(3), k)

    rec = reconstruct(oracle, 3, RAY_GRID, 36, order=4, spacing="all")
    # one spectrum per distinct level; the missing ray (denominator 12) reads none
    assert sorted(calls) == sorted(set(range(3, 37, 3)) | set(range(4, 37, 4)))
    assert [r.missing for r in rec.rays] == [False, False, False, True]


def test_reconstruct_bits_frozen():
    # exact Neville on Fraction eigenvalues: the floats are the rounded exact limits
    rec = reconstruct(lambda k: equivariant_spectrum(RAY_SYMBOL, diagonal_circle(3), k),
                      3, RAY_GRID, 36, order=4, spacing="all")
    got = [(r.estimate, r.error, r.low_confidence, r.missing) for r in rec.rays]
    assert repr(got) == (
        "[(0.5962970343615505, 4.428391525165719e-06, False, False), "
        "(0.6791661914523065, 3.1680957347156507e-06, False, False), "
        "(0.5518486197897963, 5.996182466770702e-06, False, False), "
        "(None, None, False, True)]"
    )
    assert rec.rays[0].ks == tuple(range(3, 37, 3))


def test_distinguishability_coordinate_swap():
    rep = spectral_distinguishability(circle_oracle(A1), circle_oracle(A2), 5)
    assert rep.first_labeled_difference == 1
    assert rep.first_multiset_difference is None
    assert rep.labeled_differ and not rep.multiset_differ
    js = rep.to_json()
    assert js["labeled_differ"] is True and js["multiset_differ"] is False


def test_distinguishability_identical_and_distinct():
    same = spectral_distinguishability(circle_oracle(A1), circle_oracle(A1), 5)
    assert not same.labeled_differ and not same.multiset_differ
    a1sq = InvariantSymbol.from_poly([((2, 0), 1)], 2)
    both = spectral_distinguishability(circle_oracle(A1), circle_oracle(a1sq), 5)
    assert both.first_labeled_difference == 1
    assert both.first_multiset_difference == 1


def test_distinguishability_same_operator_other_denominator():
    # a_1 (a_1 + a_2 + a_3) = a_1 on the simplex: the same operator, but
    # |gamma| = 2 puts its spectra over a different common denominator
    a1 = InvariantSymbol.coordinate(0, 3)
    a1_sum = InvariantSymbol.from_poly([((2, 0, 0), 1), ((1, 1, 0), 1), ((1, 0, 1), 1)], 3)
    sub = diagonal_circle(3)
    for k in (1, 6):
        sa, sb = equivariant_spectrum(a1, sub, k), equivariant_spectrum(a1_sum, sub, k)
        assert sa.denominator != sb.denominator
        exact = [[Fraction(x, s.denominator) for x in s.numerators] for s in (sa, sb)]
        assert exact[0] == exact[1]
    for tol in (1e-12, 0.0):
        rep = spectral_distinguishability(
            lambda k: equivariant_spectrum(a1, sub, k), lambda k: equivariant_spectrum(a1_sum, sub, k), 6, tol=tol
        )
        assert not rep.labeled_differ and not rep.multiset_differ


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-12, True, "1e-12", Fraction(1, 10**12)],
                         ids=["nan", "inf", "negative", "bool", "string", "fraction"])
def test_distinguishability_refuses_a_tol_that_is_not_a_finite_number(tol):
    # no gap exceeds NaN: a1 and a2 read as spectrally equal at every level
    with pytest.raises(ValidationError, match="tol must be a finite int or float >= 0"):
        spectral_distinguishability(circle_oracle(A1), circle_oracle(A2), 3, tol=tol)
    assert spectral_distinguishability(circle_oracle(A1), circle_oracle(A2), 3, tol=1e-12).first_labeled_difference == 1
    assert spectral_distinguishability(circle_oracle(A1), circle_oracle(A2), 3, tol=0).first_labeled_difference == 1


def test_distinguishability_enumerates_each_fiber_once(monkeypatch):
    # both oracles read the same subtorus level, so one enumeration serves the pair
    levels = []
    enumerate_fiber = toric.enumerate_fiber
    monkeypatch.setattr(toric, "enumerate_fiber", lambda sub, k: (levels.append(k), enumerate_fiber(sub, k))[1])
    toric._fiber.cache_clear()
    rep = spectral_distinguishability(circle_oracle(A1), circle_oracle(A2), 5)
    assert rep.first_multiset_difference is None  # so every level up to 5 was compared
    assert levels == [1, 2, 3, 4, 5]


def test_loglog_slope():
    xs = [1.0, 2.0, 4.0, 8.0]
    assert loglog_slope(xs, [3.0 / x**2 for x in xs]) == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(ValidationError):
        loglog_slope(xs, [1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        loglog_slope([1.0], [1.0])
    # one distinct x has no slope
    with pytest.raises(ValidationError):
        loglog_slope([16, 16], [1e-3, 2e-3])


def test_loglog_slope_refuses_a_zero_point():
    # zero passes the floor of 0 but has no logarithm
    for xs, ys in (([0.0, 1.0], [1.0, 2.0]), ([1.0, 2.0], [1.0, 0])):
        with pytest.raises(ValidationError, match="needs positive data"):
            loglog_slope(xs, ys)


def test_distinguishability_spectra_of_different_sizes_differ_as_multisets():
    # diagonal_circle(2) has k + 1 fiber points at level k, full_torus((1, 1)) one
    def on_point(k):
        return equivariant_spectrum(A1, full_torus((1, 1)), k)

    rep = spectral_distinguishability(circle_oracle(A1), on_point, 3)
    assert (rep.first_labeled_difference, rep.first_multiset_difference) == (1, 1)
