import random
import tracemalloc
from fractions import Fraction
from math import factorial, lcm, pi, prod

import numpy as np
import pytest

from toeplab import reduction, toric
from toeplab._exact import integer_nullspace
from toeplab.errors import (
    RegularityError,
    SamplerEfficiencyError,
    ToeplabError,
    UnboundedFiberError,
    ValidationError,
)
from toeplab.hardy_sphere import InvariantSymbol, _invariant_numerators, monomial_norm
from toeplab.multiindex import SubtorusData, diagonal_circle, enumerate_fiber, full_torus, recession_pointed
from toeplab.reduction import _pieces, mean_stderr, sphere_sigma_volume
from toeplab.spectral import TestFunction
from toeplab.toric import (
    EXAMPLE_SUBTORI,
    equivariant_spectrum,
    fiber_measure,
    fiber_measure_series,
    fiber_volume,
    regular_free_check,
    theorem2_leading,
)

F_ONE = TestFunction.polynomial([1.0])
F_X = TestFunction.polynomial([0.0, 1.0])
F_X2 = TestFunction.polynomial([0.0, 0.0, 1.0])
A1_2 = InvariantSymbol.coordinate(0, 2)


def exact(spec):
    """The spectrum's eigenvalues as Fractions, fiber order."""
    return tuple(Fraction(num, spec.denominator) for num in spec.numerators)


def test_spectrum_diagonal_circle():
    spec = equivariant_spectrum(A1_2, diagonal_circle(2), 2)
    assert spec.count == 3
    assert exact(spec) == (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
    assert spec.eigenvalue_of((1, 1)) == Fraction(1, 2)
    with pytest.raises(ValidationError):
        spec.eigenvalue_of((5, 5))


def test_spectrum_product_of_lines():
    sub = EXAMPLE_SUBTORI["product_of_lines"]
    spec = equivariant_spectrum(InvariantSymbol.coordinate(0, 4), sub, 1)
    # beta1 in {0,1}, twice each; |beta| = 2 so lambda = (beta1+1)/6
    assert spec.count == 4
    assert sorted(exact(spec)) == [Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3)]


def _oracle_eigenvalue(symbol, beta):
    """sum_gamma c_gamma h(beta+gamma) / h(beta) from the monomial norms."""
    n = symbol.n
    h = monomial_norm(beta, n)
    return sum(c * monomial_norm([b + g for b, g in zip(beta, gamma)], n) / h for gamma, c in symbol.poly)


def _check_against_oracle(symbol, sub, k):
    spec = equivariant_spectrum(symbol, sub, k)
    fiber = enumerate_fiber(sub, k)
    oracle = [_oracle_eigenvalue(symbol, beta) for beta in fiber]
    assert list(spec.fiber) == fiber
    assert exact(spec) == tuple(oracle)
    assert spec.eigenvalues.tolist() == [float(x) for x in oracle]
    assert all(spec.eigenvalue_of(beta) == x for beta, x in zip(fiber, oracle))
    return spec


@pytest.mark.parametrize("name", sorted(EXAMPLE_SUBTORI))
def test_spectrum_matches_norm_ratio_oracle(name):
    sub = EXAMPLE_SUBTORI[name]
    n = sub.n
    e = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    # coefficient denominators 6, 4, 7 and 9; |gamma| from 0 to 3
    symbol = InvariantSymbol.from_poly(
        [
            ((0,) * n, Fraction(1, 6)),
            (e[0], Fraction(3, 4)),
            (tuple(2 * a + b for a, b in zip(e[-1], e[0])), Fraction(-5, 7)),
            (tuple(a + b for a, b in zip(e[0], e[-1])), Fraction(2, 9)),
        ],
        n,
    )
    mixed = False
    for k in (1, 4, 9):
        fiber = enumerate_fiber(sub, k)
        off_fiber = (fiber[0][0] + 1,) + fiber[0][1:]  # every example weighs coordinate 0
        spec = equivariant_spectrum(symbol, sub, k)
        with pytest.raises(ValidationError):
            spec.eigenvalue_of(off_fiber)  # before the table exists
        spec = _check_against_oracle(symbol, sub, k)
        with pytest.raises(ValidationError):
            spec.eigenvalue_of(off_fiber)  # and after
        # one batch over the whole fiber, mixed degrees included, gives the table's values
        assert spec.eigenvalues_of(fiber) == [Fraction(num, spec.denominator) for num in spec.numerators]
        mixed |= len({sum(beta) for beta in spec.fiber}) > 1
    # only the weighted line mixes degrees within one fiber
    assert mixed == (name == "weighted_line")


def invariant_numerators_padded(symbol, points):
    """_invariant_numerators as it was before it scaled each term once: every
    term padded to the top degree G one unit at a time, then each row rescaled
    by M / D(b) when the points hold more than one degree."""
    n = symbol.n
    pts = np.array(points, dtype=object)
    if len(pts) == 0:
        pts = pts.reshape(0, n)
    G = max((sum(g) for g, _ in symbol.poly), default=0)
    L = lcm(*(c.denominator for _, c in symbol.poly))
    coeffs = [c.numerator * (L // c.denominator) for _, c in symbol.poly]
    base = pts.sum(axis=1) + (n - 1)
    degrees = sorted(set(base.tolist()))
    dens = [prod(b + s for s in range(1, G + 1)) for b in degrees]
    M = lcm(*dens)
    total = np.zeros(len(pts), dtype=object)
    for (gamma, _), c in zip(symbol.poly, coeffs):
        term = np.full(len(pts), c, dtype=object)
        for i, e in enumerate(gamma):
            for t in range(1, e + 1):
                term *= pts[:, i] + t
        for s in range(sum(gamma) + 1, G + 1):
            term *= base + s
        total += term
    if len(dens) > 1:
        scale = {b: M // den for b, den in zip(degrees, dens)}
        total *= np.array([scale[b] for b in base.tolist()], dtype=object)
    return tuple(total.tolist()), L * M


@pytest.mark.parametrize("name", sorted(EXAMPLE_SUBTORI))
def test_invariant_numerators_match_the_padded_formula(name):
    # seeded symbols of 1 to 4 terms, exponents 0 to 3, on every fiber for k = 1..12
    # (weighted_line's mix degrees), on no point, and one case in five on keys past int64
    sub = EXAMPLE_SUBTORI[name]
    n = sub.n
    rng = random.Random(f"numerators {name}")
    for case in range(80):
        symbol = InvariantSymbol.from_poly(
            [(tuple(rng.randint(0, 3) for _ in range(n)), Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 360)))
             for _ in range(rng.randint(1, 4))],
            n,
        )
        if case % 5 == 4:
            points = [tuple(rng.randrange(2**70) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        else:
            points = enumerate_fiber(sub, case % 12 + 1)
        want = invariant_numerators_padded(symbol, points)
        assert _invariant_numerators(symbol, points) == want
        assert all(type(v) is int for v in want[0])
        # no point: no degree, so M = 1 and the denominator is L alone
        L = lcm(*(c.denominator for _, c in symbol.poly))
        assert _invariant_numerators(symbol, []) == invariant_numerators_padded(symbol, []) == ((), L)


@pytest.mark.parametrize("name", sorted(EXAMPLE_SUBTORI))
def test_eigenvalues_are_the_correctly_rounded_quotients(name):
    # numerators past the float range still round as one exact division
    sub = EXAMPLE_SUBTORI[name]
    n = sub.n
    symbol = InvariantSymbol.from_poly([((3,) + (0,) * (n - 1), Fraction(10**307, 7)), ((0,) * (n - 1) + (2,), Fraction(-1, 3))], n)
    for k in (1, 7, 12):
        spec = equivariant_spectrum(symbol, sub, k)
        got = spec.eigenvalues
        want = np.array([num / spec.denominator for num in spec.numerators])  # the floats the table once held
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert got.tolist() == [float(Fraction(num, spec.denominator)) for num in spec.numerators]
        assert spec.count == len(spec.fiber) == len(got)
    assert max(abs(num) for num in spec.numerators) > 2**1024


def test_spectrum_beyond_int64():
    symbol = InvariantSymbol.from_poly([((4, 2), Fraction(10**20, 7)), ((0, 1), Fraction(1, 3))], 2)
    spec = _check_against_oracle(symbol, diagonal_circle(2), 60)
    assert max(abs(x) for x in spec.numerators) > 2**63


def test_spectrum_validation():
    with pytest.raises(ValidationError):
        equivariant_spectrum(A1_2, diagonal_circle(3), 2)
    # the table is built lazily, but a bad level or an unbounded fiber still fails at the call
    with pytest.raises(ValidationError):
        equivariant_spectrum(A1_2, diagonal_circle(2), 0)
    with pytest.raises(UnboundedFiberError):
        equivariant_spectrum(A1_2, SubtorusData(n=2, d=1, weight_matrix=((1, -1),), alpha=(1,)), 1)


@pytest.mark.parametrize("level", [2.5, 2.0, True])
def test_spectrum_refuses_non_integer_levels(level):
    # neither 2.5 nor True may stand for an integer level
    with pytest.raises(ValidationError, match="integer"):
        equivariant_spectrum(InvariantSymbol.coordinate(0, 3), diagonal_circle(3), level)


def test_fiber_measures():
    spec = equivariant_spectrum(A1_2, diagonal_circle(2), 2)
    assert fiber_measure(spec, F_X) == pytest.approx(1.5)
    assert fiber_measure(spec, F_X2) == pytest.approx(0.875)
    assert fiber_measure(spec, F_ONE) == 3.0


def test_fiber_measure_series():
    rows = fiber_measure_series(A1_2, F_X, diagonal_circle(2), [10])
    (k, count, mu, scaled) = rows[0]
    assert (k, count) == (10, 11)
    assert mu == pytest.approx(5.5)
    assert scaled == pytest.approx(1.1 * pi)


@pytest.mark.parametrize(
    "name,target",
    [
        ("diagonal_circle_2", 2 * pi),
        ("diagonal_circle_3", 2 * pi**2),
        ("product_of_lines", 4 * pi**2),
        ("weighted_line", 2 * pi),
        ("full_torus_12", 1.0),
    ],
)
def test_fiber_volume_examples(name, target):
    assert fiber_volume(EXAMPLE_SUBTORI[name]) == pytest.approx(target, rel=1e-13)


@pytest.mark.parametrize("n", [4, 5])
def test_fiber_volume_default_window_high_codimension(n):
    # m = n - d = 3, 4: the exact volume takes m + 2 fiber counts at k = 1..m+2
    m = n - 1
    assert fiber_volume(diagonal_circle(n)) == pytest.approx((2 * pi) ** m / factorial(m), rel=1e-9)


@pytest.mark.parametrize("n", range(1, 9))
def test_fiber_volume_is_sphere_volume(n):
    # C(k+n-1, n-1) / k^(n-1) is a polynomial in 1/k, so the limit is exact
    assert fiber_volume(diagonal_circle(n)) == pytest.approx(sphere_sigma_volume(n), rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "weights,target",
    [
        # vertices (1/2, 0) and (0, 1/3): lattice points only every sixth k
        ((2, 3), 2 * pi / 6),
        # vertices (1/2, 0) and (0, 1/2): odd levels are empty
        ((2, 2), pi),
    ],
)
def test_fiber_volume_rational_vertices(weights, target):
    sub = SubtorusData(n=2, d=1, weight_matrix=(weights,), alpha=(1,))
    assert fiber_volume(sub) == pytest.approx(target, rel=1e-14, abs=0)


# frozen bits: every exact volume is one Fraction, however the counts are read
FIBER_VOLUME_REPRS = {
    "diagonal_circle_2": "6.283185307179586",
    "diagonal_circle_3": "19.739208802178716",
    "product_of_lines": "39.47841760435743",
    "weighted_line": "6.283185307179586",
    "full_torus_12": "1.0",
    2: "6.283185307179586",
    3: "19.739208802178716",
    4: "41.341702240399755",
    5: "64.93939402266828",
    6: "81.60524927607504",
}


@pytest.mark.parametrize("key", FIBER_VOLUME_REPRS)
def test_fiber_volume_bits_frozen(key):
    sub = EXAMPLE_SUBTORI[key] if isinstance(key, str) else diagonal_circle(key)
    assert repr(fiber_volume(sub)) == FIBER_VOLUME_REPRS[key]


def test_fiber_volume_point_fiber_is_one():
    assert fiber_volume(EXAMPLE_SUBTORI["full_torus_12"]) == 1.0


def test_fiber_volume_certificate_refuses_non_polynomial_counts(monkeypatch):
    # counts k^2 at k = 1, 2, 3 cannot come from a degree-1 Ehrhart polynomial
    monkeypatch.setattr(toric, "enumerate_fiber", lambda sub, k: [(0, 0)] * (k * k))
    with pytest.raises(ToeplabError, match="not a polynomial of degree 1"):
        fiber_volume(diagonal_circle(2))


def test_fiber_volume_validation():
    unbounded = SubtorusData(n=2, d=1, weight_matrix=((1, -1),), alpha=(1,))
    with pytest.raises(UnboundedFiberError):
        fiber_volume(unbounded)


def test_regular_free_pass():
    for name in ("diagonal_circle_2", "diagonal_circle_3", "product_of_lines", "full_torus_12"):
        rep = regular_free_check(EXAMPLE_SUBTORI[name])
        assert rep.ok, name
        assert all(v.minor == 1 for v in rep.vertices)


def test_regular_free_weighted_line_fails():
    rep = regular_free_check(EXAMPLE_SUBTORI["weighted_line"])
    assert not rep.ok
    bad = [v for v in rep.vertices if not v.free]
    assert len(bad) == 1
    assert bad[0].vertex == (Fraction(0), Fraction(1))
    assert bad[0].minor == 2
    assert "minor 2" in rep.message
    js = rep.to_json()
    assert js["ok"] is False and len(js["vertices"]) == 2


def test_regular_free_degenerate_vertex():
    sub = SubtorusData(n=3, d=2, weight_matrix=((1, 0, 1), (0, 1, 1)), alpha=(1, 1))
    rep = regular_free_check(sub)
    assert not rep.ok
    degenerate = [v for v in rep.vertices if v.minor is None]
    assert len(degenerate) == 1
    assert degenerate[0].support == (2,)
    assert "degenerate" in rep.message


def test_theorem2_point_fiber():
    est, se = theorem2_leading(A1_2, F_X, EXAMPLE_SUBTORI["full_torus_12"])
    # single point a = (1, 2) normalizes to (1/3, 2/3)
    assert est == pytest.approx(1 / 3, abs=1e-15)
    assert se == 0.0


def test_theorem2_diagonal_circle():
    est, se = theorem2_leading(A1_2, F_X, diagonal_circle(2), samples=50_000, seed=2)
    assert abs(est - pi) < 3 * se
    est, se = theorem2_leading(A1_2, F_X2, diagonal_circle(2), samples=50_000, seed=2)
    assert abs(est - 2 * pi / 3) < 3 * se


def test_theorem2_product_of_lines():
    sym = InvariantSymbol.from_poly([((1, 0, 0, 0), 1), ((0, 0, 1, 0), 1)], 4)
    est, se = theorem2_leading(sym, F_X, EXAMPLE_SUBTORI["product_of_lines"], samples=50_000, seed=2)
    # (a1 + a3)/(a1+a2+a3+a4) has mean 1/2 on the product of segments
    assert abs(est - 2 * pi**2) < 3 * se


def test_theorem2_bits_frozen():
    # exact output of the rejection sampler's per-batch accumulator: about
    # half of each 8k batch lands in the triangle, the last one truncated
    sym = InvariantSymbol.from_poly([((2, 0, 0), 1), ((0, 1, 1), Fraction(1, 2))], 3)
    # pinned volume: the exact 19.739208802178716 would move the last digits
    sub = EXAMPLE_SUBTORI["diagonal_circle_3"]
    got = theorem2_leading(sym, F_X2, sub, samples=20_000, seed=3, batch_size=8_000, volume=19.73920880217942)
    assert repr(got) == "(1.5242817736039487, 0.018769385565002197)"
    default = theorem2_leading(sym, F_X2, sub, samples=20_000, seed=3, batch_size=8_000)
    assert default == theorem2_leading(
        sym, F_X2, sub, samples=20_000, seed=3, batch_size=8_000, volume=fiber_volume(diagonal_circle(3))
    )


def test_theorem2_bits_frozen_codimension_3():
    # m = 3 rejection sampling from the 3-cube of the nullspace chart, with
    # volume 1 so the raw mean and stderr are pinned
    sym = InvariantSymbol.from_poly([((1, 0, 0, 0), 1), ((0, 1, 1, 0), Fraction(1, 2)), ((0, 0, 0, 2), 3)], 4)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = theorem2_leading(sym, f, diagonal_circle(4), samples=20_000, seed=5, batch_size=7_000, volume=1.0)
    assert repr(got) == "(0.6116171236590769, 0.007434574744366973)"


def test_theorem2_bits_frozen_across_product_pieces():
    # each 40,000-point batch maps its draws to the polytope in pieces of
    # 16,384, 16,384 and 7,232 rows, which keep the bits of one product
    sym = InvariantSymbol.from_poly([((1, 0, 0, 0), 1), ((0, 1, 1, 0), Fraction(1, 2)), ((0, 0, 0, 2), 3)], 4)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = theorem2_leading(sym, f, diagonal_circle(4), samples=60_000, seed=5, batch_size=40_000, volume=1.0)
    assert repr(got) == "(0.618227844715344, 0.004298816173512156)"


def test_theorem2_bits_frozen_product_of_lines():
    # m = 2 and every draw lands in the product of segments: one whole
    # 100,000-point batch, then one truncated to 50,000
    sym = InvariantSymbol.from_poly([((1, 0, 0, 0), 1), ((0, 1, 1, 0), Fraction(1, 2)), ((0, 0, 0, 2), 3)], 4)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = theorem2_leading(sym, f, EXAMPLE_SUBTORI["product_of_lines"], samples=150_000, seed=7, volume=1.0)
    assert repr(got) == "(0.4003859592549406, 0.0009300590932317884)"


def _whole_batch_sampler(symbol, f, sub, samples, seed, batch_size):
    """The rejection sampler as it was before pieces: each batch drawn, scaled,
    tested and indexed whole; returns the raw (mean, stderr)."""
    verts = [r.vertex for r in regular_free_check(sub).vertices]
    m = sub.n - sub.d
    basis = integer_nullspace([list(row) for row in sub.weight_matrix])
    ys = toric._vertex_y_coordinates(verts, basis, verts[0])
    lo_f = np.array([float(min(y[j] for y in ys)) for j in range(m)])
    span_f = np.array([float(max(y[j] for y in ys)) for j in range(m)]) - lo_f
    chart = np.array([[float(basis[j][i]) for j in range(m)] for i in range(sub.n)])
    a0_f = np.array([float(c) for c in verts[0]])
    rng = np.random.default_rng(seed)

    def batches():
        accepted = 0
        while accepted < samples:
            y = rng.random((batch_size, m))
            y *= span_f
            y += lo_f
            pts = np.empty((batch_size, sub.n))
            for start, stop in _pieces(batch_size):
                np.matmul(y[start:stop], chart.T, out=pts[start:stop])
            pts += a0_f
            keep = pts[np.all(pts >= 0.0, axis=1)][: samples - accepted]
            if len(keep):
                keep /= keep.sum(axis=1, keepdims=True)
                yield f(symbol.eval_array(keep))
                accepted += len(keep)

    return mean_stderr(batches(), samples)


@pytest.mark.parametrize("batch_size", [3_000, 16_383, 16_384, 16_385, 40_000])
@pytest.mark.parametrize(
    "sub",
    [diagonal_circle(3), diagonal_circle(4), EXAMPLE_SUBTORI["product_of_lines"]],
    ids=["diagonal_circle_3", "diagonal_circle_4", "product_of_lines"],
)
def test_theorem2_pieces_keep_the_bits_of_whole_batches(sub, batch_size):
    # batches below, at and past one 16,384-row piece, and a last batch
    # truncated mid-way: the per-piece draws are the whole batch's stream
    gammas = [tuple(int(j in idx) for j in range(sub.n)) for idx in ((0,), (1, 2), (2,))]
    sym = InvariantSymbol.from_poly(list(zip(gammas, [1, Fraction(1, 2), 3])), sub.n)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = theorem2_leading(sym, f, sub, samples=12_345, seed=11, batch_size=batch_size, volume=1.0)
    assert repr(got) == repr(_whole_batch_sampler(sym, f, sub, 12_345, 11, batch_size))


def test_theorem2_peak_memory_is_a_few_pieces():
    # diagonal_circle_4 keeps a sixth of its draws; a whole 100,000-point
    # batch of draws and points alone would take 5.3 MiB
    tracemalloc.start()
    try:
        theorem2_leading(InvariantSymbol.coordinate(0, 4), F_X, diagonal_circle(4), samples=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_theorem2_peak_memory_keeps_one_join_of_kept_rows():
    # product_of_lines keeps every draw, so each dead copy of a 100,000-row
    # batch of points, values or squares would add 0.8 to 3.1 MiB
    sub = EXAMPLE_SUBTORI["product_of_lines"]
    run = lambda: theorem2_leading(InvariantSymbol.coordinate(0, sub.n), F_X, sub, samples=200_000)
    run()  # warm: the fiber volume and first-call allocations are not the sampler's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def _peak_of_product_of_lines(batch_size):
    """tracemalloc peak of 200,000 samples on product_of_lines, after a warm call."""
    sub = EXAMPLE_SUBTORI["product_of_lines"]
    run = lambda: theorem2_leading(InvariantSymbol.coordinate(0, sub.n), F_X, sub, samples=200_000, batch_size=batch_size)
    run()  # warm: the fiber volume and first-call allocations are not the sampler's
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theorem2_peak_memory_is_one_value_buffer():
    # every draw is kept, so joining a batch's kept rows held two copies of
    # its 100,000 x 4 points: 6.1 MiB; its values and one piece take 2.0 MiB
    assert _peak_of_product_of_lines(100_000) < 3.5 * 2**20


def test_theorem2_batch_costs_one_value_per_row():
    # 200,000 samples in one batch of 400,000 instead of two of 100,000:
    # the value buffer grows by 100,000 values and the pieces stay the same
    assert _peak_of_product_of_lines(400_000) - _peak_of_product_of_lines(100_000) <= 400_000 * 8 * 1.25


def test_theorem2_last_batch_stops_once_full(monkeypatch):
    # the second 100,000-draw batch needs 50,000 rows: four 16,384-row pieces
    make_rng = np.random.default_rng
    drawn = []

    class CountingRng:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def random(self, shape):
            drawn.append(shape[0])
            return self.rng.random(shape)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    sym = InvariantSymbol.from_poly([((1, 0, 0, 0), 1), ((0, 1, 1, 0), Fraction(1, 2)), ((0, 0, 0, 2), 3)], 4)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = theorem2_leading(sym, f, EXAMPLE_SUBTORI["product_of_lines"], samples=150_000, seed=7, volume=1.0)
    assert repr(got) == "(0.4003859592549406, 0.0009300590932317884)"
    assert sum(drawn) == 100_000 + 4 * 16_384


def _joined_piece_batches(symbol, f, sub, samples, seed, batch_size):
    """The sampler's batches as they were before per-piece evaluation: each
    piece kept its rows, and the batch joined, truncated, normalized and
    evaluated them at once."""
    verts = [r.vertex for r in regular_free_check(sub).vertices]
    m = sub.n - sub.d
    basis = integer_nullspace([list(row) for row in sub.weight_matrix])
    ys = toric._vertex_y_coordinates(verts, basis, verts[0])
    lo_f = np.array([float(min(y[j] for y in ys)) for j in range(m)])
    span_f = np.array([float(max(y[j] for y in ys)) for j in range(m)]) - lo_f
    chart = np.array([[float(basis[j][i]) for j in range(m)] for i in range(sub.n)])
    a0_f = np.array([float(c) for c in verts[0]])
    rng = np.random.default_rng(seed)
    accepted = 0
    while accepted < samples:
        kept = []
        for start, stop in _pieces(batch_size):
            y = rng.random((stop - start, m))
            for col, span, low in zip(y.T, span_f, lo_f):
                col *= span
                col += low
            pts = y @ chart.T
            inside = np.ones(stop - start, dtype=bool)
            for col, shift in zip(pts.T, a0_f):
                col += shift
                inside &= col >= 0.0
            kept.append(np.compress(inside, pts, axis=0))
        keep = np.concatenate(kept)[: samples - accepted]
        if len(keep):
            norm = keep.sum(axis=1)
            for col in keep.T:
                col /= norm
            yield f(symbol.eval_array(keep))
            accepted += len(keep)


_SAMPLED = {
    **{name: sub for name, sub in EXAMPLE_SUBTORI.items() if regular_free_check(sub).ok and sub.n > sub.d},
    **{f"diagonal_circle_{n}": diagonal_circle(n) for n in range(2, 6)},  # 2 and 3 are examples too
}


@pytest.mark.parametrize("batch_size", [5_000, 16_384, 40_000])
@pytest.mark.parametrize("name", sorted(_SAMPLED))
def test_theorem2_values_match_the_joined_batches(monkeypatch, name, batch_size):
    # batches below, equal to and not a multiple of one 16,384-row piece;
    # 12,345 samples truncate the last batch mid-way
    sub = _SAMPLED[name]
    gammas = [tuple(int(j in idx) for j in range(sub.n)) for idx in ((0,), (1, sub.n - 1), (sub.n - 1,))]
    sym = InvariantSymbol.from_poly(list(zip(gammas, [1, Fraction(1, 2), 3])), sub.n)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    handed = []

    def capture(batches, samples):
        handed.extend(b.copy() for b in batches)
        return 0.0, 0.0

    monkeypatch.setattr(reduction, "mean_stderr", capture)
    theorem2_leading(sym, f, sub, samples=12_345, seed=13, batch_size=batch_size, volume=1.0)
    want = list(_joined_piece_batches(sym, f, sub, 12_345, 13, batch_size))
    assert [b.tobytes() for b in handed] == [b.tobytes() for b in want]


@pytest.mark.parametrize("batch_size", [0, -1, 1])
def test_theorem2_rejects_empty_batches(batch_size):
    # a zero-size batch never moves the acceptance guard, so the loop would never end;
    # a batch of one is refused as in c0_sphere_mc, one loop serving both
    with pytest.raises(ValidationError, match="batch_size"):
        theorem2_leading(A1_2, F_X, diagonal_circle(2), samples=10_000, batch_size=batch_size)


def test_theorem2_refuses_oversized_batch_before_drawing(monkeypatch):
    sub = EXAMPLE_SUBTORI["product_of_lines"]
    a1 = InvariantSymbol.coordinate(0, sub.n)
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew points"))
        with pytest.raises(ValidationError, match="bytes"):
            theorem2_leading(a1, F_X, sub, samples=2**40, batch_size=2**40)
    # only min(batch_size, samples) values are ever held: this batch was refused for 8 * (m + 2n) bytes a row
    got = theorem2_leading(a1, F_X, sub, samples=10_000, batch_size=2**40)
    assert repr(got) == repr(theorem2_leading(a1, F_X, sub, samples=10_000, batch_size=10_000))


def test_theorem2_holds_a_batch_of_one_gibibyte(monkeypatch):
    # 2**27 values at 10**8 samples take 1 GiB; they were refused for 10,737,418,240 bytes
    runs = []
    monkeypatch.setattr(toric, "_monte_carlo", lambda draw, volume, *run: runs.append(run) or (0.0, 0.0))
    sub = EXAMPLE_SUBTORI["product_of_lines"]
    theorem2_leading(InvariantSymbol.coordinate(0, sub.n), F_X, sub, samples=10**8, batch_size=2**27, volume=1.0)
    assert runs == [(10**8, 0, 2**27, "toric.theorem2_leading")]


def test_theorem2_efficiency_guard_fires_at_a_piece(monkeypatch):
    # one batch past the sample count on a simplex that fills ~1/8! of its box: the guard
    # stops it after the first four pieces, not after some 3.3e8 draws once it fills
    make_rng = np.random.default_rng
    drawn = []

    class CountingRng:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def random(self, shape):
            drawn.append(shape[0])
            return self.rng.random(shape)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    with pytest.raises(SamplerEfficiencyError, match="acceptance rate"):
        theorem2_leading(InvariantSymbol.coordinate(0, 9), F_X, diagonal_circle(9), samples=10_000,
                         batch_size=2**40, volume=1.0)
    assert drawn == [16_384] * 4


def test_theorem2_refused_sampler_never_computes_the_volume(monkeypatch):
    # the volume is read once the mean is known: at m = 10 its fiber counts take 3 s and
    # about 340 MB more peak RSS, before a sampler the guard refuses after 0.1 s
    monkeypatch.setattr(toric, "fiber_volume", lambda sub: pytest.fail("computed the volume"))
    with pytest.raises(SamplerEfficiencyError):
        theorem2_leading(InvariantSymbol.coordinate(0, 11), F_X, diagonal_circle(11), samples=10_000)


def test_theorem2_batches_share_one_value_buffer(monkeypatch):
    # product_of_lines keeps every draw: 25,000 samples in batches of 10,000 are three views of one buffer
    handed = []

    def capture(batches, samples):
        handed.extend(batches)
        return 0.0, 0.0

    monkeypatch.setattr(reduction, "mean_stderr", capture)
    sub = EXAMPLE_SUBTORI["product_of_lines"]
    theorem2_leading(InvariantSymbol.coordinate(0, sub.n), F_X, sub, samples=25_000, batch_size=10_000, volume=1.0)
    assert [len(b) for b in handed] == [10_000, 10_000, 5_000]
    assert all(np.shares_memory(b, handed[0]) for b in handed)


@pytest.mark.parametrize(
    "symbol,sub",
    [
        (InvariantSymbol.coordinate(0, 3), diagonal_circle(2)),
        (InvariantSymbol.coordinate(2, 3), diagonal_circle(2)),
        (A1_2, diagonal_circle(3)),
        (InvariantSymbol.from_poly([((0, 1), 1)], 2), diagonal_circle(3)),
    ],
    ids=["a1_on_3_over_2", "a3_on_3_over_2", "a1_on_2_over_3", "a2_on_2_over_3"],
)
def test_theorem2_refuses_a_symbol_of_another_size_before_any_vertex(monkeypatch, symbol, sub):
    # a1 on 3 coordinates over diagonal_circle(2) gave 3.1453, a3 an IndexError,
    # a1 and a2 on 2 coordinates over diagonal_circle(3) gave 6.5120 and 6.5800
    monkeypatch.setattr(toric, "regular_free_check", lambda sub: pytest.fail("computed the vertices"))
    with pytest.raises(ValidationError, match="coordinates"):
        theorem2_leading(symbol, F_X, sub, samples=10_000)


@pytest.mark.parametrize("batch_size", [2.5, 5000.0, "5", True])
@pytest.mark.parametrize("sub", [diagonal_circle(2), full_torus((1, 2))], ids=["diagonal_circle_2", "point_fiber"])
def test_theorem2_refuses_a_batch_that_is_not_an_integer(sub, batch_size):
    # each raised a bare TypeError, or was never checked on a point fiber
    with pytest.raises(ValidationError, match="batch_size"):
        theorem2_leading(A1_2, F_X, sub, samples=10_000, batch_size=batch_size)


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
@pytest.mark.parametrize("sub", [diagonal_circle(2), full_torus((1, 2))], ids=["diagonal_circle_2", "point_fiber"])
def test_theorem2_refuses_a_seed_that_is_not_a_non_negative_integer(sub, seed):
    # numpy raised a bare ValueError or TypeError, or drew from fresh entropy for None
    with pytest.raises(ValidationError, match="seed"):
        theorem2_leading(A1_2, F_X, sub, samples=10_000, seed=seed)


@pytest.mark.parametrize("samples", [-1, "x", 100, 10**9])
def test_theorem2_point_fiber_checks_its_samples(samples):
    # the exact point evaluation returned (0.333..., 0.0) for any sample count
    with pytest.raises(ValidationError, match="samples"):
        theorem2_leading(A1_2, F_X, EXAMPLE_SUBTORI["full_torus_12"], samples=samples)


def test_theorem2_supplied_volume():
    est, se = theorem2_leading(A1_2, F_ONE, diagonal_circle(2), samples=10_000, volume=5.0)
    assert est == 5.0 and se == 0.0


def test_theorem2_requires_regular_free():
    with pytest.raises(RegularityError):
        theorem2_leading(A1_2, F_X, EXAMPLE_SUBTORI["weighted_line"])
    with pytest.raises(RegularityError):
        theorem2_leading(InvariantSymbol.coordinate(0, 1), F_X, full_torus((0,)))


def test_theorem2_sampler_efficiency_guard():
    # the simplex fills ~1/8! of its bounding box in 8 chart coordinates
    with pytest.raises(SamplerEfficiencyError):
        theorem2_leading(InvariantSymbol.coordinate(0, 9), F_X, diagonal_circle(9), samples=10_000)


def test_theorem2_validation():
    with pytest.raises(ValidationError):
        theorem2_leading(A1_2, F_X, diagonal_circle(2), samples=100)
    with pytest.raises(ValidationError):
        theorem2_leading("a1", F_X, diagonal_circle(2))


def test_example_registry():
    assert set(EXAMPLE_SUBTORI) == {
        "diagonal_circle_2",
        "diagonal_circle_3",
        "product_of_lines",
        "weighted_line",
        "full_torus_12",
    }
    for sub in EXAMPLE_SUBTORI.values():
        assert recession_pointed(sub)
