import random
import tracemalloc
from fractions import Fraction
from math import factorial, lcm, log, pi, prod

import numpy as np
import pytest

from toeplab import reduction, toric
from toeplab._exact import divided_differences
from toeplab.errors import (
    RegularityError,
    UnboundedFiberError,
    ValidationError,
)
from toeplab.hardy_sphere import InvariantSymbol, _invariant_numerators, monomial_norm
from toeplab.multiindex import (
    SubtorusData,
    diagonal_circle,
    enumerate_fiber,
    fiber_polytope_vertices,
    full_torus,
    recession_pointed,
)
from toeplab.reduction import _pieces, sphere_sigma_volume
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


@pytest.fixture
def unit_volume(monkeypatch):
    """theorem2_leading's volume pinned to 1.0, so a run returns its raw mean and stderr."""
    monkeypatch.setattr(toric, "fiber_volume", lambda sub: 1.0)


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


@pytest.mark.parametrize("n", range(1, 13))
def test_fiber_volume_is_sphere_volume(n):
    # the level polytope is one unimodular simplex of dimension n - 1, so both sides
    # round (2 pi)^(n-1) / (n-1)! in the same float steps
    assert fiber_volume(diagonal_circle(n)) == sphere_sigma_volume(n)


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


def test_fiber_volume_lists_no_fiber(monkeypatch):
    # one simplex gives the volume; the level-12 fiber alone holds C(22, 10) = 646,646 points
    monkeypatch.setattr(toric, "enumerate_fiber", lambda sub, k: pytest.fail("listed a fiber"))
    assert repr(fiber_volume(diagonal_circle(11))) == "26.426256783374388"


@pytest.mark.parametrize(
    "weights,alpha",
    [
        (((1, 1),), (-1,)),  # x + y = -1 has no solution x, y >= 0
        (((1, 1, 1), (1, 0, 0)), (1, 1)),  # m = 1, but P is the single point (1, 0, 0)
    ],
    ids=["empty", "lower_dimensional"],
)
def test_fiber_volume_of_a_degenerate_polytope_is_zero(weights, alpha):
    sub = SubtorusData(n=len(weights[0]), d=len(weights), weight_matrix=weights, alpha=alpha)
    assert repr(fiber_volume(sub)) == "0.0"


def test_fiber_volume_refuses_a_large_triangulation_as_itself(monkeypatch):
    # the 4-cube's 24 simplices pass a limit of 23 before any simplex or minor of Bt is weighed
    monkeypatch.setattr(toric, "MAX_SIMPLICES", 23)
    monkeypatch.setattr(toric, "det_int", lambda rows: pytest.fail("took a determinant"))
    with pytest.raises(ValidationError, match="over 23 simplices") as info:
        fiber_volume(_lines(4))
    assert info.value.operation == "toric.fiber_volume"


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


def test_regular_free_check_refuses_an_empty_level_polytope():
    # x + y = -1 has no solution x, y >= 0
    with pytest.raises(ValidationError, match="level polytope is empty"):
        regular_free_check(SubtorusData(n=2, d=1, weight_matrix=((1, 1),), alpha=(-1,)))


def test_equivariant_spectrum_refuses_a_symbol_poly():
    with pytest.raises(ValidationError, match="need an invariant symbol"):
        equivariant_spectrum(A1_2.to_symbol_poly(), diagonal_circle(2), 3)


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


def _lines(m):
    """The product of m unit segments, an m-cube: n = 2m, d = m."""
    rows = tuple(tuple(int(j // 2 == i) for j in range(2 * m)) for i in range(m))
    return SubtorusData(n=2 * m, d=m, weight_matrix=rows, alpha=(1,) * m)


def _triangulation(sub):
    return toric._pulling_triangulation(sub, [r.vertex for r in regular_free_check(sub).vertices], "test")


# x + y <= 3 over 0 <= x <= 2: a trapezoid, cut into triangles of areas 3 and 1
TRAPEZOID = SubtorusData(n=4, d=2, weight_matrix=((1, 0, 1, 0), (1, 1, 0, 1)), alpha=(2, 3))


# Beside the examples, level polytopes with rational vertices (q > 1) or a pivot minor of Bt past 1: pivot_minor_2
# has lattice index 2 (minor gcd 1, volume 78.95683520871486), and pivot_minor_3's minor gcd 3 cancels its pivot minor 3.
COUNTED_VOLUMES = {
    "weighted_line": EXAMPLE_SUBTORI["weighted_line"],
    "segment_2_3": SubtorusData(n=2, d=1, weight_matrix=((2, 3),), alpha=(1,)),
    "segment_2_2": SubtorusData(n=2, d=1, weight_matrix=((2, 2),), alpha=(1,)),
    "pivot_minor_2": SubtorusData(n=4, d=2, weight_matrix=((1, 1, 3, -1), (1, 1, 1, 0)), alpha=(1, 2)),
    "pivot_minor_3": SubtorusData(n=3, d=2, weight_matrix=((3, 0, 3), (0, 1, 3)), alpha=(1, 3)),
    **{name: EXAMPLE_SUBTORI.get(name) or diagonal_circle(int(name[-1])) for name in (
        "diagonal_circle_2", "diagonal_circle_3", "diagonal_circle_4", "diagonal_circle_5", "diagonal_circle_6",
        "product_of_lines")},
}


@pytest.mark.parametrize("name", COUNTED_VOLUMES)
def test_triangulation_volume_is_the_fiber_volume(name):
    # an independent oracle: #fiber(k) along k = q t is the Ehrhart polynomial of degree m in k, and the
    # Newton table of its counts at k = q, ..., (m + 2) q reads the leading coefficient exactly
    sub = COUNTED_VOLUMES[name]
    m = sub.n - sub.d
    q = lcm(*(c.denominator for v in fiber_polytope_vertices(sub) for c in v))
    ks = [q * t for t in range(1, m + 3)]
    coeffs = divided_differences(ks, [Fraction(len(enumerate_fiber(sub, k))) for k in ks])
    assert coeffs[m + 1] == 0 and coeffs[m] > 0
    assert repr((2.0 * pi) ** m * coeffs[m].numerator / coeffs[m].denominator) == repr(fiber_volume(sub))


def test_triangulation_of_cubes_and_trapezoid():
    # pulling a corner of the m-cube cuts it into m! simplices of unit |det|
    for m in range(2, 5):
        simplices, weights = _triangulation(_lines(m))
        assert len(simplices) == factorial(m) and weights == [1] * factorial(m)
        assert all(len(s) == m + 1 and s[0] == 0 for s in simplices)
    assert _triangulation(TRAPEZOID) == ([(0, 1, 3), (0, 2, 3)], [6, 2])


# The exact mean of a_1 / |a|_1 under the uniform measure on each level polytope: the first
# Dirichlet(1, ..., 1) coordinate on a simplex, a_1 / 2 on the square.
EXACT_MEANS = {**{f"diagonal_circle_{n}": (diagonal_circle(n), 1 / n) for n in range(2, 10)},
               "product_of_lines": (EXAMPLE_SUBTORI["product_of_lines"], 1 / 4)}


@pytest.mark.usefixtures("unit_volume")
@pytest.mark.parametrize("name", sorted(EXACT_MEANS))
def test_theorem2_lands_on_the_exact_mean(name):
    sub, want = EXACT_MEANS[name]
    est, se = theorem2_leading(InvariantSymbol.coordinate(0, sub.n), F_X, sub, samples=50_000, seed=17)
    assert abs(est - want) < 5 * se


@pytest.mark.usefixtures("unit_volume")
def test_theorem2_weighs_simplices_by_volume():
    # on the trapezoid |a|_1 = 5 - x and a_1 = x, so the mean of x / (5 - x) over it is
    # (6 - 10 ln(5/3)) / 4 = 0.2229; equal weights on its two triangles would give 0.2772
    est, se = theorem2_leading(InvariantSymbol.coordinate(0, 4), F_X, TRAPEZOID, samples=100_000, seed=1)
    assert abs(est - (1.5 - 2.5 * log(5 / 3))) < 5 * se


@pytest.mark.usefixtures("unit_volume")
def test_theorem2_samples_diagonal_circle_11():
    # the box sampler kept one draw in 10! here and was refused; a simplex keeps every draw
    est, se = theorem2_leading(InvariantSymbol.coordinate(0, 11), F_X, diagonal_circle(11), samples=50_000)
    assert abs(est - 1 / 11) < 5 * se


def test_triangulation_refuses_past_the_simplex_limit(monkeypatch):
    # the 4-cube's 24 simplices pass a limit of 24, not one of 23
    monkeypatch.setattr(toric, "MAX_SIMPLICES", 24)
    assert len(_triangulation(_lines(4))[0]) == 24
    monkeypatch.setattr(toric, "MAX_SIMPLICES", 23)
    with pytest.raises(ValidationError, match="^the level polytope's pulling triangulation has over 23 simplices$"):
        _triangulation(_lines(4))


def test_theorem2_refuses_a_large_triangulation_before_any_draw(monkeypatch):
    # refused once a face's count passes the limit: before its weights, any draw or the volume
    sub, report = _lines(3), regular_free_check(_lines(3))  # its vertex minors are determinants too
    monkeypatch.setattr(toric, "regular_free_check", lambda sub: report)
    monkeypatch.setattr(toric, "MAX_SIMPLICES", 5)
    monkeypatch.setattr(toric, "det_int", lambda rows: pytest.fail("weighed a simplex"))
    monkeypatch.setattr(toric, "fiber_volume", lambda sub: pytest.fail("computed the volume"))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew points"))
    with pytest.raises(ValidationError, match="over 5 simplices") as info:
        theorem2_leading(InvariantSymbol.coordinate(0, 6), F_X, sub, samples=10_000)
    assert info.value.operation == "toric.theorem2_leading"


def test_theorem2_bits_frozen(monkeypatch):
    # exact output of the simplex sampler's per-batch accumulator: two
    # 8,000-point batches, then one of 4,000
    sym = InvariantSymbol.from_poly([((2, 0, 0), 1), ((0, 1, 1), Fraction(1, 2))], 3)
    # pinned volume: the exact 19.739208802178716 would move the last digits
    monkeypatch.setattr(toric, "fiber_volume", lambda sub: 19.73920880217942)
    got = theorem2_leading(sym, F_X2, EXAMPLE_SUBTORI["diagonal_circle_3"], samples=20_000, seed=3, batch_size=8_000)
    assert repr(got) == "(1.4872008325666233, 0.01860761696762866)"


@pytest.mark.parametrize("name", ["diagonal_circle_4", "product_of_lines"])
def test_theorem2_multiplies_by_the_volume_once(monkeypatch, name):
    # the raw mean and stderr of a run, each times V = fiber_volume(sub) and nothing else
    sub = EXACT_MEANS[name][0]
    sym = InvariantSymbol.from_poly([((1, 0, 0, 0), 1), ((0, 1, 1, 0), Fraction(1, 2)), ((0, 0, 0, 2), 3)], 4)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    run = lambda: theorem2_leading(sym, f, sub, samples=20_000, seed=5, batch_size=7_000)
    volume = fiber_volume(sub)
    with monkeypatch.context() as patch:
        patch.setattr(toric, "fiber_volume", lambda sub: 1.0)
        mean, stderr = run()
    assert volume != 1.0 and run() == (volume * mean, volume * stderr)


@pytest.mark.usefixtures("unit_volume")
def test_theorem2_bits_frozen_codimension_3():
    # m = 3: the level polytope is one simplex, sampled by Dirichlet weights,
    # with the volume patched to 1 so the raw mean and stderr are pinned
    sym = InvariantSymbol.from_poly([((1, 0, 0, 0), 1), ((0, 1, 1, 0), Fraction(1, 2)), ((0, 0, 0, 2), 3)], 4)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = theorem2_leading(sym, f, diagonal_circle(4), samples=20_000, seed=5, batch_size=7_000)
    assert repr(got) == "(0.616141195038071, 0.007546066536876237)"


@pytest.mark.usefixtures("unit_volume")
def test_theorem2_bits_frozen_across_product_pieces():
    # a 40,000-point batch draws pieces of 16,384, 16,384 and 7,232 rows,
    # the last 20,000-point batch pieces of 16,384 and 3,616
    sym = InvariantSymbol.from_poly([((1, 0, 0, 0), 1), ((0, 1, 1, 0), Fraction(1, 2)), ((0, 0, 0, 2), 3)], 4)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = theorem2_leading(sym, f, diagonal_circle(4), samples=60_000, seed=5, batch_size=40_000)
    assert repr(got) == "(0.6203551683324595, 0.004329484839172069)"


@pytest.mark.usefixtures("unit_volume")
def test_theorem2_bits_frozen_product_of_lines():
    # m = 2: the square is two triangles of equal volume; one whole
    # 100,000-point batch, then one of 50,000
    sym = InvariantSymbol.from_poly([((1, 0, 0, 0), 1), ((0, 1, 1, 0), Fraction(1, 2)), ((0, 0, 0, 2), 3)], 4)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = theorem2_leading(sym, f, EXAMPLE_SUBTORI["product_of_lines"], samples=150_000, seed=7)
    assert repr(got) == "(0.40079136333308646, 0.0009333755163019898)"


def test_theorem2_peak_memory_is_a_few_pieces():
    # a whole 100,000-point batch of diagonal_circle_4's draws and points
    # alone would take 7.6 MiB
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


@pytest.mark.parametrize("samples,batch_size,drawn,frozen", [
    # the second batch needs 50,000 rows: three pieces of 16,384 and one of 848
    (150_000, 100_000, [16_384] * 6 + [1_696] + [16_384] * 3 + [848], "(0.40079136333308646, 0.0009333755163019898)"),
    # one row left: the last batch draws two and keeps the first
    (10_001, 10_000, [10_000, 2], None),
], ids=["150000_samples", "10001_samples"])
@pytest.mark.usefixtures("unit_volume")
def test_theorem2_last_batch_stops_once_full(monkeypatch, samples, batch_size, drawn, frozen):
    # every draw is kept, so each batch draws exactly the rows it needs
    make_rng = np.random.default_rng
    rows = []

    class CountingRng:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def multinomial(self, n, shares):
            rows.append(n)
            return self.rng.multinomial(n, shares)

        def standard_exponential(self, shape):
            return self.rng.standard_exponential(shape)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    sym = InvariantSymbol.from_poly([((1, 0, 0, 0), 1), ((0, 1, 1, 0), Fraction(1, 2)), ((0, 0, 0, 2), 3)], 4)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = theorem2_leading(sym, f, EXAMPLE_SUBTORI["product_of_lines"], samples=samples, seed=7, batch_size=batch_size)
    assert rows == drawn
    assert frozen is None or repr(got) == frozen


def _plain_simplex_batches(symbol, f, sub, samples, seed, batch_size):
    """The simplex sampler written plainly: each piece splits its rows by one multinomial,
    draws one exponential block per simplex, joins the blocks' points and divides them by
    their |a|_1 by broadcasting; yields each batch's values."""
    verts = [r.vertex for r in regular_free_check(sub).vertices]
    simplices, weights = _triangulation(sub)
    rows = np.array([[float(c) for c in v] + [float(sum(v))] for v in verts])
    m = sub.n - sub.d
    rng = np.random.default_rng(seed)
    left = samples
    while left:
        need = min(batch_size, left)
        vals = []
        for start, stop in _pieces(max(need, 2)):
            counts = rng.multinomial(stop - start, [w / sum(weights) for w in weights])
            pts = np.vstack([rng.standard_exponential((c, m + 1)) @ rows[list(s)]
                             for s, c in zip(simplices, counts) if c])
            vals.append(f(symbol.eval_array(pts[:, :sub.n] / pts[:, sub.n:])))
        yield np.concatenate(vals)[:need]
        left -= need


_SAMPLED = {
    **{f"diagonal_circle_{n}": diagonal_circle(n) for n in range(2, 6)},
    "product_of_lines": EXAMPLE_SUBTORI["product_of_lines"],
    "trapezoid": TRAPEZOID,
    "cube_3": _lines(3),
}


@pytest.mark.parametrize("batch_size", [5_000, 16_384, 40_000])
@pytest.mark.parametrize("name", sorted(_SAMPLED))
def test_theorem2_values_match_the_plain_sampler(monkeypatch, name, batch_size):
    # batches below, equal to and not a multiple of one 16,384-row piece;
    # 12,345 samples leave a last batch shorter than the rest
    sub = _SAMPLED[name]
    gammas = [tuple(int(j in idx) for j in range(sub.n)) for idx in ((0,), (1, sub.n - 1), (sub.n - 1,))]
    sym = InvariantSymbol.from_poly(list(zip(gammas, [1, Fraction(1, 2), 3])), sub.n)
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    handed = []

    def capture(batches, samples):
        handed.extend(b.copy() for b in batches)
        return 0.0, 0.0

    monkeypatch.setattr(reduction, "_mean_stderr", capture)
    theorem2_leading(sym, f, sub, samples=12_345, seed=13, batch_size=batch_size)
    want = list(_plain_simplex_batches(sym, f, sub, 12_345, 13, batch_size))
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
        with pytest.raises(ValidationError, match="samples must be an integer"):
            theorem2_leading(a1, F_X, sub, samples=2**40, batch_size=2**40)
    # only min(batch_size, samples) values are ever held: this batch was refused for 8 * (m + 2n) bytes a row
    got = theorem2_leading(a1, F_X, sub, samples=10_000, batch_size=2**40)
    assert repr(got) == repr(theorem2_leading(a1, F_X, sub, samples=10_000, batch_size=10_000))


def test_theorem2_holds_a_batch_of_one_gibibyte(monkeypatch):
    # 2**27 values at 10**8 samples take 1 GiB; they were refused for 10,737,418,240 bytes
    runs = []
    monkeypatch.setattr(toric, "_monte_carlo", lambda draw, volume, *run: runs.append(run) or (0.0, 0.0))
    sub = EXAMPLE_SUBTORI["product_of_lines"]
    theorem2_leading(InvariantSymbol.coordinate(0, sub.n), F_X, sub, samples=10**8, batch_size=2**27)
    assert runs == [(10**8, 0, 2**27)]


def test_theorem2_batches_share_one_value_buffer(monkeypatch):
    # product_of_lines keeps every draw: 25,000 samples in batches of 10,000 are three views of one buffer
    handed = []

    def capture(batches, samples):
        handed.extend(batches)
        return 0.0, 0.0

    monkeypatch.setattr(reduction, "_mean_stderr", capture)
    sub = EXAMPLE_SUBTORI["product_of_lines"]
    theorem2_leading(InvariantSymbol.coordinate(0, sub.n), F_X, sub, samples=25_000, batch_size=10_000)
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


def test_theorem2_of_one_is_the_volume():
    # every value is 1.0, so the mean is 1.0 and its stderr 0.0, each times V
    got = theorem2_leading(A1_2, F_ONE, diagonal_circle(2), samples=10_000)
    assert got == (fiber_volume(diagonal_circle(2)), 0.0)


def test_theorem2_requires_regular_free():
    with pytest.raises(RegularityError):
        theorem2_leading(A1_2, F_X, EXAMPLE_SUBTORI["weighted_line"])
    with pytest.raises(RegularityError):
        theorem2_leading(InvariantSymbol.coordinate(0, 1), F_X, full_torus((0,)))


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
