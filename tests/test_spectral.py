import math
import random
from fractions import Fraction

import numpy as np
import pytest

from toeplab.errors import IllConditionedFitError, PolynomialDegreeError, ToeplabError, ValidationError
from toeplab.hardy_sphere import InvariantSymbol, SymbolPoly, assemble_block
from toeplab.spectral import (
    TestFunction,
    fit_expansion,
    measure_eigen,
    measure_poly,
    richardson_limit,
    scaled_measure,
)


def a1_block(k):
    return assemble_block(InvariantSymbol.coordinate(0, 2).to_symbol_poly(), 2, k)


def test_measure_poly_frozen_values():
    # eigenvalues at k=2 are 3/4, 1/2, 1/4
    block = a1_block(2)
    assert measure_poly(block, TestFunction.polynomial([0.0, 1.0])) == pytest.approx(1.5)
    assert measure_poly(block, TestFunction.polynomial([0.0, 0.0, 1.0])) == pytest.approx(0.875)
    assert measure_poly(block, TestFunction.polynomial([1.0])) == pytest.approx(3.0)


def test_measure_eigen_frozen_value():
    block = a1_block(2)
    f = TestFunction.polynomial([0.25, -1.0, 1.0], label="var")  # (x - 1/2)^2
    assert measure_eigen(block, f) == pytest.approx(1 / 8)


def test_measure_paths_agree_on_offdiagonal_block():
    sym = SymbolPoly.from_terms([((1, 0), (0, 1), 1.0), ((1, 0), (1, 0), 0.5)], hermitize=True)
    block = assemble_block(sym, 2, 6)
    f = TestFunction.polynomial([0.25, -1.0, 0.0, 2.0])
    assert measure_poly(block, f) == pytest.approx(measure_eigen(block, f), abs=1e-12)


PINNED_BLOCKS = {
    # sector sizes 10, 18, 24, 28, 30, 30, 28, 24, 18, 10 in first-seen order:
    # each size but 30 comes back only after the others
    "scattered_sizes": (SymbolPoly.from_terms(
        [((1, 0, 0, 0), (0, 1, 0, 0), 0.25 + 0.1j), ((0, 0, 1, 0), (0, 0, 0, 1), -0.4)], hermitize=True), 4, 9,
        "23.09365160872781", "23.093651608727807"),
    # 66 sectors of one monomial each
    "invariant": (InvariantSymbol.from_poly([((2, 0, 0), 1), ((0, 1, 1), Fraction(1, 2))], 3).to_symbol_poly(), 3, 10,
                  "3.1710857749140082", "3.171085774914008"),
}


@pytest.mark.parametrize("name", sorted(PINNED_BLOCKS))
def test_measures_bits_frozen(name):
    # the summation order of both measures follows the sector layout
    sym, n, k, eigen, poly = PINNED_BLOCKS[name]
    block = assemble_block(sym, n, k)
    f = TestFunction.polynomial([0.1, -0.5, 0.3, 1.0, 0.25])
    assert repr(measure_eigen(block, f)) == eigen
    assert repr(measure_poly(block, f)) == poly


def test_measure_poly_rejects_high_degree():
    block = a1_block(2)
    with pytest.raises(PolynomialDegreeError):
        measure_poly(block, TestFunction.polynomial([0.0] * 17 + [1.0]))


def test_test_function_calls():
    p = TestFunction.polynomial([1.0, 0.0, 2.0])
    assert p(3.0) == pytest.approx(19.0)
    assert p(np.array([0.0, 1.0])) == pytest.approx([1.0, 3.0])
    assert p.degree == 2


def test_test_function_needs_a_coefficient():
    with pytest.raises(ValidationError, match="at least one coefficient"):
        TestFunction.polynomial([])


def test_test_function_built_directly_is_checked_like_polynomial():
    f = TestFunction(coeffs=[1, 2])
    assert (f.coeffs, f.label) == ((1.0, 2.0), "poly[1.0, 2.0]")
    assert f == TestFunction.polynomial([1, 2])
    with pytest.raises(ValidationError, match="at least one coefficient"):
        TestFunction(coeffs=())
    with pytest.raises(ValidationError, match=r"^coefficient must be a finite int or float, got nan$"):
        TestFunction(coeffs=(math.nan,))


def test_scaled_measure():
    assert scaled_measure(3.0, 1, 6) == pytest.approx(math.pi)
    assert scaled_measure(5.0, 0, 17) == 5.0
    with pytest.raises(ValidationError):
        scaled_measure(1.0, -1, 4)
    with pytest.raises(ValidationError):
        scaled_measure(1.0, 1, 0)


def test_fit_expansion_recovers_coefficients():
    samples = [(k, 2 * math.pi + 3.0 / k - 1.0 / k**2) for k in range(10, 41, 3)]
    fit = fit_expansion(samples, order=2)
    assert fit.c0 == pytest.approx(2 * math.pi, abs=1e-10)
    assert fit.coefficients[1] == pytest.approx(3.0, abs=1e-8)
    assert fit.coefficients[2] == pytest.approx(-1.0, abs=1e-6)
    assert fit.residual_norm < 1e-12
    js = fit.to_json()
    assert js["k_range"] == [10, 40]
    assert len(js["c"]) == 3
    assert js["condition"] == fit.condition > 1
    assert js["c0_uncertainty"] == fit.c0_uncertainty < 1e-9


def test_fit_expansion_window_requirements():
    with pytest.raises(ValidationError):
        fit_expansion([(10, 1.0), (11, 1.0), (12, 1.0)], order=2)
    with pytest.raises(ValidationError):
        # k=3 below the 2*order floor
        fit_expansion([(3, 1.0), (10, 1.0), (20, 1.0), (30, 1.0), (40, 1.0)], order=2)


def test_fit_expansion_condition_guard():
    samples = [(k, 1.0 + 1.0 / k) for k in range(40, 47)]
    with pytest.raises(IllConditionedFitError):
        fit_expansion(samples, order=4)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_fit_expansion_refuses_non_finite_values(bad):
    # an overflowed measure fitted by least squares gave NaN coefficients
    samples = [(k, 1.0 + 1.0 / k) for k in (10, 20, 30, 40, 50)]
    samples[2] = (30, bad)
    with pytest.raises(ToeplabError, match="not all finite") as info:
        fit_expansion(samples, order=2)
    assert not isinstance(info.value, ValidationError)
    assert info.value.operation == "spectral.fit_expansion"


@pytest.mark.parametrize("samples, message", [
    (5, r"^samples must be a list or tuple, got 5$"),
    ("12", r"^samples must be a list or tuple, got '12'$"),
    ([5], r"^sample must be a list or tuple of length 2, got 5$"),
    ([(8, 1.0, 2.0)], r"^sample must be a list or tuple of length 2, got \(8, 1.0, 2.0\)$"),
    ([(8, "1")], r"^sample value must be a finite int or float, got '1'$"),
    ([(8, None)], r"^sample value must be a finite int or float, got None$"),
    ([(8, True)], r"^sample value must be a finite int or float, got True$"),
    ([(8, 10**400)], r"^sample value must be a finite int or float, got 1000"),
])
def test_fit_expansion_refuses_samples_by_name(samples, message):
    with pytest.raises(ValidationError, match=message) as info:
        fit_expansion(samples, order=0)
    assert info.value.operation == "spectral.fit_expansion"


def test_fit_expansion_reads_int_values_as_floats():
    samples = [(k, 1.0 + 1.0 / k) for k in (8, 16, 32)]
    assert fit_expansion([(8, 2)] + samples[1:], order=1) == fit_expansion([(8, 2.0)] + samples[1:], order=1)


# value(k) = (k/4 + 1)/(k + 2) = 1/4 + 1/(2(k+2)); limit 1/4
RICH_KS = list(range(4, 49, 4))
RICH_VALS = [Fraction(k + 4, 4 * (k + 2)) for k in RICH_KS]


def test_richardson_exact_errors():
    errs = {}
    for order in (0, 1, 3, 6, 8):
        r = richardson_limit(RICH_KS, RICH_VALS, order)
        assert isinstance(r, Fraction)
        errs[order] = abs(r - Fraction(1, 4))
    # order 0 is the last raw value 13/50; order 1 extrapolates k=44,48
    assert errs[0] == Fraction(1, 100)
    assert errs[1] == Fraction(1, 2300)
    assert errs[3] < errs[1] / 100
    assert errs[6] < errs[3] / 1000
    assert errs[8] < Fraction(1, 10**11)


def test_richardson_exact_on_polynomial_data():
    vals = [Fraction(1, 4) + Fraction(1, 2 * k) - Fraction(3, k * k) for k in RICH_KS]
    assert richardson_limit(RICH_KS, vals, 2) == Fraction(1, 4)
    # float input gives a float answer
    assert richardson_limit(RICH_KS, [float(v) for v in vals], 2) == pytest.approx(0.25, abs=1e-13)


def neville_limit(ks, values, order):
    """The Neville tableau richardson_limit ran before its Newton table, exact path."""
    xs = [Fraction(1, k) for k in ks[-order - 1:]]
    t = [Fraction(v) for v in values[-order - 1:]]
    for m in range(1, len(t)):
        for i in range(len(t) - 1, m - 1, -1):
            t[i] = (xs[i - m] * t[i] - xs[i] * t[i - 1]) / (xs[i - m] - xs[i])
    return t[-1]


@pytest.mark.parametrize("order", range(9))
def test_richardson_matches_neville_tableau(order):
    rng = random.Random(order)
    for _ in range(40):
        ks = rng.sample(range(1, 200), rng.randint(order + 1, order + 3))
        vals = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in ks]
        if rng.random() < 0.25:
            vals = [int(v) for v in vals]
        r = richardson_limit(ks, vals, order)
        assert isinstance(r, Fraction)
        assert r == neville_limit(ks, vals, order)


def test_richardson_validation():
    with pytest.raises(ValidationError):
        richardson_limit([4, 8], [1.0, 2.0], 2)
    with pytest.raises(ValidationError):
        richardson_limit([4, 4], [1.0, 2.0], 1)
    with pytest.raises(ValidationError):
        richardson_limit([4, 8], [1.0], 0)


@pytest.mark.parametrize("ks", [[0, 4], [4, 0], [-4, 8], [4.5, 8], [4, 8.0], [True, 8], [Fraction(4), 8]])
def test_richardson_refuses_levels_that_are_not_positive_integers(ks):
    # the nodes are 1/k, and a level such as 4.5 must not be read as 4
    with pytest.raises(ValidationError, match=r"^ks must be an integer >= 1, got "):
        richardson_limit(ks, [Fraction(1), Fraction(2)], 1)


@pytest.mark.parametrize("values,message", [
    (5, r"^values must be a list or tuple, got 5$"),
    ("ab", r"^values must be a list or tuple, got 'ab'$"),
    (["a", "b"], r"^values must be an int, Fraction or finite float, got 'a'$"),
    ([1.0, float("nan")], r"^values must be an int, Fraction or finite float, got nan$"),
    ([True, 2], r"^values must be an int, Fraction or finite float, got True$"),
], ids=["scalar", "string", "strings", "nan", "bool"])
@pytest.mark.parametrize("order", [0, 1])
def test_richardson_refuses_values_that_are_not_numbers(values, message, order):
    # each raised a bare TypeError from len(values) or the Newton table, or passed through at order 0
    with pytest.raises(ValidationError, match=message) as info:
        richardson_limit([8, 16], values, order)
    assert info.value.operation == "spectral.richardson_limit"


def test_richardson_keeps_exact_values_exact():
    assert richardson_limit([8, 16], [1, 2], 1) == 3 and isinstance(richardson_limit([8, 16], [1, 2], 1), Fraction)
    assert richardson_limit([8, 16], (Fraction(1, 3), Fraction(2, 7)), 1) == Fraction(5, 21)
    assert richardson_limit([8, 16], [1, 2], 0) == Fraction(2) and isinstance(richardson_limit([8, 16], [1, 2], 0), Fraction)
    assert richardson_limit([8, 16], [0.5, np.float64(0.75)], 1) == 1.0


def test_write_measure_csv(tmp_path):
    from toeplab.cli import _write

    header = ["n", "k", "m", "f_id", "mu", "scaled_mu"]
    rows = [[2, 10, 1, "x", 1.25, 0.7853981633974483], [2, 20, 1, "x", 2.5, 0.7853981633974483]]
    path = tmp_path / "measures.csv"
    _write(tmp_path, {"measures.csv": (header, rows)})
    lines = path.read_text().splitlines()
    assert lines[0] == "n,k,m,f_id,mu,scaled_mu"
    assert lines[1].startswith("2,10,1,x,1.25,")
    assert len(lines) == 3
