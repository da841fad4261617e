import time
import tracemalloc
from fractions import Fraction
from math import pi

import numpy as np
import pytest

from toeplab import reduction
from toeplab.errors import ToeplabError, ValidationError
from toeplab.hardy_sphere import InvariantSymbol, SymbolPoly
from toeplab.reduction import (
    _pieces,
    _staircase_cells,
    c0_simplex_quad,
    c0_sphere_mc,
    mean_stderr,
    sample_sphere,
    sphere_sigma_volume,
)
from toeplab.spectral import TestFunction

F_X = TestFunction.polynomial([0.0, 1.0], label="x")
F_X2 = TestFunction.polynomial([0.0, 0.0, 1.0], label="x^2")
A1_2 = InvariantSymbol.coordinate(0, 2)
A1_3 = InvariantSymbol.coordinate(0, 3)


def test_sigma_volume_values():
    assert sphere_sigma_volume(1) == 1.0
    assert sphere_sigma_volume(2) == pytest.approx(2 * pi)
    assert sphere_sigma_volume(3) == pytest.approx(2 * pi**2)
    assert sphere_sigma_volume(4) == pytest.approx(4 * pi**3 / 3)
    with pytest.raises(ValidationError):
        sphere_sigma_volume(0)


def test_sample_sphere_shape_and_norm():
    rng = np.random.default_rng(0)
    z = sample_sphere(3, 1000, rng)
    assert z.shape == (1000, 3) and z.dtype == complex
    assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() < 1e-14


def test_sample_sphere_stream_contract():
    # a batch of points consumes exactly the draws of standard_normal((size, n, 2))
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    sample_sphere(3, 777, rng)
    ref.standard_normal((777, 3, 2))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_mc_constant_function_is_exact():
    est, se = c0_sphere_mc(A1_2, TestFunction.polynomial([1.0]), 2, samples=10_000, seed=0)
    assert est == sphere_sigma_volume(2)
    assert se == 0.0


def test_mc_batch_invariance():
    a = c0_sphere_mc(A1_2, F_X2, 2, samples=50_000, seed=3, batch_size=10_000)
    b = c0_sphere_mc(A1_2, F_X2, 2, samples=50_000, seed=3, batch_size=50_000)
    assert a[0] == b[0]


def test_mc_bits_frozen():
    # exact output of the per-batch accumulator over batches of 10k, 10k and
    # 5k; one sum over all 25k values changes the last digits of both
    got = c0_sphere_mc(A1_3, F_X, 3, samples=25_000, seed=7, batch_size=10_000)
    assert repr(got) == "(6.58052926941834, 0.029454857345935833)"


def test_mc_polynomial_symbol_bits_frozen():
    # a non-invariant symbol with a complex coefficient and a |gamma| = 2
    # term, under a quadratic f with every coefficient nonzero: pins the
    # sampler, SymbolPoly.evaluate and the polynomial TestFunction together
    sym = SymbolPoly.from_terms(
        [((1, 0, 0), (1, 0, 0), 0.5), ((2, 0, 0), (0, 1, 1), 0.3 + 0.4j), ((0, 1, 0), (0, 0, 1), Fraction(1, 3))],
        hermitize=True,
    )
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = c0_sphere_mc(sym, f, 3, samples=25_000, seed=11, batch_size=10_000)
    assert repr(got) == "(4.129217813634305, 0.01480369431736504)"


def test_mc_pieces_keep_the_bits_of_one_pass(monkeypatch):
    # batches of 22 drawn in pieces of 7, 7 and 8 points: a last piece of one
    # point would round differently in numpy's in-place complex product
    sym = SymbolPoly.from_terms([((1, 0, 0), (1, 0, 0), 0.5), ((1, 0, 0), (0, 1, 0), 0.3 - 0.2j)], hermitize=True)

    def values(chunk, batch_size):
        monkeypatch.setattr(reduction, "_CHUNK", chunk)
        seen = []
        monkeypatch.setattr(reduction, "mean_stderr", lambda batches, samples: (seen.extend(b.copy() for b in batches), (0.0, 0.0))[1])
        c0_sphere_mc(sym, F_X2, 3, samples=10_000, seed=6, batch_size=batch_size)
        return np.concatenate(seen)

    assert values(7, 22).tobytes() == values(20_000, 10_000).tobytes()


@pytest.mark.parametrize("batch_size", [0, -1, 1])
def test_mc_rejects_empty_batches(batch_size):
    # a zero-size batch adds nothing, so the draw loop would never end; a
    # one-point piece takes numpy's one-element complex product and its bits
    with pytest.raises(ValidationError, match="batch_size"):
        c0_sphere_mc(A1_2, F_X, 2, samples=10_000, batch_size=batch_size)


def test_mc_refuses_oversized_batch_before_drawing():
    with pytest.raises(ValidationError, match="bytes"):
        c0_sphere_mc(A1_2, F_X, 2, samples=2**40, batch_size=2**40)
    # only min(batch_size, samples) points are ever drawn at once
    est, _ = c0_sphere_mc(A1_2, F_X, 2, samples=10_000, batch_size=2**40)
    assert np.isfinite(est)


@pytest.mark.parametrize(
    "symbol,n,f,target",
    [
        (A1_2, 2, F_X, pi),
        (A1_3, 3, F_X, 2 * pi**2 / 3),
    ],
)
def test_mc_invariant_means(symbol, n, f, target):
    est, se = c0_sphere_mc(symbol, f, n, samples=100_000, seed=5)
    assert abs(est - target) < 3 * se


def test_mc_polynomial_symbol_zero_mean():
    refl = SymbolPoly.from_terms([((1, 0), (0, 1), 1.0)], hermitize=True)
    est, se = c0_sphere_mc(refl, F_X, 2, samples=100_000, seed=5)
    assert abs(est) < 3 * se


def test_mc_input_validation():
    with pytest.raises(ValidationError):
        c0_sphere_mc(A1_2, F_X, 2, samples=5000)
    with pytest.raises(ValidationError):
        c0_sphere_mc("a1", F_X, 2, samples=10_000)


def test_mc_peak_memory_is_one_batch_of_values():
    # a 250,000-point batch of values is 1.9 MiB: one may be held, not a
    # second beside it or its square while the next batch is built
    run = lambda: c0_sphere_mc(A1_3, F_X, 3, samples=1_000_000)
    run()  # warm: first-call allocations are not the oracle's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


def mean_stderr_before_in_place(batches, samples):
    """mean_stderr as it was before it squared its batches in place."""
    total = total_sq = 0.0
    for vals in batches:
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, (var / samples) ** 0.5


@pytest.mark.parametrize("seed", range(6))
def test_mean_stderr_in_place_keeps_the_bits(seed):
    # squaring in place keeps the bits of summing vals * vals, on batches of 2 to 300,000 values
    rng = np.random.default_rng(seed)
    sizes = [2, 300_000] if seed == 0 else rng.integers(2, 300_001, size=rng.integers(1, 4)).tolist()
    batches = [rng.standard_normal(s) * 10.0 ** rng.integers(-3, 4) + rng.random() for s in sizes]
    want = mean_stderr_before_in_place([b.copy() for b in batches], sum(sizes))
    assert repr(mean_stderr(iter(batches), sum(sizes))) == repr(want)


def test_mean_stderr_counts_its_values():
    # five ones counted as ten samples would give mean 0.5
    with pytest.raises(ValidationError, match="5 values"):
        mean_stderr([np.ones(5)], 10)
    with pytest.raises(ValidationError, match="15 values"):
        mean_stderr([np.ones(5), np.ones(10)], 10)
    assert mean_stderr([np.ones(5), np.ones(5)], 10) == (1.0, 0.0)


@pytest.mark.parametrize("values", [[np.inf, 1.0], [-np.inf, 1.0], [np.nan, 1.0], [1e200, -1e200]],
                         ids=["inf", "minus_inf", "nan", "square_overflows"])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_mean_stderr_refuses_non_finite_results(values):
    # [inf, 1.0] gave (inf, 0.0): max(0.0, nan) hid the NaN variance
    with pytest.raises(ToeplabError, match="not finite") as info:
        mean_stderr([np.array(values)], 2)
    assert not isinstance(info.value, ValidationError)
    assert info.value.operation == "reduction.mean_stderr"


def test_mean_stderr_needs_two_values():
    # the variance divides by samples - 1
    with pytest.raises(ValidationError):
        mean_stderr([np.ones(1)], 1)
    with pytest.raises(ValidationError):
        mean_stderr([], 0)


def _batches_before_the_shared_loop(symbol, f, n, samples, seed, batch_size):
    """c0_sphere_mc's batches as they were before both oracles shared one loop:
    each batch, the last one too, drawn in pieces of its own size."""
    rng = np.random.default_rng(seed)

    def batch(size):
        vals = np.empty(size)
        for lo, hi in _pieces(size):
            vals[lo:hi] = f(reduction._symbol_values(symbol, sample_sphere(n, hi - lo, rng)))
        return vals

    return [batch(min(batch_size, samples - done)) for done in range(0, samples, batch_size)]


@pytest.mark.parametrize("samples,batch_size", [(10_001, 10_000), (36_385, 20_000), (25_000, 10_000), (10_000, 2**40)])
@pytest.mark.parametrize("complex_symbol", [False, True], ids=["invariant", "complex"])
def test_mc_shared_loop_keeps_the_values_of_each_batch(monkeypatch, samples, batch_size, complex_symbol):
    # last batches of 1 and 16,385 values now draw a whole piece and keep a prefix
    sym = (SymbolPoly.from_terms([((1, 0, 0), (1, 0, 0), 0.5), ((1, 0, 0), (0, 1, 0), 0.3 - 0.2j)], hermitize=True)
           if complex_symbol else InvariantSymbol.from_poly([((2, 0, 0), 1), ((0, 1, 1), Fraction(1, 2))], 3))
    f = TestFunction.polynomial([0.25, -1.0, 2.0])
    got = []

    def capture(batches, samples):
        got.extend(b.copy() for b in batches)  # each batch is a view of one reused buffer
        return 0.0, 0.0

    monkeypatch.setattr(reduction, "mean_stderr", capture)
    c0_sphere_mc(sym, f, 3, samples=samples, seed=9, batch_size=batch_size)
    want = _batches_before_the_shared_loop(sym, f, 3, samples, 9, batch_size)
    assert [b.tobytes() for b in got] == [b.tobytes() for b in want]


def test_mc_batches_share_one_value_buffer(monkeypatch):
    # 25,000 samples in batches of 10,000: three batches, every one a view of the first's buffer
    handed = []

    def capture(batches, samples):
        handed.extend(batches)
        return 0.0, 0.0

    monkeypatch.setattr(reduction, "mean_stderr", capture)
    c0_sphere_mc(A1_3, F_X, 3, samples=25_000, seed=7, batch_size=10_000)
    assert [len(b) for b in handed] == [10_000, 10_000, 5_000]
    assert all(np.shares_memory(b, handed[0]) for b in handed)


@pytest.mark.parametrize("batch_size", [2.5, 5000.0, "5", True])
def test_mc_refuses_a_batch_that_is_not_an_integer(batch_size):
    # each raised a bare TypeError
    with pytest.raises(ValidationError, match="batch_size"):
        c0_sphere_mc(A1_2, F_X, 2, samples=10_000, batch_size=batch_size)


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
def test_mc_refuses_a_seed_that_is_not_a_non_negative_integer(monkeypatch, seed):
    # numpy raised a bare ValueError or TypeError, or drew from fresh entropy for None
    monkeypatch.setattr(reduction, "sample_sphere", lambda n, size, rng: pytest.fail("drew points"))
    with pytest.raises(ValidationError, match="seed"):
        c0_sphere_mc(A1_2, F_X, 2, samples=10_000, seed=seed)


def _pieces_as_a_list(size):
    """_pieces as it was when it built its list of cuts at once."""
    cuts = [0, *range(reduction._CHUNK, size - 1, reduction._CHUNK), size]
    return list(zip(cuts, cuts[1:]))


@pytest.mark.parametrize("size", [1, 2, 16_383, 16_384, 16_385, 16_386, 40_000])
def test_pieces_keep_their_cuts(size):
    # never a one-row piece: 16,385 rows are one piece, 16,386 two
    assert list(_pieces(size)) == _pieces_as_a_list(size)


def test_pieces_are_made_as_they_are_read():
    # the list of cuts of a 2**30-row batch took about 6 MiB, of a 2**40-row one about 6 GiB
    tracemalloc.start()
    try:
        first = next(iter(_pieces(2**30)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (0, reduction._CHUNK)
    assert peak < 64 * 2**10


def test_staircase_cells_structure():
    cells = _staircase_cells(2, 8)
    assert cells.shape == (64, 3)
    assert np.abs(cells.sum(axis=1) - 1.0).max() < 1e-14
    assert cells.min() > 0
    # centroid of centroids is the simplex centroid
    assert cells.mean(axis=0) == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_quad_constant_is_exact():
    f1 = TestFunction.polynomial([1.0])
    assert c0_simplex_quad(A1_2, f1, 2, mesh=16) == sphere_sigma_volume(2)
    assert c0_simplex_quad(A1_3, f1, 3, mesh=8) == sphere_sigma_volume(3)


def test_quad_linear_is_exact():
    assert c0_simplex_quad(A1_2, F_X, 2, mesh=16) == pytest.approx(pi, abs=1e-13)
    assert c0_simplex_quad(A1_3, F_X, 3, mesh=16) == pytest.approx(2 * pi**2 / 3, abs=1e-12)


def test_quad_quadratic_values():
    assert c0_simplex_quad(A1_2, F_X2, 2, mesh=32) == pytest.approx(2 * pi / 3, abs=1e-3)
    assert c0_simplex_quad(A1_3, F_X2, 3, mesh=16) == pytest.approx(pi**2 / 3, abs=1e-2)


def test_quad_second_order_convergence():
    err16 = abs(c0_simplex_quad(A1_2, F_X2, 2, mesh=16) - 2 * pi / 3)
    err32 = abs(c0_simplex_quad(A1_2, F_X2, 2, mesh=32) - 2 * pi / 3)
    assert 3.8 < err16 / err32 < 4.2


def test_quad_one_coordinate_case():
    one = InvariantSymbol.from_poly([((1,), 1)], 1)
    assert c0_simplex_quad(one, F_X2, 1, mesh=8) == 1.0


def test_quad_validation():
    with pytest.raises(ValidationError):
        c0_simplex_quad(A1_2, F_X, 2, mesh=4)


def test_quad_refuses_a_symbol_poly():
    with pytest.raises(ValidationError, match="needs an invariant symbol"):
        c0_simplex_quad(A1_2.to_symbol_poly(), F_X, 2)


@pytest.mark.parametrize(
    "symbol,n",
    [(A1_3, 2), (InvariantSymbol.coordinate(2, 3), 2), (A1_2, 3), (A1_3, 1), (A1_2, 2.5), (A1_2, 0)],
    ids=["a1_on_3_at_2", "a3_on_3_at_2", "a1_on_2_at_3", "a1_on_3_at_1", "n_2.5", "n_0"],
)
def test_quad_refuses_a_symbol_of_another_size_before_any_cell(monkeypatch, symbol, n):
    # a1 on 3 coordinates at n = 2 gave pi, a3 an IndexError, a1 on 2 coordinates at n = 3 gave 6.5797
    monkeypatch.setattr(reduction, "_staircase_cells", lambda p, mesh: pytest.fail("walked the cells"))
    with pytest.raises(ValidationError, match="coordinates|n must be an integer >= 1"):
        c0_simplex_quad(symbol, F_X, n)


@pytest.mark.parametrize(
    "symbol,n",
    [(A1_2, 3), (InvariantSymbol.coordinate(2, 3), 2), (A1_2, 2.5), (A1_2, 0)],
    ids=["a1_on_2_at_3", "a3_on_3_at_2", "n_2.5", "n_0"],
)
def test_mc_refuses_a_symbol_of_another_size_before_drawing(monkeypatch, symbol, n):
    # a1 on 2 coordinates at n = 3 gave (6.5699, 0.0465), a3 at n = 2 an IndexError, n = 2.5 a TypeError
    monkeypatch.setattr(reduction, "sample_sphere", lambda n, size, rng: pytest.fail("drew points"))
    with pytest.raises(ValidationError, match="coordinates|n must be an integer >= 1"):
        c0_sphere_mc(symbol, F_X, n, samples=10_000)


def test_quad_cell_count_bounded_before_the_walk(monkeypatch):
    # the acceptance calls (n <= 3, mesh <= 48) walk far fewer cells than the bound
    assert 100 * 48**2 < reduction.MAX_SIMPLEX_CELLS
    for n, mesh in ((5, 33), (6, 32), (10**9, 8), (3, 10**9)):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="cells, over the limit"):
            c0_simplex_quad(InvariantSymbol.coordinate(0, min(n, 6)), F_X, n, mesh=mesh)
        assert time.perf_counter() - start < 0.1
    # the bound itself is allowed
    monkeypatch.setattr(reduction, "MAX_SIMPLEX_CELLS", 8**2)
    assert c0_simplex_quad(A1_3, F_X, 3, mesh=8) == pytest.approx(2 * pi**2 / 3, abs=1e-12)
    with pytest.raises(ValidationError):
        c0_simplex_quad(A1_3, F_X, 3, mesh=9)

