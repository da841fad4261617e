"""Leading-coefficient oracles on the reduced space.

The scaled measures of the spectral module converge to an integral of the
test function composed with the symbol over a compact reduced space.  For
the full sphere that space fibers over the unit simplex carrying the
uniform (Dirichlet) distribution of a = (|z_1|^2, ..., |z_n|^2)/|z|^2, and
its total volume under this package's calibration is

    sigma_vol(n) = (2 pi)^(n-1) / (n-1)!.

Two independent evaluations of the leading coefficient are provided:

* c0_sphere_mc: Monte Carlo over uniform sphere points, works for any
  symbol, returns (estimate, stderr);
* c0_simplex_quad: midpoint rule on a uniform simplicial refinement of
  the simplex, deterministic, O(mesh^-2), invariant symbols only.

toric.fiber_volume(diagonal_circle(n)) recovers sigma_vol(n) exactly from
dimension counts alone, which pins the constant without any integral.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial, isfinite, pi
from typing import Iterable

import numpy as np

from .errors import ToeplabError, ValidationError
from .hardy_sphere import InvariantSymbol, SymbolPoly
from .multiindex import MAX_SECTOR_BYTES, _is_int
from .spectral import TestFunction

__all__ = [
    "sphere_sigma_volume",
    "sample_sphere",
    "mean_stderr",
    "c0_sphere_mc",
    "c0_simplex_quad",
]

_CHUNK = 16_384  # points a Monte Carlo oracle handles per pass, few enough to stay in cache

# Most samples a Monte Carlo oracle may take.  A sample costs about 0.2 us on the
# sphere (n = 3), 0.09 us on product_of_lines' polytope and 0.25 us on diagonal_circle(4)'s,
# which keeps one draw in six (2-vCPU Xeon, numpy 2.4), so 10**8 samples run 9 to 25 s,
# more where the polytope sampler rejects more.
MAX_SAMPLES = 10**8

# Most cells c0_simplex_quad may walk, mesh^(n-1), one at a time in Python.  A cell costs
# 16 us at n = 3 and 4, 19 us at n = 5 and 23 us at n = 6 (2-vCPU Xeon, CPython 3.11, numpy
# 2.4) and 250 bytes kept to the end, so 2**20 cells (n = 5 at mesh 32) take 20-25 s, 250 MB.
MAX_SIMPLEX_CELLS = 2**20


def sphere_sigma_volume(n: int) -> float:
    """(2 pi)^(n-1) / (n-1)!, the calibrated reduced-space volume."""
    if n < 1:
        raise ValidationError("n must be positive", operation="reduction.sphere_sigma_volume")
    return (2.0 * pi) ** (n - 1) / factorial(n - 1)


def sample_sphere(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit sphere of C^n, shape (size, n) complex.

    The draws are exactly those of ``rng.standard_normal((size, n, 2))``,
    so the points are bit-stable and independent of batching.  The norm is
    np.linalg.norm's sqrt(sum Re(conj(z) z)), a fused complex product that
    a*a + b*b misses in the last bit; w *= 1/norm is complex / real.
    """
    w = rng.standard_normal((size, n, 2))
    z = w.view(complex)[..., 0]
    w *= (1.0 / np.sqrt(np.add.reduce((z.conj() * z).real, axis=1)))[:, None, None]
    return z


def _symbol_values(symbol, z: np.ndarray) -> np.ndarray:
    if isinstance(symbol, SymbolPoly):
        return symbol.evaluate(z).real
    if isinstance(symbol, InvariantSymbol):
        return symbol.eval_array(np.abs(z) ** 2)
    raise ValidationError("symbol must be SymbolPoly or InvariantSymbol", operation="reduction.c0_sphere_mc")


def _check_samples(samples: int, operation: str) -> None:
    """Refuse a sample count that is not an integer from 10**4 to MAX_SAMPLES."""
    if not _is_int(samples) or not 10_000 <= samples <= MAX_SAMPLES:
        raise ValidationError(f"samples {samples!r} must be an integer from 10000 to {MAX_SAMPLES}", operation=operation)


def _check_batch(size: int, row_bytes: int, operation: str) -> None:
    """Refuse before drawing an empty batch, whose loop never ends, or one past MAX_SECTOR_BYTES."""
    if size < 1:
        raise ValidationError("batch_size must be at least 1", operation=operation)
    if size * row_bytes > MAX_SECTOR_BYTES:
        raise ValidationError(f"a batch of {size} needs {size * row_bytes} bytes, over {MAX_SECTOR_BYTES}", operation=operation)


def _pieces(size: int) -> list[tuple[int, int]]:
    """(start, stop) of a batch's pieces of _CHUNK points, none of one point."""
    cuts = [0, *range(_CHUNK, size - 1, _CHUNK), size]
    return list(zip(cuts, cuts[1:]))


def mean_stderr(batches: Iterable[np.ndarray], samples: int) -> tuple[float, float]:
    """Mean and standard error of ``samples`` values arriving in batches.

    Each batch adds its own float sum and sum of squares, so results depend
    on the batching only through summation grouping.  It consumes its batches:
    each is squared in place and released before the next is pulled, so a
    caller passes arrays nothing else reads.  A value count other than
    ``samples``, or below 2, is refused, as is an inf or NaN mean or variance.
    """
    total = total_sq = 0.0
    count = 0
    for vals in batches:
        count += vals.size
        total += float(np.sum(vals))
        vals *= vals
        total_sq += float(np.sum(vals))
        del vals  # before the generator builds the next batch
    if count != samples or count < 2:
        raise ValidationError(
            f"{count} values arrived for samples={samples!r}; need equal counts of at least 2",
            operation="reduction.mean_stderr",
        )
    mean = total / samples
    var = (total_sq - samples * mean * mean) / (samples - 1)
    if not (isfinite(mean) and isfinite(var)):
        raise ToeplabError(f"sample mean {mean} or variance {var} is not finite", operation="reduction.mean_stderr")
    return mean, (max(0.0, var) / samples) ** 0.5


def c0_sphere_mc(
    symbol,
    f: TestFunction,
    n: int,
    samples: int = 1_000_000,
    seed: int = 0,
    batch_size: int = 250_000,
) -> tuple[float, float]:
    """Monte Carlo leading coefficient sigma_vol(n) * E[f(F(z))].

    The sample stream is independent of the batch size, which sets only
    the summation grouping.  A batch is drawn and evaluated in cache-sized
    pieces of _CHUNK points, never of one (numpy's in-place complex product
    rounds differently on one element): each value has one pass's bits.
    """
    _check_batch(min(batch_size, samples), 8, "reduction.c0_sphere_mc")  # one value per point
    _check_samples(samples, "reduction.c0_sphere_mc")
    rng = np.random.default_rng(seed)

    def batch(size: int) -> np.ndarray:
        vals = np.empty(size)
        for lo, hi in _pieces(size):
            vals[lo:hi] = f(_symbol_values(symbol, sample_sphere(n, hi - lo, rng)))
        return vals

    batches = (batch(min(batch_size, samples - done)) for done in range(0, samples, batch_size))
    mean, stderr = mean_stderr(batches, samples)
    vol = sphere_sigma_volume(n)
    return vol * mean, vol * stderr


def _staircase_cells(p: int, mesh: int) -> np.ndarray:
    """Centroids of the uniform refinement of the simplex, in simplex coords.

    The (n-1)-simplex is parametrized by the staircase region
    1 >= x_1 >= ... >= x_p >= 0 (p = n-1); its refinement at scale 1/mesh
    consists of the lattice path simplices (v, perm) with v weakly
    decreasing and perm incrementing tied coordinates left to right.
    There are mesh^p cells of equal volume.  Returns an array of centroid
    barycentric coordinates, shape (mesh^p, p+1).
    """
    cells = []
    for v in product(range(mesh), repeat=p):
        if any(v[i] < v[i + 1] for i in range(p - 1)):
            continue
        ties = [i for i in range(p - 1) if v[i] == v[i + 1]]
        for perm in permutations(range(p)):
            if any(perm.index(i) > perm.index(i + 1) for i in ties):
                continue
            # vertices of the path simplex, accumulated in place
            centroid = np.array(v, dtype=float)
            step = np.array(v, dtype=float)
            for coord in perm:
                step[coord] += 1.0
                centroid += step
            centroid /= (p + 1) * mesh
            # barycentric: 1 - x_1, x_1 - x_2, ..., x_p
            cells.append(-np.diff(np.concatenate(([1.0], centroid, [0.0]))))
    return np.array(cells)


def c0_simplex_quad(symbol: InvariantSymbol, f: TestFunction, n: int, mesh: int = 32) -> float:
    """Deterministic leading coefficient for invariant symbols.

    Returns (2 pi)^(n-1) * integral over the unit simplex of f(g(a)), the simplex
    carrying Lebesgue measure of total mass 1/(n-1)!.  Midpoint (centroid) evaluation
    on the uniform refinement converges at O(mesh^-2); f = 1 returns sigma_vol(n)
    exactly.  A refinement of more than MAX_SIMPLEX_CELLS cells is refused.
    """
    if not isinstance(symbol, InvariantSymbol):
        raise ValidationError("simplex quadrature needs an invariant symbol", operation="reduction.c0_simplex_quad")
    if mesh < 8:
        raise ValidationError("mesh must be at least 8 subdivisions per edge", operation="reduction.c0_simplex_quad")
    if n < 1:
        raise ValidationError("n must be positive", operation="reduction.c0_simplex_quad")
    if n == 1:
        return f(symbol.evaluate((1.0,)))
    if mesh ** min(n - 1, MAX_SIMPLEX_CELLS.bit_length()) > MAX_SIMPLEX_CELLS:  # mesh >= 8: a capped power decides
        raise ValidationError(f"mesh {mesh} at n = {n} needs {mesh}^{n - 1} cells, over the limit of {MAX_SIMPLEX_CELLS}",
                              operation="reduction.c0_simplex_quad")
    pts = _staircase_cells(n - 1, mesh)
    return float(np.mean(f(symbol.eval_array(pts)))) * sphere_sigma_volume(n)

