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
one simplex of determinant 1, which pins the constant without any integral.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from math import factorial, isfinite, pi
from typing import Iterable, Iterator

import numpy as np

from .errors import ToeplabError, ValidationError
from .hardy_sphere import InvariantSymbol, SymbolPoly
from .multiindex import _check_bytes, _check_dimension, _check_int, _is_int
from .spectral import TestFunction

__all__ = [
    "sphere_sigma_volume",
    "sample_sphere",
    "mean_stderr",
    "c0_sphere_mc",
    "c0_simplex_quad",
]

_CHUNK = 16_384  # points a Monte Carlo oracle handles per pass, few enough to stay in cache

# Fewest and most samples a Monte Carlo oracle may take.  A sample costs about 0.11 us on the
# sphere (n = 3), 0.03 us on product_of_lines' and diagonal_circle(4)'s polytopes, 0.15 us on
# diagonal_circle(11)'s and 0.56 us on the 7-cube's 5,040 simplices (2-vCPU Xeon, numpy 2.4),
# so 10**8 samples run 3 to 15 s, longer on a polytope of thousands of simplices (toric.MAX_SIMPLICES).
MIN_SAMPLES = 10**4
MAX_SAMPLES = 10**8

# Most cells c0_simplex_quad may walk, mesh^(n-1), one at a time in Python.  A cell costs
# 16 us at n = 3 and 4, 19 us at n = 5 and 23 us at n = 6 (2-vCPU Xeon, CPython 3.11, numpy
# 2.4) and 250 bytes kept to the end, so 2**20 cells (n = 5 at mesh 32) take 20-25 s, 250 MB.
MAX_SIMPLEX_CELLS = 2**20


def sphere_sigma_volume(n: int) -> float:
    """(2 pi)^(n-1) / (n-1)!, the calibrated reduced-space volume."""
    _check_int(n, "n", 1, "reduction.sphere_sigma_volume")
    return (2.0 * pi) ** (n - 1) / factorial(n - 1)


def sample_sphere(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit sphere of C^n, shape (size, n) complex.

    The draws are exactly those of ``rng.standard_normal((size, n, 2))``,
    so the points are bit-stable and independent of batching.  The norm is
    np.linalg.norm's sqrt(sum Re(conj(z) z)), a fused complex product that
    a*a + b*b misses in the last bit; w *= 1/norm is complex / real.
    """
    _check_int(n, "n", 1, "reduction.sample_sphere")
    w = rng.standard_normal((size, n, 2))
    z = w.view(complex)[..., 0]
    w *= (1.0 / np.sqrt(np.add.reduce((z.conj() * z).real, axis=1)))[:, None, None]
    return z


def _symbol_values(symbol, z: np.ndarray) -> np.ndarray:
    return symbol.evaluate(z).real if isinstance(symbol, SymbolPoly) else symbol.eval_array(np.abs(z) ** 2)


def _check_run(samples: int, batch_size: int, seed: int, operation: str) -> None:
    """Refuse, in this order and before any draw, a batch that is not an integer of at least 2 (an empty one never
    ends, a one-point piece rounds differently), a buffer of min(batch_size, samples) values _check_bytes refuses,
    a sample count that is not an integer from MIN_SAMPLES to MAX_SAMPLES and a seed numpy rejects."""
    _check_int(batch_size, "batch_size", 2, operation)
    held = min(batch_size, samples) if _is_int(samples) else batch_size  # _monte_carlo's one value buffer
    _check_bytes(8 * held, f"a batch of {held} values", operation)
    _check_int(samples, "samples", MIN_SAMPLES, operation, high=MAX_SAMPLES)
    _check_int(seed, "seed", 0, operation)


def _pieces(size: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of a batch's pieces of _CHUNK points, none of one point, made as they are read."""
    inner = range(_CHUNK, size - 1, _CHUNK)
    return zip(chain((0,), inner), chain(inner, (size,)))


def mean_stderr(batches: Iterable[np.ndarray], samples: int) -> tuple[float, float]:
    """Mean and standard error of ``samples`` values arriving in batches.

    Each batch adds its own float sum and sum of squares, so results depend
    on the batching only through summation grouping.  It consumes its batches:
    each is squared in place, so a caller passes arrays nothing else reads
    until the next is pulled.  ``samples`` below 2 or not an int, checked before
    any batch, a value count other than it, and an inf or NaN mean or variance are refused.
    """
    _check_int(samples, "samples", 2, "reduction.mean_stderr")
    total = total_sq = 0.0
    count = 0
    for vals in batches:
        count += vals.size
        total += float(np.sum(vals))
        vals *= vals
        total_sq += float(np.sum(vals))
    if count != samples:
        raise ValidationError(
            f"{count} values arrived for samples={samples!r}; need equal counts",
            operation="reduction.mean_stderr",
        )
    mean = total / samples
    var = (total_sq - samples * mean * mean) / (samples - 1)
    if not (isfinite(mean) and isfinite(var)):
        raise ToeplabError(f"sample mean {mean} or variance {var} is not finite", operation="reduction.mean_stderr")
    return mean, (max(0.0, var) / samples) ** 0.5


def _monte_carlo(draw, volume: float, samples: int, seed: int, batch_size: int) -> tuple[float, float]:
    """``volume`` times the mean and stderr of ``samples`` values in batches of up to ``batch_size``, for both oracles.

    ``draw(rng, rows)`` draws ``rows`` rows from ``default_rng(seed)`` and returns one value for each.
    A batch of ``need`` values walks the ``_pieces`` of ``need`` rows, so it draws exactly the rows it
    keeps, never a piece of one row (numpy's in-place complex product rounds differently on one
    element): a last batch of one value draws two rows and keeps the first.  Each value has one pass's
    bits and the pieces' draws are the batch's stream.  A piece's values go into one buffer of
    min(batch_size, samples) for the whole call and are released before the next draw; mean_stderr
    reads each batch as a view of the buffer.  Each oracle passes its arguments through _check_run first.
    """
    rng = np.random.default_rng(seed)
    vals = np.empty(min(batch_size, samples))

    def batches():
        left = samples
        while left:
            need = min(batch_size, left)
            for start, stop in _pieces(max(need, 2)):
                vals[start:min(stop, need)] = draw(rng, stop - start)[: need - start]
            left -= need
            yield vals[:need]

    mean, stderr = mean_stderr(batches(), samples)
    return volume * mean, volume * stderr


def c0_sphere_mc(
    symbol,
    f: TestFunction,
    n: int,
    samples: int = 1_000_000,
    seed: int = 0,
    batch_size: int = 250_000,
) -> tuple[float, float]:
    """Monte Carlo leading coefficient sigma_vol(n) * E[f(F(z))].

    Every draw is kept, so the batch size sets only the summation grouping;
    past the sample count it costs nothing, as the loop holds min(batch_size, samples) values.
    """
    if not isinstance(symbol, (SymbolPoly, InvariantSymbol)):
        raise ValidationError("symbol must be SymbolPoly or InvariantSymbol", operation="reduction.c0_sphere_mc")
    _check_dimension(symbol, n, "reduction.c0_sphere_mc")
    _check_run(samples, batch_size, seed, "reduction.c0_sphere_mc")
    draw = lambda rng, rows: f(_symbol_values(symbol, sample_sphere(n, rows, rng)))
    return _monte_carlo(draw, sphere_sigma_volume(n), samples, seed, batch_size)


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
    _check_int(mesh, "mesh", 8, "reduction.c0_simplex_quad")  # subdivisions per edge
    # mesh >= 8: a capped power decides; it comes first because no symbol matches an n past the limit
    if _is_int(n) and mesh ** min(n - 1, MAX_SIMPLEX_CELLS.bit_length()) > MAX_SIMPLEX_CELLS:
        raise ValidationError(f"mesh {mesh} at n = {n} needs {mesh}^{n - 1} cells, over the limit of {MAX_SIMPLEX_CELLS}",
                              operation="reduction.c0_simplex_quad")
    _check_dimension(symbol, n, "reduction.c0_simplex_quad")
    if n == 1:
        return f(symbol.evaluate((1.0,)))
    pts = _staircase_cells(n - 1, mesh)
    return float(np.mean(f(symbol.eval_array(pts)))) * sphere_sigma_volume(n)

