"""Pointwise symbol recovery from finite-level spectra.

Along the ray beta = k a through a rational simplex point a, the exact
eigenvalues lambda_{k a} of an invariant symbol converge to g(a) with a
power-series tail in 1/k.  Sampling the ray at multiples of the
denominator of a and extrapolating in 1/k therefore reads the symbol off
spectra computed at finitely many levels, which is an inverse problem:
nothing but the spectra (indexed by weight) enters.

The same data separates symbols: two symbols differing at a rational
point give different labeled spectra at every sufficiently divisible
level, even when coordinate symmetry makes the unlabeled multisets
match.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, log
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .multiindex import MAX_SECTOR_BYTES, MultiIndex, _check_int, _check_rational, _check_real
from .spectral import richardson_limit
from .toric import EquivariantSpectrum

__all__ = [
    "ExtrapolationResult",
    "RayResult",
    "Reconstruction",
    "DistinguishReport",
    "extrapolate_ray",
    "ray_levels",
    "reconstruct",
    "spectral_distinguishability",
    "loglog_slope",
]

# Bytes one ray level holds in an inverse run: level, weight, eigenvalues, spectrum
# and output text (680-840 measured on 64-bit CPython 3.11, n = 2..5, one ray a level).
_RAY_LEVEL_BYTES = 1024


@dataclass(frozen=True)
class ExtrapolationResult:
    limit: float
    error: float  # last-order correction size; an estimate, not a bound
    low_confidence: bool


def extrapolate_ray(ks: Sequence[int], values: Sequence, order: int) -> ExtrapolationResult:
    """Accelerated limit of a ray series with a self-reported error size.

    ``order`` 0 takes the last value as-is.  Otherwise the reported error
    is the gap between the order and order-1 accelerated limits, and the
    result is flagged low confidence when that correction exceeds the
    last raw increment of the series, the usual signature of the
    extrapolation amplifying noise instead of cancelling terms.
    """
    _check_int(order, "order", 0, "inverse.extrapolate_ray")
    needed = max(2, order + 1)
    if len(ks) != len(values) or len(ks) < needed:
        raise ValidationError(
            f"need at least {needed} ray samples for order {order}",
            operation="inverse.extrapolate_ray",
        )
    if order == 0:
        limit = values[-1]
        return ExtrapolationResult(limit=float(limit), error=float(abs(values[-1] - values[-2])), low_confidence=False)
    limit = richardson_limit(ks, values, order)
    prev = richardson_limit(ks, values, order - 1)
    err = abs(limit - prev)
    raw = abs(values[-1] - values[-2])
    return ExtrapolationResult(limit=float(limit), error=float(err), low_confidence=bool(err > raw > 0))


def ray_levels(denominator: int, k_max: int, spacing: str = "geometric") -> list[int]:
    """Levels at which the ray through a point of given denominator is integral.

    "all" returns every multiple of the denominator up to k_max;
    "geometric" halves downward from the largest multiple, keeping the
    series length logarithmic in k_max.
    """
    q = _check_int(denominator, "denominator", 1, "inverse.ray_levels")
    _check_int(k_max, "k_max", 1, "inverse.ray_levels")
    if spacing == "all":
        return list(range(q, k_max + 1, q))
    if spacing == "geometric":
        ks = []
        k = q * (k_max // q)
        while k >= q:
            ks.append(k)
            k = q * (k // (2 * q))
        return ks[::-1]
    raise ValidationError("spacing must be 'all' or 'geometric'", operation="inverse.ray_levels")


def _check_ray_reads(points, k_maxes: list[int], spacing: str, operation: str) -> None:
    """Refuse ray reads up to each of k_maxes, charged as one sum, that would pass
    MAX_SECTOR_BYTES: each ray holds one level, weight and eigenvalue per level, and a ray
    of denominator q has k_max // q levels, or its bit length when not "all"."""
    levels = 0
    for q in (lcm(*(c.denominator for c in p)) for p in points):
        levels += sum(k_max // q if spacing == "all" else (k_max // q).bit_length() for k_max in k_maxes)
    if levels * _RAY_LEVEL_BYTES > MAX_SECTOR_BYTES:
        raise ValidationError(f"reading {levels} ray levels needs {levels * _RAY_LEVEL_BYTES} "
                              f"bytes, over the {MAX_SECTOR_BYTES}-byte limit", operation=operation)


@dataclass(frozen=True)
class RayResult:
    point: tuple[Fraction, ...]
    ks: tuple[int, ...]
    estimate: float | None
    error: float | None
    low_confidence: bool
    missing: bool


@dataclass(frozen=True)
class Reconstruction:
    rays: tuple[RayResult, ...]

    def max_error(self, truth: Callable) -> float:
        errs = [abs(r.estimate - float(truth(r.point))) for r in self.rays if not r.missing]
        if not errs:
            raise ValidationError("every grid point is missing", operation="inverse.Reconstruction")
        return max(errs)


def _as_point(pt, n: int) -> tuple[Fraction, ...]:
    """pt as Fractions if it is a list or tuple of n coordinates that pass _check_rational and lie on the unit simplex."""
    if not isinstance(pt, (list, tuple)) or len(pt) != n:
        raise ValidationError(f"grid point {pt!r} must be a list or tuple of {n} coordinates", operation="inverse.reconstruct")
    point = tuple(_check_rational(c, "grid coordinate", "inverse.reconstruct") for c in pt)
    if any(c < 0 for c in point) or sum(point) != 1:
        raise ValidationError(f"grid point {pt} is not on the unit simplex", operation="inverse.reconstruct")
    return point


def reconstruct(
    oracle: Callable[[int], EquivariantSpectrum],
    n: int,
    grid: Sequence,
    k_max: int,
    order: int = 1,
    spacing: str = "geometric",
) -> Reconstruction:
    """Recover symbol values on rational simplex points from spectra alone.

    ``oracle`` maps a level k to the equivariant spectrum of that level.
    Every ray's levels are planned first; then each distinct level gets
    one oracle call and one ``eigenvalues_of`` batch over the weights k a
    of its rays, so no fiber is enumerated.  A grid point whose ray meets
    fewer than max(2, order + 1) usable levels is reported missing rather
    than extrapolated.  Exact rational eigenvalues are extrapolated
    exactly, so "all" spacing with a high order reaches roundoff-limited
    accuracy.  n, k_max and order pass _check_int first, each grid point _as_point,
    and reads that would pass MAX_SECTOR_BYTES are refused (_check_ray_reads)
    before any ray is planned.
    """
    _check_int(n, "n", 1, "inverse.reconstruct")
    _check_int(k_max, "k_max", 1, "inverse.reconstruct")
    _check_int(order, "order", 0, "inverse.reconstruct")
    points = [_as_point(pt, n) for pt in grid]
    _check_ray_reads(points, [k_max], spacing, "inverse.reconstruct")
    plans = [(point, ray_levels(lcm(*(c.denominator for c in point)), k_max, spacing)) for point in points]
    needed = max(2, order + 1)
    reads: dict[int, dict[MultiIndex, Fraction | None]] = {}
    for point, ks in plans:
        for k in ks if len(ks) >= needed else ():
            reads.setdefault(k, {})[tuple(int(c * k) for c in point)] = None
    for k, betas in reads.items():
        reads[k] = dict(zip(betas, oracle(k).eigenvalues_of(list(betas))))

    rays = []
    for point, ks in plans:
        if len(ks) < needed:
            rays.append(RayResult(point=point, ks=tuple(ks), estimate=None, error=None, low_confidence=False, missing=True))
            continue
        lams = [reads[k][tuple(int(c * k) for c in point)] for k in ks]
        res = extrapolate_ray(ks, lams, order)
        rays.append(RayResult(point=point, ks=tuple(ks), estimate=res.limit, error=res.error,
                              low_confidence=res.low_confidence, missing=False))
    return Reconstruction(rays=tuple(rays))


@dataclass(frozen=True)
class DistinguishReport:
    k_max: int
    tol: float
    first_labeled_difference: int | None
    first_multiset_difference: int | None

    @property
    def labeled_differ(self) -> bool:
        return self.first_labeled_difference is not None

    @property
    def multiset_differ(self) -> bool:
        return self.first_multiset_difference is not None

    def to_json(self) -> dict:
        return {
            "k_max": self.k_max,
            "tol": self.tol,
            "labeled_differ": self.labeled_differ,
            "first_labeled_difference": self.first_labeled_difference,
            "multiset_differ": self.multiset_differ,
            "first_multiset_difference": self.first_multiset_difference,
        }


def _differ(xs: Sequence[int], dx: int, ys: Sequence[int], dy: int, tol: float) -> bool:
    """Whether the eigenvalues xs / dx and ys / dy differ pairwise by more than tol.

    (x dy - y dx) / (dx dy) is one correctly rounded division of the exact
    difference, so it is the float of the Fraction difference.
    """
    if len(xs) != len(ys):
        return True
    dd = dx * dy
    return any(abs(x * dy - y * dx) / dd > tol for x, y in zip(xs, ys))


def spectral_distinguishability(
    oracle_a: Callable[[int], EquivariantSpectrum],
    oracle_b: Callable[[int], EquivariantSpectrum],
    k_max: int,
    tol: float = 1e-12,
) -> DistinguishReport:
    """Compare two spectral families, labeled and as multisets.

    Labeled comparison matches eigenvalues on equal weights beta;
    multiset comparison sorts each level's eigenvalues first, so
    coordinate-permuted symbols tie there while still separating in the
    labeled sense.  tol must pass _check_real with low 0: no gap exceeds NaN.
    """
    _check_int(k_max, "k_max", 1, "inverse.spectral_distinguishability")
    tol = _check_real(tol, "tol", "inverse.spectral_distinguishability", low=0)
    first_labeled = None
    first_multiset = None
    for k in range(1, k_max + 1):
        sa = oracle_a(k)
        sb = oracle_b(k)
        if first_labeled is None and (sa.fiber != sb.fiber or _differ(
                sa.numerators, sa.denominator, sb.numerators, sb.denominator, tol)):
            first_labeled = k
        # one positive denominator per spectrum: numerators sort like eigenvalues
        if first_multiset is None and _differ(
            sorted(sa.numerators), sa.denominator, sorted(sb.numerators), sb.denominator, tol
        ):
            first_multiset = k
        if first_labeled is not None and first_multiset is not None:
            break
    return DistinguishReport(
        k_max=k_max, tol=tol,
        first_labeled_difference=first_labeled,
        first_multiset_difference=first_multiset,
    )


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x; the observed decay rate.
    Every x and y must pass _check_real with low 0, and be nonzero."""
    xs = [_check_real(x, "xs", "inverse.loglog_slope", low=0) for x in xs]
    ys = [_check_real(y, "ys", "inverse.loglog_slope", low=0) for y in ys]
    if len(xs) != len(ys) or len(set(xs)) < 2:
        raise ValidationError("need points at two or more distinct x", operation="inverse.loglog_slope")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValidationError("log-log slope needs positive data", operation="inverse.loglog_slope")
    lx = np.array([log(x) for x in xs])
    ly = np.array([log(y) for y in ys])
    lx -= lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))