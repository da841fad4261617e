"""Equivariant spectra over subtorus weight fibers.

An invariant polynomial symbol acts diagonally on monomials, so the block
attached to a subtorus level decomposes by the lattice fiber
{beta >= 0 : Bt beta = k alpha}: its spectrum is the multiset of exact
eigenvalues lambda_beta over fiber points.  Scaled by (2 pi / k)^(n-d)
the measures converge to an integral over the level polytope
P = {a >= 0 : Bt a = alpha}, provided P is compact with simple vertices
whose column minors are unimodular.  This module computes the spectra,
runs that regularity check exactly, and estimates the limit integral as
the exact Ehrhart volume of P times a rejection-sampled mean, giving an
oracle that never sees the operator side.

A spectrum evaluates lookups at given weights in one batch per
``eigenvalues_of`` call.  On first use it keeps its fiber points and their
exact eigenvalues as integer numerators over one common denominator,
computed in one batch; floats are rounded from them only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, pi
from operator import mul
from typing import Sequence

import numpy as np

from ._exact import det_int, divided_differences, integer_nullspace, solve_rectangular
from .errors import RegularityError, ToeplabError, ValidationError
from .hardy_sphere import InvariantSymbol, _invariant_numerators
from .multiindex import (
    MultiIndex,
    SubtorusData,
    _check_dimension,
    _check_int,
    _check_ints,
    _check_real,
    diagonal_circle,
    enumerate_fiber,
    fiber_polytope_vertices,
    full_torus,
)
from .reduction import _check_run, _monte_carlo
from .spectral import TestFunction, scaled_measure

__all__ = [
    "EquivariantSpectrum",
    "VertexReport",
    "RegularFreeReport",
    "EXAMPLE_SUBTORI",
    "equivariant_spectrum",
    "fiber_measure",
    "fiber_measure_series",
    "fiber_volume",
    "regular_free_check",
    "theorem2_leading",
]


@lru_cache(maxsize=1)
def _fiber(sub: SubtorusData, k: int) -> tuple[MultiIndex, ...]:
    """The last fiber read: two symbols' spectra on one level enumerate it once."""
    return tuple(enumerate_fiber(sub, k))


@dataclass(frozen=True)
class EquivariantSpectrum:
    """Eigenvalues of an invariant symbol on one weight fiber.

    ``eigenvalues_of`` evaluates only the weights it is given.  The
    ``fiber`` and its table are computed on first use: the exact eigenvalue
    at ``fiber[i]`` is ``numerators[i] / denominator``, integers over one
    positive common denominator, so equal-level spectra compare and sort
    without Fractions; ``eigenvalues`` rounds each quotient correctly when read.
    """

    symbol: InvariantSymbol
    sub: SubtorusData
    k: int

    fiber = cached_property(lambda self: _fiber(self.sub, self.k))
    _integers = cached_property(lambda self: _invariant_numerators(self.symbol, self.fiber))  # (numerators, denominator)
    numerators = property(lambda self: self._integers[0])
    denominator = property(lambda self: self._integers[1])
    count = property(lambda self: len(self.fiber))
    eigenvalues = property(lambda self: (np.array(self.numerators, dtype=object) / self.denominator).astype(float))

    def eigenvalues_of(self, betas: Sequence[Sequence[int]]) -> list[Fraction]:
        """Exact eigenvalues at fiber points, in one batch; each must pass _check_ints (n entries >= 0) and Bt beta = k alpha."""
        keys = [_check_ints(beta, "beta", 0, "toric.EquivariantSpectrum", length=self.sub.n) for beta in betas]
        Bt, target = self.sub.weight_matrix, [self.k * a for a in self.sub.alpha]
        for key in keys:
            if [sum(map(mul, row, key)) for row in Bt] != target:
                raise ValidationError(f"beta {key} is not on the fiber", operation="toric.EquivariantSpectrum")
        nums, den = _invariant_numerators(self.symbol, keys)
        return [Fraction(num, den) for num in nums]

    def eigenvalue_of(self, beta: Sequence[int]) -> Fraction:
        return self.eigenvalues_of([beta])[0]


def equivariant_spectrum(symbol: InvariantSymbol, sub: SubtorusData, k: int) -> EquivariantSpectrum:
    """Exact spectrum of the symbol on the level-k fiber, graded-lex order; fiber_polytope_vertices
    checks the fiber finite here, and it is enumerated only when the table is first read."""
    if not isinstance(symbol, InvariantSymbol):
        raise ValidationError("equivariant spectra need an invariant symbol", operation="toric.equivariant_spectrum")
    _check_dimension(symbol, sub.n, "toric.equivariant_spectrum")
    _check_int(k, "k", 1, "toric.equivariant_spectrum")
    fiber_polytope_vertices(sub)
    return EquivariantSpectrum(symbol=symbol, sub=sub, k=k)


def fiber_measure(spectrum: EquivariantSpectrum, f: TestFunction) -> float:
    """sum_beta f(lambda_beta) over the fiber."""
    return float(np.sum(f(spectrum.eigenvalues)))


def fiber_measure_series(
    symbol: InvariantSymbol, f: TestFunction, sub: SubtorusData, k_list: Sequence[int]
) -> list[tuple[int, int, float, float]]:
    """(k, fiber size, measure, scaled measure) rows for a k window."""
    m = sub.n - sub.d
    rows = []
    for k in k_list:
        spec = equivariant_spectrum(symbol, sub, k)
        mu = fiber_measure(spec, f)
        rows.append((k, spec.count, mu, scaled_measure(mu, m, k)))
    return rows


def fiber_volume(sub: SubtorusData) -> float:
    """Exact limit of (2 pi / k)^m * #fiber(k), m = n - d, along k in qN.

    q is the lcm of the vertex denominators of the level polytope P, so qP
    is a lattice polytope and #fiber(q t) is its Ehrhart polynomial in t,
    of degree at most m (Beck & Robins, ch. 3).  One Newton table of the
    counts at k = q, 2q, ..., (m+2)q, in Fractions, reads that polynomial
    in k: its coefficient c[m+1] must vanish, which certifies the degree,
    else no volume is returned, and c[m] is the leading coefficient; the
    volume is (2 pi)^m times it.  Off qN a fiber may be smaller or empty
    (Bt = (2, 2) has none at odd k), so the limit is only taken along qN.
    The sphere is the diagonal_circle(n) case, (2 pi)^(n-1) / (n-1)!.
    """
    m = sub.n - sub.d
    q = lcm(*(c.denominator for v in fiber_polytope_vertices(sub) for c in v))
    ks = [q * t for t in range(1, m + 3)]
    counts = [len(enumerate_fiber(sub, k)) for k in ks]
    coeffs = divided_differences(ks, [Fraction(c) for c in counts])
    if coeffs[m + 1]:
        raise ToeplabError(
            f"fiber counts {counts} at k = {ks} are not a polynomial of degree {m} in k",
            operation="toric.fiber_volume",
        )
    return (2.0 * pi) ** m * coeffs[m].numerator / coeffs[m].denominator


@dataclass(frozen=True)
class VertexReport:
    vertex: tuple[Fraction, ...]
    support: tuple[int, ...]
    minor: int | None
    free: bool


@dataclass(frozen=True)
class RegularFreeReport:
    ok: bool
    vertices: tuple[VertexReport, ...]
    message: str

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "message": self.message,
            "vertices": [
                {
                    "vertex": [str(c) for c in v.vertex],
                    "support": list(v.support),
                    "minor": v.minor,
                    "free": v.free,
                }
                for v in self.vertices
            ],
        }


def regular_free_check(sub: SubtorusData) -> RegularFreeReport:
    """Simplicity and unimodularity of the level polytope, vertex by vertex.

    A vertex passes when its support has exactly d coordinates and the
    corresponding d x d minor of Bt has determinant +-1; a smaller
    support means the vertex is degenerate and the check fails there.
    """
    verts = fiber_polytope_vertices(sub)
    if not verts:
        raise ValidationError("level polytope is empty", operation="toric.regular_free_check")
    reports = []
    bad = None
    for v in verts:
        support = tuple(i for i, c in enumerate(v) if c != 0)
        if len(support) < sub.d:
            reports.append(VertexReport(vertex=v, support=support, minor=None, free=False))
            bad = bad or f"vertex {tuple(map(str, v))} is degenerate (support {support})"
            continue
        minor = abs(det_int([[sub.weight_matrix[r][c] for c in support] for r in range(sub.d)]))
        free = minor == 1
        reports.append(VertexReport(vertex=v, support=support, minor=minor, free=free))
        if not free:
            bad = bad or f"vertex {tuple(map(str, v))} has minor {minor}"
    ok = all(r.free for r in reports)
    message = "all vertices simple with unimodular minors" if ok else bad
    return RegularFreeReport(ok=ok, vertices=tuple(reports), message=message)


def _vertex_y_coordinates(
    verts: list[tuple[Fraction, ...]], basis: list[list[int]], a0: tuple[Fraction, ...]
) -> list[list[Fraction]]:
    """Each vertex's exact y in v = a0 + sum_j y_j basis[j], always solvable: v - a0 lies in ker Bt, which the basis spans."""
    rows = [[Fraction(b[i]) for b in basis] for i in range(len(a0))]
    return [solve_rectangular(rows, [c - c0 for c, c0 in zip(v, a0)]) for v in verts]


def theorem2_leading(
    symbol: InvariantSymbol,
    f: TestFunction,
    sub: SubtorusData,
    samples: int = 200_000,
    seed: int = 0,
    batch_size: int = 100_000,
    volume: float | None = None,
) -> tuple[float, float]:
    """Operator-free prediction of the scaled-measure limit, with stderr.

    The limit is V * E[f(g(a / |a|_1))] with a uniform on the level
    polytope; eigenvalues live near g(beta / |beta|), so polytope points
    are renormalized onto the simplex before evaluation (the degree
    |beta| need not be constant across one fiber).  V is the exact
    fiber_volume unless supplied, and a supplied one must pass _check_real
    with low 0, checked with the other arguments.  Sampling rejects from the bounding
    box of the polytope in primitive nullspace coordinates, where the
    uniform measure matches the count normalization; the mean itself is
    chart-independent.  For a fixed seed and batch size the result is bit-stable;
    samples, batch and seed pass reduction._check_run before any vertex is computed,
    and a batch past the sample count costs nothing.  Each piece of draws is scaled
    in place by columns to the bits of rng.uniform(lo, hi), mapped, tested, and its
    kept rows normalized and evaluated while still in cache.  Requires the
    regular-free check to pass.  d = n has a zero-dimensional fiber and returns the
    exact point evaluation with stderr 0.
    """
    if not isinstance(symbol, InvariantSymbol):
        raise ValidationError("the limit oracle needs an invariant symbol", operation="toric.theorem2_leading")
    _check_dimension(symbol, sub.n, "toric.theorem2_leading")
    _check_run(samples, batch_size, seed, "toric.theorem2_leading")
    if volume is not None:
        volume = _check_real(volume, "volume", "toric.theorem2_leading", low=0)
    report = regular_free_check(sub)
    if not report.ok:
        raise RegularityError(report.message, operation="toric.theorem2_leading")
    verts = [r.vertex for r in report.vertices]
    if all(c == 0 for c in verts[0]):
        raise ValidationError("level polytope touches the origin", operation="toric.theorem2_leading")
    m = sub.n - sub.d
    if m == 0:
        a = np.array([float(c) for c in verts[0]])
        return f(symbol.evaluate(a / a.sum())), 0.0
    basis = integer_nullspace([list(row) for row in sub.weight_matrix])
    a0 = verts[0]
    ys = _vertex_y_coordinates(verts, basis, a0)
    lo = [min(y[j] for y in ys) for j in range(m)]
    hi = [max(y[j] for y in ys) for j in range(m)]
    if any(l == h for l, h in zip(lo, hi)):
        raise ValidationError("level polytope is lower-dimensional", operation="toric.theorem2_leading")
    lo_f = np.array([float(v) for v in lo])
    span_f = np.array([float(v) for v in hi]) - lo_f
    chart = np.array([[float(basis[j][i]) for j in range(m)] for i in range(sub.n)])
    a0_f = np.array([float(c) for c in a0])

    def draw(rng, rows):
        pts = rng.random((rows, m))
        for col, span, low in zip(pts.T, span_f, lo_f):  # by columns: a 3- or 4-wide broadcast loops per row
            col *= span
            col += low
        pts = pts @ chart.T  # single-threaded BLAS call
        inside = np.ones(rows, dtype=bool)
        for col, shift in zip(pts.T, a0_f):  # by columns: np.all(axis=1) is 4x slower
            col += shift
            inside &= col >= 0.0
        pts = np.compress(inside, pts, axis=0)  # 6x faster than pts[inside]
        norm = pts.sum(axis=1)  # numpy's pairwise sum; a column loop differs in the last bit at n >= 8
        for col in pts.T:  # rebinding col releases the previous pts, which it viewed
            col /= norm
        return f(symbol.eval_array(pts))

    vol = lambda: fiber_volume(sub) if volume is None else volume
    return _monte_carlo(draw, vol, samples, seed, batch_size, "toric.theorem2_leading")


EXAMPLE_SUBTORI: dict[str, SubtorusData] = {
    "diagonal_circle_2": diagonal_circle(2),
    "diagonal_circle_3": diagonal_circle(3),
    "product_of_lines": SubtorusData(
        n=4, d=2, weight_matrix=((1, 1, 0, 0), (0, 0, 1, 1)), alpha=(1, 1)
    ),
    "weighted_line": SubtorusData(n=2, d=1, weight_matrix=((1, 2),), alpha=(2,)),
    "full_torus_12": full_torus((1, 2)),
}
