"""Equivariant spectra over subtorus weight fibers.

An invariant polynomial symbol acts diagonally on monomials, so the block
attached to a subtorus level decomposes by the lattice fiber
{beta >= 0 : Bt beta = k alpha}: its spectrum is the multiset of exact
eigenvalues lambda_beta over fiber points.  Scaled by (2 pi / k)^(n-d)
the measures converge to an integral over the level polytope
P = {a >= 0 : Bt a = alpha}, provided P is compact with simple vertices
whose column minors are unimodular.  This module computes the spectra,
runs that regularity check exactly, and estimates the limit integral as
the exact Ehrhart volume of P, read off a pulling triangulation of P with
no fiber listed, times a mean sampled exactly from its simplices: an
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
from itertools import combinations
from math import factorial, gcd, lcm, pi
from operator import mul
from typing import Sequence

import numpy as np

from ._exact import det_int, pivot_columns, rank
from .errors import RegularityError, ValidationError
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


# Most simplices theorem2_leading's triangulation may hold.  A simplex costs about 40 us to find and
# weigh at m = 7 (the 7-cube's 5,040 take 0.2 s) and about 2.2 us in each 16,384-row piece of draws
# that gives it rows (2-vCPU Xeon, CPython 3.11, numpy 2.4), so 10**4 simplices take about 0.4 s before
# the first draw and 17 ms a piece: 0.2 s more for 200,000 samples, about 100 s for 10**8.
MAX_SIMPLICES = 10**4


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
    """Exact limit of (2 pi / k)^m * #fiber(k), m = n - d, along k in qN, from no fiber.

    q is the lcm of the vertex denominators of the level polytope P, so #fiber(q t) is the Ehrhart
    polynomial of the lattice polytope qP, of degree m (Beck & Robins, ch. 3): its leading coefficient is
    P's volume over the fiber lattice's covolume.  _pulling_triangulation's weights sum to m! q^m times
    P's volume in the chart of Bt's free (non-pivot) columns, onto which the fiber lattice projects with
    index |det B_piv| / g, B_piv being Bt's minor on its pivot columns and g the gcd of its d x d minors.
    So the volume is (2 pi)^m g sum|det| / (m! q^m |det B_piv|), and 0 on an empty or lower-dimensional
    P.  Off qN a fiber may be smaller or empty (Bt = (2, 2) has none at odd k).  The sphere is the
    diagonal_circle(n) case, (2 pi)^(n-1) / (n-1)!.
    """
    verts = fiber_polytope_vertices(sub)
    if not verts:
        return 0.0
    total = sum(_pulling_triangulation(sub, verts, "toric.fiber_volume")[1])  # refused before any minor is taken
    q, m = lcm(*(c.denominator for v in verts for c in v)), sub.n - sub.d
    minor = lambda cols: det_int([[row[c] for c in cols] for row in sub.weight_matrix])
    vol = Fraction(gcd(*map(minor, combinations(range(sub.n), sub.d))) * total,
                   factorial(m) * q**m * abs(minor(pivot_columns(sub.weight_matrix))))
    return (2.0 * pi) ** m * vol.numerator / vol.denominator


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


def _pulling_triangulation(sub: SubtorusData, verts: list[tuple[Fraction, ...]], operation: str
                           ) -> tuple[list[tuple[int, ...]], list[int]]:
    """Simplices of a pulling triangulation of the level polytope, as indices into verts, and their weights.

    Each face is coned from its first vertex over its triangulated facets that miss it (De Loera,
    Rambau & Santos, *Triangulations*, 2010); one global vertex order makes the cones fit.  A face of
    P = {a >= 0 : Bt a = alpha} is a vertex set sharing some zero coordinates, so its facets share one
    more zero and have one dimension less, which _exact.rank reads in the integer chart a -> q a on the
    non-pivot columns of Bt (q the lcm of the vertex denominators).  A simplex weighs the |det| of its
    edge vectors there, m! q^m times its chart volume.  Past MAX_SIMPLICES in any face it is refused at
    once under operation: each simplex of a face the recursion reaches is coned into its own simplex of P.
    """
    free = sorted(set(range(sub.n)) - set(pivot_columns(sub.weight_matrix)))
    q = lcm(*(c.denominator for v in verts for c in v))
    chart = [[int(q * v[c]) for c in free] for v in verts]
    zeros = [{i for i, c in enumerate(v) if c == 0} for v in verts]

    def edges(face):
        return [[x - x0 for x, x0 in zip(chart[i], chart[face[0]])] for i in face[1:]]

    @lru_cache(maxsize=None)
    def pull(face: tuple[int, ...], dim: int) -> tuple[tuple[int, ...], ...]:
        if dim == 0:
            return (face,)
        out: list[tuple[int, ...]] = []
        apex = face[0]
        for facet in sorted({tuple(i for i in face if c in zeros[i]) for c in range(sub.n) if c not in zeros[apex]}):
            if facet and rank(edges(facet)) == dim - 1:
                out += ((apex,) + s for s in pull(facet, dim - 1))
                if len(out) > MAX_SIMPLICES:
                    raise ValidationError(f"the level polytope's pulling triangulation has over {MAX_SIMPLICES} "
                                          "simplices", operation=operation)
        return tuple(out)

    simplices = list(pull(tuple(range(len(verts))), sub.n - sub.d))
    return simplices, [abs(det_int(edges(s))) for s in simplices]


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
    |beta| need not be constant across one fiber).  V is fiber_volume, read
    off a second triangulation, unless supplied; a supplied one must pass
    _check_real with low 0, checked with the other arguments.  The polytope
    is cut once into the simplices of _pulling_triangulation and every draw is kept: a
    piece of r rows splits them by rng.multinomial over the simplices' volume
    shares, and a simplex given c rows takes rng.standard_exponential((c, m + 1)),
    Dirichlet(1, ..., 1) weights E on its vertices V (Devroye, Non-Uniform Random
    Variate Generation, 1986, ch. V).  E @ [V | |v|_1] gives each point and its
    |a|_1, so the rows are divided to a / |a|_1 and evaluated while in cache.
    For a fixed seed and batch size the result is bit-stable; samples, batch and
    seed pass reduction._check_run before any vertex is computed, and a batch
    past the sample count costs nothing.  Requires the regular-free check to
    pass.  d = n has a zero-dimensional fiber and returns the exact point
    evaluation with stderr 0.
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
    n, m = sub.n, sub.n - sub.d
    if m == 0:
        a = np.array([float(c) for c in verts[0]])
        return f(symbol.evaluate(a / a.sum())), 0.0
    simplices, weights = _pulling_triangulation(sub, verts, "toric.theorem2_leading")
    if not simplices:
        raise ValidationError("level polytope is lower-dimensional", operation="toric.theorem2_leading")
    total = sum(weights)
    shares = np.array([w / total for w in weights])
    # each simplex's vertices as rows, with |v|_1 appended: E @ corners[s] is a point and its |a|_1
    corners = np.array([[float(c) for c in v] + [float(sum(v))] for v in verts])[np.array(simplices)]

    def draw(rng, rows):
        counts = rng.multinomial(rows, shares)
        exps = rng.standard_exponential((rows, m + 1))  # the stream of one (c, m + 1) draw per simplex in turn
        pts = np.empty((rows, n + 1))
        start = 0
        occupied = np.flatnonzero(counts)
        for s, c in zip(occupied.tolist(), counts[occupied].tolist()):
            np.matmul(exps[start:start + c], corners[s], out=pts[start:start + c])
            start += c
        del exps  # before the rows are evaluated
        norm = pts[:, n]
        for col in pts.T[:n]:  # by columns: a broadcast over the n-wide last axis loops per row
            col /= norm
        return f(symbol.eval_array(pts[:, :n]))

    return _monte_carlo(draw, fiber_volume(sub) if volume is None else volume, samples, seed, batch_size)


EXAMPLE_SUBTORI: dict[str, SubtorusData] = {
    "diagonal_circle_2": diagonal_circle(2),
    "diagonal_circle_3": diagonal_circle(3),
    "product_of_lines": SubtorusData(
        n=4, d=2, weight_matrix=((1, 1, 0, 0), (0, 0, 1, 1)), alpha=(1, 1)
    ),
    "weighted_line": SubtorusData(n=2, d=1, weight_matrix=((1, 2),), alpha=(2,)),
    "full_torus_12": full_torus((1, 2)),
}
