"""Gaussian-times-Fourier model states and their quadrature checks.

The local model for an invariant operator near a free orbit acts on
states indexed by a nonzero integer frequency vector m, each a Gaussian
in the transverse variable y whose width is set by the Euclidean size
|m|, times the torus character e^(i m.theta):

    f_m(y, theta) = (|m|/pi)^(kdim/4) (2 pi)^(-l/2)
                    * exp(-|y|^2 |m| / 2) * exp(i m.theta).

These are exactly orthonormal, and the frame operator built from them is
the reproducing projector of the model space.  This module evaluates the
states, forms their Gram matrix under a Gauss-Hermite x trapezoid rule,
and measures how far the discretized frame is from an isometry; the
defects shrink spectrally in the Hermite count and vanish at machine
precision once the angular rule resolves every frequency difference.
Annihilation by y_j |m| + d/dy_j pins the Gaussian width independently
of any integral.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from math import isfinite, pi
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .multiindex import _check_int, _check_ints, _check_real

MAX_GRID_POINTS = 4096
_TILE = 128  # check_isometry's square tiles: 256 KiB of complex entries each

__all__ = [
    "ModelIndex",
    "QuadratureSpec",
    "IsometryReport",
    "fm_normalization",
    "fm_eval",
    "check_isometry",
    "annihilation_residual",
]


@dataclass(frozen=True)
class ModelIndex:
    """One model state: frequency vector m != 0 and transverse dimension.

    An m that _check_ints refuses or that is empty, zero or past the float range, a k_dim
    that _check_int refuses, and states whose normalization overflows a float, are refused.
    """

    m: tuple[int, ...]
    k_dim: int

    def __post_init__(self):
        object.__setattr__(self, "m", _check_ints(self.m, "m", None, "canonical_model.ModelIndex"))
        if not self.m:
            raise ValidationError("m must be a nonempty integer tuple", operation="canonical_model.ModelIndex")
        if all(c == 0 for c in self.m):
            raise ValidationError("m = 0 has no normalizable state", operation="canonical_model.ModelIndex")
        _check_int(self.k_dim, "k_dim", 0, "canonical_model.ModelIndex")
        if not all(abs(c) <= sys.float_info.max for c in self.m):
            raise ValidationError("m entries must lie in the float range", operation="canonical_model.ModelIndex")
        try:
            finite = isfinite(fm_normalization(self))
        except OverflowError:  # a float power past the float range
            finite = False
        if not finite:
            raise ValidationError("the state's normalization (|m|/pi)^(k_dim/4) overflows a float",
                                  operation="canonical_model.ModelIndex")

    @property
    def l_dim(self) -> int:
        return len(self.m)

    @property
    def frequency(self) -> float:
        """Euclidean size |m|, the Gaussian width parameter."""
        return float(np.hypot.reduce([float(c) for c in self.m]))


def fm_normalization(idx: ModelIndex) -> float:
    """(|m|/pi)^(kdim/4) (2 pi)^(-l/2), making the state unit norm."""
    return (idx.frequency / pi) ** (idx.k_dim / 4) * (2 * pi) ** (-idx.l_dim / 2)


def fm_eval(idx: ModelIndex, y, theta) -> np.ndarray:
    """Evaluate the state; broadcasts over leading axes of y and theta."""
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if y.shape[-1:] != (idx.k_dim,) and idx.k_dim > 0:
        raise ValidationError("y must have k_dim trailing coordinates", operation="canonical_model.fm_eval")
    if theta.shape[-1:] != (idx.l_dim,):
        raise ValidationError("theta must have l_dim trailing coordinates", operation="canonical_model.fm_eval")
    mu = idx.frequency
    y_sq = np.sum(y * y, axis=-1) if idx.k_dim > 0 else 0.0
    phase = np.tensordot(theta, np.array(idx.m, dtype=float), axes=([-1], [0]))
    return fm_normalization(idx) * np.exp(-0.5 * mu * y_sq) * np.exp(1j * phase)


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite count per y axis and trapezoid count per angle, each at least 2."""

    hermite_points: int = 64
    fourier_points: int = 24

    def __post_init__(self):
        _check_int(self.hermite_points, "hermite_points", 2, "canonical_model.QuadratureSpec")
        _check_int(self.fourier_points, "fourier_points", 2, "canonical_model.QuadratureSpec")


def _shared_dims(indices: Sequence[ModelIndex]) -> tuple[int, int]:
    if not indices:
        raise ValidationError("need at least one model index", operation="canonical_model.check_isometry")
    k_dim = indices[0].k_dim
    l_dim = indices[0].l_dim
    if any(i.k_dim != k_dim or i.l_dim != l_dim for i in indices):
        raise ValidationError("all indices must share k_dim and l_dim", operation="canonical_model.check_isometry")
    return k_dim, l_dim


def _design_matrix(indices: Sequence[ModelIndex], quad: QuadratureSpec):
    """Weights and state values on the tensor rule.

    The Hermite rule carries generic weights w e^(t^2), so it integrates
    plain functions of t, not just polynomial-times-Gaussian ones; the
    angular rule is the uniform trapezoid, exact for every frequency
    difference below the point count.  The grid is counted before any
    rule is built; every axis has at least two points, so enough axes
    pass MAX_GRID_POINTS before the power is formed.  A family with
    k_dim = 0 builds no Hermite rule at all.
    """
    k_dim, l_dim = _shared_dims(indices)
    if k_dim + l_dim >= MAX_GRID_POINTS.bit_length() or quad.hermite_points**k_dim * quad.fourier_points**l_dim > MAX_GRID_POINTS:
        raise ValidationError(
            f"grid of {quad.hermite_points}^{k_dim} x {quad.fourier_points}^{l_dim} points is over the "
            f"{MAX_GRID_POINTS}-point limit of the dense isometry check",
            operation="canonical_model.check_isometry",
        )
    max_freq = max(abs(c) for i in indices for c in i.m)
    if quad.hermite_points < 20 and k_dim > 0:
        warnings.warn("fewer than 20 Hermite points; Gaussian overlaps may be unresolved", stacklevel=3)
    if quad.fourier_points < 4 * max_freq:
        warnings.warn("fewer than 4 max|m_j| angular points; trapezoid rule may alias", stacklevel=3)
    t, w = np.polynomial.hermite.hermgauss(quad.hermite_points) if k_dim else (np.empty(0), np.empty(0))
    w_open = w * np.exp(t * t)
    angles = 2 * pi * np.arange(quad.fourier_points) / quad.fourier_points
    w_ang = 2 * pi / quad.fourier_points

    axes_pts = [t] * k_dim + [angles] * l_dim
    weights = np.ones(())  # the left-to-right product of the axis weights at each point
    for ws in [w_open] * k_dim + [np.full(quad.fourier_points, w_ang)] * l_dim:
        weights = np.multiply.outer(weights, ws)
    grid = np.stack(np.meshgrid(*axes_pts, indexing="ij"), -1).reshape(-1, k_dim + l_dim)
    F = np.column_stack([fm_eval(idx, grid[:, :k_dim], grid[:, k_dim:]) for idx in indices])
    return weights.reshape(-1), F


@dataclass(frozen=True)
class IsometryReport:
    quad: QuadratureSpec
    states: int
    grid_points: int
    max_gram_offdiag: float
    max_gram_diag_error: float
    max_idempotency_defect: float
    max_selfadjoint_defect: float
    idempotency_tiles: tuple[int, int]  # tiles computed, tiles in the walk
    selfadjoint_tiles: tuple[int, int]

    @property
    def ok(self) -> bool:
        return max(self.max_gram_offdiag, self.max_gram_diag_error) < 1e-8

    def to_json(self) -> dict:
        return {
            "quad": {"hermite_points": self.quad.hermite_points, "fourier_points": self.quad.fourier_points},
            "states": self.states,
            "grid_points": self.grid_points,
            "max_gram_offdiag": self.max_gram_offdiag,
            "max_gram_diag_error": self.max_gram_diag_error,
            "max_idempotency_defect": self.max_idempotency_defect,
            "max_selfadjoint_defect": self.max_selfadjoint_defect,
            "tiles_computed": {"idempotency": list(self.idempotency_tiles), "selfadjoint": list(self.selfadjoint_tiles)},
            "ok": self.ok,
        }


def _bounded_max(bound: np.ndarray, tiles, tile_max) -> tuple[float, tuple[int, int]]:
    """Largest tile_max(rows, cols) over the tiles (i, j), rows and cols the
    i-th and j-th slices of _TILE, visited by descending bound[i, j], a
    bound on every computed modulus in the tile.  The walk
    ends at the first bound below the running maximum, since no later tile
    can raise it; a NaN bound counts as infinite.  Returns the maximum and
    (tiles computed, tiles).  Tiles whose moduli hold a NaN, which max
    never returns over a number, leave it unchanged wherever they come.
    """
    b = bound[tiles]
    b = np.where(np.isnan(b), np.inf, b)
    best, computed = 0.0, 0
    for t in np.argsort(-b, kind="stable"):
        if b[t] < best:
            break
        i, j = tiles[0][t] * _TILE, tiles[1][t] * _TILE
        best = max(best, tile_max(slice(i, i + _TILE), slice(j, j + _TILE)))
        computed += 1
    return best, (computed, len(b))


def check_isometry(indices: Sequence[ModelIndex], quad: QuadratureSpec = QuadratureSpec()) -> IsometryReport:
    """Orthonormality of the states and projector quality of their frame.

    Builds Pi = F B on the grid, with B = F^H W and Gram matrix G = B F,
    and reports the largest entries of G - I, Pi^2 - Pi and
    W Pi - (W Pi)^H.  Pi^2 - Pi = F (G - I) B is formed from that
    factorization, so no grid x grid x grid product is needed.  Grids above
    MAX_GRID_POINTS points are refused before they are built.  The grid x
    grid maxima walk 128 x 128 tiles, each bounded first from per-tile
    column maxima of the factors by the rounding bound of its products;
    tiles are computed in descending bound order until a bound falls below
    the running maximum, so both maxima have the bits of a walk over every
    tile, and the report counts the tiles each one computed.
    """
    weights, F = _design_matrix(indices, quad)
    B = F.conj().T * weights[None, :]
    G = B @ F
    off = G - np.diag(np.diag(G))
    defect = (G - np.eye(len(G))) @ B

    # Tile bounds (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2nd ed., section 3.1).  A tile entry is a length-S complex dot product
    # sum_s a_s b_s (S states).  Its real and imaginary parts are real dot
    # products of 2S terms, each within gamma_2S sum_s |a_s||b_s| of exact in
    # any order, fused or not (gamma_n = n u / (1 - n u), u = eps / 2;
    # Cauchy-Schwarz folds |Re a Re b| + |Im a Im b| into |a||b|), so the
    # entry is within sqrt(2) S eps sum_s |a_s||b_s| to first order.
    # Idempotency: the entry is that product of F and D = (G - I) B; the
    # modulus and the bound's own products and nonnegative sums lose another
    # (S/2 + 4) eps, so a factor 1 + gamma with gamma >= (1.92 S + 4) eps bounds
    # every computed modulus in tile (i, j) by sum_s max_i |F[p, s]| max_j |D[s, q]|.
    # Self-adjointness: W Pi - (W Pi)^H is zero before rounding, as B is
    # rounded once per entry and both sides read the same B, and each side is
    # within (sqrt(2) S + 1) eps U_pq of it, U_pq = w_p sum_s |F[p, s]||B[s, q]|;
    # per tile, U_ij takes the column maxima over each tile instead.  Both
    # first-order constants are at most 2 (S + 2) eps, and gamma = 8 (S + 2) eps
    # leaves a factor of 4 over them.  The gamma * tiny term covers an
    # underflow, at most eps * tiny / 2, in each of the fewer than 16 (S + 2)
    # operations behind an entry and its bound.
    starts = np.arange(0, len(weights), _TILE)
    gamma = 8 * (F.shape[1] + 2) * np.finfo(float).eps
    tiny = np.finfo(float).tiny
    abs_f = np.abs(F)
    f_max = np.maximum.reduceat(abs_f, starts, axis=0)
    wf_max = np.maximum.reduceat(abs_f * weights[:, None], starts, axis=0)
    u_ij = wf_max @ np.maximum.reduceat(np.abs(B), starts, axis=1)
    idem_bound = (1 + gamma) * (f_max @ np.maximum.reduceat(np.abs(defect), starts, axis=1)) + gamma * tiny
    selfadj_bound = gamma * (u_ij + u_ij.T + tiny)

    def idem_tile(rows, cols):
        return float(np.max(np.abs(F[rows] @ defect[:, cols])))

    def selfadj_tile(rows, cols):
        wp = (F[rows] @ B[:, cols]) * weights[rows, None]
        wp_t = (F[cols] @ B[:, rows]) * weights[cols, None]
        return float(np.max(np.abs(wp - wp_t.conj().T)))

    # W Pi - (W Pi)^H is anti-Hermitian, so the tiles on and above the diagonal hold every modulus.
    idem, idem_tiles = _bounded_max(idem_bound, tuple(np.indices(idem_bound.shape).reshape(2, -1)), idem_tile)
    selfadj, selfadj_tiles = _bounded_max(selfadj_bound, np.triu_indices(len(starts)), selfadj_tile)
    return IsometryReport(
        quad=quad,
        states=F.shape[1],
        grid_points=len(weights),
        max_gram_offdiag=float(np.max(np.abs(off))) if F.shape[1] > 1 else 0.0,
        max_gram_diag_error=float(np.max(np.abs(np.diag(G) - 1.0))),
        max_idempotency_defect=idem,
        max_selfadjoint_defect=selfadj,
        idempotency_tiles=idem_tiles,
        selfadjoint_tiles=selfadj_tiles,
    )


def annihilation_residual(idx: ModelIndex, y, theta, step: float = 1e-3) -> float:
    """Largest relative residual of (d/dy_j + y_j |m|) f_m at one point.

    Central differences in each transverse coordinate; O(step^2) for the
    true state, order-one for a state with the wrong Gaussian width.  step
    must pass _check_real with low 0, and be nonzero.
    """
    step = _check_real(step, "step", "canonical_model.annihilation_residual", low=0)
    if step == 0:
        raise ValidationError(f"step must be > 0, got {step!r}", operation="canonical_model.annihilation_residual")
    if idx.k_dim == 0:
        raise ValidationError("no transverse directions to check", operation="canonical_model.annihilation_residual")
    y = np.asarray(y, dtype=float).reshape(idx.k_dim)
    theta = np.asarray(theta, dtype=float).reshape(idx.l_dim)
    base = fm_eval(idx, y, theta)
    scale = abs(base)
    if scale == 0.0:
        raise ValidationError("state vanishes at the base point", operation="canonical_model.annihilation_residual")
    mu = idx.frequency
    worst = 0.0
    for j in range(idx.k_dim):
        e = np.zeros(idx.k_dim)
        e[j] = step
        deriv = (fm_eval(idx, y + e, theta) - fm_eval(idx, y - e, theta)) / (2 * step)
        worst = max(worst, abs(deriv + y[j] * mu * base) / scale)
    return worst