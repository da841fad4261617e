"""Spectral measures of Hermitian blocks and their large-k expansions.

For a degree-k block Q the measure of a polynomial test function f is
the trace of f(Q).  Two deliberately independent evaluation paths are
kept side by side: a trace-of-powers path (no eigensolve involved) and
an eigensolve path that applies f to the eigenvalues.  They agree to
within float error and serve as mutual oracles in the test suite.

Scaled measures (2 pi / k)^m * trace f(Q) admit an expansion in powers of
1/k; fit_expansion recovers the leading coefficients by least squares on
a window of k values, and richardson_limit accelerates a single sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import pi
from typing import Sequence

import numpy as np

from ._exact import divided_differences
from .errors import (
    EigensolveError,
    IllConditionedFitError,
    PolynomialDegreeError,
    ToeplabError,
    ValidationError,
)
from .hardy_sphere import ToeplitzBlock
from .multiindex import _check_int, _check_ints, _check_real

__all__ = [
    "TestFunction",
    "AsymptoticFit",
    "measure_poly",
    "measure_eigen",
    "scaled_measure",
    "fit_expansion",
    "richardson_limit",
]

MAX_TRACE_DEGREE = 16
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class TestFunction:
    """Real polynomial test function, ascending coefficients, applied to a spectrum."""

    __test__ = False  # keep pytest from collecting this as a test case

    coeffs: tuple[float, ...]
    label: str = ""

    @classmethod
    def polynomial(cls, coeffs: Sequence[float], label: str = "") -> "TestFunction":
        """f from its ascending coefficients, each of which must pass _check_real."""
        cs = tuple(_check_real(c, "coefficient", "spectral.TestFunction") for c in coeffs)
        if not cs:
            raise ValidationError("polynomial needs at least one coefficient", operation="spectral.TestFunction")
        return cls(coeffs=cs, label=label or "poly" + str(list(cs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c in reversed(self.coeffs):
            out *= x
            out += c
        return out if out.ndim else float(out)


def measure_poly(block: ToeplitzBlock, f: TestFunction) -> float:
    """trace f(Q) via iterated matrix products.

    No eigensolve: tr Q^j is accumulated from explicit powers of the
    block's stored stacks of equal-size sectors, read in place, which
    makes this path an independent check on measure_eigen.  Degree is
    capped at MAX_TRACE_DEGREE.
    """
    if f.degree > MAX_TRACE_DEGREE:
        raise PolynomialDegreeError(
            f"degree {f.degree} exceeds the trace-power cap {MAX_TRACE_DEGREE}",
            operation="spectral.measure_poly",
        )
    total = f.coeffs[0] * block.dim
    for _, q in block.sectors:
        power = None
        for j in range(1, f.degree + 1):
            power = q if power is None else power @ q
            if f.coeffs[j]:
                total += f.coeffs[j] * float(np.trace(power, axis1=1, axis2=2).real.sum())
    return float(total)


def measure_eigen(block: ToeplitzBlock, f: TestFunction) -> float:
    """trace f(Q) through Hermitian eigensolves, one batched call per sector size."""
    try:
        lam = np.concatenate([np.linalg.eigvalsh(q).ravel() for _, q in block.sectors])
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(
            f"eigensolve failed to converge on the k={block.k} block (dim {block.dim})",
            operation="spectral.measure_eigen",
        ) from exc
    return float(np.sum(f(lam)))


def scaled_measure(value: float, m: int, k: int) -> float:
    """(2 pi / k)^m * value, the normalization under which measures converge."""
    _check_int(m, "m", 0, "spectral.scaled_measure")
    _check_int(k, "k", 1, "spectral.scaled_measure")
    return (2.0 * pi / k) ** m * float(value)


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares expansion of a sequence in powers of 1/k."""

    coefficients: tuple[float, ...]
    residual_norm: float
    ks: tuple[int, ...]
    condition: float
    c0_uncertainty: float

    @property
    def c0(self) -> float:
        return self.coefficients[0]

    def to_json(self) -> dict:
        return {
            "c": [float(c) for c in self.coefficients],
            "residual": float(self.residual_norm),
            "k_range": [int(min(self.ks)), int(max(self.ks))],
            "condition": float(self.condition),
            "c0_uncertainty": float(self.c0_uncertainty),
        }


def _lstsq_powers(ks: np.ndarray, ys: np.ndarray, order: int) -> tuple[np.ndarray, float, float]:
    design = np.vander(1.0 / ks, N=order + 1, increasing=True)
    cond = float(np.linalg.cond(design))
    if cond > CONDITION_LIMIT:
        raise IllConditionedFitError(
            f"design matrix condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; widen the k range",
            operation="spectral.fit_expansion",
        )
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.max(np.abs(design @ coef - ys)))
    return coef, residual, cond


def fit_expansion(samples: Sequence[tuple[int, float]], order: int = 2) -> AsymptoticFit:
    """Fit value(k) ~ c_0 + c_1/k + ... + c_order/k^order.

    Needs at least order+2 distinct integer k values, all >= max(1, 2*order), so the columns
    stay distinguishable; a condition number beyond 1e12 is rejected rather than
    silently returning garbage, as is an inf or NaN value.  The c0 uncertainty
    is estimated by refitting on the upper half of the window.
    """
    _check_int(order, "order", 0, "spectral.fit_expansion")
    pairs = sorted((_check_int(k, "k", 1, "spectral.fit_expansion"), float(v)) for k, v in samples)
    ks = np.array([k for k, _ in pairs], dtype=float)
    ys = np.array([v for _, v in pairs], dtype=float)
    if len(set(ks.tolist())) < order + 2:
        raise ValidationError(
            f"need at least {order + 2} distinct k values for order {order}",
            operation="spectral.fit_expansion",
        )
    if ks.min() < 2 * order:
        raise ValidationError(
            f"k values must be at least {2 * order} for order {order}",
            operation="spectral.fit_expansion",
        )
    if not np.isfinite(ys).all():  # an overflowed measure
        raise ToeplabError(f"fit values {ys.tolist()} are not all finite", operation="spectral.fit_expansion")
    coef, residual, cond = _lstsq_powers(ks, ys, order)

    half = len(ks) // 2
    if len(ks) - half >= order + 2:
        sub_coef, _, _ = _lstsq_powers(ks[half:], ys[half:], order)
        unc = abs(float(sub_coef[0]) - float(coef[0]))
    else:
        unc = residual
    return AsymptoticFit(
        coefficients=tuple(float(c) for c in coef),
        residual_norm=residual,
        ks=tuple(int(k) for k in ks),
        condition=cond,
        c0_uncertainty=float(unc),
    )


def richardson_limit(ks: Sequence[int], values: Sequence, order: int):
    """Extrapolation of value(k) to k -> infinity in powers of 1/k.

    Uses the last order+1 entries: the polynomial in x = 1/k through them,
    in Newton form over the exact nodes Fraction(1, k), evaluated at x = 0.
    The values enter as given, so exact input (int or Fraction) gives a
    Fraction and float input a float.  ks must pass _check_ints, each k >= 1.
    """
    _check_int(order, "order", 0, "spectral.richardson_limit")
    ks = _check_ints(ks, "ks", 1, "spectral.richardson_limit")
    if len(ks) != len(values):
        raise ValidationError("ks and values must have equal length", operation="spectral.richardson_limit")
    if len(ks) < order + 1:
        raise ValidationError(f"need at least {order + 1} entries for order {order}", operation="spectral.richardson_limit")
    xs = [Fraction(1, k) for k in ks[-order - 1:]]
    if len(set(xs)) != len(xs):
        raise ValidationError("k values must be distinct", operation="spectral.richardson_limit")
    coeffs = divided_differences(xs, list(values)[-order - 1:])
    limit = 0
    for c, x in zip(reversed(coeffs), reversed(xs)):
        limit = c - x * limit  # Horner at x = 0
    return limit
