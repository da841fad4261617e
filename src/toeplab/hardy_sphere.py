"""Monomial norms and multiplication-projection blocks on the odd sphere.

Monomials z^mu restricted to the unit sphere in C^n are orthogonal for the
rotation-invariant probability measure, with squared norms

    h(mu) = (n-1)! mu! / (n-1+|mu|)!         (h(0) = 1).

Compressing multiplication by a degree-zero symbol

    F(z) = sum_t c_t z^{gamma_t} conj(z)^{delta_t} / |z|^{|gamma_t|+|delta_t|}

to the span of degree-k monomials produces, in the orthonormalized basis,
the Hermitian matrix with entries

    Q[beta, alpha] = sum_{t : alpha+gamma_t = beta+delta_t}
                     c_t h(alpha+gamma_t) / sqrt(h(alpha) h(beta)).

Each term moves alpha by its shift gamma_t - delta_t, so every integer
vector c orthogonal to all shifts is a conserved torus charge: Q only
couples monomials with equal charges c.alpha.  Blocks are therefore
assembled and stored by sector, one Hermitian matrix per charge value,
the sectors of one size as one stack, and never as the dense dim x dim
matrix.  Symbols whose terms all have gamma = delta have no shifts; they
depend only on the squared coordinate sizes a_i = |z_i|^2 / |z|^2, every
monomial is its own sector, and the diagonal entries are exactly
rational, kept here as Fractions end to end.

Assembly runs term by term over the whole basis at once.  A shift s has
|s| = 0, so alpha -> alpha + s keeps the graded-lex basis order: the rows
alpha with alpha + s >= 0 pair in order with the rows beta with beta - s >= 0,
and no position is computed from the order.  All coupled monomials have
degree k, so h(alpha+gamma)/h(alpha) has the scalar
denominator D = prod_{s=1..|gamma|} (n-1+k+s) and every entry's radicand
is an integer numerator P over D^2, computed on numpy object arrays of
Python integers; the root is exact when P is a perfect square.  The
diagonal is a sum of such ratios over one common denominator, one
Fraction per monomial.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, isfinite, isqrt, lcm, perm
from typing import Sequence

import numpy as np

from . import _exact
from .errors import SymbolFormatError, ValidationError
from .multiindex import (MAX_SECTOR_BYTES, MultiIndex, _check_dimension, _check_int, _check_ints, _check_rational,
                         _check_real, dimension_of_degree_space, enumerate_degree)

__all__ = [
    "monomial_norm",
    "SymbolPoly",
    "InvariantSymbol",
    "ToeplitzBlock",
    "assemble_block",
    "invariant_eigenvalue",
]

CONJUGATE_ULPS = 4

# Largest degree |gamma| of a symbol term.  Exact eigenvalues multiply one
# rising-factorial factor per unit of degree into growing integers, so the
# time grows about as the square of the degree.  On CPython 3.11 and a
# 2-vCPU Xeon VM the README theorem2 manifest, its gamma set to (d, 0, 0, 0),
# takes 1.0 s at d = 1,000, 5.1 s at 2,000 and 14 s at 4,000; the other
# README manifests stay under 0.05 s at 1,000.
MAX_SYMBOL_DEGREE = 1000


def monomial_norm(mu: Sequence[int], n: int) -> Fraction:
    """Exact squared norm of z^mu on the unit sphere of C^n.

    Normalized so the constant monomial has norm one.  Example values:
    h((1,0), 2) = 1/2 and h((1,1), 2) = 1/6.  mu must pass _check_ints: n entries >= 0.
    """
    _check_int(n, "n", 1, "hardy_sphere.monomial_norm")
    mu = _check_ints(mu, "mu", 0, "hardy_sphere.monomial_norm", length=n)
    num = factorial(n - 1)
    for e in mu:
        num *= factorial(e)
    return Fraction(num, factorial(n - 1 + sum(mu)))


def _is_conjugate(c, cc) -> bool:
    """cc == conj(c): exactly for int and Fraction pairs, else up to
    CONJUGATE_ULPS units in the last place of the larger modulus, which
    absorbs the rounding of a float sum such as 0.1 + 0.2 against 0.3."""
    gap = abs(cc - c.conjugate())
    if isinstance(c, (int, Fraction)) and isinstance(cc, (int, Fraction)):
        return gap == 0
    return gap <= CONJUGATE_ULPS * sys.float_info.epsilon * max(abs(c), abs(cc))


def _check_degree(gammas, operation: str) -> None:
    degree = max((sum(g) for g in gammas), default=0)
    if degree > MAX_SYMBOL_DEGREE:
        raise SymbolFormatError(f"symbol degree {degree} is over the limit of {MAX_SYMBOL_DEGREE}", operation=operation)


def _check_finite(c, operation: str):
    """c, unless it is a float or complex that is not finite: an exact coefficient is finite."""
    if isinstance(c, (float, complex)) and not (isfinite(c.real) and isfinite(c.imag)):
        raise SymbolFormatError(f"coefficient {c!r} is not finite", operation=operation)
    return c


@dataclass(frozen=True)
class SymbolPoly:
    """Degree-zero polynomial symbol, stored term by term.

    Each term is (gamma, delta, coeff) with |gamma| = |delta|; the whole
    term list must be closed under (gamma, delta, c) -> (delta, gamma,
    conj(c)), which makes the assembled block Hermitian; repeated terms
    are summed first, and float sums need only match their partner to
    CONJUGATE_ULPS units in the last place.  Coefficients must be an int
    (not a bool), float, Fraction or complex, and are kept as given so exact
    inputs stay exact.  A term of degree |gamma| above MAX_SYMBOL_DEGREE is
    refused, as is a term whose summed coefficient is not finite.
    """

    terms: tuple[tuple[MultiIndex, MultiIndex, complex], ...]

    def __post_init__(self):
        if not self.terms:
            raise SymbolFormatError("symbol needs at least one term", operation="hardy_sphere.SymbolPoly")
        n = len(self.terms[0][0])
        merged: dict[tuple[MultiIndex, MultiIndex], complex] = {}
        for gamma, delta, c in self.terms:
            if isinstance(c, bool) or not isinstance(c, (int, float, Fraction, complex)):
                raise SymbolFormatError(f"coefficient {c!r} is not an int, float, Fraction or complex",
                                        operation="hardy_sphere.SymbolPoly")
            if len(gamma) != n or len(delta) != n:
                raise SymbolFormatError("all terms must share the coordinate count", operation="hardy_sphere.SymbolPoly")
            if sum(gamma) != sum(delta):
                raise SymbolFormatError(
                    f"term ({gamma}, {delta}) is not degree balanced: |gamma| != |delta|",
                    operation="hardy_sphere.SymbolPoly",
                )
            merged[(gamma, delta)] = merged.get((gamma, delta), 0) + c
        _check_degree((gamma for gamma, _ in merged), "hardy_sphere.SymbolPoly")
        for (gamma, delta), c in merged.items():
            _check_finite(c, "hardy_sphere.SymbolPoly")
            cc = merged.get((delta, gamma))
            if cc is None or not _is_conjugate(c, cc):
                raise SymbolFormatError(
                    f"missing or mismatched conjugate partner for term ({gamma}, {delta})",
                    operation="hardy_sphere.SymbolPoly",
                )

    @classmethod
    def from_terms(cls, terms, hermitize: bool = False) -> "SymbolPoly":
        """Build from (gamma, delta, coeff) triples.

        Each gamma and delta must pass _check_ints, each entry at least 0.
        With hermitize=True each off-diagonal term gets its conjugate
        partner added automatically; diagonal terms must be real.
        """
        op = "hardy_sphere.SymbolPoly"
        norm = [(_check_ints(g, "exponents", 0, op), _check_ints(d, "exponents", 0, op), c) for g, d, c in terms]
        if hermitize:
            extra = []
            have = {(g, d) for g, d, _ in norm}
            for g, d, c in norm:
                if g == d:
                    if c.imag != 0:
                        raise SymbolFormatError("diagonal term coefficient must be real", operation="hardy_sphere.SymbolPoly")
                elif (d, g) not in have:
                    extra.append((d, g, c.conjugate()))
            norm += extra
        return cls(terms=tuple(norm))

    @property
    def n(self) -> int:
        return len(self.terms[0][0])

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Value at unit-sphere points; z has shape (n,) or (N, n).  Factors multiply
        in place into the first, complex(c) on the left: numpy's fused complex
        product rounds differently otherwise."""
        z = np.asarray(z, dtype=complex)
        pts = np.atleast_2d(z)
        total = np.zeros(pts.shape[0], dtype=complex)
        zc = {i: pts[:, i].conj() for _, delta, _ in self.terms for i, d in enumerate(delta) if d}
        for gamma, delta, c in self.terms:
            term = None
            for i, (g, d) in enumerate(zip(gamma, delta)):
                for base, e in ((pts[:, i], g), (zc.get(i), d)):
                    if e and term is None:
                        term = base ** e  # a fresh array, also for e = 1
                    elif e:
                        term *= base if e == 1 else base ** e
            total += complex(c) if term is None else complex(c) * term
        return total[0] if z.ndim == 1 else total

    @classmethod
    def from_json(cls, obj: dict) -> "SymbolPoly":
        """The symbol of a {'terms': [...]} record: _check_real takes re and im, from_terms the exponents."""
        if not isinstance(obj, dict) or set(obj) != {"terms"}:
            raise ValidationError("symbol record must be {'terms': [...]}", operation="hardy_sphere.SymbolPoly")
        if not isinstance(obj["terms"], list):
            raise ValidationError("symbol 'terms' must be a list", operation="hardy_sphere.SymbolPoly")
        terms = []
        for t in obj["terms"]:
            if not isinstance(t, dict) or set(t) != {"gamma", "delta", "re", "im"}:
                raise ValidationError("symbol term must have fields gamma, delta, re, im", operation="hardy_sphere.SymbolPoly")
            c = complex(*(_check_real(t[x], x, "hardy_sphere.SymbolPoly") for x in ("re", "im")))
            terms.append((t["gamma"], t["delta"], c if c.imag else c.real))
        return cls.from_terms(terms)


@dataclass(frozen=True)
class InvariantSymbol:
    """Polynomial symbol depending only on a = (|z_1|^2, ..., |z_n|^2) / |z|^2.

    ``poly`` holds its monomial form as exact (gamma, coefficient) pairs;
    the compressed block is diagonal with eigenvalue
    sum_gamma c_gamma h(alpha+gamma)/h(alpha) on z^alpha.  Each ratio
    h(alpha+gamma)/h(alpha) lies in (0, 1], so a symbol whose coefficients
    sum in modulus to at most the largest float has float eigenvalues and
    values; a larger one is refused, as is an n that _check_int refuses, a
    term of another length and a term of degree |gamma| above
    MAX_SYMBOL_DEGREE.  ``from_poly`` reads exponents through _check_ints (entries
    >= 0) and coefficients through _check_rational, once _check_finite passes them.
    """

    n: int
    poly: tuple[tuple[MultiIndex, Fraction], ...]

    def __post_init__(self):
        _check_int(self.n, "n", 1, "hardy_sphere.InvariantSymbol")
        if any(len(g) != self.n for g, _ in self.poly):
            raise SymbolFormatError("term length must equal n", operation="hardy_sphere.InvariantSymbol")
        _check_degree((g for g, _ in self.poly), "hardy_sphere.InvariantSymbol")
        if sum(abs(c) for _, c in self.poly) > sys.float_info.max:
            raise SymbolFormatError("symbol coefficients sum in modulus past the float range",
                                    operation="hardy_sphere.InvariantSymbol")

    @classmethod
    def from_poly(cls, terms, n: int) -> "InvariantSymbol":
        op = "hardy_sphere.InvariantSymbol"
        poly = tuple((_check_ints(g, "exponents", 0, op), _check_rational(_check_finite(c, op), "coefficient", op))
                     for g, c in terms)
        return cls(n=n, poly=poly)

    @classmethod
    def coordinate(cls, i: int, n: int) -> "InvariantSymbol":
        """The symbol a_i = |z_i|^2 / |z|^2, for 0 <= i < n."""
        _check_int(n, "n", 1, "hardy_sphere.InvariantSymbol.coordinate")
        _check_int(i, "i", 0, "hardy_sphere.InvariantSymbol.coordinate", high=n - 1)
        g = tuple(1 if j == i else 0 for j in range(n))
        return cls.from_poly([(g, 1)], n)

    def _values(self, pts: np.ndarray) -> np.ndarray:
        """Values at the rows of pts, shared by ``evaluate`` and ``eval_array``."""
        out = np.zeros(pts.shape[0])
        for g, c in self.poly:
            term = np.full(pts.shape[0], float(c))
            for i, e in enumerate(g):
                if e:
                    term *= pts[:, i] ** e
            out += term
        return out

    def evaluate(self, a) -> float:
        return float(self._values(np.asarray(a, dtype=float)[None, :])[0])

    def eval_array(self, pts: np.ndarray) -> np.ndarray:
        return self._values(np.asarray(pts, dtype=float))

    def to_symbol_poly(self) -> SymbolPoly:
        return SymbolPoly(terms=tuple((g, g, c) for g, c in self.poly))


@dataclass(frozen=True)
class ToeplitzBlock:
    """Compressed multiplication block on the degree-k monomial basis.

    ``basis`` lists the multi-indices in graded-lex order.  The Hermitian
    complex matrix in the orthonormalized basis is stored by torus-charge
    sector, batched by size: ``sectors`` holds one (positions, matrices)
    pair per sector size s, sizes in first-seen order.  ``positions`` is an
    int64 (count, s) array, one row of ascending ``basis`` indices per sector
    in first-seen order, and ``matrices`` the (count, s, s) view of one shared
    buffer restricting the block to them.  Entries between different sectors
    are zero; the sector sizes sum to ``dim``.  The float diagonal rounds the
    exact one, ``diagonal_numerators`` over ``diagonal_denominator`` in grlex
    order, which ``exact_diagonal`` builds as Fractions on first read.
    """

    n: int
    k: int
    basis: tuple[MultiIndex, ...]
    sectors: tuple[tuple[np.ndarray, np.ndarray], ...]
    diagonal_numerators: tuple[int, ...]
    diagonal_denominator: int
    exact_diagonal = cached_property(lambda self: tuple(Fraction(num, self.diagonal_denominator) for num in self.diagonal_numerators))

    @property
    def dim(self) -> int:
        return len(self.basis)


def _charge_sectors(symbol: SymbolPoly, rows: np.ndarray) -> np.ndarray:
    """Sector label of every basis row, equal sizes numbered together, sizes and sectors in first-seen order.

    The charges are an integer basis of the vectors orthogonal to every
    shift gamma - delta, so no term couples two sectors.  Without shifts
    the nullspace of the zero row is the identity and each monomial is its
    own sector; torsion in the shift lattice (a shift 2(e_1 - e_2), say)
    leaves sectors coarser than the finest invariant split, which is still
    exact.
    """
    shifts = [[g - d for g, d in zip(gamma, delta)] for gamma, delta, _ in symbol.terms if gamma != delta]
    charges = np.array(_exact.integer_nullspace(shifts or [[0] * symbol.n]), dtype=np.int64)
    _, first, label = np.unique(rows @ charges.T, axis=0, return_index=True, return_inverse=True)
    sizes = np.bincount(label.reshape(-1))
    lead = np.full(sizes.max() + 1, len(rows))
    np.minimum.at(lead, sizes, first)  # lead[s]: first row of any sector of size s
    return np.argsort(np.lexsort((first, lead[sizes])))[label.reshape(-1)]


def _rising(rows: np.ndarray, exponents: Sequence[int], scale: int | np.ndarray = 1) -> np.ndarray:
    """scale * prod_i (r_i+1)(r_i+2)...(r_i+e_i) for every row r, scale one integer or one per row.

    The product is an object array, so int64 rows are cast to Python ints
    before they multiply and no size of product can overflow.
    """
    out = np.full(len(rows), scale, dtype=object)
    for i, e in enumerate(exponents):
        for t in range(1, e + 1):
            out *= rows[:, i] + t
    return out


def assemble_block(symbol: SymbolPoly, n: int, k: int) -> ToeplitzBlock:
    """Assemble the degree-k block of a polynomial symbol, sector by sector.

    Each term (gamma, delta, c) couples alpha to beta = alpha + s, s = gamma -
    delta, inside one charge sector: the j-th basis row with alpha + s >= 0
    meets the j-th with beta - s >= 0, as s keeps the basis order
    (enumerate_fiber's shift property).  So assembly is O(#terms * dim) and
    storage is the sum of the squared sector sizes; a block whose sector
    storage would exceed MAX_SECTOR_BYTES is refused before any of it is
    allocated, and before the basis is enumerated when 16 * dim bytes
    already would.  Every coupled alpha and beta has degree k, so with
    D = prod_{s=1..|gamma|} (n-1+k+s) an entry's radicand
    h(alpha+gamma)^2 / (h(alpha) h(beta)) is P / D^2 for the integer
    P = prod_i (alpha_i+1)...(alpha_i+gamma_i) * prod_i (beta_i+1)...(beta_i+delta_i).
    Each term computes P for all of its rows at once on Python integers; the
    magnitude is isqrt(P) / D when P is a perfect square and sqrt(P / D^2)
    otherwise, both from correctly rounded integer divisions.  Diagonal
    entries are exact: one Fraction per monomial from the integer
    numerators of the invariant terms, rounded once to float.
    """
    _check_dimension(symbol, n, "hardy_sphere.assemble_block")
    _check_int(k, "k", 0, "hardy_sphere.assemble_block")
    dim = dimension_of_degree_space(n, k)
    if 16 * dim > MAX_SECTOR_BYTES:  # sector storage 16 * sum(size^2) is at least 16 * dim
        raise ValidationError(
            f"block of dim {dim} needs at least {16 * dim} bytes of sector storage, "
            f"over the {MAX_SECTOR_BYTES}-byte limit",
            operation="hardy_sphere.assemble_block",
        )
    basis = tuple(enumerate_degree(n, k))
    rows = np.array(basis, dtype=np.int64).reshape(dim, n)
    label = _charge_sectors(symbol, rows)
    sizes = np.bincount(label)
    areas = sizes * sizes
    entries = int(areas.sum())
    nbytes = 16 * entries
    if nbytes > MAX_SECTOR_BYTES:
        raise ValidationError(
            f"block of dim {dim} (largest sector {int(sizes.max())}) needs {nbytes} bytes "
            f"of sector storage, over the {MAX_SECTOR_BYTES}-byte limit",
            operation="hardy_sphere.assemble_block",
        )
    # Sector s is the row-major slice offsets[s]:offsets[s]+sizes[s]**2 of
    # one flat buffer; basis position j sits at local index local[j].
    order = np.argsort(label, kind="stable")
    local = np.empty(dim, dtype=np.int64)
    local[order] = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    offsets = np.cumsum(areas) - areas
    start, width = offsets[label], sizes[label]
    flat = np.zeros(entries, dtype=complex)

    # Terms stay the outer loop so each entry sums its terms in symbol order.
    for gamma, delta, c in symbol.terms:
        if gamma == delta:
            continue
        shift = np.subtract(gamma, delta)
        cols = np.flatnonzero((rows + shift >= 0).all(axis=1))
        i = np.flatnonzero((rows - shift >= 0).all(axis=1))  # rows[i[j]] = rows[cols[j]] + shift
        den = perm(n - 1 + k + sum(gamma), sum(gamma))
        products = (_rising(rows[cols], gamma) * _rising(rows[i], delta)).tolist()  # the P of each entry
        roots = [isqrt(p) for p in products]
        den2 = den * den
        mag = np.sqrt(np.array([p / den2 for p in products], dtype=float))
        square = [j for j, (r, p) in enumerate(zip(roots, products)) if r * r == p]
        mag[square] = [roots[j] / den for j in square]
        flat[start[cols] + local[i] * width[cols] + local[cols]] += complex(c) * mag

    # gamma == delta terms touch only the diagonal; Hermitian closure forces c real
    diagonal = InvariantSymbol.from_poly([(g, c.real) for g, d, c in symbol.terms if g == d], n)
    numerators, den = _invariant_numerators(diagonal, basis)
    flat[start + local * (width + 1)] = [num / den for num in numerators]
    runs = np.flatnonzero(np.diff(sizes, prepend=0))  # first sector of each size
    sectors, h, o = [], 0, 0
    for s, c in zip(sizes[runs].tolist(), np.diff(runs, append=len(sizes)).tolist()):
        sectors.append((order[h:h + c * s].reshape(c, s), flat[o:o + c * s * s].reshape(c, s, s)))
        h, o = h + c * s, o + c * s * s
    return ToeplitzBlock(n=n, k=k, basis=basis, sectors=tuple(sectors), diagonal_numerators=numerators, diagonal_denominator=den)


def _invariant_numerators(symbol: InvariantSymbol, points) -> tuple[tuple[int, ...], int]:
    """Exact eigenvalues of a polynomial invariant symbol on many monomials.

    Returns integer numerators N_alpha and one positive common denominator
    D = L M with lambda_alpha = N_alpha / D, where L is the lcm of the
    coefficient denominators.  With b = n-1+|alpha| and the rising product
    R(b, g) = (b+1)...(b+g), h(alpha+gamma)/h(alpha) is
    prod_i (alpha_i+1)...(alpha_i+gamma_i) / R(b, |gamma|), so with M the
    lcm of R(b, max |gamma|) over the degrees present each term is scaled once:

        N_alpha = sum_gamma c_gamma L M / R(b, |gamma|) * prod_i (alpha_i+1)...(alpha_i+gamma_i).

    The sums run on object arrays of Python integers, so no size of alpha,
    coefficient or degree can overflow.
    """
    n = symbol.n
    pts = np.array(points, dtype=object)
    if len(pts) == 0:
        pts = pts.reshape(0, n)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValidationError("alpha length must equal n", operation="hardy_sphere.invariant_eigenvalue")
    G = max((sum(g) for g, _ in symbol.poly), default=0)
    L = lcm(*(c.denominator for _, c in symbol.poly))
    base = (pts.sum(axis=1) + (n - 1)).tolist()
    degrees = set(base)
    M = lcm(*(perm(b + G, G) for b in degrees))
    total = np.zeros(len(pts), dtype=object)
    for gamma, c in symbol.poly:
        g = sum(gamma)
        scale = {b: c.numerator * (L // c.denominator) * (M // perm(b + g, g)) for b in degrees}
        # one integer for one degree; mixed degrees (weighted_line's fibers) scale row by row
        row_scale = scale.popitem()[1] if len(scale) == 1 else np.array([scale[b] for b in base], dtype=object)
        total += _rising(pts, gamma, row_scale)
    return tuple(total.tolist()), L * M


def invariant_eigenvalue(symbol: InvariantSymbol, alpha: Sequence[int]) -> Fraction:
    """Exact eigenvalue of a polynomial invariant symbol on z^alpha.

        lambda_alpha = sum_gamma c_gamma h(alpha+gamma) / h(alpha)

    For F = a_1 on two coordinates this is (alpha_1 + 1) / (k + 2) with
    k = |alpha|; for F = a_1^2 it is
    (alpha_1 + 2)(alpha_1 + 1) / ((k + 3)(k + 2)).  This is the one-point
    case of the batched fiber computation; alpha must pass _check_ints, entries >= 0.
    """
    alpha = _check_ints(alpha, "alpha", 0, "hardy_sphere.invariant_eigenvalue")
    (num,), den = _invariant_numerators(symbol, [alpha])
    return Fraction(num, den)
