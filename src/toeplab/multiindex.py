"""Multi-index enumeration, integer torus-weight data and the package's input checks.

A multi-index is a tuple of non-negative integers.  A subtorus of the
standard n-torus is described by its integer weight matrix acting on the
coordinates; the fiber of that action at level k collects the lattice
points beta with  Bt beta = k alpha.  The degree-k basis {beta : |beta| = k}
is the fiber of the diagonal circle, listed in graded lexicographic order
(largest first entry first) like every fiber.

All arithmetic in this module is exact.  Polytope vertices are Fractions,
found by one support enumeration that also decides whether the recession
cone is pointed; the fiber search runs on numpy int64 arrays, level by
level over every live prefix at once, after a check that the level and the
bounding box stay far inside the int64 range.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, floor, isfinite
from typing import Sequence

import numpy as np

from . import _exact
from .errors import UnboundedFiberError, ValidationError

MultiIndex = tuple[int, ...]

# Largest magnitude the int64 fiber search accepts for a level, a box
# bound or a weighted box sum; half the int64 range leaves room for the
# residual updates.
_INT64_SAFE = 2**62

# Largest allocation, in bytes, that the fiber search and the sector
# storage of hardy_sphere.assemble_block (16 bytes per complex entry,
# summed over the squared sector sizes) accept.
MAX_SECTOR_BYTES = 2 * 1024**3

__all__ = [
    "MultiIndex",
    "SubtorusData",
    "grlex_key",
    "enumerate_degree",
    "enumerate_fiber",
    "fiber_polytope_vertices",
    "recession_pointed",
    "diagonal_circle",
    "full_torus",
    "dimension_of_degree_space",
]


def _is_int(v) -> bool:
    """An int that is not a bool, which subclasses int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_int(value, name: str, low: int | None, operation: str, high: int | None = None) -> int:
    """value if it is an int, not a bool, from low to high (no floor or top when None); else a ValidationError naming them."""
    if not _is_int(value) or low is not None and value < low or high is not None and value > high:
        bounds = "" if low is None else f" >= {low}" if high is None else f" from {low} to {high}"
        raise ValidationError(f"{name} must be an integer{bounds}, got {value!r}", operation=operation)
    return value


def _check_ints(values, name: str, low: int | None, operation: str, length: int | None = None) -> tuple[int, ...]:
    """values as a tuple if it is a list or tuple (of length entries when given) of ints _check_int takes; else a ValidationError."""
    if not isinstance(values, (list, tuple)) or length is not None and len(values) != length:
        size = "" if length is None else f" of length {length}"
        raise ValidationError(f"{name} must be a list or tuple{size}, got {values!r}", operation=operation)
    return tuple(_check_int(v, name, low, operation) for v in values)


def _check_real(value, name: str, operation: str, low: float | None = None) -> float:
    """float(value) if it is an int or float, not a bool, finite and >= low (no floor when None); else a ValidationError naming them."""
    if (not (_is_int(value) or isinstance(value, float)) or not -sys.float_info.max <= value <= sys.float_info.max
            or low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(f"{name} must be a finite int or float{bound}, got {value!r}", operation=operation)
    return float(value)


def _check_rational(value, name: str, operation: str) -> Fraction:
    """Fraction(value) for a non-bool int, a finite float, a Fraction or a string Fraction parses ("1/3"); else a ValidationError."""
    if _is_int(value) or isinstance(value, (Fraction, str)) or isinstance(value, float) and isfinite(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # "x", "nan", "1/0" or an int string past 4,300 digits
            pass
    raise ValidationError(f"{name} must be an int, finite float, Fraction or fraction string, got {value!r}", operation=operation)


def _check_dimension(symbol, n: int, operation: str) -> None:
    """Refuse an n that is not an integer >= 1, or a symbol on another number of coordinates."""
    _check_int(n, "n", 1, operation)
    if symbol.n != n:
        raise ValidationError(f"the symbol has {symbol.n} coordinates, not n = {n}", operation=operation)


def grlex_key(mi: Sequence[int]):
    """Sort key for graded lexicographic order, largest leading entry first."""
    return (sum(mi), tuple(-e for e in mi))


def enumerate_degree(n: int, k: int) -> list[MultiIndex]:
    """All multi-indices with n entries and total degree k, graded-lex order.

    The level-k fiber of diagonal_circle(n) for k >= 1, of length
    C(k+n-1, n-1).
    """
    _check_int(n, "n", 1, "multiindex.enumerate_degree")
    _check_int(k, "k", 0, "multiindex.enumerate_degree")
    return enumerate_fiber(diagonal_circle(n), k) if k else [(0,) * n]


@dataclass(frozen=True)
class SubtorusData:
    """Weights of a d-dimensional subtorus of the n-torus, plus a level.

    weight_matrix is the d x n integer matrix Bt whose row j gives the
    weights of the j-th circle factor on the n coordinates; alpha is the
    integer level the moment map is held at.  Requires full row rank d <= n;
    the rows and alpha must pass _check_ints, and are kept as its tuples.
    """

    n: int
    d: int
    weight_matrix: tuple[tuple[int, ...], ...]
    alpha: tuple[int, ...]

    def __post_init__(self):
        _check_int(self.n, "n", 1, "multiindex.SubtorusData")
        _check_int(self.d, "d", 1, "multiindex.SubtorusData", high=self.n)
        if not isinstance(self.weight_matrix, (list, tuple)) or len(self.weight_matrix) != self.d:
            raise ValidationError("weight matrix must be d x n", operation="multiindex.SubtorusData")
        rows = tuple(_check_ints(row, "weights", None, "multiindex.SubtorusData", length=self.n) for row in self.weight_matrix)
        object.__setattr__(self, "weight_matrix", rows)  # lists become the hashable tuples the caches key on
        object.__setattr__(self, "alpha", _check_ints(self.alpha, "alpha", None, "multiindex.SubtorusData", length=self.d))
        if _exact.rank(self.weight_matrix) != self.d:
            raise ValidationError("weight matrix must have full row rank", operation="multiindex.SubtorusData")


def diagonal_circle(n: int) -> SubtorusData:
    """The diagonal circle acting with weight 1 on every coordinate."""
    _check_int(n, "n", 1, "multiindex.diagonal_circle")
    return SubtorusData(n=n, d=1, weight_matrix=((1,) * n,), alpha=(1,))


def full_torus(alpha: Sequence[int]) -> SubtorusData:
    """The full torus (d = n), pinned at level alpha, a list or tuple that _check_ints takes."""
    alpha = _check_ints(alpha, "alpha", None, "multiindex.full_torus")
    n = len(alpha)
    eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return SubtorusData(n=n, d=n, weight_matrix=eye, alpha=alpha)


def recession_pointed(sub: SubtorusData) -> bool:
    """Whether every level polytope {x >= 0 : Bt x = c} is compact.

    The cone {x >= 0 : Bt x = 0} is nontrivial exactly when its slice
    sum(x) = 1 has a vertex.  If (1, ..., 1) is in the row space of Bt,
    the slice is empty and no minor of [Bt; 1] is invertible.
    """
    return not _vertices_cached(sub.weight_matrix + ((1,) * sub.n,), (0,) * sub.d + (1,))


@lru_cache(maxsize=None)
def _vertices_cached(Bt: tuple[tuple[int, ...], ...], target: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """Vertices of {x >= 0 : Bt x = target}, exactly, sorted.  Each solves a
    square subsystem on d invertible columns, so enumerating column bases
    finds them all; duplicates from degenerate vertices are merged."""
    seen: dict[tuple[Fraction, ...], None] = {}
    for support in combinations(range(len(Bt[0])), len(Bt)):
        block = [[row[i] for i in support] for row in Bt]
        if _exact.det_int(block) == 0:
            continue
        x = _exact.solve_rectangular(block, target)  # the unique solution: det != 0
        if any(v < 0 for v in x):
            continue
        vertex = [Fraction(0)] * len(Bt[0])
        for i, v in zip(support, x):
            vertex[i] = v
        seen[tuple(vertex)] = None
    return tuple(sorted(seen.keys()))


def fiber_polytope_vertices(sub: SubtorusData, level: int = 1) -> list[tuple[Fraction, ...]]:
    """Vertices of {x >= 0 : Bt x = level * alpha} as a new list; the exact
    solves are cached.  Raises UnboundedFiberError when the polytope is
    unbounded: the one guard of every fiber search, count and check."""
    _check_int(level, "level", 1, "multiindex.fiber_polytope_vertices")
    if not recession_pointed(sub):
        raise UnboundedFiberError("level polytope {x >= 0 : Bt x = alpha} is unbounded: its recession cone "
                                  "holds a nonzero ray", operation="multiindex.fiber_polytope_vertices")
    return list(_vertices_cached(sub.weight_matrix, tuple(level * a for a in sub.alpha)))


def enumerate_fiber(sub: SubtorusData, k: int) -> list[MultiIndex]:
    """Lattice points beta >= 0 with Bt beta = k * alpha, graded-lex order.

    Every shift s with |s| = 0 and Bt s = 0 keeps the order: the points with
    beta + s >= 0, moved by s, are in order the points with beta - s >= 0.

    Raises UnboundedFiberError (from fiber_polytope_vertices) when the
    level polytope is unbounded, since the lattice set is then infinite, and
    ValidationError when the level or the bounding box is too large for
    int64 arithmetic, or when the live prefixes at some coordinate, each
    charged the int64 rows and returned tuple of a finished point, would
    pass MAX_SECTOR_BYTES; that is checked before they are allocated.
    """
    _check_int(k, "k", 1, "multiindex.enumerate_fiber")
    vertices = fiber_polytope_vertices(sub)
    if not vertices:
        return []
    n, d = sub.n, sub.d
    Bt = sub.weight_matrix
    target = [k * a for a in sub.alpha]
    bounds = [floor(k * max(v[i] for v in vertices)) for i in range(n)]
    # every weight enters the int64 search, also one whose coordinate is pinned at 0
    reach = max(abs(t) + sum(abs(w) * (b + 1) for w, b in zip(row, bounds)) for row, t in zip(Bt, target))
    if max(reach, sum(bounds)) >= _INT64_SAFE:
        raise ValidationError(
            f"level {k} fiber exceeds the int64 range of the lattice search",
            operation="multiindex.enumerate_fiber",
        )

    # suffix_lo[r][j], suffix_hi[r][j]: achievable range of
    # sum_{i >= j} x_i * Bt[r][i] over the coordinate boxes.
    suffix_lo = [[0] * (n + 1) for _ in range(d)]
    suffix_hi = [[0] * (n + 1) for _ in range(d)]
    for r in range(d):
        for j in range(n - 1, -1, -1):
            extent = Bt[r][j] * bounds[j]  # bounds[j] >= 0, so the sign is the weight's
            suffix_lo[r][j] = suffix_lo[r][j + 1] + min(extent, 0)
            suffix_hi[r][j] = suffix_hi[r][j + 1] + max(extent, 0)

    # Every live prefix at once: row p of `points` holds x_0..x_{j-1} and
    # row p of `residual` what the later coordinates must still supply.
    row_bytes = 8 * (n + d) + sys.getsizeof((0,) * n) + 8  # list slot too
    points = np.zeros((1, 0), dtype=np.int64)
    residual = np.array([target], dtype=np.int64)
    for j in range(n):
        # clamp x_j so that each residual[:, r] - x_j * w stays inside the
        # range [suffix_lo[r][j+1], suffix_hi[r][j+1]] the later
        # coordinates can still reach
        lo_val = np.zeros(len(points), dtype=np.int64)
        hi_val = np.full(len(points), bounds[j], dtype=np.int64)
        for r in range(d):
            w = Bt[r][j]
            below = residual[:, r] - suffix_hi[r][j + 1]  # need x_j * w >= below
            above = residual[:, r] - suffix_lo[r][j + 1]  # need x_j * w <= above
            if w > 0:
                np.maximum(lo_val, -(-below // w), out=lo_val)
                np.minimum(hi_val, above // w, out=hi_val)
            elif w < 0:
                np.maximum(lo_val, -(-above // w), out=lo_val)
                np.minimum(hi_val, below // w, out=hi_val)
            else:  # x_j is free in this row; drop prefixes already out of reach
                hi_val[(below > 0) | (above < 0)] = -1
        counts = np.maximum(hi_val - lo_val + 1, 0)
        total = int(counts.sum())
        if total * row_bytes > MAX_SECTOR_BYTES:
            raise ValidationError(
                f"level {k} fiber has {total} live prefixes at coordinate {j}, needing "
                f"{total * row_bytes} bytes, over the {MAX_SECTOR_BYTES}-byte limit",
                operation="multiindex.enumerate_fiber",
            )
        starts = np.cumsum(counts) - counts
        vals = np.repeat(lo_val, counts) + (np.arange(total, dtype=np.int64) - np.repeat(starts, counts))
        points = np.column_stack([np.repeat(points, counts, axis=0), vals])
        col = np.array([Bt[r][j] for r in range(d)], dtype=np.int64)
        residual = np.repeat(residual, counts, axis=0) - vals[:, None] * col[None, :]
    # the last clamp left every residual at exactly zero; sort by
    # grlex_key: total degree first, then larger leading entries first
    order = np.lexsort([-points[:, j] for j in range(n - 1, -1, -1)] + [points.sum(axis=1)])
    return list(map(tuple, points[order].tolist()))


def dimension_of_degree_space(n: int, k: int) -> int:
    """C(k+n-1, n-1) without enumerating."""
    _check_int(n, "n", 1, "multiindex.dimension_of_degree_space")
    _check_int(k, "k", 0, "multiindex.dimension_of_degree_space")
    return comb(k + n - 1, n - 1)
