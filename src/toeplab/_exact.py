"""Small exact linear algebra helpers over the rationals.

Everything here operates on nested sequences of ints or Fractions and
returns Fractions.  Matrices are small (a handful of rows), so plain
Gaussian elimination is fine; integer determinants use Bareiss to stay
fraction-free.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss algorithm)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for j in range(n - 1):
        if a[j][j] == 0:
            for i in range(j + 1, n):
                if a[i][j] != 0:
                    a[j], a[i] = a[i], a[j]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(j + 1, n):
            for c in range(j + 1, n):
                a[i][c] = (a[i][c] * a[j][j] - a[i][j] * a[j][c]) // prev
            a[i][j] = 0
        prev = a[j][j]
    return sign * a[n - 1][n - 1]


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(r) for r in rows]
    nrow = len(m)
    ncol = len(m[0]) if nrow else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncol):
        pivot = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrow):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    return m, pivots


def _as_fractions(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in r] for r in rows]


def rank(rows) -> int:
    """Exact rank of a matrix with integer or rational entries."""
    if not rows:
        return 0
    _, pivots = _echelon(_as_fractions(rows))
    return len(pivots)


def solve_rectangular(rows, rhs) -> list[Fraction] | None:
    """One exact solution of a consistent system ``A x = b``; None when
    inconsistent.  Free variables are set to zero."""
    nrow = len(rows)
    ncol = len(rows[0]) if nrow else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    m, pivots = _echelon(aug)
    if ncol in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [Fraction(0)] * ncol
    for i, c in enumerate(pivots):
        x[c] = m[i][ncol]
    return x


def nullspace(rows) -> list[list[Fraction]]:
    """Basis of the right nullspace of a matrix (rational entries)."""
    nrow = len(rows)
    ncol = len(rows[0]) if nrow else 0
    if ncol == 0:
        return []
    m, pivots = _echelon(_as_fractions(rows))
    free = [c for c in range(ncol) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncol
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def integer_nullspace(rows) -> list[list[int]]:
    """Nullspace basis scaled to primitive integer vectors."""
    result = []
    for v in nullspace(rows):
        mult = lcm(*(x.denominator for x in v)) if v else 1
        w = [int(x * mult) for x in v]
        g = 0
        for x in w:
            g = gcd(g, x)
        if g > 1:
            w = [x // g for x in w]
        result.append(w)
    return result
