"""Small exact linear algebra helpers over the rationals.

Everything here operates on nested sequences of ints or Fractions and
returns Fractions.  Matrices are small (a handful of rows), so one plain
Gauss-Jordan elimination over Fractions serves the rank, the solves and
the nullspace; the integer determinant, which a triangulation takes once
a simplex, runs fraction-free on ints.  One Newton table of divided
differences serves every polynomial read off exact samples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so it runs on ints alone."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        p, top = m[k][k], m[k][k + 1:]
        for i in range(k + 1, n):
            m[i][k + 1:] = [(p * x - m[i][k] * y) // prev for x, y in zip(m[i][k + 1:], top)]
        prev = p
    return sign * prev


def pivot_columns(rows) -> list[int]:
    """The leftmost linearly independent columns, as many as the rank."""
    return _echelon(_as_fractions(rows))[1]


def rank(rows) -> int:
    """Exact rank of a matrix with integer or rational entries."""
    return len(pivot_columns(rows))


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
        mult = lcm(*(x.denominator for x in v))
        w = [int(x * mult) for x in v]
        g = gcd(*w)
        result.append([x // g for x in w])
    return result


def divided_differences(xs, ys) -> list:
    """Newton coefficients c of the polynomial p through the points (xs[i], ys[i]):
    p(x) = c[0] + c[1] (x - xs[0]) + ... + c[-1] (x - xs[0]) ... (x - xs[-2]).
    c[j] is zero past the degree of p.  The arithmetic is that of the input,
    so Fractions give Fractions; xs must be distinct."""
    c = list(ys)
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    return c
