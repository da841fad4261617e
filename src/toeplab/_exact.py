"""Small exact linear algebra on integer matrices: Bt, its column blocks, a polytope's integer chart and a
symbol's shifts are all small int matrices, so one fraction-free elimination serves the determinant, rank,
pivot columns, square solve and nullspace, and only a solution comes out as Fractions.  One Newton table
of divided differences serves every polynomial read off exact samples."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _eliminate(rows) -> tuple[list[list[int]], list[int]]:
    """Echelon rows and pivot columns of an integer matrix by fraction-free elimination (Bareiss, Math.
    Comp. 22, 1968).  Each entry is a minor, so every division by the previous pivot is exact.  A swap
    negates the row it moves down, so for a square matrix of full rank the last pivot is the determinant."""
    m = [list(r) for r in rows]
    ncol = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncol):
        r = len(pivots)
        if r == len(m):
            break
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != r:
            m[r], m[i] = m[i], [-x for x in m[r]]
        p, top = m[r][c], m[r][c:]
        for row in m[r + 1:]:
            f = row[c]
            if f or p != prev:  # otherwise the update is the identity: most bases of a cube are singular
                row[c:] = [(p * x - f * y) // prev for x, y in zip(row[c:], top)]
        prev = p
        pivots.append(c)
    return m, pivots


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the last pivot, or 0 when a column has none."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    m, pivots = _eliminate(rows)
    if len(pivots) < n:
        return 0
    return m[n - 1][n - 1] if n else 1


def pivot_columns(rows) -> list[int]:
    """The leftmost linearly independent columns of an integer matrix, as many as the rank."""
    return _eliminate(rows)[1]


def rank(rows) -> int:
    """Exact rank of an integer matrix."""
    return len(pivot_columns(rows))


def solve_square(rows, rhs) -> list[Fraction] | None:
    """The unique solution of A x = b, A square and A, b integer, as Fractions; None when A is singular.
    det(A) x is integral (Cramer's rule), so back substitution runs on ints with exact divisions."""
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise ValueError("matrix is not square")
    m, pivots = _eliminate([[*row, b] for row, b in zip(rows, rhs)])
    if pivots != list(range(d)):
        return None
    det = m[d - 1][d - 1] if d else 1
    y = [0] * d
    for r in reversed(range(d)):
        y[r] = (det * m[r][d] - sum(m[r][j] * y[j] for j in range(r + 1, d))) // m[r][r]
    return [Fraction(v, det) for v in y]


def integer_nullspace(rows) -> list[list[int]]:
    """Right nullspace basis of an integer matrix: per non-pivot column c, the primitive integer vector
    positive at c and zero at the other non-pivot columns.  t = |last pivot| times its rational form is
    integral (Cramer's rule), so back substitution runs on ints with exact divisions."""
    ncol = len(rows[0]) if rows else 0
    m, pivots = _eliminate(rows)
    t = abs(m[len(pivots) - 1][pivots[-1]]) if pivots else 1
    basis = []
    for free in (c for c in range(ncol) if c not in pivots):
        v = [0] * ncol
        v[free] = t
        for r in reversed(range(len(pivots))):
            c = pivots[r]
            v[c] = -sum(m[r][j] * v[j] for j in range(c + 1, ncol)) // m[r][c]
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis


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
