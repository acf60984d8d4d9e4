"""Exact determinants and linear solves used by the resultant and fibral code.

Bareiss fraction-free elimination keeps every intermediate value in the
ground ring (Z or Z[t]); the divisions it performs are exact by
construction.  The rational solver clears denominators row by row, runs the
same elimination on the augmented integer matrix, and back-substitutes with
Fractions, so results are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import clear_denominators
from .polynomial import TPoly

__all__ = ["det_int", "det_tpoly", "solve_exact"]


def _eliminate(m: list[list]) -> int:
    """Bareiss elimination in place on the leading square block of m.

    Extra columns (an augmented right-hand side) are carried along; entries
    below the diagonal are left stale.  Returns the sign of the row swaps,
    so that sign * m[n-1][n-1] is the block's determinant, or 0 when the
    block is singular.
    """
    n, width = len(m), len(m[0])
    sign, prev = 1, 1
    for r in range(n - 1):
        if not m[r][r]:
            swap = next((i for i in range(r + 1, n) if m[i][r]), None)
            if swap is None:
                return 0
            m[r], m[swap] = m[swap], m[r]
            sign = -sign
        row_r = m[r]
        piv = row_r[r]
        for row in m[r + 1:]:
            a = row[r]
            for j in range(r + 1, width):
                row[j] = (row[j] * piv - a * row_r[j]) // prev
        prev = piv
    return sign if m[n - 1][n - 1] else 0


def _det(rows: list[list], one):
    m = [list(r) for r in rows]
    if any(len(r) != len(m) for r in m):
        raise ValueError("square matrix required")
    if not m:
        return one
    sign = _eliminate(m)
    return sign * m[-1][-1]


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix."""
    return _det(rows, 1)


def det_tpoly(rows: list[list[TPoly | int]]) -> TPoly:
    """Exact determinant of a matrix over Z[t]; int entries are coerced."""
    coerced = [[e if isinstance(e, TPoly) else TPoly.const(e) for e in r] for r in rows]
    return _det(coerced, TPoly.const(1))


def solve_exact(a_rows: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly over Q; returns None when A is singular."""
    n = len(a_rows)
    if any(len(r) != n for r in a_rows) or len(b) != n:
        raise ValueError("dimension mismatch")
    if n == 0:
        return []
    # Clear denominators row by row: integer augmented matrix, same solution.
    aug = [clear_denominators([*row, rhs]) for row, rhs in zip(a_rows, b)]
    if not _eliminate(aug):
        return None
    # Exact back substitution in Fractions.
    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    return x
