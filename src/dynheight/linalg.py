"""Exact linear solves used by the resultant, the certificates and the fibral code.

One Bareiss fraction-free elimination serves solve_scaled and solve_exact;
it keeps every intermediate value in the ground ring, read from the
entries (ints for Z, TPolys throughout for Z[t]), and its divisions are
exact by construction.

Both take one row format: a {column: value} dict, with columns 0..n-1
for the n unknowns; solve_exact checks the columns and drops zeros,
solve_scaled takes rows without zero entries.  The matrix may be
rectangular.  For each column c in turn the pivot is the pending row
with a nonzero entry in c and the fewest entries (ties go to the lowest
position); the parity of its position among the pending rows gives the
sign.  A column with no entry in any pending row has no pivot: its
unknown is free.  Bareiss then updates each pending row with an entry in
c, over the union of its columns and the pivot row's, and drops the
zeros; a row without one only changes by a factor, applied when the row
is next touched.  So an orbit matrix with k+1 entries per row is never
filled in densely.

solve_scaled eliminates rows augmented by one column per right-hand side.
A row left without a pivot means the rows are dependent, and there is no
solution.  Otherwise D, the sign times the last pivot, is the maximal
minor on the pivot columns (the determinant of a square matrix), and each
column is back-substituted without fractions: y_c = (D*b_c - sum_j
a_cj*y_j) / a_cc is in the ground ring by Cramer's rule, and the free
unknowns are 0.  With no right-hand side it is D alone.  solve_exact
clears denominators row by row, solves a square system with one
right-hand side, and builds one Fraction x_c = y_c / D per unknown.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import clear_denominators

__all__ = ["solve_exact", "solve_scaled"]


def _eliminate(rows: list[dict], n: int) -> tuple[int, list[tuple]]:
    """Sparse Bareiss elimination of columns 0..n-1 of the rows.

    Entries in columns n and above (an augmented right-hand side) are
    carried along; the row dicts are consumed.  Returns the sign of the
    pivot order and the pivots as (column, pivot value, rest of the pivot
    row) in column order, so that sign * pivots[-1][1] is the maximal
    minor on the pivot columns; the sign is 0 when a row is left without a
    pivot.
    """
    # A pending row is kept with the index of the pivot its values were last
    # brought to.  Bareiss rescales a row without an entry in the pivot
    # column by piv/prev; those factors telescope, so the rescale waits
    # until the row is next touched: by piv[now]/piv[then] when it becomes
    # the pivot row, and folded into the update, whose division is by
    # piv[then] instead of prev, when it is eliminated.
    pending = [(row, 0) for row in rows]
    scale = [1]
    pivots = []
    sign = 1
    for c in range(n):
        pos = None
        for i, (row, _s) in enumerate(pending):
            if c in row and (pos is None or len(row) < len(pending[pos][0])):
                pos = i
        if pos is None:
            continue
        if pos & 1:
            sign = -sign
        rest, s = pending.pop(pos)
        prev = scale[-1]
        if s != len(scale) - 1:
            rest = {j: v * prev // scale[s] for j, v in rest.items()}
        piv = rest.pop(c)
        pivots.append((c, piv, rest))
        scale.append(piv)
        for i, (row, s) in enumerate(pending):
            a = row.pop(c, None)
            if a is not None:
                new = {j: v * piv for j, v in row.items()}
                for j, v in rest.items():
                    new[j] = new.get(j, 0) - a * v
                q = scale[s]
                pending[i] = ({j: v // q for j, v in new.items() if v}, len(scale) - 1)
    return (0 if pending else sign), pivots


def _checked(rows: list[dict], n: int) -> list[dict]:
    """Copies of the rows without zeros; ValueError for a column outside 0..n-1."""
    out = []
    for row in rows:
        if any(not 0 <= j < n for j in row):
            raise ValueError("dimension mismatch")
        out.append({j: v for j, v in row.items() if v})
    return out


def solve_scaled(rows: list[dict], n: int, w: int) -> tuple | None:
    """Fraction-free solve of dict rows in n unknowns with w right-hand sides, over Z or Z[t].

    Columns 0..n-1 hold the matrix A and columns n..n+w-1 the right-hand
    sides b_t, with nonzero entries in one ring (ints, or TPolys
    throughout); the row dicts are consumed.  Returns (D, ys): D is the
    signed maximal minor of A on its pivot columns (det A when A is
    square; the empty matrix has D = 1), and ys[t] solves A y = D * b_t,
    in the ring by Cramer's rule, with the free unknowns 0.  None when the
    rows of A are dependent.
    """
    sign, pivots = _eliminate(rows, n)
    if not sign:
        return None
    det = sign * pivots[-1][1] if pivots else 1
    ys = []
    for t in range(n, n + w):
        y = [0] * n
        for c, piv, rest in reversed(pivots):
            acc = det * rest.get(t, 0)
            for j, v in rest.items():
                if j < n:
                    acc -= v * y[j]
            y[c] = acc // piv
        ys.append(y)
    return det, ys


def solve_exact(a_rows: list[dict], b: list[Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly over Q, A given by dict rows; None when A is singular."""
    n = len(a_rows)
    if len(b) != n:
        raise ValueError("dimension mismatch")
    aug = []
    for row, rhs in zip(_checked(a_rows, n), b):
        # Clear denominators over the row's nonzeros and its right-hand side.
        cols = [*row, n]
        aug.append({j: v for j, v in zip(cols, clear_denominators([*row.values(), rhs])) if v})
    solved = solve_scaled(aug, n, 1)
    if solved is None:
        return None
    det, (y,) = solved
    return [Fraction(v, det) for v in y]
