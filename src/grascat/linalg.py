"""Exact linear algebra over the integers and rationals.

Everything here is deliberately float-free: ranks and solutions feed
zero-certificates, so a wrong pivot decision is a wrong theorem.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import NoIntegerSolution, NonUniqueSolution

__all__ = [
    "rank_int",
    "rref",
    "det",
    "ExactSolver",
]


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix via fraction-free Bareiss elimination."""
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        pivot = m[row][col]
        for r in range(row + 1, nrows):
            f = m[r][col]
            if f == 0 and pivot == prev:
                continue
            mr, mrow = m[r], m[row]
            for c in range(col, ncols):
                mr[c] = (pivot * mr[c] - f * mrow[c]) // prev
        prev = pivot
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix of Fractions (Gaussian elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivot = m[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / pivot
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return sign * result


class ExactSolver:
    """Solves A x = b exactly for a fixed integer matrix A of full column rank.

    The inverse transform is precomputed once (row reduction of [A | I]),
    after which each solve is a single integer matrix-vector product.  Used
    for content-grid decompositions where the same basis is queried for
    thousands of right-hand sides.
    """

    def __init__(self, columns: Sequence[Sequence[int]]):
        """`columns` are the basis vectors; the matrix A has them as columns."""
        self.ncols = len(columns)
        self.nrows = len(columns[0]) if columns else 0
        aug = [
            [Fraction(columns[j][i]) for j in range(self.ncols)]
            + [Fraction(1 if t == i else 0) for t in range(self.nrows)]
            for i in range(self.nrows)
        ]
        red, pivots = rref(aug)
        if pivots[: self.ncols] != list(range(self.ncols)):
            raise NonUniqueSolution(
                "basis vectors are linearly dependent; decomposition not unique"
            )
        # E·A = [I; 0] with E integral after clearing one common denominator.
        e_rows = [r[self.ncols :] for r in red]
        self.denom = lcm(*(x.denominator for r in e_rows for x in r))
        self.transform = [[int(x * self.denom) for x in r] for r in e_rows]

    def solve_rational(self, b: Sequence[int]) -> list[Fraction] | None:
        """Unique rational x with A x = b, or None if b is outside the span."""
        if len(b) != self.nrows:
            raise NoIntegerSolution("right-hand side has wrong length")
        eb = [sum(t * v for t, v in zip(row, b)) for row in self.transform]
        if any(x != 0 for x in eb[self.ncols :]):
            return None
        return [Fraction(x, self.denom) for x in eb[: self.ncols]]

    def solve_integer(self, b: Sequence[int]) -> list[int]:
        """Unique integer x with A x = b; raises NoIntegerSolution otherwise."""
        x = self.solve_rational(b)
        if x is None:
            raise NoIntegerSolution("vector is outside the integer span of the basis")
        if any(v.denominator != 1 for v in x):
            raise NoIntegerSolution("solution exists but is not integral")
        return [int(v) for v in x]

