"""Exact linear algebra over the integers and rationals.

Everything here is deliberately float-free: ranks and solutions feed
zero-certificates, so a wrong pivot decision is a wrong theorem.

One fraction-free integer core serves every kernel.  A rational row is
cleared to an integer row times the lcm of its denominators; ``rank_int``
and ``det`` then share one Bareiss elimination (Bareiss 1968, Math. Comp.
22), whose exact divisions keep every entry a minor of the input, and
``rref`` runs Gauss-Jordan on primitive integer rows.  ``Fraction`` appears
only at the boundary: in the inputs, and in what ``det`` and ``rref`` return.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .errors import NoIntegerSolution, NonUniqueSolution

__all__ = [
    "rank_int",
    "rref",
    "det",
    "ExactSolver",
]


def _cleared(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Integer rows and their scales: row i of the input is rows[i] / scales[i].

    Entries are ints or Fractions; each row is multiplied by the lcm of its
    own denominators, with integer arithmetic only.
    """
    out, scales = [], []
    for row in rows:
        dens = [x.denominator for x in row]
        d = lcm(*dens)
        if d == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (d // e) for x, e in zip(row, dens)])
        scales.append(d)
    return out, scales


def _bareiss(m: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free row echelon elimination of ``m``, in place.

    Returns (rank, sign of the row permutation, last pivot).  For a square
    matrix of full rank the last pivot is sign times its determinant.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        piv = rank
        while piv < nrows and not m[piv][col]:
            piv += 1
        if piv == nrows:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        pivot = top[col]
        for r in range(rank + 1, nrows):
            mr = m[r]
            f = mr[col]
            if f == 0 and pivot == prev:
                continue
            for c in range(col, ncols):
                mr[c] = (pivot * mr[c] - f * top[c]) // prev
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank, sign, prev


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix via fraction-free Bareiss elimination."""
    return _bareiss([list(map(int, r)) for r in rows])[0]


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix of ints or Fractions.

    Bareiss elimination of the cleared rows: the last pivot, signed, divided
    by the product of the row scales; 0 when the rank falls short.
    """
    m, scales = _cleared(rows)
    rank, sign, last = _bareiss(m)
    if rank < len(m):
        return Fraction(0)
    return Fraction(sign * last, prod(scales))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Entries may be ints or Fractions.  Gauss-Jordan runs on cleared integer
    rows, each updated row divided by the gcd of its entries; the result is
    converted to Fractions once, at the end.  The RREF is unique, so this
    equals rational elimination entry for entry.
    """
    m, _ = _cleared(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        top = m[row]
        pivot = top[col]
        for r in range(nrows):
            f = m[r][col]
            if r != row and f:
                new = [pivot * a - f * b for a, b in zip(m[r], top)]
                g = gcd(*new)
                m[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    zero = Fraction(0)
    out = [
        [Fraction(x, r[p]) if x else zero for x in r] for r, p in zip(m, pivots)
    ]
    out.extend([zero] * ncols for _ in range(nrows - len(pivots)))
    return out, pivots


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
            [columns[j][i] for j in range(self.ncols)]
            + [1 if t == i else 0 for t in range(self.nrows)]
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
        self.transform = [[x.numerator * (self.denom // x.denominator) for x in r] for r in e_rows]

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

