"""Exact linear algebra over the integers and rationals.

Everything here is deliberately float-free: ranks and solutions feed
zero-certificates, so a wrong pivot decision is a wrong theorem.

One fraction-free integer core serves every kernel.  A rational row is
cleared to an integer row times the lcm of its denominators; ``rank_int``
and ``det`` then share one Bareiss elimination (Bareiss 1968, Math. Comp.
22), whose exact divisions keep every entry a minor of the input, and
``rref`` runs Gauss-Jordan on primitive integer rows.  ``Fraction`` appears
only at the boundary: in the inputs, and in what ``det`` and ``rref`` return.

``rank_int`` dispatches on size.  A matrix with a side below 40, or with
max|entry| * min(shape) >= 2^31, goes to Bareiss.  A larger one gets a
certified modular rank: the rank r mod p = 2^31 - 1 from the one F_p
elimination in ``modp`` is a lower bound, and exact relations among the
rows, lifted p-adically from F_p and checked over Z, prove the upper bound.
If the check fails (p is a bad prime for the matrix), Bareiss decides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import index
from typing import Sequence

import numpy as np

from . import modp
from .errors import BadParameters, NoIntegerSolution, NonUniqueSolution

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


# Below this side length Bareiss is faster: 3.7 ms against 5.9 ms at 36x36,
# but 15.4 against 8.3 ms at 48x80 and 211 against 35 ms at 112x168.
_MODULAR_MIN = 40
# max|entry| * min(shape) below this keeps every lifting product in int64.
_LIFT_LIMIT = 2**31
# A bound on |partial sums| below this keeps an int64 product exact.
_INT64_LIMIT = 2**63


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix.

    A matrix with both sides at least 40 and max|entry| * min(shape) < 2^31
    gets the certified modular rank of `_certified_rank`, on the orientation
    with fewer rows, so that few relations need lifting.  Any other matrix,
    and any whose certificate fails (a bad prime), gets Bareiss elimination.
    Entries are ints, numpy integers or Fractions of denominator 1; any other
    entry, a float or a non-integral Fraction, raises BadParameters rather
    than being truncated.
    """
    try:
        m = [list(map(index, r)) for r in rows]
    except TypeError:
        m = [list(map(_integral, r)) for r in rows]
    short = min(len(m), len(m[0]) if m else 0)
    if short >= _MODULAR_MIN and max(max(max(r), -min(r)) for r in m) * short < _LIFT_LIMIT:
        rank = _certified_rank(m if len(m) == short else [list(c) for c in zip(*m)])
        if rank is not None:
            return rank
    return _bareiss(m)[0]


def _integral(x) -> int:
    """The int an integral Fraction (or any ``index``-able value) stands for."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    try:
        return index(x)
    except TypeError:
        raise BadParameters(f"rank_int needs integer entries, got {x!r}") from None


def _certified_rank(b: list[list[int]]) -> int | None:
    """Rank over Q of ``b`` (no more rows than columns), or None for a bad prime.

    One elimination mod p gives the rank r, pivot rows R and pivot columns C.
    The minor b[R, C] is nonzero mod p, so it is nonzero over Z: rank >= r.
    For each other row i, Dixon lifting (Dixon 1982, Numer. Math. 40) solves
    y b[R, C] = b[i, C] p-adically and rational reconstruction turns y into
    integers d, d*y; the exact check d*b[i] = (d*y) b[R] over every column
    puts row i in the span of rows R.  These len(b) - r relations are
    independent, so rank <= r.  Lifting stops at the Hadamard bound: past it
    a failing check means rank > r.
    """
    p = modp.PRIME
    full = np.array(b, dtype=np.int64)
    _, cols, order = modp.echelon_mod_p(full)
    r = len(cols)
    if r == len(b):
        return r
    piv, rest = order[:r], order[r:]
    a = full[np.ix_(piv, cols)]
    residual = full[np.ix_(rest, cols)]
    inv = modp.inverse_mod_p(a)
    inv_hi, inv_lo = inv >> 16, inv & 0xFFFF
    # By Cramer each y_j is a ratio of two determinants of rows of a and
    # b[i, C], and by Hadamard each is at most H = the product of those row
    # norms; reconstruction is sure once the modulus exceeds 2 H^2.  Entries
    # are below 2^31 / min(shape), so these sums of squares fit int64.
    norms = (a * a).sum(axis=1).tolist() + [int((residual * residual).sum(axis=1).max())]
    limit = 2 * prod(max(1, x) for x in norms)
    lifted = [[0] * r for _ in rest]  # y mod `modulus`, one row per relation
    pending = list(range(len(rest)))
    modulus = 1
    while pending:
        # x = residual a^-1 mod p, with a^-1 split in 16-bit halves so that
        # no int64 sum of products overflows; then residual <- (residual - x a) / p.
        low = residual % p
        x = ((low @ inv_hi) % p * 65536 + low @ inv_lo) % p
        residual = (residual - x @ a) // p
        for i, row in enumerate(x.tolist()):
            lifted[i] = [u + v * modulus for u, v in zip(lifted[i], row)]
        modulus *= p
        pending = [i for i in pending if not _exact_relation(b, piv, rest[i], lifted[i], modulus)]
        if pending and modulus > limit:
            return None
    return r


def _exact_relation(b, piv, i, y, modulus) -> bool:
    """Whether ``y`` mod ``modulus`` reconstructs to rationals with y b[piv] = b[i].

    The coordinates are reconstructed under one running common denominator
    d, then d*b[i] - sum (d*y_j) b[piv_j] must vanish in every column.
    """
    half = modulus // 2
    bound = isqrt(half)
    d = 1
    for u in y:
        v = d * u % modulus
        if min(v, modulus - v) <= bound:
            continue
        q = _denominator(v, modulus, bound)
        if q is None:
            return False
        d *= q
        if d > bound:
            return False
    acc = [d * x for x in b[i]]
    for j, u in zip(piv, y):
        c = d * u % modulus
        if c > half:
            c -= modulus
        if c:
            acc = [s - c * x for s, x in zip(acc, b[j])]
    return not any(acc)


def _denominator(v: int, modulus: int, bound: int) -> int | None:
    """The q <= bound of a fraction n/q = v mod ``modulus`` with |n| <= bound.

    Rational reconstruction by the extended Euclidean algorithm; None when
    no such fraction exists.
    """
    r0, r1, t0, t1 = modulus, v, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    t1 = abs(t1)
    return t1 if 0 < t1 <= bound else None


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
    thousands of right-hand sides.  The product runs in int64 when
    max row-|sum| of the transform times max|b| is below 2^63, which bounds
    every partial sum; otherwise in Python ints.
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
        self._row_bound = max((sum(map(abs, r)) for r in self.transform), default=0)
        self._transform64 = (
            np.array(self.transform, dtype=np.int64).reshape(self.nrows, self.nrows)
            if self._row_bound < _INT64_LIMIT
            else None
        )

    def _product(self, b: Sequence[int]) -> list[int]:
        """transform @ b in exact integers."""
        if self._transform64 is not None and self._row_bound * max(map(abs, b), default=0) < _INT64_LIMIT:
            return (self._transform64 @ np.array(b, dtype=np.int64)).tolist()
        return [sum(t * v for t, v in zip(row, b)) for row in self.transform]

    def solve_rational(self, b: Sequence[int]) -> list[Fraction] | None:
        """Unique rational x with A x = b, or None if b is outside the span."""
        if len(b) != self.nrows:
            raise NoIntegerSolution("right-hand side has wrong length")
        eb = self._product(b)
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
