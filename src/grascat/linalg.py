"""Exact linear algebra over the integers.

Everything here is deliberately float-free: ranks and solutions feed
zero-certificates, so a wrong pivot decision is a wrong theorem.

One fraction-free elimination serves every kernel: Bareiss's (Bareiss
1968, Math. Comp. 22), whose exact divisions keep every entry a minor of
the input.  ``rank_int`` and ``det`` run its forward mode, ``rref`` its
Gauss-Jordan mode, which ends with every pivot entry equal to the last
pivot d, so that the reduced row echelon form is the integer rows over d.
Every kernel takes integer rows and returns integers: a caller with
rational rows clears their denominators itself.

``det`` dispatches on size.  The 3 x 3 and 4 x 4 determinants of the braid
check are written out as cofactor expansions, about twice as fast as the
elimination loop at those sizes; every other size gets Bareiss.

``rank_int`` dispatches on size.  A matrix with a side below 28, or with
max|entry| * min(shape) >= 2^31, goes to Bareiss.  A larger one gets a
certified modular rank.  One Gauss-Jordan elimination mod a lifting prime
p < 2^24, with the transform, in ``modp`` gives the rank r mod p, a lower
bound, and the inverse of the pivot block.  At that prime every int64 sum
of mod-p products stays exact without splitting residues.  Exact relations
among the rows, lifted p-adically from F_p and checked over Z on the pivot
rows' nonzeros, prove the upper bound.  If the check fails (p is a bad
prime for the matrix), Bareiss decides.  An integer numpy array is taken as
it is; other input is read as rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod
from operator import index
from typing import Sequence

import numpy as np

from . import modp
from .errors import BadParameters, DimensionMismatch, NoIntegerSolution, NonUniqueSolution

__all__ = [
    "rank_int",
    "rref",
    "det",
    "ExactSolver",
]


def _int_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows as lists of ints, all of one length.

    Entries are ints, numpy integers or Fractions of denominator 1; any
    other entry, a float or a non-integral Fraction, raises BadParameters
    rather than being truncated, as does a row that is not a sequence.
    Rows of different lengths raise DimensionMismatch.
    """
    try:
        m = [list(map(index, r)) for r in rows]
    except TypeError:
        try:
            m = [list(map(_integral, r)) for r in rows]
        except TypeError:
            raise BadParameters("exact linear algebra needs a sequence of rows") from None
    widths = {len(r) for r in m}
    if len(widths) > 1:
        raise DimensionMismatch(f"matrix rows have different lengths {sorted(widths)}")
    return m


def _integral(x) -> int:
    """The int an integral Fraction (or any ``index``-able value) stands for."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    try:
        return index(x)
    except TypeError:
        raise BadParameters(f"exact linear algebra needs integer entries, got {x!r}") from None


def _bareiss(m: list[list[int]], reduced: bool = False) -> tuple[int, int, int, list[int]]:
    """Fraction-free elimination of ``m``, in place.

    Returns (rank, sign of the row permutation, last pivot, pivot columns).
    Each step replaces an entry a by (pivot a - f b) / prev, where f is the
    row's entry in the pivot column, b the pivot row's entry and prev the
    previous pivot; the division is exact.  The forward mode updates the
    rows below the pivot from its column on, giving a row echelon form; for
    a square matrix of full rank the last pivot is sign times its
    determinant.  The ``reduced`` (Gauss-Jordan) mode first negates a
    negative pivot row, then updates every other row from column 0: each
    pivot row's pivot entry ends equal to the last pivot d > 0, the reduced
    row echelon form is m / d, and the sign does not count the negations.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank, sign, prev = 0, 1, 1
    pivots = []
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
        if reduced and pivot < 0:
            # Positive pivots keep pivot == prev, and with it the skip below,
            # common: without the negation Gamma(5,-10) reduces about 4x slower.
            top = m[rank] = [-x for x in top]
            pivot = -pivot
        first, start = (0, 0) if reduced else (rank + 1, col)
        for r in range(first, nrows):
            mr = m[r]
            f = mr[col]
            if f == 0 and pivot == prev or r == rank:
                continue
            for c in range(start, ncols):
                mr[c] = (pivot * mr[c] - f * top[c]) // prev
        pivots.append(col)
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank, sign, prev, pivots


# From this shorter side on the certified modular rank is faster.  Medians
# per call on the rational matrices of a seed-1 `einv` round, Bareiss
# against modular (three runs, 2 vCPUs, Python 3.11, numpy 2.4):
#   16x16    0.21-0.25 ms against 0.54-0.71 ms
#   28x28    1.00-1.25 ms against 0.81-1.16 ms
#   40x28    1.44-1.91 ms against 1.11-1.37 ms
#   32x32    2.03-2.18 ms against 1.31-1.51 ms
#   48x48    6.3-7.3 ms against 1.8-2.4 ms;  112x112 105-117 ms against 8.0-8.3 ms
_MODULAR_MIN = 28
# max|entry| * min(shape) below this keeps every lifting product in int64.
_LIFT_LIMIT = 2**31
# A bound on |partial sums| below this keeps an int64 product exact.
_INT64_LIMIT = 2**63
# The largest prime below 2^24.  A mod-p product of r rows sums r (p-1)^2 <
# 2^63 for r < 2^15 without splitting, and `modp.echelon_mod_p` defers its
# reduction on any matrix with a side below 2^15.
_LIFT_PRIME = 2**24 - 3


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix.

    A matrix with both sides at least `_MODULAR_MIN`,
    max|entry| * min(shape) < 2^31 and min(shape) (p-1)^2 < 2^63, p the
    lifting prime, gets the certified modular rank of
    `_certified_rank`, on the orientation with fewer rows, so that few
    relations need lifting.  Any other matrix, and any whose certificate
    fails (a bad prime), gets Bareiss elimination.  A 2-d numpy array of a
    signed integer dtype is taken as it is; any other input is read row by
    row, as `_int_rows` reads it.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "i":
        full, m = rows.astype(np.int64, copy=False), None
        short = min(full.shape)
    else:
        m, full = _int_rows(rows), None
        short = min(len(m), len(m[0]) if m else 0)
    if short >= _MODULAR_MIN:
        if full is None:
            big = max(max(max(r), -min(r)) for r in m)
        else:
            # In Python ints: np.abs(-2^63) wraps to -2^63 and would pass the guard.
            big = max(int(full.max()), -int(full.min()))
        if big * short < _LIFT_LIMIT and short * (_LIFT_PRIME - 1) ** 2 < _INT64_LIMIT:
            if full is None:
                full = np.array(m, dtype=np.int64)
            rank = _certified_rank(full if len(full) == short else full.T)
            if rank is not None:
                return rank
    return _bareiss(full.tolist() if m is None else m)[0]


def _certified_rank(b: np.ndarray | Sequence[Sequence[int]]) -> int | None:
    """Rank over Q of ``b`` (no more rows than columns), or None for a bad prime.

    One Gauss-Jordan elimination mod p = `_LIFT_PRIME` with the transform
    gives the rank r, pivot rows R, pivot columns C and the inverse of
    b[R, C] mod p.  The minor b[R, C] is nonzero mod p, so it is nonzero
    over Z: rank >= r.  For each other row i, Dixon lifting (Dixon 1982,
    Numer. Math. 40) solves y b[R, C] = b[i, C] p-adically and rational
    reconstruction turns y into integers d, d*y; the exact check
    d*b[i] = (d*y) b[R] over every column puts row i in the span of rows R.
    These len(b) - r relations are independent, so rank <= r.  Lifting stops
    at the Hadamard bound: past it a failing check means rank > r.
    """
    p = _LIFT_PRIME
    full = np.asarray(b, dtype=np.int64)
    red, cols, order = modp.echelon_mod_p(full, p, transform=True)
    r = len(cols)
    if r == len(full):
        return r
    inv = red[:r, full.shape[1] : full.shape[1] + r]
    piv, rest = order[:r], order[r:]
    a = full[np.ix_(piv, cols)]
    residual = full[np.ix_(rest, cols)]
    # The pivot rows' nonzeros as (column, value) pairs, for the exact check.
    pivot_rows = full[piv]
    where, at = np.nonzero(pivot_rows)
    pairs = list(zip(at.tolist(), pivot_rows[where, at].tolist()))
    ends = np.cumsum(np.bincount(where, minlength=r)).tolist()
    sparse = [pairs[s:e] for s, e in zip([0] + ends, ends)]
    targets = full[rest].tolist()
    # By Cramer each y_j is a ratio of two determinants of rows of a and
    # b[i, C], and by Hadamard each is at most H = the product of those row
    # norms; reconstruction is sure once the modulus exceeds 2 H^2.  Entries
    # are below 2^31 / min(shape), so these sums of squares fit int64.
    norms = (a * a).sum(axis=1).tolist() + [int((residual * residual).sum(axis=1).max())]
    limit = 2 * prod(max(1, x) for x in norms)
    lifted = [[0] * r for _ in rest]  # y mod `modulus`, one row per relation
    # All relations are lifted together, and one that reconstructs at some
    # modulus reconstructs at every larger one.  So each step tries them in
    # order and stops at the first failure: relations [0, proved) are proved.
    proved, modulus = 0, 1
    while proved < len(rest):
        # x = residual a^-1 mod p, its sums of r products below r (p-1)^2 <
        # 2^63 (`rank_int` guards r); then residual <- (residual - x a) / p.
        x = (residual % p) @ inv % p
        residual = (residual - x @ a) // p
        for i, row in enumerate(x.tolist()):
            lifted[i] = [u + v * modulus for u, v in zip(lifted[i], row)]
        modulus *= p
        while proved < len(rest) and _exact_relation(
            targets[proved], sparse, lifted[proved], modulus
        ):
            proved += 1
        if proved < len(rest) and modulus > limit:
            return None
    return r


def _exact_relation(target: list[int], sparse: list, y: list[int], modulus: int) -> bool:
    """Whether ``y`` mod ``modulus`` reconstructs to rationals with y B = target.

    B's rows are given by their nonzeros, ``sparse[j]`` the (column, value)
    pairs of row j.  The coordinates are reconstructed under one running
    common denominator d, then d*target - sum (d*y_j) B[j] must vanish in
    every column.
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
    acc = [d * x for x in target]
    for pairs, u in zip(sparse, y):
        c = d * u % modulus
        if c > half:
            c -= modulus
        if c:
            for col, x in pairs:
                acc[col] -= c * x
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


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix.

    Split by size, as ``rank_int`` is.  A 3 x 3 matrix is expanded along its
    first row.  A 4 x 4 matrix is expanded by complementary minors (Laplace
    along the top two rows): each 2 x 2 minor of the top rows times the 2 x 2
    minor of the bottom rows on the other two columns.  Any other size gets
    forward Bareiss elimination: the last pivot, signed, or 0 when the rank
    falls short.  A matrix that is not square raises DimensionMismatch.
    """
    m = _int_rows(rows)
    size = len(m)
    if m and len(m[0]) != size:
        raise DimensionMismatch(f"det needs a square matrix, got {size} x {len(m[0])}")
    if size == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if size == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
        # Top minor on columns (p, q) times bottom minor on the other two,
        # signed by (-1)^(1 + 2 + p + q) with 1-based p, q.
        return (
            (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
        )
    rank, sign, last, _ = _bareiss(m)
    return sign * last if rank == size else 0


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form of an integer matrix: (rows, pivot columns, scale).

    Gauss-Jordan Bareiss elimination.  The RREF is the returned integer rows
    divided by ``scale`` > 0, entry for entry; each pivot row holds
    ``scale`` in its pivot column, and the rows past the pivot rows are zero.
    """
    m = _int_rows(rows)
    _, _, scale, pivots = _bareiss(m, reduced=True)
    return m, pivots, scale


class ExactSolver:
    """Solves A x = b exactly for a fixed integer matrix A of full column rank.

    The inverse transform is precomputed once, by fraction-free row
    reduction of [A | I]: the integer transform E and the least common
    denominator ``denom`` of its entries, with E A = denom [I; 0].  After
    that each solve is a single integer matrix-vector product.  Used
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
        red, pivots, scale = rref(aug)
        if pivots[: self.ncols] != list(range(self.ncols)):
            raise NonUniqueSolution(
                "basis vectors are linearly dependent; decomposition not unique"
            )
        # E·A = [I; 0] with E = e_rows / scale; dividing both by their gcd
        # leaves the least common denominator of E's entries.
        e_rows = [r[self.ncols :] for r in red]
        g = gcd(scale, *(x for r in e_rows for x in r))
        self.denom = scale // g
        self.transform = [[x // g for x in r] for r in e_rows]
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

    def solve_integer(self, b: Sequence[int]) -> list[int]:
        """Unique integer x with A x = b; raises NoIntegerSolution otherwise.

        x is transform @ b over denom, so it is integral exactly when denom
        divides every coordinate; no Fraction is built.
        """
        if len(b) != self.nrows:
            raise NoIntegerSolution("right-hand side has wrong length")
        eb = self._product(b)
        if any(eb[self.ncols :]):
            raise NoIntegerSolution("vector is outside the integer span of the basis")
        d = self.denom
        if d == 1:
            return eb[: self.ncols]
        if any(x % d for x in eb[: self.ncols]):
            raise NoIntegerSolution("solution exists but is not integral")
        return [x // d for x in eb[: self.ncols]]
