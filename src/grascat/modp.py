"""Elimination over a prime field F_p, the prime a parameter.

Two kernels for two sizes, as `linalg.rank_int` has Bareiss beside its
modular rank; the caller picks by size (`einv` by its operator's shape).
A small matrix, given as rows of Python ints, is ranked by
`rank_rows_mod_p`: one Gaussian elimination in Python ints, which at those
sizes is done before numpy's per-call overhead would be (a vector is its
one-pivot case).  Any other goes to `echelon_mod_p`, row-vectorised
Gaussian elimination in numpy int64, which serves both fields of the
E-invariants.
Over F_p, p = PRIME = 2^31 - 1, the prime that the sampled streams fix,
`rank_mod_p` is the number of pivots it finds.  Over Q, `linalg.rank_int`
runs it once, as Gauss-Jordan with the transform, at a smaller lifting
prime; that one pass gives the rank mod p, the pivot rows and columns, and
the inverse of the pivot block, which the lifted kernel certificate needs.
Both paths read integer entries exactly: Python ints of any size are
reduced mod p before they meet int64, and a float raises BadParameters
rather than being truncated.

Reduction is deferred when the input allows it.  Entries start in [0, p),
each row update subtracts a product of two reduced numbers, at most
(p-1)^2, and a row takes at most one update per pivot, so no entry passes
p + min(nrows, ncols) (p-1)^2 in absolute value.  When that is below 2^63,
only the pivot column and the pivot row, which feed the products, are
reduced at each step, and the rest once at the end: at a prime below 2^24
that holds for a matrix with a side below 2^15, so for every one
`linalg.rank_int` hands over.  Otherwise each update reduces the rows it
touched: at 2^31 - 1 that is every matrix with both sides at least 3, so
every one `einv` hands over.
"""

from __future__ import annotations

from operator import index

import numpy as np

from .errors import BadParameters, DimensionMismatch

PRIME = 2**31 - 1


def _residues(rows, p: int) -> list[list[int]]:
    """Each entry of `rows` reduced into [0, p), in Python ints.

    Entries are ints or numpy integers, exact at any size; any other entry
    (a float, say) raises BadParameters rather than being truncated.
    """
    try:
        return [[index(x) % p for x in row] for row in rows]
    except TypeError:
        raise BadParameters("a rank mod p needs integer entries") from None


def echelon_mod_p(
    a: np.ndarray, p: int = PRIME, transform: bool = False
) -> tuple[np.ndarray, list[int], list[int]]:
    """Row echelon form of an integer matrix over F_p, pivots scaled to 1.

    Returns (reduced matrix, pivot columns, original row of each result row),
    every entry in [0, p).  The first len(pivot columns) rows are the pivot
    rows; the minor of the input on those rows and columns is nonzero mod p.

    With ``transform`` the entries above each pivot are cleared too (reduced
    row echelon form), and nrows columns follow the input's that record the
    row operations in pivot order.  With r the rank, result row i is the sum
    over k < r of its column ncols + k times input row order[k], plus input
    row order[i] itself when i >= r.  So red[:r, ncols:ncols + r] is the
    inverse mod p of the input's minor on rows order[:r] and the pivot
    columns, and the columns past ncols + r are zero.  Column ncols + k gets
    its 1 when pivot k is chosen; no earlier pivot row touches it, so each
    update stops there.

    p must be a prime below 2^31, so that p + (p-1)^2 < 2^63.
    """
    if p >= 2**31:
        raise ValueError(f"the int64 kernel takes a prime below 2^31, got {p}")
    a = np.asarray(a)
    nrows, ncols = a.shape
    m = np.zeros((nrows, ncols + nrows * transform), dtype=np.int64)
    if a.dtype.kind == "i" or a.dtype.kind in "bu" and a.dtype.itemsize < 8:
        np.mod(a.astype(np.int64, copy=False), p, out=m[:, :ncols])
    elif a.size:
        # Exact Python ints (dtype object or uint64) are reduced before they
        # meet int64; anything else is refused rather than truncated.
        m[:, :ncols] = _residues(a.tolist(), p)
    # A row takes at most one update per pivot, each adding less than
    # (p-1)^2 in absolute value.
    defer = p + min(nrows, ncols) * (p - 1) ** 2 < 2**63
    order = list(range(nrows))
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        # The rows that can hold a nonzero in this column, reduced for the test
        # and for the products.
        first = 0 if transform else rank
        column = m[first:, col]
        if defer:
            np.mod(column, p, out=column)
        nz = column[rank - first :].nonzero()[0]
        if nz.size == 0:
            continue
        piv = rank + nz[0]
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
            order[rank], order[piv] = order[piv], order[rank]
        rows = rank + nz[1:]
        if transform:
            hi = ncols + rank + 1
            m[rank, hi - 1] = 1
            rows = np.concatenate([column[:rank].nonzero()[0], rows])
        else:
            hi = ncols
        top = m[rank, col:hi]
        if defer:
            np.mod(top, p, out=top)
        top *= pow(int(top[0]), -1, p)
        np.mod(top, p, out=top)
        if rows.size:
            block = m[rows, col:hi] - m[rows, col, None] * top
            if not defer:
                np.mod(block, p, out=block)
            m[rows, col:hi] = block
        pivots.append(col)
    if defer:
        np.mod(m, p, out=m)
    return m, pivots, order


def rank_mod_p(a: np.ndarray) -> int:
    """Rank of an integer matrix over F_p, p = PRIME: `echelon_mod_p`'s
    pivot count."""
    return len(echelon_mod_p(a)[1])


def rank_rows_mod_p(rows: list[list[int]]) -> int:
    """Rank over F_p, p = PRIME, of a small matrix given as rows of ints.

    One Gaussian elimination in Python ints, for the matrices too small to
    repay `echelon_mod_p`'s numpy calls; a vector is its one-pivot case.
    The entries are first reduced mod p, exactly at any size; a non-integer
    entry raises BadParameters, and rows of different lengths
    DimensionMismatch.
    """
    p = PRIME
    m = _residues(rows, p)
    if len({len(r) for r in m}) > 1:
        raise DimensionMismatch("matrix rows have different lengths")
    nrows = len(m)
    rank = 0
    for col in range(len(m[0]) if m else 0):
        for piv in range(rank, nrows):
            if m[piv][col]:
                break
        else:
            continue
        # Row `rank` is never read again, so the pivot row need not move
        # there; the row it holds moves to the pivot's place.
        top = m[piv]
        m[piv] = m[rank]
        a = top[col]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            if f:
                # a * row - f * top: nonzero multiples keep the row space.
                m[r] = [(a * x - f * y) % p for x, y in zip(m[r], top)]
        rank += 1
        if rank == nrows:
            break
    return rank


def backend() -> str:
    """Name of the elimination kernel; there is one, in numpy."""
    return "numpy"
