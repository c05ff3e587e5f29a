"""Elimination over the prime field F_p, p = 2^31 - 1.

One kernel: row-vectorised Gaussian elimination in numpy int64.  Every
entry is reduced into [0, p) first, so products stay below p^2 < 2^63.
It serves both fields of the E-invariants.  Over F_p, `rank_mod_p` is the
number of pivots it finds.  Over Q, `linalg.rank_int` runs it once, as
Gauss-Jordan on a large integer matrix b beside an identity, [b | I], with
pivots sought in b's columns only.  That one pass gives the rank mod p, the
pivot rows and columns, and in the identity part the inverse of the pivot
block, which the lifted kernel certificate needs.
"""

from __future__ import annotations

import numpy as np

# Fixed: the lifting in `linalg` splits residues into 16-bit halves and
# guards its int64 sums assuming p < 2^31.
PRIME = 2**31 - 1


def echelon_mod_p(
    a: np.ndarray, jordan: bool = False, width: int | None = None
) -> tuple[np.ndarray, list[int], list[int]]:
    """Row echelon form of an integer matrix over F_p, p = PRIME, pivots scaled to 1.

    Returns (reduced matrix, pivot columns, original row of each result row).
    The first len(pivot columns) rows are the pivot rows; the minor of the
    input on those rows and columns is nonzero mod p.  With ``jordan`` the
    entries above each pivot are cleared too (reduced row echelon form).
    Pivots are sought in the first ``width`` columns only (all by default);
    the columns past them are carried along by the same row operations.
    """
    p = PRIME
    m = np.mod(np.ascontiguousarray(a, dtype=np.int64), p)
    nrows, ncols = m.shape
    order = list(range(nrows))
    pivots: list[int] = []
    for col in range(ncols if width is None else width):
        rank = len(pivots)
        if rank == nrows:
            break
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + nz[0]
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
            order[rank], order[piv] = order[piv], order[rank]
        inv = pow(int(m[rank, col]), -1, p)
        m[rank, col:] = (m[rank, col:] * inv) % p
        start = 0 if jordan else rank + 1
        rows = np.nonzero(m[start:, col])[0] + start
        if jordan:
            rows = rows[rows != rank]
        if rows.size:
            m[rows, col:] = (m[rows, col:] - np.outer(m[rows, col], m[rank, col:])) % p
        pivots.append(col)
    return m, pivots, order


def rank_mod_p(a: np.ndarray) -> int:
    """Rank of an integer matrix over F_p, p = PRIME."""
    if a.size == 0:
        return 0
    return len(echelon_mod_p(a)[1])


def backend() -> str:
    """Name of the elimination kernel; there is one, in numpy."""
    return "numpy"
