"""Matrix rank over the prime field F_p, p = 2^31 - 1.

One kernel: row-vectorised Gaussian elimination in numpy int64.  Every
entry is reduced into [0, p) first, so products stay below p^2 < 2^63.
The F_p E-invariant sampler takes one rank per sampled map; the traced
`einv` benchmark (perfbench/README.md) puts it at about a quarter of
`e_pair` self time, which is mostly homotopy assembly.
"""

from __future__ import annotations

import numpy as np

PRIME = 2**31 - 1


def rank_mod_p(a: np.ndarray, p: int = PRIME) -> int:
    """Rank of an integer matrix over F_p."""
    if a.size == 0:
        return 0
    m = np.mod(np.ascontiguousarray(a, dtype=np.int64), p)
    nrows, ncols = m.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + nz[0]
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), p - 2, p)
        m[rank, col:] = (m[rank, col:] * inv) % p
        rows = np.nonzero(m[rank + 1 :, col])[0] + rank + 1
        if rows.size:
            m[rows, col:] = (m[rows, col:] - np.outer(m[rows, col], m[rank, col:])) % p
        rank += 1
    return rank


def backend() -> str:
    """Name of the elimination kernel; there is one, in numpy."""
    return "numpy"
