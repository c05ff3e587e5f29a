"""Host-speed reference used to normalise every timing of the benchmark.

The host this benchmark was built on runs the same pure-Python loop at
speeds that differ by up to 2x, changing within a tenth of a second.  A
fixed reference kernel is therefore timed between operations, and each
operation's wall time is rescaled to what it would have taken on a host
where a reference block takes exactly ``NOMINAL_REF_S``.  The kernel never
calls grascat, so a change to the library cannot move the yardstick.
"""

from __future__ import annotations

import gc
import statistics
import time

# Seconds one reference block takes on the nominal host.  It is the median
# block time on the 2-vCPU VM the benchmark was written on (Python 3.11), so
# normalised seconds read roughly like wall seconds there.  Never change it:
# every recorded figure is in these units.
NOMINAL_REF_S = 0.0014

# Host speed stays correlated over about this many seconds: on the
# development VM, block times 0.11 s apart correlate at 0.2, 4.5 ms apart at
# 0.9.
CORRELATION_S = 0.1

_SIZE = 9
_INNER = 32
_REPEATS = 3


def _fixed_matrix() -> list[list[int]]:
    state = 12345
    rows = []
    for _ in range(_SIZE):
        row = []
        for _ in range(_SIZE):
            state = (1103515245 * state + 12345) % 2**31
            row.append(state % 19 - 9)
        rows.append(row)
    return rows


_MATRIX = _fixed_matrix()


def reference_kernel() -> int:
    """Fraction-free (Bareiss) determinant of a fixed 9x9 integer matrix.

    Exact integer arithmetic on small and mid-sized ints, like the library's
    own kernels; it allocates only short-lived ints and one row copy.
    """
    m = [row[:] for row in _MATRIX]
    n = _SIZE
    sign, prev = 1, 1
    for col in range(n - 1):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivot, top = m[col][col], m[col]
        for r in range(col + 1, n):
            row, f = m[r], m[r][col]
            for c in range(col + 1, n):
                row[c] = (pivot * row[c] - f * top[c]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def reference_block(clock=time.perf_counter) -> float:
    """Wall time of one block of kernel runs, the median of a few, GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_REPEATS):
            start = clock()
            for _ in range(_INNER):
                reference_kernel()
            times.append(clock() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor turning wall seconds measured between two blocks into nominal ones."""
    return NOMINAL_REF_S / ((before + after) / 2)


def window_scales(spans, blocks) -> list[float]:
    """Normalising factor for each (start, end) span, from (time, block) pairs.

    An operation much shorter than CORRELATION_S ran at the speed its two
    neighbouring blocks saw.  A longer one ran through many of the host's
    phases, which its endpoints sample poorly, so it is scaled by the mean
    block time over a window that widens with its duration.
    """
    factors = []
    for start, end in spans:
        reach = (end - start) + CORRELATION_S
        near = [b for t, b in blocks if start - reach <= t <= end + reach]
        factors.append(NOMINAL_REF_S / (sum(near) / len(near)))
    return factors
