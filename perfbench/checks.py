"""Independent checkers for the benchmark's answers.

None of these calls into grascat: they recompute what the library claims
from definitions, in plain Python integers, so that a faster kernel that
returns a wrong answer makes the benchmark report ``correct: false``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, lcm


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def int_det(rows) -> int:
    """Leibniz-formula determinant of a square integer matrix."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = _perm_sign(perm)
        for i, j in enumerate(perm):
            term *= rows[i][j]
            if not term:
                break
        total += term
    return total


def rational_det(rows) -> Fraction:
    """Determinant of a rational matrix: clear each row's denominators, then
    take the integer Leibniz determinant."""
    scale = 1
    int_rows = []
    for row in rows:
        row = [Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        scale *= d
        int_rows.append([int(x * d) for x in row])
    return Fraction(int_det(int_rows), scale)


def window_minors(vectors, k: int) -> list[Fraction]:
    """The n cyclic k x k minors det(v_i, ..., v_{i+k-1}), i = 1..n."""
    n = len(vectors)
    return [
        rational_det([vectors[(i + t) % n] for t in range(k)]) for i in range(n)
    ]


def content(k: int, n: int, rows) -> list[list[int]]:
    """k x n grid: entry [r][v-1] counts the boxes of value v in row r."""
    grid = [[0] * n for _ in range(k)]
    for r, row in enumerate(rows):
        for v in row:
            grid[r][v - 1] += 1
    return grid


def content_sum_holds(k: int, n: int, rows, g, label_rows) -> bool:
    """content(rows) == sum_j g_j * content(label_j), in plain integers."""
    want = content(k, n, rows)
    got = [[0] * n for _ in range(k)]
    for coeff, lab in zip(g, label_rows, strict=True):
        for r, row in enumerate(content(k, n, lab)):
            for v, count in enumerate(row):
                got[r][v] += coeff * count
    return got == want


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


# (clusters, cluster variables) of the finite-type Grassmannians beyond k = 2,
# by type: Gr(3,6) is D4, Gr(3,7) is E6 (Scott 2006).
_FINITE = {(3, 6): (50, 16), (3, 7): (833, 42)}


def closure_counts(k: int, n: int) -> tuple[int, int]:
    """Clusters and mutable cluster variables of Gr(k, n) in finite type.

    Gr(2, n) is type A_{n-3}: Catalan(n-2) clusters and n(n-3)/2 variables.
    """
    if k == 2:
        return catalan(n - 2), n * (n - 3) // 2
    return _FINITE[(k, n)]


def weakly_separated(a, b, n: int) -> bool:
    """Plücker coordinates of two k-subsets lie in a common cluster iff the
    subsets are weakly separated: going round [n], the elements of a - b and
    of b - a form two arcs (Oh-Postnikov-Speyer)."""
    only_a, only_b = set(a) - set(b), set(b) - set(a)
    seq = [x in only_a for x in range(1, n + 1) if x in only_a or x in only_b]
    changes = sum(x != y for x, y in zip(seq, seq[1:] + seq[:1]))
    return changes <= 2
