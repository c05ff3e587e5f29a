"""Hernandez-Leclerc quivers, Kirillov-Reshetikhin subsets, generic kernels.

The semi-infinite quiver of type A_{k-1} is truncated at a level s < 0; its
vertices (i, m) carry KR modules, and the displayed subset formulas attach a
Plücker label to each vertex and to each generic kernel.  One formula in
(i, m, v) gives both labels: the KR label at (i, m) is the kernel label at
(i, m0, (m0 - m)/2) with m0 = 1 - (i mod 2).  The translate of a kernel
keeps the paper's own displayed formula, which `cmcat.tau_two_interval`
checks from the runs alone.  Intervals wrap cyclically: [7, 1] inside [9]
means {7, 8, 9, 1}.
"""

from __future__ import annotations

from functools import lru_cache

from . import fixtures
from .cluster import Quiver, grassmannian_initial_seed, mutate_quiver
from .cmcat import KSubset
from .einv import ConjecturalBool, generic_e_pair, generic_e_pair_parts
from .errors import BadParameters, OutOfRange, integer
from .gvec import g_vector
from .qpa import Algebra, QuiverWithPotential, build_algebra, triangle_qp
from .tableaux import Tableau

__all__ = [
    "gamma_quiver",
    "gamma_qp",
    "q_ell_quiver",
    "hl_mutation_sequence",
    "apply_mutation_sequence",
    "quivers_isomorphic",
    "kr_subset",
    "kernel_subset",
    "tau_kernel_subset",
    "kr_compatible",
    "gamma_vertices",
]


def _column_levels(i: int, s: int) -> list[int]:
    """m-levels of column i in the truncation at s, top (largest) first."""
    top = -2 if i % 2 == 1 else -1
    return list(range(top, s - 1, -2))


def gamma_vertices(k: int, s: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(mutable, frozen) vertices of the truncated quiver, column by column."""
    k, s = integer("k", k), integer("s", s)
    if k < 2 or s >= 0:
        raise BadParameters(f"need k >= 2 and s < 0, got (k,s)=({k},{s})")
    mutable, frozen = [], []
    for i in range(1, k):
        levels = _column_levels(i, s)
        if not levels:
            continue
        mutable.extend((i, m) for m in levels[:-1])
        frozen.append((i, levels[-1]))
    return mutable, frozen


def gamma_quiver(k: int, s: int) -> Quiver:
    """Truncation at level s of the type-A_{k-1} semi-infinite quiver.

    Arrows: (i, m+2) -> (i, m) down each column and (i, m-1) -> (j, m) for
    adjacent Dynkin indices; the lowest vertex of each column is frozen.
    """
    return Quiver.on_grid(
        *gamma_vertices(k, s), lambda i, m: [(i, m - 2), (i - 1, m + 1), (i + 1, m + 1)]
    )


def gamma_qp(k: int, s: int) -> QuiverWithPotential:
    """The truncated quiver with its canonical all-3-cycles potential."""
    q = gamma_quiver(k, s)
    return triangle_qp([f"{i},{m}" for i, m in q.coords], q.arrows, lambda a, b, c: 1)


def q_ell_quiver(k: int, ell: int) -> Quiver:
    """Initial quiver with (k-1)(ell+1) vertices and three arrow families."""
    k, ell = integer("k", k), integer("ell", ell)
    if k < 2 or ell < 0:
        raise BadParameters(f"need k >= 2 and ell >= 0, got ({k},{ell})")
    return Quiver.on_grid(
        *gamma_vertices(k, -2 * ell - 2),
        lambda i, a: [(i, a - 2), (i + 1, a + (-1) ** (i + 1)), (i - 1, a + 2 + (-1) ** (i - 1))],
    )


def hl_mutation_sequence(k: int, ell: int) -> list[tuple[int, int]]:
    """Column sweep turning the mutable part of Q_ell into the truncated quiver.

    Sweep j runs over columns k-1 down to 3+2j, each column top to bottom;
    sweeps continue while such columns exist (so k = 2, 3 give the empty
    sequence).
    """
    q = q_ell_quiver(k, ell)
    mutable = q.coords[: q.n_mut]  # column by column, each top to bottom
    seq: list[tuple[int, int]] = []
    j = 0
    while 3 + 2 * j <= k - 1:
        for i in range(k - 1, 3 + 2 * j - 1, -1):
            seq += [c for c in mutable if c[0] == i]
        j += 1
    return seq


def apply_mutation_sequence(q: Quiver, seq) -> Quiver:
    """Mutate at the listed coordinates in order."""
    if q.coords is None:
        raise BadParameters("quiver carries no coordinates")
    pos = {c: idx for idx, c in enumerate(q.coords)}
    out = q
    for c in seq:
        out = mutate_quiver(out, pos[tuple(c)])
    return out


def _wl_colors(n: int, adj_out, adj_in) -> list:
    colors = [0] * n
    for _ in range(n):
        signatures = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in adj_out[v])),
                tuple(sorted(colors[w] for w in adj_in[v])),
            )
            for v in range(n)
        ]
        palette = {sig: idx for idx, sig in enumerate(sorted(set(signatures)))}
        new = [palette[sig] for sig in signatures]
        if new == colors:
            break
        colors = new
    return colors


def quivers_isomorphic(q1: Quiver, q2: Quiver) -> bool:
    """Directed-multigraph isomorphism via colour refinement plus backtracking."""
    if q1.m != q2.m or len(q1.arrows) != len(q2.arrows):
        return False
    n = q1.m

    def adj(q):
        out = [[] for _ in range(n)]
        into = [[] for _ in range(n)]
        for s, t in q.arrows:
            out[s].append(t)
            into[t].append(s)
        return out, into

    out1, in1 = adj(q1)
    out2, in2 = adj(q2)
    c1 = _wl_colors(n, out1, in1)
    c2 = _wl_colors(n, out2, in2)
    if sorted(c1) != sorted(c2):
        return False
    arrows1 = {}
    for s, t in q1.arrows:
        arrows1[(s, t)] = arrows1.get((s, t), 0) + 1
    arrows2 = {}
    for s, t in q2.arrows:
        arrows2[(s, t)] = arrows2.get((s, t), 0) + 1

    candidates = [[w for w in range(n) if c2[w] == c1[v]] for v in range(n)]
    order = sorted(range(n), key=lambda v: len(candidates[v]))
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def consistent(v, w):
        for u, x in assignment.items():
            if arrows1.get((v, u), 0) != arrows2.get((w, x), 0):
                return False
            if arrows1.get((u, v), 0) != arrows2.get((x, w), 0):
                return False
        return arrows1.get((v, v), 0) == arrows2.get((w, w), 0)

    def search(idx):
        if idx == n:
            return True
        v = order[idx]
        for w in candidates[v]:
            if w in used or not consistent(v, w):
                continue
            assignment[v] = w
            used.add(w)
            if search(idx + 1):
                return True
            del assignment[v]
            used.remove(w)
        return False

    return search(0)


# --- subset formulas ---------------------------------------------------------


def _gamma_vertex(i: int, m: int, k: int, ell: int) -> tuple[int, int, int, int]:
    """(i, m, k, ell) as ints, (i, m) a vertex of the truncation at -2 ell - 2."""
    i, m, k, ell = integer("i", i), integer("m", m), integer("k", k), integer("ell", ell)
    if not 1 <= i <= k - 1:
        raise OutOfRange(f"i={i} outside [1, {k - 1}]")
    if (i + m) % 2 == 0:
        raise OutOfRange(f"(i,m)=({i},{m}) violates the parity rule")
    if not (-2 * ell - 2 <= m <= -1):
        raise OutOfRange(f"m={m} outside the truncation [-2*ell-2, -1]")
    return i, m, k, ell


def _kernel_label(i: int, m: int, v: int, k: int, ell: int) -> KSubset:
    """The (i, m, v) kernel formula, read modulo n = k + ell + 1.

    Two intervals: k-i entries from (i-m+1)/2, then, after a gap of v, i
    entries from (i-m+2v-1)/2 + k-i+1.  They span k + v <= n entries, so
    they never overlap for the parameters the callers accept.
    """
    n = k + ell + 1
    lo1 = (i - m + 1) // 2
    lo2 = (i - m + 2 * v - 1) // 2 + k - i + 1
    entries = (*range(lo1, lo1 + k - i), *range(lo2, lo2 + i))
    return KSubset(n, tuple((x - 1) % n + 1 for x in entries))


def kr_subset(i: int, m: int, k: int, ell: int) -> KSubset:
    """Plücker label of the KR module at vertex (i, m) (bipartite height).

    The KR formula's first interval starts at (i - xi'(i))/2, with the
    bipartite height xi'(i) = -(i mod 2).  That is the kernel formula's start
    at m0 = 1 - (i mod 2), so the label is the kernel label at
    (i, m0, (m0 - m)/2).
    """
    i, m, k, ell = _gamma_vertex(i, m, k, ell)
    m0 = 1 - i % 2
    return _kernel_label(i, m0, (m0 - m) // 2, k, ell)


@lru_cache(maxsize=1024, typed=True)
def _kernel_params(i: int, m: int, v: int, k: int, ell: int) -> tuple[int, int, int, int, int]:
    """(i, m, v, k, ell) as ints, checked; typed, so 1.0 never finds the entry of 1."""
    (i, m, k, ell), v = _gamma_vertex(i, m, k, ell), integer("v", v)
    if v < 1 or 2 * v > m + 2 * ell + (-1) ** (i + 1):
        raise OutOfRange(f"v={v} outside [1, (m+2*ell+(-1)^(i+1))/2] for (i,m)=({i},{m})")
    return i, m, v, k, ell


def kernel_subset(i: int, m: int, v: int, k: int, ell: int) -> KSubset:
    """Label of the generic kernel of I(i,m) -> I(i,m-2v)."""
    return _kernel_label(*_kernel_params(i, m, v, k, ell))


def tau_kernel_subset(i: int, m: int, v: int, k: int, n: int) -> KSubset:
    """Translate of the generic-kernel module, by the two displayed cases.

    The case split on (1-i-m)/2 <= 0 folds into one cyclic computation: the
    second case is the first one read modulo n.
    """
    if not 1 <= i <= k - 1:
        raise OutOfRange(f"i={i} outside [1, {k - 1}]")
    if (i + m) % 2 == 0:
        raise OutOfRange(f"(i,m)=({i},{m}) violates the parity rule")
    if v < 1:
        raise OutOfRange("v must be positive")
    if n <= k:
        raise OutOfRange(f"n={n} too small for k={k}: two intervals and a gap need n >= k + 1")
    lo1, hi1 = (1 - i - m) // 2, (i - m - 1) // 2
    lo2, hi2 = (i - m + 2 * v + 1) // 2, (i - m + 2 * v - 1) // 2 + k - i
    elems = {(x - 1) % n + 1 for x in (*range(lo1, hi1 + 1), *range(lo2, hi2 + 1))}
    if len(elems) != k:
        raise OutOfRange(f"intervals overlap for (i,m,v)=({i},{m},{v})")
    return KSubset(n, tuple(sorted(elems)))


def kr_compatible(
    v1: int,
    m1: int,
    i1: int,
    v2: int,
    m2: int,
    i2: int,
    k: int,
    ell: int,
    samples: int = 20,
    field: str = "fp",
    master_seed: int | None = None,
) -> ConjecturalBool:
    """Do the two generic-kernel cluster variables share a cluster?

    Over the tame Grassmannians this runs the e-invariant test on the
    g-vectors of the two kernel labels; elsewhere it falls back to the
    two-term presentations over the truncated quiver's Jacobian algebra.
    Identical labels are sampled like any other pair.
    """
    s1 = kernel_subset(i1, m1, v1, k, ell)
    s2 = kernel_subset(i2, m2, v2, k, ell)
    n = k + ell + 1
    key = next((key for key, shape in fixtures.TAME.items() if shape == (k, n)), None)
    if key is not None:
        seed = grassmannian_initial_seed(k, n)
        alg = fixtures.tame_algebra(key)
        g1 = g_vector(Tableau.from_subset(s1), seed)
        g2 = g_vector(Tableau.from_subset(s2), seed)
        report = generic_e_pair(g1, g2, alg, samples, field, master_seed)
        return ConjecturalBool(report.value == 0, report)
    return kr_compatible_gamma(v1, m1, i1, v2, m2, i2, k, ell, samples, field, master_seed)


@lru_cache(maxsize=16)
def _gamma_algebra_at(k: int, s: int) -> Algebra:
    """Jacobian algebra of Gamma(k, s), built once per (k, s); Algebra is immutable."""
    return build_algebra(gamma_qp(k, s))


def kr_compatible_gamma(
    v1: int,
    m1: int,
    i1: int,
    v2: int,
    m2: int,
    i2: int,
    k: int,
    ell: int,
    samples: int = 20,
    field: str = "fp",
    master_seed: int | None = None,
) -> ConjecturalBool:
    """Compatibility via the two-term presentations over the truncated algebra.

    Over this engine's orientation of the Jacobian algebra (projectives are
    right modules, paths compose left to right) the kernel variable for
    (i, m, v) presents as P(i, m-2v) -> P(i, m); the truncation depth follows
    the stated bound s <= m - 2v - 2.
    """
    i1, m1, v1, k, ell = _kernel_params(i1, m1, v1, k, ell)
    i2, m2, v2, k, ell = _kernel_params(i2, m2, v2, k, ell)
    alg = _gamma_algebra_at(k, min(m1 - 2 * v1 - 2, m2 - 2 * v2 - 2, -2 * ell - 2))
    parts1 = ((f"{i1},{m1 - 2 * v1}",), (f"{i1},{m1}",))
    parts2 = ((f"{i2},{m2 - 2 * v2}",), (f"{i2},{m2}",))
    report = generic_e_pair_parts(alg, parts1, parts2, samples, field, master_seed)
    return ConjecturalBool(report.value == 0, report)
