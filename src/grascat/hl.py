"""Hernandez-Leclerc quivers, Kirillov-Reshetikhin subsets, generic kernels.

The semi-infinite quiver of type A_{k-1} is truncated at a level s < 0; its
vertices (i, m) carry KR modules, and the displayed subset formulas attach a
Plücker label to each vertex and to each generic kernel.  The column sweep
of `hl_mutation_sequence` turns Q_ell into the truncation at -2 ell - 2,
which `quivers_isomorphic` checks up to relabelling.  One formula in
(i, m, v) gives both labels: the KR label at (i, m) is the kernel label at
(i, m0, (m0 - m)/2) with m0 = 1 - (i mod 2).  The translate of a kernel
keeps the paper's own displayed formula on the kernel's own checked
parameters (ell = n - k - 1), and `cmcat.tau_two_interval` checks it from
the runs alone.  Intervals wrap cyclically: [7, 1] inside [9] means
{7, 8, 9, 1}.
"""

from __future__ import annotations

from collections import Counter
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
    """Mutate at the listed coordinates in order; an unknown one is BadParameters."""
    if q.coords is None:
        raise BadParameters("quiver carries no coordinates")
    pos = {c: idx for idx, c in enumerate(q.coords)}
    out = q
    for c in seq:
        try:
            r = pos[tuple(c)]
        except (KeyError, TypeError):
            raise BadParameters(f"{c!r} is not a coordinate of the quiver") from None
        out = mutate_quiver(out, r)
    return out


def quivers_isomorphic(q1: Quiver, q2: Quiver) -> bool:
    """Is there a bijection of the vertices carrying q1's arrows onto q2's?

    An exact decision for directed multigraphs: parallel arrows are counted,
    frozen marks and coords are ignored.  One backtracking search visits q1's
    vertices in breadth-first order, so every vertex but the first of its
    component has a neighbour matched before it.  Each vertex goes to an
    unused vertex of q2 with the same out- and in-degree whose arrow counts
    to and from every vertex matched so far agree.
    """
    if q1.m != q2.m or len(q1.arrows) != len(q2.arrows):
        return False
    arrows1, arrows2 = Counter(q1.arrows), Counter(q2.arrows)

    def degrees(q: Quiver) -> list[tuple[int, int]]:
        out, into = Counter(s for s, _ in q.arrows), Counter(t for _, t in q.arrows)
        return [(out[v], into[v]) for v in range(q.m)]

    deg1, deg2 = degrees(q1), degrees(q2)
    neighbours: list[set[int]] = [set() for _ in range(q1.m)]
    for s, t in arrows1:
        neighbours[s].add(t)
        neighbours[t].add(s)
    order: list[int] = []  # breadth-first, one component after another
    for root in range(q1.m):
        if root not in order:
            head = len(order)
            order.append(root)
            while head < len(order):
                order += sorted(neighbours[order[head]] - set(order))
                head += 1
    images: list[int] = []  # images[j] is the match of order[j]

    def fits(v: int, w: int) -> bool:
        return w not in images and deg2[w] == deg1[v] and all(
            arrows1[v, u] == arrows2[w, x] and arrows1[u, v] == arrows2[x, w]
            for u, x in zip(order, images)
        )

    # one iterator over q2's vertices per matched vertex, and one for the
    # next: a loop, not recursion, so the depth is not bounded by the stack
    tries = [iter(range(q2.m))]
    while len(images) < len(order):
        w = next((w for w in tries[-1] if fits(order[len(images)], w)), None)
        if w is not None:
            images.append(w)
            tries.append(iter(range(q2.m)))
        elif len(tries) == 1:
            return False
        else:
            tries.pop()
            images.pop()
    return True


# --- subset formulas ---------------------------------------------------------


def _gamma_vertex(i: int, m: int, k: int, ell: int) -> tuple[int, int, int, int]:
    """(i, m, k, ell) as ints, (i, m) a vertex of the truncation at -2 ell - 2."""
    i, m, k, ell = integer("i", i), integer("m", m), integer("k", k), integer("ell", ell)
    if not 1 <= i <= k - 1:
        raise OutOfRange(f"i={i} outside [1, {k - 1}]")
    if (i + m) % 2 == 0:
        raise OutOfRange(f"(i,m)=({i},{m}) violates the parity rule")
    if ell < 0:
        raise OutOfRange(f"n={k + ell + 1} too small for k={k}: need ell = n-k-1 >= 0, got {ell}")
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

    The parameters are those of `kernel_subset` at ell = n - k - 1, checked
    the same way.  The case split on (1-i-m)/2 <= 0 folds into one cyclic
    computation: the second case is the first one read modulo n.
    """
    i, m, v, k, ell = _kernel_params(i, m, v, k, integer("n", n) - integer("k", k) - 1)
    n = k + ell + 1
    lo1, hi1 = (1 - i - m) // 2, (i - m - 1) // 2
    lo2, hi2 = (i - m + 2 * v + 1) // 2, (i - m + 2 * v - 1) // 2 + k - i
    elems = {(x - 1) % n + 1 for x in (*range(lo1, hi1 + 1), *range(lo2, hi2 + 1))}
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
