"""Braid-group action on consecutively generic vector tuples.

All arithmetic is exact, because the checked relations are polynomial
identities that floats would blur.  A tuple holds each vector v in one
canonical integer form: the denominator q > 0, the lcm of the
denominators of v's entries, and the int row a = q v, so that
gcd(a, q) = 1.  Two vectors are equal exactly when their forms are, so
tuples are compared on ints, and ``sigma``, ``twisted_shift`` and
``plucker_proportional`` compute on ints; the Fraction entries
(``vectors``) are built from them when first read.  Every determinant is
the integer ``linalg.det`` of int rows, over the product of their
denominators.

A tuple built from raw vectors computes its n cyclic window minors, as
Fractions, once, when it is built; the genericity checks and the
denominators of ``sigma`` read them from there.  ``twisted_shift`` hands
them on rotated, and ``sigma`` derives its image's minors from its input's,
so neither recomputes them.  The check's rho^d is built in one step, a
rotation by d with the signs of the d wrapped vectors, not d shifts.

Write Delta_s for the minor of the window starting at s, and b for the
first position of a pair that sigma moves.  An image window starting
anywhere but b + 1 holds both vectors of each moved pair or neither, and
(v_b, v_{b+1}) -> (v_{b+1}, r v_{b+1} - v_b) is a determinant-1 operation
on two columns, so its minor is unchanged.  The window starting at b + 1
holds r v_{b+1} - v_b, then v_{b+2}, ..., v_{b+k-1} up to such operations,
then v_{b+k+1}; the three-term Plücker relation on those k - 2 middle
vectors and b < b+1 < b+k < b+k+1 gives its minor as
Delta_b Delta_{b+2} / Delta_{b+1}.

``braid_property_check`` computes each sigma_i(t) once and reuses it in all
three relations.  Two sides of a braid relation are compared as points of
the Grassmannian without their C(n, k) Plücker coordinates: equal tuples
are equal points, and otherwise the ranks of the two k x n matrices and of
the two stacked decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from numbers import Rational
from typing import ClassVar

import numpy as np

from .errors import BadParameters, DimensionMismatch, NotGeneric, integer
from .linalg import det, rank_int

__all__ = [
    "check_shape",
    "VectorTuple",
    "is_consecutively_generic",
    "twisted_shift",
    "sigma",
    "braid_property_check",
    "random_tuple",
    "plucker_vector",
    "plucker_proportional",
]

Vector = tuple[Fraction, ...]


def check_shape(k: int, n: int) -> tuple[int, int]:
    """(k, n) as ints; vector tuples need 1 <= k <= n (k > n repeats a vector in every window)."""
    k, n = integer("k", k), integer("n", n)
    if not 1 <= k <= n:
        raise BadParameters(f"vector tuples need 1 <= k <= n, got k={k}, n={n}")
    return k, n


def _canonical(v) -> tuple[tuple[int, ...], int]:
    """(a, q) with q > 0 the lcm of the denominators of v's entries and a = q v.

    Entries are ``numbers.Rational``: ints, numpy integers or Fractions.  Any
    other entry (a float, a Decimal, a string) raises BadParameters rather
    than being read as the rational it seems to stand for.  Numerators and
    denominators are read as Python ints, so that no numpy integer reaches
    the products of ``sigma``, where it would overflow.
    """
    if all(type(x) is int for x in v):
        return tuple(v), 1
    parts = []
    for x in v:
        if not isinstance(x, Rational):
            raise BadParameters(f"vector entries must be rational numbers, got {x!r}")
        parts.append((int(x.numerator), int(x.denominator)))
    q = lcm(*(b for _, b in parts))
    return tuple(a * (q // b) for a, b in parts), q


@dataclass(frozen=True, init=False, slots=True)
class VectorTuple:
    """n vectors of length k over the rationals, indexed cyclically.

    Vector i (0-based) is ``rows[i] / dens[i]`` in the canonical form of the
    module docstring, so equality and hashing, which read (k, n, rows, dens),
    agree with the Fraction vectors.  ``window_minors`` holds
    det(v_i, ..., v_{i+k-1}) for i = 1..n, cyclic indices.  The constructor
    computes them from the vectors, so that repeated checks of one tuple do
    the same work; ``twisted_shift`` and ``sigma``, which derive them
    exactly, build through ``_of`` instead.
    """

    k: int
    n: int
    rows: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]
    window_minors: tuple[Fraction, ...] = field(compare=False, repr=False)
    _vectors: tuple[Vector, ...] | None = field(compare=False, repr=False)

    def __init__(self, k: int, n: int, vectors):
        k, n = check_shape(k, n)
        if len(vectors) != n:
            raise DimensionMismatch(f"expected {n} vectors, got {len(vectors)}")
        forms = [_canonical(v) for v in vectors]
        if any(len(a) != k for a, _ in forms):
            raise DimensionMismatch("all vectors must have length k")
        rows = tuple(a for a, _ in forms)
        dens = tuple(q for _, q in forms)
        window_minors = tuple(
            _window_det(rows, dens, [(i + s) % n for s in range(k)]) for i in range(n)
        )
        self._fill(k, n, rows, dens, window_minors)

    @classmethod
    def _of(cls, k: int, n: int, rows, dens, window_minors) -> VectorTuple:
        """A tuple from canonical forms and exact window minors, unchecked."""
        t = object.__new__(cls)
        t._fill(k, n, rows, dens, window_minors)
        return t

    def _fill(self, k, n, rows, dens, window_minors) -> None:
        put = object.__setattr__
        put(self, "k", k)
        put(self, "n", n)
        put(self, "rows", rows)
        put(self, "dens", dens)
        put(self, "window_minors", window_minors)
        put(self, "_vectors", None)

    @property
    def vectors(self) -> tuple[Vector, ...]:
        """The vectors with Fraction entries, built on first access and kept."""
        if self._vectors is None:
            vecs = tuple(
                tuple(Fraction(x, q) for x in a) for a, q in zip(self.rows, self.dens)
            )
            object.__setattr__(self, "_vectors", vecs)
        return self._vectors

    @property
    def d(self) -> int:
        return gcd(self.k, self.n)

    def window_minor(self, start: int) -> Fraction:
        """det(v_start, ..., v_{start+k-1}) with cyclic indices."""
        return self.window_minors[(start - 1) % self.n]


def _window_det(rows, dens, idx) -> Fraction:
    """det of the vectors at 0-based positions ``idx``: det of their int rows
    over the product of their denominators."""
    return Fraction(det([rows[j] for j in idx]), prod(dens[j] for j in idx))


def is_consecutively_generic(t: VectorTuple) -> bool:
    """All n cyclic k x k minors are nonzero."""
    return all(t.window_minors)


def twisted_shift(t: VectorTuple) -> VectorTuple:
    """rho: rotate left, the wrapped vector picking up the sign (-1)^(k-1)."""
    return _rho_power(t, 1)


def _rho_power(t: VectorTuple, m: int) -> VectorTuple:
    """rho^m for 1 <= m <= n in one step: rotate left by m, each of the m
    wrapped vectors picking up the sign (-1)^(k-1)."""
    k, n, rows, w = t.k, t.n, t.rows, t.window_minors
    # Window i of the image is window i+m of t, with v_1, ..., v_m scaled by
    # the sign: for even k a window minor changes sign once for every
    # wrapped vector it holds, image positions n-m, ..., n-1.
    minors = w[m:] + w[:m]
    if k % 2:
        wrapped = rows[:m]
    else:
        wrapped = tuple(tuple(-x for x in r) for r in rows[:m])
        held = [0] * (n - m) + [1] * m
        held += held[: k - 1]  # windows run cyclically past position n
        minors = tuple(-x if sum(held[i : i + k]) % 2 else x for i, x in enumerate(minors))
    return VectorTuple._of(k, n, rows[m:] + wrapped, t.dens[m:] + t.dens[:m], minors)


def sigma(i: int, t: VectorTuple) -> VectorTuple:
    """Braid generator: acts on each length-d window of the tuple.

    Window positions i, i+1 become v_{i+1}, w with
    w = (det(v_i, v_{i+2}, ..., v_{i+k}) / det(v_{i+1}, ..., v_{i+k})) v_{i+1} - v_i,
    everything computed from the input tuple; other positions are untouched.
    The n/d numerators are the only determinants, each of the k int rows,
    over the product of their denominators: for each moved pair at
    b = i + j d, the image's window minor at b + 1 is
    Delta_b Delta_{b+2} / Delta_{b+1} (the Plücker relation, see the module
    docstring) and every other window minor is the input's.
    """
    i = integer("i", i)
    d = t.d
    if d < 2 or not 1 <= i <= d - 1:
        raise BadParameters(f"need 1 <= i <= gcd(k,n)-1 = {d - 1}, got {i}")
    if not is_consecutively_generic(t):
        raise NotGeneric("sigma requires a consecutively generic tuple")
    k, n, rows, dens, window = t.k, t.n, t.rows, t.dens, t.window_minors
    new_rows, new_dens, minors = list(rows), list(dens), list(window)
    # b = i + j d for j < n/d, so b0 <= n - 2 and neither position wraps.
    for b0 in range(i - 1, n, d):  # 0-based positions of v_b and v_{b+1}
        b1 = b0 + 1
        shared = [(b0 + s) % n for s in range(2, k + 1)]  # v_{b+2}, ..., v_{b+k}
        (a0, q0), (a1, q1) = (rows[b0], dens[b0]), (rows[b1], dens[b1])
        numerator = det([a0] + [rows[s] for s in shared])
        denominator = window[b1]
        # ratio = numerator / (prod of the numerator's dens) / denominator,
        # and w = ratio a1 / q1 - a0 / q0 = (x a1 - y a0) / (y q0)
        x = numerator * denominator.denominator * q0
        y = q0 * prod([dens[s] for s in shared]) * denominator.numerator * q1
        w = [x * u - y * v for u, v in zip(a1, a0)]
        g = gcd(y * q0, *w)
        if y < 0:
            g = -g
        new_rows[b0], new_dens[b0] = a1, q1
        new_rows[b1], new_dens[b1] = tuple([e // g for e in w]), y * q0 // g
        # the window starting at b + 1; every other window keeps its minor
        p, r = window[b0], window[(b0 + 2) % n]
        minors[b1] = Fraction(
            p.numerator * r.numerator * denominator.denominator,
            p.denominator * r.denominator * denominator.numerator,
        )
    return VectorTuple._of(k, n, tuple(new_rows), tuple(new_dens), tuple(minors))


def plucker_vector(t: VectorTuple) -> tuple[Fraction, ...]:
    """All C(n, k) maximal minors of the k x n matrix, subsets in lex order."""
    return tuple(
        _window_det(t.rows, t.dens, subset) for subset in combinations(range(t.n), t.k)
    )


def plucker_proportional(a: VectorTuple, b: VectorTuple) -> bool:
    """Equality as points of the Grassmannian: proportional Plücker vectors.

    Equal tuples are proportional at once.  Otherwise the Plücker vectors of
    the k x n matrices A, B (the vectors as columns) are proportional exactly
    when both vanish (rank < k) or both ranks are k and A, B have the same
    row space, that is when the stacked [A; B] has rank k.  Scaling a column
    keeps a rank, so each is the rank of n integer rows: a's rows for A,
    and (v_j, u_j) scaled by the lcm of their denominators for [A; B].
    Tuples of different shapes raise DimensionMismatch.
    """
    if (a.k, a.n) != (b.k, b.n):
        raise DimensionMismatch(
            f"Plücker vectors of Gr({a.k},{a.n}) and Gr({b.k},{b.n}) are not comparable"
        )
    if a == b:
        return True
    full_a, full_b = rank_int(a.rows) == a.k, rank_int(b.rows) == b.k
    if not (full_a and full_b):
        return full_a == full_b  # both Plücker vectors zero, or just one
    stacked = []
    for u, p, v, q in zip(a.rows, a.dens, b.rows, b.dens):
        m = lcm(p, q)
        stacked.append([x * (m // p) for x in u] + [x * (m // q) for x in v])
    return rank_int(stacked) == a.k


@dataclass(frozen=True)
class BraidCheckReport:
    """Per-relation verdicts for one tuple; reported, never asserted.

    ``genericity_preserved`` is a constant True, kept so that reports keep
    their form: `sigma` accepts only a consecutively generic tuple, and each
    window minor of its image is one of the input's or
    Delta_b Delta_{b+2} / Delta_{b+1}, a quotient of nonzero minors, so
    every image is consecutively generic again.
    """

    genericity_preserved: ClassVar[bool] = True
    d: int
    periodicity: dict[int, bool]
    commutation: dict[tuple[int, int], bool]
    braid_tuple_equal: dict[tuple[int, int], bool]
    braid_plucker: dict[tuple[int, int], bool]

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "genericity_preserved": self.genericity_preserved,
            "periodicity": {str(i): v for i, v in self.periodicity.items()},
            "commutation": {f"{i},{j}": v for (i, j), v in self.commutation.items()},
            "braid_tuple_equal": {f"{i},{j}": v for (i, j), v in self.braid_tuple_equal.items()},
            "braid_plucker": {f"{i},{j}": v for (i, j), v in self.braid_plucker.items()},
        }


def braid_property_check(t: VectorTuple) -> BraidCheckReport:
    """Evaluate d-periodicity, distant commutation, and the braid relation.

    The braid relation is compared both as raw tuples and as points of the
    Grassmannian (proportional Plücker vectors); the level at which it holds
    is reported rather than asserted.
    """
    d = t.d
    if d < 2:
        raise BadParameters("braid checks need gcd(k, n) >= 2")

    # Every relation starts from some sigma_i(t): compute each one once.
    once = {i: sigma(i, t) for i in range(1, d)}
    shifted = _rho_power(t, d)
    periodicity = {}
    for i in range(1, d):
        periodicity[i] = sigma(i, shifted) == _rho_power(once[i], d)

    commutation = {}
    for i in range(1, d):
        for j in range(i + 2, d):
            commutation[(i, j)] = sigma(i, once[j]) == sigma(j, once[i])

    braid_tuple, braid_pluck = {}, {}
    for i in range(1, d - 1):
        j = i + 1
        left = sigma(i, sigma(j, once[i]))
        right = sigma(j, sigma(i, once[j]))
        braid_tuple[(i, j)] = left == right
        braid_pluck[(i, j)] = plucker_proportional(left, right)

    return BraidCheckReport(d, periodicity, commutation, braid_tuple, braid_pluck)


# Draws before random_tuple gives up, so that a request no draw can meet
# ends in an error instead of an endless loop.
RANDOM_TUPLE_ATTEMPTS = 1000


def random_tuple(k: int, n: int, rng: np.random.Generator, bound: int = 9) -> VectorTuple:
    """Random integer tuple, re-sampled until consecutively generic.

    Needs 1 <= k <= n (`check_shape`).  Raises NotGeneric if
    RANDOM_TUPLE_ATTEMPTS draws all have a vanishing window.
    """
    k, n = check_shape(k, n)
    for _ in range(RANDOM_TUPLE_ATTEMPTS):
        vecs = tuple(tuple(rng.integers(-bound, bound + 1, size=k).tolist()) for _ in range(n))
        t = VectorTuple(k, n, vecs)
        if is_consecutively_generic(t):
            return t
    raise NotGeneric(
        f"no consecutively generic ({k},{n}) tuple with entries in [-{bound}, {bound}] "
        f"in {RANDOM_TUPLE_ATTEMPTS} draws"
    )
