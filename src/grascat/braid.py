"""Braid-group action on consecutively generic vector tuples.

All arithmetic is exact, with plain Fractions, because the checked
relations are polynomial identities that floats would blur.  A tuple built
from raw vectors computes its n cyclic window minors once, when it is
built; the genericity checks and the denominators of ``sigma`` read them
from there.  ``twisted_shift`` hands them on rotated, and ``sigma`` derives
its image's minors from its input's, so neither recomputes them.

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
are equal points, and otherwise the two k x n matrices are brought to
reduced row echelon form, the canonical form of a row space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

from .errors import BadParameters, DimensionMismatch, NotGeneric
from .linalg import det, rref

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


def check_shape(k: int, n: int) -> None:
    """Vector tuples need 1 <= k <= n: with k > n every window repeats a vector."""
    if not 1 <= k <= n:
        raise BadParameters(f"vector tuples need 1 <= k <= n, got k={k}, n={n}")


@dataclass(frozen=True)
class VectorTuple:
    """n vectors of length k over the rationals, indexed cyclically."""

    k: int
    n: int
    vectors: tuple[Vector, ...]
    # det(v_i, ..., v_{i+k-1}) for i = 1..n, cyclic indices.  Computed from the
    # vectors on construction, so that repeated checks of one tuple do the same
    # work; only a caller that derives them exactly passes them in
    # (``twisted_shift`` and ``sigma``), and then there must be n of them.
    window_minors: tuple[Fraction, ...] | None = field(
        default=None, compare=False, repr=False, kw_only=True
    )

    def __post_init__(self):
        check_shape(self.k, self.n)
        if len(self.vectors) != self.n:
            raise DimensionMismatch(f"expected {self.n} vectors, got {len(self.vectors)}")
        vecs = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in v) for v in self.vectors
        )
        object.__setattr__(self, "vectors", vecs)
        if any(len(v) != self.k for v in vecs):
            raise DimensionMismatch("all vectors must have length k")
        if self.window_minors is None:
            minors = tuple(
                det([self.vec(i + t) for t in range(self.k)]) for i in range(1, self.n + 1)
            )
            object.__setattr__(self, "window_minors", minors)
        elif len(self.window_minors) != self.n:
            raise DimensionMismatch(
                f"expected {self.n} window minors, got {len(self.window_minors)}"
            )

    @property
    def d(self) -> int:
        return gcd(self.k, self.n)

    def vec(self, i: int) -> Vector:
        """1-based cyclic access."""
        return self.vectors[(i - 1) % self.n]

    def window_minor(self, start: int) -> Fraction:
        """det(v_start, ..., v_{start+k-1}) with cyclic indices."""
        return self.window_minors[(start - 1) % self.n]


def is_consecutively_generic(t: VectorTuple) -> bool:
    """All n cyclic k x k minors are nonzero."""
    return all(t.window_minors)


def twisted_shift(t: VectorTuple) -> VectorTuple:
    """rho: rotate left, the wrapped vector picking up the sign (-1)^(k-1)."""
    sign = (-1) ** (t.k - 1)
    rotated = t.vectors[1:] + (tuple(sign * x for x in t.vectors[0]),)
    # Window i of the image is window i+1 of t, with v_1 scaled by the sign
    # in the last k windows, the ones that wrap past position n.
    w = t.window_minors
    minors = tuple(w[(i + 1) % t.n] * (sign if i >= t.n - t.k else 1) for i in range(t.n))
    return VectorTuple(t.k, t.n, rotated, window_minors=minors)


def sigma(i: int, t: VectorTuple) -> VectorTuple:
    """Braid generator: acts on each length-d window of the tuple.

    Window positions i, i+1 become v_{i+1}, w with
    w = (det(v_i, v_{i+2}, ..., v_{i+k}) / det(v_{i+1}, ..., v_{i+k})) v_{i+1} - v_i,
    everything computed from the input tuple; other positions are untouched.
    The n/d numerators are the only determinants: for each moved pair at
    b = i + j d, the image's window minor at b + 1 is
    Delta_b Delta_{b+2} / Delta_{b+1} (the Plücker relation, see the module
    docstring) and every other window minor is the input's.
    """
    d = t.d
    if d < 2 or not 1 <= i <= d - 1:
        raise BadParameters(f"need 1 <= i <= gcd(k,n)-1 = {d - 1}, got {i}")
    if not is_consecutively_generic(t):
        raise NotGeneric("sigma requires a consecutively generic tuple")
    new_vectors = list(t.vectors)
    minors = list(t.window_minors)
    for j in range(t.n // d):
        base = i + j * d
        denominator = t.window_minor(base + 1)
        numerator = det([t.vec(base)] + [t.vec(base + s) for s in range(2, t.k + 1)])
        ratio = numerator / denominator
        w = tuple(ratio * a - b for a, b in zip(t.vec(base + 1), t.vec(base)))
        new_vectors[(base - 1) % t.n] = t.vec(base + 1)
        new_vectors[base % t.n] = w
        # the window starting at base + 1; every other window keeps its minor
        minors[base % t.n] = t.window_minor(base) * t.window_minor(base + 2) / denominator
    return VectorTuple(t.k, t.n, tuple(new_vectors), window_minors=tuple(minors))


def plucker_vector(t: VectorTuple) -> tuple[Fraction, ...]:
    """All C(n, k) maximal minors of the k x n matrix, subsets in lex order."""
    return tuple(
        det([t.vectors[j] for j in subset])
        for subset in combinations(range(t.n), t.k)
    )


def plucker_proportional(a: VectorTuple, b: VectorTuple) -> bool:
    """Equality as points of the Grassmannian: proportional Plücker vectors.

    Equal tuples are proportional at once.  Otherwise the Plücker vectors of
    the k x n matrices A, B (the vectors as columns) are proportional exactly
    when both vanish (rank < k) or both ranks are k and A, B have the same
    row space, that is the same reduced row echelon form.  Tuples of
    different shapes raise DimensionMismatch.
    """
    if (a.k, a.n) != (b.k, b.n):
        raise DimensionMismatch(
            f"Plücker vectors of Gr({a.k},{a.n}) and Gr({b.k},{b.n}) are not comparable"
        )
    if a.vectors == b.vectors:
        return True
    (ra, pa), (rb, pb) = (rref([list(r) for r in zip(*t.vectors)]) for t in (a, b))
    full_a, full_b = len(pa) == a.k, len(pb) == b.k
    if not (full_a and full_b):
        return full_a == full_b  # both Plücker vectors zero, or just one
    return ra == rb


@dataclass(frozen=True)
class BraidCheckReport:
    """Per-relation verdicts for one tuple; reported, never asserted.

    ``genericity_preserved`` is always True and kept so that reports keep
    their form: `sigma` accepts only a consecutively generic tuple, and each
    window minor of its image is one of the input's or
    Delta_b Delta_{b+2} / Delta_{b+1}, a quotient of nonzero minors, so
    every image is consecutively generic again.
    """

    d: int
    genericity_preserved: bool
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

    def rho_d(x: VectorTuple) -> VectorTuple:
        for _ in range(d):
            x = twisted_shift(x)
        return x

    # Every relation starts from some sigma_i(t): compute each one once.
    once = {i: sigma(i, t) for i in range(1, d)}
    shifted = rho_d(t)
    periodicity = {}
    for i in range(1, d):
        periodicity[i] = sigma(i, shifted).vectors == rho_d(once[i]).vectors

    commutation = {}
    for i in range(1, d):
        for j in range(i + 2, d):
            commutation[(i, j)] = sigma(i, once[j]).vectors == sigma(j, once[i]).vectors

    braid_tuple, braid_pluck = {}, {}
    for i in range(1, d - 1):
        j = i + 1
        left = sigma(i, sigma(j, once[i]))
        right = sigma(j, sigma(i, once[j]))
        braid_tuple[(i, j)] = left.vectors == right.vectors
        braid_pluck[(i, j)] = plucker_proportional(left, right)

    return BraidCheckReport(d, True, periodicity, commutation, braid_tuple, braid_pluck)


# Draws before random_tuple gives up, so that a request no draw can meet
# ends in an error instead of an endless loop.
RANDOM_TUPLE_ATTEMPTS = 1000


def random_tuple(k: int, n: int, rng: np.random.Generator, bound: int = 9) -> VectorTuple:
    """Random integer tuple, re-sampled until consecutively generic.

    Needs 1 <= k <= n (`check_shape`).  Raises NotGeneric if
    RANDOM_TUPLE_ATTEMPTS draws all have a vanishing window.
    """
    check_shape(k, n)
    for _ in range(RANDOM_TUPLE_ATTEMPTS):
        vecs = tuple(
            tuple(Fraction(int(x)) for x in rng.integers(-bound, bound + 1, size=k))
            for _ in range(n)
        )
        t = VectorTuple(k, n, vecs)
        if is_consecutively_generic(t):
            return t
    raise NotGeneric(
        f"no consecutively generic ({k},{n}) tuple with entries in [-{bound}, {bound}] "
        f"in {RANDOM_TUPLE_ATTEMPTS} draws"
    )
