"""Exact g-vector extraction and cone presentations over a fixed seed.

A tableau decomposes uniquely as a signed union of the seed labels; the
exponent vector is its g-vector (the tropical one at an initial seed only;
see `g_vector`).  Negative coordinates name the sub term and
positive ones the quotient term of the presenting short exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from . import tableaux as tb
from .cluster import Seed
from .cmcat import KSubset
from .errors import BadParameters, DimensionMismatch
from .tableaux import Tableau

__all__ = ["GVector", "ConePresentation", "g_vector", "cone_presentation"]


@dataclass(frozen=True)
class GVector:
    """Integer coordinates of a tableau over a seed (mutable entries first).

    Each coordinate is taken by ``operator.index``: ints and numpy integers
    pass, and anything else (a float, a Fraction, a string) raises
    BadParameters instead of being truncated to another stratum.
    """

    seed: Seed
    coords: tuple[int, ...]

    def __post_init__(self):
        coords = []
        for pos, c in enumerate(self.coords):
            try:
                coords.append(index(c))
            except TypeError:
                raise BadParameters(f"g-vector coordinate {pos} is {c!r}, not an integer") from None
        object.__setattr__(self, "coords", tuple(coords))
        if len(self.coords) != self.seed.m:
            raise DimensionMismatch("coordinate count must equal seed size")

    @property
    def mutable(self) -> tuple[int, ...]:
        return self.coords[: self.seed.n_mut]

    def scale(self, t: int) -> "GVector":
        return GVector(self.seed, tuple(t * c for c in self.coords))


@dataclass(frozen=True)
class ConePresentation:
    """Sub and quotient multisets of the presenting short exact sequence."""

    sub: tuple[KSubset, ...]
    quot: tuple[KSubset, ...]


def g_vector(t: Tableau, seed: Seed) -> GVector:
    """Unique integer g with content(reduce(t)) = sum_j g_j * content(S_j).

    This is the content decomposition of t over the labels S_j of the given
    seed.  It is the tropical g-vector only at a Grassmannian initial seed:
    both sides of an exchange relation have the same content, so content
    alone cannot pick the side that tropical mutation picks.  Over the
    Gr(3,6) initial seed mutated at vertex 0 (124 -> 135), Δ124 decomposes
    as -135 + 125 + 134, while its tropical g-vector there is
    -135 + 145 + 123.
    """
    label = seed.labels[0]
    if (t.k, t.n) != (label.k, label.n):
        raise DimensionMismatch(f"tableau is ({t.k},{t.n}), seed labels are ({label.k},{label.n})")
    return GVector(seed, tuple(seed.solver.solve_integer(tb.reduce(t).content())))


def cone_presentation(g: GVector) -> ConePresentation:
    """Negative coordinates give the sub term, positive ones the quotient."""
    sub: list[KSubset] = []
    quot: list[KSubset] = []
    for coord, label in zip(g.coords, g.seed.labels):
        if coord == 0:
            continue
        subset = label.to_subset()
        if coord < 0:
            sub.extend([subset] * (-coord))
        else:
            quot.extend([subset] * coord)
    return ConePresentation(tuple(sorted(sub)), tuple(sorted(quot)))

