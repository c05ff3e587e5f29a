"""Exact g-vector extraction and cone presentations over a fixed seed.

A tableau decomposes uniquely as a signed union of the seed labels; the
exponent vector is its g-vector.  Negative coordinates name the sub term and
positive ones the quotient term of the presenting short exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import tableaux as tb
from .cluster import Seed, grassmannian_initial_seed
from .cmcat import KSubset
from .errors import DimensionMismatch, NotAFactor, NotSemistandard
from .linalg import ExactSolver
from .tableaux import Tableau

__all__ = ["GVector", "ConePresentation", "g_vector", "cone_presentation", "content_grid"]

content_grid = tb.content_grid


@dataclass(frozen=True)
class GVector:
    """Integer coordinates of a tableau over a seed (mutable entries first)."""

    seed: Seed
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
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


class _SeedSolver:
    def __init__(self, seed: Seed):
        self.seed = seed
        columns = [t.content().ravel().tolist() for t in seed.labels]
        # Raises NonUniqueSolution if the label contents are dependent.
        self.solver = ExactSolver(columns)

    def solve(self, t: Tableau) -> tuple[int, ...]:
        return tuple(self.solver.solve_integer(t.content().ravel().tolist()))


@lru_cache(maxsize=32)
def _grassmannian_solver(k: int, n: int) -> _SeedSolver:
    return _SeedSolver(grassmannian_initial_seed(k, n))


@lru_cache(maxsize=64)
def _solver_for(seed: Seed) -> _SeedSolver:
    return _SeedSolver(seed)


def g_vector(t: Tableau, seed: Seed) -> GVector:
    """Unique integer g with content(reduce(t)) = sum_j g_j * content(S_j)."""
    label = seed.labels[0]
    if (t.k, t.n) != (label.k, label.n):
        raise DimensionMismatch(f"tableau is ({t.k},{t.n}), seed labels are ({label.k},{label.n})")
    reduced = tb.reduce(t)
    # Reuse one cached solver for the standard Grassmannian seeds.
    std = _grassmannian_solver(t.k, t.n)
    if seed.labels == std.seed.labels:
        return GVector(seed, std.solve(reduced))
    return GVector(seed, _solver_for(seed).solve(reduced))


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


def check_cone_roundtrip(t: Tableau, g: GVector) -> bool:
    """Rebuild reduce(t) from the signed label decomposition."""
    k, n = t.k, t.n
    pos = tb.union_all(
        [lab for c, lab in zip(g.coords, g.seed.labels) for _ in range(max(c, 0))],
        k=k,
        n=n,
    )
    neg = tb.union_all(
        [lab for c, lab in zip(g.coords, g.seed.labels) for _ in range(max(-c, 0))],
        k=k,
        n=n,
    )
    try:
        return tb.quotient(pos, neg) == tb.reduce(t)
    except (DimensionMismatch, NotAFactor, NotSemistandard):
        return False

