"""Rank-one module combinatorics: k-subsets, rims, tau, and profiles.

A k-subset of the cyclically ordered set [n] labels a rank-one module; its
rim height function is the zig-zag upper boundary of the lattice diagram
(down-steps exactly at the elements of the subset).  The translate tau of a
subset with two cyclic runs is read off the runs alone: a new run of the
other run's length sits just before each run (tau) or just after it (tau
inverse).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import BadParameters, DimensionMismatch, NotTwoIntervals, integer

__all__ = [
    "KSubset",
    "Profile",
    "rim_height",
    "tau_two_interval",
    "tau_inverse_two_interval",
    "profile_balance_check",
    "cyclic_shift_profile",
]


@dataclass(frozen=True, order=True)
class KSubset:
    """A sorted k-element subset of [n], n taken cyclically; n and the elements are ints."""

    n: int
    elems: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", integer("n", self.n))
        elems = tuple(sorted(integer("subset element", x) for x in self.elems))
        if len(set(elems)) != len(elems):
            raise BadParameters(f"repeated elements in {self.elems}")
        object.__setattr__(self, "elems", elems)
        if elems and not (1 <= elems[0] and elems[-1] <= self.n):
            raise BadParameters(f"elements of {elems} outside [1, {self.n}]")

    @property
    def k(self) -> int:
        return len(self.elems)

    def cyclic_intervals(self) -> list[tuple[int, int]]:
        """Maximal cyclic runs as (start, length) pairs, sorted by start.

        A run that wraps past n is reported with its true start, e.g.
        {7,8,9,1} in [9] is the single run (7, 4).
        """
        s = set(self.elems)
        if len(s) == self.n:
            return [(1, self.n)]
        starts = sorted(e for e in s if (e - 2) % self.n + 1 not in s)
        runs = []
        for a in starts:
            length = 1
            while (a + length - 1) % self.n + 1 in s:
                length += 1
            runs.append((a, length))
        return runs

    def shift(self, a: int) -> "KSubset":
        """Add a to every element, modulo n (representatives in [1, n])."""
        return KSubset(self.n, tuple(sorted((e + a - 1) % self.n + 1 for e in self.elems)))

    def __str__(self) -> str:
        return "".join(map(str, self.elems)) if self.n < 10 else ",".join(map(str, self.elems))


@dataclass(frozen=True)
class Profile:
    """Ordered filtration factors of a module, top factor first."""

    factors: tuple[KSubset, ...]

    def __post_init__(self):
        if self.factors:
            k, n = self.factors[0].k, self.factors[0].n
            if any(f.k != k or f.n != n for f in self.factors):
                raise DimensionMismatch("profile factors must share (k, n)")

    def __str__(self) -> str:
        return "|".join(str(f) for f in self.factors)


def cyclic_interval(n: int, a: int, b: int) -> tuple[int, ...]:
    """Elements of the cyclic interval [a, b] in [n], e.g. [7,1] in [9] = {7,8,9,1}."""
    n, a, b = integer("n", n), integer("a", a), integer("b", b)
    if n < 1:
        raise BadParameters(f"need n >= 1, got n={n}")
    a = (a - 1) % n + 1
    length = (b - a) % n + 1
    return tuple(sorted((a + t - 1) % n + 1 for t in range(length)))


def rim_height(subset: KSubset) -> tuple[int, ...]:
    """Height profile (h(0), ..., h(n)) of the rim, as Python ints.

    h(0) = 0 and h(i) = h(i-1) - 1 iff i is in the subset, else h(i-1) + 1.
    """
    s = set(subset.elems)
    return tuple(accumulate((-1 if i in s else 1 for i in range(1, subset.n + 1)), initial=0))


def _two_runs(subset: KSubset) -> tuple[tuple[int, int], tuple[int, int]]:
    runs = subset.cyclic_intervals()
    if len(runs) != 2:
        raise NotTwoIntervals(f"{subset.elems} has {len(runs)} cyclic interval(s), need 2")
    return runs[0], runs[1]


def tau_two_interval(subset: KSubset) -> KSubset:
    """Auslander-Reiten translate of a rank-one module with a two-interval subset.

    Before each cyclic run comes a new run with the other run's length:
    runs (a1, l1), (a2, l2) go to [a1 - l2, a1 - 1] u [a2 - l1, a2 - 1].
    """
    (a1, l1), (a2, l2) = _two_runs(subset)
    n = subset.n
    return KSubset(n, cyclic_interval(n, a1 - l2, a1 - 1) + cyclic_interval(n, a2 - l1, a2 - 1))


def tau_inverse_two_interval(subset: KSubset) -> KSubset:
    """Inverse translate: after each cyclic run comes a run with the other's length."""
    (a1, l1), (a2, l2) = _two_runs(subset)
    n = subset.n
    b1, b2 = a1 + l1, a2 + l2  # the first entries past each run
    return KSubset(n, cyclic_interval(n, b1, b1 + l2 - 1) + cyclic_interval(n, b2, b2 + l1 - 1))


def profile_balance_check(profile: Profile, sub, quot) -> bool:
    """Lattice-diagram balance of a profile against a cone presentation.

    The filtration rims plus the sub-term rims must cancel the quotient-term
    rims up to a single even vertical offset.  This is a necessary condition
    for the short exact sequence, not a synthesis rule.
    """
    factors = list(profile.factors)
    sub = list(sub)
    quot = list(quot)
    every = factors + sub + quot
    if not every:
        return True
    n = every[0].n
    if any(f.n != n for f in every):
        raise DimensionMismatch("profile and presentation must share n")
    heights = [rim_height(f) for f in factors + sub]
    heights += [[-h for h in rim_height(f)] for f in quot]
    totals = {sum(column) for column in zip(*heights)}
    return len(totals) == 1 and totals.pop() % 2 == 0


def cyclic_shift_profile(profile: Profile, a: int) -> Profile:
    """Shift every entry of every factor by a modulo n."""
    return Profile(tuple(f.shift(a) for f in profile.factors))
