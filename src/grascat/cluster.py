"""Quivers, tableau-labeled seeds, mutation, and bounded exchange exploration."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from . import tableaux as tb
from .cmcat import KSubset
from .errors import (
    BadParameters,
    DimensionMismatch,
    FrozenVertex,
    IncomparableExchange,
    MalformedInput,
    is_int,
    json_fields,
    list_of,
)
from .tableaux import Dominance, Tableau

__all__ = [
    "Quiver",
    "Seed",
    "ExploreResult",
    "mutate_quiver",
    "mutate_seed",
    "grassmannian_initial_seed",
    "grassmannian_vertex_subsets",
    "explore",
]


@dataclass(frozen=True)
class Quiver:
    """A loop-free quiver with the first n_mut vertices mutable.

    Arrows are stored as a sorted tuple of (source, target) pairs; parallel
    arrows simply repeat.  Arrows between frozen vertices are kept for
    display but never created or consulted by mutation.
    """

    m: int
    n_mut: int
    arrows: tuple[tuple[int, int], ...]
    coords: tuple | None = None

    def __post_init__(self):
        if not 0 <= self.n_mut <= self.m:
            raise BadParameters(f"need 0 <= n_mut <= m, got n_mut={self.n_mut}, m={self.m}")
        object.__setattr__(self, "arrows", tuple(sorted(tuple(a) for a in self.arrows)))
        for s, t in self.arrows:
            if s == t:
                raise BadParameters(f"loop at vertex {s}")
            if not (0 <= s < self.m and 0 <= t < self.m):
                raise BadParameters(f"arrow ({s},{t}) outside vertex range")

    def is_mutable(self, v: int) -> bool:
        return 0 <= v < self.n_mut

    def arrows_into(self, v: int) -> list[int]:
        return [s for s, t in self.arrows if t == v]

    def arrows_out_of(self, v: int) -> list[int]:
        return [t for s, t in self.arrows if s == v]

    def b_matrix(self) -> np.ndarray:
        """m x n_mut exchange matrix, b[i][j] = #(i->j) - #(j->i)."""
        b = np.zeros((self.m, self.n_mut), dtype=np.int64)
        for s, t in self.arrows:
            if t < self.n_mut:
                b[s, t] += 1
            if s < self.n_mut:
                b[t, s] -= 1
        return b

    def mutable_part(self) -> "Quiver":
        arrows = tuple(
            (s, t) for s, t in self.arrows if s < self.n_mut and t < self.n_mut
        )
        coords = self.coords[: self.n_mut] if self.coords else None
        return Quiver(self.n_mut, self.n_mut, arrows, coords)

    def to_json(self) -> dict:
        data = {"m": self.m, "n_mut": self.n_mut, "arrows": [list(a) for a in self.arrows]}
        if self.coords is not None:
            data["coords"] = [list(c) for c in self.coords]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Quiver":
        def is_pair(x) -> bool:
            return list_of(is_int)(x) and len(x) == 2

        m, n_mut, arrows = json_fields(
            data, "quiver", m=is_int, n_mut=is_int, arrows=list_of(is_pair)
        )
        coords = data.get("coords")
        if coords is not None and not list_of(is_pair)(coords):
            raise MalformedInput("quiver field 'coords' has the wrong kind")
        return cls(
            m,
            n_mut,
            tuple((s, t) for s, t in arrows),
            tuple(tuple(c) for c in coords) if coords else None,
        )


def mutate_quiver(q: Quiver, r: int) -> Quiver:
    """Fomin-Zelevinsky quiver mutation at a mutable vertex r.

    (i) add i->j for every path i->r->j (unless both ends frozen),
    (ii) reverse every arrow at r, (iii) cancel 2-cycles.
    """
    if not q.is_mutable(r):
        raise FrozenVertex(f"vertex {r} is frozen")
    counts: Counter[tuple[int, int]] = Counter()
    into, outof = [], []
    for s, t in q.arrows:
        if t == r:
            into.append(s)
        elif s == r:
            outof.append(t)
        else:
            counts[(s, t)] += 1
    for i in into:
        for j in outof:
            if i < q.n_mut or j < q.n_mut:
                counts[(i, j)] += 1
    for i in into:
        counts[(r, i)] += 1
    for j in outof:
        counts[(j, r)] += 1
    for s, t in list(counts):
        if (t, s) in counts and s < t:
            c = min(counts[(s, t)], counts[(t, s)])
            counts[(s, t)] -= c
            counts[(t, s)] -= c
    arrows = tuple(a for a, c in counts.items() for _ in range(c))
    return Quiver(q.m, q.n_mut, arrows, q.coords)


@dataclass(frozen=True)
class Seed:
    """A quiver together with one tableau label per vertex."""

    quiver: Quiver
    labels: tuple[Tableau, ...]

    def __post_init__(self):
        if len(self.labels) != self.quiver.m:
            raise BadParameters("label count must equal vertex count")

    @property
    def m(self) -> int:
        return self.quiver.m

    @property
    def n_mut(self) -> int:
        return self.quiver.n_mut

    def mutable_labels(self) -> tuple[Tableau, ...]:
        return self.labels[: self.n_mut]

    def cluster_key(self) -> frozenset:
        """Order-free fingerprint of the cluster: multiset of reduced labels."""
        return frozenset(Counter(tb.reduce(t) for t in self.mutable_labels()).items())

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.to_json(),
            "labels": [t.to_json() for t in self.labels],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Seed":
        quiver, labels = json_fields(data, "seed", quiver=None, labels=list_of())
        seed = cls(Quiver.from_json(quiver), tuple(Tableau.from_json(t) for t in labels))
        if len({(t.k, t.n) for t in seed.labels}) != 1:
            raise DimensionMismatch("seed labels must be nonempty and share one (k, n)")
        return seed


def mutate_seed(seed: Seed, r: int) -> Seed:
    """Mutate a seed at mutable vertex r via the tableau exchange rule.

    The new label is max{union of in-neighbours, union of out-neighbours}
    divided by the old label; the max is taken in the dominance order and
    incomparability is a hard error.
    """
    q = seed.quiver
    if not q.is_mutable(r):
        raise FrozenVertex(f"vertex {r} is frozen")
    k, n = seed.labels[0].k, seed.labels[0].n
    in_union = tb.union_all([seed.labels[v] for v in q.arrows_into(r)], k=k, n=n)
    out_union = tb.union_all([seed.labels[v] for v in q.arrows_out_of(r)], k=k, n=n)
    cmp = tb.dominance_compare(in_union, out_union)
    if cmp in (Dominance.INCOMPARABLE, Dominance.DIFFERENT_CONTENT):
        raise IncomparableExchange(
            f"exchange unions at vertex {r} are {cmp.value}; "
            "the tableau mutation rule does not apply"
        )
    bigger = in_union if cmp in (Dominance.GT, Dominance.EQ) else out_union
    new_label = tb.quotient(bigger, seed.labels[r])
    labels = list(seed.labels)
    labels[r] = new_label
    return Seed(mutate_quiver(q, r), tuple(labels))


def grassmannian_vertex_subsets(k: int, n: int) -> tuple[list[KSubset], list[KSubset]]:
    """(mutable, frozen) Plücker labels of the initial seed, in seed order.

    Vertex (a, b) of the triangular grid carries {1,...,k-b} u {k-b+1+a,...,k+a}.
    Mutable vertices run column by column (b = 1..k-1, a = 1..n-k-1); frozen
    ones are (0,0), the last column b = k, then the bottom row a = n-k.
    """

    def subset(a: int, b: int) -> KSubset:
        elems = tuple(range(1, k - b + 1)) + tuple(range(k - b + 1 + a, k + a + 1))
        return KSubset(n, elems)

    mutable = [subset(a, b) for b in range(1, k) for a in range(1, n - k)]
    frozen = [KSubset(n, tuple(range(1, k + 1)))]
    frozen += [subset(a, k) for a in range(1, n - k + 1)]
    frozen += [subset(n - k, b) for b in range(1, k)]
    return mutable, frozen


def grassmannian_initial_seed(k: int, n: int) -> Seed:
    """The triangular initial seed of the Grassmannian Gr(k, n)."""
    if not 2 <= k <= n - 2:
        raise BadParameters(f"need 2 <= k <= n-2, got (k,n)=({k},{n})")

    grid: dict[tuple[int, int], int] = {}
    coords: list[tuple[int, int]] = []
    mut_coords = [(a, b) for b in range(1, k) for a in range(1, n - k)]
    frz_coords = [(0, 0)] + [(a, k) for a in range(1, n - k + 1)] + [
        (n - k, b) for b in range(1, k)
    ]
    for idx, ab in enumerate(mut_coords + frz_coords):
        grid[ab] = idx
        coords.append(ab)
    n_mut = len(mut_coords)

    arrows = [(grid[(0, 0)], grid[(1, 1)])]
    for b in range(1, k + 1):
        for a in range(2, n - k + 1):
            arrows.append((grid[(a - 1, b)], grid[(a, b)]))
    for b in range(2, k + 1):
        for a in range(1, n - k + 1):
            arrows.append((grid[(a, b - 1)], grid[(a, b)]))
    for b in range(1, k):
        for a in range(1, n - k):
            arrows.append((grid[(a + 1, b + 1)], grid[(a, b)]))

    mutable, frozen = grassmannian_vertex_subsets(k, n)
    labels = tuple(Tableau.from_subset(s) for s in mutable + frozen)
    quiver = Quiver(len(labels), n_mut, tuple(arrows), tuple(coords))
    return Seed(quiver, labels)


@dataclass
class ExploreResult:
    """Closure of seed mutation within the given budgets."""

    variables: dict[Tableau, tuple[int, ...]] = field(default_factory=dict)
    seeds_seen: int = 0
    complete: bool = True

    def variable_count(self) -> int:
        return len(self.variables)


def explore(seed: Seed, max_depth: int, max_seeds: int) -> ExploreResult:
    """Breadth-first mutation closure with deduplication by cluster.

    Returns every distinct reduced mutable label encountered together with
    its g-vector over the starting seed.  If either budget is exhausted the
    result is flagged incomplete instead of raising, so partial sweeps stay
    usable.
    """
    from .gvec import g_vector  # local import: gvec depends on cluster types

    if max_depth < 0 or max_seeds <= 0:
        raise BadParameters("budgets must be positive")
    result = ExploreResult()

    def record(s: Seed) -> None:
        for t in s.mutable_labels():
            red = tb.reduce(t)
            if red not in result.variables:
                result.variables[red] = g_vector(red, seed).coords

    seen = {seed.cluster_key()}
    queue = deque([(seed, 0)])
    record(seed)
    result.seeds_seen = 1
    while queue:
        current, depth = queue.popleft()
        for r in range(current.n_mut):
            neighbour = mutate_seed(current, r)
            key = neighbour.cluster_key()
            if key in seen:
                continue
            if depth == max_depth:
                result.complete = False  # unseen cluster beyond the horizon
                continue
            if result.seeds_seen >= max_seeds:
                result.complete = False
                return result
            seen.add(key)
            result.seeds_seen += 1
            record(neighbour)
            queue.append((neighbour, depth + 1))
    return result
