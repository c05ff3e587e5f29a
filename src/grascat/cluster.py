"""Quivers, tableau-labeled seeds, mutation, and bounded exchange exploration.

Every initial quiver the library builds lies on a grid: `Quiver.on_grid`
takes its points, mutable ones first, and a rule giving the heads of the
arrows out of each point.  The Gr(k, n) initial seed is one such quiver,
and so are the Hernandez-Leclerc quivers of `hl`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import index

from . import tableaux as tb
from .cmcat import KSubset
from .errors import (
    BadParameters,
    DimensionMismatch,
    FieldOverflow,
    FrozenVertex,
    IncomparableExchange,
    MalformedInput,
    integer,
    is_int,
    json_fields,
    list_of,
)
from .linalg import ExactSolver, rank_int
from .tableaux import Dominance, Tableau

__all__ = [
    "Quiver",
    "Seed",
    "ExploreResult",
    "mutate_quiver",
    "mutate_seed",
    "exchange_label",
    "grassmannian_initial_seed",
    "explore",
]


@dataclass(frozen=True)
class Quiver:
    """A loop-free quiver with the first n_mut vertices mutable.

    Arrows are stored as a sorted tuple of (source, target) pairs; parallel
    arrows simply repeat.  ``m``, ``n_mut`` and each arrow end are taken by
    ``operator.index``, so anything else raises BadParameters.  Arrows
    between frozen vertices are kept for display but never created or
    consulted by mutation.  ``coords``, when given, holds one grid point per
    vertex.
    """

    m: int
    n_mut: int
    arrows: tuple[tuple[int, int], ...]
    coords: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "m", integer("m", self.m))
        object.__setattr__(self, "n_mut", integer("n_mut", self.n_mut))
        if not 0 <= self.n_mut <= self.m:
            raise BadParameters(f"need 0 <= n_mut <= m, got n_mut={self.n_mut}, m={self.m}")
        if self.coords is not None and len(self.coords) != self.m:
            raise BadParameters(f"need one coord per vertex, got {len(self.coords)} for m={self.m}")
        try:
            arrows = tuple(sorted(map(_arrow, self.arrows)))
        except TypeError:
            raise BadParameters("arrows must be a sequence of (source, target) pairs") from None
        object.__setattr__(self, "arrows", arrows)
        for s, t in arrows:
            if s == t:
                raise BadParameters(f"loop at vertex {s}")
            if not (0 <= s < self.m and 0 <= t < self.m):
                raise BadParameters(f"arrow ({s},{t}) outside vertex range")

    @classmethod
    def on_grid(cls, mutable, frozen, heads) -> "Quiver":
        """Quiver on the grid points `mutable + frozen`, which become its coords.

        There is an arrow c -> d for every point c and every d in heads(*c)
        that is a point too.
        """
        coords = tuple(mutable) + tuple(frozen)
        pos = {c: idx for idx, c in enumerate(coords)}
        arrows = [(pos[c], pos[d]) for c in coords for d in heads(*c) if d in pos]
        return cls(len(coords), len(mutable), tuple(arrows), coords)

    @classmethod
    def _of(cls, m: int, n_mut: int, arrows: tuple, coords) -> "Quiver":
        """A quiver from sorted, in-range arrows without loops or 2-cycles, unchecked."""
        q = object.__new__(cls)
        q.__dict__.update(m=m, n_mut=n_mut, arrows=arrows, coords=coords, _has_two_cycle=False)
        return q

    @cached_property
    def _has_two_cycle(self) -> bool:
        # Built once per quiver and only when it is mutated: a mutation of a
        # quiver without 2-cycles has none either, and `_of` sets it so.
        return bool(_two_cycles(self.arrows))

    def is_mutable(self, v: int) -> bool:
        return 0 <= v < self.n_mut

    def arrows_into(self, v: int) -> list[int]:
        return [s for s, t in self.arrows if t == v]

    def arrows_out_of(self, v: int) -> list[int]:
        return [t for s, t in self.arrows if s == v]

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
            None if coords is None else tuple(tuple(c) for c in coords),
        )


def _arrow(a) -> tuple[int, int]:
    """An arrow as a pair of ints, each end by ``operator.index``."""
    try:
        s, t = a
        return index(s), index(t)
    except (TypeError, ValueError):
        raise BadParameters(f"arrow {a!r} is not a pair of integers") from None


def _two_cycles(arrows) -> list[tuple[int, int]]:
    """Pairs s < t with arrows both ways."""
    if not arrows:
        return []
    sources, targets = zip(*arrows)
    return [(s, t) for s, t in set(arrows) & set(zip(targets, sources)) if s < t]


def _add_arrow(arrows: list[tuple[int, int]], s: int, t: int) -> None:
    """Add s->t to a sorted arrow list, cancelling one opposite arrow t->s."""
    k = bisect_left(arrows, (t, s))
    if s != t and k < len(arrows) and arrows[k] == (t, s):
        del arrows[k]
    else:
        insort(arrows, (s, t))


def mutate_quiver(q: Quiver, r: int) -> Quiver:
    """Fomin-Zelevinsky quiver mutation at a mutable vertex r.

    Edits a copy of the sorted arrow list of q instead of rebuilding it:
    the arrows at r are taken out, (i) every path i->r->j adds i->j (unless
    both ends are frozen) or cancels one opposite arrow j->i, (ii) every
    arrow at r comes back reversed, (iii) every 2-cycle left cancels.  Only
    a q that has a 2-cycle already, which a hand-built quiver can, leaves
    any for step (iii).  Parallel arrows repeat, and arrows between frozen
    vertices pass through unchanged.

    Without a 2-cycle in q the result is built unchecked (`Quiver._of`):
    the edits keep the list sorted and in range, and a loop i->i can only
    come from a 2-cycle i<->r.  A q with a 2-cycle goes through the checked
    constructor, which raises BadParameters for such a loop.
    """
    r = integer("mutation vertex", r)
    if not q.is_mutable(r):
        raise FrozenVertex(f"vertex {r} is frozen")
    into = [s for s, t in q.arrows if t == r]
    outof = [t for s, t in q.arrows if s == r]
    arrows = [a for a in q.arrows if r not in a]
    for i in into:
        for j in outof:
            if i < q.n_mut or j < q.n_mut:
                _add_arrow(arrows, i, j)
    for i in into:
        insort(arrows, (r, i))
    for j in outof:
        insort(arrows, (j, r))
    if not q._has_two_cycle:
        return Quiver._of(q.m, q.n_mut, tuple(arrows), q.coords)
    for s, t in _two_cycles(arrows):
        for _ in range(min(arrows.count((s, t)), arrows.count((t, s)))):
            arrows.remove((s, t))
            arrows.remove((t, s))
    return Quiver(q.m, q.n_mut, tuple(arrows), q.coords)


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

    @cached_property
    def _independent(self) -> bool:
        """Whether the labels' contents share one length and are independent
        over Q, ranked as rows by `rank_int`; False only sends `explore` to
        the solver."""
        contents = [t.content() for t in self.labels]
        return len(set(map(len, contents))) == 1 and rank_int(contents) == self.m

    @cached_property
    def solver(self) -> ExactSolver:
        """The exact solver over the contents of the labels, built once per seed.

        Raises NonUniqueSolution when the contents are linearly dependent.
        """
        return ExactSolver([t.content() for t in self.labels])

    @cached_property
    def vertex_names(self) -> tuple[str, ...]:
        """The Plücker label of each mutable vertex, as the Jacobian algebra names it."""
        return tuple(str(t.to_subset()) for t in self.mutable_labels())

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


def exchange_label(seed: Seed, r: int) -> Tableau:
    """The label that mutation at mutable vertex r puts at r.

    It is max{union of in-neighbours, union of out-neighbours} divided by
    the old label; the max is taken in the dominance order and
    incomparability is a hard error.  The unions are sums of r's packed
    neighbours, in fields wide enough for either, and `_exchange` does the
    rest.
    """
    q, r = seed.quiver, integer("mutation vertex", r)
    if not q.is_mutable(r):
        raise FrozenVertex(f"vertex {r} is frozen")
    labels = seed.labels
    k, n = labels[0].k, labels[0].n
    into, outof = q.arrows_into(r), q.arrows_out_of(r)
    widths = [sum(labels[v].width for v in vs) for vs in (into, outof)]
    packing = tb.Packing.fitting(k, n, k * max(labels[r].width, *widths))
    ins = sum(packing.pack(labels[v]) for v in into)
    outs = sum(packing.pack(labels[v]) for v in outof)
    new, _ = _exchange(packing, r, ins, outs, packing.pack(labels[r]))
    return packing.tableau(new)


def _exchange(packing: tb.Packing, r: int, ins: int, outs: int, label: int) -> tuple[int, bool]:
    """The exchange rule at r on packed tableaux: (new label, whether ins is the bigger).

    Raises IncomparableExchange when the unions ins and outs are not
    comparable, and `tableaux.quotient`'s NotAFactor or NotSemistandard when
    the old label does not divide the bigger one into a tableau.
    """
    cmp = packing.dominance(ins, outs)
    if cmp is Dominance.INCOMPARABLE or cmp is Dominance.DIFFERENT_CONTENT:
        raise IncomparableExchange(
            f"exchange unions at vertex {r} are {cmp.value}; "
            "the tableau mutation rule does not apply"
        )
    into = cmp is not Dominance.LT
    bigger = ins if into else outs
    new = packing.quotient(bigger, label)
    if new is None or not packing.semistandard(new):
        # the row quotient raises the error, with its message
        new = packing.pack(tb.quotient(packing.tableau(bigger), packing.tableau(label)))
    return new, into


def mutate_seed(seed: Seed, r: int) -> Seed:
    """Mutate a seed at mutable vertex r via the tableau exchange rule.

    The child carries its parent's label independence: the exchange
    replaces the content of label r by the sum of those of the bigger
    union's parts (r is not among them) minus its own, a unimodular row
    operation, so the rank of the contents over Q is the same.
    """
    label = exchange_label(seed, r)  # reads r by operator.index
    child = Seed(mutate_quiver(seed.quiver, r), seed.labels[:r] + (label,) + seed.labels[r + 1 :])
    child.__dict__["_independent"] = seed._independent
    return child


def _grassmannian_grid(k: int, n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(mutable, frozen) points (a, b) of the triangular grid, in seed order.

    Mutable points run column by column (b = 1..k-1, a = 1..n-k-1); frozen
    ones are (0,0), the last column b = k, then the bottom row a = n-k.
    """
    mutable = [(a, b) for b in range(1, k) for a in range(1, n - k)]
    frozen = [(0, 0)] + [(a, k) for a in range(1, n - k + 1)] + [(n - k, b) for b in range(1, k)]
    return mutable, frozen


def _grid_subset(k: int, n: int, a: int, b: int) -> KSubset:
    """The Plücker label {1,...,k-b} u {k-b+1+a,...,k+a} of grid point (a, b)."""
    return KSubset(n, tuple(range(1, k - b + 1)) + tuple(range(k - b + 1 + a, k + a + 1)))


@lru_cache(maxsize=32, typed=True)
def grassmannian_initial_seed(k: int, n: int) -> Seed:
    """The triangular initial seed of the Grassmannian Gr(k, n), built once per (k, n).

    Arrows run right, up and diagonally down-left on the grid, apart from
    the corner: (0,0) -> (1,1) takes the place of (1,1) -> (0,0).  Every
    caller shares the seed, and with it its solver.  k and n are taken by
    ``operator.index``; the cache is typed, so 3.0 never finds the entry of 3.
    """
    k, n = integer("k", k), integer("n", n)
    if not 2 <= k <= n - 2:
        raise BadParameters(f"need 2 <= k <= n-2, got (k,n)=({k},{n})")

    def heads(a: int, b: int) -> list[tuple[int, int]]:
        if (a, b) == (0, 0):
            return [(1, 1)]
        return [(a + 1, b), (a, b + 1)] + ([(a - 1, b - 1)] if (a, b) != (1, 1) else [])

    quiver = Quiver.on_grid(*_grassmannian_grid(k, n), heads)
    labels = tuple(Tableau.from_subset(_grid_subset(k, n, *c)) for c in quiver.coords)
    return Seed(quiver, labels)


@dataclass
class ExploreResult:
    """Closure of seed mutation within the given budgets.

    ``stopped_by`` names what left the closure incomplete: "max_seeds" when
    the seed budget ended the call, "depth" when the first unseen cluster
    past the depth horizon ended it, and None when the result is ``complete``.
    Either cut ends the call at once.  A queued seed's quiver is built only
    when the seed is expanded, so a seed still queued at a cut has neither
    its exchanges nor its quiver mutation run, and raises nothing.
    """

    variables: dict[Tableau, tuple[int, ...]] = field(default_factory=dict)
    seeds_seen: int = 0
    stopped_by: str | None = None

    @property
    def complete(self) -> bool:
        return self.stopped_by is None

    def variable_count(self) -> int:
        return len(self.variables)


def explore(seed: Seed, max_depth: int, max_seeds: int) -> ExploreResult:
    """Breadth-first mutation closure with deduplication by cluster.

    Returns every distinct reduced mutable label encountered, in the order
    first met, together with its g-vector over the starting seed.  If either
    budget is exhausted the result is flagged incomplete instead of raising,
    so partial sweeps stay usable; ``stopped_by`` says which budget it was.
    Both budgets are integers (``operator.index``), else BadParameters.
    The call returns as soon as a budget cuts: at the seed that would
    exceed max_seeds, or at the first unseen cluster past max_depth.  The
    queue is breadth-first, so every seed still queued at a depth cut lies
    on the horizon and could only meet more clusters past it.  A queued
    seed holds its parent's quiver and the vertex r, and `mutate_quiver`
    runs when the seed is expanded; a seed still queued at a cut is neither
    exchanged nor mutated, so a failure on it (an exchange, or the loop
    that a 2-cycle through r leaves) raises nothing.

    The exploration runs on packed count vectors (`tableaux.Packing`): the
    in- and out-unions of every vertex come from one pass over the arrows,
    and each mutation is the `_exchange` step that `exchange_label` takes,
    so a failed check raises the same error.  `Tableau` objects are built
    only for the returned variables.  A cluster's key is the multiset of
    its reduced count grids.  Fields start at 16 bits and widen whenever a
    union could reach a guard bit.

    g-vectors are carried, not solved: the start labels have independent
    contents (else NonUniqueSolution; a seed from `mutate_seed` carries
    this from its parent, so no rank is taken), so label j of the start
    seed has the unit vector e_j, and a g-vector is linear in the content.  A new
    label gets the sum of the vectors of the bigger union's parts minus
    that of the old label, and its reduction subtracts the vector of each
    trivial column it loses.  In a seed reached from
    `grassmannian_initial_seed` every trivial column is a frozen label, of
    unit vector; a reduction that takes off any other is solved over the
    start seed by `Seed.solver`, as `gvec.g_vector` solves it.
    """
    max_depth, max_seeds = integer("max_depth", max_depth), integer("max_seeds", max_seeds)
    if max_depth < 0:
        raise BadParameters(f"max_depth must be >= 0, got {max_depth}")
    if max_seeds < 1:
        raise BadParameters(f"max_seeds must be >= 1, got {max_seeds}")
    if seed.n_mut == 0:
        return ExploreResult(seeds_seen=1)
    k, n = seed.labels[0].k, seed.labels[0].n
    if any((t.k, t.n) != (k, n) for t in seed.labels):
        raise DimensionMismatch("seed labels must share one (k, n)")
    if not seed._independent:
        seed.solver  # raises NonUniqueSolution unless independent over Q
    packing = tb.Packing.fitting(k, n, 0)
    while True:
        try:
            return _explore_packed(seed, max_depth, max_seeds, packing)
        except FieldOverflow:  # the next packing holds this one's limit: twice the bits
            packing = tb.Packing.fitting(k, n, packing.limit)


def _explore_packed(seed: Seed, max_depth: int, max_seeds: int, packing: tb.Packing) -> ExploreResult:
    """`explore` in one packing; raises FieldOverflow if its fields are too narrow."""
    n_mut, m = seed.n_mut, seed.m
    units = [(0,) * j + (1,) + (0,) * (m - j - 1) for j in range(m)]
    start = tuple(map(packing.pack, seed.labels))
    start_index = {x: j for j, x in enumerate(start)}
    reductions: dict[int, tuple[int, list[int]]] = {}
    found: dict[int, tuple[int, ...]] = {}  # reduced C grid -> g-vector

    def reduced(x: int) -> tuple[int, list[int]]:
        """(C grid of reduce(x), multiplicity of each trivial column), cached."""
        hit = reductions.get(x)
        if hit is None:
            red, mults = packing.reduce(x)
            if red != x and not packing.semistandard(red):
                packing.tableau(red)  # raises the reduction's NotSemistandard
            hit = reductions[x] = (red & packing.grid, mults)
        return hit

    def record(x: int, g) -> None:
        """Store reduce(x) with its g-vector: g less the vectors of its trivial columns."""
        red, mults = reduced(x)
        if red in found:
            return
        g = list(g)
        for mult, column in zip(mults, packing.trivial):
            if mult:
                j = start_index.get(column)
                if j is None:  # not a label: solve the reduced label, as g_vector does
                    found[red] = tuple(seed.solver.solve_integer(packing.tableau(red).content()))
                    return
                g[j] -= mult
        found[red] = tuple(g)

    def finish(result: ExploreResult) -> ExploreResult:
        result.variables = {packing.tableau(red): g for red, g in found.items()}
        return result

    result = ExploreResult(seeds_seen=1)
    for j in range(n_mut):
        record(start[j], units[j])
    keys = tuple(reduced(x)[0] for x in start[:n_mut])
    seen = {tuple(sorted(keys))}
    # A queued seed is (parent quiver, r, ...): its quiver is built when it
    # is expanded, so a seed left queued at a cut costs no quiver mutation.
    queue = deque([(seed.quiver, None, start, keys, tuple(units[:n_mut]), 0)])
    while queue:
        quiver, r_in, labels, keys, gvecs, depth = queue.popleft()
        if r_in is not None:
            quiver = mutate_quiver(quiver, r_in)
        arrows = quiver.arrows
        # Every union is a sum of at most len(arrows) labels, and no field of
        # a label exceeds its top one.
        if (max(labels) >> packing.top) * len(arrows) >= packing.limit:
            raise FieldOverflow(f"exchange unions could overflow {packing.bits}-bit fields")
        ins, outs = [0] * n_mut, [0] * n_mut
        for s, t in arrows:
            if t < n_mut:
                ins[t] += labels[s]
            if s < n_mut:
                outs[s] += labels[t]
        for r in range(n_mut):
            new, into = _exchange(packing, r, ins[r], outs[r], labels[r])
            neighbour = keys[:r] + (reduced(new)[0],) + keys[r + 1 :]
            key = tuple(sorted(neighbour))
            if key in seen:
                continue
            if depth == max_depth:  # unseen cluster beyond the horizon
                result.stopped_by = "depth"
                return finish(result)
            if result.seeds_seen >= max_seeds:
                result.stopped_by = "max_seeds"
                return finish(result)
            seen.add(key)
            result.seeds_seen += 1
            g = [-u for u in gvecs[r]]
            for v in (quiver.arrows_into(r) if into else quiver.arrows_out_of(r)):
                if v < n_mut:
                    g = [a + b for a, b in zip(g, gvecs[v])]
                else:
                    g[v] += 1
            record(new, g)
            queue.append((
                quiver,
                r,
                labels[:r] + (new,) + labels[r + 1 :],
                neighbour,
                gvecs[:r] + (tuple(g),) + gvecs[r + 1 :],
                depth + 1,
            ))
    return finish(result)
