import time
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_tableaux import from_columns, grid_dominance_compare, grid_reduce, outcome
from grascat import cluster
from grascat.cluster import (
    ExploreResult,
    Quiver,
    Seed,
    _explore_packed,
    _two_cycles,
    exchange_label,
    explore,
    grassmannian_initial_seed,
    mutate_quiver,
    mutate_seed,
)
from grascat.errors import (
    BadParameters,
    FieldOverflow,
    FrozenVertex,
    IncomparableExchange,
    NoIntegerSolution,
    NonUniqueSolution,
    NotAFactor,
    NotSemistandard,
)
from grascat.gvec import g_vector
from grascat.linalg import rank_int
from grascat.qpa import initial_qp
from grascat.tableaux import Dominance, Packing, Tableau, quotient, reduce as treduce, union


# Three times the Gr(3,8) closure's measured time in the suite (3.6 s) on a
# 2-vCPU VM.
GR38_SECONDS = 11.0


def random_quiver(rng, m=6, n_mut=4, density=0.4):
    counts = {}
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if rng.random() < density and (j, i) not in counts:
                counts[(i, j)] = int(rng.integers(1, 3))
    arrows = tuple(a for a, c in counts.items() for _ in range(c))
    return Quiver(m, n_mut, arrows)


def b_matrix(q: Quiver) -> np.ndarray:
    """m x n_mut exchange matrix, b[i][j] = #(i->j) - #(j->i)."""
    b = np.zeros((q.m, q.n_mut), dtype=np.int64)
    for s, t in q.arrows:
        if t < q.n_mut:
            b[s, t] += 1
        if s < q.n_mut:
            b[t, s] -= 1
    return b


def matrix_mutation(b: np.ndarray, r: int) -> np.ndarray:
    out = b.copy()
    m, n_mut = b.shape
    for i in range(m):
        for j in range(n_mut):
            if i == r or j == r:
                out[i, j] = -b[i, j]
            else:
                out[i, j] = b[i, j] + np.sign(b[i, r]) * max(b[i, r] * b[r, j], 0)
    return out


# --- the rebuild-and-cancel code, kept as the oracle of the in-place one ------


def counter_mutate_quiver(q: Quiver, r: int) -> Quiver:
    """Quiver mutation through a fresh Counter, cancelling over every pair."""
    if not q.is_mutable(r):
        raise FrozenVertex(f"vertex {r} is frozen")
    counts = Counter()
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


def oracle_mutate_seed(seed: Seed, r: int) -> Seed:
    """Seed mutation from pairwise unions, grid dominance and the Counter quiver."""
    q = seed.quiver
    k, n = seed.labels[0].k, seed.labels[0].n

    def union_of(vertices):
        out = Tableau.empty(k, n)
        for v in vertices:
            out = union(out, seed.labels[v])
        return out

    in_union, out_union = union_of(q.arrows_into(r)), union_of(q.arrows_out_of(r))
    cmp = grid_dominance_compare(in_union, out_union)
    if cmp in (Dominance.INCOMPARABLE, Dominance.DIFFERENT_CONTENT):
        raise IncomparableExchange(cmp.value)
    bigger = in_union if cmp in (Dominance.GT, Dominance.EQ) else out_union
    labels = list(seed.labels)
    labels[r] = quotient(bigger, seed.labels[r])
    return Seed(counter_mutate_quiver(q, r), tuple(labels))


def oracle_explore(seed: Seed, max_depth: int, max_seeds: int) -> ExploreResult:
    """Breadth-first closure that re-reduces every label of every neighbour."""

    def key(s: Seed) -> frozenset:
        return frozenset(Counter(grid_reduce(t) for t in s.mutable_labels()).items())

    result = ExploreResult()

    def record(s: Seed) -> None:
        for t in s.mutable_labels():
            red = grid_reduce(t)
            if red not in result.variables:
                result.variables[red] = g_vector(red, seed).coords

    seen = {key(seed)}
    queue = deque([(seed, 0)])
    record(seed)
    result.seeds_seen = 1
    while queue:
        current, depth = queue.popleft()
        for r in range(current.n_mut):
            neighbour = oracle_mutate_seed(current, r)
            if key(neighbour) in seen:
                continue
            if depth == max_depth:
                result.stopped_by = "depth"
                return result
            if result.seeds_seen >= max_seeds:
                result.stopped_by = "max_seeds"
                return result
            seen.add(key(neighbour))
            result.seeds_seen += 1
            record(neighbour)
            queue.append((neighbour, depth + 1))
    return result


# --- the Tableau-object explore, kept as the oracle of the packed one ---------


def tableau_explore(seed: Seed, max_depth: int, max_seeds: int) -> ExploreResult:
    """explore on Tableau labels: exchange_label, reduce, and g_vector solves.

    Each queued seed carries the tuple of its reduced mutable labels; a
    neighbour costs one exchange_label and one reduce.  As in explore, a
    queued seed's quiver is mutated when the seed is expanded.
    """
    if max_depth < 0:
        raise BadParameters(f"max_depth must be >= 0, got {max_depth}")
    if max_seeds < 1:
        raise BadParameters(f"max_seeds must be >= 1, got {max_seeds}")
    result = ExploreResult()

    def record(reduced) -> None:
        for red in reduced:
            if red not in result.variables:
                result.variables[red] = g_vector(red, seed).coords

    start = tuple(treduce(t) for t in seed.mutable_labels())
    seen = {frozenset(Counter(start).items())}
    queue = deque([(seed.quiver, None, seed.labels, start, 0)])
    record(start)
    result.seeds_seen = 1
    while queue:
        quiver, r_in, seed_labels, reduced, depth = queue.popleft()
        current = Seed(quiver if r_in is None else mutate_quiver(quiver, r_in), seed_labels)
        for r in range(current.n_mut):
            label = exchange_label(current, r)
            labels = reduced[:r] + (treduce(label),) + reduced[r + 1 :]
            key = frozenset(Counter(labels).items())
            if key in seen:
                continue
            if depth == max_depth:
                result.stopped_by = "depth"
                return result
            if result.seeds_seen >= max_seeds:
                result.stopped_by = "max_seeds"
                return result
            seen.add(key)
            result.seeds_seen += 1
            record(labels)
            neighbour = current.labels[:r] + (label,) + current.labels[r + 1 :]
            queue.append((current.quiver, r, neighbour, labels, depth + 1))
    return result


def explore_answer(result: ExploreResult):
    return list(result.variables.items()), result.seeds_seen, result.complete


@st.composite
def hand_built_quivers(draw):
    """Quivers with parallel arrows, frozen-frozen arrows and 2-cycles."""
    m = draw(st.integers(1, 6))
    n_mut = draw(st.integers(1, m))
    pair = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda a: a[0] != a[1])
    arrows = draw(st.lists(pair, max_size=14))
    if arrows:
        # repeat some arrows and reverse others
        arrows += draw(st.lists(st.sampled_from(arrows), max_size=4))
        arrows += [(t, s) for s, t in draw(st.lists(st.sampled_from(arrows), max_size=3))]
    return Quiver(m, n_mut, tuple(arrows))


@st.composite
def two_cycle_free_quivers(draw):
    """Quivers with parallel and frozen-frozen arrows but no 2-cycle."""
    m = draw(st.integers(1, 7))
    n_mut = draw(st.integers(1, m))
    pair = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda a: a[0] != a[1])
    arrows = []
    for s, t in draw(st.lists(pair, max_size=16)):
        if (t, s) not in arrows:
            arrows.append((s, t))
    return Quiver(m, n_mut, tuple(arrows))


class TestAgainstRebuildOracle:
    @settings(max_examples=300)
    @given(hand_built_quivers())
    def test_quiver_mutation_matches(self, q):
        for r in range(q.m):
            assert outcome(mutate_quiver, q, r) == outcome(counter_mutate_quiver, q, r)

    def test_quiver_cases_are_reached(self):
        # 2-cycles away from r cancel, mutable-frozen and frozen-frozen alike;
        # parallel arrows multiply paths
        q = Quiver(4, 2, ((1, 2), (2, 1), (2, 1), (2, 3), (2, 3), (3, 2), (0, 3), (0, 3), (1, 0)))
        assert mutate_quiver(q, 0) == counter_mutate_quiver(q, 0)
        assert mutate_quiver(q, 0).arrows == (
            (0, 1), (1, 3), (1, 3), (2, 1), (2, 3), (3, 0), (3, 0),
        )
        # a 2-cycle through r between mutable vertices makes a loop
        q = Quiver(2, 2, ((0, 1), (1, 0)))
        assert outcome(mutate_quiver, q, 0) == outcome(counter_mutate_quiver, q, 0)
        assert outcome(mutate_quiver, q, 0)[0] is BadParameters

    @settings(max_examples=200)
    @given(two_cycle_free_quivers(), st.lists(st.integers(0, 9), max_size=8))
    def test_unchecked_quivers_equal_checked_ones(self, q, walk):
        for step in walk:
            q = mutate_quiver(q, step % q.n_mut)
            assert q.__dict__["_has_two_cycle"] is False  # set by Quiver._of, not computed
            checked = Quiver(q.m, q.n_mut, q.arrows, q.coords)
            assert (q, hash(q), repr(q), q.to_json()) == (
                checked, hash(checked), repr(checked), checked.to_json(),
            )
            assert _two_cycles(q.arrows) == []

    @settings(max_examples=40)
    @given(
        st.sampled_from([(3, 6), (3, 9), (4, 8)]),
        st.lists(st.integers(0, 9), max_size=8),
        st.integers(0, 2),
        st.integers(1, 40),
    )
    def test_walks_and_explorations_match(self, kn, walk, depth, max_seeds):
        seed = oracle = grassmannian_initial_seed(*kn)
        for step in walk:
            r = step % seed.n_mut
            seed, oracle = mutate_seed(seed, r), oracle_mutate_seed(oracle, r)
            assert seed == oracle
            assert [treduce(t) for t in seed.labels] == [grid_reduce(t) for t in seed.labels]
        want = explore_answer(oracle_explore(seed, depth, max_seeds))
        assert explore_answer(explore(seed, depth, max_seeds)) == want
        assert explore_answer(tableau_explore(seed, depth, max_seeds)) == want

    def test_labels_with_trivial_factors_are_reduced(self):
        # Mutation from a Grassmannian seed never leaves a trivial column in a
        # label; here one frozen label on each side of the exchange carries an
        # extra one, so the mutated label does too.
        seed = grassmannian_initial_seed(2, 4)
        assert 3 in seed.quiver.arrows_into(0) and 2 in seed.quiver.arrows_out_of(0)
        extra = Tableau.from_column((1, 2), 4)
        labels = list(seed.labels)
        for v in (3, 2):  # labels 34 and 23
            labels[v] = union(labels[v], extra)
        seed = Seed(seed.quiver, tuple(labels))
        assert mutate_seed(seed, 0).labels[0].width == 2
        result = explore(seed, 100, 10)
        assert explore_answer(result) == explore_answer(oracle_explore(seed, 100, 10))
        assert explore_answer(result) == explore_answer(tableau_explore(seed, 100, 10))
        assert [t.rows for t in result.variables] == [((1,), (3,)), ((2,), (4,))]

    @pytest.mark.parametrize("kn", [(2, 7), (3, 6)])
    def test_closures_match(self, kn):
        seed = grassmannian_initial_seed(*kn)
        want = explore_answer(oracle_explore(seed, 100, 10**6))
        assert explore_answer(explore(seed, 100, 10**6)) == want
        assert explore_answer(tableau_explore(seed, 100, 10**6)) == want


def answer_or_error(fn, *args):
    """explore_answer of fn(*args), or the type and message of its error."""
    got = outcome(fn, *args)
    return explore_answer(got) if isinstance(got, ExploreResult) else got


@st.composite
def hand_built_seeds(draw):
    """Small seeds with random column-union labels and random arrows."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k + 2, 7))
    m = draw(st.integers(2, 5))
    column = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True).map(sorted)
    labels = tuple(
        from_columns(k, n, draw(st.lists(column, min_size=1, max_size=2))) for _ in range(m)
    )
    pair = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda a: a[0] != a[1])
    arrows = tuple(draw(st.lists(pair, min_size=1, max_size=6)))
    return Seed(Quiver(m, draw(st.integers(1, min(3, m))), arrows), labels)


@st.composite
def graded_seeds(draw):
    """A seed of a Grassmannian walk, graded once or twice: every label L
    gets s * c(L) extra copies of a trivial column T_a, where c(L) counts
    the entries v0 of L and v0 is not in T_a.

    c is linear in the content, so both exchange unions gain the same
    copies and every mutation stays valid.  T_a stays a label; a trivial
    column that holds v0 does not, and after a second grading the labels
    carry copies of such a column, whose reductions are then solved.
    """
    k, n = draw(st.sampled_from([(2, 5), (2, 6), (3, 6)]))
    seed = grassmannian_initial_seed(k, n)
    for step in draw(st.lists(st.integers(0, 9), max_size=4)):
        seed = mutate_seed(seed, step % seed.n_mut)
    labels = seed.labels
    for _ in range(draw(st.integers(1, 2))):
        a = draw(st.integers(1, n - k + 1))
        v0 = draw(st.sampled_from([v for v in range(1, n + 1) if not a <= v < a + k]))
        s = draw(st.integers(1, 3))

        def graded(t):
            extra = s * sum(row.count(v0) for row in t.rows)
            return Tableau.make(k, n, [list(row) + [a + r] * extra for r, row in enumerate(t.rows)])

        labels = tuple(map(graded, labels))
    return Seed(seed.quiver, labels)


def gr24_with_wide_frozen(copies: int) -> Seed:
    """Gr(2,4) with `copies` extra columns 12 in the frozen labels 34 and 23,
    one on each side of the exchange (see test_labels_with_trivial_factors_are_reduced)."""
    seed = grassmannian_initial_seed(2, 4)
    labels = list(seed.labels)
    for v in (3, 2):
        (a,), (b,) = labels[v].rows
        labels[v] = Tableau.make(2, 4, [[1] * copies + [a], [2] * copies + [b]])
    return Seed(seed.quiver, tuple(labels))


def hand_seed(n, n_mut, arrows, rows):
    labels = tuple(Tableau.make(len(r), n, r) for r in rows)
    return Seed(Quiver(len(labels), n_mut, arrows), labels)


# Hand-built seeds on which exploring fails, with the error and its message.
FAILING_SEEDS = {
    "dependent labels": (
        hand_seed(4, 1, ((0, 1),), [[[1], [3]], [[1], [3]]]),
        NonUniqueSolution, "linearly dependent",
    ),
    "label a sum of two others": (
        hand_seed(4, 1, ((0, 1),), [[[1], [3]], [[2], [4]], [[1, 2], [3, 4]]]),
        NonUniqueSolution, "linearly dependent",
    ),
    "isolated vertices": (
        hand_seed(4, 2, (), [[[1], [3]], [[2], [4]]]),
        NotAFactor, "row (1,) is not contained in ()",
    ),
    "one arrow": (
        hand_seed(4, 2, ((0, 1),), [[[1], [3]], [[2], [4]]]),
        IncomparableExchange, "unions at vertex 0 are DifferentContent",
    ),
    "incomparable unions": (
        hand_seed(6, 1, ((0, 2), (1, 0), (1, 2), (1, 2)),
                  [[[1], [3], [5]], [[1, 2], [3, 5], [4, 6]], [[1, 3], [2, 4], [5, 6]]]),
        IncomparableExchange, "unions at vertex 0 are Incomparable",
    ),
    "quotient not semistandard": (
        hand_seed(6, 1, ((0, 1), (1, 0)), [[[1], [5]], [[1, 3], [3, 5]]]),
        NotSemistandard, "column 1 not strictly increasing: 3 >= 3",
    ),
    "reduction outside the span": (
        hand_seed(6, 1, ((0, 1), (0, 1), (1, 0), (1, 0)), [[[1, 5], [4, 6]], [[2], [5]]]),
        NoIntegerSolution, "outside the integer span",
    ),
    "reduction not integral": (
        hand_seed(6, 1, ((3, 0),), [[[1, 3], [3, 4]], [[1, 2], [3, 5]], [[3, 3], [4, 4]], [[4], [5]]]),
        NoIntegerSolution, "not integral",
    ),
    # both exchanges of the start seed hold, with new labels 14 and 23, but
    # mutating the quiver at vertex 0 of the 2-cycle 0<->1 leaves a loop at 1
    "2-cycle through a mutable vertex": (
        hand_seed(4, 2, ((0, 1), (1, 0), (2, 1), (1, 3)),
                  [[[1], [3]], [[1, 1], [3, 4]], [[1, 3], [2, 4]], [[1, 2], [3, 4]]]),
        BadParameters, "loop at vertex 1",
    ),
    # 13 + 24 = 1234; mutation at 0 gives (1234)/13 = 24, and back again
    "mutable label of a dependent triple": (
        hand_seed(4, 1, ((0, 2), (2, 0)), [[[1], [3]], [[2], [4]], [[1, 2], [3, 4]]]),
        NonUniqueSolution, "linearly dependent",
    ),
}

# (max_depth, max_seeds, stopped_by) of cuts that come before the seed whose
# quiver mutation leaves a loop is expanded: past the depth horizon, and
# within it but after the seed budget.
LOOP_SEED_CUTS = [(0, 50, "depth"), (1, 2, "max_seeds")]


class TestPackedExplore:
    @settings(max_examples=100)
    @given(hand_built_seeds(), st.integers(0, 3), st.integers(1, 20))
    def test_hand_built_seeds_match(self, seed, depth, max_seeds):
        want = answer_or_error(tableau_explore, seed, depth, max_seeds)
        assert answer_or_error(explore, seed, depth, max_seeds) == want

    @settings(max_examples=60)
    @given(graded_seeds(), st.integers(0, 2), st.integers(1, 30))
    def test_graded_seeds_match(self, seed, depth, max_seeds):
        want = answer_or_error(tableau_explore, seed, depth, max_seeds)
        assert answer_or_error(explore, seed, depth, max_seeds) == want

    @pytest.mark.parametrize("name", sorted(FAILING_SEEDS))
    def test_errors_keep_type_and_message(self, name):
        seed, error, message = FAILING_SEEDS[name]
        got = outcome(explore, seed, 3, 50)
        assert got == outcome(tableau_explore, seed, 3, 50)
        assert got[0] is error and message in got[1]

    @pytest.mark.parametrize("depth, max_seeds, stopped_by", LOOP_SEED_CUTS)
    def test_cut_before_the_loop_seed_raises_nothing(self, depth, max_seeds, stopped_by):
        seed = FAILING_SEEDS["2-cycle through a mutable vertex"][0]
        result = explore(seed, depth, max_seeds)
        assert (result.complete, result.stopped_by) == (False, stopped_by)
        assert explore_answer(result) == explore_answer(tableau_explore(seed, depth, max_seeds))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_loop_seed_raises_when_expanded(self, depth):
        seed, error, message = FAILING_SEEDS["2-cycle through a mutable vertex"]
        assert outcome(explore, seed, depth, 50) == (error, message)

    def test_seed_without_mutable_vertex(self):
        # nothing to exchange: the start cluster is the whole closure, and it has no variable
        seed = hand_seed(4, 0, ((0, 1),), [[[1], [3]], [[2], [4]]])
        result = explore(seed, 3, 50)
        assert explore_answer(result) == ([], 1, True)
        assert explore_answer(oracle_explore(seed, 3, 50)) == explore_answer(result)

    def test_depth_cut_ends_before_a_failing_exchange(self):
        # at depth 0 the exchange at vertex 0 meets an unseen cluster and
        # cuts; the exchange at vertex 1 would raise NotAFactor
        seed = hand_seed(4, 2, ((0, 1), (1, 0)), [[[2], [3]], [[1, 2], [3, 4]]])
        result = explore(seed, 0, 50)
        assert (result.complete, result.stopped_by, result.seeds_seen) == (False, "depth", 1)
        assert [(t.rows, g) for t, g in result.variables.items()] == [
            (((), ()), (0, 0)), (((1,), (4,)), (-1, 1)),
        ]
        assert explore_answer(tableau_explore(seed, 0, 50)) == explore_answer(result)
        # with the labels swapped the failing exchange comes before the cut
        swapped = Seed(seed.quiver, seed.labels[::-1])
        got = outcome(explore, swapped, 0, 50)
        assert got == (NotAFactor, "row (1, 2) is not contained in (2,)")
        assert got == outcome(tableau_explore, swapped, 0, 50)

    @pytest.mark.parametrize("kn", [(2, 8), (3, 7)])
    def test_closures_match_tableau_explore(self, kn):
        seed = grassmannian_initial_seed(*kn)
        want = explore_answer(tableau_explore(seed, 100, 10**6))
        assert explore_answer(explore(seed, 100, 10**6)) == want

    def test_wide_label_widens_the_fields(self):
        # 2 * 20001 entries overflow 16-bit fields when the labels are packed
        seed = gr24_with_wide_frozen(20_000)
        with pytest.raises(FieldOverflow, match="width-20001"):
            _explore_packed(seed, 100, 10, Packing(2, 4, 16))
        want = explore_answer(tableau_explore(seed, 100, 10))
        assert explore_answer(explore(seed, 100, 10)) == want

    def test_union_guard_fires_before_a_field_could_overflow(self):
        # each label fits 16-bit fields, but a union of len(arrows) of them might not
        seed = gr24_with_wide_frozen(5_000)
        assert 2 * 5_001 * len(seed.quiver.arrows) >= 2**15
        with pytest.raises(FieldOverflow, match="exchange unions"):
            _explore_packed(seed, 100, 10, Packing(2, 4, 16))
        want = explore_answer(tableau_explore(seed, 100, 10))
        assert explore_answer(explore(seed, 100, 10)) == want


class TestQuiverMutation:
    def test_linear_a3_at_middle(self):
        q = Quiver(3, 3, ((0, 1), (1, 2)))
        assert sorted(mutate_quiver(q, 1).arrows) == [(0, 2), (1, 0), (2, 1)]

    def test_involution_random(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            q = random_quiver(rng)
            for r in range(q.n_mut):
                assert mutate_quiver(mutate_quiver(q, r), r).arrows == q.arrows

    def test_frozen_vertex_rejected(self):
        q = Quiver(3, 1, ((0, 1),))
        with pytest.raises(FrozenVertex):
            mutate_quiver(q, 2)

    def test_matches_matrix_mutation(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            q = random_quiver(rng)
            r = int(rng.integers(0, q.n_mut))
            got = b_matrix(mutate_quiver(q, r))
            want = matrix_mutation(b_matrix(q), r)
            assert np.array_equal(got, want)

    def test_distant_mutations_commute(self):
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 30:
            q = random_quiver(rng)
            b = b_matrix(q)
            pairs = [
                (i, j)
                for i in range(q.n_mut)
                for j in range(i + 1, q.n_mut)
                if b[i, j] == 0
            ]
            if not pairs:
                continue
            i, j = pairs[int(rng.integers(0, len(pairs)))]
            ij = mutate_quiver(mutate_quiver(q, i), j)
            ji = mutate_quiver(mutate_quiver(q, j), i)
            assert b_matrix(ij).tolist() == b_matrix(ji).tolist()
            checked += 1

    def test_no_loops_validation(self):
        with pytest.raises(BadParameters):
            Quiver(2, 2, ((0, 0),))

    @pytest.mark.parametrize("arrow", [(0, 1.5), (0, 1, 2), ("0", "1"), "01", (0,), 5, None])
    def test_arrow_must_be_a_pair_of_integers(self, arrow):
        assert outcome(Quiver, 3, 2, ((0, 2), arrow)) == (
            BadParameters, f"arrow {arrow!r} is not a pair of integers",
        )

    def test_arrows_must_be_a_sequence(self):
        assert outcome(Quiver, 3, 2, 5) == (
            BadParameters, "arrows must be a sequence of (source, target) pairs",
        )

    def test_numpy_integer_arrows_become_ints(self):
        q = Quiver(3, 2, ((np.int64(2), np.int8(0)), [1, np.int32(2)]))
        assert repr(q) == repr(Quiver(3, 2, ((1, 2), (2, 0))))

    @pytest.mark.parametrize("m, n_mut, message", [
        (2.5, 1, "m must be an integer, got 2.5"),
        ("2", 1, "m must be an integer, got '2'"),
        (2, 1.0, "n_mut must be an integer, got 1.0"),
        (2, None, "n_mut must be an integer, got None"),
    ])
    def test_vertex_counts_must_be_integers(self, m, n_mut, message):
        assert outcome(Quiver, m, n_mut, ((0, 1),)) == (BadParameters, message)

    def test_numpy_integer_vertex_counts_become_ints(self):
        data = Quiver(np.int64(2), np.int8(1), ((0, 1),)).to_json()
        assert data == {"m": 2, "n_mut": 1, "arrows": [[0, 1]]}
        assert type(data["m"]) is int and type(data["n_mut"]) is int

    def test_json_round_trip(self):
        q = Quiver(3, 2, ((0, 1), (1, 2)), coords=((1, 1), (1, 2), (0, 0)))
        assert Quiver.from_json(q.to_json()) == q


def vertex_subsets(seed):
    """(mutable, frozen) Plücker labels of a seed, in seed order."""
    subsets = [t.to_subset() for t in seed.labels]
    return subsets[: seed.n_mut], subsets[seed.n_mut :]


class TestGrassmannianSeed:
    def test_gr39_vertex_order(self, seed39):
        mutable, frozen = vertex_subsets(seed39)
        assert [str(s) for s in mutable] == [
            "124", "125", "126", "127", "128", "134", "145", "156", "167", "178",
        ]
        assert [str(s) for s in frozen] == [
            "123", "234", "345", "456", "567", "678", "789", "129", "189",
        ]

    def test_gr48_vertex_order(self, seed48):
        mutable, frozen = vertex_subsets(seed48)
        assert [str(s) for s in mutable] == [
            "1235", "1236", "1237", "1245", "1256", "1267", "1345", "1456", "1567",
        ]
        assert [str(s) for s in frozen] == [
            "1234", "2345", "3456", "4567", "5678", "1238", "1278", "1678",
        ]

    def test_gr59_matches_figure_incidence(self):
        seed = grassmannian_initial_seed(5, 9)
        name = {str(t.to_subset()): i for i, t in enumerate(seed.labels)}
        figure = [
            ("12345", "12346"), ("12346", "12356"), ("12356", "12456"),
            ("13456", "14567"), ("14567", "15678"), ("15678", "16789"),
            ("12346", "12347"), ("12347", "12348"), ("12348", "12349"),
            ("12378", "12389"), ("12367", "12378"), ("12356", "12367"),
            ("12678", "12789"), ("12567", "12678"), ("12456", "12567"),
            ("12367", "12567"), ("12347", "12367"), ("14567", "34567"),
            ("12378", "12678"), ("12348", "12378"), ("15678", "45678"),
            ("34567", "13456"), ("45678", "14567"), ("56789", "15678"),
            ("12367", "12346"), ("12378", "12347"), ("12389", "12348"),
            ("12567", "12356"), ("12678", "12367"), ("12789", "12378"),
            ("12456", "13456"), ("12678", "15678"), ("12567", "14567"),
            ("14567", "12456"), ("15678", "12567"), ("16789", "12678"),
            ("13456", "23456"),
        ]
        expected = sorted((name[a], name[b]) for a, b in figure)
        n_mut = seed.n_mut
        visible = sorted(
            (s, t) for s, t in seed.quiver.arrows if s < n_mut or t < n_mut
        )
        assert visible == expected
        # the generator keeps the frozen-frozen chains the figure omits
        hidden = [(s, t) for s, t in seed.quiver.arrows if s >= n_mut and t >= n_mut]
        assert len(hidden) == 7

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            grassmannian_initial_seed(3, 4)
        with pytest.raises(BadParameters):
            grassmannian_initial_seed(1, 9)

    @pytest.mark.parametrize("kn", [(3, 9), (2, 11)])
    def test_shape_must_be_integers_before_and_after_a_cached_seed(self, kn):
        # (2, 11) is built by no other test, so there the bad shapes come
        # first; a cached seed of equal shape must not answer them after
        k, n = kn
        bad = [((float(k), n), f"k must be an integer, got {float(k)}"),
               ((str(k), n), f"k must be an integer, got '{k}'"),
               ((k, float(n)), f"n must be an integer, got {float(n)}")]
        for args, message in bad:
            assert outcome(grassmannian_initial_seed, *args) == (BadParameters, message)
        seed = grassmannian_initial_seed(k, n)
        for args, message in bad:
            assert outcome(grassmannian_initial_seed, *args) == (BadParameters, message)
        assert grassmannian_initial_seed(np.int64(k), np.int8(n)) == seed

    def test_built_once(self):
        assert grassmannian_initial_seed(3, 9) is grassmannian_initial_seed(3, 9)

    def test_vertex_names_are_the_initial_qp_vertices(self):
        for n in range(4, 11):
            for k in range(2, n - 1):
                seed = grassmannian_initial_seed(k, n)
                names = tuple(str(s) for s in vertex_subsets(seed)[0])
                assert seed.vertex_names == initial_qp(k, n).vertices == names


class TestSeedMutation:
    def test_gr24_plucker_exchange(self):
        seed = grassmannian_initial_seed(2, 4)
        out = mutate_seed(seed, 0)
        assert out.labels[0].rows == ((2,), (4,))
        back = mutate_seed(out, 0)
        assert back.labels == seed.labels and back.quiver.arrows == seed.quiver.arrows

    def test_gr24_mutation_reverses_incident_arrows(self):
        seed = grassmannian_initial_seed(2, 4)
        before = set(seed.quiver.arrows)
        after = set(mutate_seed(seed, 0).quiver.arrows)
        assert after == {(t, s) if 0 in (s, t) else (s, t) for s, t in before}

    def test_involution_along_random_walks(self, seed39):
        rng = np.random.default_rng(23)
        seed = seed39
        for _ in range(25):
            r = int(rng.integers(0, seed.n_mut))
            stepped = mutate_seed(seed, r)
            assert mutate_seed(stepped, r).labels == seed.labels
            seed = stepped

    def test_reaches_rank4_fixture_tableau(self, seed39):
        target = treduce(Tableau.make(3, 9, [[1, 1, 3, 3], [2, 2, 6, 7], [4, 5, 8, 9]]))
        seed = seed39
        for r in (7, 8, 3, 4, 6, 9, 0, 8):
            seed = mutate_seed(seed, r)
        assert any(treduce(t) == target for t in seed.mutable_labels())

    def test_exchange_honours_arrow_multiplicity(self, seed39):
        from grascat.tableaux import Dominance, dominance_compare, quotient, union_all

        seed = seed39
        for r in (4, 8, 6, 1, 6, 9, 2, 8, 5, 6, 3, 0, 6, 9, 6, 3, 7, 9, 2):
            seed = mutate_seed(seed, r)
        ins = seed.quiver.arrows_into(0)
        assert ins.count(14) == 2  # a frozen label enters the exchange twice
        manual_in = union_all([seed.labels[v] for v in ins], k=3, n=9)
        manual_out = union_all(
            [seed.labels[v] for v in seed.quiver.arrows_out_of(0)], k=3, n=9
        )
        cmp = dominance_compare(manual_in, manual_out)
        bigger = manual_in if cmp in (Dominance.GT, Dominance.EQ) else manual_out
        mutated = mutate_seed(seed, 0)
        assert mutated.labels[0] == quotient(bigger, seed.labels[0])
        assert mutate_seed(mutated, 0).labels == seed.labels

    @pytest.mark.parametrize("r, error", [
        (1.0, (BadParameters, "mutation vertex must be an integer, got 1.0")),
        ("1", (BadParameters, "mutation vertex must be an integer, got '1'")),
        (None, (BadParameters, "mutation vertex must be an integer, got None")),
        (4, (FrozenVertex, "vertex 4 is frozen")),
        (-1, (FrozenVertex, "vertex -1 is frozen")),
    ])
    def test_mutation_vertex_must_be_a_mutable_integer(self, seed36, r, error):
        for fn, arg in [(mutate_quiver, seed36.quiver), (exchange_label, seed36),
                        (mutate_seed, seed36)]:
            assert outcome(fn, arg, r) == error

    def test_numpy_integer_mutation_vertex(self, seed36):
        assert mutate_seed(seed36, np.int64(1)) == mutate_seed(seed36, 1)

    def test_incomparable_exchange_is_error(self):
        # a hand-built seed whose exchange unions have different content
        labels = (
            Tableau.from_column((1, 2), 4),
            Tableau.from_column((1, 3), 4),
            Tableau.from_column((2, 4), 4),
        )
        seed = Seed(Quiver(3, 3, ((1, 0), (0, 2))), labels)
        with pytest.raises(IncomparableExchange):
            mutate_seed(seed, 0)


class TestExplore:
    def test_depth_one_gr24(self):
        seed = grassmannian_initial_seed(2, 4)
        result = explore(seed, 1, 100)
        initial = {treduce(t) for t in seed.mutable_labels()}
        assert result.complete
        assert len(result.variables) == len(initial) + 1

    def test_depth_zero(self):
        seed = grassmannian_initial_seed(2, 4)
        result = explore(seed, 0, 100)
        assert set(result.variables) == {treduce(t) for t in seed.mutable_labels()}
        assert not result.complete
        assert result.stopped_by == "depth"

    def test_budget_flagging(self, seed36):
        result = explore(seed36, 100, 5)
        assert not result.complete and result.seeds_seen == 5
        assert result.stopped_by == "max_seeds"

    def test_complete_result_was_not_stopped(self, seed36):
        result = explore(seed36, 100, 10**6)
        assert result.complete and result.stopped_by is None
        # a horizon that every cluster lies within stops nothing either
        assert explore(grassmannian_initial_seed(2, 4), 1, 100).stopped_by is None

    def test_gr36_finite_closure(self, seed36):
        result = explore(seed36, 100, 10**6)
        assert result.complete
        assert result.seeds_seen == 50  # cluster count of the finite type
        frozen_red = {treduce(t) for t in seed36.labels[seed36.n_mut:]}
        variables = [t for t in result.variables if t not in frozen_red]
        assert len(variables) == 16
        widths = sorted(t.width for t in variables)
        assert widths == [1] * 14 + [2, 2]

    @pytest.mark.parametrize("k, n, clusters, variables", [
        (2, 4, 2, 2), (2, 5, 5, 5), (2, 6, 14, 9), (2, 7, 42, 14), (2, 8, 132, 20),
        (3, 7, 833, 42),
    ])
    def test_finite_type_closure_counts(self, k, n, clusters, variables):
        # type A_{n-3} for k = 2: Catalan(n-2) clusters, n(n-3)/2 variables;
        # Gr(3,7) is E6 (Scott 2006); Gr(3,6) is checked above
        result = explore(grassmannian_initial_seed(k, n), 100, 10**6)
        assert result.complete
        assert (result.seeds_seen, result.variable_count()) == (clusters, variables)

    def test_gr38_e8_closure(self):
        start = time.perf_counter()
        result = explore(grassmannian_initial_seed(3, 8), 100, 10**6)
        elapsed = time.perf_counter() - start
        assert result.complete
        assert (result.seeds_seen, result.variable_count()) == (25_080, 128)
        assert elapsed < GR38_SECONDS, f"Gr(3,8) closure took {elapsed:.1f} s"

    def test_deterministic(self, seed36):
        a = explore(seed36, 4, 1000)
        b = explore(seed36, 4, 1000)
        assert a.variables == b.variables and a.seeds_seen == b.seeds_seen

    @pytest.mark.parametrize("kn, depth, seeds_seen, variables", [
        ((3, 9), 2, 73, 37), ((3, 9), 3, 347, 57), ((4, 8), 3, 280, 57), ((3, 10), 3, 554, 71),
    ])
    def test_depth_cut_results(self, kn, depth, seeds_seen, variables):
        seed = grassmannian_initial_seed(*kn)
        result = explore(seed, depth, 10**6)
        assert (result.complete, result.stopped_by) == (False, "depth")
        assert (result.seeds_seen, result.variable_count()) == (seeds_seen, variables)
        if kn == (3, 9):
            assert explore_answer(tableau_explore(seed, depth, 10**6)) == explore_answer(result)

    def test_depth_cut_stops_exchanging(self, monkeypatch):
        # from Gr(3,9) at depth 1 the ten exchanges of the start seed see
        # everything within the horizon; the first depth-1 seed that meets an
        # unseen cluster ends the call instead of running its ten exchanges
        # and those of the nine seeds queued after it
        calls = []
        exchange = cluster._exchange
        monkeypatch.setattr(cluster, "_exchange", lambda *a: calls.append(a) or exchange(*a))
        seed = grassmannian_initial_seed(3, 9)
        result = explore(seed, 1, 100)
        assert (result.seeds_seen, result.stopped_by) == (1 + seed.n_mut, "depth")
        assert seed.n_mut < len(calls) <= 2 * seed.n_mut

    def test_bad_budgets(self, seed36):
        for depth, max_seeds, message in [
            (-1, 10, "max_depth must be >= 0, got -1"),
            (0, 0, "max_seeds must be >= 1, got 0"),
        ]:
            assert outcome(explore, seed36, depth, max_seeds) == (BadParameters, message)
            assert outcome(tableau_explore, seed36, depth, max_seeds) == (BadParameters, message)

    def test_budgets_must_be_integers(self, seed39):
        # a fractional depth never equals a whole one, so it would never cut
        for depth, max_seeds, message in [
            (1.5, 2000, "max_depth must be an integer, got 1.5"),
            ("1", 10, "max_depth must be an integer, got '1'"),
            (None, 10, "max_depth must be an integer, got None"),
            (1, 100.0, "max_seeds must be an integer, got 100.0"),
        ]:
            assert outcome(explore, seed39, depth, max_seeds) == (BadParameters, message)
        result = explore(seed39, np.int64(1), np.int32(2000))
        assert explore_answer(result) == explore_answer(explore(seed39, 1, 2000))
        assert (result.seeds_seen, result.stopped_by) == (11, "depth")

    def test_depth_one_builds_one_quiver_and_takes_no_rank(self, seed39, monkeypatch):
        # Regression guard on the work of a depth-1 exploration from a walked
        # Gr(3,9) seed: the ten queued neighbours' quivers are not built
        # (only the first expanded one is, before the depth cut), and label
        # independence comes down the walk instead of from a rank.
        start = seed39
        for r in (0, 4, 7, 2, 9, 5):
            start = mutate_seed(start, r)
        calls = Counter()

        def counted(name, fn):
            return lambda *args: calls.update([name]) or fn(*args)

        monkeypatch.setattr(cluster, "mutate_quiver", counted("mutate_quiver", mutate_quiver))
        monkeypatch.setattr(cluster, "rank_int", counted("rank_int", rank_int))
        result = explore(start, 1, 100)
        assert (result.seeds_seen, result.stopped_by) == (1 + start.n_mut, "depth")
        assert (calls["mutate_quiver"], calls["rank_int"]) == (1, 0)

    @settings(max_examples=40)
    @given(
        st.sampled_from([(3, 6), (3, 7), (3, 8), (3, 9), (4, 8)]),
        st.lists(st.integers(0, 11), min_size=1, max_size=10),
    )
    def test_inherited_independence_matches_a_fresh_rank(self, kn, walk):
        seed = grassmannian_initial_seed(*kn)
        for step in walk:
            seed = mutate_seed(seed, step % seed.n_mut)
            assert "_independent" in seed.__dict__  # carried, not computed
            contents = np.array([t.content() for t in seed.labels])
            assert seed._independent == (rank_int(contents) == seed.m)

    @pytest.mark.parametrize("name, reachable", [
        ("dependent labels", 1),
        ("label a sum of two others", 1),
        ("mutable label of a dependent triple", 2),
    ])
    def test_dependent_seeds_and_their_mutations_stay_dependent(self, name, reachable):
        # every seed mutate_seed reaches from a dependent one stays dependent,
        # for explore and for g_vector over it
        assert FAILING_SEEDS[name][1] is NonUniqueSolution
        seeds = [FAILING_SEEDS[name][0]]
        for s in seeds:  # grows while it is walked
            seeds += [c for c in (outcome(mutate_seed, s, r) for r in range(s.n_mut))
                      if isinstance(c, Seed) and c not in seeds]
        assert len(seeds) == reachable
        for s in seeds:
            assert s._independent is False
            for got in (outcome(explore, s, 3, 50), outcome(g_vector, s.labels[0], s)):
                assert got[0] is NonUniqueSolution and "linearly dependent" in got[1]

    def test_seed_json_round_trip(self, seed36):
        assert Seed.from_json(seed36.to_json()).labels == seed36.labels


class TestPromotionShiftCompatibility:
    def test_promoted_tableau_balances_shifted_profile(self, seed39):
        # promotion on tableaux matches adding 1 to every profile entry
        from grascat import fixtures
        from grascat.cmcat import KSubset, Profile, cyclic_shift_profile, profile_balance_check
        from grascat.gvec import cone_presentation, g_vector
        from grascat.tableaux import promote

        for pair in fixtures.rigid_pairs("gr39_rank4")[:8]:
            t = Tableau.from_json(pair["tableau"])
            prof = Profile(tuple(KSubset(9, tuple(f)) for f in pair["profile"]["factors"]))
            pt, pp = promote(t), cyclic_shift_profile(prof, 1)
            cp = cone_presentation(g_vector(pt, seed39))
            assert profile_balance_check(pp, cp.sub, cp.quot)
