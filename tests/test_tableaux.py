import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import content_grid, random_tableau
from grascat.errors import (
    BadParameters,
    DimensionMismatch,
    FieldOverflow,
    GrascatError,
    NoDecomposition,
    NotAFactor,
    NotSemistandard,
    OutOfRange,
)
from grascat.tableaux import (
    Dominance,
    DominantMonomial,
    Packing,
    Tableau,
    bender_knuth,
    dominance_compare,
    equivalent,
    fundamental_subset,
    monomial_to_tableau,
    promote,
    quotient,
    reduce,
    tableau_to_monomial,
    trivial_column,
    union,
    union_all,
)


def col(entries, n):
    return Tableau.from_column(entries, n)


class TestUnionQuotient:
    def test_worked_union_of_fundamental_columns(self):
        cols = [col(c, 6) for c in [(1, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 6)]]
        assert union_all(cols).rows == ((1, 2, 2, 3), (3, 3, 4, 4), (4, 5, 5, 6))

    def test_union_identity(self):
        t = Tableau.make(3, 6, [[1, 2], [3, 4], [5, 6]])
        assert union(t, Tableau.empty(3, 6)) == t

    def test_union_three_columns(self):
        got = union_all([col(c, 6) for c in [(1, 2, 6), (1, 4, 5), (2, 3, 4)]])
        assert got.rows == ((1, 1, 2), (2, 3, 4), (4, 5, 6))

    def test_union_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            union(Tableau.empty(3, 6), Tableau.empty(3, 7))

    def test_empty_union_needs_its_shape(self):
        for shape in ({}, {"k": 3}, {"n": 6}):
            with pytest.raises(DimensionMismatch, match="explicit"):
                union_all([], **shape)
        assert union_all([], k=3, n=6) == Tableau.empty(3, 6)

    @pytest.mark.parametrize("a", [0, -1, 5, 9])
    def test_trivial_column_start_out_of_range(self, a):
        with pytest.raises(OutOfRange, match=f"start {a} outside"):
            trivial_column(a, 3, 6)

    def test_quotient_short_exact_sequence_example(self):
        total = union_all([col(c, 6) for c in [(1, 2, 6), (1, 4, 5), (2, 3, 4)]])
        assert quotient(total, col((1, 2, 4), 6)).rows == ((1, 2), (3, 4), (5, 6))

    def test_quotient_self_and_identity(self):
        t = Tableau.make(3, 6, [[1, 2], [3, 4], [5, 6]])
        assert quotient(t, t).is_empty()
        assert quotient(t, Tableau.empty(3, 6)) == t

    def test_quotient_not_a_factor(self):
        with pytest.raises(NotAFactor):
            quotient(col((1, 2, 3), 6), col((4, 5, 6), 6))

    def test_quotient_can_break_column_strictness(self):
        t = Tableau.make(2, 6, [[1, 4], [4, 5]])
        with pytest.raises(NotSemistandard):
            quotient(t, Tableau.make(2, 6, [[1], [5]]))

    def test_union_quotient_inverse_random(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            s = random_tableau(rng, 3, 7)
            t = random_tableau(rng, 3, 7)
            assert quotient(union(s, t), s) == t

    def test_union_commutative_associative_random(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b, c = (random_tableau(rng, 3, 8) for _ in range(3))
            assert union(a, b) == union(b, a)
            assert union(union(a, b), c) == union(a, union(b, c))


class TestReduceEquivalence:
    def test_reduce_paper_pair(self):
        s = Tableau.make(3, 6, [[1, 2], [3, 4], [4, 6]])
        t = Tableau.make(3, 6, [[1, 1], [2, 4], [3, 6]])
        expected = ((1,), (4,), (6,))
        assert reduce(s).rows == expected
        assert reduce(t).rows == expected
        assert equivalent(s, t)

    def test_reduce_trivial_to_empty(self):
        assert reduce(Tableau.make(3, 6, [[1], [2], [3]])).is_empty()

    def test_reduce_idempotent_random(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            t = random_tableau(rng, 3, 9)
            assert reduce(reduce(t)) == reduce(t)

    def test_equivalent_reflexive_and_distinct(self):
        t = Tableau.make(3, 6, [[1], [2], [4]])
        assert equivalent(t, t)
        assert not equivalent(t, Tableau.make(3, 6, [[1], [3], [4]]))

    def test_equivalence_relation_on_random_classes(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            t = random_tableau(rng, 3, 7)
            a = union(t, trivial_column(1, 3, 7))
            b = union(t, trivial_column(3, 3, 7))
            assert equivalent(a, b) and equivalent(b, a) and equivalent(a, t)


class TestDominance:
    def test_paper_example(self):
        s = Tableau.make(3, 6, [[1, 3], [2, 5], [4, 6]])
        t = Tableau.make(3, 6, [[1, 2], [3, 4], [5, 6]])
        assert dominance_compare(t, s) == Dominance.GT
        assert dominance_compare(s, t) == Dominance.LT

    def test_eq_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = random_tableau(rng, 3, 7)
            t = random_tableau(rng, 3, 7)
            cmp = dominance_compare(s, t)
            assert (cmp == Dominance.EQ) == (s == t)
            assert dominance_compare(s, s) == Dominance.EQ

    def test_different_content(self):
        s = Tableau.make(3, 6, [[1], [2], [3]])
        t = Tableau.make(3, 6, [[4], [5], [6]])
        assert dominance_compare(s, t) == Dominance.DIFFERENT_CONTENT

    def test_swap_inverts(self):
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(400):
            s = random_tableau(rng, 3, 6, max_cols=2)
            t = random_tableau(rng, 3, 6, max_cols=2)
            cmp, rev = dominance_compare(s, t), dominance_compare(t, s)
            if cmp == Dominance.GT:
                hits += 1
                assert rev == Dominance.LT
            if cmp == Dominance.INCOMPARABLE:
                assert rev == Dominance.INCOMPARABLE
        assert hits > 0


class ContentOnly:
    """The shape and content grid of something that is no tableau: what
    `tableau_to_monomial` reads of its argument."""

    def __init__(self, k, n, grid):
        self.k, self.n, self.grid = k, n, grid

    def content(self):
        return tuple(self.grid.ravel().tolist())


class TestDictionary:
    def test_fundamental_columns(self):
        assert fundamental_subset(1, -5, 3).elems == (3, 4, 6)
        assert fundamental_subset(2, 0, 3).elems == (1, 3, 4)
        assert fundamental_subset(2, -2, 3).elems == (2, 4, 5)
        assert fundamental_subset(1, -3, 3).elems == (2, 3, 5)

    def test_fundamental_out_of_range(self):
        with pytest.raises(OutOfRange):
            fundamental_subset(3, -5, 3)  # i must be < k
        with pytest.raises(OutOfRange):
            fundamental_subset(1, -4, 3)  # wrong parity
        with pytest.raises(OutOfRange):
            fundamental_subset(1, 1, 3)  # s > i - 2
        with pytest.raises(OutOfRange):
            fundamental_subset(1, -5, 3, n=5)  # leaves [1, n]

    def test_worked_example_both_ways(self):
        mono = DominantMonomial(3, 2, ((1, -5, 1), (1, -3, 1), (2, -2, 1), (2, 0, 1)))
        t = monomial_to_tableau(mono)
        assert t.rows == ((1, 2), (3, 4), (5, 6))
        assert tableau_to_monomial(t) == mono

    def test_single_factor(self):
        mono = DominantMonomial(3, 2, ((2, 0, 1),))
        assert monomial_to_tableau(mono).rows == ((1,), (3,), (4,))
        assert tableau_to_monomial(col((1, 3, 4), 6)) == mono

    def test_empty_monomial(self):
        assert monomial_to_tableau(DominantMonomial(3, 2, ())).is_empty()
        assert tableau_to_monomial(Tableau.make(3, 6, [[1], [2], [3]])).factors == ()

    def test_monomial_str(self):
        assert str(DominantMonomial(3, 2, ())) == "1"
        assert str(DominantMonomial(3, 2, ((2, 0, 1), (1, -3, 1), (1, -3, 1)))) == "Y[1,-3]^2 Y[2,0]"

    def test_monomial_window_validation(self):
        with pytest.raises(OutOfRange):
            DominantMonomial(3, 2, ((1, -9, 1),))
        with pytest.raises(OutOfRange):
            DominantMonomial(3, 2, ((1, -3, 0),))

    def test_no_fundamental_columns(self):
        with pytest.raises(OutOfRange, match="no fundamental columns"):
            tableau_to_monomial(col((1, 2, 3), 4))

    def test_content_outside_the_integer_span(self):
        # every tableau decomposes; a grid with one box in a middle row
        # alone is outside the span of the column contents
        grid = np.zeros((3, 6), dtype=np.int64)
        grid[1, 0] = 1
        with pytest.raises(NoDecomposition, match="integer span"):
            tableau_to_monomial(ContentOnly(3, 6, grid))

    def test_negative_fundamental_exponent(self):
        # a trivial column less a fundamental one: exponent -1
        grid = content_grid(trivial_column(1, 3, 6)) - content_grid(col((1, 3, 4), 6))
        with pytest.raises(NoDecomposition, match="negative"):
            tableau_to_monomial(ContentOnly(3, 6, grid))

    def test_round_trip_random_monomials(self):
        rng = np.random.default_rng(13)
        k, ell = 3, 5
        window = [(i, i - 2 - 2 * r) for i in (1, 2) for r in range(ell + 1)]
        for _ in range(80):
            picks = rng.integers(0, len(window), size=rng.integers(1, 5))
            factors = tuple((window[p][0], window[p][1], 1) for p in picks)
            mono = DominantMonomial(k, ell, factors)
            assert tableau_to_monomial(monomial_to_tableau(mono)) == mono

    def test_monomial_of_tableau_is_reduction_inverse(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            t = random_tableau(rng, 3, 9)
            back = monomial_to_tableau(tableau_to_monomial(t))
            assert back == reduce(t)


class TestBenderKnuthPromotion:
    def test_promotion_example(self):
        t = Tableau.make(3, 8, [[1, 1], [2, 4], [4, 7]])
        assert promote(t).rows == ((2, 2), (3, 5), (5, 8))

    def test_bk_out_of_range(self):
        t = Tableau.make(3, 8, [[1, 1], [2, 4], [4, 7]])
        with pytest.raises(OutOfRange):
            bender_knuth(t, 8)

    def test_bk_noop_without_entries(self):
        t = Tableau.make(3, 8, [[1, 1], [2, 4], [4, 7]])
        assert bender_knuth(t, 5) == t

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32 - 1))
    def test_bk_involution_hypothesis(self, i, entropy):
        t = random_tableau(np.random.default_rng(entropy), 3, 8)
        assert bender_knuth(bender_knuth(t, i), i) == t

    def test_promote_empty(self):
        assert promote(Tableau.empty(3, 8)).is_empty()

    def test_promote_shifts_content(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            t = random_tableau(rng, 3, 9)
            before = content_grid(t).sum(axis=0)
            after = content_grid(promote(t)).sum(axis=0)
            assert list(after) == [before[-1]] + list(before[:-1])

    def test_promote_order_divides_n_up_to_equivalence(self):
        # Recorded experimentally: n-fold promotion returns the ~-class.
        rng = np.random.default_rng(16)
        for k, n in [(2, 4), (3, 6), (3, 9)]:
            for _ in range(20):
                t = random_tableau(rng, k, n, max_cols=3)
                out = t
                for _ in range(n):
                    out = promote(out)
                assert equivalent(out, t)


class TestJson:
    def test_tableau_round_trip(self):
        t = Tableau.make(3, 9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert Tableau.from_json(t.to_json()) == t

    def test_monomial_round_trip(self):
        mono = DominantMonomial(3, 5, ((1, -5, 1), (2, 0, 2)))
        assert DominantMonomial.from_json(mono.to_json()) == mono

    def test_validation_rejects_bad_rows(self):
        with pytest.raises(NotSemistandard):
            Tableau.make(2, 4, [[1, 2], [1, 3]])
        with pytest.raises(NotSemistandard):
            Tableau.make(2, 4, [[1, 2], [2]])

    @pytest.mark.parametrize("rows", [[[1], [2]], [[1], [2], [3], [4]], []])
    def test_wrong_row_count_rejected(self, rows):
        with pytest.raises(NotSemistandard, match=f"expected 3 rows, got {len(rows)}"):
            Tableau.make(3, 6, rows)

    @pytest.mark.parametrize("rows", [[[0], [2], [3]], [[1], [2], [7]], [[1, 2], [3, 4], [5, 9]]])
    def test_entries_outside_n_rejected(self, rows):
        with pytest.raises(NotSemistandard, match=r"outside \[1, 6\]"):
            Tableau.make(3, 6, rows)

    @pytest.mark.parametrize("k, n", [(3, 9.0), (3, 9.5), (3.0, 9), ("3", 9)])
    def test_tableau_shape_must_be_integers(self, k, n):
        with pytest.raises(BadParameters, match="must be an integer"):
            Tableau(k, n, ((1,), (2,), (3,)))
        t = Tableau(np.int64(3), np.int64(9), ((1,), (2,), (3,)))
        assert type(t.k) is type(t.n) is int and t == col((1, 2, 3), 9)

    @pytest.mark.parametrize("k, ell", [(3.0, 5), (3, 5.0), (None, 5)])
    def test_monomial_window_must_be_integers(self, k, ell):
        with pytest.raises(BadParameters, match="must be an integer"):
            DominantMonomial(k, ell, ((1, -1, 1),))
        mono = DominantMonomial(np.int64(3), np.int64(5), ((1, -1, 1),))
        assert type(mono.k) is type(mono.ell) is int
        assert mono == DominantMonomial(3, 5, ((1, -1, 1),))

    @pytest.mark.parametrize("a, k, n", [(1.0, 3, 9), (1, 3.0, 9), (1, 3, 9.0)])
    def test_trivial_column_arguments_must_be_integers(self, a, k, n):
        with pytest.raises(BadParameters, match="must be an integer"):
            trivial_column(a, k, n)
        assert trivial_column(np.int64(1), np.int64(3), np.int64(9)) == col((1, 2, 3), 9)

    @pytest.mark.parametrize("call, message", [
        (lambda: fundamental_subset(1.0, -1, 3), "i must be an integer, got 1.0"),
        (lambda: fundamental_subset(1, -1, 3, 4.0), "n must be an integer, got 4.0"),
        (lambda: DominantMonomial(3, 2, ((1.0, -1, 1),)), "i must be an integer, got 1.0"),
        (lambda: DominantMonomial(3, 2, ((1, "-1", 1),)), "s must be an integer, got '-1'"),
        (lambda: DominantMonomial(3, 2, ((1, -1, 0.5),)), "multiplicity must be an integer"),
        (lambda: bender_knuth(col((1, 2, 3), 6), 1.5), "i must be an integer, got 1.5"),
    ])
    def test_dictionary_and_bender_knuth_arguments_must_be_integers(self, call, message):
        with pytest.raises(BadParameters, match=message):
            call()
        mono = DominantMonomial(3, 2, ((np.int64(1), np.int32(-1), np.uint8(1)),))
        assert mono.factors == ((1, -1, 1),) and all(type(x) is int for x in mono.factors[0])

    def test_numpy_entries_become_ints(self):
        t = Tableau.make(2, 4, np.array([[1], [3]]))
        assert all(type(v) is int for row in t.rows for v in row)
        assert json.dumps(t.to_json()) == '{"k": 2, "n": 4, "rows": [[1], [3]]}'

    def test_errors_print_plain_ints(self):
        t = Tableau.make(2, 4, np.array([[1], [3]]))
        s = Tableau.make(2, 4, np.array([[2], [3]]))
        with pytest.raises(NotAFactor, match=r"^row \(2,\) is not contained in \(1,\)$"):
            quotient(t, s)

    def test_non_integer_entries_rejected(self):
        with pytest.raises(NotSemistandard, match="^every row must be a list of integers$"):
            Tableau.make(2, 4, [[1.0], [3.0]])


# --- the numpy-grid exchange rule, kept as the oracle of the count-based one --


def grid_reduce(t):
    """Reduction one trivial column at a time, read off the content grid."""
    counts = content_grid(t)
    out = t
    for a in range(1, t.n - t.k + 2):
        mult = min(int(counts[r, a + r - 1]) for r in range(t.k))
        for _ in range(mult):
            out = quotient(out, trivial_column(a, t.k, t.n))
    return out


def _grid_dominates(lam, mu):
    s_l = s_m = 0
    for a, b in zip(lam, mu):
        s_l += a
        s_m += b
        if s_l < s_m:
            return False
    return True


def grid_dominance_compare(s, t):
    """Dominance of restriction shapes from cumulative numpy content grids."""
    cs, ct = content_grid(s), content_grid(t)
    if not np.array_equal(cs.sum(axis=0), ct.sum(axis=0)):
        return Dominance.DIFFERENT_CONTENT
    shapes_s = np.cumsum(cs, axis=1)
    shapes_t = np.cumsum(ct, axis=1)
    ge = le = True
    for i in range(s.n):
        lam = tuple(int(x) for x in shapes_s[:, i])
        mu = tuple(int(x) for x in shapes_t[:, i])
        if lam == mu:
            continue
        if not _grid_dominates(lam, mu):
            ge = False
        if not _grid_dominates(mu, lam):
            le = False
        if not ge and not le:
            return Dominance.INCOMPARABLE
    if ge and le:
        return Dominance.EQ
    return Dominance.GT if ge else Dominance.LT


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of its GrascatError."""
    try:
        return fn(*args)
    except GrascatError as exc:
        return type(exc), str(exc)


@st.composite
def shaped_columns(draw, max_cols=4):
    """(k, n, columns): strictly increasing k-subsets of [n]."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 9))
    column = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True).map(sorted)
    return k, n, draw(st.lists(column, max_size=max_cols))


def from_columns(k, n, columns):
    return union_all([col(c, n) for c in columns], k=k, n=n)


@st.composite
def same_content_pairs(draw):
    """Two tableaux whose entries are one multiset, regrouped into columns."""
    k, n, columns = draw(shaped_columns())
    entries = draw(st.permutations([v for c in columns for v in c]))
    regrouped = [sorted(entries[i : i + k]) for i in range(0, len(entries), k)]
    assume(all(len(set(c)) == k for c in regrouped))
    return from_columns(k, n, columns), from_columns(k, n, regrouped)


class TestAgainstGridOracle:
    @given(shaped_columns(max_cols=5), st.lists(st.integers(1, 9), max_size=3))
    def test_reduce_matches(self, shaped, starts):
        k, n, columns = shaped
        # mix in trivial columns, so that there is something to remove
        trivial = [list(range(a, a + k)) for a in starts if a + k - 1 <= n]
        t = from_columns(k, n, columns + trivial)
        assert outcome(reduce, t) == outcome(grid_reduce, t)

    @given(same_content_pairs())
    def test_dominance_matches_on_equal_content(self, pair):
        s, t = pair
        assert dominance_compare(s, t) == grid_dominance_compare(s, t)
        assert dominance_compare(t, s) == grid_dominance_compare(t, s)

    @given(shaped_columns(), st.data())
    def test_dominance_matches_on_any_pair(self, shaped, data):
        k, n, columns = shaped
        other = data.draw(st.lists(
            st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True).map(sorted),
            max_size=4,
        ))
        s, t = from_columns(k, n, columns), from_columns(k, n, other)
        assert dominance_compare(s, t) == grid_dominance_compare(s, t)

    def test_every_verdict_is_reached(self):
        rng = np.random.default_rng(31)
        by_content: dict = {}
        for _ in range(3000):
            t = random_tableau(rng, 3, 6, max_cols=3)
            by_content.setdefault(tuple(sorted(v for r in t.rows for v in r)), []).append(t)
        seen = set()
        for group in by_content.values():
            for s in group[:6]:
                for t in group[:6]:
                    got = dominance_compare(s, t)
                    assert got == grid_dominance_compare(s, t)
                    seen.add(got)
        assert seen == {Dominance.EQ, Dominance.GT, Dominance.LT, Dominance.INCOMPARABLE}

    @given(shaped_columns(), st.integers(1, 4))
    def test_union_all_matches_pairwise_union(self, shaped, copies):
        k, n, columns = shaped
        parts = [col(c, n) for c in columns] * copies
        if not parts:
            return
        folded = parts[0]
        for t in parts[1:]:
            folded = union(folded, t)
        assert union_all(parts) == folded


# --- packed count vectors against the tableau operations and grid oracles -----

# 6-bit fields keep only values up to 31 below the guard bit, so the
# examples reach the top of a field; 16 bits is what explore starts with.
FIELD_BITS = st.sampled_from([6, 16])


def packed(packing, t):
    """pack(t), or None when t does not fit the packing's fields."""
    try:
        return packing.pack(t)
    except FieldOverflow:
        return None


@st.composite
def row_subsets(draw, t):
    """A tableau-like k-row family: the same number of entries from each row of t."""
    size = draw(st.integers(0, t.width))
    return [
        [row[i] for i in sorted(draw(st.permutations(range(t.width)))[:size])]
        for row in t.rows
    ]


class TestPackedAgainstTableaux:
    @given(st.integers(1, 3), st.integers(1, 4), FIELD_BITS, st.data())
    def test_ge_compares_every_field(self, k, n, bits, data):
        packing = Packing(k, n, bits)
        fields = st.lists(st.integers(0, packing.limit - 1), min_size=k * n, max_size=k * n)
        a, b = data.draw(fields), data.draw(fields)
        if data.draw(st.booleans()):  # often equal but for one field
            b = a[:]
            b[data.draw(st.integers(0, k * n - 1))] = data.draw(st.integers(0, packing.limit - 1))

        def grid(values):
            return sum(v << (i * bits) for i, v in enumerate(values))

        assert packing.ge(grid(a), grid(b)) == all(x >= y for x, y in zip(a, b))

    @given(shaped_columns(max_cols=6))
    def test_content_is_the_packed_c_grid(self, shaped):
        # the C grid is the lowest section: field r n + v - 1 counts v in row r
        k, n, columns = shaped
        t = from_columns(k, n, columns)
        packing = Packing.fitting(k, n, k * t.width)
        x = packing.pack(t)
        fields = tuple((x >> (f * packing.bits)) & packing.fmask for f in range(k * n))
        assert t.content() == fields and all(type(c) is int for c in t.content())

    @given(shaped_columns(max_cols=6), st.integers(0, 6), FIELD_BITS)
    def test_pack_round_trip_and_union(self, shaped, split, bits):
        k, n, columns = shaped
        packing = Packing(k, n, bits)
        s, t = from_columns(k, n, columns[:split]), from_columns(k, n, columns[split:])
        both = packed(packing, union(s, t))
        assume(both is not None)
        assert packing.tableau(both) == union(s, t)
        assert packing.pack(s) + packing.pack(t) == both

    @given(shaped_columns(max_cols=6), st.data(), FIELD_BITS)
    def test_quotient_matches(self, shaped, data, bits):
        k, n, columns = shaped
        packing = Packing(k, n, bits)
        t = from_columns(k, n, columns)
        rows = data.draw(row_subsets(t)) if data.draw(st.booleans()) else None
        if rows is None:  # any other tableau, mostly not a factor
            other = data.draw(st.lists(
                st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True).map(sorted),
                max_size=3,
            ))
            s = from_columns(k, n, other)
        else:
            try:
                s = Tableau.make(k, n, rows)
            except NotSemistandard:
                assume(False)
        x, y = packed(packing, t), packed(packing, s)
        assume(x is not None and y is not None)
        want = outcome(quotient, t, s)
        got = packing.quotient(x, y)
        if isinstance(want, Tableau):
            assert got == packing.pack(want) and packing.semistandard(got)
        elif want[0] is NotAFactor:
            assert got is None
        else:
            assert want[0] is NotSemistandard
            assert got is not None and not packing.semistandard(got)

    def test_quotient_outcomes_are_reached(self):
        packing = Packing(2, 6, 6)
        t = Tableau.make(2, 6, [[1, 4], [4, 5]])
        s = Tableau.make(2, 6, [[1], [5]])
        assert not packing.semistandard(packing.quotient(packing.pack(t), packing.pack(s)))
        assert packing.quotient(packing.pack(s), packing.pack(t)) is None
        assert packing.quotient(packing.pack(t), packing.pack(t)) == 0

    @given(st.integers(1, 3), st.data(), FIELD_BITS)
    def test_semistandard_matches_validation(self, k, data, bits):
        n = data.draw(st.integers(k, 6))
        packing = Packing(k, n, bits)
        counts = data.draw(st.lists(
            st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=k, max_size=k,
        ))
        assume(max(map(sum, counts)) * k < packing.limit)
        rows = [[v + 1 for v, c in enumerate(row) for _ in range(c)] for row in counts]
        x = sum(c * packing.units[r][v + 1] for r, row in enumerate(counts) for v, c in enumerate(row))
        try:
            Tableau.make(k, n, rows)
            valid = True
        except NotSemistandard:
            valid = False
        assert packing.semistandard(x) == valid

    @given(shaped_columns(max_cols=5), st.lists(st.integers(1, 9), max_size=3), FIELD_BITS)
    def test_reduce_matches(self, shaped, starts, bits):
        k, n, columns = shaped
        trivial = [list(range(a, a + k)) for a in starts if a + k - 1 <= n]
        t = from_columns(k, n, columns + trivial)
        packing = Packing(k, n, bits)
        x = packed(packing, t)
        assume(x is not None)
        red, mults = packing.reduce(x)
        assert packing.tableau(red) == grid_reduce(t)
        counts = content_grid(t)
        assert mults == [min(int(counts[r, a + r - 1]) for r in range(k)) for a in range(1, n - k + 2)]

    @given(same_content_pairs(), FIELD_BITS)
    def test_dominance_matches_on_equal_content(self, pair, bits):
        s, t = pair
        packing = Packing(s.k, s.n, bits)
        x, y = packed(packing, s), packed(packing, t)
        assume(x is not None)
        assert packing.dominance(x, y) == grid_dominance_compare(s, t)
        assert packing.dominance(y, x) == grid_dominance_compare(t, s)

    @given(shaped_columns(), st.data(), FIELD_BITS)
    def test_dominance_matches_on_any_pair(self, shaped, data, bits):
        k, n, columns = shaped
        other = data.draw(st.lists(
            st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True).map(sorted),
            max_size=4,
        ))
        s, t = from_columns(k, n, columns), from_columns(k, n, other)
        packing = Packing(k, n, bits)
        assert packing.dominance(packing.pack(s), packing.pack(t)) == grid_dominance_compare(s, t)

    def test_all_five_dominance_outcomes(self):
        rng = np.random.default_rng(32)
        packing = Packing(3, 6, 6)
        seen = set()
        tableaux = [random_tableau(rng, 3, 6, max_cols=3) for _ in range(400)]
        for s, t in zip(tableaux, tableaux[1:] + tableaux[:1]):
            got = packing.dominance(packing.pack(s), packing.pack(t))
            assert got == grid_dominance_compare(s, t)
            seen.add(got)
        by_content: dict = {}
        for t in tableaux:
            by_content.setdefault(tuple(sorted(v for r in t.rows for v in r)), []).append(t)
        for group in by_content.values():
            for s in group[:6]:
                for t in group[:6]:
                    got = packing.dominance(packing.pack(s), packing.pack(t))
                    assert got == grid_dominance_compare(s, t)
                    seen.add(got)
        assert seen == set(Dominance)

    def test_field_width_guard(self):
        # 8-bit fields hold values below 2^7 = 128; a tableau's largest field
        # is k * width
        packing = Packing(2, 4, 8)
        narrow = union_all([col((1, 2), 4)] * 63)
        assert packing.tableau(packing.pack(narrow)) == narrow
        with pytest.raises(FieldOverflow, match="width-64"):
            packing.pack(union(narrow, col((1, 2), 4)))
        wide = Packing(2, 4, 16)
        assert wide.tableau(wide.pack(union(narrow, col((1, 2), 4)))).width == 64

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Packing(2, 4, 8).pack(col((1, 2), 5))

    @pytest.mark.parametrize("width, bits", [(16_383, 16), (16_384, 32)])
    def test_reduce_and_dominance_at_the_field_width_boundary(self, width, bits):
        # a k = 2 tableau's largest field is 2 * width; 16-bit fields hold
        # values below 2^15
        assert Packing.fitting(2, 4, 2 * width).bits == bits
        # columns 13^(w-1) 24 and 12 13^(w-2) 34: one content, two shapes
        s = Tableau.make(2, 4, [[1] * (width - 1) + [2], [3] * (width - 1) + [4]])
        t = Tableau.make(2, 4, [[1] * (width - 1) + [3], [2] + [3] * (width - 2) + [4]])
        for u in (s, t):
            assert reduce(u) == grid_reduce(u)
            assert reduce(u).width < width
        assert dominance_compare(s, t) == grid_dominance_compare(s, t) == Dominance.GT
        assert dominance_compare(t, s) == grid_dominance_compare(t, s) == Dominance.LT
        assert dominance_compare(s, s) == grid_dominance_compare(s, s) == Dominance.EQ
