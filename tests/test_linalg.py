from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_det, fraction_rref, self_pairs_of_every_side
from grascat import einv, modp
from grascat.errors import BadParameters, DimensionMismatch, NoIntegerSolution, NonUniqueSolution
from grascat import linalg
from grascat.einv import _SMALL_MAX
from grascat.linalg import (
    _LIFT_PRIME,
    _MODULAR_MIN,
    ExactSolver,
    _bareiss,
    _certified_rank,
    _exact_relation,
    det,
    rank_int,
    rref,
)


def fraction_solver(columns):
    """(denom, transform) as ExactSolver computed them with the oracle rref."""
    ncols, nrows = len(columns), len(columns[0])
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)]
        + [Fraction(1 if t == i else 0) for t in range(nrows)]
        for i in range(nrows)
    ]
    red, _ = fraction_rref(aug)
    e_rows = [r[ncols:] for r in red]
    denom = lcm(*(x.denominator for r in e_rows for x in r))
    return denom, [[int(x * denom) for x in r] for r in e_rows]


def python_gauss_jordan(b, p):
    """Gauss-Jordan mod p of [b | I] in Python ints, pivots in b's columns only.

    The first nonzero at or below the current row is the pivot, as in
    `modp.echelon_mod_p`.  Returns (pivot columns, row order, reduced
    [b | I]), the identity part indexed by original row.
    """
    nrows, ncols = len(b), len(b[0])
    m = [[x % p for x in row] + [int(i == j) for j in range(nrows)] for i, row in enumerate(b)]
    order = list(range(nrows))
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        order[rank], order[piv] = order[piv], order[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(nrows):
            f = m[i][col]
            if i != rank and f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        pivots.append(col)
    return pivots, order, m


ENTRIES = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def rational_matrices(draw, nrows, ncols):
    """int/Fraction matrices, some rows replaced by zero rows or multiples of others."""
    ncols = draw(ncols)
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(draw(nrows))]
    for i in range(len(rows)):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "copy" and i:
            scale = draw(ENTRIES)
            rows[i] = [scale * x for x in rows[draw(st.integers(0, i - 1))]]
    return rows


@st.composite
def int_matrices(draw, nrows, ncols):
    """Integer matrices with entries up to 4 or up to 10^6: some rows zero or
    combinations of earlier ones, and the first entry sometimes negative."""
    ncols = draw(ncols)
    bound = draw(st.sampled_from([4, 10**6]))
    entry = st.integers(-bound, bound)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(draw(nrows))]
    for i in range(len(rows)):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "combine"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "combine" and i:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            r, q = rows[draw(st.integers(0, i - 1))], rows[draw(st.integers(0, i - 1))]
            rows[i] = [a * x + b * y for x, y in zip(r, q)]
    if rows and ncols and draw(st.booleans()):
        rows[0][0] = -draw(st.integers(1, bound))
    return rows


def square_int_matrices():
    return st.integers(0, 6).flatmap(lambda n: int_matrices(st.just(n), st.just(n)))


@st.composite
def cofactor_matrices(draw):
    """3 x 3 and 4 x 4 integer matrices, the sizes `det` expands by cofactors.

    Entries reach 4, 2^63 or 2^70, and each is an int, an integral Fraction or,
    when it fits, a numpy int64; the last row is sometimes a combination of
    the first two.
    """
    n = draw(st.sampled_from([3, 4]))
    bound = draw(st.sampled_from([4, 2**63, 2**70]))
    entry = st.integers(-bound, bound)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]

    def kind(x):
        fits = -(2**63) <= x < 2**63
        return draw(st.sampled_from([int, Fraction, np.int64] if fits else [int, Fraction]))(x)

    return [[kind(x) for x in r] for r in rows]


def known_rank_matrix(rng, rows, cols, rank, bound=4):
    a = rng.integers(-bound, bound + 1, size=(rows, rank))
    b = rng.integers(-bound, bound + 1, size=(rank, cols))
    return a @ b


class TestRank:
    def test_known_rank_products(self):
        rng = np.random.default_rng(201)
        for _ in range(40):
            r = int(rng.integers(0, 5))
            m = known_rank_matrix(rng, 8, 10, r)
            got = rank_int(m.tolist())
            assert got <= r
            # generic products achieve the nominal rank
            assert got == min(r, np.linalg.matrix_rank(m.astype(float)))

    def test_empty(self):
        assert rank_int([]) == 0
        assert rank_int([[]]) == 0

    # both used to come out as rank 0, each entry truncated by int()
    def test_fraction_entry_rejected(self):
        with pytest.raises(BadParameters, match="integer entries"):
            rank_int([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])

    def test_float_entry_rejected(self):
        with pytest.raises(BadParameters, match="integer entries"):
            rank_int([[0.5, 0], [0, 0.25]])

    def test_integral_entries_of_any_integer_kind(self):
        rows = [[Fraction(2), np.int64(1)], [4, Fraction(2)]]
        assert rank_int(rows) == 1
        assert rref(rows) == ([[2, 1], [0, 0]], [0], 2)
        assert det(rows) == 0
        got = det([[Fraction(2), np.int64(1)], [3, Fraction(4)]])
        assert got == 5 and type(got) is int

    def test_rank_mod_p_matches_exact(self):
        rng = np.random.default_rng(202)
        for _ in range(40):
            r = int(rng.integers(0, 6))
            m = known_rank_matrix(rng, 9, 7, r)
            assert modp.rank_mod_p(m) == rank_int(m.tolist())


P = modp.PRIME
VECTOR_ENTRIES = st.one_of(
    st.integers(-(2**63) + 1, 2**63 - 1),
    st.integers(-3, 3),
    st.integers(-(2**32), 2**32).map(lambda q: q * P if abs(q * P) < 2**63 else P),
)
# Entries for the Python-int rank: the vectors' entries, ±(2^63 - 1) and
# entries past int64, multiples of p among them.
ROW_ENTRIES = st.one_of(
    VECTOR_ENTRIES,
    st.sampled_from([2**63 - 1, -(2**63) + 1, 2**63, -(2**63), 2**64 + 5, P * 2**40, -P * 2**33]),
    st.integers(-(2**80), 2**80),
    st.integers(-(2**50), 2**50).map(lambda q: q * P),
)


def shape_of(rows: list[list[int]]) -> tuple[int, int]:
    return len(rows), len(rows[0]) if rows else 0


def residue_array(rows: list[list[int]]) -> np.ndarray:
    return np.array([[x % P for x in r] for r in rows], dtype=np.int64).reshape(shape_of(rows))


def assert_vector_rank(entries: list[int]) -> int:
    """rank_rows_mod_p of the row and of the column vector against
    echelon_mod_p's pivot count, rank_mod_p and rank_int of the residues;
    return the rank."""
    want = rank_int([[x % P for x in entries]])
    for rows in ([entries], [[x] for x in entries]):
        got = modp.rank_rows_mod_p(rows)
        a = np.array(rows, dtype=np.int64)
        assert type(got) is int
        assert got == len(modp.echelon_mod_p(a)[1]) == modp.rank_mod_p(a) == want
    return want


class TestVectorRankModP:
    """One row or one column: rank 1 exactly when an entry is nonzero mod p."""

    @pytest.mark.parametrize("entries, rank", [
        ([0], 0),
        ([0, 0, 0], 0),
        ([P], 0),
        ([-P, 2 * P, 0], 0),
        ([P * 2**31], 0),
        ([1], 1),
        ([-1, 0], 1),
        ([P, 1], 1),
        ([0, -P - 1], 1),
        ([2**31], 1),
        ([2**31 - 1, 2**31 - 2], 1),
        ([2**62, -(2**63) + 1], 1),
    ])
    def test_literal_vectors(self, entries, rank):
        assert assert_vector_rank(entries) == rank

    @given(st.lists(VECTOR_ENTRIES, min_size=1, max_size=12))
    def test_hypothesis_vectors(self, entries):
        assert_vector_rank(entries)

    def test_no_elimination_for_vectors(self, alg39, monkeypatch):
        # rank_rows_mod_p never calls the numpy kernel, rank_mod_p always
        # does, and an F_p E-value calls it for an operator with both sides
        # past `_SMALL_MAX` alone, once
        calls = []
        kernel = modp.echelon_mod_p
        monkeypatch.setattr(modp, "echelon_mod_p", lambda a: calls.append(a.shape) or kernel(a))
        for shape in [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (_SMALL_MAX + 2, _SMALL_MAX + 2)]:
            assert modp.rank_rows_mod_p(np.ones(shape, dtype=np.int64).tolist()) == 1
        assert calls == []
        assert modp.rank_mod_p(np.ones((1, 2), dtype=np.int64)) == 1
        assert modp.rank_mod_p(np.eye(2, dtype=np.int64)) == 2
        assert calls == [(1, 2), (2, 2)]
        sides = set()
        for op, f in self_pairs_of_every_side(alg39, "fp"):
            calls.clear()
            einv.e_pair(f, f, "fp")
            side = min(op.rows, op.cols)
            sides.add(min(side, _SMALL_MAX + 1))
            assert calls == ([] if side <= _SMALL_MAX else [(op.rows, op.cols)])
        assert sides == set(range(_SMALL_MAX + 2))


@st.composite
def small_rows(draw):
    """Rows of ROW_ENTRIES with 0 to _SMALL_MAX + 2 on each side, or 1 x k and
    k x 1 up to 40; some rows zero or combinations of earlier ones."""
    kind = draw(st.sampled_from(["box", "box", "row", "column"]))
    if kind == "box":
        nrows, ncols = draw(st.integers(0, _SMALL_MAX + 2)), draw(st.integers(0, _SMALL_MAX + 2))
    else:
        k = draw(st.integers(1, 40))
        nrows, ncols = (1, k) if kind == "row" else (k, 1)
    rows = [draw(st.lists(ROW_ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(1, nrows):
        how = draw(st.sampled_from(["keep", "keep", "zero", "combine"]))
        if how == "zero":
            rows[i] = [0] * ncols
        elif how == "combine":
            a, b = draw(st.integers(-3, 3)), draw(st.integers(0, i - 1))
            rows[i] = [a * x + y for x, y in zip(rows[b], rows[draw(st.integers(0, i - 1))])]
    return rows


class TestRankRowsModP:
    """The Python-int rank mod p against the numpy kernel and planted ranks."""

    @settings(max_examples=150, deadline=None)
    @given(small_rows())
    def test_matches_echelon_pivot_count(self, rows):
        got = modp.rank_rows_mod_p(rows)
        assert type(got) is int
        want = len(modp.echelon_mod_p(residue_array(rows))[1])
        obj = np.array(rows, dtype=object).reshape(shape_of(rows))
        assert got == want == modp.rank_mod_p(obj)

    @pytest.mark.parametrize(
        "rows, cols", [(1, 1), (3, 5), (8, 8), (_SMALL_MAX, _SMALL_MAX), (14, 9), (2, 40)]
    )
    def test_planted_ranks(self, rows, cols):
        rng = np.random.default_rng([203, rows, cols])
        for r in range(min(rows, cols) + 1):
            m = known_rank_matrix(rng, rows, cols, r).tolist()
            want = rank_int(m)
            assert want == r  # generic products achieve the nominal rank
            assert modp.rank_rows_mod_p(m) == modp.rank_rows_mod_p([list(c) for c in zip(*m)]) == r
            # shifted by multiples of p, past int64: the same matrix over F_p
            big = [[x + P * 2**40 * (i - j) for j, x in enumerate(row)] for i, row in enumerate(m)]
            assert modp.rank_rows_mod_p(big) == r

    def test_input_is_left_as_it_is(self):
        rows = [[2, 4], [1, 2], [P + 1, 5]]
        copy = [list(r) for r in rows]
        assert modp.rank_rows_mod_p(rows) == 2 and rows == copy

    @pytest.mark.parametrize("rows", [[[0.5]], [[1, 2.0]], [[Fraction(1, 2)]], [[1], ["2"]]])
    def test_non_integer_entry_rejected(self, rows):
        with pytest.raises(BadParameters, match="integer entries"):
            modp.rank_rows_mod_p(rows)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            modp.rank_rows_mod_p([[1, 2], [3]])

    def test_empty(self):
        assert modp.rank_rows_mod_p([]) == modp.rank_rows_mod_p([[]]) == 0
        assert modp.rank_rows_mod_p([[], []]) == 0


class TestArrayRankModPEntries:
    """rank_mod_p reads an array's entries as integers, exactly."""

    @pytest.mark.parametrize("a", [
        np.array([[0.5, 1.5], [1.0, 2.0]]),  # truncated to [[0, 1], [1, 2]], rank 2
        np.array([[0.5]]),  # nonzero under float %, rank 1
        np.array([[1, 0.5]], dtype=object),
        np.ones((3, 3), dtype=np.complex128),
    ])
    def test_non_integer_dtype_rejected(self, a):
        with pytest.raises(BadParameters, match="integer entries"):
            modp.rank_mod_p(a)

    def test_python_ints_past_int64_are_reduced(self):
        # used to end in a bare OverflowError
        a = np.array([[2**63, 1], [P * 2**40, 2**64 + 5]], dtype=object)
        want = modp.rank_rows_mod_p(a.tolist())
        assert want == 2 and modp.rank_mod_p(a) == want
        assert modp.rank_mod_p(np.array([[P * 2**40, -(2**70) * P]], dtype=object)) == 0

    def test_unsigned_and_small_integer_dtypes(self):
        u = np.array([[2**64 - 1, 1], [1, 1]], dtype=np.uint64)
        assert modp.rank_mod_p(u) == modp.rank_rows_mod_p(u.tolist()) == 2
        assert modp.rank_mod_p(np.array([[2**64 - P, 0]], dtype=np.uint64)) == 1
        for dtype in (np.int8, np.uint8, np.int32, np.bool_):
            assert modp.rank_mod_p(np.eye(3, dtype=dtype)) == 3

    def test_empty_float_array_has_rank_zero(self):
        # no entry to misread, as rank_int reads it
        assert modp.rank_mod_p(np.zeros((0, 3))) == rank_int(np.zeros((0, 3))) == 0


def bareiss_rank(m):
    return _bareiss([list(map(int, r)) for r in m])[0]


class TestModularRank:
    """The certified modular path of rank_int, with Bareiss as the reference."""

    @pytest.mark.parametrize("rows, cols", [(40, 40), (40, 57), (64, 96), (80, 120)])
    def test_known_rank_products(self, rows, cols):
        rng = np.random.default_rng([203, rows, cols])
        for deficiency in range(5):
            m = known_rank_matrix(rng, rows, cols, rows - deficiency, bound=1)
            want = bareiss_rank(m.tolist())
            assert want == rows - deficiency
            assert _certified_rank(m.tolist()) == want
            assert rank_int(m.tolist()) == rank_int(m.T.tolist()) == want

    def test_entries_at_the_int64_guard(self):
        # max|entry| * min(shape) just below 2^31, the largest the lifting takes.
        rng = np.random.default_rng(206)
        half = (2**31 // 40 - 1) // 2
        m = rng.integers(-half, half + 1, size=(40, 60))
        m[37:] = m[:3] - m[3:6]
        assert np.abs(m).max() * 40 < 2**31
        assert _certified_rank(m.tolist()) == bareiss_rank(m.tolist()) == 37
        assert rank_int(m.tolist()) == rank_int(m.T.tolist()) == 37

    def test_bad_prime_falls_back(self):
        # The top-left block has determinant p = 2^24 - 3, the lifting prime,
        # so the matrix has rank 44 mod p but 45 over Q; only the certificate
        # can tell.
        m = np.eye(45, dtype=np.int64)
        m[:2, :2] = [[4096, 3], [1, 4096]]
        assert 4096 * 4096 - 3 == _LIFT_PRIME
        assert len(modp.echelon_mod_p(m, _LIFT_PRIME, transform=True)[1]) == 44
        assert _certified_rank(m.tolist()) is None
        assert rank_int(m.tolist()) == 45
        # A block of determinant 2^31 - 1 drops the rank over the sampling
        # prime only; the lifting prime certifies it.
        m[:2, :2] = [[46341, 14], [331, 46341]]
        assert 46341 * 46341 - 14 * 331 == modp.PRIME
        assert modp.rank_mod_p(m) == 44
        assert _certified_rank(m.tolist()) == rank_int(m.tolist()) == 45

    def test_lift_guard_at_the_int64_bound(self, monkeypatch):
        # The lift's mod-p products sum r (p-1)^2, so rank_int takes the
        # modular path only while min(shape) (p-1)^2 < 2^63.  At this prime
        # that holds for side 40 but not 41; entries are at the other guard,
        # max|entry| * min(shape) just below 2^31.
        p = 480191923
        assert 40 * (p - 1) ** 2 < 2**63 <= 41 * (p - 1) ** 2
        monkeypatch.setattr(linalg, "_LIFT_PRIME", p)
        certified = []

        def spy(b):
            certified.append(len(b))
            return _certified_rank(b)

        monkeypatch.setattr(linalg, "_certified_rank", spy)
        rng = np.random.default_rng(209)
        for side in (40, 41):
            half = (2**31 // side - 1) // 2
            m = rng.integers(-half, half + 1, size=(side, side + 20))
            m[side - 3 :] = m[:3] - m[3:6]
            assert rank_int(m) == bareiss_rank(m.tolist()) == side - 3
        assert certified == [40]

    def test_at_most_one_failed_reconstruction_per_step(self, monkeypatch):
        # Each lifting step tries the pending relations in order and stops at
        # the first failure; a proved relation is never tried again.
        tries = []

        def spy(target, sparse, y, modulus):
            ok = _exact_relation(target, sparse, y, modulus)
            tries.append((modulus, ok))
            return ok

        monkeypatch.setattr(linalg, "_exact_relation", spy)
        rng = np.random.default_rng(210)
        for bound in (1, 3):
            for deficiency in (1, 4):
                m = known_rank_matrix(rng, 40, 57, 40 - deficiency, bound=bound)
                tries.clear()
                assert _certified_rank(m.tolist()) == bareiss_rank(m.tolist()) == 40 - deficiency
                failed = [modulus for modulus, ok in tries if not ok]
                assert failed and len(failed) == len(set(failed))
                assert sum(ok for _, ok in tries) == deficiency

    def test_huge_entry_takes_bareiss(self):
        m = np.eye(45, dtype=object)
        m[0, 1] = 2**63
        m[1] = 3 * m[0]
        assert rank_int(m.tolist()) == 44

    @pytest.mark.parametrize("rows, cols", [(3, 4), (40, 55), (55, 40)])
    def test_zero_matrices(self, rows, cols):
        assert rank_int([[0] * cols for _ in range(rows)]) == 0

    def test_inverse_mod_p(self):
        # the inverse block of the one elimination with the transform, checked
        # in Python ints, with pivots and pivot rows as a plain echelon form's
        rng = np.random.default_rng(207)
        for p in (_LIFT_PRIME, modp.PRIME):
            for rows, cols, rank in [(30, 30, 30), (30, 45, 27), (40, 40, 36)]:
                b = known_rank_matrix(rng, rows, cols, rank, bound=3)
                if rank < rows:
                    # a zero row and a repeated row move non-pivot rows first
                    b[0], b[2] = 0, b[1]
                red, pivots, order = modp.echelon_mod_p(b, p, transform=True)
                inv = red[:rank, cols : cols + rank]
                assert order[:rank] != list(range(rank)) or rank == rows
                _, want_pivots, want_order = modp.echelon_mod_p(b, p)
                assert pivots == want_pivots and len(pivots) == rank
                assert order[:rank] == want_order[:rank]
                a = b[np.ix_(order[:rank], pivots)].astype(object)
                assert ((inv.astype(object) @ a) % p == np.eye(rank, dtype=object)).all()


@st.composite
def modular_rank_matrices(draw):
    """An int64 matrix of known nominal rank, some columns zero, with its
    shorter side on either side of _MODULAR_MIN."""
    rows = draw(st.integers(_MODULAR_MIN - 3, _MODULAR_MIN + 6))
    cols = draw(st.integers(rows, rows + 12))
    deficiency = draw(st.integers(0, 4))
    zero_cols = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    m = known_rank_matrix(rng, rows, cols, rows - deficiency, bound=draw(st.sampled_from([1, 3])))
    m[:, rng.choice(cols, size=zero_cols, replace=False)] = 0
    return m


@st.composite
def residue_matrices(draw):
    """An int64 matrix of known nominal rank, its shorter side on either side
    of _MODULAR_MIN: small entries, or entries up to 2^62 whose last rows are
    differences of earlier ones; one row zero."""
    rows = draw(st.integers(_MODULAR_MIN - 3, _MODULAR_MIN + 6))
    cols = draw(st.integers(rows, rows + 12))
    rank = rows - draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        m = known_rank_matrix(rng, rows, cols, rank, bound=3)
    else:
        m = rng.integers(0, 2**62, size=(rows, cols))
        m[rank:] = m[: rows - rank] - m[1 : rows - rank + 1]
    m[draw(st.integers(0, rows - 1))] = 0
    return m


class TestEchelonTransform:
    """echelon_mod_p with the transform against Gauss-Jordan in Python ints."""

    # 2^30 - 35 lets an entry take 8 unreduced updates, so the bulk
    # reduction runs; at the lifting prime it never does at these sizes.
    @settings(max_examples=15, deadline=None)
    @given(residue_matrices(), st.sampled_from([_LIFT_PRIME, 2**30 - 35, modp.PRIME]))
    def test_matches_python_gauss_jordan(self, m, p):
        red, pivots, order = modp.echelon_mod_p(m, p, transform=True)
        want_pivots, want_order, want = python_gauss_jordan(m.tolist(), p)
        assert pivots == want_pivots and order == want_order
        nrows, ncols = m.shape
        r = len(pivots)
        got = red.tolist()
        assert all(0 <= x < p for row in got for x in row)
        for i in range(nrows):
            # b's part, then the transform: row i's coefficients of the pivot
            # rows' inputs in pivot order, and nothing past them
            assert got[i][:ncols] == want[i][:ncols]
            assert got[i][ncols : ncols + r] == [want[i][ncols + j] for j in order[:r]]
            assert not any(got[i][ncols + r :])
        # forward elimination finds the same pivots and pivot rows
        _, fwd_pivots, fwd_order = modp.echelon_mod_p(m, p)
        assert fwd_pivots == pivots and fwd_order[:r] == order[:r]

    def test_prime_above_the_int64_kernel_rejected(self):
        with pytest.raises(ValueError, match="below 2\\^31"):
            modp.echelon_mod_p(np.eye(3, dtype=np.int64), 2**31 + 11)


class TestRankPaths:
    """rank_int on lists and on arrays, against Bareiss."""

    @settings(max_examples=40, deadline=None)
    @given(modular_rank_matrices())
    def test_matches_bareiss(self, m):
        want = bareiss_rank(m.tolist())
        for a in (m, m.T):
            assert rank_int(a.tolist()) == want
            assert rank_int(a) == want
            assert rank_int(np.ascontiguousarray(a)) == want

    def test_float_array_rejected(self):
        for a in (np.array([[0.5, 0], [0, 0.25]]), np.ones((40, 40))):
            with pytest.raises(BadParameters, match="integer entries"):
                rank_int(a)

    def test_int64_minimum_takes_bareiss(self, monkeypatch):
        # np.abs(-2^63) wraps to -2^63; max|entry| is taken in Python ints,
        # so this entry fails the lifting guard and Bareiss decides
        def no_lifting(b):
            raise AssertionError("the certified modular rank was tried")

        monkeypatch.setattr(linalg, "_certified_rank", no_lifting)
        m = np.eye(45, dtype=np.int64)
        m[0, 1] = -(2**63)
        m[1] = m[0]
        assert rank_int(m) == rank_int(m.T) == 44

    def test_changed_relation_fails_the_check(self):
        # pivot rows B with zero columns, and a target row t with
        # D t = sum c_j B[j]: the relation y = c / D reconstructs mod p^3
        p = modp.PRIME
        rng = np.random.default_rng(208)
        r, n, big_d = 6, 20, 7
        b = rng.integers(-5, 6, size=(r, n)) * (rng.random((r, n)) < 0.3)
        b[:, [3, 11]] = 0
        b[0, 0] = 1  # row 0 is nonzero
        c = rng.integers(-50, 51, size=r)
        c[-1] = 1
        t = rng.integers(-3, 4, size=n)
        t[[3, 11]] = 0
        t[0] = 1
        b[-1] = big_d * t - c[:-1] @ b[:-1]
        sparse = [[(j, int(x)) for j, x in enumerate(row) if x] for row in b]
        modulus = p**3

        def relation(coeffs, d):
            return [int(x) * pow(d, -1, modulus) % modulus for x in coeffs]

        target = t.tolist()
        assert _exact_relation(target, sparse, relation(c, big_d), modulus)
        for j in range(r):
            changed = c.copy()
            changed[j] += 1
            assert not _exact_relation(target, sparse, relation(changed, big_d), modulus)
        assert not _exact_relation(target, sparse, relation(c, big_d + 1), modulus)
        # a column that no pivot row touches is checked as well
        for col in (3, 11):
            moved = list(target)
            moved[col] += 1
            assert not _exact_relation(moved, sparse, relation(c, big_d), modulus)


class TestDetRref:
    def test_det_matches_numpy(self):
        rng = np.random.default_rng(204)
        for _ in range(30):
            m = rng.integers(-5, 6, size=(4, 4))
            assert det(m.tolist()) == round(np.linalg.det(m.astype(float)))

    def test_det_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    def test_rref_pivots(self):
        red, pivots, scale = rref([[1, 2, 3], [2, 4, 7]])
        assert pivots == [0, 2]
        assert red[0][:2] == [scale, 2 * scale]

    def test_rref_scale_is_the_last_pivot(self):
        # [[-2, 1], [1, 1]]: the first pivot row is negated to (2, -1); the
        # last pivot is then |det| = 3, and the RREF is the identity
        assert rref([[-2, 1], [1, 1]]) == ([[3, 0], [0, 3]], [0, 1], 3)
        assert rref([]) == ([], [], 1)
        assert rref([[0, 0]]) == ([[0, 0]], [], 1)


class TestMalformed:
    """Every kernel reads its rows the same way, with structured errors."""

    def test_non_square_det(self):
        # once -3, the determinant of the first two columns
        with pytest.raises(DimensionMismatch, match="square matrix, got 2 x 3"):
            det([[1, 2, 3], [4, 5, 7]])

    @pytest.mark.parametrize("kernel", [det, rref, rank_int])
    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2, 3], [4, 5], [6, 7]]])
    def test_ragged_rows(self, kernel, rows):
        # once an IndexError, or a value computed from the first row's length
        with pytest.raises(DimensionMismatch, match="different lengths"):
            kernel(rows)

    @pytest.mark.parametrize("kernel", [det, rref, rank_int])
    @pytest.mark.parametrize("bad", [0.5, 2.0, Fraction(1, 2), "1"])
    def test_non_integer_entry(self, kernel, bad):
        with pytest.raises(BadParameters, match="integer entries"):
            kernel([[1, 0], [0, bad]])

    @pytest.mark.parametrize("size", [3, 4])
    @pytest.mark.parametrize("bad", [0.5, 2.0, Fraction(1, 2)])
    def test_non_integer_entry_at_cofactor_sizes(self, size, bad):
        m = [[int(i == j) for j in range(size)] for i in range(size)]
        m[size - 1][0] = bad
        with pytest.raises(BadParameters, match="integer entries"):
            det(m)

    @pytest.mark.parametrize(
        "rows", [[[1, 2, 3], [4, 5], [6, 7, 8]], [[1, 2, 3], [4, 5, 6], [7, 8, 9, 1]]]
    )
    def test_ragged_rows_at_cofactor_sizes(self, rows):
        with pytest.raises(DimensionMismatch, match="different lengths"):
            det(rows)

    @pytest.mark.parametrize("nrows, ncols", [(3, 4), (4, 3), (4, 5)])
    def test_non_square_at_cofactor_sizes(self, nrows, ncols):
        rows = [[i + j for j in range(ncols)] for i in range(nrows)]
        with pytest.raises(DimensionMismatch, match=f"square matrix, got {nrows} x {ncols}"):
            det(rows)

    @pytest.mark.parametrize("kernel", [det, rref, rank_int])
    @pytest.mark.parametrize("rows", [[1, 2], [[1, 2], 3], 5, np.array([1, 2])])
    def test_non_iterable_row(self, kernel, rows):
        # once a bare TypeError, "'int' object is not iterable"
        with pytest.raises(BadParameters, match="sequence of rows"):
            kernel(rows)


class TestAgainstFractionOracle:
    @given(square_int_matrices())
    def test_det(self, m):
        got = det(m)
        assert type(got) is int
        assert got == fraction_det(m)

    @given(cofactor_matrices())
    def test_det_by_cofactors(self, m):
        got = det(m)
        assert type(got) is int
        # the oracle reads Python ints: numpy int64 products would wrap
        assert got == fraction_det([[int(x) for x in r] for r in m])

    def test_det_by_cofactors_past_int64(self):
        big = 2**63
        assert det([[big, 1, 0], [0, big, 1], [1, 0, big]]) == big**3 + 1
        rows = [[big, 1, 0, 0], [0, big, 1, 0], [0, 0, big, 1], [1, 0, 0, np.int64(-1)]]
        assert det(rows) == -(big**3) - 1

    @given(int_matrices(st.integers(0, 6), st.integers(1, 7)))
    def test_rref(self, m):
        red, pivots, scale = rref(m)
        want_red, want_pivots = fraction_rref(m)
        assert pivots == want_pivots
        assert type(scale) is int and scale > 0
        assert all(type(x) is int for row in red for x in row)
        assert all(red[i][p] == scale for i, p in enumerate(pivots))
        assert [[Fraction(x, scale) for x in row] for row in red] == want_red

    @given(rational_matrices(st.integers(0, 6), st.integers(1, 7)))
    def test_rank_int_of_cleared_rows(self, m):
        cleared = [[x * lcm(*(Fraction(y).denominator for y in r)) for x in r] for r in m]
        assert rank_int(cleared) == len(fraction_rref(m)[1])

    @pytest.mark.parametrize("key", ["seed39", "seed48"])
    def test_initial_seed_solvers(self, request, key):
        seed = request.getfixturevalue(key)
        columns = [t.content() for t in seed.labels]
        solver = ExactSolver(columns)
        assert (solver.denom, solver.transform) == fraction_solver(columns)


class TestExactSolver:
    def test_solve_round_trip(self):
        rng = np.random.default_rng(205)
        for _ in range(25):
            cols = rng.integers(-3, 4, size=(6, 3))
            if rank_int(cols.T.tolist()) < 3:
                continue
            solver = ExactSolver(cols.T.tolist())  # columns as basis vectors
            x = rng.integers(-5, 6, size=3)
            b = cols @ x
            assert solver.solve_integer(b.tolist()) == list(x)

    def test_outside_span(self):
        solver = ExactSolver([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(NoIntegerSolution):
            solver.solve_integer([0, 0, 1])

    def test_non_integral(self):
        solver = ExactSolver([[2, 0], [0, 1]])
        with pytest.raises(NoIntegerSolution):
            solver.solve_integer([1, 0])

    def test_dependent_columns_rejected(self):
        with pytest.raises(NonUniqueSolution):
            ExactSolver([[1, 2], [2, 4]])


def python_solve_rational(solver, b):
    """Unique rational x with A x = b, or None outside the span, from the
    transform product in Python ints: the oracle of `solve_integer`."""
    eb = [sum(t * v for t, v in zip(row, b)) for row in solver.transform]
    if any(eb[solver.ncols :]):
        return None
    return [Fraction(x, solver.denom) for x in eb[: solver.ncols]]


@st.composite
def solver_systems(draw):
    """A full-column-rank integer basis and a right-hand side, often near 2^63."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, nrows))
    cols = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=nrows, max_size=nrows), min_size=ncols, max_size=ncols,
    ))
    scale = draw(st.sampled_from([1, 2**20, 2**60, 2**61, 2**62, 2**63, 2**70]))
    b = draw(st.lists(st.integers(-3, 3), min_size=nrows, max_size=nrows))
    return cols, [x * scale + draw(st.integers(-2, 2)) for x in b]


class TestSolverProduct:
    def test_both_sides_of_the_int64_bound(self):
        # A = [[1, 1], [0, 1]]: the transform [[1, -1], [0, 1]] has max row-|sum| 2,
        # and x = (b0 - b1, b1)
        solver = ExactSolver([[1, 0], [1, 1]])
        assert solver.transform == [[1, -1], [0, 1]] and solver._transform64 is not None
        for v in (2**62 - 1, 2**62):  # 2 v < 2^63 takes int64; 2 v = 2^63 does not
            b = [v, -v]
            assert solver.solve_integer(b) == python_solve_rational(solver, b) == [2 * v, -v]
        # at 2^62 the first coordinate is 2^63, which int64 would wrap
        assert solver.solve_integer([2**62, -(2**62)])[0] == 2**63

    def test_wide_transform_stays_in_python_ints(self):
        # E = [[1, 0], [-2^63, 1]]: its row-|sum| 2^63 + 1 has no int64 product
        solver = ExactSolver([[1, 2**63]])
        assert solver._transform64 is None
        assert solver.solve_integer([1, 2**63]) == [1]
        assert python_solve_rational(solver, [1, 0]) is None
        with pytest.raises(NoIntegerSolution, match="outside"):
            solver.solve_integer([1, 0])

    @given(solver_systems())
    def test_matches_python_product(self, system):
        cols, b = system
        if rank_int(cols) < len(cols):
            with pytest.raises(NonUniqueSolution):
                ExactSolver(cols)
            return
        solver = ExactSolver(cols)
        assert solver._product(b) == [sum(t * v for t, v in zip(row, b)) for row in solver.transform]

    @given(solver_systems())
    def test_solve_integer_matches_solve_rational(self, system):
        cols, b = system
        if rank_int(cols) < len(cols):
            return
        solver = ExactSolver(cols)
        want = python_solve_rational(solver, b)
        if want is None:
            message = "vector is outside the integer span of the basis"
        elif any(x.denominator != 1 for x in want):
            message = "solution exists but is not integral"
        else:
            got = solver.solve_integer(b)
            assert got == want and all(type(x) is int for x in got)
            return
        with pytest.raises(NoIntegerSolution, match=message):
            solver.solve_integer(b)

    def test_solve_integer_checks_the_length(self):
        solver = ExactSolver([[2, 0, 0], [0, 1, 0]])
        for b in ([1, 0], [1, 0, 0, 0]):
            with pytest.raises(NoIntegerSolution, match="wrong length"):
                solver.solve_integer(b)

    def test_outcomes_are_reached(self):
        solver = ExactSolver([[2, 0, 0], [0, 1, 0]])
        assert python_solve_rational(solver, [0, 0, 1]) is None
        assert python_solve_rational(solver, [1, 0, 0]) == [Fraction(1, 2), 0]
        with pytest.raises(NoIntegerSolution, match="outside"):
            solver.solve_integer([0, 0, 1])
        with pytest.raises(NoIntegerSolution, match="not integral"):
            solver.solve_integer([1, 0, 0])
        assert solver.solve_integer([2**63, -(2**63), 0]) == [2**62, -(2**63)]
