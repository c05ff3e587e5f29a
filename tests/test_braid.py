from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_det, fraction_rref
from grascat import braid
from grascat.braid import (
    RANDOM_TUPLE_ATTEMPTS,
    BraidCheckReport,
    VectorTuple,
    braid_property_check,
    is_consecutively_generic,
    plucker_proportional,
    plucker_vector,
    random_tuple,
    sigma,
    twisted_shift,
)
from grascat.errors import (
    BadParameters,
    DimensionMismatch,
    NotGeneric,
)
from grascat.linalg import det


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def vec(t, i):
    """Vector i of the tuple t (a VectorTuple or a FracTuple), 1-based and cyclic."""
    return t.vectors[(i - 1) % t.n]


def frac_tuple(k, n, rows):
    return VectorTuple(k, n, tuple(tuple(Fraction(x) for x in r) for r in rows))


# --- the Fraction oracle: the braid action on Fraction vectors, with the
# Plücker test by reduced row echelon forms ------------------------------------


@dataclass(frozen=True)
class FracTuple:
    """n Fraction vectors of length k and their n cyclic window minors."""

    k: int
    n: int
    vectors: tuple
    window_minors: tuple

    @property
    def d(self):
        return gcd(self.k, self.n)

    def window_minor(self, start):
        return self.window_minors[(start - 1) % self.n]


def oracle_tuple(k, n, vectors):
    vecs = tuple(tuple(Fraction(x) for x in v) for v in vectors)
    minors = tuple(
        fraction_det([vecs[(i + s) % n] for s in range(k)]) for i in range(n)
    )
    return FracTuple(k, n, vecs, minors)


def oracle_twisted_shift(t):
    sign = (-1) ** (t.k - 1)
    rotated = t.vectors[1:] + (tuple(sign * x for x in t.vectors[0]),)
    w = t.window_minors
    minors = tuple(w[(i + 1) % t.n] * (sign if i >= t.n - t.k else 1) for i in range(t.n))
    return FracTuple(t.k, t.n, rotated, minors)


def oracle_sigma(i, t):
    d = t.d
    if d < 2 or not 1 <= i <= d - 1:
        raise BadParameters(f"need 1 <= i <= gcd(k,n)-1 = {d - 1}, got {i}")
    if not all(t.window_minors):
        raise NotGeneric("sigma requires a consecutively generic tuple")
    new_vectors = list(t.vectors)
    minors = list(t.window_minors)
    for j in range(t.n // d):
        base = i + j * d
        denominator = t.window_minor(base + 1)
        numerator = fraction_det([vec(t, base)] + [vec(t, base + s) for s in range(2, t.k + 1)])
        ratio = numerator / denominator
        w = tuple(ratio * a - b for a, b in zip(vec(t, base + 1), vec(t, base)))
        new_vectors[(base - 1) % t.n] = vec(t, base + 1)
        new_vectors[base % t.n] = w
        minors[base % t.n] = t.window_minor(base) * t.window_minor(base + 2) / denominator
    return FracTuple(t.k, t.n, tuple(new_vectors), tuple(minors))


def oracle_plucker_proportional(a, b):
    """Row spaces compared by their reduced row echelon forms."""
    if a.vectors == b.vectors:
        return True
    (ra, pa), (rb, pb) = (fraction_rref([list(r) for r in zip(*t.vectors)]) for t in (a, b))
    full_a, full_b = len(pa) == a.k, len(pb) == b.k
    if not (full_a and full_b):
        return full_a == full_b
    return ra == rb


def plucker_minors(t):
    return tuple(fraction_det([t.vectors[j] for j in s]) for s in combinations(range(t.n), t.k))


def minors_proportional(a, b):
    """Proportionality of the two full Plücker vectors."""
    pa, pb = plucker_minors(a), plucker_minors(b)
    pivot = next((idx for idx, x in enumerate(pa) if x != 0), None)
    if pivot is None:
        return all(x == 0 for x in pb)
    if pb[pivot] == 0:
        return False
    ratio = pa[pivot] / pb[pivot]
    return all(x == ratio * y for x, y in zip(pa, pb))


def oracle_braid_check(t):
    """braid_property_check on the Fraction oracle, with no sigma image
    shared and Plücker vectors compared in full."""
    d = t.d

    def rho_d(x):
        for _ in range(d):
            x = oracle_twisted_shift(x)
        return x

    periodicity = {}
    for i in range(1, d):
        left = oracle_sigma(i, rho_d(t))
        right = rho_d(oracle_sigma(i, t))
        periodicity[i] = left.vectors == right.vectors
    commutation = {}
    for i in range(1, d):
        for j in range(i + 2, d):
            commutation[(i, j)] = (
                oracle_sigma(i, oracle_sigma(j, t)).vectors
                == oracle_sigma(j, oracle_sigma(i, t)).vectors
            )
    braid_tuple, braid_pluck = {}, {}
    for i in range(1, d - 1):
        j = i + 1
        left = oracle_sigma(i, oracle_sigma(j, oracle_sigma(i, t)))
        right = oracle_sigma(j, oracle_sigma(i, oracle_sigma(j, t)))
        braid_tuple[(i, j)] = left.vectors == right.vectors
        braid_pluck[(i, j)] = minors_proportional(left, right)
    return BraidCheckReport(d, periodicity, commutation, braid_tuple, braid_pluck)


def same_images(got, want):
    """A library tuple and an oracle tuple hold the same vectors and minors."""
    return got.vectors == want.vectors and got.window_minors == want.window_minors


def int_tuple(k, n, rng, bound=5, rank=None):
    """Random integer tuple, not checked for genericity; with `rank` < k all
    vectors lie in one random subspace of that dimension."""
    if rank is None:
        vecs = rng.integers(-bound, bound + 1, size=(n, k))
    else:
        vecs = rng.integers(-bound, bound + 1, size=(n, rank)) @ rng.integers(
            -bound, bound + 1, size=(rank, k)
        )
    return VectorTuple(k, n, tuple(tuple(int(x) for x in v) for v in vecs))


def gl_image(t, rng):
    """t under a random invertible integer k x k matrix: the same point."""
    while True:
        g = rng.integers(-4, 5, size=(t.k, t.k))
        if fraction_det(g.tolist()) != 0:
            break
    vecs = tuple(tuple(int(x) for x in g @ np.array(v, dtype=object)) for v in t.vectors)
    return VectorTuple(t.k, t.n, vecs)


class TestGenericity:
    def test_standard_cycled_tuple(self):
        t = frac_tuple(2, 4, [(1, 0), (0, 1), (1, 1), (1, -1)])
        assert is_consecutively_generic(t)

    def test_repeated_vector_fails(self):
        t = frac_tuple(2, 4, [(1, 0), (1, 0), (1, 1), (1, -1)])
        assert not is_consecutively_generic(t)

    def test_random_tuples_generic(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            assert is_consecutively_generic(random_tuple(3, 9, rng))

    @pytest.mark.parametrize("k, n", [(3, 2), (0, 3), (-1, 3), (3, 0)])
    def test_random_tuple_rejects_shapes_without_generic_tuples(self, k, n):
        with pytest.raises(BadParameters):
            random_tuple(k, n, np.random.default_rng(0))

    def test_random_tuple_gives_up_after_its_attempt_bound(self):
        # bound 0 draws only zero vectors, so no draw is generic
        with pytest.raises(NotGeneric, match=f"{RANDOM_TUPLE_ATTEMPTS} draws"):
            random_tuple(2, 4, np.random.default_rng(0), bound=0)

    def test_raw_integer_tuples_generic_with_high_frequency(self):
        rng = np.random.default_rng(76)
        hits = 0
        for _ in range(200):
            vecs = tuple(
                tuple(Fraction(int(x)) for x in rng.integers(-9, 10, size=3))
                for _ in range(9)
            )
            hits += is_consecutively_generic(VectorTuple(3, 9, vecs))
        assert hits > 180

    def test_window_minors_match_leibniz(self):
        # d = k, then d < k, where a window holds whole moved pairs besides the
        # one it cuts
        for k, n in [(2, 6), (3, 9), (4, 8), (4, 12), (4, 6), (6, 8), (6, 9), (4, 10)]:
            t = random_tuple(k, n, np.random.default_rng([7, k, n]))
            d = t.d
            shifted = t
            for _ in range(d):
                shifted = twisted_shift(shifted)
            images = [t, twisted_shift(t)]
            for i in range(1, d):
                once = sigma(i, t)
                # derived minors of one image feed the derived minors of the next
                images += [once, sigma(i, shifted)]
                images += [sigma(i, sigma(j, once)) for j in range(1, d) if j != i]
            for x in images:  # sigma images have Fraction entries
                want = tuple(
                    leibniz_det([vec(x, i + s) for s in range(k)]) for i in range(1, n + 1)
                )
                assert x.window_minors == want, (k, n)
                assert [x.window_minor(i) for i in range(1, n + 1)] == list(want)

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatch):
            frac_tuple(2, 3, [(1, 0), (0, 1)])

    @pytest.mark.parametrize(
        "k, n, rows", [(3, 0, []), (0, 2, [(), ()]), (3, 2, [(1, 0, 0), (0, 1, 0)])]
    )
    def test_shape_validation(self, k, n, rows):
        # an empty or overlong window used to pass construction and fail later
        with pytest.raises(BadParameters, match=f"k={k}, n={n}"):
            frac_tuple(k, n, rows)

    @pytest.mark.parametrize("k, n", [(3, 9.0), (3.0, 9), (2.5, 9), (3, "9")])
    def test_non_integer_shape_rejected(self, k, n):
        with pytest.raises(BadParameters, match="must be an integer"):
            braid.check_shape(k, n)
        with pytest.raises(BadParameters, match="must be an integer"):
            random_tuple(k, n, np.random.default_rng(0))
        with pytest.raises(BadParameters, match="must be an integer"):
            VectorTuple(k, n, ((1, 0, 0),) * 9)

    @pytest.mark.parametrize("bad", [0.5, 1.0, "1", Decimal("0.5"), np.float64(2.0)])
    def test_non_rational_entries_rejected(self, bad):
        # a float was once stored as the rational it rounds to, and a string
        # parsed by Fraction
        rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        with pytest.raises(BadParameters, match="rational numbers"):
            VectorTuple(3, 3, [(bad, 0, 0)] + rows[1:])
        with pytest.raises(BadParameters, match="rational numbers"):
            VectorTuple(3, 3, rows[:2] + [(Fraction(1, 2), 0, bad)])

    def test_rational_entry_kinds_accepted(self):
        ints = VectorTuple(2, 4, [(1, 2), (3, 4), (5, 6), (7, 9)])
        mixed = VectorTuple(
            2, 4, [(np.int64(1), Fraction(4, 2)), (3, np.int32(4)), (Fraction(5), 6), (7, 9)]
        )
        assert mixed == ints and mixed.window_minors == ints.window_minors
        halves = VectorTuple(2, 4, [(Fraction(1, 2), np.int64(1)), (3, 4), (5, 6), (7, 9)])
        assert halves.rows[0] == (1, 2) and halves.dens[0] == 2

    def test_numpy_entries_are_read_as_python_ints(self):
        # numpy int64 entries were once kept as they were, and sigma's
        # products overflowed on them
        t = random_tuple(3, 9, np.random.default_rng(87))
        rows = [tuple(10**8 * x for x in v) for v in t.rows]
        ints = VectorTuple(3, 9, rows)
        numpy = VectorTuple(3, 9, np.array(rows, dtype=np.int64))
        assert all(type(x) is int for v in numpy.rows for x in v)
        assert sigma(1, numpy) == sigma(1, ints)
        assert braid_property_check(numpy).to_json() == braid_property_check(ints).to_json()

    def test_integer_kinds_accepted(self):
        assert braid.check_shape(np.int64(3), np.uint8(9)) == (3, 9)
        got = random_tuple(np.int64(3), np.int32(9), np.random.default_rng(5))
        assert got == random_tuple(3, 9, np.random.default_rng(5))
        assert type(got.k) is int and type(got.n) is int

    def test_empty_tuple_never_reaches_the_braid_check(self):
        with pytest.raises(BadParameters):
            braid_property_check(VectorTuple(3, 0, ()))


class TestTwistedShift:
    def test_rho_n_gives_global_sign(self):
        rng = np.random.default_rng(62)
        for k, n in [(3, 9), (4, 8), (2, 6)]:
            t = random_tuple(k, n, rng)
            out = t
            for _ in range(n):
                out = twisted_shift(out)
            sign = (-1) ** (k - 1)
            expect = tuple(tuple(sign * x for x in v) for v in t.vectors)
            assert out.vectors == expect

    @pytest.mark.parametrize("k, n", [(3, 9), (4, 8), (2, 6), (6, 12)])
    def test_rho_power_is_repeated_shifts(self, k, n):
        t = random_tuple(k, n, np.random.default_rng([84, k, n]))
        shifted, oracle = t, oracle_tuple(k, n, t.vectors)
        for m in range(1, n + 1):
            shifted, oracle = twisted_shift(shifted), oracle_twisted_shift(oracle)
            got = braid._rho_power(t, m)
            assert (got.rows, got.dens) == (shifted.rows, shifted.dens), m
            assert got.window_minors == shifted.window_minors, m
            assert same_images(got, oracle), m
        # rho^n in one step is the global sign, as n single shifts are
        sign = (-1) ** (k - 1)
        assert got.vectors == tuple(tuple(sign * x for x in v) for v in t.vectors)

    def test_odd_k_identity(self):
        rng = np.random.default_rng(63)
        t = random_tuple(3, 9, rng)
        out = t
        for _ in range(9):
            out = twisted_shift(out)
        assert out.vectors == t.vectors

    def test_preserves_genericity(self):
        rng = np.random.default_rng(64)
        for _ in range(100):
            t = random_tuple(3, 6, rng)
            assert is_consecutively_generic(twisted_shift(t))


class TestSigma:
    def test_first_window_formula_39(self):
        rng = np.random.default_rng(65)
        t = random_tuple(3, 9, rng)
        out = sigma(1, t)
        num = fraction_det([vec(t, 1), vec(t, 3), vec(t, 4)])
        den = fraction_det([vec(t, 2), vec(t, 3), vec(t, 4)])
        w1 = tuple(num / den * a - b for a, b in zip(vec(t, 2), vec(t, 1)))
        assert out.vectors[0] == vec(t, 2)
        assert out.vectors[1] == w1
        assert out.vectors[2] == vec(t, 3)
        # second generator touches positions 2, 3 of each window
        out2 = sigma(2, t)
        assert out2.vectors[0] == vec(t, 1)
        assert out2.vectors[1] == vec(t, 3)

    def test_vanishing_numerator_collapses(self):
        # arrange det(v_1, v_3, v_4) = 0 while keeping the tuple generic
        rng = np.random.default_rng(66)
        while True:
            t = random_tuple(3, 9, rng)
            v1 = tuple(a + b for a, b in zip(vec(t, 3), vec(t, 4)))
            cand = VectorTuple(3, 9, (v1,) + t.vectors[1:])
            if is_consecutively_generic(cand):
                break
        out = sigma(1, cand)
        assert out.vectors[1] == tuple(-x for x in vec(cand, 1))

    def test_window_structure_preserved(self):
        rng = np.random.default_rng(67)
        t = random_tuple(4, 8, rng)
        out = sigma(1, t)
        for pos in (2, 3):  # 0-based positions outside {0, 1} in each window
            assert out.vectors[pos] == t.vectors[pos]
            assert out.vectors[pos + 4] == t.vectors[pos + 4]

    @pytest.mark.parametrize("k, n, want", [(3, 9, 3), (4, 8, 2)])
    def test_only_the_numerators_are_determinants(self, monkeypatch, k, n, want):
        t = random_tuple(k, n, np.random.default_rng([80, k, n]))
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return det(rows)

        monkeypatch.setattr(braid, "det", counting)
        sigma(1, t)
        assert len(calls) == want == n // t.d

    def test_index_range_enforced(self):
        rng = np.random.default_rng(68)
        t = random_tuple(3, 9, rng)
        with pytest.raises(BadParameters):
            sigma(3, t)
        with pytest.raises(BadParameters):
            sigma(0, t)

    @pytest.mark.parametrize("i", [1.0, "1", 1.5, None])
    def test_non_integer_index_rejected(self, i):
        # once a bare TypeError from indexing or from comparing with 1
        t = random_tuple(3, 9, np.random.default_rng(85))
        with pytest.raises(BadParameters, match="must be an integer"):
            sigma(i, t)

    def test_integer_kinds_of_index_accepted(self):
        t = random_tuple(4, 8, np.random.default_rng(86))
        assert sigma(np.int64(1), t) == sigma(1, t)
        assert sigma(np.uint8(3), t) == sigma(3, t)

    def test_rejects_degenerate_input(self):
        t = frac_tuple(2, 4, [(1, 0), (1, 0), (1, 1), (1, -1)])
        with pytest.raises(NotGeneric):
            sigma(1, t)

    def test_genericity_preserved_on_samples(self):
        rng = np.random.default_rng(69)
        for _ in range(50):
            t = random_tuple(3, 9, rng)
            assert is_consecutively_generic(sigma(1, t))
            assert is_consecutively_generic(sigma(2, t))


class TestRelations:
    def test_d_periodicity(self):
        for k, n in [(3, 9), (4, 8)]:
            for trial in range(25):
                t = random_tuple(k, n, np.random.default_rng([70, k, trial]))
                report = braid_property_check(t)
                assert all(report.periodicity.values())

    def test_distant_commutation_48(self):
        for trial in range(25):
            t = random_tuple(4, 8, np.random.default_rng([71, trial]))
            report = braid_property_check(t)
            assert report.commutation == {(1, 3): True}

    def test_braid_relation_verdicts_recorded(self):
        t = random_tuple(3, 9, np.random.default_rng(72))
        report = braid_property_check(t)
        assert set(report.braid_tuple_equal) == {(1, 2)}
        assert set(report.braid_plucker) == {(1, 2)}
        data = report.to_json()
        assert set(data) == {
            "d", "genericity_preserved", "periodicity", "commutation",
            "braid_tuple_equal", "braid_plucker",
        }

    def test_plucker_proportionality(self):
        rng = np.random.default_rng(73)
        t = random_tuple(3, 6, rng)
        scaled = VectorTuple(3, 6, tuple(tuple(3 * x for x in v) for v in t.vectors))
        assert plucker_proportional(t, scaled)
        other = random_tuple(3, 6, rng)
        assert not plucker_proportional(t, other)
        assert len(plucker_vector(t)) == 20

    def test_mixed_shapes_rejected(self):
        # a Gr(2,4) and a Gr(3,4) tuple used to compare as proportional
        a = VectorTuple(2, 4, ((1, 0), (0, 1), (1, 1), (1, 2)))
        b = VectorTuple(3, 4, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -2, 1)))
        with pytest.raises(DimensionMismatch):
            plucker_proportional(a, b)

    @pytest.mark.parametrize("k, n", [(1, 3), (2, 4), (2, 5), (3, 6), (3, 9), (4, 8)])
    def test_row_space_comparison_matches_plucker_minors(self, k, n):
        rng = np.random.default_rng([77, k, n])
        cases = []
        for _ in range(8):
            t = int_tuple(k, n, rng)
            cases.append((t, gl_image(t, rng), True))
            cases.append((t, t, True))
            cases.append((t, VectorTuple(k, n, t.vectors), True))  # equal, not identical
            cases.append((t, int_tuple(k, n, rng), False))
            # one vector scaled moves the point unless that vector is zero
            scaled = VectorTuple(k, n, (tuple(2 * x for x in t.vectors[0]),) + t.vectors[1:])
            cases.append((t, scaled, not any(t.vectors[0]) or None))
            low = int_tuple(k, n, rng, rank=k - 1)
            cases.append((low, int_tuple(k, n, rng, rank=max(k - 2, 0)), True))
            cases.append((low, t, None))  # False unless t happens to be deficient
            cases.append((t, low, None))
        for a, b, want in cases:
            got = plucker_proportional(a, b)
            assert got == minors_proportional(a, b), (a, b)
            assert got == oracle_plucker_proportional(a, b), (a, b)
            if want is not None:
                assert got == want, (a, b)

    def test_one_sigma_per_generator_and_relation(self, monkeypatch):
        # One sigma per generator and per relation step, n/d determinants per
        # sigma and none elsewhere: the benchmark's 672 sigma and 1,632 det
        # calls per round of 36 Gr(3,9) and 24 Gr(4,8) checks.
        calls = {"sigma": 0, "det": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(braid, "sigma", counting("sigma", sigma))
        monkeypatch.setattr(braid, "det", counting("det", det))
        for (k, n), want in [((3, 9), (8, 24)), ((4, 8), (16, 32))]:
            t = random_tuple(k, n, np.random.default_rng([78, k, n]))
            calls.update(sigma=0, det=0)
            braid_property_check(t)
            assert (calls["sigma"], calls["det"]) == want, (k, n)
        assert 36 * 8 + 24 * 16 == 672 and 36 * 24 + 24 * 32 == 1632

    @pytest.mark.parametrize("k, n, trials", [(3, 9, 6), (4, 8, 6), (4, 12, 2)])
    def test_reports_match_the_unshared_check(self, k, n, trials):
        for trial in range(trials):
            t = random_tuple(k, n, np.random.default_rng([79, k, n, trial]))
            want = oracle_braid_check(oracle_tuple(k, n, t.vectors))
            assert braid_property_check(t).to_json() == want.to_json()

    def test_small_gcd_rejected(self):
        t = random_tuple(2, 5, np.random.default_rng(74))
        with pytest.raises(BadParameters):
            braid_property_check(t)


SHAPES = [(2, 4), (2, 6), (3, 6), (3, 9), (4, 8)]
ENTRY = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def fraction_vectors(draw, k, n, rank):
    """n vectors of length k with Fraction entries, spanning at most `rank`
    dimensions (all of them when rank = k)."""
    if rank == k:
        return [tuple(draw(st.lists(ENTRY, min_size=k, max_size=k))) for _ in range(n)]
    basis = [draw(st.lists(ENTRY, min_size=k, max_size=k)) for _ in range(rank)]
    coeff = st.integers(-3, 3)
    return [
        tuple(sum((c * b[r] for c, b in zip(cs, basis)), Fraction(0)) for r in range(k))
        for cs in (draw(st.lists(coeff, min_size=rank, max_size=rank)) for _ in range(n))
    ]


@st.composite
def fraction_pairs(draw, k, n):
    """Two lists of n vectors, each of full or deficient rank."""
    ranks = st.sampled_from([k, k, k, k - 1])
    return draw(fraction_vectors(k, n, draw(ranks))), draw(fraction_vectors(k, n, draw(ranks)))


class TestFractionOracle:
    @pytest.mark.parametrize("k, n", SHAPES)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_int_rows_match_the_fraction_oracle(self, k, n, data):
        vecs, other = data.draw(fraction_pairs(k, n))
        t, f = VectorTuple(k, n, vecs), oracle_tuple(k, n, vecs)
        assert same_images(t, f)
        assert same_images(twisted_shift(t), oracle_twisted_shift(f))
        assert plucker_vector(t) == plucker_minors(f)
        u, g = VectorTuple(k, n, other), oracle_tuple(k, n, other)
        for a, b, x, y in [(t, u, f, g), (t, t, f, f), (u, t, g, f)]:
            assert plucker_proportional(a, b) == oracle_plucker_proportional(x, y)
            assert plucker_proportional(a, b) == minors_proportional(a, b)
        if not is_consecutively_generic(t):
            with pytest.raises(NotGeneric):
                sigma(1, t)
            return
        shifted, oracle_shifted = t, f
        for _ in range(t.d):
            shifted, oracle_shifted = twisted_shift(shifted), oracle_twisted_shift(oracle_shifted)
        for i in range(1, t.d):
            once = sigma(i, t)
            assert same_images(once, oracle_sigma(i, f))
            assert same_images(sigma(i, shifted), oracle_sigma(i, oracle_shifted))
            for j in range(1, t.d):
                if j != i:  # images of images run on derived minors
                    assert same_images(sigma(j, once), oracle_sigma(j, oracle_sigma(i, f)))
        assert braid_property_check(t).to_json() == oracle_braid_check(f).to_json()

    def test_one_canonical_form_per_vector(self):
        rng = np.random.default_rng(82)
        t = random_tuple(3, 9, rng)
        q = [int(x) for x in rng.integers(1, 7, size=9)]
        plain = [tuple(Fraction(x, m) for x in v) for v, m in zip(t.vectors, q)]
        for c in (2, 3, 12):
            scaled = [tuple(Fraction(c * int(x * m), c * m) for x in v) for v, m in zip(plain, q)]
            a, b = VectorTuple(3, 9, plain), VectorTuple(3, 9, scaled)
            assert a == b and hash(a) == hash(b)
        # ints, integral Fractions and numpy ints give one tuple
        ints = VectorTuple(3, 9, [tuple(int(x) for x in v) for v in t.vectors])
        numpy = VectorTuple(3, 9, np.array(t.vectors, dtype=np.int64))
        assert t == ints == numpy and hash(t) == hash(ints) == hash(numpy)
        # a computed image equals the tuple rebuilt from its Fraction vectors
        image = sigma(1, sigma(2, t))
        rebuilt = VectorTuple(3, 9, image.vectors)
        assert image == rebuilt and hash(image) == hash(rebuilt)
        for a, m in zip(image.rows, image.dens):
            assert m > 0 and gcd(m, *a) == 1
        # scaling one vector changes the tuple
        moved = VectorTuple(3, 9, (tuple(2 * x for x in t.vectors[0]),) + t.vectors[1:])
        assert moved != t

    def test_vectors_built_once_and_tuple_immutable(self):
        t = sigma(1, random_tuple(4, 8, np.random.default_rng(83)))
        assert t.vectors is t.vectors
        assert all(type(x) is Fraction for v in t.vectors for x in v)
        with pytest.raises(AttributeError):
            t.k = 2
