from itertools import combinations

import numpy as np
import pytest

from grascat.cmcat import (
    KSubset,
    Profile,
    cyclic_interval,
    cyclic_shift_profile,
    profile_balance_check,
    rim_height,
    tau_inverse_two_interval,
    tau_two_interval,
)
from grascat.errors import BadParameters, DimensionMismatch, NotTwoIntervals


def ks(n, *elems):
    return KSubset(n, tuple(elems))


class TestRims:
    def test_figure_example(self):
        h = rim_height(ks(8, 1, 4, 5, 8))
        assert h == (0, -1, 0, 1, 0, -1, 0, 1, 0)

    def test_interval_subset(self):
        h = rim_height(ks(8, 1, 2, 3, 4))
        assert h == (0, -1, -2, -3, -4, -3, -2, -1, 0)

    def test_endpoint_forced(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            elems = tuple(sorted(rng.choice(np.arange(1, 10), size=4, replace=False)))
            h = rim_height(ks(9, *elems))
            assert h[0] == 0 and h[-1] == 9 - 2 * 4  # n - 2k with k=4, n=9

    def test_descents_recover_subset(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            elems = tuple(sorted(rng.choice(np.arange(1, 10), size=3, replace=False)))
            h = rim_height(ks(9, *elems))
            descents = tuple(i for i in range(1, 10) if h[i] < h[i - 1])
            assert descents == elems


class TestCyclicIntervals:
    def test_wrapping_run(self):
        assert ks(9, 1, 7, 8, 9).cyclic_intervals() == [(7, 4)]

    def test_two_runs(self):
        assert ks(8, 3, 6, 7, 8).cyclic_intervals() == [(3, 1), (6, 3)]

    def test_shift(self):
        assert ks(9, 3, 6, 9).shift(1) == ks(9, 1, 4, 7)


class TestTau:
    def test_paper_example(self):
        assert tau_two_interval(ks(8, 3, 6, 7, 8)) == ks(8, 1, 2, 5, 8)
        assert tau_inverse_two_interval(ks(8, 1, 2, 5, 8)) == ks(8, 3, 6, 7, 8)

    def test_round_trip_exhaustive(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                for elems in combinations(range(1, n + 1), k):
                    subset = KSubset(n, elems)
                    if len(subset.cyclic_intervals()) != 2:
                        with pytest.raises(NotTwoIntervals):
                            tau_two_interval(subset)
                        with pytest.raises(NotTwoIntervals):
                            tau_inverse_two_interval(subset)
                        continue
                    image = tau_two_interval(subset)
                    assert len(image.cyclic_intervals()) == 2
                    assert tau_inverse_two_interval(image) == subset
                    assert tau_two_interval(tau_inverse_two_interval(subset)) == subset

    def test_interval_subsets_rejected(self):
        with pytest.raises(NotTwoIntervals):
            tau_two_interval(ks(8, 1, 2, 3, 4))
        with pytest.raises(NotTwoIntervals):
            tau_inverse_two_interval(ks(8, 5, 6, 7, 8))
        with pytest.raises(NotTwoIntervals):
            tau_two_interval(ks(9, 1, 4, 7))


class TestProfileBalance:
    def test_figure3_rank2_sequence(self):
        profile = Profile((ks(6, 2, 4, 6), ks(6, 1, 3, 5)))
        sub = [ks(6, 1, 2, 4)]
        quot = [ks(6, 1, 2, 6), ks(6, 1, 4, 5), ks(6, 2, 3, 4)]
        assert profile_balance_check(profile, sub, quot)

    def test_figure4_shifted_sequence(self):
        profile = Profile((ks(6, 1, 3, 5), ks(6, 2, 4, 6)))
        sub = [ks(6, 1, 4, 5)]
        quot = [ks(6, 1, 4, 5).shift(3), ks(6, 1, 2, 6).shift(3), ks(6, 2, 3, 4).shift(3)]
        assert profile_balance_check(profile, sub, quot)

    def test_perturbed_factor_fails(self):
        profile = Profile((ks(6, 2, 4, 5), ks(6, 1, 3, 5)))
        sub = [ks(6, 1, 2, 4)]
        quot = [ks(6, 1, 2, 6), ks(6, 1, 4, 5), ks(6, 2, 3, 4)]
        assert not profile_balance_check(profile, sub, quot)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            profile_balance_check(Profile((ks(6, 1, 3, 5),)), [ks(7, 1, 3, 5)], [])

    def test_empty_inputs(self):
        assert profile_balance_check(Profile(()), [], [])


class TestCyclicShift:
    def test_shift_by_n_is_identity(self):
        p = Profile((ks(9, 3, 6, 9), ks(9, 2, 5, 8), ks(9, 1, 4, 7)))
        assert cyclic_shift_profile(p, 9) == p

    def test_example_shift(self):
        p = Profile((ks(9, 3, 6, 9), ks(9, 2, 5, 8), ks(9, 1, 4, 7)))
        shifted = cyclic_shift_profile(p, 1)
        assert shifted.factors == (ks(9, 1, 4, 7), ks(9, 3, 6, 9), ks(9, 2, 5, 8))

    def test_str(self):
        assert str(Profile((ks(9, 1, 2, 6), ks(9, 4, 5, 9)))) == "126|459"
        assert str(Profile(())) == ""

    def test_inverse_shifts(self):
        p = Profile((ks(9, 1, 2, 6), ks(9, 4, 5, 9)))
        for a in range(1, 9):
            assert cyclic_shift_profile(cyclic_shift_profile(p, a), 9 - a) == p


class TestValidation:
    @pytest.mark.parametrize("n, elems", [(9, (1.0, 2, 3)), (9.0, (1, 2, 3)), (9, ("1", 2, 3))])
    def test_non_integer_parameters_rejected(self, n, elems):
        with pytest.raises(BadParameters, match="must be an integer"):
            KSubset(n, elems)

    @pytest.mark.parametrize("n, a, b, message", [
        (9, 7.0, 1, "a must be an integer, got 7.0"),
        (9.0, 7, 1, "n must be an integer, got 9.0"),
        (9, 7, "1", "b must be an integer, got '1'"),
        (0, 7, 1, "need n >= 1, got n=0"),
    ])
    def test_cyclic_interval_arguments(self, n, a, b, message):
        with pytest.raises(BadParameters, match=message):
            cyclic_interval(n, a, b)
        assert cyclic_interval(np.int64(9), np.int8(7), 1) == (1, 7, 8, 9)

    def test_integer_kinds_become_ints(self):
        subset = KSubset(np.int64(9), (np.int64(3), np.uint8(1), 2))
        assert subset == ks(9, 1, 2, 3) and str(subset) == "123"
        assert type(subset.n) is int and all(type(e) is int for e in subset.elems)

    @pytest.mark.parametrize("elems", [(1, 2, 2), (3, 1, 3)])
    def test_repeated_elements_rejected(self, elems):
        with pytest.raises(BadParameters, match="repeated"):
            KSubset(9, elems)

    @pytest.mark.parametrize("elems", [(0, 1, 2), (1, 2, 10), (-1, 5)])
    def test_elements_outside_n_rejected(self, elems):
        with pytest.raises(BadParameters, match="outside"):
            KSubset(9, elems)

    @pytest.mark.parametrize("other", [ks(8, 1, 2, 3), ks(9, 1, 2)])
    def test_profile_factors_of_mixed_shape_rejected(self, other):
        with pytest.raises(DimensionMismatch):
            Profile((ks(9, 1, 2, 3), other))
