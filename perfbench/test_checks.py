"""The benchmark's independent checkers, on hand-worked values and on wrong
answers that they must reject.  Run with ``python3 -m pytest perfbench``."""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from grascat.braid import VectorTuple  # noqa: E402
from grascat.cluster import grassmannian_initial_seed  # noqa: E402
from grascat.linalg import det  # noqa: E402


class TestDeterminant:
    def test_hand_worked(self):
        assert checks.int_det([[2, 0], [0, 3]]) == 6
        assert checks.int_det([[1, 2], [3, 4]]) == -2
        assert checks.int_det([[2, -1, 0], [1, 3, 2], [0, 1, 4]]) == 2 * 10 + 1 * 4
        assert checks.int_det([[1, 2], [2, 4]]) == 0

    def test_wrong_answer_rejected(self):
        assert checks.int_det([[1, 2], [3, 4]]) != 2  # the sign matters

    def test_rational_rows(self):
        assert checks.rational_det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)

    def test_window_minors(self):
        # det(v1,v2), det(v2,v3), det(v3,v4), det(v4,v1) for a 2 x 4 tuple
        vecs = [(1, 0), (0, 1), (1, 1), (1, -1)]
        assert checks.window_minors(vecs, 2) == [1, -1, -2, 1]

    def test_agrees_with_library_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 3, 4):
            for _ in range(20):
                rows = rng.integers(-9, 10, size=(size, size)).tolist()
                assert checks.int_det(rows) == det([[Fraction(x) for x in r] for r in rows])


class TestContentSum:
    # Gr(3,6): T = [[1,2],[3,4],[5,6]] decomposes as 126 + 145 + 234 - 124.
    ROWS = [[1, 2], [3, 4], [5, 6]]
    LABELS = [[[1], [2], [6]], [[1], [4], [5]], [[2], [3], [4]], [[1], [2], [4]]]

    def test_hand_worked(self):
        assert checks.content(3, 6, self.ROWS) == [
            [1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1],
        ]
        assert checks.content_sum_holds(3, 6, self.ROWS, [1, 1, 1, -1], self.LABELS)

    def test_wrong_answer_rejected(self):
        assert not checks.content_sum_holds(3, 6, self.ROWS, [1, 1, 1, 1], self.LABELS)
        assert not checks.content_sum_holds(3, 6, self.ROWS, [1, 1, 0, -1], self.LABELS)


class TestClosureCounts:
    def test_hand_worked(self):
        assert checks.closure_counts(2, 4) == (2, 2)
        assert checks.closure_counts(2, 5) == (5, 5)
        assert checks.closure_counts(2, 6) == (14, 9)
        assert checks.closure_counts(3, 6) == (50, 16)
        assert checks.closure_counts(3, 7) == (833, 42)

    def test_wrong_answer_rejected(self):
        init = grassmannian_initial_seed(3, 6)
        wrong = SimpleNamespace(seeds_seen=49, complete=True, variables={},
                                variable_count=lambda: 16)
        assert workloads._closure_check(3, 6, init, wrong)
        incomplete = SimpleNamespace(seeds_seen=50, complete=False, variables={},
                                     variable_count=lambda: 16)
        assert workloads._closure_check(3, 6, init, incomplete)


class TestWeakSeparation:
    def test_hand_worked(self):
        assert checks.weakly_separated((1, 2, 3), (4, 5, 6), 6)
        assert checks.weakly_separated((1, 2, 4), (1, 2, 4), 6)
        assert checks.weakly_separated((1, 2, 6), (3, 4, 5), 6)
        assert not checks.weakly_separated((1, 3), (2, 4), 4)
        assert not checks.weakly_separated((1, 3, 5), (2, 4, 6), 6)


class TestBraidCheck:
    def tuple_39(self):
        vecs = workloads.generic_tuple(0, 3, 9, 0)
        return VectorTuple(3, 9, tuple(tuple(Fraction(x) for x in v) for v in vecs))

    def report(self, **changes):
        base = dict(d=3, genericity_preserved=True, periodicity={1: True, 2: True},
                    commutation={}, braid_tuple_equal={(1, 2): True},
                    braid_plucker={(1, 2): True})
        base.update(changes)
        return SimpleNamespace(**base)

    def test_right_answer_accepted(self):
        assert workloads._braid_check(self.tuple_39(), self.report()) == []

    def test_wrong_answers_rejected(self):
        t = self.tuple_39()
        assert workloads._braid_check(t, self.report(braid_plucker={(1, 2): False}))
        assert workloads._braid_check(t, self.report(periodicity={1: True, 2: False}))
        assert workloads._braid_check(t, self.report(commutation={(1, 3): True}))
