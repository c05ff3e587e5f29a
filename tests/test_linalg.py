from fractions import Fraction

import numpy as np
import pytest

from grascat import modp
from grascat.errors import NoIntegerSolution, NonUniqueSolution
from grascat.linalg import ExactSolver, det, rank_int, rref


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

    def test_rank_mod_p_matches_exact(self):
        rng = np.random.default_rng(202)
        for _ in range(40):
            r = int(rng.integers(0, 6))
            m = known_rank_matrix(rng, 9, 7, r)
            assert modp.rank_mod_p(m) == rank_int(m.tolist())


class TestDetRref:
    def test_det_matches_numpy(self):
        rng = np.random.default_rng(204)
        for _ in range(30):
            m = rng.integers(-5, 6, size=(4, 4))
            exact = det([[Fraction(int(x)) for x in row] for row in m])
            assert exact == round(np.linalg.det(m.astype(float)))

    def test_det_singular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert det(m) == 0

    def test_rref_pivots(self):
        m = [[Fraction(x) for x in row] for row in [[1, 2, 3], [2, 4, 7]]]
        red, pivots = rref(m)
        assert pivots == [0, 2]
        assert red[0][:2] == [Fraction(1), Fraction(2)]


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
