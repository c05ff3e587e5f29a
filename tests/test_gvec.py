from fractions import Fraction

import numpy as np
import pytest

from conftest import content_grid, random_tableau
from grascat import cluster, fixtures
from grascat.cluster import Quiver, Seed, explore, grassmannian_initial_seed
from grascat.einv import complex_from_gvector
from grascat.errors import (
    AlgebraMismatch,
    BadParameters,
    DimensionMismatch,
    NoIntegerSolution,
    NonUniqueSolution,
    NotAFactor,
    NotSemistandard,
)
from grascat.gvec import GVector, cone_presentation, g_vector
from grascat.tableaux import Tableau, quotient, reduce as treduce, union, union_all


def check_cone_roundtrip(t: Tableau, g: GVector) -> bool:
    """Rebuild reduce(t) from the signed label decomposition."""
    pos = union_all(
        [lab for c, lab in zip(g.coords, g.seed.labels) for _ in range(max(c, 0))], k=t.k, n=t.n
    )
    neg = union_all(
        [lab for c, lab in zip(g.coords, g.seed.labels) for _ in range(max(-c, 0))], k=t.k, n=t.n
    )
    try:
        return quotient(pos, neg) == treduce(t)
    except (DimensionMismatch, NotAFactor, NotSemistandard):
        return False


class TestContentGrid:
    def test_direct_count(self):
        t = Tableau.make(3, 6, [[1, 2], [3, 4], [5, 6]])
        grid = content_grid(t)
        assert grid.sum() == 6
        for r, v in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]:
            assert grid[r, v - 1] == 1

    def test_empty(self):
        assert Tableau.empty(3, 6).content() == (0,) * 18

    def test_union_additive(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            s = random_tableau(rng, 3, 8)
            t = random_tableau(rng, 3, 8)
            assert union(s, t).content() == tuple(
                a + b for a, b in zip(s.content(), t.content())
            )


class TestGVector:
    def test_eq41_decomposition_gr36(self, seed36):
        t = Tableau.make(3, 6, [[1, 2], [3, 4], [5, 6]])
        g = g_vector(t, seed36)
        by_label = {
            str(lab.to_subset()): c for lab, c in zip(seed36.labels, g.coords) if c
        }
        assert by_label == {"126": 1, "145": 1, "234": 1, "124": -1}

    def test_printed_vectors_gr39(self, seed39):
        data = fixtures.nonreal("gr39")
        for item in data["tableaux"] + data["braid_images"]:
            t = Tableau.make(3, 9, item["rows"])
            assert list(g_vector(t, seed39).coords) == item["g"], item["name"]

    def test_printed_vectors_gr48(self, seed48):
        data = fixtures.nonreal("gr48")
        for item in data["tableaux"] + data["braid_images"]:
            t = Tableau.make(4, 8, item["rows"])
            assert list(g_vector(t, seed48).coords) == item["g"], item["name"]

    def test_gr48_errata_entries_keep_both_vectors(self, seed48):
        # two braid-image vectors are corrected in the fixture; the signed
        # column count pins the correction (it must equal the rank, 4)
        data = fixtures.nonreal("gr48")
        errata = [x for x in data["braid_images"] if "g_as_printed" in x]
        assert len(errata) == 2
        for item in errata:
            assert item["g"] != item["g_as_printed"]
            assert sum(item["g"]) == len(item["rows"][0])
            assert sum(item["g_as_printed"]) != len(item["rows"][0])

    def test_seed_labels_are_basis_vectors(self, seed36):
        for j, label in enumerate(seed36.labels):
            g = g_vector(label, seed36)
            if treduce(label).is_empty():
                assert all(c == 0 for c in g.coords)
            else:
                assert g.coords == tuple(int(i == j) for i in range(seed36.m))

    def test_linearity_over_union(self, seed39):
        rng = np.random.default_rng(32)
        for _ in range(40):
            s = random_tableau(rng, 3, 9)
            t = random_tableau(rng, 3, 9)
            gs = np.array(g_vector(s, seed39).coords)
            gt = np.array(g_vector(t, seed39).coords)
            gu = np.array(g_vector(union(s, t), seed39).coords)
            # linear after accounting for trivial factors created by the union
            residual = gu - gs - gt
            trivial = {
                j
                for j, lab in enumerate(seed39.labels)
                if treduce(lab).is_empty()
            }
            assert all(c == 0 or j in trivial for j, c in enumerate(residual))

    def test_round_trip_reconstruction(self, seed39):
        rng = np.random.default_rng(33)
        for _ in range(60):
            t = random_tableau(rng, 3, 9)
            assert check_cone_roundtrip(t, g_vector(t, seed39))

    @pytest.mark.parametrize("bad", [0.7, Fraction(3, 2), "3"])
    def test_non_integer_coordinates_rejected(self, bad):
        # int() once truncated these to another stratum: 0.7 to 0, 3/2 to 1, "3" to 3
        seed = grassmannian_initial_seed(2, 5)
        with pytest.raises(BadParameters, match="coordinate 0"):
            GVector(seed, (bad,) * 7)
        with pytest.raises(BadParameters, match="coordinate 2"):
            GVector(seed, (1, 0, bad, 0, 0, 0, 0))
        with pytest.raises(BadParameters):
            GVector(seed, (1,) * 7).scale(bad)
        g = GVector(seed, tuple(np.arange(-3, 4)))
        assert g.coords == (-3, -2, -1, 0, 1, 2, 3) and all(type(c) is int for c in g.coords)

    def test_dimension_mismatch(self, seed36):
        with pytest.raises(DimensionMismatch):
            g_vector(Tableau.empty(3, 9), seed36)

    def test_no_integer_solution_for_custom_seed(self):
        labels = (
            Tableau.from_column((1, 3), 4),
            Tableau.from_column((2, 4), 4),
        )
        seed = Seed(Quiver(2, 1, ((0, 1),)), labels)
        with pytest.raises(NoIntegerSolution):
            g_vector(Tableau.from_column((1, 4), 4), seed)

    def test_dependent_labels_rejected(self):
        labels = (
            Tableau.from_column((1, 3), 4),
            Tableau.from_column((1, 3), 4),
        )
        seed = Seed(Quiver(2, 1, ((0, 1),)), labels)
        with pytest.raises(NonUniqueSolution):
            g_vector(Tableau.from_column((1, 3), 4), seed)

    def test_one_row_seed(self):
        # k = 1 lies outside the Grassmannian seeds (2 <= k <= n - 2), and the
        # solve is over the given seed.  Every one-row entry is a trivial
        # column, so a one-row tableau reduces to the empty one.  The 2-cycle
        # makes the unions at 0 equal: the exchange gives 2 = 12 / 1.
        labels = tuple(Tableau.make(1, 3, [row]) for row in ([1], [1, 2], [3]))
        seed = Seed(Quiver(3, 1, ((0, 1), (1, 0))), labels)
        t = Tableau.make(1, 3, [[1, 2, 2, 3]])
        solve = seed.solver.solve_integer(treduce(t).content())
        assert g_vector(t, seed).coords == tuple(solve) == (0, 0, 0)
        result = explore(seed, 3, 10)
        assert (result.seeds_seen, result.complete) == (1, True)
        assert result.variables == {v: g_vector(v, seed).coords for v in result.variables}
        assert list(result.variables) == [Tableau.empty(1, 3)]


class TestSeedOwnsItsSolver:
    """The solver and the vertex names are cached on the seed, not keyed on its labels."""

    @staticmethod
    def fresh(seed: Seed) -> Seed:
        # built by hand: a shared initial seed already holds its solver
        return Seed(seed.quiver, seed.labels)

    def test_one_solver_for_many_g_vectors(self, seed39, monkeypatch):
        built = []
        solver = cluster.ExactSolver
        monkeypatch.setattr(cluster, "ExactSolver", lambda rows: built.append(rows) or solver(rows))
        seed = self.fresh(seed39)
        tableaux = [Tableau.from_json(p["tableau"]) for p in fixtures.rigid_pairs("gr39_rank4")]
        for idx in range(100):
            g_vector(tableaux[idx % len(tableaux)], seed)
        assert len(built) == 1

    def test_g_vector_and_complex_hash_no_tableau(self, seed39, alg39, monkeypatch):
        hashed = []
        tableau_hash = Tableau.__hash__
        monkeypatch.setattr(Tableau, "__hash__", lambda t: hashed.append(t) or tableau_hash(t))
        seed = self.fresh(seed39)
        g = g_vector(Tableau.make(3, 9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]), seed)
        assert complex_from_gvector(g, alg39) == (("125", "126", "134"), ("128", "156", "167"))
        assert hashed == []

    def test_hash_is_the_dataclass_hash(self):
        for t in [Tableau.make(3, 9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]), Tableau.empty(2, 5)]:
            assert hash(t) == hash((t.k, t.n, t.rows))

    def test_labels_that_are_not_the_algebra_vertices(self, seed39, alg39):
        # the first mutable and the first frozen label change places: the
        # solve still holds, the vertex names do not match
        labels = list(seed39.labels)
        n_mut = seed39.n_mut
        labels[0], labels[n_mut] = labels[n_mut], labels[0]
        seed = Seed(seed39.quiver, tuple(labels))
        g = g_vector(Tableau.make(3, 9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]), seed)
        with pytest.raises(AlgebraMismatch, match="exactly the algebra's vertices"):
            complex_from_gvector(g, alg39)


class TestConePresentation:
    def test_gr39_nonreal_presentation(self, seed39):
        t = Tableau.make(3, 9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        g = g_vector(t, seed39)
        cp = cone_presentation(g)
        assert sorted(str(s) for s in cp.sub) == ["125", "126", "134"]
        mutable = {str(lab.to_subset()) for lab in seed39.labels[: seed39.n_mut]}
        assert sorted(str(s) for s in cp.quot if str(s) in mutable) == ["128", "156", "167"]

    def test_gr48_nonreal_presentation(self, seed48):
        t = Tableau.make(4, 8, [[1, 2], [3, 4], [5, 6], [7, 8]])
        cp = cone_presentation(g_vector(t, seed48))
        assert sorted(str(s) for s in cp.sub) == ["1236", "1245"]
        mutable = {str(lab.to_subset()) for lab in seed48.labels[: seed48.n_mut]}
        assert sorted(str(s) for s in cp.quot if str(s) in mutable) == ["1267", "1456"]

    def test_basis_vector(self, seed36):
        g = GVector(seed36, tuple(int(i == 2) for i in range(seed36.m)))
        cp = cone_presentation(g)
        assert cp.sub == () and [str(s) for s in cp.quot] == ["134"]

    def test_rank_matches_signed_count(self, seed39):
        # quotient minus sub summand counts equal the column count
        for pair in fixtures.rigid_pairs("gr39_rank4"):
            t = Tableau.from_json(pair["tableau"])
            cp = cone_presentation(g_vector(t, seed39))
            assert len(cp.quot) - len(cp.sub) == 4
