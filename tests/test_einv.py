from fractions import Fraction

import numpy as np
import pytest

from grascat import hl, modp
from grascat.cluster import grassmannian_initial_seed
from grascat.einv import (
    TwoTermComplex,
    are_compatible,
    complex_from_gvector,
    e_pair,
    ee_symmetrized,
    generic_e,
    generic_e_pair,
    is_exchange_pair,
    is_real_g,
    random_complex,
)
from grascat.errors import AlgebraMismatch
from grascat.gvec import GVector, g_vector
from grascat.qpa import Algebra, QuiverWithPotential, build_algebra
from grascat.tableaux import Tableau


def nonreal_g39(seed39):
    return g_vector(Tableau.make(3, 9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]), seed39)


def witness(alg, neg, pos, mat):
    blocks = {}
    for t in range(len(pos)):
        for s in range(len(neg)):
            if mat[t][s]:
                blocks[(t, s)] = (Fraction(mat[t][s]),)
    return TwoTermComplex(alg, neg, pos, blocks)


def t1_with_first_coefficient(alg, seed39, coeff):
    """A random F_p complex on the T1 stratum with one coefficient replaced."""
    neg, pos = complex_from_gvector(nonreal_g39(seed39), alg)
    f = random_complex(alg, neg, pos, np.random.default_rng(54), "fp")
    key = min(f.blocks)
    blocks = dict(f.blocks)
    blocks[key] = (coeff,) + f.blocks[key][1:]
    return TwoTermComplex(alg, neg, pos, blocks)


class TestEPair:
    def test_zero_source_complex(self, alg39):
        f = TwoTermComplex(alg39, (), ("125",), {})
        assert e_pair(f, f) == 0

    def test_remark_witnesses(self, alg39, seed39):
        g = nonreal_g39(seed39)
        neg, pos = complex_from_gvector(g, alg39)
        assert neg == ("125", "126", "134") and pos == ("128", "156", "167")
        b1 = witness(alg39, neg, pos, [[0, 1, 0], [0, 1, 1], [1, 0, 0]])
        b2 = witness(alg39, neg, pos, [[0, 1, 0], [1, 1, 0], [0, 0, 1]])
        assert e_pair(b1, b2) == 0
        assert e_pair(b2, b1) == 0
        assert ee_symmetrized(b1, b2) == 0

    def test_bounded_by_hom_dimension(self, alg39, seed39):
        g = nonreal_g39(seed39)
        neg, pos = complex_from_gvector(g, alg39)
        bound = sum(alg39.hom_dim(s, t) for s in neg for t in pos)
        rng = np.random.default_rng(51)
        for _ in range(20):
            f = random_complex(alg39, neg, pos, rng)
            h = random_complex(alg39, neg, pos, rng)
            val = e_pair(f, h)
            assert 0 <= val <= bound

    def test_algebra_mismatch(self, alg39, alg48):
        f = TwoTermComplex(alg39, (), ("125",), {})
        h = TwoTermComplex(alg48, (), ("1235",), {})
        with pytest.raises(AlgebraMismatch):
            e_pair(f, h)

    def test_seed_algebra_vertex_mismatch(self, alg39, seed36):
        g = g_vector(seed36.labels[0], seed36)
        with pytest.raises(AlgebraMismatch):
            complex_from_gvector(g, alg39)

    def test_huge_fp_coefficient_reduced_before_int64(self, alg39, seed39):
        # entries are reduced mod p as Python ints, so 2^63 neither overflows
        # nor differs from its residue
        huge = t1_with_first_coefficient(alg39, seed39, Fraction(2**63))
        reduced = t1_with_first_coefficient(alg39, seed39, Fraction(2**63 % modp.PRIME))
        assert e_pair(huge, huge, "fp") == e_pair(reduced, reduced, "fp")

    def test_fp_denominator_divisible_by_p_is_an_error(self, alg39, seed39):
        f = t1_with_first_coefficient(alg39, seed39, Fraction(1, modp.PRIME))
        with pytest.raises(ValueError):
            e_pair(f, f, "fp")

    def test_symmetrized_definition(self, alg39, seed39):
        g = nonreal_g39(seed39)
        neg, pos = complex_from_gvector(g, alg39)
        rng = np.random.default_rng(52)
        for _ in range(10):
            f = random_complex(alg39, neg, pos, rng)
            h = random_complex(alg39, neg, pos, rng)
            assert ee_symmetrized(f, h) == ee_symmetrized(h, f)
            assert ee_symmetrized(f, f) == 2 * e_pair(f, f)


class TestGenericValues:
    def test_e_of_nonreal_is_one(self, alg39, seed39):
        report = generic_e(nonreal_g39(seed39), alg39, samples=50, master_seed=0)
        assert report.value == 1 and not report.certified

    def test_certified_zero_for_seed_variable(self, alg39, seed39):
        g = g_vector(seed39.labels[0], seed39)
        report = generic_e(g, alg39, samples=5, master_seed=0)
        assert report.value == 0 and report.certified

    def test_scaled_nonreal_stays_positive(self, alg39, seed39):
        g = nonreal_g39(seed39)
        for t in (1, 2, 3):
            report = generic_e(g.scale(t), alg39, samples=10, master_seed=0)
            assert report.value >= 1

    def test_pair_of_nonreal_with_itself_is_zero(self, alg39, seed39):
        g = nonreal_g39(seed39)
        report = generic_e_pair(g, g, alg39, samples=10, master_seed=0)
        assert report.value == 0 and report.certified

    def test_listed_rank4_variables_self_compatible(self, alg39, seed39):
        from grascat import fixtures

        for pair in fixtures.rigid_pairs("gr39_rank4")[:6]:
            g = g_vector(Tableau.from_json(pair["tableau"]), seed39)
            report = generic_e_pair(g, g, alg39, samples=10, field="fp", master_seed=0)
            assert report.value == 0 and report.certified

    def test_fp_zero_witnesses_lift_to_rationals(self, alg39, seed39):
        # a full-rank homotopy matrix mod p stays full rank over the rationals,
        # so an F_p zero certificate is also an exact rational one
        from grascat import fixtures

        for pair in fixtures.rigid_pairs("gr39_rank4")[:4]:
            g = g_vector(Tableau.from_json(pair["tableau"]), seed39)
            report = generic_e(g, alg39, samples=10, field="fp", master_seed=0)
            assert report.value == 0
            assert e_pair(report.witness, report.witness, "rational") == 0

    def test_pair_symmetry_and_bound(self, alg39, seed39):
        rng = np.random.default_rng(53)
        mutables = list(range(seed39.n_mut))
        for _ in range(8):
            coords = [0] * seed39.m
            for j in rng.choice(mutables, size=3, replace=False):
                coords[j] = int(rng.integers(-1, 2))
            g = GVector(seed39, tuple(coords))
            h = GVector(seed39, tuple(int(c) for c in rng.integers(-1, 2, seed39.n_mut)) + (0,) * (seed39.m - seed39.n_mut))
            ab = generic_e_pair(g, h, alg39, samples=6, master_seed=1)
            ba = generic_e_pair(h, g, alg39, samples=6, master_seed=1)
            assert ab.value == ba.value
            self_pair = generic_e_pair(g, g, alg39, samples=6, master_seed=1)
            self_single = generic_e(g, alg39, samples=6, master_seed=1)
            assert self_pair.value <= 2 * self_single.value

    def test_fields_agree_on_fixtures(self, alg39, alg48, seed39, seed48):
        cases = [
            (nonreal_g39(seed39), alg39),
            (g_vector(Tableau.make(4, 8, [[1, 2], [3, 4], [5, 6], [7, 8]]), seed48), alg48),
        ]
        for g, alg in cases:
            rational = generic_e(g, alg, samples=10, field="rational", master_seed=0)
            modular = generic_e(g, alg, samples=10, field="fp", master_seed=0)
            assert rational.value == modular.value

    def test_deterministic_for_fixed_seed(self, alg39, seed39):
        g = nonreal_g39(seed39)
        a = generic_e(g, alg39, samples=12, master_seed=5)
        b = generic_e(g, alg39, samples=12, master_seed=5)
        assert (a.value, a.samples) == (b.value, b.samples)

    def test_sampled_minimum_monotone(self, alg39, seed39):
        g = nonreal_g39(seed39)
        values = [
            generic_e(g, alg39, samples=s, master_seed=3).value for s in (1, 5, 20)
        ]
        assert values == sorted(values, reverse=True)


def blocks_of(report):
    return {key: tuple(int(c) for c in coeffs) for key, coeffs in report.witness.blocks.items()}


class TestSampledStreams:
    """Pinned reports: the (master seed, index, stream) layout is a reproducibility contract."""

    def test_nonreal_t1_gr39(self, alg39, seed39):
        g = nonreal_g39(seed39)
        fp = generic_e(g, alg39, samples=4, field="fp", master_seed=2)
        assert (fp.value, fp.samples, fp.certified) == (1, 4, False)
        assert blocks_of(fp) == {
            (0, 0): (1798679647,), (0, 1): (561807779,), (1, 0): (234731697,),
            (1, 1): (641004849,), (1, 2): (888658062,), (2, 0): (1748536462,),
            (2, 1): (969095166,), (2, 2): (197387982,),
        }
        rational = generic_e(g, alg39, samples=4, field="rational", master_seed=2)
        assert (rational.value, rational.samples, rational.certified) == (1, 4, False)
        assert blocks_of(rational) == {
            (0, 0): (7,), (0, 1): (-5,), (1, 0): (-8,), (1, 1): (-4,), (1, 2): (-2,),
            (2, 0): (7,), (2, 1): (-1,), (2, 2): (-9,),
        }

    def test_nonreal_stratum_gr48(self, alg48, seed48):
        g = g_vector(Tableau.make(4, 8, [[1, 2], [3, 4], [5, 6], [7, 8]]), seed48)
        report = generic_e(g, alg48, samples=4, field="fp", master_seed=2)
        assert (report.value, report.samples, report.certified) == (1, 4, False)
        assert blocks_of(report) == {
            (0, 0): (1798679647,), (0, 1): (561807779,), (1, 0): (234731697,),
            (1, 1): (641004849,),
        }

    def test_gamma_pair(self):
        # labels (i, m, v) = (1, -4, 1) and (2, -1, 1) over Gamma(4, -8)
        verdict = hl.kr_compatible_gamma(1, -4, 1, 1, -1, 2, 4, 3, samples=4, field="fp",
                                         master_seed=2)
        report = verdict.report
        assert (report.value, report.samples, report.certified) == (1, 4, False)
        assert (report.witness.neg, report.witness.pos) == (("1,-6",), ("1,-4",))
        assert blocks_of(report) == {(0, 0): (904358331,)}


class TestPredicates:
    def test_nonreal_tableau_not_real(self, alg39, seed39):
        verdict = is_real_g(nonreal_g39(seed39), alg39, samples=20, master_seed=0)
        assert not verdict and verdict.conjectural

    def test_rigid_self_compatible(self, alg39, seed39):
        g = g_vector(seed39.labels[1], seed39)
        assert are_compatible(g, g, alg39, samples=5, master_seed=0)

    def test_exchange_pair_in_rank_one_model(self):
        # Gr(2,4)-style model: one mutable vertex, trivial stable algebra
        alg = build_algebra(QuiverWithPotential(("13",), (), ()))
        seed = grassmannian_initial_seed(2, 4)
        g13 = g_vector(seed.labels[0], seed)
        g24 = g_vector(Tableau.from_column((2, 4), 4), seed)
        assert g24.mutable == (-1,)
        verdict = is_exchange_pair(g13, g24, alg, samples=5, master_seed=0)
        assert verdict and verdict.report.value == 1
        assert are_compatible(g13, g13, alg, samples=5, master_seed=0)
