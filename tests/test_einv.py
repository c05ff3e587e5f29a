import dataclasses
import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, compose_vectors, from_table, oracle_qp, self_pairs_of_every_side
from grascat import einv, fixtures, hl, linalg, modp
from grascat.cluster import grassmannian_initial_seed, mutate_seed
from grascat.einv import (
    TwoTermComplex,
    are_compatible,
    complex_from_gvector,
    e_pair,
    ee_symmetrized,
    generic_e,
    generic_e_pair,
    generic_e_pair_parts,
    generic_e_parts,
    is_exchange_pair,
    is_real_g,
    random_complex,
)
from grascat.errors import AlgebraMismatch, BadParameters
from grascat.gvec import GVector, g_vector
from grascat.linalg import rank_int
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
    f = random_complex(alg, neg, pos, (54, 0, 0), "fp")
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
        for i in range(20):
            f = random_complex(alg39, neg, pos, (51, i, 0))
            h = random_complex(alg39, neg, pos, (51, i, 1))
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

    def test_vertex_mismatch_after_a_cached_match(self, alg39, alg48, seed39, seed36):
        # the names are cached on the seed; the check still runs for every
        # algebra, and a mismatch raises every time
        g = nonreal_g39(seed39)
        assert complex_from_gvector(g, alg39) == (("125", "126", "134"), ("128", "156", "167"))
        for _ in range(2):
            with pytest.raises(AlgebraMismatch, match="exactly the algebra's vertices"):
                complex_from_gvector(g, alg48)
        assert complex_from_gvector(g, alg39) == (("125", "126", "134"), ("128", "156", "167"))
        g36 = g_vector(seed36.labels[0], seed36)
        for _ in range(2):
            with pytest.raises(AlgebraMismatch, match="exactly the algebra's vertices"):
                complex_from_gvector(g36, alg39)

    def test_multi_column_label_is_an_algebra_mismatch(self, alg39, seed39):
        # it once leaked the label's own DimensionMismatch
        g = nonreal_g39(mutate_seed(seed39, 6))
        assert max(t.width for t in g.seed.mutable_labels()) >= 2
        for _ in range(2):
            with pytest.raises(AlgebraMismatch, match="more than one column"):
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

    def test_float_coefficient_is_rejected(self, alg39, seed39):
        with pytest.raises(BadParameters, match="0.5"):
            t1_with_first_coefficient(alg39, seed39, 0.5)

    def test_block_of_the_wrong_size_is_rejected(self, alg39, seed39):
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        f = random_complex(alg39, neg, pos, (54, 0, 0))
        key = min(f.blocks)
        for coeffs in (f.blocks[key] + (1,), f.blocks[key][:-1]):
            with pytest.raises(BadParameters, match="coefficients, expected"):
                TwoTermComplex(alg39, neg, pos, {**f.blocks, key: coeffs})

    def test_unknown_summand_is_an_algebra_mismatch(self, alg39):
        # "zzz" names no vertex; it once read as a summand with no hom
        # basis, so its complex built and certified E = 0
        neg, pos = ("zzz",), ("128",)
        calls = [
            lambda: TwoTermComplex(alg39, neg, pos, {}),
            lambda: TwoTermComplex(alg39, pos, neg, {}),
            lambda: random_complex(alg39, neg, pos, (1, 0, 0), "fp"),
            lambda: random_complex(alg39, pos, neg, (1, 0, 0), "rational"),
            lambda: generic_e_parts(alg39, neg, pos, samples=3, field="fp", master_seed=1),
            lambda: generic_e_pair_parts(alg39, (neg, pos), (pos, pos), samples=3, field="fp",
                                         master_seed=1),
        ]
        for call in calls:
            for _ in range(2):  # the layout cache keeps no answer for the shape
                with pytest.raises(AlgebraMismatch, match="'zzz'"):
                    call()

    @pytest.mark.parametrize("fld", ["rational", "fp"])
    def test_block_keys_are_checked(self, alg39, seed39, fld):
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        ones = witness(alg39, neg, pos, [[1, 1, 0], [1, 1, 1], [1, 1, 1]])
        assert e_pair(ones, ones, fld) == 3
        # numpy integers index a block as ints do
        f = TwoTermComplex(alg39, neg, pos,
                           {(np.int64(t), np.int32(s)): c for (t, s), c in ones.blocks.items()})
        assert e_pair(f, f, fld) == 3
        coeffs = ones.blocks[(0, 0)]
        rest = {key: c for key, c in ones.blocks.items() if key != (0, 0)}
        # (-3, 0) once wrapped to (0, 0) in the checks, then was dropped: E = 2
        for key in [(-3, 0), (0, -1), (5, 0), (0, 3), 0, (0,), (0, 0, 0), ("0", 0), (0.0, 0)]:
            with pytest.raises(BadParameters, match=re.escape(f"block key {key!r}")):
                TwoTermComplex(alg39, neg, pos, {**rest, key: coeffs})

    @pytest.mark.parametrize("fld", ["Q", "F_p", "", "RATIONAL"])
    def test_unknown_field_is_an_error(self, alg39, seed39, fld):
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        f = random_complex(alg39, neg, pos, (55, 0, 0))
        with pytest.raises(BadParameters, match="field"):
            e_pair(f, f, fld)
        with pytest.raises(BadParameters, match="field"):
            random_complex(alg39, neg, pos, (55, 0, 0), fld)

    def test_random_complexes_carry_ints(self, alg39, seed39):
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        for fld in ("rational", "fp"):
            f = random_complex(alg39, neg, pos, (55, 0, 0), fld)
            assert all(type(x) is int for coeffs in f.blocks.values() for x in coeffs)

    def test_symmetrized_definition(self, alg39, seed39):
        g = nonreal_g39(seed39)
        neg, pos = complex_from_gvector(g, alg39)
        for i in range(10):
            f = random_complex(alg39, neg, pos, (52, i, 0))
            h = random_complex(alg39, neg, pos, (52, i, 1))
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

    @pytest.mark.parametrize("fld", ["Q", "F_p"])
    def test_unknown_field_fails_before_sampling(self, alg39, seed39, fld, monkeypatch):
        # "Q" used to rank over F_p while the report named the field "Q"
        def no_draw(*key):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(einv, "_draw", no_draw)
        g = nonreal_g39(seed39)
        parts = complex_from_gvector(g, alg39)
        calls = [
            lambda: generic_e(g, alg39, samples=2, field=fld, master_seed=0),
            lambda: generic_e_pair(g, g, alg39, samples=2, field=fld, master_seed=0),
            lambda: generic_e_parts(alg39, *parts, samples=2, field=fld, master_seed=0),
            lambda: generic_e_pair_parts(alg39, parts, parts, samples=2, field=fld, master_seed=0),
        ]
        for call in calls:
            with pytest.raises(BadParameters, match="field"):
                call()

    def test_bad_master_seed_fails_before_sampling(self, alg39, seed39, monkeypatch):
        # a negative seed once ended in numpy's ValueError, not a GrascatError
        def no_draw(*key):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(einv, "_draw", no_draw)
        g = nonreal_g39(seed39)
        for seed in (-1, 1.0, "3"):
            with pytest.raises(BadParameters, match="master_seed"):
                generic_e(g, alg39, samples=2, master_seed=seed)
        monkeypatch.delenv("GRASCAT_SEED", raising=False)
        assert einv.resolve_master_seed(np.int64(7)) == 7 and einv.resolve_master_seed() == 0
        for raw in ("-3", "abc", "1.5"):
            monkeypatch.setenv("GRASCAT_SEED", raw)
            with pytest.raises(BadParameters, match="GRASCAT_SEED"):
                generic_e(g, alg39, samples=2)
        monkeypatch.setenv("GRASCAT_SEED", "17")
        assert einv.resolve_master_seed() == 17 and einv.resolve_master_seed(0) == 0

    @pytest.mark.parametrize("samples", [0, -2, 2.5, 1.0, "3", None])
    def test_bad_sample_count_fails_before_sampling(self, alg39, seed39, samples, monkeypatch):
        # 2.5, "3" and None once ended in a bare TypeError from range()
        def no_draw(*key):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(einv, "_draw", no_draw)
        g = nonreal_g39(seed39)
        parts = complex_from_gvector(g, alg39)
        calls = [
            lambda: generic_e(g, alg39, samples=samples, master_seed=0),
            lambda: generic_e_pair_parts(alg39, parts, parts, samples=samples, master_seed=0),
        ]
        for call in calls:
            with pytest.raises(BadParameters, match="sample count"):
                call()

    def test_integer_like_sample_count(self, alg39, seed39):
        g = nonreal_g39(seed39)
        report = generic_e(g, alg39, samples=np.int64(3), field="fp", master_seed=0)
        assert report.samples == 3 and type(report.samples) is int
        assert report == generic_e(g, alg39, samples=3, field="fp", master_seed=0)

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


# Reports of four samples at master seeds 1 and 2 over both fields, kept in
# tests/data/sampled_streams.json: two self-E strata of T1 on Gr(3,9), one
# of Gr(4,8), a rigid Gr(3,9) variable (first sample 0), and a crossing and
# a weakly separated pair of generic kernels over Gamma(4, -8).
PINNED_STREAMS = json.loads((DATA / "sampled_streams.json").read_text())
STREAM_CASES = {
    "gr39 T1 x1": lambda fixture, fld, m: generic_e(
        nonreal_g39(fixture("seed39")), fixture("alg39"), 4, fld, m),
    "gr39 T1 x2": lambda fixture, fld, m: generic_e(
        nonreal_g39(fixture("seed39")).scale(2), fixture("alg39"), 4, fld, m),
    "gr48 T1 x1": lambda fixture, fld, m: generic_e(
        g_vector(Tableau.make(4, 8, [[1, 2], [3, 4], [5, 6], [7, 8]]), fixture("seed48")),
        fixture("alg48"), 4, fld, m),
    "gr39 rigid": lambda fixture, fld, m: generic_e(
        g_vector(Tableau.from_json(fixtures.rigid_pairs("gr39_rank4")[0]["tableau"]),
                 fixture("seed39")), fixture("alg39"), 4, fld, m),
    "gamma48 crossing": lambda fixture, fld, m: hl.kr_compatible_gamma(
        1, -4, 1, 1, -1, 2, 4, 3, 4, fld, m).report,
    "gamma48 separated": lambda fixture, fld, m: hl.kr_compatible_gamma(
        1, -2, 1, 1, -4, 3, 4, 3, 4, fld, m).report,
}


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
        assert (report.value, report.samples, report.certified) == (1, 1, False)
        assert (report.witness.neg, report.witness.pos) == (("1,-6",), ("1,-4",))
        assert blocks_of(report) == {(0, 0): (904358331,)}
        # its first sample meets the floor, so sampling stops there
        assert report.lower_bound == 1 and report.exact

    @pytest.mark.parametrize("field", ["rational", "fp"])
    def test_floor_zero_stratum_draws_every_sample(self, alg39, seed39, field):
        # T1 is positive on every sample, but its floor is 0: nothing stops early
        report = generic_e(nonreal_g39(seed39), alg39, samples=4, field=field, master_seed=2)
        assert (report.value, report.samples, report.lower_bound) == (1, 4, 0)
        assert report.exact is False

    @pytest.mark.parametrize("master_seed", [1, 2])
    @pytest.mark.parametrize("field", ["fp", "rational"])
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_reports_pinned(self, request, case, field, master_seed):
        report = STREAM_CASES[case](request.getfixturevalue, field, master_seed)
        w = report.witness
        assert {
            "value": report.value, "samples": report.samples, "lower_bound": report.lower_bound,
            "neg": list(w.neg), "pos": list(w.pos),
            "blocks": [[t, s, [int(c) for c in w.blocks[(t, s)]]] for t, s in sorted(w.blocks)],
        } == PINNED_STREAMS[f"{case} {field} {master_seed}"]


def brute_matching(adjacency) -> int:
    """Largest number of columns given distinct rows, by trying every choice."""
    best = 0
    for choice in product(*[(None, *rows) for rows in adjacency]):
        taken = [i for i in choice if i is not None]
        if len(taken) == len(set(taken)):
            best = max(best, len(taken))
    return best


SUPPORTS = st.integers(1, 5).flatmap(lambda rows: st.tuples(
    st.just(rows),
    st.lists(st.lists(st.integers(0, rows - 1), unique=True).map(sorted), max_size=5),
))


def support_of(op) -> list[list[int]]:
    return [sorted({i for i, _, _ in column}) for column in op.terms]


def sample_values(alg, streams, evaluate, count, field, master_seed) -> list[int]:
    """The value of every sample of `_sampled_minimum`, drawn as it draws them."""
    return [
        evaluate(*(random_complex(alg, neg, pos, (master_seed, idx, sid), field)
                   for sid, (neg, pos) in streams.items()))
        for idx in range(count)
    ]


@pytest.fixture(scope="module")
def floor_algebras(alg39, alg48):
    return {"gr39": alg39, "gr48": alg48, "gamma38": hl._gamma_algebra_at(3, -8)}


@pytest.fixture
def floors(monkeypatch):
    """(rows, adjacency) of every maximum matching run from here on, each
    operator compiled afresh: one per term-rank floor computed."""
    calls = []
    matching_size = einv._matching_size

    def counted(rows, adjacency):
        calls.append((rows, adjacency))
        return matching_size(rows, adjacency)

    monkeypatch.setattr(einv, "_matching_size", counted)
    einv._operator.cache_clear()
    return calls


class TestTermRankFloor:
    """rows - ν, ν the maximum matching of an operator's support, bounds E below."""

    @settings(max_examples=150)
    @given(support=SUPPORTS)
    def test_matcher_agrees_with_brute_force(self, support):
        rows, adjacency = support
        assert einv._matching_size(rows, adjacency) == brute_matching(adjacency)

    @settings(max_examples=100)
    @given(support=SUPPORTS, data=st.data())
    def test_planted_term_can_only_raise_the_matching(self, support, data):
        rows, adjacency = support
        empty = [(i, j) for j, col in enumerate(adjacency) for i in range(rows) if i not in col]
        if not empty:
            return
        i, j = data.draw(st.sampled_from(empty))
        planted = [sorted({*col, i}) if c == j else col for c, col in enumerate(adjacency)]
        before = einv._matching_size(rows, adjacency)
        assert before <= einv._matching_size(rows, planted) <= before + 1

    def test_planted_term_on_an_operator_support(self, alg39, seed39):
        neg, pos = complex_from_gvector(nonreal_g39(seed39).scale(2), alg39)
        op = einv._operator(alg39, neg, pos, neg, pos)
        adjacency = support_of(op)
        before = einv._matching_size(op.rows, adjacency)
        assert op.rows - before == op.floor
        empty = [(i, j) for j, col in enumerate(adjacency) for i in range(op.rows) if i not in col]
        rng = np.random.default_rng(5)
        for k in rng.choice(len(empty), size=40, replace=False):
            i, j = empty[k]
            planted = [sorted({*col, i}) if c == j else col for c, col in enumerate(adjacency)]
            assert before <= einv._matching_size(op.rows, planted) <= before + 1

    def test_long_augmenting_paths_need_no_recursion(self):
        # column j takes rows j and j + 1, offered in the order that sends
        # each new column down the whole chain of earlier ones
        n = 3000
        adjacency = [[j + 1, j] if j + 1 < n else [j] for j in range(n)]
        assert einv._matching_size(n, adjacency) == n

    def test_rows_only_direction_has_floor_rows(self, monkeypatch):
        alg = hl._gamma_algebra_at(4, -8)
        rows_only, other = (("2,-3",), ("2,-1",)), (("1,-6",), ("1,-4",))
        op = einv._operator.__wrapped__(alg, *rows_only, *other)  # its floor not yet read
        assert (op.rows, op.cols) == (1, 0)
        monkeypatch.setattr(einv, "_matching_size", None)  # no matching is run
        assert op.floor == 1

    @settings(max_examples=40)
    @given(data=st.data(), fld=st.sampled_from(["rational", "fp"]))
    def test_floor_never_exceeds_a_sample(self, floor_algebras, data, fld):
        alg = floor_algebras[data.draw(st.sampled_from(sorted(floor_algebras)))]
        summands = st.lists(st.sampled_from(alg.vertices), max_size=3).map(tuple)
        one = (data.draw(summands), data.draw(summands))
        two = (data.draw(summands), data.draw(summands))
        master_seed = data.draw(st.integers(0, 2**16))
        count = 3
        report = generic_e_parts(alg, *one, samples=count, field=fld, master_seed=master_seed)
        values = sample_values(alg, {0: one}, lambda f: e_pair(f, f, fld), count, fld,
                               master_seed)
        floor = einv._operator(alg, *one, *one).floor
        assert report.lower_bound <= floor <= min(values)
        assert report.lower_bound == (floor if report.value else 0)
        assert report.value == min(values[:report.samples])

        first, second = sorted((one, two))
        report = generic_e_pair_parts(alg, one, two, samples=count, field=fld,
                                      master_seed=master_seed)
        values = sample_values(alg, {1: first, 2: second},
                               lambda f1, f2: ee_symmetrized(f1, f2, fld), count, fld, master_seed)
        floor = einv._operator(alg, *first, *second).floor + einv._operator(alg, *second, *first).floor
        assert report.lower_bound <= floor <= min(values)
        assert report.lower_bound == (floor if report.value else 0)
        assert report.value == min(values[:report.samples])

    def test_stops_at_the_first_sample_on_the_floor(self, alg39, seed39, monkeypatch):
        # a planted floor of 1 under T1 (E = 1 on every sample here) ends
        # the run at its first sample; its true floor, 0, leaves all five
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        full = generic_e_parts(alg39, neg, pos, samples=5, field="fp", master_seed=2)
        monkeypatch.setattr(einv._Operator, "floor", property(lambda op: 1))
        cut = generic_e_parts(alg39, neg, pos, samples=5, field="fp", master_seed=2)
        assert full.value == cut.value == 1
        assert (full.samples, full.lower_bound, cut.samples, cut.lower_bound) == (5, 0, 1, 1)
        assert cut.witness == full.witness

    def test_describe_names_a_value_on_its_floor_exact(self):
        reports = [einv.EValueReport(0, 1, "fp"), einv.EValueReport(1, 1, "fp", lower_bound=1),
                   einv.EValueReport(2, 4, "fp", lower_bound=1)]
        assert [r.describe() for r in reports] == [
            "0 (certified; 1 sample(s) over fp)", "1 (exact; 1 sample(s) over fp)",
            "2 (high-confidence estimate; 4 sample(s) over fp)",
        ]

    def test_no_floor_for_a_first_zero(self, alg39, seed39, floors):
        # a rigid gr39 variable: its first sample is 0
        report = generic_e(g_vector(seed39.labels[0], seed39), alg39, samples=5,
                           field="fp", master_seed=0)
        assert (report.value, report.samples, report.lower_bound) == (0, 1, 0)
        # a weakly separated pair of generic kernels over Gamma(4, -8)
        verdict = hl.kr_compatible_gamma(1, -2, 1, 1, -4, 3, 4, 3, samples=12, master_seed=1)
        assert verdict and verdict.report.samples == 1
        assert floors == []

    def test_floor_computed_once_per_operator(self, alg39, seed39, floors):
        # T1, positive on a floor of 0, and the Plücker pair (124, 135),
        # which meets its floor of 1 at once
        g = nonreal_g39(seed39)
        d124, d135 = (g_vector(Tableau.from_column(c, 9), seed39) for c in ((1, 2, 4), (1, 3, 5)))
        for field in ("fp", "rational", "fp"):
            assert generic_e(g, alg39, samples=3, field=field, master_seed=1).lower_bound == 0
            pair = generic_e_pair(d124, d135, alg39, samples=3, field=field, master_seed=1)
            assert (pair.value, pair.samples, pair.lower_bound) == (1, 1, 1)
        neg, pos = complex_from_gvector(g, alg39)
        first, second = sorted(complex_from_gvector(h, alg39) for h in (d124, d135))
        # one self floor and two directions a call, nine floors read: one
        # matching per operator with kept columns (the pair's have none)
        ops = [einv._operator(alg39, *key) for key in (
            (neg, pos, neg, pos), (*first, *second), (*second, *first))]
        assert [(op.floor, op.cols > 0) for op in ops] == [(0, True), (0, False), (1, False)]
        assert floors == [(ops[0].rows, support_of(ops[0]))]


def per_block_complex(algebra, neg, pos, rng, field):
    """One draw per nonzero block, in block order: the oracle of `random_complex`."""
    low, high = (-10, 11) if field == "rational" else (0, modp.PRIME)
    blocks = {}
    for t, pt in enumerate(pos):
        for s, sn in enumerate(neg):
            dim = algebra.hom_dim(sn, pt)
            if dim:
                blocks[(t, s)] = tuple(rng.integers(low, high, size=dim).tolist())
    return TwoTermComplex(algebra, neg, pos, blocks)


class TestOneDrawPerComplex:
    @pytest.mark.parametrize("field", ["rational", "fp"])
    @pytest.mark.parametrize("shape", ["gr39", "gr48", "gamma"])
    def test_matches_per_block_draws(self, request, shape, field):
        if shape == "gamma":
            alg = hl._gamma_algebra_at(4, -8)
        else:
            alg = request.getfixturevalue("alg" + shape[2:])
        vertices = list(alg.vertices)
        for master in (0, 1, 7, 2**40):
            pick = np.random.default_rng([master, 99])
            for idx in range(8):
                neg = tuple(str(v) for v in pick.choice(vertices, size=pick.integers(0, 4)))
                pos = tuple(str(v) for v in pick.choice(vertices, size=pick.integers(1, 5)))
                got = random_complex(alg, neg, pos, (master, idx, 0), field)
                per_block = np.random.default_rng([master, idx, 0])
                # built without the constructor's checks, equal to one built with them
                assert got == per_block_complex(alg, neg, pos, per_block, field)
                assert got == TwoTermComplex(alg, got.neg, got.pos, got.blocks)


STREAM_KEYS = [(0, 0, 0), (0, 5, 2), (7, 19, 1), (2**32, 0, 1), (2**40, 3, 1)]
RANGES = [(0, modp.PRIME), (-10, 11)]


class TestStreams:
    """A sample's stream gives one cached draw, with default_rng's bits."""

    @pytest.mark.parametrize("key", STREAM_KEYS)
    def test_same_bits_as_default_rng(self, key):
        for low, high in RANGES:
            for width in range(41):
                want = np.random.default_rng(list(key)).integers(low, high, size=width)
                coeffs = einv._draw(*key, low, high, width)
                assert coeffs == tuple(want.tolist()) and all(type(x) is int for x in coeffs)
                assert einv._draw(*key, low, high, width) is coeffs

    def test_repeated_calls_give_equal_independent_streams(self):
        first = einv._draw(3, 1, 2, 0, modp.PRIME, 8)
        # reading the key again, from the cache or afresh, starts the stream again
        assert einv._draw(3, 1, 2, 0, modp.PRIME, 8) == first
        einv._draw.cache_clear()
        assert einv._draw(3, 1, 2, 0, modp.PRIME, 8) == first

    @pytest.mark.parametrize("stream", [
        (1, 0), (1, 0, 0, 0), (-1, 0, 0), (0, -2, 0), (0, 0, -1), (1.5, 0, 0), (1.0, 0, 0),
        ("1", 0, 0), ([1], 0, 0), None, 5, "abc", np.random.default_rng(1),
    ])
    def test_a_stream_is_three_integers_at_least_zero(self, alg39, seed39, stream):
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        random_complex(alg39, neg, pos, (1, 0, 0), "fp")  # a cached draw equal to (1.0, 0, 0)'s
        for _ in range(2):  # the draw cache keeps nothing for a bad key
            with pytest.raises(BadParameters, match="stream must be"):
                random_complex(alg39, neg, pos, stream, "fp")
        # numpy integers name the same stream as ints do
        assert random_complex(alg39, neg, pos, (np.int64(4), np.int32(1), 0), "fp") == \
            random_complex(alg39, neg, pos, (4, 1, 0), "fp")

    def test_first_draws_pinned(self):
        assert einv._draw(0, 0, 0, 0, modp.PRIME, 4) == (
            1826701614, 1367864806, 1097657231, 579362555,
        )
        assert einv._draw(2**40, 3, 1, 0, modp.PRIME, 4) == (
            185072710, 1890875872, 843134018, 149229599,
        )

    @pytest.mark.parametrize("field", ["rational", "fp"])
    def test_draws_are_read_only_and_complexes_their_own(self, alg39, seed39, field):
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        a, b = (random_complex(alg39, neg, pos, (5, 0, 0), field) for _ in range(2))
        draw = einv._slot_vector(a, field)
        assert einv._slot_vector(b, field) is draw  # the one cached draw
        with pytest.raises(TypeError):
            draw[0] = 0
        assert a == b and a.blocks is not b.blocks
        # a vector made over the other field is kept on b alone
        other = "fp" if field == "rational" else "rational"
        einv._slot_vector(b, other)
        assert other not in a.__dict__["_slots"]


class CountingRng:
    """np.random.default_rng, recording the seed of every generator it makes."""

    def __init__(self):
        self.seeds = []
        self.made = []
        self.make = np.random.default_rng

    def __call__(self, seed=None):
        self.seeds.append(tuple(seed))
        self.made.append(self.make(seed))
        return self.made[-1]


@pytest.fixture
def counting_rng(monkeypatch):
    counter = CountingRng()
    monkeypatch.setattr(np.random, "default_rng", counter)
    einv._draw.cache_clear()
    yield counter
    # keep no draw made under the patch in the cache for later tests
    einv._draw.cache_clear()


class TestSeedWords:
    """A stream's seed is expanded into a generator once per draw (range and
    width): repeated draws read the cache."""

    @pytest.mark.parametrize("key", STREAM_KEYS)
    def test_repeated_stream_derives_no_state(self, counting_rng, key):
        want = counting_rng.make(list(key)).integers(0, modp.PRIME, size=5).tolist()
        assert list(einv._draw(*key, 0, modp.PRIME, 5)) == want
        assert counting_rng.seeds == [key]
        for _ in range(3):
            assert list(einv._draw(*key, 0, modp.PRIME, 5)) == want
        assert counting_rng.seeds == [key]
        # another width or range is another draw of the stream
        einv._draw(*key, 0, modp.PRIME, 6)
        einv._draw(*key, -10, 11, 5)
        assert counting_rng.seeds == [key] * 3

    @pytest.mark.parametrize("key", STREAM_KEYS)
    @pytest.mark.parametrize("n_words, dtype", [
        (4, np.uint32), (2, np.uint64), (8, np.uint64), (1, np.uint32), (4, "u8"), (4, None),
    ])
    def test_other_requests_go_to_the_sequence(self, counting_rng, key, n_words, dtype):
        # the stream's generator is seeded by numpy's own SeedSequence, so
        # every request to it (PCG64's four words and any other) is numpy's
        einv._draw(*key, 0, modp.PRIME, 5)
        (gen,) = counting_rng.made
        seq = gen.bit_generator.seed_seq
        assert type(seq) is np.random.SeedSequence
        args = (n_words,) if dtype is None else (n_words, dtype)
        got = seq.generate_state(*args)
        want = np.random.SeedSequence(list(key)).generate_state(*args)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_one_generator_per_distinct_key(self, counting_rng, alg39, seed39):
        g = nonreal_g39(seed39)
        reports = [generic_e(g, alg39, samples=4, field="fp", master_seed=call % 5)
                   for call in range(50)]
        assert all(r.samples == 4 for r in reports)
        # one shape, five master seeds, four samples of one stream each
        assert sorted(counting_rng.seeds) == [(m, idx, 0) for m in range(5) for idx in range(4)]


def oracle_int_blocks(h: TwoTermComplex, field: str) -> dict[tuple[int, int], list[int]]:
    """h's block coefficients as ints, keyed like h.blocks: over Q times the
    lcm of h's denominators, over F_p each numerator times its inverse
    denominator (a denominator divisible by p raises ValueError)."""
    dens = {int(x.denominator) for coeffs in h.blocks.values() for x in coeffs}
    scale = lcm(*dens)
    factor = {d: scale // d if field == "rational" else pow(d, -1, modp.PRIME) for d in dens}
    return {
        key: [int(x.numerator) * factor[x.denominator] for x in coeffs]
        for key, coeffs in h.blocks.items()
    }


def oracle_slot_vector(h: TwoTermComplex, field: str) -> list[int]:
    """The int blocks written into a zero vector at each block's start,
    blocks (t, s) with t outer and s inner; over F_p reduced into [0, p)."""
    start, width = {}, 0
    for t, tp in enumerate(h.pos):
        for s, sn in enumerate(h.neg):
            start[(t, s)], width = width, width + h.algebra.hom_dim(sn, tp)
    blocks = oracle_int_blocks(h, field)
    x = [0] * width
    for key, base in start.items():
        coeffs = blocks.get(key)
        if coeffs:
            x[base : base + len(coeffs)] = coeffs
    return [v % modp.PRIME for v in x] if field == "fp" else x


def assert_slot_vector(h: TwoTermComplex, field: str) -> list[int]:
    """Check h's slot vector, a plain tuple of Python ints, against the
    oracle, and that it is kept on h; return it."""
    want = oracle_slot_vector(h, field)
    ints = einv._slot_vector(h, field)
    assert type(ints) is tuple and ints == tuple(want) and all(type(x) is int for x in ints)
    assert einv._slot_vector(h, field) is ints
    return want


class TestSlotVector:
    @settings(max_examples=60)
    @given(data=st.data(), fld=st.sampled_from(["rational", "fp"]))
    def test_matches_the_block_oracle(self, oracle_algebras, data, fld):
        alg = oracle_algebras[data.draw(st.sampled_from(sorted(oracle_algebras)))]
        assert_slot_vector(draw_complex(data, alg, COEFFS), fld)

    def test_fractions_and_missing_blocks(self, alg39, seed39):
        # T1's (0, 2) block has no hom basis; (1, 0) and (2, 1) are left out
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        half, third, quarter = Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)
        f = witness(alg39, neg, pos, [[half, third, 0], [0, 3, 1], [1, 0, quarter]])
        # over Q the lcm of the denominators is 12
        assert assert_slot_vector(f, "rational") == [6, -8, 0, 36, 12, 12, 0, 15]
        x = assert_slot_vector(f, "fp")
        assert [x[0] * 2 % modp.PRIME, x[1] * 3 % modp.PRIME, x[7] * 4 % modp.PRIME] == [
            1, modp.PRIME - 2, 5,
        ]

    def test_ints_outside_the_field_are_reduced(self, alg39, seed39):
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        p = modp.PRIME
        f = witness(alg39, neg, pos, [[-1, p, 0], [p + 5, -p - 2, 2**70], [1, 0, -(2**64)]])
        assert assert_slot_vector(f, "fp") == [
            p - 1, 0, 5, p - 2, 2**70 % p, 1, 0, -(2**64) % p,
        ]
        # over Q they stay as they are, past int64 as Python ints
        assert assert_slot_vector(f, "rational") == [-1, p, p + 5, -p - 2, 2**70, 1, 0, -(2**64)]

    def test_denominator_divisible_by_p_is_an_error(self, alg39, seed39):
        f = t1_with_first_coefficient(alg39, seed39, Fraction(1, modp.PRIME))
        for _ in range(2):  # nothing is kept from a failed call
            with pytest.raises(ValueError):
                einv._slot_vector(f, "fp")
        assert assert_slot_vector(f, "rational")[0] == 1


class TestKeptSlotVector:
    """A sampled complex keeps its draw as its slot vector, unseen from outside."""

    @pytest.mark.parametrize("field", ["rational", "fp"])
    @pytest.mark.parametrize("shape", ["gr39", "gr48", "gamma"])
    def test_invisible(self, request, shape, field):
        if shape == "gamma":
            alg = hl._gamma_algebra_at(4, -8)
        else:
            alg = request.getfixturevalue("alg" + shape[2:])
        assert [f.name for f in dataclasses.fields(TwoTermComplex)] == [
            "algebra", "neg", "pos", "blocks",
        ]
        vertices = list(alg.vertices)
        pick = np.random.default_rng([5, 99])
        for idx in range(6):
            drawn, checked = [], []
            for _ in range(2):
                neg = tuple(str(v) for v in pick.choice(vertices, size=pick.integers(0, 4)))
                pos = tuple(str(v) for v in pick.choice(vertices, size=pick.integers(1, 5)))
                h = random_complex(alg, neg, pos, (idx, len(drawn), 0), field)
                drawn.append(h)
                checked.append(TwoTermComplex(alg, h.neg, h.pos, dict(h.blocks)))
            before = [(repr(h), dict(h.blocks)) for h in drawn]
            (f, g), (f2, g2) = drawn, checked
            for fld in ("rational", "fp"):
                for a, b, a2, b2 in ((f, g, f2, g2), (g, f, g2, f2), (f, f, f2, f2)):
                    assert e_pair(a, b, fld) == e_pair(a2, b2, fld)
                for h, h2 in zip(drawn, checked):
                    assert list(einv._slot_vector(h, fld)) == assert_slot_vector(h2, fld)
            for h, h2, (text, blocks) in zip(drawn, checked, before):
                assert h == h2 and repr(h) == repr(h2) == text
                assert h.blocks == h2.blocks == blocks


class TestListSummands:
    """Summands given as lists act as the tuples of the same names."""

    @pytest.mark.parametrize("field", ["rational", "fp"])
    def test_reports_match_the_tuple_call(self, alg39, seed39, field):
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        for args in ((["125"], ["128"]), (list(neg), list(pos))):
            got = generic_e_parts(alg39, *args, samples=3, field=field, master_seed=1)
            want = generic_e_parts(alg39, *map(tuple, args), samples=3, field=field, master_seed=1)
            assert got == want and type(got.witness.neg) is tuple
        got = generic_e_pair_parts(alg39, [list(neg), list(pos)], (["125"], ["128"]),
                                   samples=3, field=field, master_seed=1)
        want = generic_e_pair_parts(alg39, (neg, pos), (("125",), ("128",)),
                                    samples=3, field=field, master_seed=1)
        assert got == want

    def test_list_built_complexes(self, alg39, seed39):
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        f = random_complex(alg39, neg, pos, (3, 0, 0))
        listed = TwoTermComplex(alg39, list(neg), list(pos), dict(f.blocks))
        drawn = random_complex(alg39, list(neg), list(pos), (3, 0, 0))
        assert listed == drawn == f and type(listed.neg) is type(drawn.pos) is tuple
        for field in ("rational", "fp"):
            assert e_pair(listed, drawn, field) == e_pair(f, f, field)


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


# --- the sparse-Fraction assembly that e_pair replaced, kept as an oracle ----


def hom_coordinates(alg: Algebra, sources, targets) -> list[tuple[int, int, int]]:
    """(source, target, basis index) of each basis map of the Hom blocks from
    `sources` to `targets`: target outer, source inner, then the basis index."""
    return [
        (s, t, c)
        for t in range(len(targets))
        for s in range(len(sources))
        for c in range(alg.hom_dim(sources[s], targets[t]))
    ]


def oracle_homotopy_matrix(f: TwoTermComplex, g: TwoTermComplex):
    """Sparse Fraction columns of (u, v) -> g∘u + v∘f, plus the row count;
    rows and columns in `hom_coordinates` order."""
    alg = f.algebra
    start, rows = {}, 0
    for t, tp in enumerate(g.pos):
        for s, sn in enumerate(f.neg):
            start[(s, t)], rows = rows, rows + alg.hom_dim(sn, tp)
    f_blocks, g_blocks = (
        {key: {b: Fraction(x) for b, x in enumerate(coeffs) if x}
         for key, coeffs in h.blocks.items()}
        for h in (f, g)
    )
    cols = []
    for s, r, c in hom_coordinates(alg, f.neg, g.neg):
        col = {}
        for t, tp in enumerate(g.pos):
            block = g_blocks.get((t, r))
            if block:
                composed = compose_vectors(alg, f.neg[s], g.neg[r], tp, {c: 1}, block)
                col.update((start[(s, t)] + idx, x) for idx, x in composed.items())
        cols.append(col)
    for u, t, c in hom_coordinates(alg, f.pos, g.pos):
        col = {}
        for s, sn in enumerate(f.neg):
            block = f_blocks.get((u, s))
            if block:
                composed = compose_vectors(alg, sn, f.pos[u], g.pos[t], block, {c: 1})
                col.update((start[(s, t)] + idx, x) for idx, x in composed.items())
        cols.append(col)
    return rows, cols


def oracle_dense(rows: int, cols, field: str):
    """The sparse columns densified, each over Z by its own lcm, or over F_p."""
    dense = []
    for col in cols:
        column = [0] * rows
        if field == "rational":
            scale = lcm(*(x.denominator for x in col.values()))
            for r, x in col.items():
                column[r] = x.numerator * (scale // x.denominator)
        else:
            for r, x in col.items():
                column[r] = x.numerator * pow(x.denominator, -1, modp.PRIME) % modp.PRIME
        dense.append(column)
    return dense if field == "rational" else np.array(dense, dtype=np.int64).T


def oracle_e(f: TwoTermComplex, g: TwoTermComplex, field: str) -> int:
    rows, cols = oracle_homotopy_matrix(f, g)
    if rows == 0 or not cols:
        return rows
    m = oracle_dense(rows, cols, field)
    return rows - (rank_int(m) if field == "rational" else modp.rank_mod_p(m))


def kept_columns(f: TwoTermComplex, g: TwoTermComplex) -> list[int]:
    """The columns of the full map, in `hom_coordinates` order, that some
    composition term of the algebra touches, checked to number the
    operator's columns."""
    alg = f.algebra
    touched = [
        any(terms for tp in g.pos
            for (a, _), terms in alg.comp_table(f.neg[s], g.neg[r], tp).items() if a == c)
        for s, r, c in hom_coordinates(alg, f.neg, g.neg)
    ] + [
        any(terms for sn in f.neg
            for (_, b), terms in alg.comp_table(sn, f.pos[u], g.pos[t]).items() if b == c)
        for u, t, c in hom_coordinates(alg, f.pos, g.pos)
    ]
    columns = [j for j, hit in enumerate(touched) if hit]
    assert len(columns) == einv._operator(f.algebra, f.neg, f.pos, g.neg, g.pos).cols
    return columns


def assert_dropped_columns_zero(f: TwoTermComplex, g: TwoTermComplex, dense: list) -> list:
    """The oracle's columns `dense` that e_pair's operator keeps, in order,
    after checking that every column it drops is zero."""
    columns = kept_columns(f, g)
    dropped = set(range(len(dense))) - set(columns)
    assert not any(any(dense[c]) for c in dropped)
    return [dense[c] for c in columns]


def python_build(f: TwoTermComplex, g: TwoTermComplex, field: str) -> bool:
    """Whether e_pair builds the homotopy matrix of (f, g) in Python ints:
    its operator has a side of at most `_SMALL_MAX`, or an entry could
    reach 2^63."""
    op = einv._operator(f.algebra, f.neg, f.pos, g.neg, g.pos)
    top = max((abs(x) for h in (f, g) for x in einv._slot_vector(h, field)), default=0)
    return min(op.rows, op.cols) <= einv._SMALL_MAX or top * op.bound >= 2**63


def handed_rows(f: TwoTermComplex, g: TwoTermComplex, m, field: str) -> list:
    """The rows of the matrix `m` that e_pair handed a rank kernel, after
    checking its form: lists of Python ints for a Python-int build
    (`python_build`), an int64 array otherwise.  Over F_p the rows are
    returned mod p, as the kernel reads them."""
    if python_build(f, g, field):
        assert type(m) is list and all(type(r) is list for r in m)
        assert all(type(x) is int for r in m for x in r)
        rows = m
    else:
        assert isinstance(m, np.ndarray) and m.dtype == np.int64
        rows = (m.T if field == "fp" else m).tolist()  # over F_p the matrix itself
    return [[x % modp.PRIME for x in r] for r in rows] if field == "fp" else rows


def weighted_algebra(weights) -> Algebra:
    """A table algebra on vertices x, y whose structure constants cycle
    through `weights`: every product of two basis maps is a sum over the
    whole target basis, so matrix entries sum several terms."""
    dims = {("x", "x"): 2, ("x", "y"): 1, ("y", "x"): 2, ("y", "y"): 2}
    entries = {}
    for (i, j), dij in dims.items():
        for (j2, l), djl in dims.items():
            if j2 == j and (i, l) in dims:
                for a in range(dij):
                    for b in range(djl):
                        entries[(i, j, l, a, b)] = [
                            (c, weights[(a + b + c) % len(weights)]) for c in range(dims[(i, l)])
                        ]
    return from_table(("x", "y"), dims, entries)


def recording(seen: list, kernel):
    """`kernel`, appending each matrix it is handed to `seen`."""
    def recorded(m):
        seen.append(m)
        return kernel(m)
    return recorded


def complex_at_the_guard(neg, pos, above: bool):
    """(complex, operator, oracle rows, oracle columns) on (neg, pos) over a
    weighted algebra, every coefficient one constant c.  The constants are
    positive, so the largest entry of the homotopy matrix is exactly
    c * bound, and c is the largest below the int64 guard, or one past it."""
    alg = weighted_algebra((2, 3, 1))
    op = einv._operator(alg, neg, pos, neg, pos)
    c = (2**63 - 1) // op.bound + above
    f = random_complex(alg, neg, pos, (57, 0, 0))
    f = TwoTermComplex(alg, neg, pos, {key: (c,) * len(v) for key, v in f.blocks.items()})
    rows, cols = oracle_homotopy_matrix(f, f)
    dense = oracle_dense(rows, cols, "rational")
    assert (max(max(map(abs, col)) for col in dense) >= 2**63) == above
    return f, op, rows, cols


@pytest.fixture(scope="module")
def oracle_algebras(alg39, alg48):
    return {
        "gr39": alg39,
        "gr48": alg48,
        "gamma": build_algebra(oracle_qp("qp_hl_gamma")),
        "weighted": weighted_algebra((2, -3, 1)),
    }


INTEGRAL = st.one_of(st.integers(-10, 10), st.sampled_from([2**63, -(2**63)]))
# a matrix entry takes at most a few terms, so these land on both sides of
# the int64 guard max|x| * bound < 2^63
WIDE = st.integers(-(2**63), 2**63)
COEFFS = st.one_of(INTEGRAL, WIDE, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


def draw_complex(data, alg, coeffs) -> TwoTermComplex:
    summands = st.lists(st.sampled_from(alg.vertices), min_size=1, max_size=4).map(tuple)
    neg, pos = data.draw(summands), data.draw(summands)
    blocks = {}
    for t, tp in enumerate(pos):
        for s, sn in enumerate(neg):
            dim = alg.hom_dim(sn, tp)
            # a quarter of the blocks are left out, to cover missing ones
            if dim and data.draw(st.integers(0, 3)):
                blocks[(t, s)] = tuple(data.draw(st.lists(coeffs, min_size=dim, max_size=dim)))
    return TwoTermComplex(alg, neg, pos, blocks)


def draw_pair(data, algebras, coeffs):
    alg = algebras[data.draw(st.sampled_from(sorted(algebras)))]
    f = draw_complex(data, alg, coeffs)
    # half the pairs are self pairs on one stratum, as in generic_e
    g = f if data.draw(st.booleans()) else draw_complex(data, alg, coeffs)
    return f, g


@pytest.fixture
def compiles(monkeypatch):
    """Keys of the homotopy operators compiled from here on, by a fresh cache."""
    keys = []
    compile_operator = einv._operator.__wrapped__

    def counted(*key):
        keys.append(key)
        return compile_operator(*key)

    monkeypatch.setattr(einv, "_operator", lru_cache(maxsize=None)(counted))
    return keys


class TestAgainstFractionOracle:
    @settings(max_examples=80)
    @given(data=st.data(), fld=st.sampled_from(["rational", "fp"]))
    def test_e_pair_matches_oracle(self, oracle_algebras, data, fld):
        f, g = draw_pair(data, oracle_algebras, COEFFS)
        assert e_pair(f, g, fld) == oracle_e(f, g, fld)

    @pytest.mark.parametrize("fld", ["rational", "fp"])
    def test_value_depends_on_exact_ratio(self, alg39, seed39, fld):
        # on the T1 stratum the all-ones map has E = 3; halving one
        # coefficient gives 2: a wrong denominator or inverse shows here
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        ones = witness(alg39, neg, pos, [[1, 1, 0], [1, 1, 1], [1, 1, 1]])
        halved = witness(alg39, neg, pos, [[1, 1, 0], [1, 1, 1], [1, 1, Fraction(1, 2)]])
        assert e_pair(ones, ones, fld) == oracle_e(ones, ones, fld) == 3
        assert e_pair(halved, halved, fld) == oracle_e(halved, halved, fld) == 2

    @settings(max_examples=40)
    @given(data=st.data(), fld=st.sampled_from(["rational", "fp"]))
    def test_same_matrix_for_integral_blocks(self, oracle_algebras, data, fld):
        f, g = draw_pair(data, oracle_algebras, INTEGRAL)
        seen = {name: [] for name in ("rank_int", "rank_mod_p", "rank_rows_mod_p")}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(einv, "rank_int", recording(seen["rank_int"], rank_int))
            for name in ("rank_mod_p", "rank_rows_mod_p"):
                mp.setattr(modp, name, recording(seen[name], getattr(modp, name)))
            e_pair(f, g, fld)
        handed = [(name, m) for name, ms in seen.items() for m in ms]
        rows, cols = oracle_homotopy_matrix(f, g)
        if rows == 0 or not cols:
            assert handed == []
            return
        want = oracle_dense(rows, cols, fld)
        if fld == "fp":
            want = want.T.tolist()  # one list per column, as over Q
        kept = assert_dropped_columns_zero(f, g, want)
        if not kept:
            assert handed == []
        else:
            # the transpose, one row per kept column, as Python int rows for
            # a small operator and as an array otherwise, to its field's kernel
            [(name, m)] = handed
            fp_kernel = "rank_rows_mod_p" if python_build(f, g, fld) else "rank_mod_p"
            assert name == ("rank_int" if fld == "rational" else fp_kernel)
            assert handed_rows(f, g, m, fld) == kept

    @pytest.mark.parametrize("mult, shape", [(1, (8, 8)), (2, (32, 32))])
    def test_structural_zero_columns_dropped(self, alg39, seed39, mult, shape, monkeypatch):
        # T2's homotopy map has 12 (x1) and 48 (x2) columns, a third of
        # them touched by no term: zero for every complex
        t2 = g_vector(Tableau.make(3, 9, [[1, 2, 5], [3, 4, 8], [6, 7, 9]]), seed39)
        neg, pos = complex_from_gvector(t2.scale(mult), alg39)
        f = random_complex(alg39, neg, pos, (58, 0, 0))
        rows, cols = oracle_homotopy_matrix(f, f)
        assert (rows, len(cols)) == (shape[0], 3 * shape[1] // 2)
        kept = assert_dropped_columns_zero(f, f, oracle_dense(rows, cols, "rational"))
        assert len(kept) == shape[1]
        seen = []

        def recorded(m):
            seen.append(m)
            return rank_int(m)

        monkeypatch.setattr(einv, "rank_int", recorded)
        assert e_pair(f, f) == oracle_e(f, f, "rational")
        [m] = seen
        assert (len(m), len(m[0])) == shape[::-1] and handed_rows(f, f, m, "rational") == kept

    @pytest.mark.parametrize("fld", ["rational", "fp"])
    def test_large_stratum_with_fractions(self, alg39, seed39, fld):
        # g(T1) x3 gives a 72 x 72 matrix, past the size where rank_int
        # switches to the certified modular rank
        neg, pos = complex_from_gvector(nonreal_g39(seed39).scale(3), alg39)
        rng = np.random.default_rng(56)
        f = random_complex(alg39, neg, pos, (56, 0, 0), fld)
        blocks = {
            key: tuple(Fraction(int(x), int(rng.integers(1, 5))) for x in coeffs)
            for key, coeffs in f.blocks.items()
        }
        f = TwoTermComplex(alg39, neg, pos, blocks)
        assert e_pair(f, f, fld) == oracle_e(f, f, fld)

    @pytest.mark.parametrize("above", [False, True])
    def test_int64_guard_boundary(self, above, monkeypatch):
        # this operator, 18 x 46, is past `_SMALL_MAX`: below the guard it
        # is scattered into an int64 array, past it built in Python ints
        f, op, rows, cols = complex_at_the_guard(("x", "x", "x"), ("y", "x", "y", "x"), above)
        assert (op.rows, op.cols) == (18, 46) and python_build(f, f, "rational") == above
        want = oracle_dense(rows, cols, "rational")
        kept = assert_dropped_columns_zero(f, f, want)
        seen = []
        monkeypatch.setattr(einv, "rank_int", recording(seen, rank_int))
        assert e_pair(f, f) == rows - rank_int(want)
        [m] = seen
        if above:
            assert type(m) is list and all(type(x) is int for r in m for x in r)
            assert m == kept
        else:
            assert isinstance(m, np.ndarray) and m.dtype == np.int64 and m.tolist() == kept
        # over F_p the same build goes to the kernel for its form
        want = oracle_dense(rows, cols, "fp")
        kept = assert_dropped_columns_zero(f, f, want.T.tolist())
        expected = oracle_e(f, f, "fp")
        seen.clear()
        kernel = "rank_rows_mod_p" if python_build(f, f, "fp") else "rank_mod_p"
        monkeypatch.setattr(modp, kernel, recording(seen, getattr(modp, kernel)))
        assert e_pair(f, f, "fp") == expected
        [m] = seen
        assert handed_rows(f, f, m, "fp") == kept

    @pytest.mark.parametrize("fld", ["rational", "fp"])
    def test_zero_structure_constants_past_int64(self, fld):
        # every term of this 18 x 46 operator has coefficient 0, so its load
        # is 0; the guard still bounds |x| and sends 2^70 to the Python-int
        # build (an int64 scatter once raised OverflowError here)
        alg = weighted_algebra((0, 0, 0))
        neg, pos = ("x", "x", "x"), ("y", "x", "y", "x")
        f = random_complex(alg, neg, pos, (57, 0, 0))
        f = TwoTermComplex(alg, neg, pos, {key: (2**70,) * len(v) for key, v in f.blocks.items()})
        op = einv._operator(alg, neg, pos, neg, pos)
        assert (op.rows, op.cols) == (18, 46) and python_build(f, f, fld) == (fld == "rational")
        assert e_pair(f, f, fld) == oracle_e(f, f, fld) == 18

    @pytest.mark.parametrize("fld", ["rational", "fp"])
    @pytest.mark.parametrize("above", [False, True])
    def test_int64_guard_boundary_small(self, above, fld, monkeypatch):
        # the same boundary on an 8 x 24 operator, at most `_SMALL_MAX` on a
        # side: its rows are exact Python ints on both sides of 2^63
        f, op, rows, cols = complex_at_the_guard(("x", "x"), ("y", "x", "y"), above)
        assert min(op.rows, op.cols) <= einv._SMALL_MAX
        want = oracle_dense(rows, cols, fld)
        kept = assert_dropped_columns_zero(f, f, want if fld == "rational" else want.T.tolist())
        seen = []
        monkeypatch.setattr(einv, "rank_int", recording(seen, rank_int))
        monkeypatch.setattr(modp, "rank_rows_mod_p", recording(seen, modp.rank_rows_mod_p))
        assert e_pair(f, f, fld) == oracle_e(f, f, fld)
        [m] = seen
        assert handed_rows(f, f, m, fld) == kept
        if fld == "rational":
            assert (max(abs(x) for r in m for x in r) >= 2**63) == above

    @pytest.mark.parametrize("fld", ["rational", "fp"])
    def test_small_operator_builds_no_array(self, alg39, fld, monkeypatch):
        # with the operator compiled and the slot vectors kept, a small
        # operator's E-value touches no numpy function; a large one does
        class NoNumpy:
            ndarray = np.ndarray  # for isinstance checks, which build nothing

            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} was used")

        sides = set()
        for op, f in self_pairs_of_every_side(alg39, fld):
            want = e_pair(f, f, fld)
            side = min(op.rows, op.cols)
            sides.add(min(side, einv._SMALL_MAX + 1))
            with pytest.MonkeyPatch.context() as mp:
                for module in (einv, modp, linalg):
                    mp.setattr(module, "np", NoNumpy())
                if side <= einv._SMALL_MAX:
                    assert e_pair(f, f, fld) == want
                else:
                    with pytest.raises(AssertionError, match="numpy"):
                        e_pair(f, f, fld)
        assert sides == set(range(einv._SMALL_MAX + 2))

    def test_generic_e_compiles_once(self, alg39, seed39, compiles):
        # T1 is not rigid, so all five samples are drawn
        report = generic_e(nonreal_g39(seed39), alg39, samples=5, field="fp", master_seed=0)
        neg, pos = complex_from_gvector(nonreal_g39(seed39), alg39)
        assert report.samples == 5
        assert compiles == [(alg39, neg, pos, neg, pos)]

    def test_operator_cache_holds_more_than_256_shapes(self, alg39):
        # a 20 s seed-1 reachability run meets 535 distinct operators; a
        # cache of 256 compiled most of them again and again
        vertices = alg39.vertices
        shapes = [((a,), (b, c)) for a in vertices for b in vertices for c in vertices][:300]
        einv._operator.cache_clear()
        for _ in range(2):
            for neg, pos in shapes:
                einv._operator(alg39, neg, pos, neg, pos)
        assert einv._operator.cache_info().misses == len(shapes)

    def test_distinct_algebras_never_share_an_operator(self, compiles):
        # same vertex names, same Hom dimensions, different constants
        weighted, unit = weighted_algebra((2, -3, 1)), weighted_algebra((1, 1, 1))
        neg, pos = ("x", "y"), ("y", "x")
        values = []
        for alg in (weighted, unit, weighted):
            f = random_complex(alg, neg, pos, (3, 0, 0))
            values.append(e_pair(f, f))
            assert values[-1] == oracle_e(f, f, "rational")
        assert values == [0, 3, 0]
        assert [key[0] for key in compiles] == [weighted, unit]
