import inspect
import sys
import time
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grascat import einv, hl
from grascat.cluster import Quiver
from grascat.cmcat import KSubset, cyclic_interval, tau_two_interval
from grascat.einv import generic_e_pair_parts
from grascat.errors import BadParameters, OutOfRange
from grascat.hl import (
    apply_mutation_sequence,
    gamma_qp,
    gamma_quiver,
    gamma_vertices,
    hl_mutation_sequence,
    kernel_subset,
    kr_compatible,
    kr_compatible_gamma,
    kr_subset,
    q_ell_quiver,
    quivers_isomorphic,
    tau_kernel_subset,
)
from grascat.qpa import build_algebra

KR_GRID_53 = {
    (1, -2): (1, 2, 3, 4, 6), (2, -1): (1, 2, 3, 5, 6),
    (3, -2): (2, 3, 5, 6, 7), (4, -1): (2, 4, 5, 6, 7),
    (1, -4): (1, 2, 3, 4, 7), (2, -3): (1, 2, 3, 6, 7),
    (3, -4): (2, 3, 6, 7, 8), (4, -3): (2, 5, 6, 7, 8),
    (1, -6): (1, 2, 3, 4, 8), (2, -5): (1, 2, 3, 7, 8),
    (3, -6): (2, 3, 7, 8, 9), (4, -5): (2, 6, 7, 8, 9),
    (1, -8): (1, 2, 3, 4, 9), (2, -7): (1, 2, 3, 8, 9),
    (3, -8): (1, 2, 3, 8, 9), (4, -7): (1, 2, 7, 8, 9),
}



def kr_subset_oracle(i, m, k, ell):
    """The KR formula as displayed, with the bipartite height xi'."""
    n = k + ell + 1
    xi_prime = 0 if i % 2 == 0 else -1
    a = (i - xi_prime) // 2
    b = (i - m - 1) // 2 + k - i + 1
    elems = set(cyclic_interval(n, a, a + k - i - 1)) | set(cyclic_interval(n, b, b + i - 1))
    assert len(elems) == k
    return KSubset(n, tuple(sorted(elems)))


def kernel_params(k, ell):
    """Every (i, m, v) the kernel checks accept at (k, ell)."""
    for i, m in sum(gamma_vertices(k, -2 * ell - 2), []):
        vmax = (m + 2 * ell + (-1) ** (i + 1)) // 2
        for v in range(1, vmax + 1):
            yield i, m, v


def weakly_separated(a, b, n) -> bool:
    """Going round [n], the elements of a - b and of b - a form two arcs."""
    only_a, only_b = set(a) - set(b), set(b) - set(a)
    sides = [x in only_a for x in range(1, n + 1) if x in only_a or x in only_b]
    return sum(x != y for x, y in zip(sides, sides[1:] + sides[:1])) <= 2


def relabel(q, perm):
    """q with vertex v renamed perm[v]."""
    return Quiver(q.m, q.n_mut, tuple((perm[s], perm[t]) for s, t in q.arrows))


def cycles(*lengths):
    """Disjoint directed cycles of the given lengths, on consecutive vertices."""
    arrows, start = [], 0
    for length in lengths:
        arrows += [(start + j, start + (j + 1) % length) for j in range(length)]
        start += length
    return Quiver(start, start, tuple(arrows))


def isomorphic_oracle(q1, q2):
    """Try every bijection of the vertices."""
    target = sorted(q2.arrows)
    return q1.m == q2.m and any(
        sorted((p[s], p[t]) for s, t in q1.arrows) == target for p in permutations(range(q1.m))
    )


def directed_triangles(q):
    """Number of directed 3-cycles, parallel arrows counted once."""
    a = set(q.arrows)
    return sum((y, z) in a and (z, x) in a for x, y in a for z in range(q.m)) // 3


@st.composite
def quiver_pairs(draw):
    """A quiver with parallel arrows, and a relabelling of it that may swap two arrow targets.

    The swap keeps every out- and in-degree, so only the search can tell the two apart.
    """
    m = draw(st.integers(1, 6))
    ends = st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, max(m - 1, 1))),
                    max_size=10 if m > 1 else 0)
    arrows = [(s, (s + d) % m) for s, d in draw(ends)]
    perm = draw(st.permutations(range(m)))
    other = [(perm[s], perm[t]) for s, t in arrows]
    if len(other) >= 2 and draw(st.booleans()):
        x = draw(st.integers(0, len(other) - 1))
        y = (x + draw(st.integers(1, len(other) - 1))) % len(other)
        (s1, t1), (s2, t2) = other[x], other[y]
        if s1 != t2 and s2 != t1:
            other[x], other[y] = (s1, t2), (s2, t1)
    return Quiver(m, m, tuple(arrows)), Quiver(m, m, tuple(other))


GAMMA_58_FIGURE = [
    ((1, -2), (2, -1)), ((3, -2), (2, -1)), ((3, -2), (4, -1)),
    ((4, -1), (4, -3)), ((3, -2), (3, -4)), ((4, -3), (3, -2)),
    ((3, -4), (4, -3)), ((4, -3), (4, -5)), ((2, -3), (3, -2)),
    ((2, -3), (1, -2)), ((1, -2), (1, -4)), ((1, -4), (2, -3)),
    ((2, -5), (1, -4)), ((1, -6), (2, -5)), ((2, -7), (1, -6)),
    ((1, -8), (2, -7)), ((1, -6), (1, -8)), ((1, -4), (1, -6)),
    ((3, -4), (2, -3)), ((2, -5), (3, -4)), ((3, -6), (2, -5)),
    ((2, -7), (3, -6)), ((3, -8), (2, -7)), ((3, -6), (3, -8)),
    ((3, -4), (3, -6)), ((4, -5), (3, -4)), ((3, -6), (4, -5)),
    ((4, -7), (3, -6)), ((4, -5), (4, -7)), ((3, -8), (4, -7)),
    ((2, -5), (2, -7)), ((2, -3), (2, -5)), ((2, -1), (2, -3)),
]


class TestQuivers:
    def test_gamma_figure_58(self):
        q = gamma_quiver(5, -8)
        coords = q.coords
        got = sorted((coords[s], coords[t]) for s, t in q.arrows)
        assert got == sorted(GAMMA_58_FIGURE)
        mutable, frozen = gamma_vertices(5, -8)
        assert set(frozen) == {(1, -8), (3, -8), (2, -7), (4, -7)}
        assert len(mutable) == 12

    def test_gamma_46_truncation(self):
        q = gamma_quiver(4, -6)
        assert set(q.coords) == {
            (2, -1), (1, -2), (3, -2), (2, -3), (1, -4), (3, -4),
            (2, -5), (1, -6), (3, -6),
        }
        frozen = set(q.coords[q.n_mut:])
        assert frozen == {(2, -5), (1, -6), (3, -6)}

    def test_gamma_column_sizes_match_parity(self):
        for k, s in [(4, -7), (5, -9), (3, -6)]:
            q = gamma_quiver(k, s)
            for i in range(1, k):
                count = sum(1 for (a, _) in q.coords if a == i)
                top = -2 if i % 2 == 1 else -1
                assert count == len(range(top, s - 1, -2))

    def test_q_ell_counts(self):
        q = q_ell_quiver(5, 3)
        assert q.m == 16 and q.n_mut == 12

    def test_q_ell_single_column(self):
        q = q_ell_quiver(2, 4)
        assert q.m == 5
        assert sorted(q.arrows) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize("k,n", [(4, 8), (5, 9), (3, 9)])
    def test_q_ell_matches_grassmannian_mutable_part(self, k, n):
        # remove (0,0) and the b=k column; identify (a,b) with (b,-2a)/(b,-2a+1)
        from grascat.cluster import grassmannian_initial_seed

        ell = n - k - 1
        seed = grassmannian_initial_seed(k, n)
        q = seed.quiver

        def to_hl(a, b):
            return (b, -2 * a) if b % 2 == 1 else (b, -2 * a + 1)

        keep = [idx for idx, (a, b) in enumerate(q.coords) if (a, b) != (0, 0) and b != k]
        relabel = {idx: to_hl(*q.coords[idx]) for idx in keep}
        gr_arrows = sorted(
            (relabel[s], relabel[t])
            for s, t in q.arrows
            if s in relabel and t in relabel
        )
        hlq = q_ell_quiver(k, ell)
        hl_arrows = sorted((hlq.coords[s], hlq.coords[t]) for s, t in hlq.arrows)
        assert gr_arrows == hl_arrows

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            gamma_quiver(1, -4)
        with pytest.raises(BadParameters):
            q_ell_quiver(4, -1)

    @pytest.mark.parametrize("call", [
        lambda: gamma_vertices(3, -4.0),
        lambda: gamma_quiver(3.0, -4),
        lambda: q_ell_quiver(3, 1.5),
        lambda: hl_mutation_sequence(5.0, 3),
        lambda: kr_subset(1.5, -2, 3, 5),
        lambda: kr_subset(1, -2, 3, 5.0),
        lambda: kernel_subset(1, -2, 1.0, 3, 5),
        lambda: kr_compatible_gamma(1, -2, 1, 1.0, -2, 1, 3, 5),
    ])
    def test_non_integer_parameters_rejected(self, call):
        with pytest.raises(BadParameters, match="must be an integer"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: tau_kernel_subset(1, -2.0, 1, 3, 6), "m must be an integer, got -2.0"),
        (lambda: tau_kernel_subset(1, -2, 1, "3", 6), "k must be an integer, got '3'"),
        (lambda: apply_mutation_sequence(q_ell_quiver(4, 3), [(9, 9)]),
         r"\(9, 9\) is not a coordinate"),
        (lambda: apply_mutation_sequence(q_ell_quiver(4, 3), [5]), "5 is not a coordinate"),
    ])
    def test_bad_arguments_are_named(self, call, message):
        with pytest.raises(BadParameters, match=message):
            call()

    def test_empty_column_skipped(self):
        # at s = -1 column 1 (top level -2) has no vertex, column 2 only its frozen one
        assert gamma_vertices(3, -1) == ([], [(2, -1)])

    def test_integer_kinds_accepted(self):
        k, s, ell = np.int64(5), np.int32(-8), np.int64(3)
        assert gamma_vertices(k, s) == gamma_vertices(5, -8)
        assert gamma_quiver(k, s) == gamma_quiver(5, -8)
        assert q_ell_quiver(k, ell) == q_ell_quiver(5, 3)
        assert hl_mutation_sequence(k, ell) == hl_mutation_sequence(5, 3)
        assert kr_subset(np.int8(3), -2, k, ell) == kr_subset(3, -2, 5, 3)
        assert kernel_subset(3, -2, np.int64(2), 4, ell) == kernel_subset(3, -2, 2, 4, 3)


class TestMutationSequence:
    def test_figure_caption_sequence(self):
        seq = hl_mutation_sequence(5, 3)
        columns = [i for i, _ in seq]
        assert columns == [4, 4, 4, 3, 3, 3]

    def test_small_k_empty(self):
        assert hl_mutation_sequence(2, 5) == []
        assert hl_mutation_sequence(3, 4) == []

    @pytest.mark.parametrize("k,ell", [(4, 3), (5, 3), (3, 5)])
    def test_reaches_truncated_quiver(self, k, ell):
        q = q_ell_quiver(k, ell)
        mutated = apply_mutation_sequence(q, hl_mutation_sequence(k, ell))
        target = gamma_quiver(k, -2 * ell - 2)
        assert quivers_isomorphic(mutated.mutable_part(), target.mutable_part())

    @pytest.mark.parametrize("k", range(2, 8))
    def test_fixes_every_vertex(self, k):
        # not only isomorphic: the same arrows between the same grid points (i, m)
        for ell in range(7):
            mutated = apply_mutation_sequence(q_ell_quiver(k, ell), hl_mutation_sequence(k, ell))
            target = gamma_quiver(k, -2 * ell - 2)
            assert mutated.mutable_part().arrows == target.mutable_part().arrows
            assert mutated.mutable_part().coords == target.mutable_part().coords

    def test_isomorphism_checker_negative(self):
        assert not quivers_isomorphic(
            q_ell_quiver(4, 3).mutable_part(), q_ell_quiver(5, 2).mutable_part()
        )
        assert not quivers_isomorphic(
            q_ell_quiver(4, 3).mutable_part(),
            gamma_quiver(4, -10).mutable_part(),
        )


class TestIsomorphism:
    @pytest.mark.parametrize("q1, q2", [
        pytest.param(cycles(6), cycles(3, 3), id="six-cycle vs two three-cycles"),
        pytest.param(Quiver(3, 3, ((0, 1), (0, 2))), Quiver(3, 3, ((0, 1), (1, 2))),
                     id="fork vs path"),
        # the same arrows but for multiplicity; the degrees single out every vertex
        pytest.param(Quiver(4, 4, ((0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (3, 1), (3, 2), (3, 2))),
                     Quiver(4, 4, ((0, 1), (0, 2), (0, 2), (0, 3), (1, 2), (3, 1), (3, 1), (3, 2))),
                     id="parallel arrows counted"),
        # three sources into one sink: q2 has one vertex of out-degree 1
        pytest.param(Quiver(4, 4, ((1, 0), (2, 0), (3, 0))), Quiver(4, 4, ((0, 1), (3, 1), (3, 1))),
                     id="each vertex used once"),
        # same degrees; only q2 has parallel arrows, met as an arrow back to a matched vertex
        pytest.param(Quiver(4, 4, ((0, 1), (2, 0), (2, 1), (3, 0))),
                     Quiver(4, 4, ((0, 2), (1, 0), (1, 0), (3, 2))), id="both directions"),
    ])
    def test_hand_built_negatives(self, q1, q2):
        assert not quivers_isomorphic(q1, q2) and not isomorphic_oracle(q1, q2)
        assert quivers_isomorphic(q2, relabel(q2, list(reversed(range(q2.m)))))

    def test_relabelled_gamma(self):
        q = gamma_quiver(5, -8).mutable_part()
        perm = list(np.random.default_rng(5).permutation(q.m))
        assert quivers_isomorphic(q, relabel(q, perm))

    def test_swapped_targets_in_gamma(self):
        # 0 -> 1 and 2 -> 5 become 0 -> 5 and 2 -> 1: every degree stays, but
        # two of the twelve directed triangles break
        q = gamma_quiver(5, -8).mutable_part()
        arrows = [(0, 5) if a == (0, 1) else (2, 1) if a == (2, 5) else a for a in q.arrows]
        swapped = Quiver(q.m, q.n_mut, tuple(arrows))
        assert (directed_triangles(q), directed_triangles(swapped)) == (12, 10)
        assert not quivers_isomorphic(q, swapped)

    @pytest.mark.parametrize("q1, q2, expected", [
        (cycles(30), cycles(30), True),
        (cycles(20), cycles(10, 10), False),
        (cycles(30), cycles(15, 15), False),
    ], ids=["C30", "C20 vs two C10", "C30 vs two C15"])
    def test_relabelled_cycles_within_a_second(self, q1, q2, expected):
        # a search in an order blind to adjacency took minutes on these
        rng = np.random.default_rng(3)
        q1, q2 = relabel(q1, list(rng.permutation(q1.m))), relabel(q2, list(rng.permutation(q2.m)))
        start = time.perf_counter()
        assert quivers_isomorphic(q1, q2) is expected
        assert time.perf_counter() - start < 1.0

    def test_depth_not_bounded_by_the_stack(self):
        # 300 vertices matched one after another, with 50 frames to spare
        q = Quiver(300, 300, tuple((j, j + 1) for j in range(299)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            assert quivers_isomorphic(q, q)
        finally:
            sys.setrecursionlimit(limit)

    @settings(max_examples=300, deadline=None)
    @given(quiver_pairs())
    def test_agrees_with_every_bijection(self, pair):
        q1, q2 = pair
        assert quivers_isomorphic(q1, q2) == isomorphic_oracle(q1, q2)


class TestSubsets:
    def test_full_kr_grid(self):
        for (i, m), expected in KR_GRID_53.items():
            assert kr_subset(i, m, 5, 3).elems == expected

    def test_kr_matches_the_displayed_formula(self):
        count = 0
        for k in range(2, 9):
            for ell in range(8):
                for i, m in sum(gamma_vertices(k, -2 * ell - 2), []):
                    assert kr_subset(i, m, k, ell) == kr_subset_oracle(i, m, k, ell)
                    count += 1
        assert count == 1008

    def test_kr_distinct_on_mutable_vertices(self):
        for k, ell in [(5, 3), (3, 5), (4, 3)]:
            mutable, _ = gamma_vertices(k, -2 * ell - 2)
            labels = [kr_subset(i, m, k, ell) for i, m in mutable]
            assert len(set(labels)) == len(labels)

    def test_examples_k4(self):
        assert kr_subset(3, -2, 4, 3).elems == (2, 4, 5, 6)
        assert kr_subset(3, -6, 4, 3).elems == (2, 6, 7, 8)
        assert kernel_subset(3, -2, 2, 4, 3).elems == (3, 6, 7, 8)
        assert tau_kernel_subset(3, -2, 2, 4, 8).elems == (1, 2, 5, 8)

    def test_kernel_interval_shape(self):
        for k, ell in [(3, 5), (4, 3), (5, 3)]:
            n = k + ell + 1
            for i in range(1, k):
                top = -2 if i % 2 == 1 else -1
                for m in range(top, -2 * ell - 3, -2):
                    vmax = (m + 2 * ell + (-1) ** (i + 1)) // 2
                    for v in range(1, vmax + 1):
                        subset = kernel_subset(i, m, v, k, ell)
                        runs = subset.cyclic_intervals()
                        assert sorted(r[1] for r in runs) == sorted((k - i, i))
                        gaps = sorted(
                            ((b - (a + la - 1) - 1) % n)
                            for (a, la), (b, _) in zip(runs, runs[1:] + runs[:1])
                        )
                        assert sorted((v, n - k - v)) == gaps

    def test_kernel_entries_distinct(self):
        # the two intervals span k + v <= n entries, so no accepted label repeats one
        for k in range(2, 8):
            for ell in range(7):
                accepted = set()
                for i in range(0, k + 1):
                    for m in range(-2 * ell - 4, 3):
                        for v in range(0, ell + 3):
                            try:
                                subset = kernel_subset(i, m, v, k, ell)
                            except OutOfRange:
                                continue
                            assert subset.k == k and subset.n == k + ell + 1
                            accepted.add((i, m, v))
                assert accepted == set(kernel_params(k, ell))

    def test_kernel_v_bound(self):
        with pytest.raises(OutOfRange):
            kernel_subset(3, -2, 3, 4, 3)
        with pytest.raises(OutOfRange):
            kernel_subset(3, -2, 0, 4, 3)
        with pytest.raises(OutOfRange):
            kr_subset(3, -1, 4, 3)  # parity violation

    @pytest.mark.parametrize("i, m, v, k, n, message", [
        (0, -1, 1, 3, 9, "outside"),
        (3, -2, 1, 3, 9, "outside"),
        (1, -1, 1, 3, 9, "parity"),
        (1, -2, 0, 3, 9, "v=0 outside"),
        (1, -2, 1, 3, 3, "too small"),
        (1, -2, 2, 3, 4, "v=2 outside"),
    ])
    def test_tau_kernel_out_of_range(self, i, m, v, k, n, message):
        with pytest.raises(OutOfRange, match=message):
            tau_kernel_subset(i, m, v, k, n)

    def test_tau_kernel_needs_an_integer_n(self):
        # a float n would give float elements; the subset refuses them
        with pytest.raises(BadParameters, match="must be an integer"):
            tau_kernel_subset(1, -2, 1, 3, 9.0)

    def test_tau_needs_a_kernel(self):
        # the kernel label at (1, -2, 1) needs ell >= 2, so n >= 6 for k = 3
        with pytest.raises(OutOfRange, match="v=1 outside"):
            tau_kernel_subset(1, -2, 1, 3, 4)
        assert tau_kernel_subset(1, -2, 1, 3, 6) == tau_two_interval(kernel_subset(1, -2, 1, 3, 2))

    def test_tau_agrees_with_two_interval_translate(self):
        # the displayed formula against the closed form on the kernel's two runs
        for k in range(2, 8):
            for ell in range(7):
                for i, m, v in kernel_params(k, ell):
                    direct = tau_kernel_subset(i, m, v, k, k + ell + 1)
                    via_runs = tau_two_interval(kernel_subset(i, m, v, k, ell))
                    assert direct == via_runs, (k, ell, i, m, v)


class TestCompatibility:
    def test_variable_with_itself(self):
        assert kr_compatible(1, -2, 1, 1, -2, 1, 3, 5, samples=3, master_seed=0)

    def test_kernel_labels_are_distinct(self):
        # no two accepted (i, m, v) share a kernel label, so equal labels in
        # kr_compatible always come from equal parameters
        seen = 0
        for k in range(2, 8):
            for ell in range(1, 7):
                params = list(kernel_params(k, ell))
                labels = {kernel_subset(i, m, v, k, ell) for i, m, v in params}
                assert len(labels) == len(params), (k, ell)
                seen += len(params)
        assert seen == 735

    @pytest.mark.parametrize("k, ell", [(3, 5), (3, 3)])  # Grassmannian, then Gamma route
    def test_identical_labels_are_sampled(self, k, ell):
        # the same rank-one label twice: one sample certifies E = 0
        for i, m, v in kernel_params(k, ell):
            result = kr_compatible(v, m, i, v, m, i, k, ell, samples=3, master_seed=0)
            report = result.report
            assert result.verdict and report.value == 0 and report.certified, (i, m, v)
            assert report.samples == 1 and report.witness is not None

    def test_identical_labels_check_the_field(self):
        # identical labels take the sampled route, whose field check rejects "Q"
        with pytest.raises(BadParameters, match="field"):
            kr_compatible(1, -4, 1, 1, -4, 1, 4, 3, samples=2, field="Q")

    def test_identical_labels_check_the_sample_count(self):
        # identical labels take the sampled route, which rejects samples=0
        with pytest.raises(BadParameters, match="sample count"):
            kr_compatible(1, -4, 1, 1, -4, 1, 4, 3, samples=0)

    def test_cross_check_against_gamma_route(self):
        cases = [
            ((1, -2, 1), (2, -1, 1)),
            ((1, -2, 1), (1, -4, 1)),
            ((1, -2, 2), (2, -3, 1)),
            ((2, -1, 2), (1, -4, 1)),
            ((1, -2, 1), (2, -5, 2)),
            ((2, -1, 1), (2, -3, 2)),
        ]
        for (i1, m1, v1), (i2, m2, v2) in cases:
            via_grass = kr_compatible(
                v1, m1, i1, v2, m2, i2, 3, 5, samples=12, master_seed=0
            )
            via_gamma = kr_compatible_gamma(
                v1, m1, i1, v2, m2, i2, 3, 5, samples=12, master_seed=0
            )
            assert bool(via_grass) == bool(via_gamma), (
                (i1, m1, v1),
                (i2, m2, v2),
                via_grass.report,
                via_gamma.report,
            )

    def test_non_tame_shape_falls_back_to_gamma(self):
        # (k, ell) = (3, 3) is Gr(3, 7), which has no tame algebra
        args = (1, -2, 1, 1, -1, 2, 3, 3)
        via_kr = kr_compatible(*args, samples=4, master_seed=0)
        via_gamma = kr_compatible_gamma(*args, samples=4, master_seed=0)
        assert bool(via_kr) == bool(via_gamma)
        assert via_kr.report == via_gamma.report

    def test_crossing_kernel_pairs_meet_their_floor(self, monkeypatch):
        # every pair of generic kernels at these shapes: a crossing pair has a
        # positive E on its term-rank floor, so its report is exact, and
        # with the floor held at 0 all twelve samples give the same answer
        counts = {True: 0, False: 0}
        for k, ell in [(4, 3), (3, 4), (5, 2), (3, 3), (4, 2)]:
            for a, b in combinations(kernel_params(k, ell), 2):
                args = (a[2], a[1], a[0], b[2], b[1], b[0], k, ell)
                got = kr_compatible_gamma(*args, samples=12, master_seed=1)
                separated = weakly_separated(kernel_subset(*a, k, ell).elems,
                                             kernel_subset(*b, k, ell).elems, k + ell + 1)
                counts[separated] += 1
                assert got.report.exact and bool(got) == separated == (got.report.value == 0)
                if separated:
                    continue
                with monkeypatch.context() as patched:
                    patched.setattr(einv._Operator, "floor", property(lambda op: 0))
                    full = kr_compatible_gamma(*args, samples=12, master_seed=1)
                assert full.report.samples == 12 and got.report.samples == 1
                assert (got.verdict, got.report.value, got.report.field, got.report.witness) == (
                    full.verdict, full.report.value, full.report.field, full.report.witness)
        assert counts == {True: 102, False: 24}

    def test_gamma_algebra_built_once_per_k_s(self, monkeypatch):
        # two label pairs over the same truncation Gamma(4, -8)
        pairs = [(1, -4, 1, 1, -1, 2), (1, -2, 1, 1, -4, 1)]
        fresh = build_algebra(gamma_qp(4, -8))
        want = []
        for v1, m1, i1, v2, m2, i2 in pairs:
            parts1 = ((f"{i1},{m1 - 2 * v1}",), (f"{i1},{m1}",))
            parts2 = ((f"{i2},{m2 - 2 * v2}",), (f"{i2},{m2}",))
            want.append(generic_e_pair_parts(fresh, parts1, parts2, 4, "fp", 2))

        builds = []

        def counting_build(qp):
            builds.append(qp)
            return build_algebra(qp)

        hl._gamma_algebra_at.cache_clear()
        monkeypatch.setattr(hl, "build_algebra", counting_build)
        got = [
            kr_compatible_gamma(*pair, 4, 3, samples=4, field="fp", master_seed=2).report
            for pair in pairs
        ]
        assert len(builds) == 1
        for g, w in zip(got, want):
            assert (g.value, g.samples, g.certified, g.field) == (
                w.value, w.samples, w.certified, w.field
            )
            assert (g.witness.neg, g.witness.pos, g.witness.blocks) == (
                w.witness.neg, w.witness.pos, w.witness.blocks
            )
        hl._gamma_algebra_at.cache_clear()
