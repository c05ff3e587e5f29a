import time
from fractions import Fraction

import pytest

from conftest import (
    check_associative,
    compose_vectors,
    from_table,
    oracle_qp,
    path_enumeration_algebra,
    projective_support,
    total_dim,
)
from grascat import hl
from grascat.errors import BadParameters, NotFiniteDimensional
from grascat.qpa import (
    Algebra,
    QuiverWithPotential,
    _integral,
    build_algebra,
    initial_qp,
    potential_relations,
    triangle_qp,
)

TABLE1_NAMES = ["125", "126", "134", "128", "156", "167"]
TABLE1 = [
    [1, 1, 0, 1, 1, 1],
    [0, 1, 0, 1, 1, 1],
    [0, 0, 1, 0, 1, 1],
    [0, 0, 0, 1, 0, 0],
    [1, 1, 0, 0, 1, 1],
    [0, 1, 0, 0, 0, 1],
]
TABLE2_NAMES = ["1236", "1245", "1267", "1456"]
TABLE2 = [
    [1, 0, 1, 1],
    [0, 1, 1, 1],
    [1, 0, 1, 0],
    [0, 1, 0, 1],
]

# composites that die in the (3,9) block despite a nonzero target Hom-space
VANISHING_39 = {
    ("125", "156", "125"), ("125", "156", "126"), ("125", "167", "126"),
    ("126", "156", "126"), ("126", "167", "126"), ("156", "125", "156"),
    ("156", "125", "167"), ("156", "126", "156"), ("156", "126", "167"),
    ("167", "126", "167"),
}


class TestPotentialRelations:
    def test_internal_arrow_two_term_relation(self):
        qp = oracle_qp("qp_gr39")
        rels = potential_relations(qp)
        assert sorted(rels["a2"]) == [(-1, ("g2", "d2")), (1, ("b1", "g1"))]

    def test_boundary_arrow_single_path(self):
        qp = oracle_qp("qp_gr39")
        rels = potential_relations(qp)
        assert rels["a1"] == [(-1, ("g1", "d1"))]
        assert rels["a5"] == [(1, ("b4", "g4"))]

    def test_arrow_outside_all_cycles(self):
        qp = QuiverWithPotential(("x", "y"), (("a", "x", "y"),), ())
        assert potential_relations(qp)["a"] == []

    def test_cycle_validation(self):
        with pytest.raises(BadParameters):
            QuiverWithPotential(
                ("x", "y"),
                (("a", "x", "y"), ("b", "x", "y")),
                ((1, ("a", "b")),),
            )

    @pytest.mark.parametrize("arrows, potential, named", [
        ((("a", "x"),), (), r"arrow \('a', 'x'\)"),
        ((5,), (), "arrow 5 "),
        ((("a", "x", "z"),), (), r"arrow \('a', 'x', 'z'\)"),
        ((("a", "x", "y"), ("b", "y", "x")), ((1,),), r"term \(1,\)"),
        ((("a", "x", "y"), ("b", "y", "x")), (1,), "term 1 "),
        ((("a", "x", "y"), ("b", "y", "x")), ((1, 5),), r"term \(1, 5\)"),
        ((("a", "x", "y"), ("b", "y", "x")), ((1, ("a", "b"), 3),), r"term \(1, \('a', 'b'\), 3\)"),
        ((("a", "x", "y"), ("b", "y", "x")), ((2, ("a", "b")),), r"term \(2, \('a', 'b'\)\)"),
    ])
    def test_malformed_arrow_or_term_is_named(self, arrows, potential, named):
        with pytest.raises(BadParameters, match=named):
            QuiverWithPotential(("x", "y"), arrows, potential)


class TestBuildAlgebra:
    def test_gr39_hom_table(self, alg39):
        assert alg39.hom_table(TABLE1_NAMES) == TABLE1

    def test_gr48_hom_table(self, alg48):
        assert alg48.hom_table(TABLE2_NAMES) == TABLE2

    def test_hom_dim_examples(self, alg39, alg48):
        assert alg39.hom_dim("125", "128") == 1
        assert alg39.hom_dim("134", "128") == 0
        assert alg48.hom_dim("1236", "1245") == 0
        assert alg48.hom_dim("1236", "1267") == 1
        for alg, names in ((alg39, TABLE1_NAMES), (alg48, TABLE2_NAMES)):
            assert all(alg.hom_dim(v, v) == 1 for v in names)
        # the central (4,8) vertex carries its potential cycle as a socle
        assert alg48.hom_dim("1256", "1256") == 2

    def test_projective_grids(self, alg39, alg48):
        assert projective_support(alg39, "134") == {"134": 1, "124": 1}
        assert projective_support(alg39, "125") == {
            "125": 1, "124": 1, "145": 1, "156": 1,
        }
        assert projective_support(alg39, "128") == {
            "128": 1, "127": 1, "126": 1, "125": 1, "124": 1,
        }
        assert projective_support(alg48, "1236") == {
            "1235": 1, "1236": 1, "1256": 1, "1267": 1,
        }
        assert projective_support(alg48, "1456") == {
            "1235": 1, "1245": 1, "1345": 1, "1236": 1, "1256": 1, "1456": 1,
        }

    def test_arrowless_quiver_is_semisimple(self):
        qp = QuiverWithPotential(("x", "y", "z"), (), ())
        alg = build_algebra(qp)
        for i in qp.vertices:
            for j in qp.vertices:
                assert alg.hom_dim(i, j) == (1 if i == j else 0)

    def test_unbounded_quotient_detected(self):
        qp = QuiverWithPotential(
            ("x", "y"), (("a", "x", "y"), ("b", "y", "x")), ()
        )
        with pytest.raises(NotFiniteDimensional):
            build_algebra(qp)

    def test_potential_term_of_length_one_rejected(self):
        # the derivative by a loop is an idempotent, of degree 0: not graded
        qp = QuiverWithPotential(("x",), (("a", "x", "x"),), ((1, ("a",)),))
        with pytest.raises(BadParameters, match="at least 2"):
            build_algebra(qp)

    def test_associativity_and_identities(self, alg39, alg48):
        assert check_associative(alg39)
        assert check_associative(alg48)
        # identity composition laws on a sample pair
        for alg, i, j in [(alg39, "125", "156"), (alg48, "1236", "1267")]:
            assert compose_vectors(alg, i, i, j, {0: 1}, {0: 1}) == {0: 1}
            assert compose_vectors(alg, i, j, j, {0: 1}, {0: 1}) == {0: 1}

    def test_grading_additive(self, alg39):
        # composition adds path lengths whenever it does not vanish
        paths = alg39.basis_paths
        for (i, j), basis_ij in paths.items():
            for (j2, l), basis_jl in paths.items():
                if j2 != j:
                    continue
                for a, (da, _) in enumerate(basis_ij):
                    for b, (db, _) in enumerate(basis_jl):
                        for idx in compose_vectors(alg39, i, j, l, {a: 1}, {b: 1}):
                            dc = paths[(i, l)][idx][0]
                            assert dc == da + db


class TestTableMode:
    def _table_algebra(self):
        dims = {}
        for r, row_name in enumerate(TABLE1_NAMES):
            for c, col_name in enumerate(TABLE1_NAMES):
                if TABLE1[r][c]:
                    dims[(row_name, col_name)] = 1
        entries = {}
        for i in TABLE1_NAMES:
            for j in TABLE1_NAMES:
                for l in TABLE1_NAMES:
                    if (
                        (i, j) in dims
                        and (j, l) in dims
                        and (i, l) in dims
                        and (i, j, l) not in VANISHING_39
                    ):
                        entries[(i, j, l, 0, 0)] = [(0, 1)]
        return from_table(TABLE1_NAMES, dims, entries)

    def test_matches_path_engine_block(self, alg39):
        table_alg = self._table_algebra()
        assert table_alg.hom_table(TABLE1_NAMES) == alg39.hom_table(TABLE1_NAMES)
        unit = ({0: 1}, {0: 1})
        for i in TABLE1_NAMES:
            for j in TABLE1_NAMES:
                for l in TABLE1_NAMES:
                    want = compose_vectors(alg39, i, j, l, *unit)
                    assert compose_vectors(table_alg, i, j, l, *unit) == want

    def test_table_mode_associative(self):
        assert check_associative(self._table_algebra())

    def test_structure_constants_must_be_integral(self):
        dims = {("x", "x"): 1}
        alg = from_table(("x",), dims, {("x", "x", "x", 0, 0): [(0, Fraction(4, 2))]})
        assert all_ints(alg) and compose_vectors(alg, "x", "x", "x", {0: 1}, {0: 1}) == {0: 2}
        with pytest.raises(BadParameters, match=r"\('x', 'x', 'x'\).*1/2"):
            _integral(("x", "x", "x"), [(0, Fraction(1, 2))])
        # rational coefficients, as `build_algebra` expands paths
        assert _integral(("x", "x", "x"), [(0, Fraction(-4, 2)), (1, Fraction(6, 2))]) == [(0, -2), (1, 3)]
        with pytest.raises(BadParameters, match=r"\('x', 'x', 'x'\).*-3/2"):
            _integral(("x", "x", "x"), [(0, Fraction(2, 2)), (1, Fraction(-3, 2))])


def all_ints(alg: Algebra) -> bool:
    return all(
        type(c) is int and type(x) is int
        for table in alg._comp.values()
        for terms in table.values()
        for c, x in terms
    )


class TestIntegerStructureConstants:
    def test_tame_algebras(self, alg39, alg48):
        assert all_ints(alg39) and all_ints(alg48)

    @staticmethod
    def doubled_qp(doubled):
        """Arrows a, d: 1 -> 2, b: 2 -> 3, c: 3 -> 1, and the potential abc + dbc
        with the cycles in `doubled` written twice."""
        cycles = [("a", "b", "c"), ("d", "b", "c")]
        return QuiverWithPotential(
            ("1", "2", "3"),
            (("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1"), ("d", "1", "2")),
            tuple((1, cycle) for cycle in cycles + [cycles[i] for i in doubled]),
        )

    def test_relation_with_a_common_factor(self):
        # the relation 2ab + 2db = 0 is reduced with scale 2, and ab = -db
        # stays integral: the algebra of abc + dbc
        alg = build_algebra(self.doubled_qp([0, 1]))
        assert all_ints(alg) and alg._comp
        want = build_algebra(self.doubled_qp([]))
        assert (alg._dims, alg._comp) == (want._dims, want._comp)

    def test_non_integral_constant_is_rejected(self):
        # 2ab + db = 0 makes ab = -db / 2, the composition of a and b
        with pytest.raises(BadParameters, match=r"\('2', '1', '3'\).*-1/2"):
            build_algebra(self.doubled_qp([0]))

    def test_gamma_algebras(self):
        algs = [build_algebra(oracle_qp("qp_hl_gamma"))]
        algs += [hl._gamma_algebra_at(k, s) for k, s in [(3, -6), (4, -8), (5, -10)]]
        for alg in algs:
            assert alg._comp and all_ints(alg)


def arrow_ends_paths(alg: Algebra, qp: QuiverWithPotential) -> dict:
    """basis_paths with every arrow id replaced by its (source, target)."""
    ends = qp.arrow_ends()
    return {
        pair: [(degree, tuple(ends[a] for a in path)) for degree, path in basis]
        for pair, basis in alg.basis_paths.items()
    }


def reversed_qp(qp: QuiverWithPotential) -> QuiverWithPotential:
    """Every arrow turned around, each potential cycle read backwards."""
    return QuiverWithPotential(
        qp.vertices,
        tuple((a, t, s) for a, s, t in qp.arrows),
        tuple((sign, cycle[::-1]) for sign, cycle in qp.potential),
    )


class TestGeneratedQuivers:
    @pytest.mark.parametrize("key, kn", [("gr39", (3, 9)), ("gr48", (4, 8))])
    def test_initial_qp_matches_hand_written_oracle(self, key, kn):
        qp, oracle = initial_qp(*kn), oracle_qp(f"qp_{key}")
        alg, want = build_algebra(qp), build_algebra(oracle)
        assert alg.vertices == want.vertices
        assert alg._dims == want._dims
        assert alg._comp == want._comp
        assert arrow_ends_paths(alg, qp) == arrow_ends_paths(want, oracle)

    def test_tame_algebras_are_generated(self, alg39, alg48):
        for alg, kn in ((alg39, (3, 9)), (alg48, (4, 8))):
            assert alg._comp == build_algebra(initial_qp(*kn))._comp

    @pytest.mark.parametrize("k, n, dim", [(2, 5, 3), (3, 6, 10), (3, 7, 21), (3, 8, 36)])
    def test_other_shapes(self, k, n, dim):
        alg = build_algebra(initial_qp(k, n))
        assert total_dim(alg) == dim
        assert check_associative(alg)

    def test_flipping_one_triangle_sign_changes_the_algebra(self, alg39):
        qp = initial_qp(3, 9)
        (sign, cycle), *rest = qp.potential
        flipped = QuiverWithPotential(qp.vertices, qp.arrows, ((-sign, cycle), *rest))
        assert build_algebra(flipped)._comp != alg39._comp

    def test_unreversed_arrows_change_the_algebra(self, alg39):
        assert build_algebra(reversed_qp(initial_qp(3, 9)))._comp != alg39._comp

    def test_triangle_qp_reads_each_cycle_from_its_least_name(self):
        calls = []

        def sign(a, b, c):
            calls.append((a, b, c))
            return -1

        qp = triangle_qp(("y", "x", "z"), [(0, 1), (1, 2), (2, 0), (2, 0)], sign)
        assert qp.arrows == (("e0", "y", "x"), ("e1", "x", "z"), ("e2", "z", "y"), ("e3", "z", "y"))
        assert qp.potential == ((-1, ("e1", "e2", "e0")), (-1, ("e1", "e3", "e0")))
        assert calls == [(1, 2, 0)]


class TestGammaFixture:
    def test_shipped_truncation_matches_generator(self):
        from grascat.hl import gamma_qp

        assert oracle_qp("qp_hl_gamma") == gamma_qp(4, -6)

    def test_truncation_algebra_finite(self):
        alg = build_algebra(oracle_qp("qp_hl_gamma"))
        assert total_dim(alg) == 45
        assert check_associative(alg)


def ordered(x):
    """x with every dict, at any depth, as the list of its items in order."""
    if isinstance(x, dict):
        return [(k, ordered(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [ordered(v) for v in x]
    return (type(x), x)


def cycle_qp(length: int) -> QuiverWithPotential:
    """One oriented cycle a0 ... a{length-1} through the vertices 0, ..., length - 1."""
    vs = tuple(str(i) for i in range(length))
    arrows = tuple((f"a{i}", vs[i], vs[(i + 1) % length]) for i in range(length))
    return QuiverWithPotential(vs, arrows, ((1, tuple(a for a, _, _ in arrows)),))


def shared_arrow_qp(sign: int) -> QuiverWithPotential:
    """The 4-cycles a b c d and a e f g through the arrow a: 1 -> 2, the second signed `sign`."""
    arrows = (("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "1"),
              ("e", "2", "5"), ("f", "5", "6"), ("g", "6", "1"))
    return QuiverWithPotential(
        tuple("123456"), arrows, ((1, ("a", "b", "c", "d")), (sign, ("a", "e", "f", "g")))
    )


def parallel_qp(doubled) -> QuiverWithPotential:
    """Arrows a, p: 1 -> 2 and b, c, d around 2 -> 3 -> 4 -> 1, and the
    potential abcd + pbcd with the cycles in `doubled` written twice."""
    cycles = [("a", "b", "c", "d"), ("p", "b", "c", "d")]
    return QuiverWithPotential(
        ("1", "2", "3", "4"),
        (("a", "1", "2"), ("p", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "1")),
        tuple((1, cycle) for cycle in cycles + [cycles[i] for i in doubled]),
    )


def crossed_qp() -> QuiverWithPotential:
    """Arrows x, y: 1 -> 2, b, c: 2 -> 3, d: 3 -> 1 and the potential xcd + ybd,
    whose relation xc + yb picks its pivot by the order of xb, xc, yb, yc."""
    return QuiverWithPotential(
        ("1", "2", "3"),
        (("x", "1", "2"), ("y", "1", "2"), ("b", "2", "3"), ("c", "2", "3"), ("d", "3", "1")),
        ((1, ("x", "c", "d")), (1, ("y", "b", "d"))),
    )


def detour_qp() -> QuiverWithPotential:
    """Arrows p: u -> v, p2: v -> u, q: v -> w and r, s, t along u -> z -> y -> w,
    and the potential p p2: the pair (u, w) is joined at degree 2 by pq = 0
    alone, and gets its basis path at degree 3."""
    arrows = (("p", "u", "v"), ("p2", "v", "u"), ("q", "v", "w"),
              ("r", "u", "z"), ("s", "z", "y"), ("t", "y", "w"))
    return QuiverWithPotential(tuple("uvwyz"), arrows, ((1, ("p", "p2")),))


ORACLE_SHAPES = (
    [(f"gr{k}{n}", lambda k=k, n=n: initial_qp(k, n)) for n in range(4, 10) for k in range(2, n - 1)]
    + [(f"gamma{k},{s}", lambda k=k, s=s: hl.gamma_qp(k, s)) for k in range(2, 6) for s in range(-1, -9, -1)]
    + [(name, lambda name=name: oracle_qp(name)) for name in ("qp_gr39", "qp_gr48", "qp_hl_gamma")]
    + [(f"doubled{d}", lambda d=d: TestIntegerStructureConstants.doubled_qp(d))
       for d in ([], [0], [1], [0, 1])]
    + [(f"cycle{length}", lambda length=length: cycle_qp(length)) for length in range(2, 7)]
    + [(f"shared{sign:+d}", lambda sign=sign: shared_arrow_qp(sign)) for sign in (1, -1)]
    + [(f"parallel{d}", lambda d=d: parallel_qp(d)) for d in ([], [0], [1], [0, 1])]
    + [("crossed", crossed_qp), ("detour", detour_qp)]
)


class TestNormalWords:
    """`build_algebra` against the path-enumeration oracle it replaced."""

    @pytest.mark.parametrize("make", [m for _, m in ORACLE_SHAPES], ids=[n for n, _ in ORACLE_SHAPES])
    def test_same_algebra_as_path_enumeration(self, make):
        qp = make()
        try:
            want = path_enumeration_algebra(qp)
        except BadParameters as exc:
            with pytest.raises(BadParameters) as got:
                build_algebra(qp)
            assert str(got.value) == str(exc)
            return
        alg = build_algebra(qp)
        assert alg.vertices == want.vertices
        assert ordered(alg._dims) == ordered(want._dims)
        assert ordered(alg.basis_paths) == ordered(want.basis_paths)
        assert ordered(alg._comp) == ordered(want._comp)

    def test_non_integral_parallel_term_is_rejected(self):
        # 2abcd + pbcd makes abcd = -pbcd / 2 at the composition of a and bcd
        with pytest.raises(BadParameters, match="-1/2"):
            build_algebra(parallel_qp([0]))

    @pytest.mark.parametrize("make, dim", [
        (lambda: initial_qp(4, 12), 246),
        (lambda: hl.gamma_qp(6, -12), 534),
    ], ids=["gr412", "gamma6,-12"])
    def test_beyond_the_tame_shapes(self, make, dim):
        qp = make()
        start = time.perf_counter()
        alg = build_algebra(qp)
        assert time.perf_counter() - start < 2.0
        assert total_dim(alg) == dim
