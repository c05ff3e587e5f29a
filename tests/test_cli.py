import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qp_from_json
from grascat import einv, fixtures, hl
from grascat import tableaux as tb
from grascat.cli import main, render_kr_grid
from grascat.cluster import Quiver, Seed, grassmannian_initial_seed
from grascat.errors import GrascatError
from grascat.gvec import GVector
from grascat.qpa import QuiverWithPotential
from grascat.tableaux import DominantMonomial, Tableau

T39 = '{"k":3,"n":9,"rows":[[1,2,3],[4,5,6],[7,8,9]]}'
T36 = '{"k":3,"n":6,"rows":[[1,2],[3,4],[5,6]]}'
U36 = '{"k":3,"n":6,"rows":[[1,3],[2,5],[4,6]]}'
G39 = [0, -1, -1, 0, 1, -1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0]
H39 = [1] + [0] * 18

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-12, 12) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# Objects that carry the expected field names, so that validation past the
# top level is reached as well.
TABLEAU_LIKE = st.fixed_dictionaries({"k": JSON_VALUES, "n": JSON_VALUES, "rows": JSON_VALUES})
QUIVER_LIKE = st.fixed_dictionaries(
    {"m": st.integers(-1, 4), "n_mut": st.integers(-1, 4), "arrows": JSON_VALUES}
)
SEED_LIKE = st.fixed_dictionaries(
    {"quiver": QUIVER_LIKE | JSON_VALUES, "labels": st.lists(TABLEAU_LIKE | JSON_VALUES, max_size=3)}
)
GVECTOR_LIKE = st.fixed_dictionaries({"coords": JSON_VALUES})
PROFILE_LIKE = st.fixed_dictionaries({
    "k": st.integers(-1, 4) | JSON_VALUES,
    "n": st.integers(-1, 7) | JSON_VALUES,
    "factors": st.lists(st.lists(st.integers(-1, 8), max_size=4), max_size=3) | JSON_VALUES,
})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dumped(payload) -> str:
    """stdout of a verb that emits `payload` as JSON."""
    return json.dumps(payload, indent=1) + "\n"


def tabled(text: str) -> str:
    """stdout of a verb that emits `text` under --format table."""
    return text if text.endswith("\n") else text + "\n"


def tab(text: str) -> Tableau:
    return Tableau.from_json(json.loads(text))


def compat_payload(verdict) -> dict:
    return {
        "compatible": bool(verdict),
        "conjectural": verdict.conjectural,
        "e_value": verdict.report.value,
        "certified": verdict.report.certified,
    }


def subset_payload(subset) -> str:
    return dumped({"subset": list(subset.elems), "n": subset.n})


def gr39_pair_report():
    seed = grassmannian_initial_seed(3, 9)
    return einv.generic_e_pair(
        GVector(seed, tuple(G39)), GVector(seed, tuple(H39)),
        fixtures.tame_algebra("gr39"), 4, "rational", 0,
    )


# (argv, expected stdout from the library); "FILE" is a file holding T36.
VERB_CASES = {
    "tableau-promote-file": (
        ("tableau", "promote", "--in", "FILE"), lambda: dumped(tb.promote(tab(T36)).to_json())),
    "tableau-bk-table": (
        ("tableau", "bk", "--in", T36, "--i", "2", "--format", "table"),
        lambda: tabled(str(tb.bender_knuth(tab(T36), 2)))),
    "tableau-union": (
        ("tableau", "union", "--in", T36, "--other", U36),
        lambda: dumped(tb.union(tab(T36), tab(U36)).to_json())),
    "tableau-dominance": (
        ("tableau", "dominance", "--in", T36, "--other", U36),
        lambda: dumped({"comparison": tb.dominance_compare(tab(T36), tab(U36)).value})),
    "seed-init": (
        ("seed", "init", "--seed", "gr3_6"),
        lambda: dumped(grassmannian_initial_seed(3, 6).to_json())),
    "einv-pair-table": (
        ("einv", "--g", json.dumps(G39), "--pair", json.dumps(H39), "--samples", "4",
         "--master-seed", "0", "--format", "table"),
        lambda: tabled(gr39_pair_report().describe())),
    "hl-compat": (
        ("hl", "compat", "--i", "1", "--m", "-2", "--v", "1", "--i2", "2", "--m2", "-1",
         "--v2", "1", "--k", "3", "--ell", "5", "--samples", "4", "--master-seed", "0"),
        lambda: dumped(compat_payload(
            hl.kr_compatible(1, -2, 1, 1, -1, 2, 3, 5, samples=4, master_seed=0)))),
    # the defaults (i, m) = (i2, m2) = (1, -2) name the top of column 1;
    # m = -1 broke the parity rule, so each of these once exited 1
    "hl-kr-defaults": (
        ("hl", "kr", "--k", "3"), lambda: subset_payload(hl.kr_subset(1, -2, 3, 2))),
    "hl-tau-defaults": (
        ("hl", "tau", "--k", "3", "--ell", "2"),
        lambda: subset_payload(hl.tau_kernel_subset(1, -2, 1, 3, 6))),
    "hl-compat-defaults": (
        ("hl", "compat", "--k", "3", "--ell", "2"),
        lambda: dumped(compat_payload(hl.kr_compatible(1, -2, 1, 1, -2, 1, 3, 2)))),
    "hl-mutseq": (
        ("hl", "mutseq", "--k", "5", "--ell", "3"),
        lambda: dumped({"sequence": [list(c) for c in hl.hl_mutation_sequence(5, 3)]})),
    "hl-qell": (
        ("hl", "qell", "--k", "4", "--ell", "2"), lambda: dumped(hl.q_ell_quiver(4, 2).to_json())),
}


class TestBasicCommands:
    def test_tableau_reduce_trivial(self, capsys):
        code, out, _ = run(
            capsys, "tableau", "reduce", "--in", '{"k":3,"n":6,"rows":[[1],[2],[3]]}'
        )
        assert code == 0
        assert json.loads(out)["rows"] == [[], [], []]

    def test_tableau_round_trip_through_cli(self, capsys):
        source = '{"k":3,"n":6,"rows":[[1,2],[3,4],[5,6]]}'
        code, out, _ = run(capsys, "tableau", "to-monomial", "--in", source)
        assert code == 0
        mono = json.loads(out)
        code, out, _ = run(capsys, "monomial", "--in", json.dumps(mono))
        assert code == 0
        assert json.loads(out)["rows"] == [[1, 2], [3, 4], [5, 6]]

    def test_gvec_on_standard_tableau(self, capsys):
        code, out, _ = run(
            capsys,
            "gvec",
            "--tableau",
            '{"k":3,"n":9,"rows":[[1,2,3],[4,5,6],[7,8,9]]}',
            "--seed",
            "gr3_9",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coords"] == [0, -1, -1, 0, 1, -1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0]
        assert payload["sub"] == ["125", "126", "134"]

    def test_seed_mutate(self, capsys):
        code, out, _ = run(capsys, "seed", "mutate", "--seed", "gr2_4", "--at", "0")
        assert code == 0
        assert json.loads(out)["labels"][0]["rows"] == [[2], [4]]

    def test_seed_explore(self, capsys):
        code, out, _ = run(
            capsys, "seed", "explore", "--seed", "gr2_4", "--depth", "1",
            "--max-seeds", "50",
        )
        payload = json.loads(out)
        assert code == 0 and payload["complete"] and len(payload["variables"]) == 2

    def test_einv_deterministic_under_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("GRASCAT_SEED", "17")
        g = json.dumps([0, -1, -1, 0, 1, -1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0])
        code, out1, _ = run(capsys, "einv", "--g", g, "--algebra", "qp_gr39", "--samples", "8")
        code2, out2, _ = run(capsys, "einv", "--g", g, "--algebra", "qp_gr39", "--samples", "8")
        assert code == code2 == 0 and out1 == out2
        assert json.loads(out1)["value"] == 1

    def test_einv_pair_on_its_floor_stops_at_one_sample(self, capsys):
        # the g-vectors of Plücker coordinates 124 and 135 cross: E = 1, which is
        # their term-rank floor, so the first sample is exact and the last drawn
        d135 = json.dumps([-1, 1, 0, 0, 0, 1] + [0] * 13)
        code, out, _ = run(capsys, "einv", "--g", json.dumps(H39), "--pair", d135,
                           "--samples", "4", "--master-seed", "0")
        assert code == 0
        assert json.loads(out) == {
            "value": 1, "certified": False, "exact": True, "lower_bound": 1, "samples": 1,
            "field": "rational",
            "note": "zero values are exact, and so are values on lower_bound, the term-rank "
                    "floor; other positive values are sampled estimates",
        }
        code, out, _ = run(capsys, "einv", "--g", json.dumps(H39), "--pair", d135,
                           "--samples", "4", "--master-seed", "0", "--format", "table")
        assert code == 0 and out == "1 (exact; 1 sample(s) over rational)\n"

    def test_hl_commands(self, capsys):
        code, out, _ = run(
            capsys, "hl", "kr", "--i", "3", "--m", "-2", "--k", "4", "--ell", "3"
        )
        assert code == 0 and json.loads(out)["subset"] == [2, 4, 5, 6]
        code, out, _ = run(
            capsys, "hl", "kernel", "--i", "3", "--m", "-2", "--v", "2",
            "--k", "4", "--ell", "3",
        )
        assert code == 0 and json.loads(out)["subset"] == [3, 6, 7, 8]
        code, out, _ = run(
            capsys, "hl", "tau", "--i", "3", "--m", "-2", "--v", "2",
            "--k", "4", "--ell", "3",
        )
        assert code == 0 and json.loads(out)["subset"] == [1, 2, 5, 8]

    @pytest.mark.parametrize("op", ["kr", "kernel", "tau", "compat", "mutseq", "gamma", "qell"])
    def test_hl_defaults_succeed(self, capsys, op):
        # --ell defaults to 2, the least ell at which the default kernel
        # (i, m, v) = (1, -2, 1) exists; with 0 or 1 kernel, tau and compat exited 1
        code, out, err = run(capsys, "hl", op, "--k", "3")
        assert (code, err) == (0, "") and json.loads(out)

    def test_braid_check(self, capsys):
        code, out, _ = run(
            capsys, "braid", "check", "--k", "3", "--n", "9", "--trials", "2",
            "--master-seed", "0",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["periodicity_exact"] == 2
        assert payload["genericity_preserved"] == 2

    def test_emitted_json_is_readable(self, capsys):
        from grascat.cluster import Quiver, Seed

        code, out, _ = run(capsys, "seed", "mutate", "--seed", "gr3_6", "--at", "0", "2")
        assert code == 0
        Seed.from_json(json.loads(out))
        code, out, _ = run(capsys, "hl", "gamma", "--k", "4", "--s", "-6")
        assert code == 0
        Quiver.from_json(json.loads(out))

    @pytest.mark.parametrize("case", list(VERB_CASES))
    def test_stdout_matches_library(self, capsys, tmp_path, case):
        argv, expected = VERB_CASES[case]
        path = tmp_path / "tableau.json"
        path.write_text(T36)
        code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
        assert (code, err) == (0, "")
        assert out == expected()

    def test_profile_check_and_shift(self, capsys):
        profile = '{"k":3,"n":6,"factors":[[2,4,6],[1,3,5]]}'
        tableau = '{"k":3,"n":6,"rows":[[1,2],[3,4],[5,6]]}'
        code, out, _ = run(
            capsys, "profile", "check", "--profile", profile,
            "--tableau", tableau, "--seed", "gr3_6",
        )
        assert code == 0 and json.loads(out)["balanced"] is True
        code, out, _ = run(capsys, "profile", "shift", "--profile", profile, "--a", "3")
        assert code == 0 and json.loads(out)["factors"] == [[1, 3, 5], [2, 4, 6]]


class TestErrorPaths:
    def test_computation_error_is_structured(self, capsys):
        code, out, err = run(
            capsys, "tableau", "quotient",
            "--in", '{"k":2,"n":4,"rows":[[1],[2]]}',
            "--other", '{"k":2,"n":4,"rows":[[3],[4]]}',
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "NotAFactor"

    def test_non_integer_entry_is_structured(self, capsys):
        code, out, err = run(
            capsys, "tableau", "reduce", "--in", '{"k":3,"n":6,"rows":[["a",2],[3,4],[5,6]]}'
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "NotSemistandard"

    @pytest.mark.parametrize("argv", [
        ("tableau", "reduce", "--in", "[1]"),
        ("gvec", "--tableau", T39, "--seed", '{"quiver":1}'),
        ("einv", "--g", "[[1]]", "--algebra", "qp_gr39"),
        ("profile", "shift", "--profile", "[1]"),
    ])
    def test_wrong_json_kind_is_structured(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "MalformedInput"

    @pytest.mark.parametrize("shape", ['"k":0,"n":0,"rows":[]', '"k":3,"n":2,"rows":[[],[],[]]'])
    def test_tableau_shape_out_of_range_is_structured(self, capsys, shape):
        code, out, err = run(capsys, "tableau", "reduce", "--in", "{" + shape + "}")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "BadParameters"
        assert "k=" in payload["message"] and "n=" in payload["message"]

    @pytest.mark.parametrize("cls, data", [
        (Tableau, [1]),
        (Tableau, {"k": "3", "n": 6, "rows": [[1], [2], [3]]}),
        (Quiver, {"m": 2, "n_mut": 1, "arrows": [[0]]}),
        (Quiver, {"m": 2, "n_mut": 3, "arrows": []}),
        (Seed, {"quiver": {"m": 0, "n_mut": 0, "arrows": []}, "labels": []}),
        (DominantMonomial, {"k": 3, "ell": 2, "factors": [[1, -2]]}),
        (QuiverWithPotential, {"vertices": ["a"], "arrows": [], "potential": [{"sign": 1}]}),
        (QuiverWithPotential, {"vertices": ["a"], "arrows": [], "potential": [
            {"sign": 1, "cycle": ["x"]}]}),
        (Quiver, {"m": 2, "n_mut": 1, "arrows": [], "coords": [[0, 0]]}),
        # an empty coords list was once read as no coords
        (Quiver, {"m": 2, "n_mut": 1, "arrows": [[0, 1]], "coords": []}),
    ])
    def test_from_json_rejects_malformed(self, cls, data):
        # the library holds no QP JSON reader: the oracle loader's is checked
        parse = qp_from_json if cls is QuiverWithPotential else cls.from_json
        with pytest.raises(GrascatError):
            parse(data)

    @pytest.mark.parametrize("argv, error, names", [
        (("braid", "check", "--k", "3", "--n", "2", "--trials", "1"), "BadParameters", ["k=3"]),
        (("seed", "init", "--seed", "gr3_x"), "BadParameters", ["--seed", "grK_N", "JSON"]),
        (("profile", "shift", "--profile", '{"k":0,"n":6,"factors":[[1,2,3]]}'),
         "BadParameters", ["k=0"]),
        (("profile", "shift", "--profile", '{"k":2,"n":6,"factors":[[1,2,3]]}'),
         "DimensionMismatch", ["k=2"]),
        # the shape is checked before the trials loop, so zero trials fail too
        (("braid", "check", "--k", "3", "--n", "2", "--trials", "0"), "BadParameters",
         ["k=3", "n=2"]),
        (("braid", "check", "--k", "0", "--n", "4", "--trials", "0"), "BadParameters",
         ["k=0", "n=4"]),
        # n = k + ell + 1 = 0 once ended in a ZeroDivisionError from the mod-n step
        (("hl", "tau", "--k", "3", "--ell", "-4", "--i", "1", "--m", "-2", "--v", "1"),
         "OutOfRange", ["n=0", "k=3"]),
        (("hl", "tau", "--k", "3", "--ell", "-1", "--i", "1", "--m", "-2", "--v", "1"),
         "OutOfRange", ["n=3", "k=3"]),
        # three coords for two vertices were once echoed back
        (("seed", "init", "--seed", json.dumps({
            "quiver": {"m": 2, "n_mut": 1, "arrows": [[0, 1]], "coords": [[0, 0], [1, 1], [2, 2]]},
            "labels": [{"k": 2, "n": 4, "rows": [[1], [2]]}, {"k": 2, "n": 4, "rows": [[1], [3]]}],
        })), "BadParameters", ["got 3", "m=2"]),
        # and an empty coords list was once read as no coords
        (("seed", "init", "--seed", json.dumps({
            "quiver": {"m": 2, "n_mut": 1, "arrows": [[0, 1]], "coords": []},
            "labels": [{"k": 2, "n": 4, "rows": [[1], [2]]}, {"k": 2, "n": 4, "rows": [[1], [3]]}],
        })), "BadParameters", ["need one coord per vertex, got 0 for m=2"]),
    ])
    def test_bad_parameters_are_structured(self, capsys, argv, error, names):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == error
        assert all(name in payload["message"] for name in names)

    @pytest.mark.parametrize("env, argv, source", [
        (None, ("einv", "--g", json.dumps(G39), "--master-seed", "-1"), "--master-seed"),
        (None, ("hl", "compat", "--i", "1", "--m", "-2", "--v", "1", "--i2", "2", "--m2", "-1",
                "--v2", "1", "--k", "3", "--ell", "5", "--master-seed", "-5"), "--master-seed"),
        (None, ("braid", "check", "--k", "2", "--n", "4", "--trials", "1", "--seed", "-2"),
         "--master-seed"),
        ("-3", ("braid", "check", "--k", "2", "--n", "4", "--trials", "1"), "GRASCAT_SEED"),
        ("abc", ("einv", "--g", json.dumps(G39)), "GRASCAT_SEED"),
    ])
    def test_bad_master_seed_is_structured(self, capsys, monkeypatch, env, argv, source):
        # each of these once ended in numpy's "expected non-negative integer"
        # ValueError, or int()'s "invalid literal"
        if env is None:
            monkeypatch.delenv("GRASCAT_SEED", raising=False)
        else:
            monkeypatch.setenv("GRASCAT_SEED", env)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "BadParameters" and source in payload["message"]

    @settings(max_examples=40)
    @given(st.integers(-1, 8), st.integers(-1, 9), st.integers(-1, 2))
    def test_fuzz_braid_integers(self, k, n, trials):
        self._assert_structured(
            ("braid", "check", "--k", str(k), "--n", str(n), "--trials", str(trials),
             "--master-seed", "0")
        )

    @settings(max_examples=40)
    @given(st.integers(-1, 5), st.integers(-1, 9), st.integers(-1, 3), st.integers(-1, 30))
    def test_fuzz_explore_integers(self, k, n, depth, max_seeds):
        self._assert_structured(
            ("seed", "explore", "--seed", f"gr{k}_{n}", "--depth", str(depth),
             "--max-seeds", str(max_seeds))
        )

    @given(JSON_VALUES | TABLEAU_LIKE)
    def test_fuzz_tableau_input(self, data):
        self._assert_structured(("tableau", "reduce", "--in", json.dumps(data)))

    @given(JSON_VALUES | SEED_LIKE)
    def test_fuzz_seed_input(self, data):
        self._assert_structured(("gvec", "--tableau", T39, "--seed", json.dumps(data)))

    @given(JSON_VALUES | GVECTOR_LIKE)
    def test_fuzz_einv_g_input(self, data):
        self._assert_structured(("einv", f"--g={json.dumps(data)}", "--algebra", "qp_gr39"))

    @given(JSON_VALUES | PROFILE_LIKE)
    def test_fuzz_profile_input(self, data):
        self._assert_structured(("profile", "shift", f"--profile={json.dumps(data)}"))

    @staticmethod
    def _assert_structured(argv):
        # capsys is not reset between hypothesis examples, so capture here
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert code in (0, 1)
        if code == 1:
            assert out.getvalue() == ""
            assert set(json.loads(err.getvalue())) == {"error", "message"}

    def test_missing_file_is_structured(self, capsys):
        code, _, err = run(capsys, "tableau", "reduce", "--in", "/no/such/file.json")
        assert code == 1 and json.loads(err)["error"] == "FileNotFoundError"

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["tableau", "frobnicate", "--in", "{}"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, option", [
        (("tableau", "union", "--in", T39), "--other"),
        (("tableau", "quotient", "--in", T39), "--other"),
        (("tableau", "dominance", "--in", T39), "--other"),
        (("profile", "check", "--profile", '{"k":3,"n":6,"factors":[[1,2,3]]}'), "--tableau"),
    ])
    def test_missing_op_option_is_a_usage_error(self, capsys, argv, option):
        # these ops used to end in an AttributeError traceback on None
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert option in captured.err


def read_golden(name: str) -> str:
    """A golden table shipped with the package, in src/grascat/fixtures/golden/."""
    return resources.files(fixtures).joinpath("golden", name).read_text()


class TestGoldenTables:
    @pytest.mark.parametrize("which", ["hom39", "hom48", "kr53", "gvecs39", "gvecs48"])
    def test_paper_tables_match_golden(self, capsys, which):
        code, out, _ = run(capsys, "paper-tables", "--format", "table", "--which", which)
        assert code == 0
        assert out == read_golden(f"{which}.txt")

    @pytest.mark.parametrize("k", range(2, 8))
    def test_kr_grid_reads_the_column_levels(self, k):
        # rows of the grid are the columns' levels, top first, as hl lays them out
        for ell in range(6):
            columns = [hl._column_levels(i, -2 * ell - 2) for i in range(1, k)]
            want = [f"kirillov-reshetikhin subsets, k={k} ell={ell} (columns i=1..{k - 1})"]
            want += ["".join(str(hl.kr_subset(i, m, k, ell)).rjust(2 * k + 2)
                             for i, m in enumerate(row, 1)) for row in zip(*columns)]
            assert render_kr_grid(k, ell) == "\n".join(want) + "\n", ell

    def test_json_wrapper(self, capsys):
        code, out, _ = run(capsys, "paper-tables", "--which", "hom39")
        assert code == 0
        assert json.loads(out)["which"] == "hom39"
