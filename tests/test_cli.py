import json

import pytest

from grascat import fixtures
from grascat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_missing_file_is_structured(self, capsys):
        code, _, err = run(capsys, "tableau", "reduce", "--in", "/no/such/file.json")
        assert code == 1 and json.loads(err)["error"] == "FileNotFoundError"

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["tableau", "frobnicate", "--in", "{}"])
        assert exc.value.code == 2


class TestGoldenTables:
    @pytest.mark.parametrize("which", ["hom39", "hom48", "kr53", "gvecs39", "gvecs48"])
    def test_paper_tables_match_golden(self, capsys, which):
        code, out, _ = run(capsys, "paper-tables", "--format", "table", "--which", which)
        assert code == 0
        assert out == fixtures.read_golden(f"{which}.txt")

    def test_json_wrapper(self, capsys):
        code, out, _ = run(capsys, "paper-tables", "--which", "hom39")
        assert code == 0
        assert json.loads(out)["which"] == "hom39"
