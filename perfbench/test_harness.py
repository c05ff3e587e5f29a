"""Self-tests of the normalisation, the tracer and the run statistics.
Run with ``python3 -m pytest perfbench``."""

import gc
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import refkernel  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from grascat import braid as gb  # noqa: E402
from grascat import linalg  # noqa: E402


class TestReference:
    def test_kernel_is_the_exact_determinant(self):
        matrix = [[Fraction(x) for x in row] for row in refkernel._MATRIX]
        assert refkernel.reference_kernel() == linalg.det(matrix)

    def test_scale(self):
        nominal = refkernel.NOMINAL_REF_S
        assert refkernel.scale(nominal, nominal) == 1.0
        # a host running at half speed doubles the block time and halves the scale
        assert refkernel.scale(2 * nominal, 2 * nominal) == pytest.approx(0.5)

    def test_window_scales(self):
        nominal = refkernel.NOMINAL_REF_S
        blocks = [(0.0, 2 * nominal), (1.0, nominal), (1.01, nominal), (2.0, 2 * nominal)]
        # a short operation sees only its two neighbouring blocks
        assert refkernel.window_scales([(1.001, 1.009)], blocks) == [1.0]
        # a 0.9 s one is scaled by the mean over a window 1 s wider each side:
        # the blocks at 1.0, 1.01 and 2.0, not the one at 0.0
        assert refkernel.window_scales([(1.1, 2.0)], blocks) == [pytest.approx(0.75)]

    def test_gc_paused_and_restored(self):
        seen = []
        refkernel.reference_block(clock=lambda: seen.append(gc.isenabled()) or 0.0)
        assert not any(seen)
        assert gc.isenabled()

    def test_no_collection_runs_inside_the_kernel(self):
        heap = [[i, str(i), (i,)] for i in range(300_000)]  # ~1M tracked objects
        phases = []

        def record(phase, info):
            phases.append(phase)

        gc.callbacks.append(record)
        try:
            for _ in range(20):
                refkernel.reference_block()
        finally:
            gc.callbacks.remove(record)
        del heap
        assert phases == []

    def test_unmoved_by_a_large_live_heap(self):
        def median_block():
            return statistics.median(refkernel.reference_block() for _ in range(15))

        # Adjacent measurements on the development VM differ by up to 1.7x
        # either way, so each measurement with the heap is paired with one
        # taken just after the heap is freed; the median ratio of nine pairs
        # is held to a bound that a heap-proportional cost would exceed.
        ratios = []
        for _ in range(9):
            heap = [[i, str(i), (i,)] for i in range(300_000)]
            with_heap = median_block()
            del heap
            ratios.append(with_heap / median_block())
        assert statistics.median(ratios) < 1.4


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracer:
    def test_self_time_on_a_nested_tree(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        calls = {}

        def leaf(cost):
            clock.now += cost

        def middle():
            clock.now += 1.0
            calls["leaf"](2.0)
            calls["leaf"](3.0)

        def root():
            clock.now += 0.5
            calls["middle"]()
            calls["leaf"](4.0)
            clock.now += 0.25

        calls["leaf"] = tracer.wrap("t.leaf", leaf)
        calls["middle"] = tracer.wrap("t.middle", middle)
        traced_root = tracer.wrap("t.root", root)
        tracer.active = True
        traced_root()
        stats = tracer.take_op()
        assert stats == {
            "t.root.calls": 1, "t.root.self_s": 0.75,
            "t.middle.calls": 1, "t.middle.self_s": 1.0,
            "t.leaf.calls": 3, "t.leaf.self_s": 9.0,
        }
        assert tracer.take_op() == {}

    def test_inactive_records_nothing(self):
        tracer = Tracer(FakeClock())
        assert tracer.wrap("t.f", lambda: 7)() == 7
        assert tracer.take_op() == {}

    def test_install_patches_every_reference_and_uninstalls(self):
        original = linalg.det
        assert gb.det is original
        tracer = Tracer()
        tracer.install()
        try:
            assert linalg.det is gb.det is not original
            assert linalg.det.__wrapped__ is original
        finally:
            tracer.uninstall()
        assert linalg.det is original and gb.det is original

    def test_counts_repeat_exactly(self):
        vecs = workloads.generic_tuple(0, 3, 9, 1)
        t = gb.VectorTuple(3, 9, tuple(tuple(Fraction(x) for x in v) for v in vecs))
        tracer = Tracer()
        tracer.install()
        try:
            counts = []
            for _ in range(2):
                tracer.active = True
                gb.braid_property_check(t)
                tracer.active = False
                op = tracer.take_op()
                op.update(tracer.take_distinct())
                counts.append({k: v for k, v in op.items() if not k.endswith("_s")})
        finally:
            tracer.uninstall()
        assert counts[0] == counts[1]
        assert counts[0]["braid.sigma.calls"] > 0
        assert 0 < counts[0]["linalg.det.distinct"] < counts[0]["linalg.det.calls"]


class TestAnswerChecks:
    def op(self, check, summary=lambda r: r):
        return workloads.Op("op", lambda: None, check, summary)

    def test_checked_once_then_compared(self):
        seen, summaries = [], {}
        op = self.op(lambda r: seen.append(r) or [])
        assert run.check_answer(op, 1, summaries) == []
        assert run.check_answer(op, 1, summaries) == []
        assert seen == [1]
        assert run.check_answer(op, 2, summaries) == ["op: answer differs between rounds"]

    def test_a_raising_check_is_a_failure(self):
        def broken(r):
            raise ValueError("bad answer")

        assert run.check_answer(self.op(broken), 1, {}) == ["op: check raised ValueError('bad answer')"]
        assert run.check_answer(self.op(lambda r: [], broken), 1, {}) == [
            "op: check raised ValueError('bad answer')"]
        assert run.run_check(lambda: broken(0)) == ["whole-run check raised ValueError('bad answer')"]


def test_a_raising_operation_fails_the_run(monkeypatch, capsys, tmp_path):
    def boom():
        raise RuntimeError("library fault")

    ops = [workloads.Op(f"op {i}", lambda i=i: i, lambda r: [], lambda r: r) for i in range(12)]
    ops.append(workloads.Op("op boom", boom, lambda r: [], lambda r: r))
    monkeypatch.setitem(workloads.WORKLOADS, "braid", lambda seed: workloads.Plan(ops))
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = run.argparse.Namespace(workload="braid", seed=0, seconds=0.0, trace=1)
    assert run.run(workloads, args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3 * 13, 3)
    per_op = json.loads((tmp_path / "run-braid-0.json").read_text())["ops"]
    assert [len(op["seconds"]) for op in per_op] == [3] * 12 + [0]  # no latency when it raised


def test_reachability_draws_new_start_seeds_every_round():
    plan = workloads.reachability(3)
    first, second = plan.round_ops(0), plan.round_ops(1)
    assert len(first) == len(second)
    reach = [op.label for op in second if op.label.startswith("reach")]
    assert reach and not set(reach) & {op.label for op in first}
    # positions keep their Grassmannian, so per-position medians stay in one cost class
    assert [op.label.split()[:2] for op in first] == [op.label.split()[:2] for op in second]


class TestStatistics:
    def test_latency_metrics(self):
        per_op = [i / 1000 for i in range(1, 41)]  # 1 ms .. 40 ms
        got = run.latency_metrics(per_op)
        assert got["op_p50_ms"] == pytest.approx(20.5)
        assert got["op_tail_ms"] == pytest.approx(30.0)  # ten operations beyond it
        assert got["throughput_ops_s"] == pytest.approx(40 / 0.82)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
