"""Run one workload of the grascat benchmark and print its metrics.

    python3 perfbench/run.py --workload braid --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
harness is closed-loop, single process and single thread.  A round is the
workload's list of operations, made from ``--seed`` (and, for workloads
that draw new inputs every round, the round number); whole rounds run
until ``--seconds`` have passed, and never fewer than three.  The
reference kernel (``refkernel.py``) is timed between consecutive
operations; each operation's wall time is normalised by the reference
blocks timed around it, and its latency is the median over rounds.  The
last line of stdout is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# numpy's thread pools stay at one thread, before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import refkernel

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
# Fresh-interpreter set-ups timed before each round.  Spreading them over
# the run, rather than taking them back to back, averages over the host's
# fast and slow phases, which move set-up time less than they move the
# reference kernel.
SETUP_PER_ROUND = 2
TAIL_BEYOND = 10

END_TO_END = {
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

_OP_LAYER_METRICS = [
    "linalg.det.calls", "linalg.det.distinct", "linalg.det.self_s",
    "braid.sigma.calls", "braid.sigma.self_s", "braid.plucker_vector.self_s",
    "einv.e_pair.calls", "einv.e_pair.self_s",
    "linalg.rank_int.calls", "linalg.rank_int.entries", "linalg.rank_int.self_s",
    "modp.rank_mod_p.calls", "modp.rank_mod_p.entries", "modp.rank_mod_p.self_s",
    "einv.random_complex.self_s", "einv.samples",
    "linalg.rref.calls", "linalg.rref.rows", "linalg.rref.pivot_rows", "linalg.rref.self_s",
    "qpa.build_algebra.calls", "qpa.build_algebra.distinct", "qpa.build_algebra.self_s",
    "hl.kr_compatible_gamma.self_s",
    "cluster.explore.seeds", "cluster.mutate_seed.calls", "cluster.mutate_seed.self_s",
    "gvec.g_vector.calls", "gvec.g_vector.self_s",
    "tableaux.reduce.calls", "tableaux.reduce.self_s",
]
_SETUP_LAYER_METRICS = ["setup.qpa.build_algebra.self_s", "setup.linalg.rref.self_s"]
PER_LAYER = {
    name: "s" if name.endswith("_s") else "count"
    for name in _OP_LAYER_METRICS + _SETUP_LAYER_METRICS
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_workloads():
    """Import the workloads module against the checkout's own sources."""
    if not (SRC / "grascat" / "__init__.py").is_file():
        fail(f"no grascat sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup_probe(workloads, workload: str, seed: int) -> None:
    """Child mode: set one workload up in this fresh interpreter, then print
    'ready' with the seconds spent timing the reference before the set-up,
    and after it the reference block times from both sides of the set-up."""
    start = time.perf_counter()
    before = refkernel.reference_block()
    spent = time.perf_counter() - start
    workloads.WORKLOADS[workload](seed)
    print(f"ready {spent!r}", flush=True)
    print(f"{before!r} {refkernel.reference_block()!r}", flush=True)


def fresh_setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """(raw, normalised) seconds from spawning an interpreter to its 'ready'.

    The reference is timed inside the child, on whichever CPU it runs, and
    the time it took is taken off the raw figure."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    words = line.split()
    if code != 0 or len(words) != 2 or words[0] != "ready":
        fail(f"set-up probe for {workload} exited with code {code}")
    raw = ready - start - float(words[1])
    before, after = map(float, rest.split())
    return raw, raw * refkernel.scale(before, after)


def traced_scaled(stats: dict[str, float], factor: float) -> dict[str, float]:
    return {k: v * factor if k.endswith("_s") else v for k, v in stats.items()}


def layer_values(stats: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from raw tracer keys (sample counts are merged)."""
    out = dict(stats)
    out["einv.samples"] = (
        stats.get("einv.generic_e_parts.samples", 0)
        + stats.get("einv.generic_e_pair_parts.samples", 0)
    )
    return out


def latency_metrics(per_op: list[float]) -> dict[str, float]:
    """Throughput, median and tail from per-operation normalised seconds.

    The tail is the highest percentile with TAIL_BEYOND operations beyond it."""
    ranked = sorted(per_op)
    return {
        "throughput_ops_s": len(ranked) / sum(ranked),
        "op_p50_ms": 1000 * statistics.median(ranked),
        "op_tail_ms": 1000 * ranked[-TAIL_BEYOND - 1],
    }


def check_answer(op, answer, summaries: dict) -> list[str]:
    """Failures of one answer.  The first time an operation runs, its answer
    is checked; later its summary must repeat exactly.  A check that raises
    is a failure too."""
    try:
        summary = op.summary(answer)
        if op.label not in summaries:
            summaries[op.label] = summary
            return [f"{op.label}: {e}" for e in op.check(answer)]
        if summary != summaries[op.label]:
            return [f"{op.label}: answer differs between rounds"]
        return []
    except Exception as exc:  # a broken answer must not end the run unreported
        return [f"{op.label}: check raised {exc!r}"]


def run_check(check) -> list[str]:
    try:
        return list(check())
    except Exception as exc:
        return [f"whole-run check raised {exc!r}"]


def run(workloads, args) -> int:
    samples = []
    tracer = None
    if not args.trace:
        fresh_setup_seconds(args.workload, args.seed)  # warms file caches and .pyc
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    before = refkernel.reference_block()
    plan = workloads.WORKLOADS[args.workload](args.seed)
    setup_factor = refkernel.scale(before, refkernel.reference_block())
    setup_layers = {}
    if tracer:
        tracer.active = False
        setup_layers = traced_scaled(tracer.take_op(), setup_factor)
        tracer.take_distinct()

    # Latencies are kept per position in the round; a workload that draws
    # new inputs every round keeps each position's cost class.
    n = len(plan.ops)
    latencies: list[list[float]] = [[] for _ in range(n)]
    raw_latencies: list[list[float]] = [[] for _ in range(n)]
    summaries: dict = {}
    errors: list[str] = []
    round_layers: list[dict[str, float]] = []
    trace_ops = []
    attempted = failed = 0
    rounds = 0
    loop_start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - loop_start < args.seconds:
        if not tracer:
            samples += [fresh_setup_seconds(args.workload, args.seed)
                        for _ in range(SETUP_PER_ROUND)]
        ops = plan.round_ops(rounds)
        if len(ops) != n:
            fail(f"round {rounds} has {len(ops)} operations, round 0 had {n}")
        blocks = [(time.perf_counter(), refkernel.reference_block())]
        spans, op_stats, succeeded = [], [], []
        for op in ops:
            attempted += 1
            if tracer:
                tracer.active = True
            start = time.perf_counter()
            try:
                answer = op.run()
                ok = True
            except Exception as exc:  # counted and reported, not fatal
                ok = False
                failed += 1
                errors.append(f"{op.label}: raised {exc!r}")
                if rounds == 0:
                    print(f"operation {op.label} failed:", file=sys.stderr)
                    traceback.print_exc()
            end = time.perf_counter()
            if tracer:
                tracer.active = False
                op_stats.append(tracer.take_op())
            blocks.append((time.perf_counter(), refkernel.reference_block()))
            spans.append((start, end))
            succeeded.append(ok)
            if ok:
                # Answers are checked and dropped at once, so that peak
                # memory is the library's, not the harness's.
                errors += check_answer(op, answer, summaries)
                del answer

        layers: dict[str, float] = defaultdict(float)
        factors = refkernel.window_scales(spans, blocks)
        for i, (op, (start, end), factor) in enumerate(zip(ops, spans, factors)):
            if succeeded[i]:  # an operation that raised has no latency
                latencies[i].append((end - start) * factor)
                raw_latencies[i].append(end - start)
            if tracer:
                scaled = traced_scaled(op_stats[i], factor)
                for name, value in scaled.items():
                    layers[name] += value
                trace_ops.append({"round": rounds, "op": op.label, "scale": factor,
                                  "seconds": (end - start) * factor, "layers": scaled})
        if tracer:
            layers.update(tracer.take_distinct())
        round_layers.append(layers)
        rounds += 1

    # Read before the whole-run checks, which build algebras of their own.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for check in plan.run_checks:
        errors += run_check(check)
    for message in errors[:20]:
        print(f"CHECK FAILED {message}", file=sys.stderr)

    per_op = [statistics.median(x) for x in latencies if x]
    if len(per_op) <= TAIL_BEYOND:
        fail(f"only {len(per_op)} of {n} operations ever succeeded; nothing to measure")
    tail_pct = 100 * (len(per_op) - TAIL_BEYOND) / len(per_op)
    raw_total = sum(statistics.median(x) for x in raw_latencies if x)
    setup_norm = statistics.median(s for _, s in samples) if samples else None
    setup_raw = statistics.median(r for r, _ in samples) if samples else None

    print(f"backend: {workloads.grascat.modp.backend()}")
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {n} operations, "
          f"{attempted} attempted, {failed} failed, {len(errors)} check failures")
    print(f"op_tail_ms is p{tail_pct:.1f} of the {len(per_op)} per-operation medians; "
          f"{TAIL_BEYOND} operations lie beyond it")
    print(f"raw (unnormalised) seconds per round: {raw_total:.4f}; "
          f"normalised: {sum(per_op):.4f}")
    if samples:
        print(f"setup_s median of {len(samples)} fresh interpreters: raw {setup_raw:.4f} s, "
              f"normalised {setup_norm:.4f} s")

    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-{args.seed}.json").write_text(json.dumps({
        "setup_s": samples,
        "ops": [{"op": op.label, "seconds": lat, "raw_seconds": raw}
                for op, lat, raw in zip(plan.ops, latencies, raw_latencies)],
    }, indent=1))
    if tracer:
        tracer.uninstall()
        # Counts come from the second round, after the first has filled the
        # library's caches; times are medians over all rounds.
        steady = layer_values(round_layers[1])
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name.startswith("setup."):
                value = setup_layers.get(name[len("setup."):], 0.0)
            elif unit == "s":
                value = statistics.median(layer_values(r).get(name, 0.0) for r in round_layers)
            else:
                value = int(steady.get(name, 0))
            metrics[name] = {"value": value, "unit": unit}
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"setup": setup_layers, "ops": trace_ops}))
        print(f"trace written to {os.path.relpath(path)}")
    else:
        values = {
            **latency_metrics(per_op),
            "setup_s": setup_norm,
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(workloads, args.workload, args.seed)
        return 0
    return run(workloads, args)


if __name__ == "__main__":
    sys.exit(main())
