"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload series --seed 1 --seconds 20 --trace 0

One process, one thread: a closed loop that issues each op after the
previous one has finished.  With ``--trace 0`` the op list is run a
fixed number of passes, sized from ``--seconds``, and the end-to-end
metrics are printed.  With ``--trace 1`` each op is run once traced
and once untraced, the per-layer metrics are printed, and the spans
are written to ``perfbench/out/trace-<workload>.jsonl``.
``--workload all`` runs every workload, each in its own process.

Every op's output is checked after it returns, outside the timed
region.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Failed ops and
their reasons go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostref
from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS, WRONG_OUTPUT, CliResult, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "first_result_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Timing:
    latency: float
    first: float  # time from op start to its first result
    failure: str | None
    start: float  # perf_counter() at op start


def run_op(op) -> tuple[Timing, object]:
    """Run one op, timing it; check its result afterwards."""
    t0 = perf_counter()
    try:
        result, first = op.run()
    except Exception as exc:  # a failed op is counted, never fatal
        result, first = exc, None
        crashed = f"raised {type(exc).__name__}: {exc}"
    else:
        crashed = None
    t1 = perf_counter()
    return Timing(t1 - t0, (first or t1) - t0, crashed or op.check(result), t0), result


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the time from before
    ``import colored_dyck`` until the op list is built, scaled to the
    reference host speed."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _tally(ops, timings):
    """(correct, attempted, failed) over a list of (op index, Timing),
    counting distinct ops: an op that fails in any run counts once.
    Failed ops and their reasons go to stderr.  A contract probe's
    wrong exit code counts as failed but not as a wrong output."""
    failures = {}
    for i, t in timings:
        if t.failure:
            failures.setdefault(i, t.failure)
    for i, reason in sorted(failures.items()):
        kind = " (contract probe)" if ops[i].probe else ""
        print(f"FAILED{kind}: {ops[i].name}: {reason}", file=sys.stderr)
    correct = all(ops[i].probe and not reason.startswith(WRONG_OUTPUT)
                  for i, reason in failures.items())
    return correct, len({i for i, _ in timings}), len(failures)


# Seconds one untraced pass of each workload's op list takes at the
# seed on the reference VM, collections and sampler included (see
# README.md).  They fix the number of passes a run makes from
# --seconds, so that every commit gets the same number of samples.
PASS_SECONDS = {"series": 6.0, "bfile": 4.0, "enumerate": 5.0, "words": 1.3}


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    """A fixed number of untraced passes over the op list, with the
    host-speed sampler running; the end-to-end metrics."""
    ops = build(workload, seed)
    setup_s = measure_setup(workload, seed)
    n_passes = max(3, round(seconds / PASS_SECONDS[workload]))
    # Each op starts from a collected heap, as in a fresh CLI process;
    # freezing the set-up's objects keeps those collections short.
    gc.collect()
    gc.freeze()
    passes = []
    sampler = hostref.Sampler().start()
    try:
        start = perf_counter()
        for _ in range(n_passes):
            timings = []
            for op in ops:
                gc.collect()
                timings.append(run_op(op)[0])
            passes.append(timings)
            if perf_counter() - start > 3 * seconds:
                break  # more than 3x slower than the reference: stop in time
    finally:
        sampler.stop()
    scaled = [[sampler.scaled(t.start, t.latency, t.first) for t in p] for p in passes]
    # Each op's median over the passes; the metrics are taken over the
    # ops.  first_result_ms is a geometric mean: with few ops a median
    # would be one op's time (see README.md).
    lat = [statistics.median(p[i][0] for p in scaled) for i in range(len(ops))]
    first = [statistics.median(p[i][1] for p in scaled) for i in range(len(ops))]
    metrics = {
        "wall_s": sum(lat),
        "op_p50_ms": 1000 * _quantile(lat, 50),
        "op_p90_ms": 1000 * _quantile(lat, 90),
        "first_result_ms": 1000 * statistics.geometric_mean(first),
    }
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = [round(sum(t.latency for t in p), 3) for p in passes]
    walls = [round(sum(x for x, _ in p), 3) for p in scaled]
    print(f"# {workload}: {len(passes)} passes of {len(ops)} ops; pass walls, raw {raw}, "
          f"scaled {walls}", file=sys.stderr)
    tally = _tally(ops, [(i, t) for p in passes for i, t in enumerate(p)])
    return _result(*tally, metrics, END_TO_END)


def traced_pass(ops, tracer):
    """Each op run once traced and once untraced, alternating which
    goes first; (timings, untraced seconds, traced seconds)."""
    timings, plain, traced = [], 0.0, 0.0
    gc.collect()
    for i, op in enumerate(ops):
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not is_traced:
                t, _ = run_op(op)
                plain += t.latency
            else:
                tracer.install()
                tracer.op, tracer.active = i, not op.probe
                try:
                    t, result = run_op(op)
                finally:
                    tracer.active = False
                    tracer.uninstall()
                traced += t.latency
                if isinstance(result, CliResult) and not op.probe:
                    tracer.note_cli(result.nbytes, result.code)
            timings.append((i, t))
    return timings, plain, traced


def run_traced(workload: str, seed: int) -> dict:
    """One traced pass; the per-layer metrics.  Spans go to
    perfbench/out/."""
    ops = build(workload, seed)
    tracer = Tracer()
    timings, plain, traced = traced_pass(ops, tracer)
    metrics = tracer.metrics(traced, plain)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{workload}.jsonl",
                 {"workload": workload, "seed": seed, "ops": [op.name for op in ops]})
    for name in tracer.absent():
        print(f"# absent span: {name}", file=sys.stderr)
    shares = {k[:-7]: round(v / traced, 3) for k, v in metrics.items()
              if k.count(".") == 1 and k.endswith(".self_s")}
    print(f"# traced {traced:.3f} s, untraced {plain:.3f} s; layer self time / traced wall: {shares}",
          file=sys.stderr)
    return _result(*_tally(ops, timings), metrics, PER_LAYER)


def _result(correct, attempted, failed, metrics, units):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so that peak RSS is each
    workload's own; metric names get the workload as a prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True,
        )
        res = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_workload(args.workload, args.seed, args.seconds)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
