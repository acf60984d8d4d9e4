"""One workload in one single-threaded process; started by run.py.

Builds the workload (inputs loaded, validated, bad primes computed, warm-up
run) and prints ``ready``, then one JSON line.  With --setup-only that line
holds setup_s, the process CPU seconds from process start to ``ready`` less
the benchmark's own input search, and setup_load, the CPU seconds of one
calibration load (calibrate.py) measured right after.  Otherwise the worker
runs whole rounds of the workload's fixed op list until --seconds of CPU
time have passed, with a calibration load before every untraced op, checks
the outputs, and the line holds the CPU seconds of every op and of the load
before it, the counts and, with --trace 1, the per-layer figures.

Every time here is process CPU time: the ops run in this one thread, and
CPU time does not count the time the machine gives to other processes.  The
worker and its calibration process are pinned to one CPU.

Run from the root of a dynheight checkout with src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from dynheight.errors import DynHeightError

import workloads
from tracing import Tracer, instrument

clock = time.process_time

MAX_PROBLEMS = 20
HERE = Path(__file__).resolve().parent


class Calibrator:
    """The calibration load (calibrate.py) in a process of its own, pinned
    to the CPU this worker is pinned to."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self, units: int = 1) -> float:
        """CPU seconds of one load, the mean over `units` loads."""
        self.proc.stdin.write(f"{units}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _call(op):
    try:
        return op.call()
    except DynHeightError as exc:
        # drop the traceback: its frames hold the failed walk's arrays
        return exc.with_traceback(None)


def run_rounds(wl, seconds: float, tracer, calibrator=None):
    """Whole rounds of the op list until `seconds` of CPU time have passed;
    with a calibrator, one calibration load before every op."""
    latencies: list[float] = []
    loads: list[float] = []
    first: list = [None] * len(wl.ops)
    mismatches: list[str] = []
    failed = 0
    rounds = 0
    start = clock()
    while True:
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op_id = f"{rounds}.{i}"
            if calibrator is not None:
                loads.append(calibrator.measure())
            span = tracer.span("op") if tracer is not None else nullcontext()
            t0 = clock()
            with span:
                out = _call(op)
            latencies.append(clock() - t0)
            if isinstance(out, Exception):
                failed += 1
            if rounds == 0:
                first[i] = out
            elif not _same(out, first[i]):
                mismatches.append(f"{op.kind} {op.label}: round {rounds} output differs")
        rounds += 1
        if clock() - start >= seconds:
            return rounds, failed, latencies, loads, first, mismatches


def check_outputs(wl, outputs, traced: bool) -> tuple[list[str], list[str]]:
    """(problems, failures) for the first round's outputs.

    A failure is a problem unless it is the op's known fault; a traced
    output is a problem unless the uninstrumented call gives the same."""
    problems: list[str] = []
    failures: list[str] = []
    for op, out in zip(wl.ops, outputs):
        what = f"{op.kind} {op.label}"
        if traced and not _same(out, _call(op)):
            problems.append(f"{what}: traced output differs from the uninstrumented call")
        if isinstance(out, Exception):
            failures.append(f"{what}: {type(out).__name__}: {out}")
            if op.expect is None or not isinstance(out, op.expect):
                problems.append(f"{what}: fails, and not with a known fault: {failures[-1]}")
            continue
        problems += [f"{what}: {p}" for p in op.check(out)]
    return problems, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    ap.add_argument("--trace-out", default=None, help="file for the spans of a traced run")
    args = ap.parse_args(argv)

    # One CPU for the ops and the calibration load alike.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = Tracer() if args.trace else None
    with instrument(tracer) if tracer is not None else nullcontext():
        wl = workloads.build(args.workload, args.seed, args.tiny)
        setup_s = clock() - wl.search_s
        print("ready", flush=True)
        calibrator = Calibrator() if tracer is None else None
        try:
            setup_load = calibrator.measure(5) if calibrator else None
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s, "setup_load": setup_load}), flush=True)
                return 0
            rounds, failed, latencies, loads, outputs, mismatches = run_rounds(
                wl, args.seconds, tracer, calibrator)
        finally:
            if calibrator:
                calibrator.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, failures = check_outputs(wl, outputs, tracer is not None)
    problems = mismatches + problems
    result = {
        "ops_per_round": len(wl.ops),
        "rounds": rounds,
        "attempted": rounds * len(wl.ops),
        "failed": failed,
        "correct": not problems,
        "problems": problems[:MAX_PROBLEMS],
        "failures": failures,
        "latencies": latencies,
        "loads": loads,
        "setup_s": setup_s,
        "setup_load": setup_load,
        "kinds": [op.kind for op in wl.ops],
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(rounds)
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
