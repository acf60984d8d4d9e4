#!/usr/bin/env python3
"""dynheight benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a dynheight checkout; it imports the package from
src/.  The workload runs in one single-threaded worker process (worker.py)
that repeats whole rounds of a fixed, seeded op list for S seconds of CPU
time and then checks every output against reference.py.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics.  Times are process CPU seconds at the machine's
reference speed: each is multiplied by REFERENCE_S / (CPU seconds of the
calibration load measured next to it, calibrate.py), so that neighbours
slowing the shared machine do not read as a slower program.  The same
figures unscaled go to stderr and, with every op's time, to perfbench/out/.

* setup_s: median over several fresh processes of the CPU time from process
  start until the inputs are loaded, validated, their bad primes computed
  and warm-up done;
* ops_per_s: ops completed in one round of the op list divided by the time
  of that round, median over the rounds;
* op_p50_ms: median op latency over all ops attempted;
* peak_rss_mb: peak resident memory of the measuring process.

With --trace 1 the same ops run with each layer's entry points wrapped in
spans (tracing.py), and the metrics are the per-layer figures, in unscaled
CPU seconds.

Exits 2 outside a dynheight checkout, 1 if the worker fails or runs out of
time; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import metric_units  # noqa: E402  (stdlib only)

# Set-up-only processes started before and after the measuring one; setup_s
# is the median of all their set-up times.  Half run before and half after
# it, so that the samples span the whole run and not one moment of the
# shared machine's load.
SETUP_SAMPLES = 6
# Whole-run limit, below the 180 s a run may take.
TIME_LIMIT = 170.0
# CPU seconds of one calibration load at the reference speed, about what it
# takes on the 2-vCPU VM the figures in README.md come from.
REFERENCE_S = 0.008


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # single-threaded numpy, and reproducible hashing
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Start a worker; return the JSON it printed last."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=_child_env(),
    )
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0 or not rest.strip():
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    return json.loads(rest.strip().splitlines()[-1])


def end_to_end(result: dict, setups: list[dict], scaled: bool) -> dict:
    """The end-to-end metrics; `scaled` takes each time to the reference
    speed by the median load of its op's round, or of its set-up."""
    n = result["ops_per_round"]
    rounds = result["rounds"]
    latencies = result["latencies"]
    if scaled:
        factors = [REFERENCE_S / statistics.median(result["loads"][r * n:(r + 1) * n])
                   for r in range(rounds)]
        latencies = [t * factors[i // n] for i, t in enumerate(latencies)]
    round_s = [sum(latencies[r * n:(r + 1) * n]) for r in range(rounds)]
    completed = (result["attempted"] - result["failed"]) / rounds
    setup_s = [s["setup_s"] * (REFERENCE_S / s["setup_load"] if scaled else 1.0) for s in setups]
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "ops_per_s": {"value": completed / statistics.median(round_s), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dynheight" / "__init__.py").is_file() or not (
        root / "scripts" / "systems"
    ).is_dir():
        print("error: run from the root of a dynheight checkout (src/dynheight, scripts/systems)",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        samples = 0 if args.trace else SETUP_SAMPLES // 2
        setups = [run_worker(common + ["--setup-only"], deadline) for _ in range(samples)]
        run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--trace-out", str(OUT / f"{tag}.spans.jsonl")]
        result = run_worker(run_args, deadline)
        setups.append(result)
        setups += [run_worker(common + ["--setup-only"], deadline) for _ in range(samples)]
        setups = [{"setup_s": r["setup_s"], "setup_load": r["setup_load"]} for r in setups]
    except (BenchError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result["setup_samples"] = setups
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    for line in result["problems"] + result["failures"]:
        print(line, file=sys.stderr)

    if args.trace:
        units = metric_units()
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in units.items()}
    else:
        raw = end_to_end(result, setups, scaled=False)
        print("unscaled: " + json.dumps(raw), file=sys.stderr)
        metrics = end_to_end(result, setups, scaled=True)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
