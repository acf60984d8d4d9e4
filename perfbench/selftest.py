#!/usr/bin/env python3
"""Self-test of the benchmark; runs in well under a minute.

    python3 perfbench/selftest.py

Run from the root of a dynheight checkout.  It

1. runs every workload at a tiny size through worker.py, untraced and
   traced, and requires correct outputs (traced outputs equal to untraced
   ones, no failures but the two known faults), and in the traced run a
   call into every layer the workload is meant to exercise;
2. corrupts each op's output past its tolerance (a height shifted past its
   tail, a sweep row off by 1e-7, an ff height off by 2^-30, a model whose
   file and report disagree, ...) and requires the op's check to reject it;
3. makes an op that should succeed raise, and an op kept for a known fault
   raise another error, and requires the run to be reported incorrect;
4. runs run.py in a directory without a checkout and requires it to fail
   without printing a result.

Exits 1 on the first failed expectation, 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402
from dynheight.errors import BadParameterError, DynHeightError  # noqa: E402

# Layers whose entry points each workload's traced tiny run must call.
EXERCISED = {
    "commuting-heights": ("cli.load", "dynsys.validate", "exactnum.factor", "canonical.arch"),
    "bad-reduction": ("cli.load", "dynsys.validate", "exactnum.factor", "canonical.arch",
                      "canonical.padic", "canonical.oracle"),
    "family-sweep": ("cli.load", "dynsys.validate", "exactnum.factor", "canonical.arch",
                     "canonical.padic", "family.specialize", "family.ff_height"),
    "fibral-models": ("fibral.synth", "fibral.verify", "fibral.json"),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok    {what}")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path.cwd() / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def tiny_runs() -> None:
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "7",
                 "--tiny", "--trace", trace],
                capture_output=True, text=True, env=_env(), timeout=120,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(proc.returncode == 0 and result["correct"],
                   f"{name} tiny run, trace {trace}: correct, only known faults fail "
                   f"({result['failed']} of {result['attempted']})")
            if trace == "1":
                silent = [layer for layer in EXERCISED[name]
                          if not result["layers"][f"{layer}.calls"]]
                expect(not silent, f"{name} traced tiny run calls into {', '.join(EXERCISED[name])}")


def _shift_rows(out, delta):
    row = dataclasses.replace(out.rows[0], value=out.rows[0].value + delta)
    return dataclasses.replace(out, rows=[row] + out.rows[1:])


def corrupt(out):
    """The output moved past the tolerance its check allows."""
    name = type(out).__name__
    if name == "CanonicalHeightResult":
        return dataclasses.replace(out, value=out.value + max(1e-3, 10 * out.tail_bound))
    if name == "OracleResult":
        return dataclasses.replace(out, value=out.value + 1e-9)
    if name in ("VariationSweep", "LocalSweep"):
        return _shift_rows(out, 1e-7)
    if name == "RatioSweep":
        return dataclasses.replace(out, ff_value=out.ff_value + Fraction(1, 2**30))
    if name == "FFHeightResult":
        return dataclasses.replace(out, value=out.value + Fraction(1, 2**30))
    if isinstance(out, float):
        return out + 1e-2
    if isinstance(out, tuple):   # fibral: model file and its verification report
        text, report = out
        doc = json.loads(text)
        doc["points"][0]["iE"] = str(Fraction(doc["points"][0]["iE"]) + Fraction(1, 3))
        return json.dumps(doc), report
    raise TypeError(f"no corruption for {name}")


def checks_reject() -> None:
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7, tiny=True)
        for op in wl.ops:
            try:
                out = op.call()
            except DynHeightError as exc:
                expect(op.expect is not None and isinstance(exc, op.expect),
                       f"{name} {op.kind} {op.label}: fails with the known fault")
                continue
            expect(not op.check(out), f"{name} {op.kind} {op.label}: check accepts the output")
            expect(bool(op.check(corrupt(out))),
                   f"{name} {op.kind} {op.label}: check rejects a corrupted output")
    # The bit-for-bit comparison at finite places: the depth-8 rational of
    # another system must not pass for the word sum of S_bad.
    mono = workloads.load(workloads.SYSTEMS / "monomial.json").system
    check = workloads.check_padic_green(mono, (23, 31), 2, workloads.fixed_cfg(10))
    sbad = workloads.load(workloads.SBAD_FILE).system
    value = workloads.green_local(sbad, (23, 31), workloads.Place.prime(2), workloads.fixed_cfg(10))
    expect(any("exact" in p for p in check(value)), "p-adic check rejects a wrong exact rational")
    # A perturbed model run through the unperturbed check, and the reverse.
    seeds = workloads._model_seeds(random.Random(1), 1, workloads.FIBRAL_TINY_WINDOW)
    seed, shape = seeds[0]
    model = workloads.random_synthetic(seed, *workloads.FIBRAL_ARGS)
    good = workloads.fibral_pipeline(model)
    bad = workloads.fibral_pipeline(workloads.perturb(model))
    expect(bool(workloads.check_fibral(shape)(bad)), "fibral check rejects a perturbed model")
    expect(bool(workloads.check_fibral(shape, perturbed=True)(good)),
           "perturbed-model check rejects a model that verifies")


def _raise(exc):
    def call():
        raise exc
    return call


def unexpected_failures() -> None:
    wl = workloads.build("bad-reduction", 7, tiny=True)
    normal = next(i for i, op in enumerate(wl.ops) if op.expect is None)
    known = next(i for i, op in enumerate(wl.ops) if op.expect is not None)
    cases = (
        (normal, BadParameterError("injected"), "an op that should succeed raises"),
        (known, BadParameterError("injected"), "a known-fault op raises another error"),
    )
    for index, exc, what in cases:
        ops = list(wl.ops)
        ops[index] = dataclasses.replace(ops[index], call=_raise(exc))
        broken = dataclasses.replace(wl, ops=ops)
        _rounds, _failed, _lat, _loads, outputs, mismatches = worker.run_rounds(broken, 0.0, None)
        problems, _failures = worker.check_outputs(broken, outputs, traced=False)
        expect(bool(mismatches + problems), f"run reported incorrect when {what}")


def bare_directory() -> None:
    bare = HERE / "out" / "bare"
    bare.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "family-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py outside a checkout exits non-zero without a result")


def main() -> int:
    tiny_runs()
    checks_reject()
    unexpected_failures()
    bare_directory()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
