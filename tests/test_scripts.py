"""Smoke runs of the README experiment scripts (scripts/run_*.py) with small arguments."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script, small arguments, a pattern its summary line (stdout or stderr) must match
SCRIPTS = [
    ("run_commuting_check.py", ["--samples", "2"],
     r"chebyshev height of \[3:1\]: 0\.96242365 \(closed form 0\.96242365\)"),
    ("run_fibral_models.py", ["--seeds", "3"], r"# verified 3 seeded models, failures=0"),
    ("run_limit_ratio.py", ["--max-exponent", "2"], r"# ff_height=1/2 \(ratios converge to it\)"),
    ("run_local_sweep.py", [], r"# place p7: empirical_c=0\.000000"),
    ("run_variation_sweep.py", ["--tmax", "3"], r"# rows=6 c1=\S+ c2=\S+ holdout_violations=0"),
]


@pytest.mark.parametrize("script, args, summary", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_experiment_script_runs(script, args, summary):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(summary, proc.stdout + proc.stderr), (proc.stdout, proc.stderr)
