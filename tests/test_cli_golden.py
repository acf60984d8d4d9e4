"""Golden CLI bytes: every README example, run for real, against pinned output.

The pins are exit code, stdout and stderr of each command, plus the SHA-256
of the files written with --out.  `commute` runs with --samples 3 instead of
the default 20 to keep the suite fast.  A README example added without a pin
fails the test, so the pins and the README move together.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = {
    "validate --system scripts/systems/chebyshev23.json": (
        0, "system on P^1: k=2 alpha=5 degrees=[2, 3]\nbad primes: []\n", "", {},
    ),
    "height --system scripts/systems/monomial.json --point 2:1 --eps 1e-8": (
        0,
        "value 0.69314718056\ntail_bound 1.69314718056e-10\ndepth_used 2\n"
        "place,value\ninf,0.69314718056\n",
        "",
        {},
    ),
    "oracle --system scripts/systems/x2plus1.json --point 0:1 --depth 12": (
        0, "value 0.20367726137\ntail_bound 0.000169225506247\ndepth 12\n", "", {},
    ),
    "local --system scripts/systems/monomial.json --point 2:1 --index 1 --place inf": (
        0, "value 0.69314718056\n", "", {},
    ),
    "green --system scripts/systems/monomial.json --point 4:2 --place p2": (
        0, "value -0.69314718056\n", "", {},
    ),
    "commute --system scripts/systems/monomial.json --system2 scripts/systems/x6.json --seed 1": (
        0, "# seed=1 samples=3\nmax_green_difference 0\nmax_height_difference 0\n", "", {},
    ),
    "sweep --system scripts/systems/x2plust.json --t +-1..50 --out sweep.csv": (
        0,
        "",
        "fit c1=0.449201310139 c2=0.20367726137 violations=0 skipped=0\n",
        {"sweep.csv": "f7ede45f456c5d10cd60cb43f3ca50049c61cfbf4228e006f2a9cb895cbbb76c"},
    ),
    "ratio --system scripts/systems/x2plust.json --t 10,100,1000,10000,100000,1000000": (
        0,
        "t,h_T,point,value,aux\n"
        "10,2.30258509299,0:1,0.510393019744,0.0103930197438\n"
        "100,4.60517018599,0:1,0.500540198331,0.00054019833139\n"
        "1000,6.90775527898,0:1,0.500036173141,3.61731413361e-05\n"
        "10000,9.21034037198,0:1,0.500002714205,2.71420481757e-06\n"
        "100000,11.512925465,0:1,0.500000217146,2.17146155168e-07\n"
        "1000000,13.815510558,0:1,0.500000018096,1.80955943563e-08\n",
        "ff_height 1/2 skipped=0\n",
        {},
    ),
    "local-sweep --system scripts/systems/ty2_family.json --t 2,4,8,16 --place p2 --index 1": (
        0,
        "t,h_T,point,value,aux\n"
        "2,0.69314718056,1:1,0,1.38629436112\n"
        "4,1.38629436112,1:1,0,2.77258872224\n"
        "8,2.07944154168,1:1,0,4.15888308336\n"
        "16,2.77258872224,1:1,0,5.54517744448\n",
        "empirical_c 0 skipped=0\n",
        {},
    ),
    "fibral solve --alpha 5 --actions [[1,0],[0,1]]+[[0,1],[1,0]] --c 1,0": (
        0, "4/15,1/15\n", "", {},
    ),
    "fibral synth --seed 42 --out model.json": (
        0,
        "",
        "",
        {"model.json": "94b1d0c0ab94c872b1a7511a301cf98bc38971a5b1fe21d0b98570abef2fbc10"},
    ),
    "fibral verify --model model.json": (
        0,
        "PASS: weights residual 0, balance residual 0, fixed-point error 1.110e-16 "
        "(bound 1.000e-09)\n",
        "",
        {},
    ),
}


def readme_examples() -> list[list[str]]:
    return [
        shlex.split(line)[1:]
        for line in (ROOT / "README.md").read_text().splitlines()
        if line.startswith("    dynheight ")
    ]


def test_readme_examples_match_golden_bytes(tmp_path):
    # Run in order in one directory: `fibral verify` reads synth's model.json.
    (tmp_path / "scripts").symlink_to(ROOT / "scripts")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    examples = readme_examples()
    assert [" ".join(args) for args in examples] == list(GOLDEN)
    for args in examples:
        key = " ".join(args)
        if args[0] == "commute":
            args = [*args, "--samples", "3"]
        proc = subprocess.run(
            [sys.executable, "-m", "dynheight.cli", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        code, stdout, stderr, files = GOLDEN[key]
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr), key
        for name, digest in files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, key


def test_readme_criterion_index_names_one_test_each():
    # `-k criterion_N` selects by substring, so criterion_1 would also run criterion_10.
    keywords = re.findall(r"-k (criterion_\d+)`", (ROOT / "README.md").read_text())
    assert keywords
    names = re.findall(r"^def (test_\w+)", (ROOT / "tests" / "test_acceptance.py").read_text(), re.M)
    for keyword in keywords:
        matched = [name for name in names if keyword in name]
        assert len(matched) == 1 and matched[0].startswith(f"test_{keyword}_"), (keyword, matched)
