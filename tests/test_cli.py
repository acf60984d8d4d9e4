"""CLI surface: subcommands, file formats, exit codes, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import click
import pytest

from dynheight.cli import cli, load_system_file, main

ROOT = Path(__file__).resolve().parents[1]

MONOMIAL_DOC = {"space": {"dim": 1}, "maps": [{"lift": ["X0^2", "X1^2"]}, {"lift": ["X0^3", "X1^3"]}]}
X6_DOC = {"space": {"dim": 1}, "maps": [{"lift": ["X0^6", "X1^6"]}]}
X2P1_DOC = {"space": {"dim": 1}, "maps": [{"lift": ["X0^2+X1^2", "X1^2"]}]}
X2PT_DOC = {
    "space": {"dim": 1},
    "maps": [{"lift": ["X0^2+t*X1^2", "X1^2"]}],
    "section": ["0", "1"],
}
BAD_DOC = {"space": {"dim": 1}, "maps": [{"lift": ["X0^2", "X0*X1"]}]}


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "dynheight.cli", *args],
        capture_output=True,
        text=True,
        env=None if env is None else {**os.environ, **env},
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, doc in [
        ("monomial", MONOMIAL_DOC),
        ("x6", X6_DOC),
        ("x2p1", X2P1_DOC),
        ("x2pt", X2PT_DOC),
        ("bad", BAD_DOC),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def test_load_system_file(files):
    sf = load_system_file(files["monomial"])
    assert sf.kind == "system" and sf.system.alpha == 5
    ff = load_system_file(files["x2pt"])
    assert ff.kind == "family" and ff.section is not None


def test_validate_command(files):
    code, out, _err = run_cli("validate", "--system", files["monomial"])
    assert code == 0 and "alpha=5" in out
    code, out, _err = run_cli("validate", "--system", files["x2pt"])
    assert code == 0 and "good locus" in out


def test_validate_rejects_non_morphism(files):
    code, _out, err = run_cli("validate", "--system", files["bad"])
    assert code == 2 and "not a morphism" in err


def test_height_command(files):
    code, out, _err = run_cli(
        "height", "--system", files["monomial"], "--point", "2:1", "--eps", "1e-8"
    )
    assert code == 0
    value = float(out.splitlines()[0].split()[1])
    assert abs(value - math.log(2)) < 1e-8
    assert "inf," in out


def test_height_json_format(files):
    code, out, _err = run_cli(
        "height", "--system", files["x2p1"], "--point", "0:1", "--depth", "20",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 0.2036775) < 1e-4
    assert "inf" in doc["per_place"]


def test_oracle_and_green_and_local(files):
    code, out, _err = run_cli("oracle", "--system", files["monomial"], "--point", "2:1", "--depth", "6")
    assert code == 0 and abs(float(out.splitlines()[0].split()[1]) - math.log(2)) < 1e-10
    code, out, _err = run_cli("green", "--system", files["monomial"], "--point", "4:2", "--place", "p2")
    assert code == 0 and abs(float(out.split()[1]) - (-math.log(2))) < 1e-12
    code, out, _err = run_cli(
        "local", "--system", files["monomial"], "--point", "2:1", "--index", "1", "--place", "inf",
    )
    assert code == 0 and abs(float(out.split()[1]) - math.log(2)) < 1e-8


def test_point_on_divisor_exit_code(files):
    code, _out, err = run_cli(
        "local", "--system", files["monomial"], "--point", "0:1", "--index", "0",
    )
    assert code == 3 and "divisor" in err


def test_budget_exit_code(files):
    code, _out, err = run_cli(
        "height", "--system", files["monomial"], "--point", "2:1", "--depth", "40",
    )
    assert code == 4
    assert err == "error: budget exceeded: depth 23 needs 16777214 nodes > 10000000\n"


def test_bad_budget_env_exit_2(files):
    code, _out, err = run_cli(
        "height", "--system", files["monomial"], "--point", "2:1", "--depth", "3",
        env={"DYNHEIGHT_NODE_BUDGET": "abc"},
    )
    assert code == 2
    assert err == "error: DYNHEIGHT_NODE_BUDGET must be a nonnegative integer, got 'abc'\n"


def test_commute_command(files):
    code, out, _err = run_cli(
        "commute", "--system", files["monomial"], "--system2", files["x6"],
        "--samples", "5", "--seed", "1", "--depth", "18",
    )
    assert code == 0
    assert "seed=1" in out
    diffs = [float(line.split()[1]) for line in out.splitlines()[1:]]
    assert all(d < 1e-6 for d in diffs)
    code, _out, err = run_cli(
        "commute", "--system", files["x2p1"], "--system2", files["monomial"],
        "--samples", "3", "--seed", "1",
    )
    assert code == 2 and "do not commute" in err


def test_sweep_and_ratio_csv(files, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _out, err = run_cli(
        "sweep", "--system", files["x2pt"], "--t", "+-1..6", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,h_T,point,value,aux"
    assert len(lines) == 13
    assert "fit c1=" in err

    code, out, err = run_cli("ratio", "--system", files["x2pt"], "--t", "10,100,1000")
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert abs(float(last[3]) - 0.5) < 0.05
    assert "ff_height 1/2" in err


def test_local_sweep_csv(tmp_path):
    doc = {"space": {"dim": 1}, "maps": [{"lift": ["X0^2", "t*X1^2"]}], "section": ["1", "1"]}
    path = tmp_path / "ty2.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        "local-sweep", "--system", str(path), "--t", "2,4,8,16", "--place", "p2", "--index", "1",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(abs(float(r[3])) <= float(r[4]) for r in rows)
    assert "empirical_c" in err


def test_bad_parameters_skipped_not_fatal(tmp_path):
    doc = {"space": {"dim": 1}, "maps": [{"lift": ["X0^2", "t*X1^2"]}]}
    path = tmp_path / "ty2.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        "sweep", "--system", str(path), "--t", "0,2", "--point", "1:1",
    )
    assert code == 0
    assert "skipped=1" in err
    assert len(out.strip().splitlines()) == 2  # header + the good row


def test_fibral_solve(files):
    code, out, _err = run_cli(
        "fibral", "solve", "--alpha", "5",
        "--actions", "[[1,0],[0,1]]+[[0,1],[1,0]]", "--c", "1,0",
    )
    assert code == 0 and out.strip() == "4/15,1/15"


def test_fibral_synth_verify_roundtrip(tmp_path):
    model_path = tmp_path / "model.json"
    code, _out, _err = run_cli("fibral", "synth", "--seed", "42", "--out", str(model_path))
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert doc["seed"] == 42 and {"n", "k", "alpha", "actions", "c", "points"} <= set(doc)
    code, out, _err = run_cli("fibral", "verify", "--model", str(model_path))
    assert code == 0 and out.startswith("PASS")
    # perturb one intersection number: verification fails, exit 2, point named
    doc["points"][0]["iE"] = doc["points"][0]["iE"] + "1"  # corrupt the rational
    bad_path = tmp_path / "bad.json"
    doc["points"][0]["iE"] = "1/7"
    bad_path.write_text(json.dumps(doc))
    code, out, err = run_cli("fibral", "verify", "--model", str(bad_path))
    assert code == 2 and ("FAIL" in out)


def test_determinism_byte_identical(files, tmp_path):
    args = [
        "commute", "--system", files["monomial"], "--system2", files["x6"],
        "--samples", "4", "--seed", "9", "--depth", "16",
    ]
    outs = []
    for i in range(2):
        out_file = tmp_path / f"run{i}.txt"
        code, _out, _err = run_cli(*args, "--out", str(out_file))
        assert code == 0
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]

    models = []
    for i in range(2):
        path = tmp_path / f"m{i}.json"
        run_cli("fibral", "synth", "--seed", "5", "--out", str(path))
        models.append(path.read_bytes())
    assert models[0] == models[1]


SOLVE = ["fibral", "solve", "--actions", "[[1,0],[0,1]]"]


@pytest.mark.parametrize(
    "args",
    [
        ["green", "--system", "{monomial}", "--point", "2:1", "--place", "p4"],
        ["local", "--system", "{monomial}", "--point", "2:1", "--place", "foo"],
        ["green", "--system", "{monomial}", "--point", "a:1"],
        ["sweep", "--system", "{x2pt}", "--t", "1..x"],
        ["sweep", "--system", "{x2pt}", "--t", "1/0"],
        SOLVE + ["--alpha", "x", "--c", "1"],
        SOLVE + ["--alpha", "5", "--c", "x"],
        ["fibral", "solve", "--alpha", "5", "--actions", "5", "--c", "1"],
        ["fibral", "synth", "--seed", "1", "--components", "0"],
        ["fibral", "synth", "--seed", "1", "--maps", "0"],
        ["fibral", "synth", "--seed", "1", "--points", "0"],
        ["fibral", "synth", "--seed", "0", "--points", "3"],
        ["height", "--system", "{monomial}", "--point", "2:1", "--depth", "0"],
        ["sweep", "--system", "{x2pt}", "--t", "1e400"],
    ],
    ids=[
        "place-p4", "place-foo", "lift-a", "t-range", "t-zero-denominator", "alpha", "c",
        "actions-not-matrix", "components-0", "maps-0", "points-0", "points-below-components",
        "depth-0", "huge-coefficient",
    ],
)
def test_bad_arguments_exit_2(files, args):
    code, _out, err = run_cli(*[a.format(**files) for a in args])
    assert code == 2 and err.startswith("error: ")
    assert "Traceback" not in err


def test_main_entry_point(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--system", files["bad"]])
    assert exc.value.code == 2


def test_readme_examples_parse():
    # Parse, without running, every CLI example in the README.
    lines = [
        line.strip() for line in (ROOT / "README.md").read_text().splitlines()
        if line.startswith("    dynheight ")
    ]
    assert len(lines) >= 12
    for line in lines:
        args = shlex.split(line)[1:]
        cmd, name = cli, "dynheight"
        while isinstance(cmd, click.Group):
            name, args = args[0], args[1:]
            cmd = cmd.commands[name]
        ctx = cmd.make_context(name, args)
        for key in ("system_path", "other_path"):
            if ctx.params.get(key):
                assert (ROOT / ctx.params[key]).exists(), line
