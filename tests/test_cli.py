"""CLI surface: subcommands, file formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import click
import pytest
from hypothesis import given, settings, strategies as st

from dynheight.cli import cli, load_system_file, main
from dynheight.errors import ValidationError

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
# Malformed files: each must end in exit 2, never a traceback.
LONG = "1" * 5000
MALFORMED_SYSTEMS = {
    "dim_one": {"space": {"dim": "one"}, "maps": MONOMIAL_DOC["maps"]},
    "dim_float": {"space": {"dim": 1.5}, "maps": MONOMIAL_DOC["maps"]},
    "dim_str": {"space": {"dim": "1"}, "maps": MONOMIAL_DOC["maps"]},
    "dim_bool": {"space": {"dim": True}, "maps": MONOMIAL_DOC["maps"]},
    "dim_negative": {"space": {"dim": -1}, "maps": MONOMIAL_DOC["maps"]},
    "dim_zero": {"space": {"dim": 0}, "maps": MONOMIAL_DOC["maps"]},
    "section_int": {**X2PT_DOC, "section": 5},
    "section_short": {**X2PT_DOC, "section": ["t"]},
    "section_str": {**X2PT_DOC, "section": "t"},
    "lift_str": {"space": {"dim": 1}, "maps": [{"lift": "X0^2"}]},
    "p2_not_morphism": {"space": {"dim": 2}, "maps": [{"lift": ["X0^2", "X1^2", "0"]}]},
    # Literals past int()'s 4,300-digit limit.
    "coefficient_too_long": {"space": {"dim": 1}, "maps": [{"lift": [f"X0^2 + {LONG}*X1^2", "X1^2"]}]},
    "exponent_too_long": {"space": {"dim": 1}, "maps": [{"lift": [f"X0^{LONG}", "X1^2"]}]},
    "variable_too_long": {"space": {"dim": 1}, "maps": [{"lift": [f"X{LONG}^2", "X1^2"]}]},
    "section_too_long": {**X2PT_DOC, "section": [f"{LONG}*t", "1"]},
}
MODEL_DOC = {
    "n": 1, "k": 1, "alpha": "2", "actions": [[1]], "c": ["0"],
    "points": [{"id": 0, "sigma": 1, "images": [0], "iE": "0", "vf": "0"}],
}
MALFORMED_MODELS = {
    "model_alpha": {**MODEL_DOC, "alpha": "1/0"},
    "model_c": {**MODEL_DOC, "c": ["1/0"]},
    "model_iE": {**MODEL_DOC, "points": [{**MODEL_DOC["points"][0], "iE": "1/0"}]},
    "model_vf": {**MODEL_DOC, "points": [{**MODEL_DOC["points"][0], "vf": "1/0"}]},
    # Indices are JSON integers, not floats or bools.
    "model_n_bool": {**MODEL_DOC, "n": True},
    "model_k_bool": {**MODEL_DOC, "k": True},
    "model_action_float": {**MODEL_DOC, "n": 2, "actions": [[1, 1.5]], "c": ["0", "0"]},
    "model_id_float": {**MODEL_DOC, "points": [{**MODEL_DOC["points"][0], "id": 0.5}]},
    "model_sigma_float": {**MODEL_DOC, "points": [{**MODEL_DOC["points"][0], "sigma": 1.9}]},
    "model_images_float": {**MODEL_DOC, "points": [{**MODEL_DOC["points"][0], "images": [0.7]}]},
    # A model has a point, and its seed is a JSON integer or absent.
    "model_no_points": {**MODEL_DOC, "points": []},
    "model_seed_list": {**MODEL_DOC, "seed": [1, "x"]},
    # json.dumps writes the floats inf and -inf as Infinity and -Infinity.
    "model_alpha_inf": {**MODEL_DOC, "alpha": math.inf},
    "model_alpha_minus_inf": {**MODEL_DOC, "alpha": -math.inf},
    "model_iE_inf": {**MODEL_DOC, "points": [{**MODEL_DOC["points"][0], "iE": math.inf}]},
    "model_iE_minus_inf": {**MODEL_DOC, "points": [{**MODEL_DOC["points"][0], "iE": -math.inf}]},
}


def run_cli(*args, env=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "dynheight.cli", *args],
        capture_output=True,
        text=True,
        env=None if env is None else {**os.environ, **env},
        timeout=timeout,
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
        *MALFORMED_SYSTEMS.items(),
        *MALFORMED_MODELS.items(),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def test_load_system_file(files):
    sf = load_system_file(files["monomial"])
    assert sf.family is None and sf.system.alpha == 5
    ff = load_system_file(files["x2pt"])
    assert ff.system is None and ff.section is not None


def run_main(*args) -> tuple[int, str, str]:
    """main() in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("lift0", ["X0^2 + t*X1^2 - t*X1^2", "X0^2 + 0*t*X1^2"])
def test_t_terms_that_cancel_load_a_constant_system(tmp_path, lift0):
    # The family test reads the parsed coefficients, not the text: these
    # lifts are X0^2, X1^2 over Z.
    path = tmp_path / "cancel.json"
    path.write_text(json.dumps({"space": {"dim": 1}, "maps": [{"lift": [lift0, "X1^2"]}]}))
    sf = load_system_file(path)
    assert sf.family is None and sf.system is not None
    assert run_main("validate", "--system", str(path)) == (
        0, "system on P^1: k=1 alpha=2 degrees=[2]\nbad primes: []\n", "",
    )
    code, out, _err = run_main("height", "--system", str(path), "--point", "3:1", "--depth", "5")
    assert code == 0 and out.startswith("value 1.09861228867\n")


def test_constant_lift_with_a_section_is_a_family(tmp_path):
    doc = {"space": {"dim": 1}, "maps": [{"lift": ["X0^2+X1^2", "X1^2"]}], "section": ["t", "1"]}
    path = tmp_path / "const_section.json"
    path.write_text(json.dumps(doc))
    sf = load_system_file(path)
    assert sf.system is None and str(sf.section) == "t:1"
    assert run_main("validate", "--system", str(path)) == (
        0, "family on P^1: k=1 alpha=2 degrees=[2]\ngood locus R(t) = 1\nsection: t:1\n", "",
    )


def test_plus_minus_range_lists_t_zero_once():
    system = str(ROOT / "scripts" / "systems" / "x2plust.json")
    code, out, _err = run_main("sweep", "--system", system, "--t", "+-0")
    assert code == 0 and out == "t,h_T,point,value,aux\n0,0,0:1,0,0\n"
    code, out, _err = run_main("sweep", "--system", system, "--t", "+-0..2")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["0", "1", "-1", "2", "-2"]


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


def test_height_warns_when_eps_is_missed():
    # The float allowance alone, 1e-10 * (1 + h), is above 1e-13.
    args = ("height", "--system", str(ROOT / "scripts" / "systems" / "x2plus1.json"),
            "--point", "3:1", "--eps", "1e-13")
    code, out, err = run_cli(*args)
    assert code == 0 and "tail_bound 2.15475063122e-10" in out
    assert err == "warning: target not met: tail_bound 2.15475063122e-10 > --eps 1e-13\n"
    code, out, _err = run_cli(*args, "--format", "json")
    assert code == 0 and json.loads(out)["target_met"] is False
    monomial = str(ROOT / "scripts" / "systems" / "monomial.json")
    code, out, err = run_cli("height", "--system", monomial, "--point", "2:1", "--eps", "1e-8",
                             "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["target_met"] is True
    code, out, err = run_cli("height", "--system", monomial, "--point", "2:1", "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["target_met"] is None


def test_oracle_and_green_and_local(files):
    code, out, _err = run_cli("oracle", "--system", files["monomial"], "--point", "2:1", "--depth", "6")
    assert code == 0 and abs(float(out.splitlines()[0].split()[1]) - math.log(2)) < 1e-10
    code, out, _err = run_cli("green", "--system", files["monomial"], "--point", "4:2", "--place", "p2")
    assert code == 0 and abs(float(out.split()[1]) - (-math.log(2))) < 1e-12
    code, out, _err = run_cli(
        "local", "--system", files["monomial"], "--point", "2:1", "--index", "1", "--place", "inf",
    )
    assert code == 0 and abs(float(out.split()[1]) - math.log(2)) < 1e-8


def test_oracle_beyond_the_float_range():
    # At depth 450, alpha^n = 5^450 and the word count 2^450 at the fixed
    # point 1:1 are past the largest float; the weights are int divisions.
    monomial = str(ROOT / "scripts" / "systems" / "monomial.json")
    code, out, err = run_cli("oracle", "--system", monomial, "--point", "1:1", "--depth", "450")
    assert (code, out.splitlines()[0], err) == (0, "value 0", "")


def test_green_adaptive_bad_prime():
    # -ln 2 / 19; the walk keeps only the digits its remaining depth can read
    sbad = str(ROOT / "perfbench" / "systems" / "sbad.json")
    code, out, err = run_cli(
        "green", "--system", sbad, "--point", "5:7", "--place", "p2", "--eps", "1e-9",
    )
    assert (code, out, err) == (0, "value -0.0364814305543\n", "")
    assert abs(float(out.split()[1]) + math.log(2) / 19) < 1e-9


def test_deep_fixed_green_at_bad_prime():
    # -ln 3 / 4 at depth 300: sbad's residue classes at 3 close, so the walk
    # holds a few classes per level instead of 900-digit residues
    sbad = str(ROOT / "perfbench" / "systems" / "sbad.json")
    code, out, err = run_cli(
        "green", "--system", sbad, "--point", "5:7", "--place", "p3", "--depth", "300",
        timeout=60,
    )
    assert (code, out, err) == (0, "value -0.274653072167\n", "")


def test_point_on_divisor_exit_code(files):
    code, _out, err = run_cli(
        "local", "--system", files["monomial"], "--point", "0:1", "--index", "0",
    )
    assert code == 3 and "divisor" in err


@pytest.mark.parametrize("extra_maps", [[], [{"lift": ["X0^2", "X1^2"]}]])
def test_float_overflow_is_not_an_indeterminate_point(tmp_path, extra_maps):
    # The image of 1:1 overflows the float range at the first level, on the
    # one-map chain and on the two-map numpy tree alike.
    big = str(10**308)
    doc = {"space": {"dim": 1}, "maps": [{"lift": [f"{big}*X0^2+{big}*X1^2", "X1^2"]}, *extra_maps]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        "green", "--system", str(path), "--place", "inf", "--point", "1:1", "--depth", "5"
    )
    assert (code, out) == (2, "")
    assert err == "error: float overflow in the archimedean walk at depth 1\n"


def test_budget_exit_code(files):
    code, _out, err = run_cli(
        "height", "--system", files["monomial"], "--point", "2:1", "--depth", "40",
    )
    assert code == 4
    assert err == "error: budget exceeded: depth 23 needs 16777214 nodes > 10000000\n"


def test_doomed_adaptive_height_exits_4():
    # The tail at the budget horizon is above eps after level 2, so the
    # walk is refused there with the error that depth 23 would raise.
    cheb = str(ROOT / "scripts" / "systems" / "chebyshev23.json")
    code, out, err = run_cli("height", "--system", cheb, "--point", "5:7", "--eps", "1e-9")
    assert (code, out) == (4, "")
    assert err == "error: budget exceeded: depth 23 needs 16777214 nodes > 10000000\n"


def test_huge_fixed_depth_at_bad_prime_exits_4():
    # Refused before the walk builds residues of depth*r + 1 digits.
    sbad = str(ROOT / "perfbench" / "systems" / "sbad.json")
    code, out, err = run_cli(
        "green", "--system", sbad, "--point", "5:7", "--place", "p3", "--depth", "10000000",
        timeout=20,
    )
    assert (code, out) == (4, "")
    assert err == "error: budget exceeded: depth 10000000 needs at least 20000000 nodes > 10000000\n"


def test_unfactorable_resultant_exits_4(tmp_path):
    # A 37-digit semiprime with two 19-digit factors: Pollard rho would need
    # about 10^9 steps; the step cap stops validate in a few seconds.
    n = 1000000000000000003 * 3000000000000000037
    path = tmp_path / "semiprime.json"
    path.write_text(json.dumps({"space": {"dim": 1}, "maps": [{"lift": ["X0^2+X1^2", f"{n}*X1^2"]}]}))
    code, out, err = run_cli("validate", "--system", str(path), timeout=30)
    assert code == 4
    assert out == ""
    assert err == "error: cannot factor a 37-digit number within 2,000,000 rho steps\n"


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


def test_local_sweep_skips_a_point_on_the_divisor(tmp_path):
    # The section t:1 lies on {x_0 = 0} at t = 0: that fiber is skipped and
    # counted, the others give rows.
    doc = {"space": {"dim": 1}, "maps": [{"lift": ["X0^2+t*X1^2", "X1^2"]}], "section": ["t", "1"]}
    path = tmp_path / "x2pt_section_t.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        "local-sweep", "--system", str(path), "--index", "0", "--place", "inf", "--t", "0,1,2",
    )
    assert code == 0
    assert out == (
        "t,h_T,point,value,aux\n"
        "1,0,1:1,0.407354522739,0\n"
        "2,0.69314718056,2:1,0.216422429562,0\n"
    )
    assert err == "empirical_c 0.407354522739 skipped=1\n"


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
    # An empty matrix is named as such, not as a correction of the wrong length.
    code, _out, err = run_main("fibral", "solve", "--alpha", "5", "--actions", "[]", "--c", "1")
    assert code == 2 and "action matrix is empty" in err


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
# t = 0 is outside the good locus of ty2_family.json: every fiber is skipped,
# so these arguments must be checked before the fiber loop.
TY2_AT_0 = ["--system", str(ROOT / "scripts/systems/ty2_family.json"), "--t", "0"]


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
        SOLVE + ["--alpha", "1/2", "--c", "1,1"],
        ["fibral", "solve", "--alpha", "5", "--actions", "5", "--c", "1"],
        ["fibral", "solve", "--alpha", "5", "--actions", "[[false,true],[true,false]]", "--c", "1,0"],
        ["fibral", "solve", "--alpha", "5", "--actions", "[[1.0]]", "--c", "1"],
        ["fibral", "solve", "--alpha", "5", "--actions", "[]", "--c", "1"],
        ["fibral", "synth", "--seed", "1", "--components", "0"],
        ["fibral", "synth", "--seed", "1", "--maps", "0"],
        ["fibral", "synth", "--seed", "1", "--points", "0"],
        ["fibral", "synth", "--seed", "0", "--points", "3"],
        ["height", "--system", "{monomial}", "--point", "2:1", "--depth", "0"],
        ["sweep", "--system", "{x2pt}", "--t", "1e400"],
        ["green", "--system", "{monomial}", "--point", "5"],
        ["green", "--system", "{monomial}", "--point", "5", "--place", "p2"],
        ["green", "--system", "{monomial}", "--point", "1:2:3"],
        ["local", "--system", "{monomial}", "--point", "1:2:3"],
        ["commute", "--system", "{monomial}", "--system2", "{x6}", "--samples", "0"],
        ["commute", "--system", "{monomial}", "--system2", "{x6}", "--samples", "-3"],
        ["height", "--system", "{monomial}", "--point", "2:1", "--eps", "nan"],
        ["commute", "--system", "{monomial}", "--system2", "{x6}", "--eps", "nan"],
        ["green", "--system", "{monomial}", "--point", "5:7", "--place", "p3", "--eps", "nan"],
        ["height", "--system", "{monomial}", "--point", "2:1", "--eps", "inf"],
        ["sweep", "--system", "{x2pt}", "--t", "1", "--eps", "inf"],
        ["sweep", "--system", "{x2pt}", "--t", "+--2..2"],
        ["sweep", "--system", "{x2pt}", "--t", "±-2..2"],
        ["green", "--system", "{monomial}", "--point", "2:1", "--place", f"p{LONG}"],
        ["green", "--system", "{monomial}", "--point", "2:1", "--place", "infinity"],
        ["local-sweep", *TY2_AT_0, "--place", "p2", "--index", "7"],
        ["sweep", *TY2_AT_0, "--point", "1:2:3"],
        ["ratio", *TY2_AT_0, "--point", "1:2:3", "--ff-depth", "0"],
        ["local-sweep", *TY2_AT_0, "--point", "1:2:3", "--place", "p2"],
        *(["validate", "--system", f"{{{name}}}"] for name in MALFORMED_SYSTEMS),
        *(["fibral", "verify", "--model", f"{{{name}}}"] for name in MALFORMED_MODELS),
    ],
    ids=[
        "place-p4", "place-foo", "lift-a", "t-range", "t-zero-denominator", "alpha", "c", "alpha-at-most-k",
        "actions-not-matrix", "actions-bool", "actions-float", "actions-empty",
        "components-0", "maps-0", "points-0", "points-below-components",
        "depth-0", "huge-coefficient", "green-one-coordinate", "green-one-coordinate-p2",
        "green-three-coordinates", "local-three-coordinates", "samples-0", "samples-negative",
        "height-eps-nan", "commute-eps-nan", "green-eps-nan", "height-eps-inf", "sweep-eps-inf",
        "t-sign-after-plus-minus", "t-sign-after-pm", "place-too-long", "place-infinity",
        "local-sweep-index-7", "sweep-section-p2", "ratio-section-p2", "local-sweep-section-p2",
        *MALFORMED_SYSTEMS, *MALFORMED_MODELS,
    ],
)
def test_bad_arguments_exit_2(files, args):
    code, _out, err = run_cli(*[a.format(**files) for a in args])
    assert code == 2 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", [name for name in MALFORMED_SYSTEMS if name.startswith("dim_")])
def test_space_dim_must_be_a_positive_integer(files, name):
    with pytest.raises(ValidationError, match="space.dim must be an integer >= 1"):
        load_system_file(files[name])


@pytest.mark.parametrize("lift", ["X0^2", "01"])
def test_lift_must_be_a_list(tmp_path, lift):
    # A string is rejected by name, not parsed one character at a time.
    path = tmp_path / "lift.json"
    path.write_text(json.dumps({"space": {"dim": 1}, "maps": [{"lift": lift}]}))
    with pytest.raises(ValidationError, match="each lift must be a list of 2 polynomials"):
        load_system_file(path)


# System-file fuzz: a well-formed P^1 document of degree d <= 3, then up to
# two corruptions.  Token soup is joined by spaces, so every exponent is one
# digit.  Dims stop at 2, because a random P^3 lift of degree 6 already makes
# a Macaulay matrix of 2,024 rows.
FUZZ_TOKENS = ["X0", "X1", "X2", "t", "0", "2", "3", "+", "-", "*", "^2", "^3", "^", "x", "/", "(", ""]
FUZZ_DIMS = [2, 0, -1, "1", 1.5, True, None, [1]]


@st.composite
def fuzz_docs(draw):
    d = draw(st.integers(1, 3))
    term = st.tuples(st.sampled_from(["+", "-"]), st.sampled_from(["1", "2", "t", "0"]), st.integers(0, d)).map(
        lambda sca: sca[0] + " " + " * ".join([sca[1]] + ["X0"] * sca[2] + ["X1"] * (d - sca[2]))
    )
    soup = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=6).map(" ".join)

    def lift():
        return [" ".join([f"X{i}^{d}", *draw(st.lists(term, max_size=2))]) for i in (0, 1)]

    maps = [{"lift": lift()} for _ in range(draw(st.integers(1, 3)))]
    doc = {"space": {"dim": 1}, "maps": maps}
    if draw(st.booleans()):
        doc["section"] = draw(st.lists(st.sampled_from(["t", "1", "t^2 - 3", "0", "2*t"]), min_size=2, max_size=2))
    for corruption in draw(st.lists(st.integers(0, 5), max_size=2)):
        entry = maps[draw(st.integers(0, len(maps) - 1))]
        if corruption == 0:
            doc["space"]["dim"] = draw(st.sampled_from(FUZZ_DIMS))
        elif corruption == 1:
            entry["lift"] = [lift()[0], draw(soup)]
        elif corruption == 2:
            entry["lift"] = draw(st.one_of(soup, st.integers(), st.none()))
        elif corruption == 3:
            entry["lift"] = lift()[: draw(st.integers(0, 1))] or [*lift(), draw(soup)]
        elif corruption == 4:
            maps.clear()
            maps.append({"lift": lift()})
            doc["maps"] = draw(st.sampled_from([[], maps, {"lift": maps}]))
        else:
            doc["section"] = draw(st.one_of(st.lists(soup, max_size=3), soup, st.integers()))
    return doc


@given(fuzz_docs())
@settings(max_examples=120, deadline=None)
def test_fuzzed_system_files_exit_cleanly(doc):
    # Whatever the document, validate and height end in an exit code, never
    # in an exception escaping main (exit 1 and a traceback).
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(doc))
        for args in (["validate"], ["height", "--point", "2:1", "--depth", "3"]):
            code, _out, _err = run_main(*args, "--system", str(path))
            assert code in {0, 2, 3, 4}, (args, doc)


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
