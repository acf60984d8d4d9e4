"""Seeded inputs and the fixed op list of each benchmark workload.

An op is one public dynheight call, the same call a CLI command makes.  Each
op carries two things:

* ``call``: the call, timed as one op.  The traced run makes the same call
  with the layers' entry points instrumented (tracing.instrument);
* ``check``: a comparison of the op's output with ``reference.py``, which
  returns a list of problems (empty when the output is right).

An op built with ``expect`` is kept for a known fault: it fails every time
with that exception on inputs that do not depend on the seed.  If a later
version makes it succeed, its output is checked like any other.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import dynheight.cli as dh_cli
from dynheight import (
    GreenConfig,
    Place,
    Section,
    canonical_height,
    canonical_height_oracle_detailed,
    ff_canonical_height,
    green_local,
    green_profile,
    limit_ratio,
    local_variation_sweep,
    model_from_json,
    model_to_json,
    normalize,
    random_synthetic,
    solve_weights,
    variation_sweep,
    verify_intersection_formula,
)
from dynheight.canonical import FLOAT_SLACK
from dynheight.cli import SystemFile
from dynheight.errors import BudgetExceededError
from dynheight.rng import Lcg64

import reference as R

WORKLOADS = ("commuting-heights", "bad-reduction", "family-sweep", "fibral-models")

SYSTEMS = Path("scripts/systems")
SBAD_FILE = Path(__file__).resolve().parent / "systems" / "sbad.json"

# What `height --eps 1e-9` and the sweeps' default --eps run.
EPS = 1e-9


def sweep_tol(ref: float) -> float:
    """Sweep rows report no tail: the adaptive walk stops once its tail is
    below EPS, and the program allows FLOAT_SLACK * (1 + |h|) for floats."""
    return EPS + FLOAT_SLACK * (1.0 + abs(ref))


def eps_cfg(budget: int | None = None) -> GreenConfig:
    return GreenConfig(depth=60, target_eps=EPS, mode="adaptive", node_budget=budget)


def fixed_cfg(depth: int) -> GreenConfig:
    return GreenConfig(depth=depth, mode="fixed")


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    expect: type[Exception] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Callable[[], Any]] = field(default_factory=list)
    # CPU seconds of set-up spent searching the benchmark's own inputs (not
    # in dynheight); run.py takes them out of setup_s.
    search_s: float = 0.0


def fibral_pipeline(model):
    """`fibral synth --out m.json` then `fibral verify --model m.json`."""
    text = model_to_json(model)
    report = verify_intersection_formula(model_from_json(text))
    return text, report


# -- checks ------------------------------------------------------------------------


def _close(what: str, value: float, ref: float, tol: float) -> list[str]:
    if R.within(value, ref, tol):
        return []
    return [f"{what}: {value!r} differs from reference {ref!r} by more than {tol:.3g}"]


def check_height(ref: float):
    def check(out) -> list[str]:
        return _close("height", out.value, ref, out.tail_bound)
    return check


def check_sbad_height(coords, deep: int):
    """Depth-`deep` height against the reference word sum at depth 8."""
    def check(out) -> list[str]:
        ref, ref_tail = R.word_height_sum(R.S_BAD, coords, 8)
        problems = _close("height", out.value, ref, ref_tail + out.tail_bound)
        for place, value in out.per_place.items():
            if place.is_infinite:
                continue
            p = place.p
            exact = float(R.green_padic_exact(R.S_BAD, coords, p, 8)) * math.log(p)
            tol = R.padic_tail(R.S_BAD, p, 8) + R.padic_tail(R.S_BAD, p, deep)
            problems += _close(f"per-place p{p}", value, exact, tol)
        if out.depth_used != deep:
            problems.append(f"depth_used {out.depth_used} != {deep}")
        return problems
    return check


def check_padic_green(system, coords, p: int, cfg: GreenConfig):
    """Deep value within the certified tails of the exact depth-8 word sum, and
    the program's exact depth-8 rational equal to the word sum bit for bit."""
    def check(out) -> list[str]:
        ref8 = R.green_padic_exact(R.S_BAD, coords, p, 8)
        tol = R.padic_tail(R.S_BAD, p, 8) + (
            R.padic_tail(R.S_BAD, p, cfg.depth) if cfg.mode == "fixed" else cfg.target_eps
        )
        problems = _close(f"green p{p}", out, float(ref8) * math.log(p), tol)
        exact8 = green_profile(system, coords, Place.prime(p), fixed_cfg(8)).exact
        if exact8 != ref8:
            problems.append(f"p{p} depth-8 exact {exact8} != word sum {ref8}")
        return problems
    return check


def check_oracle(coords, depth: int):
    def check(out) -> list[str]:
        ref, ref_tail = R.word_height_sum(R.S_BAD, coords, depth)
        problems = _close("oracle", out.value, ref, 0.0)
        if out.tail_bound < ref_tail:
            problems.append(f"oracle tail {out.tail_bound} below the measured {ref_tail}")
        return problems
    return check


def check_rows(rows, refs, what: str) -> list[str]:
    problems = []
    if len(rows) != len(refs):
        return [f"{what}: {len(rows)} rows, expected {len(refs)}"]
    for row, (t, point, value, aux) in zip(rows, refs):
        if row.t != t or row.point != point:
            problems.append(f"{what}: row ({row.t}, {row.point}) expected ({t}, {point})")
            continue
        problems += _close(f"{what} t={t} h_T", row.h_t, math.log(abs(t)), 0.0)
        problems += _close(f"{what} t={t} value", row.value, value, sweep_tol(value))
        problems += _close(f"{what} t={t} aux", row.aux, aux, sweep_tol(aux))
    return problems


def check_variation(refs_fn, what: str):
    def check(out) -> list[str]:
        problems = check_rows(out.rows, refs_fn(), what)
        if out.skipped:
            problems.append(f"{what}: unexpected skips {out.skipped}")
        if out.c1 < 0 or out.c2 < 0:
            problems.append(f"{what}: negative envelope ({out.c1}, {out.c2})")
        flagged = {id(r) for r in out.violations}
        for r in out.rows:
            if id(r) not in flagged and r.value > out.c1 * r.h_t + out.c2 + sweep_tol(r.value):
                problems.append(f"{what}: row t={r.t} above the envelope but not flagged")
        return problems
    return check


def check_ff(depth: int):
    def check(out) -> list[str]:
        if out.value != R.X2PLUST_SECTION_FF_HEIGHT or out.depth != depth:
            return [f"ff height {out.value} at depth {out.depth}, expected 1/2 at {depth}"]
        return []
    return check


def check_ratio(ts):
    def check(out) -> list[str]:
        problems = []
        if out.ff_value != R.X2PLUST_SECTION_FF_HEIGHT:
            problems.append(f"limit_ratio ff height {out.ff_value}, expected 1/2")
        refs = []
        for t in ts:
            h = R.x2plust_height(t) / math.log(abs(t))
            refs.append((t, "0:1", h, abs(h - 0.5)))
        return problems + check_rows(out.rows, refs, "limit_ratio")
    return check


def check_local(ts, a, b, place: int | None):
    def check(out) -> list[str]:
        refs = [
            (t, f"{a}:{b}", R.ty2_local(t, a, b, place) - R.hyperplane_local(a, b, place),
             R.ty2_boundary(t, place))
            for t in ts
        ]
        problems = check_rows(out.rows, refs, "local sweep")
        emp = max((abs(v) / max(1.0, aux) for _t, _p, v, aux in refs), default=0.0)
        problems += _close("empirical_c", out.empirical_c, emp, sweep_tol(emp))
        return problems
    return check


PERTURBATION = Fraction(1, 7)


def perturb_target(model) -> int:
    """Id of the first point that no point maps to (else the first point)."""
    images = {q for pt in model.points for q in pt.images}
    return next((pt.pid for pt in model.points if pt.pid not in images), model.points[0].pid)


def perturb(model):
    """The model with iE raised by PERTURBATION at perturb_target(model)."""
    return model.with_perturbed_intersection(perturb_target(model), PERTURBATION)


def check_fibral(shape_expected, perturbed: bool = False):
    def check(out) -> list[str]:
        text, report = out
        doc = json.loads(text)
        problems = []
        got = (int(doc["n"]), int(doc["k"]), len(doc["points"]))
        if got != shape_expected:
            problems.append(f"model shape {got} != predicted {shape_expected}")
        model = model_from_json(text)
        x = solve_weights(model.alpha, model.actions, model.c).x
        if R.weight_residual(doc, x) != 0:
            problems.append("weight equations do not hold at the solved weights")
        residuals = R.balance_residuals(doc)
        if dict(report.failures) != residuals:
            problems.append(f"failures {report.failures} != reference residuals {residuals}")
        if not perturbed:
            if residuals or not report.ok:
                problems.append("unperturbed model fails verification")
            return problems
        pid = perturb_target(model)
        has_preimage = any(pid in pt.images for pt in model.points)
        if report.ok or pid not in residuals:
            problems.append(f"perturbed point {pid} not reported")
        elif not has_preimage and residuals != {pid: -model.alpha * PERTURBATION}:
            problems.append(f"residuals {residuals}, expected -alpha/7 at point {pid} only")
        return problems
    return check


# -- inputs ------------------------------------------------------------------------


def _coprime_point(rng: random.Random, a_range, b_range, accept=lambda a, b: True):
    while True:
        a = rng.choice((-1, 1)) * rng.randint(*a_range)
        b = rng.randint(*b_range)
        if a and b and math.gcd(a, b) == 1 and accept(a, b):
            return a, b


def _distinct_points(rng, count, *args, **kwargs) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    while len(out) < count:
        pt = _coprime_point(rng, *args, **kwargs)
        if pt not in out:
            out.append(pt)
    return out


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        q = rng.randint(lo, hi) | 1
        if R.is_prime(q):
            return q


def fibral_shape(seed: int, max_components: int, max_maps: int, max_points: int):
    """(components, maps, points) that random_synthetic(seed, ...) will draw.

    Reads the same Lcg64 stream in the same order as random_synthetic, so the
    benchmark can keep models of one size without building the others.  The
    check compares the built model with this prediction.
    """
    rng = Lcg64(seed)
    n = rng.randint(1, max_components)
    k = rng.randint(1, max_maps)
    if n > 1 and rng.below(2):
        rng.randint(1, max(1, (n - 1) * k * 2))
    else:
        rng.randint(1, 4)
    for _ in range(k * n):
        rng.below(n)
    for _ in range(n):
        rng.small_fraction()
    return n, k, rng.randint(n, max_points)


# -- the workloads -----------------------------------------------------------------


def load(path) -> SystemFile:
    """What every CLI command does first: load and validate a system file;
    for a constant system, compute its bad primes as heights need them."""
    sf = dh_cli.load_system_file(path)
    if sf.system is not None:
        sf.system.bad_primes()
    return sf


def _height_op(kind, system, a, b, cfg, check, expect=None) -> Op:
    point = normalize((a, b))
    return Op(
        kind,
        f"{a}:{b}",
        lambda: canonical_height(system, point, cfg),
        check,
        expect,
    )


def commuting_heights(rng, tiny: bool) -> Workload:
    cheb = load(SYSTEMS / "chebyshev23.json").system
    mono = load(SYSTEMS / "monomial.json").system
    depth = 12 if tiny else 20
    # As many cheap ops below the depth-20 heights as failing ops above them,
    # and unequal CHEB and MONOMIAL counts, put op_p50_ms inside one op kind.
    n_cheb, n_mono, n_eps = (1, 1, 1) if tiny else (5, 3, 2)
    pts = _distinct_points(rng, n_cheb + n_mono + n_eps, (0, 40), (1, 40))
    ops = []
    for i, (a, b) in enumerate(pts[:n_cheb + n_mono]):
        if i % 2 == 0 or i >= 2 * n_mono:
            ops.append(_height_op("cheb.depth", cheb, a, b, fixed_cfg(depth),
                                  check_height(R.chebyshev_height(a, b))))
        else:
            ops.append(_height_op("mono.depth", mono, a, b, fixed_cfg(depth),
                                  check_height(R.monomial_height(a, b))))
    for a, b in pts[n_cheb + n_mono:]:
        ops.append(_height_op("mono.eps", mono, a, b, eps_cfg(),
                              check_height(R.monomial_height(a, b))))
    # Kept for a fault: the walk expands all 2^m words of a commuting system and
    # exceeds the node budget at depth 23 before the tail reaches 1e-9.
    budget = 10**4 if tiny else None
    for a, b in ((5, 7), (2, 1)):
        ops.append(_height_op("cheb.eps", cheb, a, b, eps_cfg(budget),
                              check_height(R.chebyshev_height(a, b)), BudgetExceededError))
    warm = normalize((3, 2))
    warmup = [lambda: canonical_height(cheb, warm, fixed_cfg(2)),
              lambda: canonical_height(mono, warm, eps_cfg())]
    return Workload("commuting-heights", ops, warmup)


def bad_reduction(rng, tiny: bool) -> Workload:
    sbad = load(SBAD_FILE).system
    height_depth, green_depth = (10, 10) if tiny else (16, 20)
    oracle_depth = 6 if tiny else 8
    # Counts of heights, green p2, green p3 and oracle ops.  The heights sit
    # between the cheap p3 and oracle ops and the dearer p2 ones, so
    # op_p50_ms falls among eight distinct height points.
    counts = (1, 1, 1, 1) if tiny else (8, 4, 2, 2)
    # One 2- and 3-adic type (a, b prime to 6) keeps the p-adic walks of
    # comparable cost from seed to seed: when p divides b the walk is trivial.
    pts = _distinct_points(rng, sum(counts), (20, 40), (20, 40),
                           accept=lambda a, b: math.gcd(a * b, 6) == 1)
    it = iter(pts)
    cfg = fixed_cfg(green_depth)
    ops = []
    for _ in range(counts[0]):
        a, b = next(it)
        ops.append(_height_op("height", sbad, a, b, fixed_cfg(height_depth),
                              check_sbad_height((a, b), height_depth)))

    def green_op(kind, coords, p, gcfg, expect=None):
        place = Place.prime(p)
        return Op(kind, f"{coords[0]}:{coords[1]}",
                  lambda: green_local(sbad, coords, place, gcfg),
                  check_padic_green(sbad, coords, p, gcfg), expect)

    for _ in range(counts[1]):
        ops.append(green_op("green.p2", next(it), 2, cfg))
    for _ in range(counts[2]):
        ops.append(green_op("green.p3", next(it), 3, cfg))
    for _ in range(counts[3]):
        a, b = next(it)
        point = normalize((a, b))
        ops.append(Op("oracle", f"{a}:{b}",
                      lambda point=point: canonical_height_oracle_detailed(sbad, point, oracle_depth),
                      check_oracle((a, b), oracle_depth)))
    # Kept for a fault: the p-adic budget counts 2^m tree nodes although the
    # walk holds a few hundred distinct states, so depth 23 exceeds it.
    budget = 10**4 if tiny else None
    ops.append(green_op("green.p3.eps", (5, 7), 3, eps_cfg(budget), BudgetExceededError))
    warm = normalize((3, 2))
    warmup = [lambda: canonical_height(sbad, warm, fixed_cfg(2)),
              lambda: canonical_height_oracle_detailed(sbad, warm, 2)]
    return Workload("bad-reduction", ops, warmup)


# family-sweep sizes: parameters per sweep, ff depths, and ops of each kind
# per round, chosen so that every op costs about the same.
FAMILY_FULL = dict(x2_sweep=60, x2_ratio=60, ratio_ff=8, ff=9, ty_big=1, ty_small=12,
                   local_inf=70, local_p2=280, ops_per_kind=2)
FAMILY_TINY = dict(x2_sweep=3, x2_ratio=3, ratio_ff=4, ff=5, ty_big=1, ty_small=2,
                   local_inf=3, local_p2=3, ops_per_kind=1)
# Parameters of the ty2 sweep carry one prime factor in this range, above the
# 10^6 trial-division limit of prime_factors; a narrow range keeps the
# factoring cost comparable from seed to seed.
BIG_PRIME_RANGE = (1_100_000, 1_200_000)


def _small_ts(rng, count, lo=3, hi=999):
    out: list[int] = []
    while len(out) < count:
        t = rng.choice((-1, 1)) * rng.randint(lo, hi)
        if t not in out:
            out.append(t)
    return out


def family_sweep(rng, tiny: bool) -> Workload:
    sizes = FAMILY_TINY if tiny else FAMILY_FULL
    x2 = load(SYSTEMS / "x2plust.json")
    ty = load(SYSTEMS / "ty2_family.json")
    cfg = eps_cfg()
    ops = []
    for _ in range(sizes["ops_per_kind"]):
        ts = _small_ts(rng, sizes["x2_sweep"])
        refs = lambda ts=ts: [(t, "0:1", R.x2plust_height(t), R.x2plust_height(t)) for t in ts]
        ops.append(Op("x2.sweep", f"{len(ts)} params",
                      lambda ts=ts: variation_sweep(x2.family, [x2.section], ts, cfg),
                      check_variation(refs, "x2 sweep")))

        ts = _small_ts(rng, sizes["x2_ratio"])
        ff_depth = sizes["ratio_ff"]
        ops.append(Op("x2.ratio", f"{len(ts)} params",
                      lambda ts=ts: limit_ratio(x2.family, x2.section, ts, cfg, ff_depth),
                      check_ratio(ts)))

        ff = sizes["ff"]
        ops.append(Op("x2.ff", f"depth {ff}",
                      lambda: ff_canonical_height(x2.family, x2.section, ff),
                      check_ff(ff)))

        ts = [rng.choice((-1, 1)) * rng.randint(1, 9) * _prime_in(rng, *BIG_PRIME_RANGE)
              for _ in range(sizes["ty_big"])] + _small_ts(rng, sizes["ty_small"])
        refs = lambda ts=ts: [(t, "1:1", R.ty2_height(t, 1, 1), R.ty2_height(t, 1, 1)) for t in ts]
        ops.append(Op("ty2.sweep", f"{len(ts)} params",
                      lambda ts=ts: variation_sweep(ty.family, [ty.section], ts, cfg),
                      check_variation(refs, "ty2 sweep")))

        for kind, place, n in (("ty2.local.inf", None, sizes["local_inf"]),
                               ("ty2.local.p2", 2, sizes["local_p2"])):
            ts = _small_ts(rng, n, 1, 10**6)
            a, b = _coprime_point(rng, (1, 30), (1, 30))
            a = abs(a)
            section = Section.constant(normalize((a, b)))
            v = Place(place)
            ops.append(Op(kind, f"{a}:{b}, {len(ts)} params",
                          lambda ts=ts, s=section, v=v: local_variation_sweep(ty.family, s, 1, v, ts, cfg),
                          check_local(ts, a, b, place)))
    warmup = [lambda: variation_sweep(x2.family, [x2.section], [3], cfg),
              lambda: local_variation_sweep(ty.family, ty.section, 1, Place(2), [6], cfg),
              lambda: ff_canonical_height(x2.family, x2.section, 2)]
    return Workload("family-sweep", ops, warmup)


# random_synthetic's arguments (max components, max maps, max points) and the
# shape window kept: models larger than the CLI default of (6, 3, 40), all of
# one size so that the ops cost about the same.
FIBRAL_ARGS = (8, 3, 120)
FIBRAL_WINDOW = dict(maps=(2, 2), components=(4, 8), points=(90, 100))
FIBRAL_TINY_WINDOW = dict(maps=(1, 3), components=(1, 8), points=(5, 15))


def _model_seeds(rng, count: int, window) -> list[tuple[int, tuple[int, int, int]]]:
    out = []
    while len(out) < count:
        seed = rng.randrange(2**31)
        n, k, m = fibral_shape(seed, *FIBRAL_ARGS)
        lo_k, hi_k = window["maps"]
        lo_n, hi_n = window["components"]
        lo_m, hi_m = window["points"]
        if lo_k <= k <= hi_k and lo_n <= n <= hi_n and lo_m <= m <= hi_m:
            out.append((seed, (n, k, m)))
    return out


def fibral_models(rng, tiny: bool) -> Workload:
    count = 2 if tiny else 16
    window = FIBRAL_TINY_WINDOW if tiny else FIBRAL_WINDOW
    start = time.process_time()
    seeds = _model_seeds(rng, count + 1, window)
    search_s = time.process_time() - start
    ops = []
    for seed, shape in seeds[:count]:
        ops.append(Op("model", f"seed {seed}",
                      lambda seed=seed: fibral_pipeline(random_synthetic(seed, *FIBRAL_ARGS)),
                      check_fibral(shape)))
    seed, shape = seeds[count]
    ops.append(Op("model.perturbed", f"seed {seed}",
                  lambda: fibral_pipeline(perturb(random_synthetic(seed, *FIBRAL_ARGS))),
                  check_fibral(shape, perturbed=True)))
    warmup = [lambda: fibral_pipeline(random_synthetic(1, 2, 1, 3))]
    return Workload("fibral-models", ops, warmup, search_s)


WORKLOAD_FACTORIES = {
    "commuting-heights": commuting_heights,
    "bad-reduction": bad_reduction,
    "family-sweep": family_sweep,
    "fibral-models": fibral_models,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Load, validate and compute bad primes of the inputs, then warm up."""
    rng = random.Random(f"{name}:{seed}")
    wl = WORKLOAD_FACTORIES[name](rng, tiny)
    for fn in wl.warmup:
        fn()
    return wl
