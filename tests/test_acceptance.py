"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import math
import random
import time
from fractions import Fraction

from dynheight.canonical import (
    GreenConfig,
    canonical_height,
    canonical_height_oracle_detailed,
    forward_orbit,
    functional_eq_residual,
    green_local,
    height_equality_report,
    metric_equality_report,
)
from dynheight.dynsys import Morphism, validate_system
from dynheight.exactnum import INFINITY, Place, log_abs, prime_factors, support
from dynheight.family import (
    ParamSystem,
    Section,
    ff_canonical_height,
    limit_ratio,
    local_variation_sweep,
    variation_sweep,
)
from dynheight.fibral import (
    PermTypeMatrix,
    random_synthetic,
    row_sum_bounds,
    solve_weights,
    spectral_radius,
    verify_intersection_formula,
)
from dynheight.projective import (
    local_height_hyperplane,
    normalize,
    parse_point,
    weil_height,
)


def m(*polys, norm=True):
    return Morphism.from_strings(polys, dim=1, normalize=norm)


MONOMIAL = validate_system([m("X0^2", "X1^2"), m("X0^3", "X1^3")])
X6 = validate_system([m("X0^6", "X1^6")])
X2P1 = validate_system([m("X0^2+X1^2", "X1^2")])
T2 = m("X0^2-2*X1^2", "X1^2")
T3 = m("X0^3-3*X0*X1^2", "X1^3")
CHEB = validate_system([T2, T3])
CHEB6 = validate_system([T2.compose(T3)])
DEPTH20 = GreenConfig(depth=20)


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _random_points(seed: int, count: int):
    # primitive points of naive height <= ln 100
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        raw = (rng.randint(-100, 100), rng.randint(-100, 100))
        if any(raw):
            pts.append(normalize(raw))
    return pts


def test_criterion_1_monomial_exactness():
    start = time.perf_counter()
    green_route = canonical_height(MONOMIAL, parse_point("2:1"), DEPTH20).value
    oracle_route = canonical_height_oracle_detailed(MONOMIAL, parse_point("2:1"), 6).value
    elapsed = time.perf_counter() - start
    ok = (
        abs(green_route - math.log(2)) < 1e-8
        and abs(oracle_route - math.log(2)) < 1e-8
        and elapsed < 1.0
    )
    _report(
        "criterion 1: monomial exactness",
        ok,
        f"green {green_route:.10f} oracle {oracle_route:.10f} time {elapsed:.2f}s",
    )


def test_criterion_2_orbit_oracle_match():
    start = time.perf_counter()
    value = canonical_height(X2P1, parse_point("0:1"), DEPTH20).value
    a = 0
    for _ in range(20):
        a = a * a + 1
    oracle = math.log(a) / 2.0**20
    elapsed = time.perf_counter() - start
    ok = abs(value - oracle) < 1e-4 and elapsed < 5.0
    _report(
        "criterion 2: orbit-oracle match",
        ok,
        f"green {value:.6f} oracle {oracle:.6f} time {elapsed:.2f}s",
    )


def test_criterion_3_two_route_consistency():
    worst_gap = -1.0
    worst_resid = 0.0
    ok = True
    for seed, system in ((31, MONOMIAL), (32, X2P1), (33, CHEB)):
        for p in _random_points(seed, 20):
            green_route = canonical_height(system, p, DEPTH20)
            oracle = canonical_height_oracle_detailed(system, p, 8)
            gap = abs(green_route.value - oracle.value)
            budget = green_route.tail_bound + oracle.tail_bound
            ok &= gap <= budget
            worst_gap = max(worst_gap, gap - budget)
            resid = functional_eq_residual(system, p, DEPTH20)
            ok &= resid < 1e-6
            worst_resid = max(worst_resid, resid)
    _report(
        "criterion 3: two-route consistency",
        ok,
        f"worst gap-over-budget {worst_gap:.2e}, worst residual {worst_resid:.2e}",
    )


def test_criterion_4_commuting_equality():
    samples = []
    rng = random.Random(41)
    while len(samples) < 20:
        s = (rng.randint(-50, 50), rng.randint(-50, 50))
        if any(s):
            samples.append(s)
    points = _random_points(42, 20)
    g1 = metric_equality_report(MONOMIAL, X6, samples, INFINITY, DEPTH20)
    g2 = metric_equality_report(CHEB, CHEB6, samples, INFINITY, DEPTH20)
    h1 = height_equality_report(MONOMIAL, X6, points, DEPTH20)
    h2 = height_equality_report(CHEB, CHEB6, points, DEPTH20)
    anchor = canonical_height(CHEB, parse_point("3:1"), DEPTH20).value
    closed_form = math.log((3 + math.sqrt(5)) / 2)
    ok = (
        g1 < 1e-6 and g2 < 1e-6 and h1 < 1e-6 and h2 < 1e-6
        and abs(anchor - closed_form) < 1e-5
    )
    _report(
        "criterion 4: commuting equality",
        ok,
        f"green diffs {g1:.2e}/{g2:.2e} height diffs {h1:.2e}/{h2:.2e} "
        f"anchor {anchor:.6f} vs {closed_form:.6f}",
    )


def test_criterion_5_specialization_limit():
    start = time.perf_counter()
    family = ParamSystem.build([m("X0^2+t*X1^2", "X1^2")])
    section = Section.from_strings(["0", "1"])
    ff = ff_canonical_height(family, section, 8)
    stabilized = all(
        ff_canonical_height(family, section, n).value == Fraction(1, 2)
        for n in range(1, 9)
    )
    cfg = GreenConfig(depth=40, mode="adaptive", target_eps=1e-9)
    ratios = limit_ratio(family, section, [10**j for j in range(1, 7)], cfg, ff_depth=8)
    final_dev = abs(ratios.rows[-1].value - 0.5)
    devs = [r.aux for r in ratios.rows[1:]]
    nonincreasing = all(devs[i + 1] <= devs[i] + 1e-3 for i in range(len(devs) - 1))
    elapsed = time.perf_counter() - start
    ok = (
        ff.value == Fraction(1, 2)
        and stabilized
        and final_dev < 0.05
        and nonincreasing
        and elapsed < 60.0
    )
    _report(
        "criterion 5: specialization limit",
        ok,
        f"ff {ff.value} final dev {final_dev:.2e} time {elapsed:.1f}s",
    )


def test_criterion_6_variation_envelope():
    family = ParamSystem.build([m("X0^2+t*X1^2", "X1^2")])
    section = Section.from_strings(["0", "1"])
    cfg = GreenConfig(depth=40, mode="adaptive", target_eps=1e-9)
    ts = [t for a in range(1, 51) for t in (a, -a)]
    sweep = variation_sweep(family, [section], ts, cfg)
    constant = ParamSystem.build([m("X0^2", "X1^2"), m("X0^3", "X1^3")])
    const_sweep = variation_sweep(
        constant, [Section.from_strings(["t", "1"])], [1, 2, 3, 5, 8, 13], cfg
    )
    ok = (
        not sweep.violations
        and len(sweep.rows) == 100
        and const_sweep.c1 == 0.0
        and const_sweep.c2 == 0.0
    )
    _report(
        "criterion 6: variation envelope",
        ok,
        f"c1 {sweep.c1:.3f} c2 {sweep.c2:.3f} violations {len(sweep.violations)}; "
        f"constant family c1={const_sweep.c1} c2={const_sweep.c2}",
    )


def test_criterion_7_local_variation():
    family = ParamSystem.build([m("X0^2", "t*X1^2")])
    section = Section.from_strings(["1", "1"])
    cfg = GreenConfig(depth=25)
    at2 = local_variation_sweep(family, section, 1, Place.prime(2), [2, 4, 8, 16], cfg)
    bound_ok = all(abs(r.value) <= 1.0 * r.aux for r in at2.rows)
    at7 = local_variation_sweep(family, section, 1, Place.prime(7), [1, 3, 5, 9], cfg)
    zero_ok = all(abs(r.value) < 1e-9 for r in at7.rows)
    ok = bound_ok and zero_ok and len(at2.rows) == 4 and len(at7.rows) == 4
    _report(
        "criterion 7: local variation",
        ok,
        f"p2 max |diff| {max(abs(r.value) for r in at2.rows):.2e} "
        f"boundary min {min(r.aux for r in at2.rows):.3f}; p7 zero {zero_ok}",
    )


def test_criterion_8_fibral_exactness():
    ident = PermTypeMatrix.from_matrix([[1, 0], [0, 1]])
    swap = PermTypeMatrix.from_matrix([[0, 1], [1, 0]])
    weights = solve_weights(5, [ident, swap], [1, 0])
    exact_ok = weights.x == (Fraction(4, 15), Fraction(1, 15))
    models_ok = True
    for seed in range(100):
        report = verify_intersection_formula(random_synthetic(seed))
        models_ok &= report.ok and report.weights_residual == 0 and report.balance_residual == 0
    model = random_synthetic(3)
    target = model.points[0].pid
    bad_report = verify_intersection_formula(
        model.with_perturbed_intersection(target, Fraction(1, 7))
    )
    failing = {pid for pid, _ in bad_report.failures}
    localized_ok = (not bad_report.ok) and target in failing
    ok = exact_ok and models_ok and localized_ok
    _report(
        "criterion 8: fibral exactness",
        ok,
        f"x={weights.x} 100 models ok={models_ok} perturbed diagnostic at {sorted(failing)}",
    )


def test_criterion_9_row_sum_property():
    rng = random.Random(91)
    bounds_ok = True
    for _ in range(100):
        mat = [[rng.uniform(0, 10) for _ in range(6)] for _ in range(6)]
        lo, hi = row_sum_bounds(mat)
        est = spectral_radius(mat)
        bounds_ok &= float(lo) - 1e-6 <= est <= float(hi) + 1e-6
    perm_ok = True
    solve_ok = True
    for _ in range(100):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        acts = [
            PermTypeMatrix(n, tuple(rng.randrange(n) for _ in range(n))) for _ in range(k)
        ]
        total = [
            [sum(a.as_matrix()[i][j] for a in acts) for j in range(n)] for i in range(n)
        ]
        perm_ok &= spectral_radius(total) <= k + 1e-6
        alpha = Fraction(k) + Fraction(rng.randint(1, 2 * n * k), 2)  # covers (k, nk]
        c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        w = solve_weights(alpha, acts, c)
        solve_ok &= all(
            sum(w.x[a.image[t]] for a in acts) - alpha * w.x[t] + c[t] == 0
            for t in range(n)
        )
    ok = bounds_ok and perm_ok and solve_ok
    _report(
        "criterion 9: row-sum spectral property",
        ok,
        f"bounds {bounds_ok} perm-sums {perm_ok} solves {solve_ok}",
    )


def test_criterion_10_invariant_suite():
    rng = random.Random(101)
    cases = 0
    cfg = GreenConfig(depth=12)

    # Green homogeneity: G(c*x) - G(x) = ln|c|_v, 60 cases
    homogeneity_ok = True
    for _ in range(20):
        base = (rng.randint(-30, 30), rng.randint(1, 30))
        c = rng.choice([v for v in range(-9, 10) if v])
        for v in (INFINITY, Place.prime(2), Place.prime(5)):
            g1 = green_local(CHEB, base, v, cfg)
            g2 = green_local(CHEB, tuple(c * x for x in base), v, cfg)
            homogeneity_ok &= abs((g2 - g1) - log_abs(c, v)) < 1e-9
            cases += 1

    # lift rescaling leaves the canonical height unchanged, 50 cases
    rescale_ok = True
    for _ in range(25):
        mult = rng.choice([2, 3, 5, 6, 7])
        scaled = validate_system(
            [
                Morphism([p.scale(mult) for p in T2.lift], normalize=False),
                T3,
            ]
        )
        p = _random_points(rng.randint(0, 10**6), 1)[0]
        a = canonical_height(CHEB, p, DEPTH20)
        b = canonical_height(scaled, p, DEPTH20)
        rescale_ok &= abs(a.value - b.value) <= 1e-8
        rescale_ok &= a.value >= -a.tail_bound and b.value >= -b.tail_bound
        cases += 2

    # product formula and local-global identities to 1e-12, 60 cases
    exact_ok = True
    for _ in range(30):
        q = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        total = math.fsum(log_abs(q, v) for v in support(q))
        exact_ok &= abs(total) < 1e-12
        cases += 1
        raw = (rng.randint(-200, 200), rng.randint(1, 200))
        p = normalize(raw)
        j = 1 if p.coords[1] else 0
        places = {INFINITY}
        for coord in p.coords:
            if coord:
                places.update(Place.prime(q_) for q_ in prime_factors(coord))
        lg = math.fsum(local_height_hyperplane(p, j, v) for v in places)
        exact_ok &= abs(lg - weil_height(p)) < 1e-12
        cases += 1

    # preperiodic points have |h^| <= tail bound, 30 cases
    preperiodic_pool = [
        (MONOMIAL, "1:1"), (MONOMIAL, "0:1"), (MONOMIAL, "1:0"), (MONOMIAL, "-1:1"),
        (CHEB, "2:1"), (CHEB, "1:1"), (CHEB, "0:1"), (CHEB, "-2:1"), (CHEB, "-1:1"),
        (X2P1, "1:0"),
    ]
    preperiodic_ok = True
    for _ in range(30):
        system, text = rng.choice(preperiodic_pool)
        p = parse_point(text)
        _orbit, closed = forward_orbit(system, p)
        r = canonical_height(system, p, DEPTH20)
        preperiodic_ok &= closed and abs(r.value) <= r.tail_bound + 1e-12
        cases += 1

    ok = homogeneity_ok and rescale_ok and exact_ok and preperiodic_ok and cases >= 200
    _report(
        "criterion 10: invariant suite",
        ok,
        f"{cases} cases: homogeneity {homogeneity_ok} rescale {rescale_ok} "
        f"exact identities {exact_ok} preperiodic {preperiodic_ok}",
    )
