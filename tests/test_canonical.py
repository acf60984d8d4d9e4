"""Green functions, canonical heights, and the two-route cross-checks."""

import math
import random

import pytest

from dynheight.canonical import (
    GreenConfig,
    canonical_height,
    canonical_height_oracle_detailed,
    canonical_local_height,
    forward_orbit,
    functional_eq_residual,
    green_local,
    green_profile,
    height_equality_report,
    metric_equality_report,
    walk,
)
from dynheight.dynsys import Morphism, validate_system
from dynheight.errors import (
    BudgetExceededError,
    NonCommutingError,
    PointOnDivisorError,
    ValidationError,
)
from dynheight.exactnum import INFINITY, Place
from dynheight.family import ParamSystem, Section, ff_canonical_height
from dynheight.projective import normalize, parse_point, weil_height


def m(*polys, norm=True):
    return Morphism.from_strings(polys, dim=1, normalize=norm)


MONOMIAL = validate_system([m("X0^2", "X1^2"), m("X0^3", "X1^3")])
X6 = validate_system([m("X0^6", "X1^6")])
X2P1 = validate_system([m("X0^2+X1^2", "X1^2")])
CHEB = validate_system([m("X0^2-2*X1^2", "X1^2"), m("X0^3-3*X0*X1^2", "X1^3")])
CHEB6 = validate_system(
    [m("X0^2-2*X1^2", "X1^2").compose(m("X0^3-3*X0*X1^2", "X1^3"))]
)
# Bad reduction at 2 and 3 (perfbench/systems/sbad.json).
SBAD = validate_system([m("X0^2", "2*X1^2"), m("X0^3+X1^3", "3*X1^3")])
CFG = GreenConfig(depth=20)


def orbit_escape_rate(n: int = 20) -> float:
    """Independent oracle for {x^2+1} at [0:1]: lim 2^-n ln||F^n(0,1)||."""
    a = 0
    for _ in range(n):
        a = a * a + 1
    return math.log(a) / 2.0**n


def test_green_monomial_all_depths():
    for depth in (1, 2, 5, 12):
        v = green_local(MONOMIAL, (2, 1), INFINITY, GreenConfig(depth=depth))
        assert v == pytest.approx(math.log(2), abs=1e-12)


def test_green_good_prime_exact_zero():
    assert green_local(MONOMIAL, (2, 1), Place.prime(7), CFG) == 0.0
    assert green_local(X2P1, (3, 1), Place.prime(2), CFG) == 0.0


def test_green_x2p1_matches_orbit_oracle():
    oracle = orbit_escape_rate(20)
    v = green_local(X2P1, (0, 1), INFINITY, CFG)
    assert v == pytest.approx(oracle, abs=1e-7)
    assert oracle == pytest.approx(0.2036775, abs=1e-6)  # frozen from the oracle


def _padic_green_bruteforce(system, coords, p: int, depth: int):
    """Independent oracle: full big-integer word tree, exact gcd p-parts."""
    from fractions import Fraction
    from math import gcd

    from dynheight.exactnum import ord_p

    e0 = min(ord_p(c, p) for c in coords if c)
    level = [tuple(c // p**e0 for c in coords)]
    total = Fraction(-e0)
    for m in range(1, depth + 1):
        new_level = []
        level_sum = 0
        for cs in level:
            for mp in system.maps:
                vals = mp.eval_raw(cs)
                g = 0
                for v in vals:
                    g = gcd(g, v)
                e = ord_p(g, p)
                level_sum += e
                new_level.append(tuple(v // p**e for v in vals))
        total -= Fraction(level_sum, system.alpha**m)
        level = new_level
    return total  # Green value is total * ln(p)


def test_padic_green_matches_bruteforce_oracle():
    # scaled lift makes 3 a bad prime with a k=2 tree; the residue walk must
    # reproduce the exact big-integer computation
    scaled = validate_system([m("3*X0^2", "3*X1^2", norm=False), m("X0^3", "X1^3")])
    for coords in ((2, 1), (5, 3), (9, 2), (6, 15)):
        expected = _padic_green_bruteforce(scaled, coords, 3, 6)
        prof = green_profile(scaled, coords, Place.prime(3), GreenConfig(depth=6))
        assert prof.exact == expected
    mixed = validate_system([m("2*X0^2+6*X1^2", "2*X1^2", norm=False)])
    for coords in ((1, 1), (2, 3), (4, 6)):
        expected = _padic_green_bruteforce(mixed, coords, 2, 8)
        prof = green_profile(mixed, coords, Place.prime(2), GreenConfig(depth=8))
        assert prof.exact == expected


def test_higher_dimension_green_and_oracle():
    sq3 = Morphism.from_strings(["X0^2", "X1^2", "X2^2"], dim=2)
    system = validate_system([sq3])
    p = parse_point("2:3:1")
    oracle = canonical_height_oracle_detailed(system, p, 4)
    assert oracle.value == pytest.approx(weil_height(p), abs=1e-12)
    assert green_local(system, p.coords, INFINITY, GreenConfig(depth=8)) == pytest.approx(
        weil_height(p), abs=1e-12
    )
    # finite place on P^2 runs the monitored walk (no resultant shortcut)
    assert green_local(system, p.coords, Place.prime(5), GreenConfig(depth=8)) == 0.0
    weighted = validate_system(
        [Morphism.from_strings(["X0^2", "X1^2", "2*X2^2"], dim=2, normalize=False)]
    )
    prof = green_profile(weighted, (0, 0, 1), Place.prime(2), GreenConfig(depth=8))
    from fractions import Fraction

    assert prof.exact == Fraction(-(2**8 - 1), 2**8)  # -sum 2^-m over m=1..8
    from dynheight.errors import ValidationError

    with pytest.raises(ValidationError):
        canonical_height(system, p, CFG)  # finite places need P^1 resultants


def test_green_homogeneity():
    rng = random.Random(7)
    for _ in range(10):
        c = rng.choice([v for v in range(-9, 10) if v])
        base = (rng.randint(-30, 30), rng.randint(1, 30))
        for v in (INFINITY, Place.prime(2), Place.prime(5)):
            g1 = green_local(CHEB, base, v, GreenConfig(depth=10))
            g2 = green_local(CHEB, tuple(c * x for x in base), v, GreenConfig(depth=10))
            from dynheight.exactnum import log_abs

            assert g2 - g1 == pytest.approx(log_abs(c, v), abs=1e-9)


def test_canonical_height_examples():
    assert canonical_height(MONOMIAL, parse_point("2:1"), CFG).value == pytest.approx(
        math.log(2), abs=1e-8
    )
    assert canonical_height(MONOMIAL, parse_point("1:1"), CFG).value == pytest.approx(
        0.0, abs=1e-10
    )
    r = canonical_height(X2P1, parse_point("0:1"), CFG)
    assert r.value == pytest.approx(orbit_escape_rate(20), abs=1e-4)
    assert set(r.per_place) == {INFINITY}  # resultant 1: no finite contributions


def test_canonical_height_result_invariants():
    r = canonical_height(CHEB, parse_point("3:1"), CFG)
    assert r.value == pytest.approx(math.fsum(r.per_place.values()), abs=1e-15)
    assert r.tail_bound >= 0 and r.depth_used == 20


def test_oracle_examples():
    mono = canonical_height_oracle_detailed(MONOMIAL, parse_point("2:1"), 6)
    assert mono.value == pytest.approx(math.log(2), abs=1e-12)
    x2p1 = canonical_height_oracle_detailed(X2P1, parse_point("0:1"), 12)
    assert x2p1.value == pytest.approx(orbit_escape_rate(20), abs=1e-3)
    p = parse_point("7:3")
    depth0 = canonical_height_oracle_detailed(MONOMIAL, p, 0)
    assert depth0.value == pytest.approx(weil_height(p), abs=1e-15)


def test_two_route_consistency_random_points():
    rng = random.Random(2024)
    for system in (MONOMIAL, X2P1, CHEB):
        for _ in range(6):
            p = normalize((rng.randint(-99, 99), rng.randint(1, 99)))
            green_route = canonical_height(system, p, CFG)
            oracle = canonical_height_oracle_detailed(system, p, 8)
            assert abs(green_route.value - oracle.value) <= (
                green_route.tail_bound + oracle.tail_bound
            )


def test_canonical_local_height_examples():
    p21 = parse_point("2:1")
    assert canonical_local_height(MONOMIAL, p21, 1, INFINITY, CFG) == pytest.approx(
        math.log(2), abs=1e-9
    )
    assert canonical_local_height(MONOMIAL, p21, 0, INFINITY, CFG) == pytest.approx(
        0.0, abs=1e-9
    )
    assert canonical_local_height(X2P1, parse_point("3:1"), 1, Place.prime(2), CFG) == 0.0
    with pytest.raises(PointOnDivisorError):
        canonical_local_height(MONOMIAL, parse_point("0:1"), 0, INFINITY, CFG)


def test_canonical_local_heights_sum_to_height():
    from dynheight.exactnum import prime_factors

    p = parse_point("6:35")
    for system in (X2P1, CHEB):
        places = {INFINITY}
        places.update(Place.prime(q) for q in system.bad_primes())
        places.update(Place.prime(q) for q in prime_factors(p.coords[1]))
        total = math.fsum(canonical_local_height(system, p, 1, v, CFG) for v in places)
        assert total == pytest.approx(canonical_height(system, p, CFG).value, abs=1e-8)


def test_functional_equation_examples():
    assert functional_eq_residual(MONOMIAL, parse_point("2:1"), CFG) < 1e-8
    assert functional_eq_residual(X2P1, parse_point("0:1"), CFG) < 1e-6
    assert functional_eq_residual(CHEB, parse_point("3:1"), CFG) < 1e-6


def test_metric_equality_reports():
    rng = random.Random(5)
    samples = []
    while len(samples) < 8:
        s = (rng.randint(-40, 40), rng.randint(-40, 40))
        if any(s):
            samples.append(s)
    assert metric_equality_report(MONOMIAL, X6, samples, INFINITY, CFG) < 1e-6
    assert metric_equality_report(CHEB, CHEB6, samples, INFINITY, CFG) < 1e-6
    with pytest.raises(NonCommutingError, match="do not commute"):
        metric_equality_report(validate_system([m("X0^2", "X1^2")]),
                               validate_system([m("X0^3+X1^3", "X1^3")]), samples, INFINITY, CFG)


def test_height_equality_reports():
    pts = [parse_point("2:1"), parse_point("3:1"), parse_point("5:2")]
    assert height_equality_report(MONOMIAL, X6, pts, CFG) < 1e-6
    assert height_equality_report(CHEB, CHEB6, pts, CFG) < 1e-6
    anchor = canonical_height(CHEB, parse_point("3:1"), CFG).value
    assert anchor == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-5)


def test_chebyshev_fixed_point_height_zero():
    # 2 = z + 1/z at z = 1: fixed by both maps, height zero.
    p = parse_point("2:1")
    assert canonical_height(CHEB, p, CFG).value == pytest.approx(0.0, abs=1e-8)


def test_lift_rescaling_invariance():
    scaled = validate_system(
        [m("3*X0^2", "3*X1^2", norm=False), m("X0^3", "X1^3")]
    )
    for text in ("2:1", "5:3", "7:2"):
        p = parse_point(text)
        a = canonical_height(MONOMIAL, p, CFG)
        b = canonical_height(scaled, p, CFG)
        assert abs(a.value - b.value) <= 1e-8
        assert b.per_place[Place.prime(3)] != 0.0  # the per-place values do shift


def test_contraction_envelope():
    # increments obey |inc_m| <= chat * (k/alpha)^(m-1) + slack
    for system, coords in ((CHEB, (3, 1)), (X2P1, (0, 1))):
        prof = green_profile(system, coords, INFINITY, GreenConfig(depth=16))
        ratio = system.k / system.alpha
        for i, inc in enumerate(prof.increments):
            assert abs(inc) <= prof.chat * ratio**i + 1e-10


def test_adaptive_mode_matches_fixed():
    # eps 1e-9 on a k=2 system would need ~2^23 nodes; 1e-8 fits the budget
    cfg_a = GreenConfig(depth=40, mode="adaptive", target_eps=1e-8)
    for system, text in ((CHEB, "3:1"), (X2P1, "0:1"), (MONOMIAL, "2:1")):
        p = parse_point(text)
        assert canonical_height(system, p, cfg_a).value == pytest.approx(
            canonical_height(system, p, GreenConfig(depth=21)).value, abs=1e-7
        )


def test_walk_merges_states_and_charges_distinct_ones():
    expanded = []

    def children(s):
        expanded.append(s)
        return (s + 1, s + 2)

    levels = [(m, nodes, dict(level)) for m, nodes, level in walk(0, children, 2, 3, 100)]
    assert levels == [
        (1, 2, {1: 1, 2: 1}),
        (2, 6, {2: 1, 3: 2, 4: 1}),
        (3, 12, {3: 1, 4: 3, 5: 3, 6: 1}),
    ]
    assert expanded == [0, 1, 2, 2, 3, 4]  # each distinct state once per level
    with pytest.raises(BudgetExceededError, match="depth 2 needs 6 nodes > 5"):
        list(walk(0, children, 2, 3, 5))


def test_padic_budget_counts_distinct_states():
    # 2^23 words by depth 23, but a few hundred distinct residue states
    cfg = GreenConfig(depth=60, target_eps=1e-9, mode="adaptive")
    prof = green_profile(SBAD, (5, 7), Place(3), cfg)
    assert prof.value == pytest.approx(-math.log(3) / 4, abs=1e-9)
    assert (prof.depth, prof.nodes) == (23, 13510)


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError, match="budget exceeded"):
        green_local(MONOMIAL, (2, 1), INFINITY, GreenConfig(depth=30, node_budget=1000))
    # sbad's orbit images never coincide, so every word is a distinct state
    with pytest.raises(BudgetExceededError, match="depth 9 needs 1022 nodes > 1000"):
        canonical_height_oracle_detailed(SBAD, parse_point("5:7"), 30, node_budget=1000)
    # A budget of 0 is a budget, not "unset".
    with pytest.raises(BudgetExceededError):
        canonical_height_oracle_detailed(MONOMIAL, parse_point("2:1"), 1, node_budget=0)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("DYNHEIGHT_NODE_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        green_local(MONOMIAL, (2, 1), INFINITY, GreenConfig(depth=10))
    lifts = (["X0^2+t*X1^2", "X1^2"], ["X0^3", "X1^3"])
    family = ParamSystem.build([Morphism.from_strings(p, dim=1, allow_t=True) for p in lifts])
    with pytest.raises(BudgetExceededError):
        ff_canonical_height(family, Section.from_strings(["0", "1"]), 8)
    # MONOMIAL's words collapse to m + 1 states at level m: 72 evaluations
    oracle = canonical_height_oracle_detailed(MONOMIAL, parse_point("2:1"), 8)
    assert oracle.value == pytest.approx(math.log(2))
    for bad in ("abc", "-5", " "):
        monkeypatch.setenv("DYNHEIGHT_NODE_BUDGET", bad)
        with pytest.raises(ValidationError, match="must be a nonnegative integer"):
            green_local(MONOMIAL, (2, 1), INFINITY, GreenConfig(depth=10))
    monkeypatch.setenv("DYNHEIGHT_NODE_BUDGET", "10000000")
    assert green_local(MONOMIAL, (2, 1), INFINITY, GreenConfig(depth=10)) == pytest.approx(
        math.log(2)
    )


def test_preperiodic_points():
    cases = [
        (MONOMIAL, "1:1"),
        (MONOMIAL, "0:1"),
        (MONOMIAL, "1:0"),
        (CHEB, "2:1"),
        (CHEB, "1:1"),
        (CHEB, "0:1"),
        (X2P1, "1:0"),
    ]
    for system, text in cases:
        p = parse_point(text)
        orbit, closed = forward_orbit(system, p)
        assert closed and len(orbit) <= 8
        r = canonical_height(system, p, CFG)
        assert abs(r.value) <= r.tail_bound + 1e-12


def test_forward_orbit_budget_flag():
    orbit, closed = forward_orbit(X2P1, parse_point("1:1"), max_points=5)
    assert not closed and len(orbit) == 5


def test_padic_walk_rejects_indeterminate_point():
    from dynheight.dynsys import PolarizedSystem
    from dynheight.errors import IndeterminatePointError

    # bypass validation to hit the indeterminacy of a non-morphism on P^2,
    # where no resultant bound exists and the walk must not loop forever
    bad = Morphism.from_strings(["X0^2", "X0*X1", "X0*X2"], dim=2)
    system = PolarizedSystem(maps=(bad,), k=1, alpha=2, dim=2)
    with pytest.raises(IndeterminatePointError):
        green_local(system, (0, 1, 1), Place.prime(3), GreenConfig(depth=4))
