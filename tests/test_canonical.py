"""Green functions, canonical heights, and the two-route cross-checks."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from dynheight import canonical
from dynheight.canonical import (
    FLOAT_SLACK,
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
from dynheight.dynsys import HomogPoly, Morphism, PolarizedSystem, validate_system
from dynheight.errors import (
    BudgetExceededError,
    DynHeightError,
    IndeterminatePointError,
    NonCommutingError,
    PointOnDivisorError,
    ValidationError,
)
from dynheight.exactnum import INFINITY, Place, ord_p, prime_factors
from dynheight.cli import load_system_file
from dynheight.family import ParamSystem, Section, ff_canonical_height, specialize
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
    # sbad at both bad primes; (1, 6) and (12, 9) have a coordinate divisible by p
    for p in (2, 3):
        for coords in ((5, 7), (2, 1), (1, 6), (12, 9)):
            expected = _padic_green_bruteforce(SBAD, coords, p, 8)
            prof = green_profile(SBAD, coords, Place(p), GreenConfig(depth=8))
            assert prof.exact == expected, (p, coords)


_binary_forms = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        *[st.lists(st.integers(-4, 4), min_size=d + 1, max_size=d + 1) for _ in range(2)]
    )
)


def _binary_morphism(coeff_rows):
    d = len(coeff_rows[0]) - 1
    lift = [HomogPoly(2, {(d - i, i): c for i, c in enumerate(row)}) for row in coeff_rows]
    return Morphism(lift)


@given(st.lists(_binary_forms, min_size=1, max_size=2), st.integers(1, 6))
@example([([-3, 2, 4], [2, -3, -2])], 4)  # a step reads all r digits
@settings(max_examples=100, deadline=None)
def test_trimmed_padic_walk_matches_bruteforce_random(forms, depth):
    # validate_system rejects zero resultants and alpha <= k
    try:
        system = validate_system([_binary_morphism(rows) for rows in forms])
    except ValidationError:
        assume(False)
    for p in system.bad_primes():
        for coords in ((1, 0), (0, 1), (1, 1), (5, 7), (p, 3)):
            expected = _padic_green_bruteforce(system, coords, p, depth)
            prof = green_profile(system, coords, Place(p), GreenConfig(depth=depth))
            assert prof.exact == expected, (p, coords)


def _certificate_denominator(f: Morphism, j: int) -> int:
    """Independent R_j: dense Fraction Gauss-Jordan on S^T g = e_c, lcm of denominators.

    S is built by HomogPoly products: row (p, i) is X0^(d-1-i)*X1^i*F_p,
    column c its coefficient of X0^(2d-1-c)*X1^c.
    """
    d = f.degree
    n = 2 * d
    rows = []
    for fp in f.lift:
        for i in range(d):
            prod = HomogPoly(2, {(d - 1 - i, i): 1}) * fp
            rows.append([Fraction(prod.terms.get((n - 1 - c, c), 0)) for c in range(n)])
    target = 0 if j == 0 else n - 1
    aug = [[rows[r][c] for r in range(n)] + [Fraction(int(c == target))] for c in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return math.lcm(*(row[n].denominator for row in aug))


@given(_binary_forms)
@settings(max_examples=150, deadline=None)
def test_certificate_identity_divisibility_and_minimality(rows):
    try:
        f = _binary_morphism(rows)
    except ValidationError:
        assume(False)               # a zero lift
    res = f.resultant()
    if res == 0:
        with pytest.raises(ValidationError, match="not a morphism"):
            f.certificate()
        return
    d = f.degree
    f0, f1 = f.lift
    cert = f.certificate()
    assert len(cert) == 2
    for j, (rj, (g0, g1)) in enumerate(cert):
        assert type(rj) is int and rj > 0 and res % rj == 0
        assert all(g.is_zero or g.degree == d - 1 for g in (g0, g1))
        exps = (2 * d - 1, 0) if j == 0 else (0, 2 * d - 1)
        assert g0 * f0 + g1 * f1 == HomogPoly(2, {exps: rj})
        assert rj == _certificate_denominator(f, j)


def test_certificate_pins_and_rejections():
    # sbad: Res 4 and 27, but the certificates need only (1, 2) and (3, 3)
    assert [mp.resultant() for mp in SBAD.maps] == [4, 27]
    assert [tuple(rj for rj, _g in mp.certificate()) for mp in SBAD.maps] == [(1, 2), (3, 3)]
    assert SBAD.maps[0].certificate() is SBAD.maps[0].certificate()   # cached
    with pytest.raises(ValidationError, match="not a morphism: zero resultant"):
        m("X0^2", "X0*X1").certificate()
    with pytest.raises(ValidationError, match="not a morphism"):
        m("X0^2", "0").certificate()
    # P^2, Macaulay degree 4: X_j^4 = X_j^2 * F_j, so every R_j is 1.
    sq3 = Morphism.from_strings(["X0^2", "X1^2", "X2^2"], dim=2)
    for j, (rj, forms) in enumerate(sq3.certificate()):
        target = HomogPoly(3, {tuple(4 * (i == j) for i in range(3)): rj})
        assert rj == 1 and sum((g * f for g, f in zip(forms, sq3.lift)), HomogPoly.zero(3)) == target
    with pytest.raises(ValidationError, match="specialize first"):
        m("X0^2 + t*X1^2", "X1^2").certificate()


@given(_binary_forms)
@example(([1, 0, 0], [0, 0, 2]))              # sbad's first map
@example(([1, 0, 0, 1], [0, 0, 0, 3]))        # sbad's second map
@settings(max_examples=100, deadline=None)
def test_certificate_bounds_image_valuation_bruteforce(rows):
    # Every primitive x mod p^(r+1) is a unit times (1, b) or (p*a, 1), and
    # F(x) = 0 mod p^(r+1) would mean an image of valuation above r.
    try:
        f = _binary_morphism(rows)
    except ValidationError:
        assume(False)
    res = f.resultant()
    assume(res != 0)
    for p in prime_factors(res):
        r = max(ord_p(rj, p) for rj, _g in f.certificate())
        assert r >= 1           # p | Res: the reductions share a root mod p
        mod = p ** (r + 1)
        if mod > 20000:
            continue            # too many residues to enumerate
        reps = [(1, b) for b in range(mod)] + [(p * a, 1) for a in range(mod // p)]
        for x in reps:
            assert any(v % mod for v in f.eval_raw(x)), (p, r, x)


def _exponents(nvars: int, d: int) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(d + 1), repeat=nvars) if sum(e) == d]


def _pn_lift(nvars: int, d: int, coeffs: int = 3):
    """Lifts of degree d on P^(nvars-1): nvars forms, each coefficient in [-coeffs, coeffs]."""
    exps = _exponents(nvars, d)
    form = st.lists(st.integers(-coeffs, coeffs), min_size=len(exps), max_size=len(exps))
    return st.lists(form, min_size=nvars, max_size=nvars).map(
        lambda rows: [HomogPoly(nvars, dict(zip(exps, row))) for row in rows]
    )


@given(st.one_of(_pn_lift(3, 2), _pn_lift(3, 3), _pn_lift(4, 2)))
@example([HomogPoly(3, {(2, 0, 0): 1}), HomogPoly(3, {(0, 2, 0): 1}), HomogPoly(3, {})])
@settings(max_examples=40, deadline=None)
def test_certificate_identity_on_pn(lift):
    # R_j * X_j^delta = sum_i G_ji * F_i by HomogPoly arithmetic, delta the
    # Macaulay degree (N+1)(d-1)+1, and R_j divides the map's minor.
    try:
        f = Morphism(lift)
    except ValidationError:
        assume(False)               # a zero lift
    minor = f.resultant()
    if minor == 0:
        with pytest.raises(ValidationError, match="not a morphism"):
            f.certificate()
        return
    n, d = f.nvars, f.degree
    delta = n * (d - 1) + 1
    for j, (rj, forms) in enumerate(f.certificate()):
        assert type(rj) is int and rj > 0 and minor % rj == 0
        assert len(forms) == n and all(g.is_zero or g.degree == delta - d for g in forms)
        total = HomogPoly.zero(n)
        for g, fi in zip(forms, f.lift):
            total = total + g * fi
        assert total == HomogPoly(n, {tuple(delta * (i == j) for i in range(n)): rj})


@given(
    st.lists(_pn_lift(3, 2, coeffs=2), min_size=1, max_size=2),
    st.sampled_from([2, 3]),
    st.tuples(*[st.integers(-4, 4)] * 3),
    st.integers(1, 4),
)
@example([[HomogPoly(3, {(2, 0, 0): 1}), HomogPoly(3, {(0, 2, 0): 1}), HomogPoly(3, {(0, 0, 2): 4})],
          [HomogPoly(3, {(2, 0, 0): 1, (0, 1, 1): 2}), HomogPoly(3, {(0, 2, 0): 3}),
           HomogPoly(3, {(0, 0, 2): 1, (1, 1, 0): 1})]], 2, (1, 2, 4), 4)
@settings(max_examples=40, deadline=None)
def test_padic_walk_matches_bruteforce_on_p2(lifts, p, coords, depth):
    # A fixed-depth walk on P^2, trimmed by the certificates, gives the
    # exact value of the full big-integer word sum.
    assume(any(coords))
    try:
        system = validate_system([Morphism(lift) for lift in lifts])
    except ValidationError:
        assume(False)               # a zero lift, a non-morphism or alpha <= k
    prof = green_profile(system, coords, Place(p), GreenConfig(depth=depth))
    assert prof.exact == _padic_green_bruteforce(system, coords, p, depth)


def test_pn_trim_is_tight():
    # (0:0:1) maps to (0:0:c), which is (0:0:1) again, so every step has
    # valuation ord_2(c) = max ord_2(R_j): a trim one digit short would
    # read a vanished image.
    for c, value in ((4, Fraction(-63, 32)), (8, Fraction(-189, 64))):
        system = validate_system([Morphism.from_strings(["X0^2", "X1^2", f"{c}*X2^2"], dim=2)])
        assert max(ord_p(rj, 2) for rj, _g in system.maps[0].certificate()) == ord_p(c, 2)
        prof = green_profile(system, (0, 0, 1), Place(2), GreenConfig(depth=6))
        assert prof.exact == value == _padic_green_bruteforce(system, (0, 0, 1), 2, 6)


def test_pn_green_walks_once(monkeypatch):
    # One certified walk per call on P^N, fixed or adaptive: no restarts.
    weighted = validate_system(
        [Morphism.from_strings(["X0^2", "X1^2", "2*X2^2"], dim=2, normalize=False)]
    )
    real_walk = canonical.walk
    calls = []

    def spy_walk(*args):
        calls.append(args[3])
        return real_walk(*args)

    monkeypatch.setattr(canonical, "walk", spy_walk)
    for cfg in (GreenConfig(depth=8), GreenConfig(depth=60, target_eps=1e-6, mode="adaptive")):
        calls.clear()
        prof = green_profile(weighted, (0, 0, 1), Place(2), cfg)
        assert len(calls) == 1 and prof.exact == -1 + Fraction(1, 2**prof.depth)


_quadratic_binary_forms = st.tuples(
    *[st.lists(st.integers(-4, 4), min_size=3, max_size=3) for _ in range(2)]
)


@given(
    st.one_of(
        st.tuples(st.just(1), st.lists(_quadratic_binary_forms, min_size=1, max_size=2)),
        st.tuples(st.just(2), st.lists(_pn_lift(3, 2, coeffs=2), min_size=1, max_size=2)),
    ),
    st.tuples(*[st.integers(-9, 9)] * 3),
    st.integers(-4, -1),
    st.integers(1, 16),
)
@settings(max_examples=60, deadline=None)
def test_adaptive_padic_walk_stops_by_m_star_plus_one(drawn, coords, log_eps, depth):
    # The certificates bound every increment, so an adaptive finite-place
    # walk meets its stop rule by m* + 1 (m* the first level whose certified
    # tail is below eps) or reaches the depth cap, and walks once.  Quadratic
    # maps keep alpha = 2k, so many draws stop before the cap.
    dim, lifts = drawn
    coords = coords[: dim + 1]
    assume(any(coords))
    try:
        if dim == 1:
            system = validate_system([_binary_morphism(rows) for rows in lifts])
        else:
            system = validate_system([Morphism(lift) for lift in lifts])
    except ValidationError:
        assume(False)               # a zero lift or a non-morphism
    eps = 10.0**log_eps
    cfg = GreenConfig(depth=depth, target_eps=eps, mode="adaptive", node_budget=2**12)
    for p in system.bad_primes() if dim == 1 else (2, 3):
        try:
            prof = green_profile(system, coords, Place(p), cfg)
        except BudgetExceededError:
            continue
        if system.k**prof.depth <= 2**12:          # a small brute-force word tree
            assert prof.exact == _padic_green_bruteforce(system, coords, p, prof.depth)
        if prof.chat == 0.0:        # good reduction: the initial content only
            assert prof.depth == 0
            continue
        tails = (canonical.geom_tail(system, prof.chat, m) for m in range(1, depth))
        m_star = next((m for m, tail in enumerate(tails, 1) if tail < eps), depth)
        assert prof.depth <= min(depth, m_star + 1)
        assert prof.depth == depth or canonical._converged(system, cfg, prof.increments, prof.chat)


def _trimmed_profile(system, coords, p, cfg):
    """green_profile with the class table giving up: the trimmed-residue walk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(canonical, "_class_table", lambda *args: None)
        return green_profile(system, coords, Place(p), cfg)


@given(
    st.one_of(
        st.tuples(st.just(1), st.lists(_binary_forms, min_size=1, max_size=2)),
        st.tuples(st.just(2), st.lists(_pn_lift(3, 2, coeffs=2), min_size=1, max_size=2)),
    ),
    st.tuples(*[st.integers(-9, 9)] * 3),
    st.sampled_from(["fixed", "adaptive"]),
    st.integers(1, 6),
)
@example((1, [([1, 0, 0], [0, 0, 2]), ([1, 0, 0, 1], [0, 0, 0, 3])]), (5, 7, 0), "fixed", 6)  # sbad
@example((1, [([1, 0, 0], [0, 0, 2]), ([1, 0, 0, 1], [0, 0, 0, 3])]), (5, 7, 0), "adaptive", 6)
@example((2, [[HomogPoly(3, {(2, 0, 0): 1}), HomogPoly(3, {(0, 2, 0): 1}),
               HomogPoly(3, {(0, 0, 2): 2})]]), (1, 2, 4), "fixed", 5)
@settings(max_examples=60, deadline=None)
def test_class_walk_matches_trimmed_walk_and_bruteforce(drawn, coords, mode, depth):
    # Where the residue-class table closes, its walk gives every word the
    # valuations of the trimmed walk: the same increments, depth and exact
    # value, which is the full big-integer word sum.  Both walks run either
    # way; the table closes on a good share of the draws.
    dim, lifts = drawn
    coords = coords[: dim + 1]
    assume(any(coords))
    try:
        if dim == 1:
            system = validate_system([_binary_morphism(rows) for rows in lifts])
        else:
            system = validate_system([Morphism(lift) for lift in lifts])
    except ValidationError:
        assume(False)               # a zero lift, a non-morphism or alpha <= k
    cfg = GreenConfig(depth=depth, target_eps=1e-2, mode=mode)
    for p in system.bad_primes() if dim == 1 else (2, 3):
        prof = green_profile(system, coords, Place(p), cfg)
        trimmed = _trimmed_profile(system, coords, p, cfg)
        assert prof.exact == trimmed.exact == _padic_green_bruteforce(system, coords, p, prof.depth)
        assert (prof.increments, prof.depth) == (trimmed.increments, trimmed.depth)


def test_higher_dimension_green_and_oracle():
    sq3 = Morphism.from_strings(["X0^2", "X1^2", "X2^2"], dim=2)
    system = validate_system([sq3])
    p = parse_point("2:3:1")
    oracle = canonical_height_oracle_detailed(system, p, 4)
    assert oracle.value == pytest.approx(weil_height(p), abs=1e-12)
    assert green_local(system, p.coords, INFINITY, GreenConfig(depth=8)) == pytest.approx(
        weil_height(p), abs=1e-12
    )
    # 5 divides no D of the map: good reduction, the initial content only
    assert green_local(system, p.coords, Place.prime(5), GreenConfig(depth=8)) == 0.0
    weighted = validate_system(
        [Morphism.from_strings(["X0^2", "X1^2", "2*X2^2"], dim=2, normalize=False)]
    )
    prof = green_profile(weighted, (0, 0, 1), Place.prime(2), GreenConfig(depth=8))
    assert prof.exact == Fraction(-(2**8 - 1), 2**8)  # -sum 2^-m over m=1..8
    from dynheight.errors import ValidationError

    with pytest.raises(ValidationError):
        canonical_height(system, p, CFG)  # finite places need P^1 resultants


def test_zero_coordinate_lift_on_p2():
    # The zero coordinate evaluates to the scalar 0, which must fill a whole
    # column of the level array.  The first map is not a morphism (it
    # vanishes at (0:0:1)), so validate_system would reject the system.
    maps = (
        Morphism.from_strings(["X0^2", "X1^2", "0"], dim=2),
        Morphism.from_strings(["X0^3", "X1^3", "X2^3"], dim=2),
    )
    system = PolarizedSystem(maps=maps, k=2, alpha=5, dim=2)
    assert green_local(system, (3, 2, 5), INFINITY, GreenConfig(depth=5)) == 1.138334089172153


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
    assert r.target_met is None  # fixed mode sets no target
    for eps, met in ((1e-8, True), (1e-13, False)):
        r = canonical_height(X2P1, parse_point("3:1"), GreenConfig(60, eps, "adaptive"))
        assert r.target_met is met and (r.tail_bound <= eps) is met


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


def test_lift_coordinates_of_the_wrong_length_are_rejected():
    # A P^1 system takes two lift coordinates, at every place.
    for coords in [(5,), (1, 2, 3)]:
        for place in (INFINITY, Place.prime(2)):
            with pytest.raises(ValidationError, match="dimension mismatch"):
                green_local(MONOMIAL, coords, place, CFG)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        canonical_local_height(MONOMIAL, parse_point("1:2:3"), 2, INFINITY, CFG)


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
    anchor = canonical_height(CHEB, parse_point("3:1"), CFG)
    assert abs(anchor.value - math.log((3 + math.sqrt(5)) / 2)) <= anchor.tail_bound


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


def _arch_profile(walker, system, coords, cfg):
    prof = walker(system, coords, cfg)
    return (prof.value, prof.increments, prof.chat, prof.depth, prof.nodes)


ARCH_CFGS = (GreenConfig(depth=20), GreenConfig(depth=60, target_eps=1e-9, mode="adaptive"))
ARCH_POINTS = ((3, 1), (0, 1), (1, 0), (-7, 5), (123456, 789), (2**70 + 1, 3))


SYSTEMS = Path(__file__).resolve().parents[1] / "scripts" / "systems"


def _fibers(name, ts):
    family = load_system_file(SYSTEMS / name).family
    return [specialize(family, Fraction(t)) for t in ts]


def _assert_chain_equals_tree(system, coords, cfg):
    chain = _arch_profile(canonical._green_chain, system, coords, cfg)
    assert chain == _arch_profile(canonical._green_tree, system, coords, cfg), (
        str(system.maps[0]), coords, cfg,
    )


def test_chain_walk_equals_tree_on_exponent_two_lifts():
    # The chain squares as x*x and takes np.log of each sup norm, the tree's
    # operations on the same values, so the profiles are equal bit for bit.
    systems = [X2P1, X6]
    systems += _fibers("x2plust.json", ("-2", "1/3", "5", "-17/4", "1000", "-19/10", "-7/4"))
    systems += _fibers("ty2_family.json", ("2", "-3", "7/2", "1/1024"))
    for system in systems:
        for cfg in ARCH_CFGS:
            for coords in ARCH_POINTS:
                _assert_chain_equals_tree(system, coords, cfg)


def _assert_chain_close_to_tree(system, coords, cfg):
    value, incs, chat, depth, nodes = _arch_profile(canonical._green_chain, system, coords, cfg)
    ref = _arch_profile(canonical._green_tree, system, coords, cfg)
    assert (depth, nodes) == ref[3:]
    assert abs(value - ref[0]) <= FLOAT_SLACK
    assert all(abs(a - b) <= FLOAT_SLACK for a, b in zip(incs, ref[1]))
    # chat is a maximum over levels: once rounding has moved a chaotic orbit
    # (T6 on [-2, 2]), the two walks' deep levels visit different points and
    # their chat can differ by O(1), but only where (k/alpha)^m makes the tail
    # negligible.
    tails = [canonical.geom_tail(system, c, depth) for c in (chat, ref[2])]
    assert abs(tails[0] - tails[1]) <= FLOAT_SLACK


def test_chain_walk_near_tree_on_higher_exponents():
    # Float pow on X0^6, X0^4*X1^2, ... need not round like numpy's pow.
    for cfg in ARCH_CFGS:
        for coords in ARCH_POINTS:
            _assert_chain_close_to_tree(CHEB6, coords, cfg)


@given(
    st.integers(2, 4).flatmap(
        lambda d: st.tuples(
            *[st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1) for _ in range(2)]
        )
    ),
    st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
)
@settings(max_examples=60, deadline=None)
def test_chain_walk_near_tree_random_lifts(rows, coords):
    try:
        system = validate_system([_binary_morphism(rows)])
    except ValidationError:
        assume(False)
    assume(coords != (0, 0))
    for cfg in ARCH_CFGS:
        if system.alpha == 2:  # squares and products only: the same bits
            _assert_chain_equals_tree(system, coords, cfg)
        else:
            _assert_chain_close_to_tree(system, coords, cfg)


def test_chain_walk_raises_like_tree():
    bad = Morphism.from_strings(["X0^2", "X0*X1", "X0*X2"], dim=2)
    non_morphism = PolarizedSystem(maps=(bad,), k=1, alpha=2, dim=2)
    huge = validate_system([m(f"{10**400}*X0^2+X1^2", "X1^2", norm=False)])
    cases = [
        (X2P1, (0, 0), CFG, (ValidationError, "zero lift coordinates")),
        (X2P1, (3, 1), GreenConfig(depth=30, node_budget=10),
         (BudgetExceededError, "budget exceeded: depth 11 needs 11 nodes > 10")),
        (non_morphism, (0, 1, 1), CFG,
         (IndeterminatePointError, "indeterminate point in word tree")),
        (huge, (1, 1), CFG, (ValidationError, "lift coefficient is too large for a float")),
    ]
    for system, coords, cfg, expected in cases:
        raised = []
        for walker in (canonical._green_chain, canonical._green_tree):
            with pytest.raises(DynHeightError) as info:
                walker(system, coords, cfg)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1], (coords, raised)
        assert raised[0] == expected, (coords, raised)
    assert raised[0][0] is ValidationError  # the last case: no float holds 10^400
    with pytest.raises(IndeterminatePointError, match="indeterminate point in word tree"):
        green_local(non_morphism, (0, 1, 1), INFINITY, CFG)


# float.hex of (value, chat, depth, nodes) and the increments of both
# archimedean walks.  The chain-versus-tree tests compare two steps of one
# level loop, so only these pins catch a fault in the loop itself.
PIN_CFGS = {
    "fixed": GreenConfig(depth=16),
    "adaptive": GreenConfig(depth=40, target_eps=1e-6, mode="adaptive"),
}
PIN_POINTS = {"CHEB": (7, 5), "MONOMIAL": (-7, 5), "SBAD": (5, 7), "X2P1": (0, 1), "FIB": (1, 3)}
ARCH_PINS = {
    ("_green_tree", "CHEB", "fixed"): (
        "0x1.9c0421eec7c42p+0", "0x1.1932a971aa21ap-1", 16, 131070,
        "-0x1.0b9b0c271ade3p-2 -0x1.336cb609d7bd3p-5 -0x1.6ee990d5c956dp-7 "
        "-0x1.e789c6f4ef8c3p-7 -0x1.062d2b8d33e06p-7 -0x1.39b3deeefb684p-9 "
        "-0x1.c534b01b71076p-12 -0x1.ac9ab4b3bf7e4p-12 -0x1.16ffcf5f8a69ep-12 "
        "-0x1.0e58da95b48ddp-22 -0x1.67e13b1a05cc3p-16 -0x1.541060329734dp-18 "
        "-0x1.477a1b6a36e9fp-18 -0x1.14de7cea9673cp-20 -0x1.d9316bae6fe09p-21 "
        "-0x1.4f0b6454a3b6bp-22",
    ),
    ("_green_tree", "CHEB", "adaptive"): (
        "0x1.9c04272af5557p+0", "0x1.1932a971aa21ap-1", 15, 65534,
        "-0x1.0b9b0c271ade3p-2 -0x1.336cb609d7bd3p-5 -0x1.6ee990d5c956dp-7 "
        "-0x1.e789c6f4ef8c3p-7 -0x1.062d2b8d33e06p-7 -0x1.39b3deeefb684p-9 "
        "-0x1.c534b01b71076p-12 -0x1.ac9ab4b3bf7e4p-12 -0x1.16ffcf5f8a69ep-12 "
        "-0x1.0e58da95b48ddp-22 -0x1.67e13b1a05cc3p-16 -0x1.541060329734dp-18 "
        "-0x1.477a1b6a36e9fp-18 -0x1.14de7cea9673cp-20 -0x1.d9316bae6fe09p-21",
    ),
    ("_green_tree", "MONOMIAL", "fixed"): (
        "0x1.f2272ae325a57p+0", "0x0.0p+0", 16, 131070,
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0",
    ),
    ("_green_tree", "MONOMIAL", "adaptive"): (
        "0x1.f2272ae325a57p+0", "0x0.0p+0", 2, 6,
        "0x0.0p+0 0x0.0p+0",
    ),
    ("_green_tree", "SBAD", "fixed"): (
        "0x1.45865de5cf68ap+1", "0x1.6ef3cc821b335p-2", 16, 131070,
        "0x1.6ef3cc821b335p-2 0x1.258fd6ce7c291p-3 0x1.d5b2f14a6041bp-5 "
        "0x1.77c25aa1e69afp-6 0x1.2c9b7bb4b87c0p-7 0x1.e0f8c5edf3f9ap-9 "
        "0x1.80c704be5cc7bp-10 0x1.33d26a31e3d2fp-11 0x1.ec83dd1c9fb7fp-13 "
        "0x1.8a03174a19600p-14 0x1.3b35ac3b47800p-15 0x1.f855e05ed8ccbp-17 "
        "0x1.9377e6b2470a3p-18 0x1.42c6522838d4fp-19 0x1.023841b9c710cp-20 "
        "0x1.9d26cf8fa4e79p-22",
    ),
    ("_green_tree", "SBAD", "adaptive"): (
        "0x1.45865de5cf68ap+1", "0x1.6ef3cc821b335p-2", 16, 131070,
        "0x1.6ef3cc821b335p-2 0x1.258fd6ce7c291p-3 0x1.d5b2f14a6041bp-5 "
        "0x1.77c25aa1e69afp-6 0x1.2c9b7bb4b87c0p-7 0x1.e0f8c5edf3f9ap-9 "
        "0x1.80c704be5cc7bp-10 0x1.33d26a31e3d2fp-11 0x1.ec83dd1c9fb7fp-13 "
        "0x1.8a03174a19600p-14 0x1.3b35ac3b47800p-15 0x1.f855e05ed8ccbp-17 "
        "0x1.9377e6b2470a3p-18 0x1.42c6522838d4fp-19 0x1.023841b9c710cp-20 "
        "0x1.9d26cf8fa4e79p-22",
    ),
    ("_green_chain", "X2P1", "fixed"): (
        "0x1.a1218b442cce1p-3", "0x1.62e42fefa39efp-2", 16, 16,
        "0x0.0p+0 0x1.62e42fefa39efp-3 0x1.c8ff7c79a9a22p-6 "
        "0x1.414bcc0a3665dp-9 0x1.83801cd7cc463p-15 0x1.24d75432402d7p-25 "
        "0x1.4efbfffffc935p-45 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0",
    ),
    ("_green_chain", "X2P1", "adaptive"): (
        "0x1.a1218b442cce1p-3", "0x1.62e42fefa39efp-2", 20, 20,
        "0x0.0p+0 0x1.62e42fefa39efp-3 0x1.c8ff7c79a9a22p-6 "
        "0x1.414bcc0a3665dp-9 0x1.83801cd7cc463p-15 0x1.24d75432402d7p-25 "
        "0x1.4efbfffffc935p-45 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0",
    ),
    ("_green_chain", "FIB", "fixed"): (
        "0x1.8f6e735298ebbp+1", "0x1.6742a858acb50p+0", 16, 16,
        "0x1.6742a858acb50p+0 0x1.19e4bca56093dp-2 0x1.5c3f775e4855ap-3 "
        "0x1.62d98729f600ep-4 0x1.62e42fd4e6937p-5 0x1.62e42fefa39efp-6 "
        "0x1.62e42fefa39efp-7 0x1.62e42fefa39efp-8 0x1.62e42fefa39efp-9 "
        "0x1.62e42fefa39efp-10 0x1.62e42fefa39efp-11 0x1.62e42fefa39efp-12 "
        "0x1.62e42fefa39efp-13 0x1.62e42fefa39efp-14 0x1.62e42fefa39efp-15 "
        "0x1.62e42fefa39efp-16",
    ),
    ("_green_chain", "FIB", "adaptive"): (
        "0x1.8f6f21fee883bp+1", "0x1.6742a858acb50p+0", 22, 22,
        "0x1.6742a858acb50p+0 0x1.19e4bca56093dp-2 0x1.5c3f775e4855ap-3 "
        "0x1.62d98729f600ep-4 0x1.62e42fd4e6937p-5 0x1.62e42fefa39efp-6 "
        "0x1.62e42fefa39efp-7 0x1.62e42fefa39efp-8 0x1.62e42fefa39efp-9 "
        "0x1.62e42fefa39efp-10 0x1.62e42fefa39efp-11 0x1.62e42fefa39efp-12 "
        "0x1.62e42fefa39efp-13 0x1.62e42fefa39efp-14 0x1.62e42fefa39efp-15 "
        "0x1.62e42fefa39efp-16 0x1.62e42fefa39efp-17 0x1.62e42fefa39efp-18 "
        "0x1.62e42fefa39efp-19 0x1.62e42fefa39efp-20 0x1.62e42fefa39efp-21 "
        "0x1.62e42fefa39efp-22",
    ),
}


def test_arch_walks_match_pinned_bits():
    systems = {"CHEB": CHEB, "MONOMIAL": MONOMIAL, "SBAD": SBAD, "X2P1": X2P1}
    (systems["FIB"],) = _fibers("x2plust.json", ("-17/4",))
    for (walker, name, cfg), (value, chat, depth, nodes, incs) in ARCH_PINS.items():
        prof = getattr(canonical, walker)(systems[name], PIN_POINTS[name], PIN_CFGS[cfg])
        got = (prof.value.hex(), prof.chat.hex(), prof.depth, prof.nodes)
        assert got == (value, chat, depth, nodes), (walker, name, cfg)
        assert " ".join(x.hex() for x in prof.increments) == incs, (walker, name, cfg)


def test_walk_merges_states_and_charges_distinct_ones():
    expanded = []

    def step(s):
        expanded.append(s)
        return (s + 1, s + 2), 10 * s + 1

    levels = [(m, nodes, dict(level), total) for m, nodes, level, total in walk(0, step, 2, 3, 100)]
    # total sums words * weight over the states just expanded: 1*1; 1*11 +
    # 1*21; 1*21 + 2*31 + 1*41
    assert levels == [
        (1, 2, {1: 1, 2: 1}, 1),
        (2, 6, {2: 1, 3: 2, 4: 1}, 32),
        (3, 12, {3: 1, 4: 3, 5: 3, 6: 1}, 124),
    ]
    assert expanded == [0, 1, 2, 2, 3, 4]  # each distinct state once per level
    with pytest.raises(BudgetExceededError, match="depth 2 needs 6 nodes > 5"):
        list(walk(0, step, 2, 3, 5))


def test_padic_budget_counts_distinct_states(monkeypatch):
    # 2^22 or 2^23 words, but a few distinct residue classes per level, or a
    # few hundred trimmed residues when the class table gives up; the
    # adaptive horizon is m* + 1, m* the first level with tail below eps
    cfg = GreenConfig(depth=60, target_eps=1e-9, mode="adaptive")
    cases = [
        (2, -math.log(2) / 19, 22, 164, 772, Fraction(-125483462679796, 2384185791015625)),
        (3, -math.log(3) / 4, 23, 214, 876, Fraction(-2980232238769531, 11920928955078125)),
    ]
    for p, value, depth, class_nodes, _nodes, exact in cases:
        assert canonical._class_table(SBAD, (5, 7), p) is not None
        prof = green_profile(SBAD, (5, 7), Place(p), cfg)
        assert prof.value == pytest.approx(value, abs=1e-9)
        assert (prof.depth, prof.nodes, prof.exact) == (depth, class_nodes, exact)
    monkeypatch.setattr(canonical, "_class_table", lambda *args: None)
    for p, value, depth, _class_nodes, nodes, exact in cases:
        prof = green_profile(SBAD, (5, 7), Place(p), cfg)
        assert prof.value == pytest.approx(value, abs=1e-9)
        assert (prof.depth, prof.nodes, prof.exact) == (depth, nodes, exact)


def test_budget_exceeded(monkeypatch):
    with pytest.raises(BudgetExceededError, match="budget exceeded"):
        green_local(MONOMIAL, (2, 1), INFINITY, GreenConfig(depth=30, node_budget=1000))
    # sbad's orbit images never coincide, so every word is a distinct state
    monkeypatch.setenv("DYNHEIGHT_NODE_BUDGET", "1000")
    with pytest.raises(BudgetExceededError, match="depth 9 needs 1022 nodes > 1000"):
        canonical_height_oracle_detailed(SBAD, parse_point("5:7"), 30)
    # A budget of 0 is a budget, not "unset".
    monkeypatch.setenv("DYNHEIGHT_NODE_BUDGET", "0")
    with pytest.raises(BudgetExceededError):
        canonical_height_oracle_detailed(MONOMIAL, parse_point("2:1"), 1)


def test_fixed_padic_walk_fails_before_building_residues():
    # A fixed walk charges at least k evaluations per level, so k*depth over
    # the budget fails at once; an adaptive walk may stop early and is not
    # refused up front.
    with pytest.raises(BudgetExceededError, match="depth 50 needs at least 100 nodes > 99"):
        green_profile(SBAD, (5, 7), Place(3), GreenConfig(depth=50, node_budget=99))
    weighted = validate_system(
        [Morphism.from_strings(["X0^2", "X1^2", "2*X2^2"], dim=2, normalize=False)]
    )
    with pytest.raises(BudgetExceededError, match="depth 8 needs at least 8 nodes > 7"):
        green_profile(weighted, (0, 0, 1), Place(2), GreenConfig(depth=8, node_budget=7))
    prof = green_profile(weighted, (0, 0, 1), Place(2), GreenConfig(depth=8, node_budget=8))
    assert prof.nodes == 8
    adaptive = GreenConfig(depth=10**4, target_eps=1e-3, mode="adaptive", node_budget=10**4)
    assert green_profile(SBAD, (5, 7), Place(3), adaptive).depth < 20


def _profile_bits(prof):
    return (prof.value.hex(), [x.hex() for x in prof.increments], prof.chat.hex(),
            prof.depth, prof.nodes)


@given(
    st.lists(_binary_forms, min_size=2, max_size=3),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.integers(2**6, 2**12),
    st.sampled_from(["fixed", "adaptive"]),
    st.integers(1, 9),
    st.integers(1, 14),
)
# CHEB at 5:7 with budget 4096: refused at eps 1e-9, stops at level 5 at eps 1e-2
@example([([1, 0, -2], [0, 0, 1]), ([1, 0, -3, 0], [0, 0, 0, 1])], (5, 7), 4096, "adaptive", 9, 14)
@example([([1, 0, -2], [0, 0, 1]), ([1, 0, -3, 0], [0, 0, 0, 1])], (5, 7), 4096, "adaptive", 2, 14)
# Budgets of exactly 2^10 - 2 and 2^12 - 2 nodes: CHEB's fixed walk fills
# the horizon, and the adaptive walks stop at it with geom_tail(chat, last)
# at 0.97 and 0.98 eps, so a rule that refuses a tail below 0.97 eps fails.
@example([([1, 0, -2], [0, 0, 1]), ([1, 0, -3, 0], [0, 0, 0, 1])], (5, 7), 4094, "fixed", 9, 11)
@example([([4, 2, 1], [0, 2, 2]), ([-2, -4], [1, -4])], (5, 7), 1022, "adaptive", 1, 14)
@example([([2, 3], [0, -2]), ([1, 4, 4, 2], [3, 3, -4, -2])], (2, 1), 4094, "adaptive", 3, 14)
@settings(max_examples=80, deadline=None)
def test_arch_refusal_is_exact(forms, coords, budget, mode, log_eps, depth):
    # A walk refused at its budget horizon raises iff the same walk with an
    # unlimited budget charges more than the budget before it stops, with
    # the message of the level that breaks the budget; any other walk
    # returns the unlimited walk's profile bit for bit.
    try:
        system = validate_system([_binary_morphism(rows) for rows in forms])
    except ValidationError:
        assume(False)               # a zero lift, a non-morphism or alpha <= k
    assume(coords != (0, 0) and system.k**depth <= 2**14)
    cfg = GreenConfig(depth=depth, target_eps=10.0**-log_eps, mode=mode)
    try:
        ref = canonical._green_tree(system, coords, cfg)
    except DynHeightError:
        assume(False)               # a float fault: no budget to compare
    limited = GreenConfig(depth=depth, target_eps=cfg.target_eps, mode=mode, node_budget=budget)
    event(f"{mode} {'returns' if ref.nodes <= budget else 'raises'}")
    if ref.nodes <= budget:
        assert _profile_bits(canonical._green_tree(system, coords, limited)) == _profile_bits(ref)
        return
    nodes = m = 0
    while nodes <= budget:
        m += 1
        nodes += system.k**m
    with pytest.raises(BudgetExceededError) as info:
        canonical._green_tree(system, coords, limited)
    assert str(info.value) == f"budget exceeded: depth {m} needs {nodes} nodes > {budget}"


def test_doomed_cheb_walk_is_refused_within_two_levels(monkeypatch):
    # At eps 1e-9 CHEB's tail after level 22 is still above eps, so the
    # walk is refused as soon as chat shows it, not after 8.4 M nodes.
    levels = []
    arch_walk = canonical._arch_walk

    def counted(system, coords, cfg, step):
        def counted_step(level, m):
            levels.append(m)
            return step(level, m)
        return arch_walk(system, coords, cfg, counted_step)

    monkeypatch.setattr(canonical, "_arch_walk", counted)
    cfg = GreenConfig(depth=60, target_eps=1e-9, mode="adaptive")
    for text in ("5:7", "2:1"):
        levels.clear()
        with pytest.raises(BudgetExceededError) as info:
            canonical_height(CHEB, parse_point(text), cfg)
        assert str(info.value) == "budget exceeded: depth 23 needs 16777214 nodes > 10000000"
        assert 1 <= len(levels) <= 2, (text, levels)


def test_long_adaptive_chain_keeps_its_profile():
    # The chain's horizon is its budget, found without a loop; past it,
    # (k/alpha)^last underflows to 0 and only the walk itself can fail.
    pinned = (
        "0x1.275ef006f9dcfp+0",
        ["0x1.af8e8210a4161p-5", "0x1.460d6ccca367cp-9", "0x1.9b2553f319f35p-17",
         "0x1.4a20276564916p-31"] + ["0x0.0p+0"] * 23,
        "0x1.af8e8210a4161p-5", 27, 27,
    )
    for depth in (10**6, 2 * 10**6):
        cfg = GreenConfig(depth=depth, mode="adaptive", node_budget=10**6)
        assert _profile_bits(canonical._green_chain(X2P1, (3, 1), cfg)) == pinned, depth
    assert canonical._arch_horizon(1, 10**6) == (10**6, 10**6)
    assert canonical._arch_horizon(2, 10**7) == (22, 2**23 - 2)
    assert canonical._arch_horizon(2, 2**23 - 2) == (22, 2**23 - 2)
    assert canonical._arch_horizon(2, 2**23 - 3) == (21, 2**22 - 2)
    assert canonical._arch_horizon(3, 2) == (0, 0)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("DYNHEIGHT_NODE_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        green_local(MONOMIAL, (2, 1), INFINITY, GreenConfig(depth=10))
    lifts = (["X0^2+t*X1^2", "X1^2"], ["X0^3", "X1^3"])
    family = ParamSystem.build([Morphism.from_strings(p, dim=1) for p in lifts])
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


def test_forward_orbit_is_breadth_first():
    # 1 + 2 + 4 + 8 + 16 = 31 points are the images of words of length <= 4,
    # so with max_points 32 the budget ends the walk inside level 5.  A
    # depth-first walk would chase ever longer words instead.
    sbad = load_system_file(SYSTEMS.parents[1] / "perfbench" / "systems" / "sbad.json").system
    start = parse_point("5:7")
    orbit, closed = forward_orbit(sbad, start, max_points=32)
    assert not closed and len(orbit) == 32
    level, words = [start], {start.coords}
    for _ in range(5):
        level = [mp.apply(pt) for pt in level for mp in sbad.maps]
        words |= {pt.coords for pt in level}
    assert orbit <= words


def test_padic_walk_rejects_indeterminate_point():
    # bypass validation: the p-adic walk itself rejects a non-morphism on
    # P^2 by its zero D, before it walks at all (exit 2)
    bad = Morphism.from_strings(["X0^2", "X0*X1", "X0*X2"], dim=2)
    system = PolarizedSystem(maps=(bad,), k=1, alpha=2, dim=2)
    with pytest.raises(ValidationError, match="not a morphism") as exc:
        green_local(system, (0, 1, 1), Place.prime(3), GreenConfig(depth=4))
    assert exc.value.exit_code == 2
