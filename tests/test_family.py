"""Families over Q(t): specialization, ff heights, and the three sweeps."""

import functools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dynheight.canonical import GreenConfig, canonical_height
from dynheight.dynsys import HomogPoly, Morphism
from dynheight.errors import BadParameterError, ValidationError
from dynheight.exactnum import INFINITY, Place, clear_denominators, ord_p
from dynheight.family import (
    ParamSystem,
    Section,
    SweepRow,
    _fit_envelope,
    base_height,
    boundary_local_height,
    ff_canonical_height,
    limit_ratio,
    local_variation_sweep,
    rows_to_csv,
    specialize,
    variation_sweep,
)
from dynheight.polynomial import TPoly, parse_tpoly
from dynheight.projective import ff_height, normalize, parse_point

ADAPTIVE = GreenConfig(depth=40, mode="adaptive", target_eps=1e-9)


def fam(*polys):
    return ParamSystem.build([Morphism.from_strings(p, dim=1) for p in polys])


X2PT = fam(["X0^2+t*X1^2", "X1^2"])
TY2 = fam(["X0^2", "t*X1^2"])
CONST_MONOMIAL = fam(["X0^2", "X1^2"], ["X0^3", "X1^3"])
ZERO_SEC = Section.from_strings(["0", "1"])


def _horner(poly, t0):
    """P(t0) by Horner's rule, in the type of t0."""
    return functools.reduce(lambda acc, c: acc * t0 + c, reversed(poly.c), 0)


def test_param_system_invariants():
    assert (X2PT.k, X2PT.alpha) == (1, 2)
    assert str(X2PT.good_locus) == "1"
    assert str(TY2.good_locus) == "t^2"
    with pytest.raises(ValidationError, match="not polarized"):
        fam(["X0", "X1"], ["X0+X1", "X1"])


def test_specialize_examples():
    s = specialize(CONST_MONOMIAL, Fraction(5))
    assert (s.k, s.alpha) == (2, 5)
    with pytest.raises(BadParameterError, match="good locus"):
        specialize(TY2, 0)
    s1 = specialize(X2PT, 1)
    assert str(s1.maps[0]) == "(X0^2 + X1^2, X1^2)"
    s_half = specialize(X2PT, Fraction(1, 2))
    assert str(s_half.maps[0]) == "(2*X0^2 + X1^2, 2*X1^2)"


def test_specialize_compatibility():
    for t0 in (1, -3, Fraction(7, 2)):
        s = specialize(X2PT, t0)
        assert s.alpha == X2PT.alpha and s.k == X2PT.k


def test_specialized_bad_primes_divide_good_locus_value():
    # bad primes of the fiber divide R(t0) times the denominator-clearing scale
    for t0 in (Fraction(6), Fraction(10), Fraction(3, 2)):
        fiber = specialize(TY2, t0)
        r_val = _horner(TY2.good_locus, t0)
        bound = r_val.numerator * r_val.denominator
        for p in fiber.bad_primes():
            assert bound % p == 0


def _fraction_route_fiber(mp, t0):
    """The fiber lift by Fractions: each coefficient at t0, clear_denominators, the canonical lift."""
    keys = [(i, e) for i, form in enumerate(mp.lift) for e in form.terms]
    vals = [mp.lift[i].terms[e] for i, e in keys]
    ints = clear_denominators(_horner(c, t0) if isinstance(c, TPoly) else c for c in vals)
    forms = [{} for _ in mp.lift]
    for (i, e), v in zip(keys, ints):
        forms[i][e] = v
    return Morphism([HomogPoly(mp.nvars, terms) for terms in forms])


_tpolys = st.lists(st.integers(-3, 3), max_size=3).map(TPoly)


@st.composite
def _parametric_lifts(draw):
    d = draw(st.integers(1, 2))
    return [HomogPoly(2, {(d - i, i): draw(_tpolys) for i in range(d + 1)}) for _ in range(2)]


@given(
    _parametric_lifts(),
    st.tuples(_tpolys, _tpolys),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
@example([HomogPoly(2, {(2, 0): 1, (0, 2): TPoly((0, 1))}), HomogPoly(2, {(0, 2): 1})],
         (TPoly((0, 1)), TPoly((1,))), Fraction(1, 2))
@settings(max_examples=80, deadline=None)
def test_integer_specialization_matches_fraction_route(lift, coords, drawn):
    # Fibers, sections and the good-locus test in integers (b^D * c(a/b))
    # give what Fraction evaluation and clearing denominators gave.
    try:
        mp = Morphism(lift)
        family = ParamSystem.build([mp])
    except ValidationError:
        assume(False)               # a zero lift or a zero t-resultant
    assume(any(not c.is_zero for c in coords))
    section = Section(normalize(list(coords)))
    for t0 in (drawn, Fraction(0), Fraction(-3), Fraction(-7, 2), Fraction(5, 3)):
        try:
            expected = _fraction_route_fiber(mp, t0)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                mp.specialize(t0)
        else:
            assert mp.specialize(t0).lift == expected.lift
        if _horner(family.good_locus, t0) == 0:
            with pytest.raises(BadParameterError, match="not in the good locus"):
                specialize(family, t0)
        else:
            assert specialize(family, t0).maps == (expected,)
        vals = [_horner(c, t0) for c in section.point.coords]
        assert section.specialize_at(t0) == normalize(vals)


@given(
    st.lists(_tpolys, min_size=2, max_size=3).filter(lambda cs: any(not c.is_zero for c in cs)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.booleans(),
)
def test_normalized_section_specializes_everywhere(coords, t0, shared_root):
    # normalize divides out the coordinates' gcd in Q[t], so they never all
    # vanish at a rational t0, even when the raw coordinates share the
    # factor b*t - a and t0 = a/b is its root.
    if shared_root:
        coords = [c * TPoly((-t0.numerator, t0.denominator)) for c in coords]
    section = Section(normalize(coords))
    point = section.specialize_at(t0)
    assert any(point.coords)
    assert point == normalize([_horner(c, t0) for c in section.point.coords])


def test_section_specialization():
    sec = Section.from_strings(["t", "1"])
    assert sec.specialize_at(3).coords == (3, 1)
    assert sec.specialize_at(Fraction(1, 2)).coords == (1, 2)
    # normalization removes the common factor, so [t : t^2] is [1 : t] and
    # specializes everywhere, including t = 0
    shared = Section.from_strings(["t", "t^2"])
    assert shared.specialize_at(2).coords == (1, 2)
    assert shared.specialize_at(0).coords == (1, 0)


def test_ff_height_degree_oracle():
    # Independent induction oracle: deg f^n(0) = 2^(n-1) for the x^2 + t family.
    f = X2PT.maps[0]
    point = ZERO_SEC.point
    for n in range(1, 9):
        point = f.apply(point)
        assert ff_height(point) == 2 ** (n - 1)


def test_ff_canonical_height_examples():
    const_x2 = fam(["X0^2", "X1^2"])
    r = ff_canonical_height(const_x2, Section.from_strings(["t", "1"]), 4)
    assert r.value == Fraction(1) and r.last_increment == 0
    r2 = ff_canonical_height(X2PT, ZERO_SEC, 8)
    assert r2.value == Fraction(1, 2) and r2.last_increment == 0
    # stabilized from depth 1 on
    for n in range(1, 9):
        assert ff_canonical_height(X2PT, ZERO_SEC, n).value == Fraction(1, 2)
    r3 = ff_canonical_height(X2PT, Section.from_strings(["1", "0"]), 6)
    assert r3.value == Fraction(0)
    assert ff_canonical_height(CONST_MONOMIAL, Section.from_strings(["2", "1"]), 4).value == 0


def test_ff_canonical_height_ty2_moving_section():
    # (X0^2, t*X1^2) has resultant t^2.  The image of (t + 1 : t) at depth n
    # is coprime of degree 2^(n+1) - 1, so the average is (2^10 - 1) / 2^9.
    r = ff_canonical_height(TY2, Section.from_strings(["t+1", "t"]), 9)
    assert (r.value, r.last_increment) == (Fraction(1023, 512), Fraction(1, 512))


def test_huge_fiber_coefficient_rejected():
    fiber = specialize(X2PT, Fraction(10**400))
    with pytest.raises(ValidationError, match="too large for a float"):
        canonical_height(fiber, parse_point("0:1"))


def test_variation_sweep_constant_family_exact_zero():
    vs = variation_sweep(
        CONST_MONOMIAL,
        [Section.from_strings(["t", "1"]), Section.from_strings(["2", "1"])],
        [1, 2, 3, 5, 8],
        GreenConfig(depth=15),
    )
    assert all(r.value == 0.0 for r in vs.rows)
    assert vs.c1 == 0.0 and vs.c2 == 0.0 and not vs.violations


def test_variation_sweep_x2pt_envelope():
    ts = [t for a in range(1, 51) for t in (a, -a)]
    vs = variation_sweep(X2PT, [ZERO_SEC], ts, ADAPTIVE)
    assert len(vs.rows) == 100 and not vs.skipped
    assert 0.4 <= vs.c1 <= 0.6
    assert not vs.violations
    # the envelope also holds on the full sample
    assert all(r.value <= vs.c1 * r.h_t + vs.c2 + 1e-9 for r in vs.rows)


def test_variation_sweep_fixed_point_at_infinity():
    vs = variation_sweep(X2PT, [Section.from_strings(["1", "0"])], [1, 2, 3], ADAPTIVE)
    assert all(r.value == 0.0 for r in vs.rows)


def test_variation_sweep_skips_bad_parameters():
    vs = variation_sweep(TY2, [Section.from_strings(["1", "1"])], [0, 2], ADAPTIVE)
    assert len(vs.rows) == 1 and len(vs.skipped) == 1
    assert vs.skipped[0][0] == 0


def test_limit_ratio_x2pt():
    seq = [10**m for m in range(1, 7)]
    rr = limit_ratio(X2PT, ZERO_SEC, seq, ADAPTIVE, ff_depth=8)
    assert rr.ff_value == Fraction(1, 2)
    assert abs(rr.rows[-1].value - 0.5) < 0.05
    devs = [r.aux for r in rr.rows[1:]]  # t = 10^2 .. 10^6
    assert all(devs[i + 1] <= devs[i] + 1e-3 for i in range(len(devs) - 1))


def test_limit_ratio_constant_family():
    rr = limit_ratio(CONST_MONOMIAL, Section.from_strings(["t", "1"]), [2, 5, 17], ADAPTIVE)
    assert rr.ff_value == Fraction(1)
    assert all(abs(r.value - 1.0) < 1e-9 for r in rr.rows)
    rc = limit_ratio(CONST_MONOMIAL, Section.from_strings(["2", "1"]), [10, 10**3, 10**6], ADAPTIVE)
    assert rc.ff_value == Fraction(0)
    assert rc.rows[-1].value == pytest.approx(math.log(2) / math.log(10**6), abs=1e-9)
    skipped = limit_ratio(CONST_MONOMIAL, ZERO_SEC, [1], ADAPTIVE)
    assert not skipped.rows and skipped.skipped  # h_T(1) = 0 rows are reported


def test_boundary_local_height_examples():
    t = parse_tpoly("t")
    assert boundary_local_height(t, 3, INFINITY) == pytest.approx(0.0, abs=1e-15)
    assert boundary_local_height(t, 3, Place.prime(3)) == pytest.approx(math.log(3))
    assert boundary_local_height(parse_tpoly("t^2"), 2, Place.prime(2)) == pytest.approx(
        math.log(4)
    )
    with pytest.raises(BadParameterError, match="on boundary"):
        boundary_local_height(t, 0, INFINITY)


@pytest.mark.parametrize(
    "locus, t0, p, expected",
    [
        ("t^2", "12/5", 2, "0x1.62e42fefa39efp+1"),                       # p | a
        ("2*t^4 + t^3 - 8*t^2 + 8", "12/5", 2, "0x1.0a2b23f3bab73p+1"),   # p | a
        ("t + 3", "0", 3, "0x1.193ea7aad030bp+0"),                        # a = 0
        ("2*t^4 + t^3 - 8*t^2 + 8", "-9/4", 2, "0x1.62e42fefa39efp-1"),   # p | b
        ("2*t^4 + t^3 - 8*t^2 + 8", "12/5", 11, "0x1.32ee3b77f374cp+1"),  # p does not divide ab
        ("t + 3", "1/2", 7, "0x1.f2272ae325a57p+0"),                      # p does not divide ab
    ],
)
def test_boundary_local_height_pinned_bits(locus, t0, p, expected):
    # t0 = a/b in lowest terms: the value is ord_p(R_hom(a, b)) * ln p, to the bit.
    assert boundary_local_height(parse_tpoly(locus), Fraction(t0), Place.prime(p)).hex() == expected


def test_local_variation_sweep_family_ty2():
    sec = Section.from_strings(["1", "1"])
    ls = local_variation_sweep(TY2, sec, 1, Place.prime(2), [2, 4, 8, 16], GreenConfig(depth=25))
    # computed differences are exactly zero for this section: the first
    # coordinate stays a 2-adic unit along the orbit
    assert [r.value for r in ls.rows] == [0.0, 0.0, 0.0, 0.0]
    for r, t0 in zip(ls.rows, (2, 4, 8, 16)):
        assert r.aux == pytest.approx(2 * math.log(2) * (t0.bit_length() - 1), abs=1e-12)
        assert abs(r.value) <= 1.0 * r.aux  # the bound itself
    assert ls.empirical_c <= 1.0
    ls7 = local_variation_sweep(TY2, sec, 1, Place.prime(7), [1, 3, 5, 9], GreenConfig(depth=25))
    assert all(abs(r.value) < 1e-9 for r in ls7.rows)


def test_constant_family_local_sweep_zero():
    sec = Section.from_strings(["3", "2"])
    ls = local_variation_sweep(CONST_MONOMIAL, sec, 1, INFINITY, [1, 2, 3], GreenConfig(depth=15))
    assert all(abs(r.value) < 1e-9 for r in ls.rows)


def test_rows_to_csv_format():
    vs = variation_sweep(X2PT, [ZERO_SEC], [3], GreenConfig(depth=20))
    text = rows_to_csv(vs.rows)
    lines = text.strip().split("\n")
    assert lines[0] == "t,h_T,point,value,aux"
    fields = lines[1].split(",")
    assert fields[0] == "3" and fields[2] == "0:1"
    assert len(fields) == 5


def test_base_height():
    assert base_height(Fraction(10)) == pytest.approx(math.log(10))
    assert base_height(Fraction(1)) == 0.0
    assert base_height(Fraction(2, 3)) == pytest.approx(math.log(3))


def _reference_boundary_local_height(locus, t0, v):
    a, b = t0.numerator, t0.denominator
    r_hom = locus.hom(t0, locus.degree)
    if v.is_infinite:
        return locus.degree * math.log(max(abs(a), b)) - math.log(abs(r_hom))
    return ord_p(r_hom, v.p) * math.log(v.p)


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=5).map(TPoly).filter(bool),
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**3),
)
def test_base_heights_match_the_separate_formulas(locus, t0):
    # base_height and boundary_local_height are log_norm less log_abs; they
    # keep the bits (and the sign of zero) of the formulas they replaced.
    assert base_height(t0).hex() == math.log(max(abs(t0.numerator), t0.denominator)).hex()
    assume(locus.hom(t0, locus.degree) != 0)
    for v in (INFINITY, Place.prime(2), Place.prime(3), Place.prime(5)):
        assert boundary_local_height(locus, t0, v).hex() == _reference_boundary_local_height(locus, t0, v).hex()


def _hull_fit_envelope(train):
    # The convex-hull fit _fit_envelope replaced: c1 is the slope of the last
    # edge of the upper hull (Andrew's monotone chain) of the per-h maxima.
    best = {}
    for r in train:
        best[r.h_t] = max(best.get(r.h_t, -math.inf), r.value)
    hull = []
    for pt in sorted(best.items()):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    c1 = 0.0
    if len(hull) >= 2:
        (x0, y0), (x1, y1) = hull[-2], hull[-1]
        c1 = max(0.0, (y1 - y0) / (x1 - x0))
    return c1, max(0.0, max(r.value - c1 * r.h_t for r in train))


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(-20, 20)), min_size=1, max_size=30))
def test_envelope_slope_matches_the_hull_fit(cloud):
    # On small integers every slope is one correctly rounded division, so
    # the least slope to the top row and the last hull edge agree exactly.
    train = [SweepRow(Fraction(i), float(h), "0:1", float(d), 0.0) for i, (h, d) in enumerate(cloud)]
    assert _fit_envelope(train) == _hull_fit_envelope(train)
