"""Projective points, naive heights, hyperplane local heights."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from dynheight.dynsys import HomogPoly, Morphism
from dynheight.errors import PointOnDivisorError, ValidationError
from dynheight.exactnum import INFINITY, Place, clear_denominators, ord_p, prime_factors
from dynheight.polynomial import TPoly, parse_tpoly
from dynheight.projective import (
    ff_height,
    local_height_hyperplane,
    normalize,
    parse_point,
    weil_height,
)


def test_normalize_examples():
    assert normalize([4, 6]).coords == (2, 3)
    assert normalize([-2, -4]).coords == (1, 2)
    assert normalize([Fraction(3, 2), 1]).coords == (3, 2)


def test_normalize_rejects_zero():
    with pytest.raises(ValidationError, match="not a projective point"):
        normalize([0, 0])


def test_parse_point():
    assert parse_point("2:1").coords == (2, 1)
    assert parse_point("3/2 : 1").coords == (3, 2)
    with pytest.raises(ValidationError):
        parse_point("2")


def test_weil_height_examples():
    assert weil_height(parse_point("2:1")) == pytest.approx(math.log(2), abs=1e-15)
    assert weil_height(parse_point("1:1")) == 0.0
    assert weil_height(parse_point("3:2")) == pytest.approx(math.log(3), abs=1e-15)


def test_local_height_examples():
    p = parse_point("2:1")
    assert local_height_hyperplane(p, 1, INFINITY) == pytest.approx(math.log(2))
    assert local_height_hyperplane(p, 0, Place.prime(2)) == pytest.approx(math.log(2))
    assert local_height_hyperplane(parse_point("1:2"), 0, Place.prime(2)) == 0.0


def test_local_height_on_divisor():
    with pytest.raises(PointOnDivisorError):
        local_height_hyperplane(parse_point("0:1"), 0, INFINITY)


rationals = st.fractions(min_value=Fraction(-200), max_value=Fraction(200), max_denominator=50)
points = st.lists(rationals, min_size=2, max_size=4).filter(lambda v: any(x != 0 for x in v))


@given(points)
def test_normalize_idempotent_and_scale_invariant(raw):
    p = normalize(raw)
    assert normalize(p.coords) == p
    assert normalize([Fraction(-7, 3) * v for v in raw]) == p
    assert weil_height(normalize([5 * v for v in raw])) == weil_height(p)


@given(points)
def test_local_global_identity(raw):
    p = normalize(raw)
    for j, c in enumerate(p.coords):
        if c == 0:
            continue
        places = {INFINITY}
        for coord in p.coords:
            if coord != 0:
                places.update(Place.prime(q) for q in prime_factors(coord))
        total = math.fsum(local_height_hyperplane(p, j, v) for v in places)
        assert abs(total - weil_height(p)) < 1e-12


def _reference_weil_height(point):
    return math.log(max(abs(c) for c in point.coords))


def _reference_local_height_hyperplane(point, j, v):
    coords = point.coords
    if v.is_infinite:
        return math.log(max(abs(c) for c in coords)) - math.log(abs(coords[j]))
    min_ord = min(ord_p(c, v.p) for c in coords if c != 0)
    return (ord_p(coords[j], v.p) - min_ord) * math.log(v.p)


PLACES = [INFINITY, Place.prime(2), Place.prime(3), Place.prime(5)]


@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=4).filter(any))
def test_standard_heights_match_the_separate_formulas(raw):
    # weil_height and local_height_hyperplane are log_norm less log_abs; they
    # keep the bits (and the sign of zero) of the formulas they replaced.
    p = normalize(raw)
    assert weil_height(p).hex() == _reference_weil_height(p).hex()
    for j in (j for j, c in enumerate(p.coords) if c):
        for v in PLACES:
            assert local_height_hyperplane(p, j, v).hex() == _reference_local_height_hyperplane(p, j, v).hex()


def test_ff_points():
    p = normalize([parse_tpoly("t"), parse_tpoly("1")])
    assert ff_height(p) == 1
    assert ff_height(normalize([parse_tpoly("t^2+1"), parse_tpoly("t")])) == 2
    assert ff_height(normalize([parse_tpoly("2"), parse_tpoly("3")])) == 0


def test_ff_normalization_removes_common_factor():
    p = normalize([parse_tpoly("t^2+t"), parse_tpoly("t")])
    assert [str(c) for c in p.coords] == ["t + 1", "1"]
    q = normalize([parse_tpoly("-2*t"), -4])
    assert [str(c) for c in q.coords] == ["t", "2"]



def _point_constructions(path: Path):
    """(class, file, innermost enclosing function) for each call of the point class."""
    tree = ast.parse(path.read_text())
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        if name == "ProjPoint":
            scope = parent.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parent.get(scope)
            yield name, path.name, scope.name if scope is not None else None


def test_points_are_built_only_by_normalize():
    # Morphism.apply bounds an image's content by the resultant, which holds
    # only for primitive input, so only normalize may construct the point
    # class, over Q and Q(t) alike.
    src = Path(__file__).resolve().parents[1] / "src" / "dynheight"
    found = [c for path in sorted(src.glob("*.py")) for c in _point_constructions(path)]
    assert found == [("ProjPoint", "projective.py", "normalize")]


# -- one content-and-sign rule: content_unit against the three rules it replaced ------


def _oracle_normalize(raw, bound=0):
    # The integer rule: the gcd with the bound, then the first nonzero coordinate positive.
    ints = clear_denominators(raw)
    if not any(ints):
        raise ValidationError("not a projective point")
    g = math.gcd(bound, *ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v != 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def _oracle_normalize_ff(raw, bound=0):
    # The Z[t] rule: the polynomial gcd, then the integer content with the
    # bound's, then the first nonzero coordinate's leading coefficient positive.
    polys = [p if isinstance(p, TPoly) else TPoly.const(p) for p in raw]
    if not polys or all(p.is_zero for p in polys):
        raise ValidationError("not a projective point")
    bound = bound if isinstance(bound, TPoly) else TPoly.const(bound)
    g = bound.primitive()
    for p in polys:
        if g.degree == 0:
            break
        g = g.gcd(p) if not g.is_zero else p.primitive()
    if g.degree > 0:
        polys = [p // g for p in polys]
    content = math.gcd(bound.content(), *(v for p in polys for v in p.c))
    if content > 1:
        polys = [p // content for p in polys]
    if next(p for p in polys if not p.is_zero).lead < 0:
        polys = [-p for p in polys]
    return tuple(polys)


def _oracle_lift(lift):
    # The lift rule: the content of every coefficient, then the first
    # coefficient's leading coefficient positive.
    g = 0
    for p in lift:
        for c in p.terms.values():
            g = math.gcd(g, c.content() if isinstance(c, TPoly) else abs(c))
    first = next(c for p in lift for c in p.terms.values())
    sign = 1 if (first.lead if isinstance(first, TPoly) else first) > 0 else -1
    return tuple(
        HomogPoly(p.nvars, {e: c // g * sign for e, c in p.terms.items()}) for p in lift
    )


def _strict(values):
    # Equality that tells an int from the constant TPoly.
    return [(type(v).__name__, v.c if isinstance(v, TPoly) else v) for v in values]


def _strict_lift(lift):
    return [_strict(p.terms.values()) + list(p.terms) for p in lift]


def _outcome(fn, *args):
    try:
        return "ok", _strict(fn(*args))
    except ValidationError as exc:
        return "error", str(exc)


tpolys = st.lists(st.integers(-12, 12), max_size=4).map(TPoly)
int_bounds = st.sampled_from([0, 1, -1, 6, -12, 30, 360])
bounds = st.one_of(int_bounds, tpolys, st.builds(lambda p, q: p * q, tpolys, tpolys))
scales = st.sampled_from([1, -1, 2, -6, 15])


@given(st.lists(st.one_of(st.integers(-60, 60), rationals), min_size=1, max_size=4), scales, int_bounds)
def test_normalize_matches_integer_rule(raw, scale, bound):
    raw = [scale * v for v in raw]
    got = _outcome(lambda: normalize(raw, bound).coords)
    assert got == _outcome(_oracle_normalize, raw, bound)


@given(
    st.lists(st.one_of(st.integers(-60, 60), tpolys), min_size=1, max_size=4),
    st.one_of(st.just(1), tpolys),
    scales,
    bounds,
)
def test_normalize_ff_matches_polynomial_rule(raw, common, scale, bound):
    # normalize over the function field: a tuple with a TPoly entry, its
    # ints read as constants.  An all-int draw is fed as constant TPolys.
    raw = [scale * common * v for v in raw]
    if not any(isinstance(v, TPoly) for v in raw):
        raw = [TPoly.const(v) for v in raw]
    got = _outcome(lambda: normalize(raw, bound).coords)
    assert got == _outcome(_oracle_normalize_ff, raw, bound)


@st.composite
def mixed_lifts(draw):
    """A lift of P^1 of degree 1..3 with int and TPoly coefficients, scaled by a common factor."""
    d = draw(st.integers(1, 3))
    coeff = st.one_of(st.integers(-9, 9), tpolys)
    forms = [{(e, d - e): draw(coeff) for e in range(d + 1)} for _ in range(2)]
    scale = draw(st.one_of(scales, tpolys.filter(lambda p: not p.is_zero)))
    lift = [HomogPoly(2, {e: c * scale for e, c in terms.items()}) for terms in forms]
    assume(not all(p.is_zero for p in lift))
    return lift


@given(mixed_lifts())
def test_canonical_lift_matches_lift_rule(lift):
    raw = Morphism(lift, normalize=False).lift
    assert _strict_lift(Morphism(lift).lift) == _strict_lift(_oracle_lift(raw))
