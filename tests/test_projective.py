"""Projective points, naive heights, hyperplane local heights."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dynheight.errors import PointOnDivisorError, ValidationError
from dynheight.exactnum import INFINITY, Place, prime_factors
from dynheight.polynomial import parse_tpoly
from dynheight.projective import (
    ff_height,
    local_height_hyperplane,
    normalize,
    normalize_ff,
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


def test_ff_points():
    p = normalize_ff([parse_tpoly("t"), parse_tpoly("1")])
    assert ff_height(p) == 1
    assert ff_height(normalize_ff([parse_tpoly("t^2+1"), parse_tpoly("t")])) == 2
    assert ff_height(normalize_ff([parse_tpoly("2"), parse_tpoly("3")])) == 0


def test_ff_normalization_removes_common_factor():
    p = normalize_ff([parse_tpoly("t^2+t"), parse_tpoly("t")])
    assert [str(c) for c in p.coords] == ["t + 1", "1"]
    q = normalize_ff([parse_tpoly("-2*t"), parse_tpoly("-4")])
    assert [str(c) for c in q.coords] == ["t", "2"]



def _point_constructions(path: Path):
    """(class, file, innermost enclosing function) for each call of a point class."""
    tree = ast.parse(path.read_text())
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        if name in ("ProjPointQ", "ProjPointFF"):
            scope = parent.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parent.get(scope)
            yield name, path.name, scope.name if scope is not None else None


def test_points_are_built_only_by_normalize():
    # Morphism.apply and apply_ff bound an image's content by the resultant,
    # which holds only for primitive input, so only normalize and
    # normalize_ff may construct the point classes.
    src = Path(__file__).resolve().parents[1] / "src" / "dynheight"
    found = {c for path in sorted(src.glob("*.py")) for c in _point_constructions(path)}
    assert found == {
        ("ProjPointQ", "projective.py", "normalize"),
        ("ProjPointFF", "projective.py", "normalize_ff"),
    }
