"""Lifts, composition, resultants, commutation, system validation."""

import functools
import itertools
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynheight.cli import load_system_file
from dynheight.dynsys import (
    HomogPoly,
    Morphism,
    commutes,
    parse_homog,
    validate_system,
)
from dynheight.errors import IndeterminatePointError, ValidationError
from dynheight.exactnum import prime_factors
from dynheight.linalg import solve_scaled
from dynheight.polynomial import TPoly, parse_tpoly
from dynheight.projective import normalize, parse_point

SYSTEMS = Path(__file__).resolve().parents[1] / "scripts" / "systems"


def m(*polys, dim=1, norm=True):
    return Morphism.from_strings(polys, dim=dim, normalize=norm)


X2 = m("X0^2", "X1^2")
X3 = m("X0^3", "X1^3")
X2P1 = m("X0^2+X1^2", "X1^2")
T2 = m("X0^2-2*X1^2", "X1^2")
T3 = m("X0^3-3*X0*X1^2", "X1^3")


def _det_fraction_oracle(rows):
    mm = [[Fraction(v) for v in r] for r in rows]
    n = len(mm)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if mm[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mm[c], mm[piv] = mm[piv], mm[c]
            det = -det
        det *= mm[c][c]
        inv = 1 / mm[c][c]
        for i in range(c + 1, n):
            f = mm[i][c] * inv
            for j in range(c, n):
                mm[i][j] -= f * mm[c][j]
    return det


def _sylvester_rows(f: Morphism):
    d = f.degree
    rows = []
    for p in f.lift:
        row = [0] * (d + 1)
        for (e0, _e1), c in p.terms.items():
            row[d - e0] = c
        rows.append(row)
    a, b = rows
    out = [[0] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        for j, v in enumerate(a):
            out[i][i + j] = v
        for j, v in enumerate(b):
            out[d + i][i + j] = v
    return out


def test_parser_grammar():
    p = parse_homog("X0^2 - 2*X1^2", 2)
    assert p.degree == 2 and p.terms == {(2, 0): 1, (0, 2): -2}
    assert str(p) == "X0^2 - 2*X1^2"
    with pytest.raises(ValidationError):
        parse_homog("X0^2 + X1", 2)  # not homogeneous
    with pytest.raises(ValidationError):
        parse_homog("X0^2 / X1", 2)  # no division in the grammar
    # t always parses; a coefficient without t stays a plain int.
    assert parse_homog("t*X0^2", 2).has_param
    p = parse_homog("3*X0*X1", 2)
    assert not p.has_param and type(p.terms[(1, 1)]) is int


def test_morphism_eval_examples():
    assert X2.apply(parse_point("2:1")).coords == (4, 1)
    assert X2P1.apply(parse_point("2:1")).coords == (5, 1)
    with pytest.raises(IndeterminatePointError, match="indeterminate point"):
        m("X0^2", "X0*X1").apply(parse_point("0:1"))


def test_eval_on_floats_matches_float_columns():
    # The one-map archimedean walk evaluates Python floats, the tree walk
    # numpy columns; squares must round alike (x * x, not libm pow).
    import numpy as np

    rng = random.Random(5)
    xs = [rng.uniform(-1, 1) for _ in range(5000)]
    ys = [rng.uniform(-1, 1) for _ in range(5000)]
    for poly in m("X0^2-3*X0*X1+7*X1^2", "X1^2").lift:
        columns = poly.eval((np.array(xs), np.array(ys)))
        assert [poly.eval((x, y)) for x, y in zip(xs, ys)] == columns.tolist()


def test_compose_examples():
    assert X2.compose(X3).lift == m("X0^6", "X1^6").lift
    t6 = m("X0^6-6*X0^4*X1^2+9*X0^2*X1^4-2*X1^6", "X1^6")
    assert T2.compose(T3).lift == t6.lift
    assert T3.compose(T2).lift == t6.lift
    assert T2.compose(T3).degree == 6


def test_resultant_examples():
    # frozen values cross-checked against an independent Fraction-Gaussian determinant
    for f, expected in [(X2, 1), (m("X0^2+X1^2", "X1^2"), 1), (m("X0^2", "4*X1^2", norm=False), 16)]:
        assert f.resultant() == expected
        assert _det_fraction_oracle(_sylvester_rows(f)) == expected


@st.composite
def binary_lifts(draw, coeffs):
    """Two binary forms of a degree 1..5 with drawn coefficients; one may be zero."""
    d = draw(st.integers(1, 5))
    forms = [
        {(e0, d - e0): draw(coeffs) for e0 in range(d + 1)} for _ in range(2)
    ]
    if draw(st.booleans()):
        forms[draw(st.integers(0, 1))] = {}
    lift = [HomogPoly(2, terms) for terms in forms]
    assume(not all(p.is_zero for p in lift))
    return Morphism(lift, normalize=False)


def _horner(poly, t0):
    """P(t0) by Horner's rule, in the type of t0."""
    return functools.reduce(lambda acc, c: acc * t0 + c, reversed(poly.c), 0)


def _entry_at(c, t0):
    return _horner(c, t0) if isinstance(c, TPoly) else c


@given(binary_lifts(st.integers(-4, 4)))
@settings(max_examples=150, deadline=None)
def test_resultant_matches_dense_sylvester_oracle(f):
    # The sparse Sylvester rows against the test's own dense matrix.
    res = f.resultant()
    assert type(res) is int
    assert res == _det_fraction_oracle(_sylvester_rows(f))


@given(binary_lifts(st.lists(st.integers(-3, 3), max_size=3).map(TPoly)))
@settings(max_examples=80, deadline=None)
def test_parametric_resultant_matches_dense_sylvester_oracle(f):
    assume(f.has_param)
    res = f.resultant()
    assert isinstance(res, TPoly)
    rows = _sylvester_rows(f)
    for t0 in (-2, 0, 1, 3, Fraction(1, 2)):
        at_t0 = [[_entry_at(c, t0) for c in row] for row in rows]
        assert _horner(res, t0) == _det_fraction_oracle(at_t0)


def test_parametric_lift_guards():
    # t parses everywhere; a parametric lift is refused where a constant
    # one is needed.
    f = m("X0^2+t*X1^2", "X1^2")
    assert f.has_param
    with pytest.raises(ValidationError, match="specialize first"):
        validate_system([f])
    # A rational point is the constant section: its image is a point over Q(t).
    assert f.apply(parse_point("1:1")) == normalize([parse_tpoly("t+1"), parse_tpoly("1")])


def test_bad_primes_examples():
    assert validate_system([X2, X3]).bad_primes() == []
    assert validate_system([m("X0^2", "4*X1^2", norm=False)]).bad_primes() == [2]
    assert validate_system([X2P1]).bad_primes() == []


def test_commutes_examples():
    assert commutes(X2, X3)
    assert commutes(T2, T3)
    assert not commutes(X2P1, X3)


def test_validate_examples():
    s = validate_system([X2, X3])
    assert (s.k, s.alpha) == (2, 5)
    with pytest.raises(ValidationError, match="not polarized"):
        validate_system([m("X0", "X1"), m("X0+X1", "X1")])
    with pytest.raises(ValidationError, match="not a morphism"):
        validate_system([m("X0^2", "X0*X1")])


def _random_morphism(rng: random.Random) -> Morphism:
    while True:
        d = rng.randint(1, 3)
        polys = []
        for _ in range(2):
            terms = {}
            for e0 in range(d + 1):
                c = rng.randint(-3, 3)
                if c:
                    terms[(e0, d - e0)] = c
            polys.append(terms)
        try:
            f = Morphism(
                [parse_homog("0", 2) if not t else _from_terms(t) for t in polys]
            )
            if f.resultant() != 0:
                return f
        except ValidationError:
            continue


def _from_terms(terms):
    from dynheight.dynsys import HomogPoly

    return HomogPoly(2, terms)


def test_eval_compose_compatibility():
    rng = random.Random(1234)
    for _ in range(12):
        f, g = _random_morphism(rng), _random_morphism(rng)
        fg = f.compose(g)
        for _ in range(5):
            raw = (rng.randint(-20, 20), rng.randint(-20, 20))
            if raw == (0, 0):
                continue
            p = normalize(raw)
            try:
                lhs = fg.apply(p)
                rhs = f.apply(g.apply(p))
            except IndeterminatePointError:
                continue
            assert lhs == rhs


def test_resultant_of_composition_nonzero():
    rng = random.Random(99)
    for _ in range(15):
        f, g = _random_morphism(rng), _random_morphism(rng)
        fg = f.compose(g)
        assert fg.degree == f.degree * g.degree
        assert fg.resultant() != 0


@given(st.integers(-50, 50).filter(lambda v: v != 0))
@settings(max_examples=30)
def test_commutes_symmetric_and_scale_invariant(c):
    scaled = Morphism([p.scale(c) for p in T2.lift], normalize=False)
    assert commutes(scaled, T3) == commutes(T3, scaled) is True
    scaled_bad = Morphism([p.scale(c) for p in X2P1.lift], normalize=False)
    assert commutes(scaled_bad, X3) == commutes(X3, scaled_bad) is False


def test_canonical_lift_scaling():
    raw = m("2*X0^2", "2*X1^2", norm=False)
    assert raw.lift != X2.lift
    assert Morphism(raw.lift).lift == X2.lift  # default constructor canonicalizes
    neg = m("-X0^2-X1^2", "-X1^2")
    assert neg.lift == m("X0^2+X1^2", "X1^2").lift


# -- exact images: the resultant bound on the content against the full gcd -------------


def _points_with_content(f: Morphism, a: int, b: int):
    """Primitive points, some of whose images carry content at a prime p | Res.

    Besides (a, b), (p*a, b) and (a, p*b), each common root (u : v) of the
    reductions of F_0, F_1 mod p lifts to (u + p*a, v + p*b), a point whose
    image is divisible by p; the roots are searched for p below 100.
    """
    p = min(prime_factors(f.resultant()))
    roots = [(u, 1) for u in range(p if p < 100 else 0)] + [(1, 0)]
    raw = [(a, b), (p * a, b), (a, p * b)] + [
        (u + p * a, v + p * b) for u, v in roots if all(y % p == 0 for y in f.eval_raw((u, v)))
    ]
    return [normalize(x) for x in raw if any(x)]


@given(binary_lifts(st.integers(-4, 4)), st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=150, deadline=None)
def test_apply_matches_full_gcd(f, a, b):
    # apply divides by gcd(Res, F(x)); the plain route by the full gcd (bound 0).
    assume(abs(f.resultant()) > 1)
    for pt in _points_with_content(f, a, b):
        assert f.apply(pt) == normalize(f.eval_raw(pt.coords))


P2_QUADRICS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), min_size=3, max_size=3),
    st.tuples(*[st.integers(-9, 9)] * 3),
)
@settings(max_examples=60, deadline=None)
def test_apply_matches_full_gcd_on_p2(rows, shift):
    # On P^2 apply divides by gcd(D, F(x)), D the map's Macaulay minor.  Lifts
    # of the common zeros mod a small prime p | D carry content at p.
    try:
        f = Morphism([HomogPoly(3, dict(zip(P2_QUADRICS, row))) for row in rows])
    except ValidationError:
        assume(False)
    minor = f.resultant()
    primes = [p for p in (2, 3, 5, 7) if minor and minor % p == 0]
    assume(primes)
    p = primes[0]
    residues = [(u, v, 1) for u in range(p) for v in range(p)] + [(u, 1, 0) for u in range(p)]
    zeros = [x for x in residues if all(y % p == 0 for y in f.eval_raw(x))]
    for x in zeros + [(1, 0, 0)]:
        raw = tuple(u + p * s for u, s in zip(x, shift))
        if any(raw):
            pt = normalize(raw)
            assert f.apply(pt) == normalize(f.eval_raw(pt.coords))


def test_apply_removes_content_at_bad_primes():
    # sbad: (X0^2, 2*X1^2) has Res 4 and (X0^3 + X1^3, 3*X1^3) has Res 27;
    # their images of (2a : b) and (a : 3b - a) carry the factors 2 and 3.
    f, g = m("X0^2", "2*X1^2"), m("X0^3+X1^3", "3*X1^3")
    for a, b in ((1, 7), (5, 3), (-11, 9)):
        pt = normalize((2 * a, b))
        assert gcd(*f.eval_raw(pt.coords)) % 2 == 0
        assert f.apply(pt) == normalize(f.eval_raw(pt.coords))
        pt = normalize((a, 3 * b - a))
        assert gcd(*g.eval_raw(pt.coords)) % 3 == 0
        assert g.apply(pt) == normalize(g.eval_raw(pt.coords))


FF_SECTIONS = [("0", "1"), ("1", "1"), ("2", "3"), ("1", "0"), ("t", "1"), ("t+1", "t"),
               ("t", "t+1"), ("2*t", "t^2-4")]


@pytest.mark.parametrize("name", ["x2plust", "ty2_family"])
@pytest.mark.parametrize("section", FF_SECTIONS, ids=":".join)
def test_apply_ff_matches_full_gcd(name, section):
    # apply over the function field.  x^2 + t has Res 1, so the polynomial
    # gcd is skipped; (X0^2, t*X1^2) has Res t^2, and sections through t = 0
    # or t = oo carry a factor t.
    f = load_system_file(SYSTEMS / f"{name}.json").family.maps[0]
    pt = normalize([parse_tpoly(s) for s in section])
    for _ in range(5):
        image = f.apply(pt)
        assert image == normalize(f.eval_raw(pt.coords))
        pt = image


@given(
    binary_lifts(st.lists(st.integers(-3, 3), max_size=3).map(TPoly)),
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_apply_ff_matches_full_gcd_on_random_lifts(f, x0, x1):
    assume(f.resultant() != 0)
    assume(any(x0) or any(x1))
    pt = normalize([TPoly(x0), TPoly(x1)])
    for _ in range(2):
        image = f.apply(pt)
        assert image == normalize(f.eval_raw(pt.coords))
        pt = image


def _degree_monomials(nvars: int, degree: int) -> list[tuple]:
    return sorted((e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree), reverse=True)


def _eager_macaulay_rows(f: Morphism):
    """The Macaulay rows of f built the eager way, as the differential oracle.

    A table of the rows of mu*X^e for every degree-d monomial e, whether
    the lift has it or not; rows, multipliers and right-hand sides in
    descending lex order.  Returns (rows, unknowns, multipliers).
    """
    nvars, d = f.nvars, f.degree
    delta = nvars * (d - 1) + 1
    row_of = {e: r for r, e in enumerate(_degree_monomials(nvars, delta))}
    mults = _degree_monomials(nvars, delta - d)
    rows_of = {
        e: [row_of[tuple(a + b for a, b in zip(mu, e))] for mu in mults]
        for e in _degree_monomials(nvars, d)
    }
    one = TPoly.const(1) if f.has_param else 1
    rows = [{} for _ in row_of]
    for i, form in enumerate(f.lift):
        for e, c in form.terms.items():
            for m, r in enumerate(rows_of[e]):
                rows[r][i * len(mults) + m] = one * c
    n = nvars * len(mults)
    for j in range(nvars):
        rows[row_of[tuple(delta * (i == j) for i in range(nvars))]][n + j] = one
    return rows, n, mults


@st.composite
def macaulay_lifts(draw):
    """Lifts on P^1..P^3 of degree 1..3 with int or Z[t] coefficients.

    Dense lifts draw a coefficient, maybe 0, for every monomial; sparse ones
    up to three monomials per form, maybe with X_i^d in form i.  Z[t] is
    drawn on P^1 and for P^2 quadrics only, and P^3 cubics are sparse: the
    other solves take seconds each.
    """
    nvars, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    param = draw(st.booleans()) and (nvars == 2 or (nvars, d) == (3, 2))
    dense = draw(st.booleans()) and (nvars, d) != (4, 3)
    if param:
        coeffs = st.lists(st.integers(-3, 3), max_size=3).map(TPoly)
    else:
        coeffs = st.integers(-3, 3)
    monos = _degree_monomials(nvars, d)
    forms = []
    for i in range(nvars):
        if dense:
            exps = monos
        else:
            exps = draw(st.lists(st.sampled_from(monos), max_size=3, unique=True))
            if draw(st.booleans()):
                exps.append(tuple(d * (k == i) for k in range(nvars)))
        forms.append(HomogPoly(nvars, {e: draw(coeffs) for e in exps}))
    try:
        return Morphism(forms)
    except ValidationError:
        assume(False)


@given(macaulay_lifts())
@settings(max_examples=120, deadline=None)
def test_macaulay_rows_match_the_eager_table(f):
    # _solve lays out rows only for the lift's own exponents; the solve, and
    # the certificate read from it, must equal the eager table's.
    rows, n, mults = _eager_macaulay_rows(f)
    expected = solve_scaled(rows, n, f.nvars)
    if expected is None:
        assert f.resultant() == 0 and f._solve()[1] is None
        return
    assert f._solve() == expected
    if f.has_param:
        return
    res, ys = expected
    delta = f.nvars * (f.degree - 1) + 1
    for j, ((rj, forms), y) in enumerate(zip(f.certificate(), ys)):
        assert rj == abs(res) // gcd(res, *y)
        assert forms == tuple(
            HomogPoly(f.nvars, {mu: y[i * len(mults) + m] // (res // rj) for m, mu in enumerate(mults)})
            for i in range(f.nvars)
        )
        combo = functools.reduce(HomogPoly.__add__, (g * fi for g, fi in zip(forms, f.lift)))
        assert combo == HomogPoly(f.nvars, {tuple(delta * (i == j) for i in range(f.nvars)): rj})
