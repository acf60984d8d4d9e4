"""Lifts, composition, resultants, commutation, system validation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynheight.dynsys import (
    Morphism,
    commutes,
    parse_homog,
    validate_system,
)
from dynheight.errors import IndeterminatePointError, ValidationError
from dynheight.projective import normalize, parse_point


def m(*polys, dim=1, allow_t=False, norm=True):
    return Morphism.from_strings(polys, dim=dim, allow_t=allow_t, normalize=norm)


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
    with pytest.raises(ValidationError):
        parse_homog("t*X0^2", 2)  # t needs allow_t
    assert parse_homog("t*X0^2", 2, allow_t=True).has_param


def test_morphism_eval_examples():
    assert X2.apply(parse_point("2:1")).coords == (4, 1)
    assert X2P1.apply(parse_point("2:1")).coords == (5, 1)
    with pytest.raises(IndeterminatePointError, match="indeterminate point"):
        m("X0^2", "X0*X1").apply(parse_point("0:1"))


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
