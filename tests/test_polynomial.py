"""Exact polynomial arithmetic in t and the fraction-free linear algebra."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dynheight import dynsys
from dynheight.cli import load_system_file, main
from dynheight.dynsys import HomogPoly, Morphism, parse_homog
from dynheight.errors import ValidationError
from dynheight.linalg import solve_exact, solve_scaled
from dynheight.polynomial import TPoly, parse_tpoly
from dynheight.projective import parse_point

ROOT = Path(__file__).resolve().parents[1]

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(TPoly)


@st.composite
def sparse_square(draw, entries):
    """An n x n matrix, n = 1..10, whose cells are nonzero with a drawn density."""
    n = draw(st.integers(1, 10))
    density = draw(st.floats(0, 1))
    return [
        [draw(entries) if draw(st.floats(0, 1)) < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def _dict_rows(rows, ring=int):
    # Dense rows as the {column: value} rows linalg takes; zeros are kept,
    # and linalg drops them.
    return [{j: ring(v) for j, v in enumerate(row)} for row in rows]


def _scaled_det(rows, ring=int):
    # solve_scaled with no right-hand side on dense rows, zeros dropped
    # (solve_scaled takes rows without zero entries).
    return solve_scaled([{j: ring(v) for j, v in enumerate(row) if v} for row in rows], len(rows), 0)


def _oracle_solved(rows, ring=int):
    # What solve_scaled(rows, len(rows), 0) returns: (signed det, []), None when singular.
    det = _det_fraction_oracle(rows)
    return (ring(int(det)), []) if det else None


def _det_fraction_oracle(rows):
    # Plain Gaussian elimination over Q: independent of the Bareiss route.
    m = [[Fraction(v) for v in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] * inv
            for j in range(c, n):
                m[i][j] -= f * m[c][j]
    return det


def _gauss_jordan(a, b):
    # Plain Gauss-Jordan over Q; None when a column has no pivot.
    m = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    n = len(m)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[c])]
    return [row[n] for row in m]


def test_parse_and_render():
    p = parse_tpoly("2*t^3 - t + 5")
    assert p.c == (5, -1, 0, 2)
    assert str(p) == "2*t^3 - t + 5"
    assert parse_tpoly("-t") == -TPoly.t()
    assert parse_tpoly("0").is_zero


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_tpoly("t^-1")
    with pytest.raises(ValidationError):
        parse_tpoly("x + 1")
    with pytest.raises(ValidationError):
        parse_tpoly("")


@pytest.mark.parametrize("text", ["X0^", "t^", "", "t^0", "2**t", "t^-1", "(t)", "t + x"])
def test_one_grammar_rejects_malformed(text, tmp_path, capsys):
    # Lifts and sections share one grammar: the same strings fail the same
    # way, and the CLI turns the failure into exit 2, not a traceback.
    with pytest.raises(ValidationError):
        parse_homog(text, 2)
    with pytest.raises(ValidationError):
        parse_tpoly(text)
    docs = [
        {"space": {"dim": 1}, "maps": [{"lift": ["X0^2", "t*X1^2"]}], "section": [text, "1"]},
        {"space": {"dim": 1}, "maps": [{"lift": [text, "X1^2"]}], "section": ["1", "1"]},
        {"space": {"dim": 1}, "maps": [{"lift": ["X0^2 + t*X1^", "X1^2"]}]},
    ]
    for i, doc in enumerate(docs):
        path = tmp_path / f"family{i}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--system", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_eval_exact():
    # b^deg * P(a/b) at t0 = a/b: P(1/2) = 3/4 and P(3) = 12
    p = parse_tpoly("t^2 + t")
    assert Fraction(p.hom(Fraction(1, 2), 2), 2**2) == Fraction(3, 4)
    assert p.hom(3, 2) == 12
    assert p.hom(Fraction(-1, 2), 3) == -2 and TPoly().hom(Fraction(1, 2), 1) == 0


def test_divexact_and_gcd():
    a = parse_tpoly("t^2 - 1")
    b = parse_tpoly("t - 1")
    assert a.divexact(b) == parse_tpoly("t + 1")
    with pytest.raises(ArithmeticError):
        a.divexact(parse_tpoly("t - 2"))
    assert a.gcd(parse_tpoly("t^2 + 2*t + 1")) == parse_tpoly("t + 1")
    assert parse_tpoly("6*t").gcd(parse_tpoly("4*t^2")) == parse_tpoly("t")


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@given(small_polys, small_polys)
def test_gcd_divides(a, b):
    g = a.gcd(b)
    if not g.is_zero:
        a.divexact(g)
        b.divexact(g)  # would raise if not divisible


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3))
def test_bareiss_matches_fraction_oracle(rows):
    assert _scaled_det(rows) == _oracle_solved(rows)


@given(sparse_square(st.integers(-9, 9)))
def test_sparse_bareiss_det_matches_fraction_oracle(rows):
    assert _scaled_det(rows) == _oracle_solved(rows)
    assert _scaled_det(rows, TPoly.const) == _oracle_solved(rows, TPoly.const)


@given(
    sparse_square(st.fractions(min_value=-5, max_value=5, max_denominator=7)),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7), min_size=10, max_size=10),
)
def test_sparse_solve_matches_gauss_jordan(a, b):
    b = b[: len(a)]
    expected = _gauss_jordan(a, b)
    assert solve_exact(_dict_rows(a, Fraction), b) == expected
    # Zeros may be left out of a row.
    as_dicts = [{j: v for j, v in enumerate(row) if v} for row in a]
    assert solve_exact(as_dicts, b) == expected


@given(sparse_square(st.integers(-9, 9)), st.lists(st.integers(-9, 9), min_size=20, max_size=20))
def test_solve_scaled_two_right_hand_sides(rows, bs):
    # One elimination, two augmented columns: d = det and y_t = d * x_t.
    n = len(rows)
    b1, b2 = bs[:n], bs[10 : 10 + n]
    aug = [
        {j: v for j, v in enumerate([*row, x, y]) if v} for row, x, y in zip(rows, b1, b2)
    ]
    solved = solve_scaled(aug, n, 2)
    expected = [_gauss_jordan(rows, b1), _gauss_jordan(rows, b2)]
    if expected[0] is None:
        assert solved is None
        return
    d, ys = solved
    assert d == _det_fraction_oracle(rows)
    assert [[Fraction(v, d) for v in y] for y in ys] == expected


def test_sparse_pivot_row_swap_sign():
    # Column 0's pivot is the second pending row, the one with fewest
    # entries, so the sign flips once.
    rows = [[1, 2, 3], [4, 0, 0], [0, 5, 6]]
    assert _scaled_det(rows) == (12, []) == _oracle_solved(rows)
    assert _scaled_det(rows, TPoly.const) == (TPoly.const(12), [])
    assert solve_exact(_dict_rows(rows), [1, 2, 3]) == [Fraction(1, 2), Fraction(2), Fraction(-7, 6)]
    assert solve_scaled([{1: 1}, {0: 1}], 2, 0) == (-1, [])


@pytest.mark.parametrize(
    "source, expected",
    [
        ("x2plust.json", "1"),
        ("ty2_family.json", "t^2"),
        (["X0^3+t*X0*X1^2+X1^3", "t*X0^2*X1+2*X1^3"], "2*t^4 + t^3 - 8*t^2 + 8"),
    ],
    ids=["x2plust", "ty2_family", "cubic"],
)
def test_det_tpoly_sylvester_values(source, expected):
    # Resultants over Z[t], each the determinant of a Sylvester matrix; a
    # parametric lift's resultant is a TPoly, a constant lift's an int.
    if isinstance(source, str):
        (mp,) = load_system_file(ROOT / "scripts" / "systems" / source).family.maps
    else:
        mp = Morphism.from_strings(source, 1)
    res = mp.resultant()
    assert isinstance(res, TPoly) and res == parse_tpoly(expected)
    fiber = mp.specialize(Fraction(3)).resultant()
    assert type(fiber) is int and fiber == res.hom(3, res.degree)


def test_det_tpoly():
    t, one = TPoly.t(), TPoly.const(1)
    assert solve_scaled([{0: t, 1: one}, {0: one, 1: t}], 2, 0) == (parse_tpoly("t^2 - 1"), [])
    # A zero first pivot forces a row swap, which flips the sign.
    rows = [{1: t, 2: one}, {0: one, 2: t}, {0: t, 1: one}]
    assert solve_scaled(rows, 3, 0) == (parse_tpoly("t^3 + 1"), [])
    assert solve_scaled([{0: t, 1: one}, {0: t * t, 1: t}], 2, 0) is None
    assert solve_scaled([{1: one}, {1: t}], 2, 0) is None
    # The resultant keeps a zero over Z[t] in Z[t].
    singular = Morphism.from_strings(["t*X0^2", "t*X0*X1"], 1).resultant()
    assert isinstance(singular, TPoly) and singular.is_zero


def test_solve_exact_rejects_columns_out_of_range():
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_exact([{0: 1, 2: 1}, {1: 1}], [1, 1])
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_exact([{-1: 1}], [1])


def test_solve_scaled_rectangular():
    # Two rows in four unknowns: columns 1 and 3 get no pivot and their
    # unknowns are 0; D = 8 is the minor on columns 0 and 2.
    a = [[2, 0, 1, 3], [0, 0, 4, 1]]
    rows = [{0: 2, 2: 1, 3: 3, 4: 1}, {2: 4, 3: 1, 5: 1}]
    d, ys = solve_scaled(rows, 4, 2)
    assert (d, ys) == (8, [[4, 0, 0, 0], [-1, 0, 2, 0]])
    for t, y in enumerate(ys):
        assert [sum(v * x for v, x in zip(row, y)) for row in a] == [d * (i == t) for i in range(2)]
    # The second row is twice the first: it is left without a pivot.
    assert solve_scaled([{0: 1, 1: 1, 3: 1}, {0: 2, 1: 2}], 3, 1) is None
    assert solve_scaled([{0: 1, 1: 1}, {0: 2, 1: 2}], 3, 0) is None


@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(st.integers(-3, 3), min_size=m + 2, max_size=m + 2), min_size=m, max_size=m)
    )
)
def test_solve_scaled_wide_matches_rank(a):
    # m rows, m + 2 unknowns, one right-hand side per row: a solution with
    # A y_t = D e_t exists exactly when the rows are independent.
    m, n = len(a), len(a[0])
    rows = [{j: v for j, v in enumerate(row) if v} | {n + i: 1} for i, row in enumerate(a)]
    solved = solve_scaled(rows, n, m)
    if solved is None:
        assert _rank(a) < m
        return
    d, ys = solved
    assert _rank(a) == m and d != 0
    for t, y in enumerate(ys):
        assert [sum(v * x for v, x in zip(row, y)) for row in a] == [d * (i == t) for i in range(m)]


def _rank(a) -> int:
    rows = [[Fraction(v) for v in row] for row in a]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_one_solve_per_map(monkeypatch):
    # The resultant and the certificate of a map of P^1 come from one
    # cached solve_scaled; a parametric map's resultant from one as well.
    calls = []

    def counting(rows, n, w):
        calls.append(w)
        return solve_scaled(rows, n, w)

    monkeypatch.setattr(dynsys, "solve_scaled", counting)
    f = Morphism.from_strings(["X0^3+X1^3", "3*X1^3"], 1)
    assert f.resultant() == 27
    assert [rj for rj, _g in f.certificate()] == [3, 3]
    assert f.resultant() == 27
    assert len(calls) == 1
    g = Morphism.from_strings(["X0^2+t*X1^2", "X1^2"], 1)
    assert g.resultant() == TPoly.const(1)
    assert g.resultant() == TPoly.const(1)
    assert len(calls) == 2
    # On P^2 one solve of 15 Macaulay rows in 18 unknowns, with 3 right-hand
    # sides, gives the minor, the certificate and apply's content bound.
    h = Morphism.from_strings(["X0^2", "X1^2", "4*X2^2"], 2)
    assert h.resultant() == 256
    assert [rj for rj, _g in h.certificate()] == [1, 1, 4]
    assert h.apply(parse_point("0:0:1")).coords == (0, 0, 1)
    assert calls == [2, 2, 3]


def test_tpoly_floordiv_is_exact():
    t = TPoly.t()
    assert parse_tpoly("6*t^2 - 4") // 2 == parse_tpoly("3*t^2 - 2")
    assert parse_tpoly("t^2 - 1") // (t - 1) == t + 1
    with pytest.raises(ArithmeticError):
        parse_tpoly("3*t + 1") // 2
    with pytest.raises(ArithmeticError):
        (t * t + 1) // (t - 1)


def test_solve_exact():
    a = [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(3)}]
    b = [Fraction(5), Fraction(10)]
    x = solve_exact(a, b)
    assert x == [Fraction(1), Fraction(3)]
    singular = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    assert solve_exact(singular, b) is None
    # A zero last right-hand side is not a zero pivot.
    assert solve_exact([{0: Fraction(1), 1: Fraction(0)}, {1: Fraction(3)}], [2, 0]) == [2, 0]


@given(
    st.lists(
        st.lists(st.fractions(max_denominator=7, min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.lists(st.fractions(max_denominator=7, min_value=-5, max_value=5), min_size=3, max_size=3),
)
def test_solve_residual_zero(a, b):
    x = solve_exact(_dict_rows(a, Fraction), b)
    if x is not None:
        for row, rhs in zip(a, b):
            assert sum(r * v for r, v in zip(row, x)) == rhs


ints_and_tpolys = st.one_of(st.integers(-3, 3), st.lists(st.integers(-3, 3), max_size=3).map(TPoly))


@given(ints_and_tpolys, ints_and_tpolys)
def test_equal_values_hash_alike(a, b):
    # A constant TPoly equals its int (the zero polynomial equals 0), so dicts
    # and sets must not tell them apart.
    if a == b:
        assert hash(a) == hash(b)


def test_int_and_constant_tpoly_coefficients_are_one_lift():
    terms = {(2, 0): 3, (1, 1): -1, (0, 2): 0}
    as_tpoly = {e: TPoly.const(c) for e, c in terms.items()}
    a, b = HomogPoly(2, terms), HomogPoly(2, as_tpoly)
    assert a == b and hash(a) == hash(b)
    f = Morphism([a, HomogPoly(2, {(0, 2): 2})], normalize=False)
    g = Morphism([b, HomogPoly(2, {(0, 2): TPoly.const(2)})], normalize=False)
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1
