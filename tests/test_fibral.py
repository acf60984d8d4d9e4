"""Component actions, spectral bounds, exact weight solves, models."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dynheight.errors import ValidationError
from dynheight.fibral import (
    PermTypeMatrix,
    build_synthetic,
    is_perm_type,
    model_from_json,
    model_to_json,
    random_synthetic,
    row_sum_bounds,
    solve_weights,
    spectral_radius,
    verify_intersection_formula,
)

IDENT2 = PermTypeMatrix.from_matrix([[1, 0], [0, 1]])
SWAP2 = PermTypeMatrix.from_matrix([[0, 1], [1, 0]])


def test_is_perm_type_examples():
    assert is_perm_type([[1, 0], [0, 1]])
    assert is_perm_type([[1, 1], [0, 0]])  # both columns hit row 0
    assert not is_perm_type([[1, 0], [1, 1]])
    assert not is_perm_type([[2, 0], [0, 1]])
    # Entries are ints: JSON's true/false and 1.0 are not 0/1 entries.
    assert not is_perm_type([[False, True], [True, False]])
    assert not is_perm_type([[1.0, 0], [0, 1]])
    assert not is_perm_type([])
    with pytest.raises(ValidationError, match="action matrix is empty"):
        PermTypeMatrix.from_matrix([])


def test_row_sum_bounds_examples():
    assert row_sum_bounds([[1, 1], [1, 1]]) == (2, 2)
    assert row_sum_bounds([[1, 1], [0, 0]]) == (0, 2)
    rng = random.Random(3)
    for _ in range(10):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        acts = [PermTypeMatrix(n, tuple(rng.randrange(n) for _ in range(n))) for _ in range(k)]
        total = [[sum(a.as_matrix()[i][j] for a in acts) for j in range(n)] for i in range(n)]
        _lo, hi = row_sum_bounds(total)
        assert hi <= n * k


def test_spectral_radius_examples():
    assert spectral_radius([[1, 1], [1, 1]]) == pytest.approx(2.0, abs=1e-9)
    assert spectral_radius([[1, 0], [0, 1]]) == pytest.approx(1.0, abs=1e-9)
    est = spectral_radius([[0, 1], [0, 0]])
    assert abs(est) <= 1e-9


def test_spectral_radius_row_sum_theorem():
    rng = random.Random(17)
    for _ in range(100):
        n = 6
        mat = [[rng.uniform(0, 10) for _ in range(n)] for _ in range(n)]
        lo, hi = row_sum_bounds(mat)
        est = spectral_radius(mat)
        assert float(lo) - 1e-6 <= est <= float(hi) + 1e-6


def test_perm_type_sums_have_radius_at_most_k():
    rng = random.Random(23)
    for _ in range(100):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        acts = [PermTypeMatrix(n, tuple(rng.randrange(n) for _ in range(n))) for _ in range(k)]
        total = [[sum(a.as_matrix()[i][j] for a in acts) for j in range(n)] for i in range(n)]
        # column sums of each action are exactly 1, so the transpose has
        # every row sum equal to k, which pins the spectral radius
        transpose = [[total[i][j] for i in range(n)] for j in range(n)]
        assert row_sum_bounds(transpose) == (k, k)
        assert spectral_radius(total) <= k + 1e-6


def test_solve_weights_examples():
    w = solve_weights(5, [IDENT2, IDENT2], [3, 3])
    assert w.x == (Fraction(1), Fraction(1))
    w2 = solve_weights(5, [IDENT2, SWAP2], [1, 0])
    assert w2.x == (Fraction(4, 15), Fraction(1, 15))
    cyc = PermTypeMatrix(3, (1, 2, 0))
    w3 = solve_weights(2, [cyc], [1, 1, 1])
    assert w3.x == (Fraction(1), Fraction(1), Fraction(1))


def test_solve_weights_defining_equations():
    rng = random.Random(5)
    for _ in range(100):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        acts = [PermTypeMatrix(n, tuple(rng.randrange(n) for _ in range(n))) for _ in range(k)]
        c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        # alpha > k suffices, including alpha in (k, nk]
        alpha = Fraction(k) + Fraction(rng.randint(1, 2 * n * k), 2)
        w = solve_weights(alpha, acts, c)
        for t in range(n):
            lhs = sum(w.x[a.image[t]] for a in acts)
            assert lhs - alpha * w.x[t] + c[t] == 0
        assert w.within_classical_hypothesis == (alpha > n * k)


def test_solve_weights_singular_reported():
    with pytest.raises(ValidationError, match=r"alpha must exceed k \(alpha=1, k=1\)"):
        solve_weights(1, [IDENT2], [1, 1])  # forced alpha <= k


def test_solve_weights_rejects_alpha_at_most_k():
    # The system is nonsingular here (x = -2 solves it), but alpha <= k lies outside the theory.
    with pytest.raises(ValidationError, match=r"alpha must exceed k \(alpha=1/2, k=1\)"):
        solve_weights(Fraction(1, 2), [PermTypeMatrix(1, (0,))], [1])


def test_perm_type_matrix_roundtrip():
    assert SWAP2.as_matrix() == [[0, 1], [1, 0]]
    assert PermTypeMatrix.from_matrix(SWAP2.as_matrix()) == SWAP2
    with pytest.raises(ValidationError):
        PermTypeMatrix.from_matrix([[1, 0], [1, 1]])


def test_build_synthetic_minimal():
    model = build_synthetic(
        n=1, k=1, alpha=2, actions=[PermTypeMatrix(1, (0,))], c=[0],
        orbit=[(0, (0,), Fraction(0))],
    )
    assert model.points[0].i_e == 0
    report = verify_intersection_formula(model)
    assert report.ok


def test_build_synthetic_two_point_swap():
    model = build_synthetic(
        n=2, k=2, alpha=5, actions=[IDENT2, SWAP2], c=[1, 0],
        orbit=[(0, (0, 1), Fraction(0)), (1, (1, 0), Fraction(0))],
    )
    # vf = 0 on a swapped orbit: lambda is constant on the orbit
    lam0 = model.points[0].i_e + solve_weights(5, [IDENT2, SWAP2], [1, 0]).x[0]
    lam1 = model.points[1].i_e + solve_weights(5, [IDENT2, SWAP2], [1, 0]).x[1]
    assert lam0 == lam1 == 0
    assert verify_intersection_formula(model).ok


def test_hundred_seeded_models_verify():
    for seed in range(100):
        model = random_synthetic(seed)
        report = verify_intersection_formula(model)
        assert report.ok, f"seed {seed}: {report.summary()}"
        assert report.weights_residual == 0 and report.balance_residual == 0


def test_perturbed_model_fails_with_localized_diagnostic():
    model = random_synthetic(7)
    target = model.points[0].pid
    bad = model.with_perturbed_intersection(target, Fraction(1, 7))
    report = verify_intersection_formula(bad)
    assert not report.ok
    failing = {pid for pid, _res in report.failures}
    # the touched point fails (unless it never feeds back into the balance),
    # and so does every point mapping onto it
    preimages = {pt.pid for pt in model.points if target in pt.images}
    assert failing == preimages | {target} or failing == preimages
    by_id = {pt.pid: pt for pt in bad.points}
    for pid, res in report.failures:
        mult = sum(1 for q in by_id[pid].images if q == target)
        expected = Fraction(mult, 7) - (bad.alpha * Fraction(1, 7) if pid == target else 0)
        assert res == expected


@pytest.mark.parametrize(
    "seed, digest, summary",
    [
        (1, "f8dfbdf1df9cd6386ef987929908d96e4a4590df61ad77baa68aad06f183d849",
         "PASS: weights residual 0, balance residual 0, fixed-point error 1.110e-16 (bound 1.000e-09)"),
        (42, "721aecefb30079f9c3ec1c8c91176cc7c051101835c0db6817efd1375cd06701",
         "PASS: weights residual 0, balance residual 0, fixed-point error 1.110e-16 (bound 1.273e-06)"),
        (2024, "332487332922c4f3e4db109434bd3b217fdbcfc5b54078d97438c9c9100c037b",
         "PASS: weights residual 0, balance residual 0, fixed-point error 6.939e-18 (bound 1.000e-09)"),
    ],
    ids=["seed1", "seed42", "seed2024"],
)
def test_benchmark_size_models_are_pinned(seed, digest, summary):
    # Models of the benchmark's size (8 components, 3 maps, 120 points):
    # every exact rational of the JSON and the verification report are fixed.
    model = random_synthetic(seed, 8, 3, 120)
    assert hashlib.sha256(model_to_json(model).encode()).hexdigest() == digest
    assert verify_intersection_formula(model).summary() == summary


def test_model_json_roundtrip():
    model = random_synthetic(11)
    text = model_to_json(model)
    again = model_from_json(text)
    assert again == model
    assert model_to_json(again) == text
    with pytest.raises(ValidationError, match="bad model file"):
        model_from_json("{}")


@given(st.integers(2, 6), st.integers(0, 720))
def test_perm_type_columns_sum_to_one(n, code):
    image = tuple((code // (n**j)) % n for j in range(n))
    mat = PermTypeMatrix(n, image).as_matrix()
    assert is_perm_type(mat)
    assert all(sum(mat[i][j] for i in range(n)) == 1 for j in range(n))
