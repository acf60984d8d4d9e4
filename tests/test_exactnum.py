"""Places, valuations and the product formula."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dynheight import exactnum
from dynheight.errors import BudgetExceededError, ValidationError
from dynheight.exactnum import (
    INFINITY,
    Place,
    clear_denominators,
    is_prime,
    log_abs,
    log_norm,
    ord_p,
    prime_factors,
    support,
)


def test_ord_p_examples():
    assert ord_p(8, 2) == 3
    assert ord_p(7, 2) == 0
    assert ord_p(360, 3) == 2  # 360 = 2^3 * 3^2 * 5


def test_ord_p_zero_rejected():
    with pytest.raises(ValueError, match="valuation of zero"):
        ord_p(0, 2)


def test_log_abs_examples():
    assert log_abs(8, INFINITY) == pytest.approx(math.log(8), abs=1e-15)
    assert log_abs(8, Place.prime(2)) == pytest.approx(-3 * math.log(2), abs=1e-15)
    assert log_abs(Fraction(3, 4), Place.prime(2)) == pytest.approx(2 * math.log(2), abs=1e-15)


def test_log_abs_zero_rejected():
    with pytest.raises(ValueError):
        log_abs(0, INFINITY)


def test_place_construction():
    assert Place.prime(7).p == 7
    with pytest.raises(ValueError):
        Place.prime(6)
    assert Place.parse("inf").is_infinite
    assert Place.parse("p11") == Place.prime(11)
    assert str(Place.prime(3)) == "p3"


@pytest.mark.parametrize("text", ["infinity", "oo", "INF", "P2", " p2", "p02", "p\u0662", "q2", "p", "p4", "2"])
def test_place_has_one_spelling(text):
    # Exactly "inf" and "p<prime>", as README and the error message say.
    with pytest.raises(ValidationError, match="use 'inf' or 'pN' with N prime"):
        Place.parse(text)


def test_log_norm_examples():
    assert log_norm((12, -18, 0), INFINITY) == math.log(18)
    assert log_norm((12, -18, 0), Place.prime(2)) == -math.log(2)
    assert log_norm((12, -18, 0), Place.prime(3)) == -math.log(3)
    assert repr(log_norm((3, 4), Place.prime(2))) == "0.0"      # a primitive tuple


def test_prime_factors():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(-7) == {7: 1}
    assert prime_factors(1) == {}
    # Past the primes up to 41 only Pollard rho and the perfect-power split
    # remain; compare with plain trial division.
    for n in range(1, 20001):
        expected, m, d = {}, n, 2
        while d * d <= m:
            while m % d == 0:
                expected[d] = expected.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            expected[m] = expected.get(m, 0) + 1
        assert prime_factors(n) == expected, n
    assert prime_factors(43 * 47) == {43: 1, 47: 1}
    assert prime_factors(43**2 * 47) == {43: 2, 47: 1}
    # 1150013 = 19 * 60527
    assert prime_factors(1150013 * 1100009) == {19: 1, 60527: 1, 1100009: 1}


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 5]) == [3, -4, 30]


def test_prime_factors_large_prime_powers():
    # Squares of primes above the trial-division bound are split as perfect
    # powers; Pollard rho alone needs about sqrt(p) steps on them.
    assert prime_factors(100000007**2) == {100000007: 2}
    assert prime_factors((2**61 - 1) ** 2) == {2**61 - 1: 2}
    assert prime_factors(1000003**3 * 1000033) == {1000003: 3, 1000033: 1}


def test_prime_factors_within_the_rho_cap():
    # The hardest split the cap is sized for: 955,904 rho steps.
    assert prime_factors(3000000000013 * 1000000000039) == {1000000000039: 1, 3000000000013: 1}


def test_prime_factors_past_the_rho_cap(monkeypatch):
    # The cap counts every rho step of one call, across its composites.
    monkeypatch.setattr(exactnum, "RHO_MAX_STEPS", 100)
    assert prime_factors(43 * 47 * 53 * 59) == {43: 1, 47: 1, 53: 1, 59: 1}
    with pytest.raises(BudgetExceededError, match="cannot factor a 19-digit number within 100 rho steps"):
        prime_factors(1000000007 * 1000000009)


nonzero_rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
).filter(lambda q: q != 0)


@given(nonzero_rationals)
def test_product_formula(q):
    total = math.fsum(log_abs(q, v) for v in support(q))
    assert abs(total) < 1e-12


@given(nonzero_rationals, nonzero_rationals)
def test_log_abs_additive(q1, q2):
    places = {v for v in support(q1)} | {v for v in support(q2)}
    for v in places:
        assert log_abs(q1 * q2, v) == pytest.approx(
            log_abs(q1, v) + log_abs(q2, v), abs=1e-12
        )


def test_is_prime_small():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    # A Carmichael number and the least strong pseudoprimes to the first 11
    # and the first 12 prime bases; the 13-base test rejects them all.
    for n in (561, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(10**14 + 31)
