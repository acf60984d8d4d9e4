"""Places of Q and normalized logarithmic absolute values.

A place of Q is either the archimedean absolute value or the p-adic one
attached to a prime p.  With the normalizations used here,

    log|q|_inf = ln|q|,        log|q|_p = -ord_p(q) * ln(p),

the product formula holds: for any nonzero rational q the sum of
log_abs(q, v) over all places is zero.  Only finitely many places
contribute (the archimedean one plus the primes dividing numerator or
denominator), so the identity is checkable on a finite support set.

Everything exact is kept in arbitrary-precision integers or Fractions;
reals appear only as final logarithmic values in double precision, and all
logs are natural logs, so heights built on top of this module are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

__all__ = [
    "Place",
    "ord_p",
    "ord_p_rational",
    "log_abs",
    "support",
    "is_prime",
    "prime_factors",
    "clear_denominators",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin test with the first 13 primes as bases.

    Exact below 3.3 * 10^24 (Sorenson and Webster, 2015).  Above that it is
    probabilistic: a composite passes only if it is a strong pseudoprime to
    all 13 bases.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, e) with r^e = n and e >= 2 as small as possible, else (n, 1)."""
    for e in range(2, n.bit_length()):
        r = 1 << -(-n.bit_length() // e)          # r >= n^(1/e); Newton descends
        while True:
            nxt = ((e - 1) * r + n // r ** (e - 1)) // e
            if nxt >= r:
                break
            r = nxt
        if r**e == n:
            return r, e
    return n, 1


def _pollard_rho(n: int) -> int:
    # n composite, not a perfect power and free of the primes in _MR_BASES.
    for c in range(1, 64):
        x = y = 2
        d = 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to factor {n}")


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of |n| as a dict prime -> exponent, n != 0."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r, e = _perfect_power(m)
        if e > 1:
            stack.extend([r] * e)
        else:
            d = _pollard_rho(m)
            stack.extend((d, m // d))
    return out


def clear_denominators(vals) -> list[int]:
    """The rationals vals times the lcm of their denominators, as integers."""
    vals = [Fraction(v) for v in vals]
    scale = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (scale // v.denominator) for v in vals]


@dataclass(frozen=True)
class Place:
    """The archimedean place (p is None) or the finite place at a prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def prime(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    def sort_key(self) -> tuple[int, int]:
        # archimedean place first, then finite places by p
        return (0, 0) if self.p is None else (1, self.p)

    def __str__(self) -> str:
        return "inf" if self.p is None else f"p{self.p}"

    @classmethod
    def parse(cls, text: str) -> "Place":
        text = text.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return cls()
        if text.startswith("p") and text[1:].isdecimal() and is_prime(int(text[1:])):
            return cls.prime(int(text[1:]))
        raise ValidationError(f"cannot parse place {text!r} (use 'inf' or 'pN' with N prime)")


INFINITY = Place()


def ord_p(n: int, p: int) -> int:
    """Largest e with p^e dividing n; n must be nonzero and p prime."""
    if n == 0:
        raise ValueError("valuation of zero")
    n = abs(n)
    e = 0
    while n % p == 0:
        e += 1
        n //= p
    return e


def ord_p_rational(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational, ord_p(a/b) = ord_p(a) - ord_p(b)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero")
    return ord_p(q.numerator, p) - ord_p(q.denominator, p)


def log_abs(q: Fraction | int, v: Place) -> float:
    """Normalized logarithmic absolute value log|q|_v of a nonzero rational.

    math.log handles arbitrary-precision integers, so numerator and
    denominator are logged separately to avoid float overflow.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("log of zero")
    if v.is_infinite:
        return math.log(abs(q.numerator)) - math.log(q.denominator)
    return -ord_p_rational(q, v.p) * math.log(v.p)


def support(q: Fraction | int) -> list[Place]:
    """All places where a nonzero rational can have log_abs != 0."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("support of zero")
    primes = set(prime_factors(q.numerator)) | set(prime_factors(q.denominator))
    return [INFINITY] + [Place.prime(p) for p in sorted(primes)]
