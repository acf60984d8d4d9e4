"""Exact univariate polynomials over Z in the parameter t.

Polynomials are stored as coefficient tuples (c0, c1, ..., cd) with a
nonzero leading coefficient; the empty tuple is the zero polynomial.  The
class supports the exact operations the rest of the package needs: ring
arithmetic, homogenized evaluation at rationals (an integer, no Fraction),
content and primitive part, exact division, and gcd via the primitive
pseudo-remainder sequence (which keeps coefficients in Z instead of letting
Euclid blow them up over Q).

Constants are units of Q(t), so normalizing a tuple of coordinates over
Q(t) only ever removes a common *polynomial* factor.  The integer content
and the sign are fixed by one rule for every tuple over Z or Z[t], lifts
and points alike: content_unit gives the unit to divide by.

A constant TPoly equals its int and hashes like it (the zero polynomial
like 0), so dicts and tuples holding either kind compare and hash alike.
"""

from __future__ import annotations

import math
import re

from .errors import ValidationError
from .exactnum import parse_int

__all__ = ["TPoly", "content_unit", "parse_terms", "parse_tpoly"]


class TPoly:
    """A polynomial in t with integer coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        for v in c:
            if not isinstance(v, int):
                raise TypeError(f"integer coefficient expected, got {type(v).__name__}")
        object.__setattr__(self, "c", tuple(c))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def const(cls, v: int) -> "TPoly":
        return cls((int(v),))

    @classmethod
    def t(cls) -> "TPoly":
        return cls((0, 1))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.c) - 1

    @property
    def is_zero(self) -> bool:
        return not self.c

    @property
    def is_constant(self) -> bool:
        return len(self.c) <= 1

    @property
    def lead(self) -> int:
        return self.c[-1] if self.c else 0

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return other is not None and self.c == other.c

    def __hash__(self) -> int:
        # A constant equals its int, so it hashes like it (zero like 0).
        return hash(self.c) if len(self.c) > 1 else hash(self.lead)

    # -- ring arithmetic ---------------------------------------------------------

    def __neg__(self) -> "TPoly":
        return TPoly(tuple(-v for v in self.c))

    def __add__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return TPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return TPoly()
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] += a * b
        return TPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "TPoly":
        if e < 0:
            raise ValueError("negative exponent")
        out = TPoly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- evaluation, content, division ----------------------------------------

    def hom(self, t0, deg: int) -> int:
        """b^deg * P(a/b) = sum_i c_i * a^i * b^(deg - i) for t0 = a/b in lowest terms.

        t0 is an int or a Fraction and deg is at least the degree, so the
        value is an integer, zero exactly when P(t0) is (b > 0).
        """
        a, b = t0.numerator, t0.denominator
        return sum(c * a**i * b ** (deg - i) for i, c in enumerate(self.c))

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.c)

    def primitive(self) -> "TPoly":
        """Divide out the content; the zero polynomial stays zero."""
        g = self.content()
        if g <= 1:
            return self
        return TPoly(tuple(v // g for v in self.c))

    def divexact(self, other: "TPoly | int") -> "TPoly":
        """Exact division; raises ArithmeticError when the remainder is nonzero."""
        other = _coerce(other)
        if other is None or other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return TPoly()
        rem = list(self.c)
        db, lb = other.degree, other.lead
        out = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            if rem[i] == 0:
                continue
            q, r = divmod(rem[i], lb)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[i - db] = q
            for j, bv in enumerate(other.c):
                rem[i - db + j] -= q * bv
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
        return TPoly(out)

    __floordiv__ = divexact

    def pseudo_rem(self, other: "TPoly") -> "TPoly":
        """Pseudo-remainder of lead(other)^(deg diff + 1) * self by other."""
        if other.is_zero:
            raise ZeroDivisionError("pseudo-remainder by zero")
        r = self
        d = other.degree
        lb = other.lead
        while not r.is_zero and r.degree >= d:
            shift = r.degree - d
            r = lb * r - r.lead * TPoly((0,) * shift + other.c)
        return r

    def gcd(self, other: "TPoly") -> "TPoly":
        """Primitive gcd in Z[t] with positive leading coefficient."""
        a, b = self.primitive(), _coerce(other).primitive()
        if a.is_zero:
            a, b = b, a
        while not b.is_zero:
            r = a.pseudo_rem(b)
            a, b = b, r.primitive()
        if a.is_zero:
            return a
        return a if a.lead > 0 else -a

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for e in range(self.degree, -1, -1):
            v = self.c[e]
            if v == 0:
                continue
            mag = abs(v)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if v > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"TPoly({self.c!r})"


def content_unit(values, bound=0) -> int:
    """The unit g*s that a tuple of ints or TPolys is divided by to be canonical.

    g is the gcd of the contents of bound and of the values (|v| for an
    int, the coefficient gcd for a TPoly) and s is the sign of the leading
    coefficient of the first nonzero value, so the quotient has content 1
    and a positive first leading coefficient.  bound is a known multiple of
    the values' content (0 when unknown); the gcd stops once it reaches 1.
    values is a sequence with a nonzero entry.
    """
    g = math.gcd(*bound.c) if isinstance(bound, TPoly) else abs(bound)
    for v in values:
        if g == 1:
            break
        g = math.gcd(g, *v.c) if isinstance(v, TPoly) else math.gcd(g, v)
    first = next(v for v in values if v)
    lead = first.lead if isinstance(first, TPoly) else first
    return -g if lead < 0 else g


def _coerce(v) -> TPoly | None:
    if isinstance(v, TPoly):
        return v
    if isinstance(v, int):
        return TPoly((v,))
    return None


_TOKEN = re.compile(r"\s*(?:(\d+)|(X\d+|t)|([+\-*^]))")


def parse_terms(text: str, nvars: int) -> dict[tuple[int, ...], TPoly]:
    """Parse a polynomial in X0..X(nvars-1) with coefficients in Z[t].

    Grammar (bit-exact): variables X0..XN and t, integer literals, operators
    + - * ^ with ^ applied to positive integer literals, no division,
    whitespace ignored.  Example: "X0^2 - 2*X1^2".  Returns the map from
    exponent vectors to nonzero TPoly coefficients (constant ones for a
    polynomial without t); every malformed input raises ValidationError.
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValidationError(f"bad character in polynomial near {text[pos:pos+8]!r}")
        tokens.append((("int", "var", "op")[m.lastindex - 1], m.group(m.lastindex)))
        pos = m.end()
    if not tokens:
        raise ValidationError("empty polynomial")
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, None)

    def take():
        nonlocal idx
        tok = peek()
        idx += 1
        return tok

    # Without parentheses every term is one monomial: (exponents, coefficient).
    const = (0,) * nvars

    def factor():
        kind, val = take()
        if kind == "int":
            exps, c = const, TPoly.const(parse_int(val))
        elif val == "t":
            exps, c = const, TPoly.t()
        elif kind == "var":
            i = parse_int(val[1:])
            if i >= nvars:
                where = f"dimension {nvars - 1}" if nvars else "a polynomial in t"
                raise ValidationError(f"variable {val} out of range for {where}")
            exps, c = tuple(int(j == i) for j in range(nvars)), TPoly.const(1)
        else:
            raise ValidationError("expected integer, variable or t")
        if peek() == ("op", "^"):
            take()
            kind, val = take()
            n = parse_int(val) if kind == "int" else 0
            if n < 1:
                raise ValidationError("^ needs a positive integer exponent")
            exps, c = tuple(e * n for e in exps), c**n
        return exps, c

    def term():
        exps, c = factor()
        while peek() == ("op", "*"):
            take()
            e2, c2 = factor()
            exps, c = tuple(x + y for x, y in zip(exps, e2)), c * c2
        return exps, c

    signs = {("op", "+"): 1, ("op", "-"): -1}
    sign = signs[take()] if peek() in signs else 1
    out: dict = {}
    while True:
        exps, c = term()
        out[exps] = out.get(exps, TPoly()) + sign * c
        if peek() not in signs:
            break
        sign = signs[take()]
    if idx != len(tokens):
        raise ValidationError("trailing tokens in polynomial")
    return {e: c for e, c in out.items() if not c.is_zero}


def parse_tpoly(text: str) -> TPoly:
    """Parse an integer polynomial in t, e.g. "2*t^3 - t + 5" (see parse_terms)."""
    return parse_terms(text, 0).get((), TPoly())
