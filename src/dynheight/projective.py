"""Primitive projective points over Q and Q(t), and their naive heights.

A point of P^N(Q) is stored by its unique primitive integer representative:
coprime coordinates with the first nonzero one positive.  The naive Weil
height is ln of the sup norm of that representative; the standard local
height against the coordinate hyperplane {x_j = 0} is

    lambda_v(P, j) = ln( max_i |x_i|_v / |x_j|_v ),

which is nonnegative at every place and sums to the Weil height over the
archimedean place plus the primes dividing the coordinates.

Points over Q(t) are tuples of integer polynomials in t with no common
nonconstant factor; constants are units of Q(t), so integer content is
only removed for a deterministic representative.  Their height is the
maximum coordinate degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import PointOnDivisorError, ValidationError
from .exactnum import Place, clear_denominators, ord_p
from .polynomial import TPoly

__all__ = [
    "ProjPointQ",
    "ProjPointFF",
    "normalize",
    "normalize_ff",
    "parse_coords",
    "parse_point",
    "weil_height",
    "local_height_hyperplane",
    "ff_height",
]


@dataclass(frozen=True)
class ProjPointQ:
    """Primitive integer representative of a point of P^N(Q).

    Build it with normalize, never directly: Morphism.apply divides an image
    by a gcd with the resultant, which is the content only for primitive
    input (a test checks that nothing else in the package constructs it).
    """

    coords: tuple[int, ...]

    def __post_init__(self):
        if not self.coords or all(c == 0 for c in self.coords):
            raise ValidationError("not a projective point")

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return ":".join(str(c) for c in self.coords)


@dataclass(frozen=True)
class ProjPointFF:
    """Point of P^N over Q(t): coprime integer polynomial coordinates.

    Build it with normalize_ff, never directly: Morphism.apply_ff bounds the
    common factor of an image by the resultant, which holds only for coprime
    input with content 1 (a test checks that nothing else in the package
    constructs it).
    """

    coords: tuple[TPoly, ...]

    def __post_init__(self):
        if not self.coords or all(c.is_zero for c in self.coords):
            raise ValidationError("not a projective point")

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return ":".join(str(c) for c in self.coords)


def normalize(raw, bound: int = 0) -> ProjPointQ:
    """Canonical primitive representative of a tuple of rationals.

    Clears denominators, divides by the coordinate gcd and fixes the sign of
    the first nonzero coordinate to be positive.  bound is a known multiple
    of that gcd (Morphism.apply passes the resultant), so the gcd is
    gcd(bound, *coords), which reduces the huge coordinates modulo a small
    bound; 0 means unknown and gives the full gcd.
    """
    ints = clear_denominators(raw)
    if not any(ints):
        raise ValidationError("not a projective point")
    g = gcd(bound, *ints)
    ints = [v // g for v in ints]
    first = next(v for v in ints if v != 0)
    if first < 0:
        ints = [-v for v in ints]
    return ProjPointQ(tuple(ints))


def parse_coords(text: str) -> list[Fraction]:
    """Parse "a0 : a1 : ... : aN" (N >= 1) into its rational entries, as written."""
    parts = [p.strip() for p in text.split(":")]
    if len(parts) < 2:
        raise ValidationError(f"cannot parse point {text!r}")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse point {text!r}: {exc}") from exc


def parse_point(text: str) -> ProjPointQ:
    """Parse "a0 : a1 : ... : aN" to the point's primitive representative."""
    return normalize(parse_coords(text))


def weil_height(point: ProjPointQ) -> float:
    """Naive logarithmic height: ln max_i |x_i| on primitive coordinates."""
    return math.log(max(abs(c) for c in point.coords))


def local_height_hyperplane(point: ProjPointQ, j: int, v: Place) -> float:
    """Standard local height of P against the hyperplane {x_j = 0} at v."""
    coords = point.coords
    if not 0 <= j < len(coords):
        raise ValidationError(f"coordinate index {j} out of range")
    if coords[j] == 0:
        raise PointOnDivisorError("point on divisor")
    if v.is_infinite:
        return math.log(max(abs(c) for c in coords)) - math.log(abs(coords[j]))
    p = v.p
    min_ord = min(ord_p(c, p) for c in coords if c != 0)
    return (ord_p(coords[j], p) - min_ord) * math.log(p)


def normalize_ff(raw, bound: int | TPoly = 0) -> ProjPointFF:
    """Canonical representative over Q(t).

    Removes the common polynomial factor of the coordinates (coprimality in
    Q(t)), then integer content and the sign of the first nonzero leading
    coefficient for determinism.  bound is a known multiple in Z[t] of the
    coordinates' gcd (Morphism.apply_ff passes the resultant): the
    polynomial gcd starts from its primitive part, so a nonzero constant
    bound skips it, and the integer content is a gcd with its content.  0
    means unknown and gives the full gcds.
    """
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
    content = gcd(bound.content(), *(v for p in polys for v in p.c))
    if content > 1:
        polys = [p // content for p in polys]
    first = next(p for p in polys if not p.is_zero)
    if first.lead < 0:
        polys = [-p for p in polys]
    return ProjPointFF(tuple(polys))


def ff_height(point: ProjPointFF) -> int:
    """Function-field height: maximum coordinate degree on a coprime tuple."""
    return max(p.degree for p in point.coords if not p.is_zero)
