"""Primitive projective points over Q and Q(t), and their naive heights.

One class, ProjPoint, holds both kinds by their canonical coordinates, and
one rule (polynomial.content_unit) fixes their content and sign.  A point
of P^N(Q) is stored by its unique primitive integer representative:
coprime coordinates with the first nonzero one positive.  The naive Weil
height is ln of the sup norm of that representative; the standard local
height against the coordinate hyperplane {x_j = 0} is

    lambda_v(P, j) = ln( max_i |x_i|_v / |x_j|_v ),

which is nonnegative at every place and sums to the Weil height over the
archimedean place plus the primes dividing the coordinates.

Points over Q(t) are tuples of integer polynomials in t with no common
nonconstant factor; constants are units of Q(t), so integer content and
sign are only fixed for a deterministic representative, by the same rule
with the first nonzero coordinate's leading coefficient positive.  Their
height is the maximum coordinate degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PointOnDivisorError, ValidationError
from .exactnum import Place, clear_denominators, ord_p
from .polynomial import TPoly, content_unit

__all__ = [
    "ProjPoint",
    "normalize",
    "normalize_ff",
    "parse_coords",
    "parse_point",
    "weil_height",
    "local_height_hyperplane",
    "ff_height",
]


@dataclass(frozen=True)
class ProjPoint:
    """Canonical representative of a point of P^N over Q or Q(t).

    coords are coprime ints (over Q) or coprime TPolys (over Q(t)), with
    content 1 and a positive first leading coefficient.  Build it with
    normalize or normalize_ff, never directly: Morphism.apply and apply_ff
    bound an image's common factor by the resultant, which holds only for
    such input (a test checks that nothing else in the package constructs
    it).
    """

    coords: tuple

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return ":".join(str(c) for c in self.coords)


def normalize(raw, bound: int = 0) -> ProjPoint:
    """Canonical primitive representative of a tuple of rationals.

    Clears denominators, then divides by content_unit: the coordinate gcd
    with the sign of the first nonzero coordinate.  bound is a known
    multiple of that gcd (Morphism.apply passes the resultant), so the gcd
    is gcd(bound, *coords), which reduces the huge coordinates modulo a
    small bound; 0 means unknown and gives the full gcd.
    """
    ints = clear_denominators(raw)
    if not any(ints):
        raise ValidationError("not a projective point")
    unit = content_unit(ints, bound)
    if unit != 1:
        ints = [v // unit for v in ints]
    return ProjPoint(tuple(ints))


def parse_coords(text: str) -> list[Fraction]:
    """Parse "a0 : a1 : ... : aN" (N >= 1) into its rational entries, as written."""
    parts = [p.strip() for p in text.split(":")]
    if len(parts) < 2:
        raise ValidationError(f"cannot parse point {text!r}")
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse point {text!r}: {exc}") from exc


def parse_point(text: str) -> ProjPoint:
    """Parse "a0 : a1 : ... : aN" to the point's primitive representative."""
    return normalize(parse_coords(text))


def weil_height(point: ProjPoint) -> float:
    """Naive logarithmic height: ln max_i |x_i| on primitive coordinates."""
    return math.log(max(abs(c) for c in point.coords))


def local_height_hyperplane(point: ProjPoint, j: int, v: Place) -> float:
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


def normalize_ff(raw, bound: int | TPoly = 0) -> ProjPoint:
    """Canonical representative over Q(t) of a tuple of ints or TPolys.

    Removes the common polynomial factor of the coordinates (coprimality in
    Q(t)), then divides by content_unit: the integer content with the sign
    of the first nonzero leading coefficient, for determinism.  bound is a
    known multiple in Z[t] of the coordinates' gcd (Morphism.apply_ff
    passes the resultant): the polynomial gcd starts from its primitive
    part, so a nonzero constant bound skips it, and the integer content is
    a gcd with its content.  0 means unknown and gives the full gcds.
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
    unit = content_unit(polys, bound)
    if unit != 1:
        polys = [p // unit for p in polys]
    return ProjPoint(tuple(polys))


def ff_height(point: ProjPoint) -> int:
    """Function-field height: maximum coordinate degree on a coprime tuple."""
    return max(p.degree for p in point.coords if not p.is_zero)
