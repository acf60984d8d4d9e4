"""Primitive projective points over Q and Q(t), and their naive heights.

One class, ProjPoint, holds both kinds by their canonical coordinates; one
constructor, normalize, reads the ring from the entries, and one rule
(polynomial.content_unit) fixes their content and sign.  A point
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
with the first nonzero coordinate's leading coefficient positive.  A tuple
with a TPoly entry is read as such a point.  Their height is the maximum
coordinate degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PointOnDivisorError, ValidationError
from .exactnum import INFINITY, Place, clear_denominators, log_abs, log_norm
from .polynomial import TPoly, content_unit

__all__ = [
    "ProjPoint",
    "normalize",
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
    normalize, never directly: Morphism.apply bounds an image's common
    factor by the resultant, which holds only for such input (a test checks
    that nothing else in the package constructs it).
    """

    coords: tuple

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return ":".join(str(c) for c in self.coords)


def normalize(raw, bound: int | TPoly = 0) -> ProjPoint:
    """Canonical representative of a tuple of rationals, or of ints and TPolys.

    A tuple with a TPoly entry is a point over Q(t): ints become constant
    TPolys and the common polynomial factor goes, its gcd seeded from
    bound's primitive part (a nonzero constant bound skips it).  Any other
    tuple clears denominators.  Both are then divided by content_unit.
    bound is a known multiple of the coordinates' gcd (Morphism.apply passes
    the resultant), so huge coordinates are reduced modulo it; 0 means unknown.
    """
    coords = list(raw)
    ff = TPoly in map(type, coords)
    if not ff:
        coords = clear_denominators(coords)
    if not any(coords):
        raise ValidationError("not a projective point")
    if ff:
        coords = [v if isinstance(v, TPoly) else TPoly.const(v) for v in coords]
        g = bound.primitive() if isinstance(bound, TPoly) else TPoly.const(bound)
        for p in coords:
            if g.degree == 0:
                break
            g = g.gcd(p) if not g.is_zero else p.primitive()
        if g.degree > 0:
            coords = [p // g for p in coords]
    unit = content_unit(coords, bound)
    if unit != 1:
        coords = [v // unit for v in coords]
    return ProjPoint(tuple(coords))


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
    return log_norm(point.coords, INFINITY)


def local_height_hyperplane(point: ProjPoint, j: int, v: Place) -> float:
    """Standard local height of P against the hyperplane {x_j = 0} at v."""
    coords = point.coords
    if not 0 <= j < len(coords):
        raise ValidationError(f"coordinate index {j} out of range")
    if coords[j] == 0:
        raise PointOnDivisorError("point on divisor")
    return log_norm(coords, v) - log_abs(coords[j], v)


def ff_height(point: ProjPoint) -> int:
    """Function-field height: maximum coordinate degree on a coprime tuple."""
    return max(p.degree for p in point.coords if not p.is_zero)
