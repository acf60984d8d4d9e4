"""Morphisms of P^N given by homogeneous lifts, and polarized systems.

A morphism is stored as a lift: N+1 homogeneous polynomials of a common
degree d with integer coefficients (or Z[t] coefficients for families).
Lifts are canonicalized to integer content 1 with the first nonzero
coefficient of the first coordinate positive, which makes Green values and
bad-prime sets deterministic functions of the system; pass normalize=False
to keep a deliberately rescaled lift.

A polarized system is a tuple of k such morphisms on the same P^N.  Its
weight is alpha = sum of the degrees, and alpha > k is required throughout:
that inequality is what makes the averaged height relation contract.

On P^1, being a morphism is equivalent to the resultant of the two
coordinate forms being nonzero, and the primes dividing the resultants are
the only finite places that can carry a nonzero Green function.  One
fraction-free solve per map gives both the resultant and the
Nullstellensatz certificate.  Its rows are those of S^T, S the 2d x 2d
Sylvester matrix of the lift, built straight from the lift in the lift's
ring (Z for a constant lift, Z[t] for a parametric one), and its two
right-hand sides are the columns of X_0^(2d-1) and X_1^(2d-1).
linalg.solve_scaled returns D = det S = Res, which Morphism.resultant
reads, and y = D * g for the unique solution g of S^T g = e_c, c the
column of X_j^(2d-1): the entries of y are the coefficients of forms
G_j0, G_j1 over that ring with Res * X_j^(2d-1) = G_j0*F_0 + G_j1*F_1.  Morphism.certificate reads the
least such multiple R_j of X_j^(2d-1) and its forms from y, only on
demand; they bound the p-adic valuation of an image (see canonical).  On
higher P^N no resultant is computed; morphism-ness is user-asserted and
failures surface as runtime "indeterminate point" errors.

The resultant also bounds the content of an exact image.  At a primitive
x, g = gcd(F_0(x), F_1(x)) divides Res * x_0^(2d-1) and Res * x_1^(2d-1)
by that identity, and their gcd is Res since the x_j are coprime.  So
Morphism.apply renormalizes by gcd(Res, F_0(x), F_1(x)), a reduction
modulo a small integer instead of a gcd of two huge ones, and apply_ff
does the same in Z[t] with the t-resultant.  On P^N, or with a zero
resultant, the bound is 0 (unknown) and the gcd is the full one.  The
argument needs primitive input, which is why only projective.normalize
and normalize_ff build points.

Lift polynomials are read by polynomial.parse_terms, which states the
grammar; t always parses, and a parametric lift is rejected wherever a
constant one is needed (validate_system, Morphism.apply).  HomogPoly.eval
is the one lift evaluator, whatever the coordinates are: integers and
residues in the exact walks, Z[t] in the function-field height,
HomogPolys in compose, float columns in the archimedean walk.  Terms are stored in descending lexicographic exponent
order and summed in that order as c * (x_0^e_0 * x_1^e_1 * ...), so the
archimedean float sums are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import IndeterminatePointError, ValidationError
from .exactnum import prime_factors
from .linalg import solve_scaled
from .polynomial import TPoly, parse_terms
from .projective import ProjPointFF, ProjPointQ, normalize, normalize_ff

__all__ = [
    "HomogPoly",
    "Morphism",
    "PolarizedSystem",
    "parse_homog",
    "commutes",
    "validate_system",
]

def _ccontent(c) -> int:
    return c.content() if isinstance(c, TPoly) else abs(c)


def _clead(c) -> int:
    return c.lead if isinstance(c, TPoly) else c


def _ceval_t(c, t0: Fraction):
    return c.eval(t0) if isinstance(c, TPoly) else Fraction(c)


class HomogPoly:
    """Homogeneous polynomial in X0..XN, coefficients in Z or Z[t].

    Terms are a map from exponent vectors (all summing to the degree) to
    nonzero coefficients, stored in descending lexicographic exponent order;
    every reader (eval, rendering, equality) walks them in that order.  The
    zero polynomial has degree None.
    """

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, terms: dict):
        clean = {}
        degree = None
        for exps, c in terms.items():
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValidationError(f"bad exponent vector {exps}")
            d = sum(exps)
            if degree is None:
                degree = d
            elif d != degree:
                raise ValidationError("polynomial is not homogeneous")
            clean[exps] = c
        self.nvars = nvars
        self.degree = degree
        self.terms = dict(sorted(clean.items(), reverse=True))

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def has_param(self) -> bool:
        return any(isinstance(c, TPoly) for c in self.terms.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._key() == other._key()

    def __hash__(self):
        return hash((self.nvars, self._key()))

    def _key(self):
        return tuple(
            (e, c.c if isinstance(c, TPoly) else c) for e, c in self.terms.items()
        )

    # -- arithmetic --------------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "HomogPoly":
        return cls(nvars, {})

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return HomogPoly(self.nvars, out)

    def scale(self, s) -> "HomogPoly":
        if s == 0:
            return HomogPoly.zero(self.nvars)
        return HomogPoly(self.nvars, {e: c * s for e, c in self.terms.items()})

    __rmul__ = scale

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        if self.is_zero or other.is_zero:
            return HomogPoly.zero(self.nvars)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return HomogPoly(self.nvars, out)

    def __pow__(self, n: int) -> "HomogPoly":
        if n < 0:
            raise ValueError("negative exponent")
        if n == 0:
            return HomogPoly(self.nvars, {(0,) * self.nvars: 1})
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- evaluation ---------------------------------------------------------------

    def eval(self, coords):
        """The one lift evaluator: sum of c * (x_0^e_0 * x_1^e_1 * ...) in term order.

        coords may be ring elements (int, Fraction, TPoly), HomogPolys (which
        composes), Python floats or float arrays (which evaluates row-wise).
        The fixed term order and association make float sums reproducible; a
        square is x * x, the same bits on floats as numpy's square on arrays.
        The zero polynomial evaluates to the int 0.
        """
        acc = None
        for exps, c in self.terms.items():
            mono = None
            for x, e in zip(coords, exps):
                if e:
                    xe = x if e == 1 else x * x if e == 2 else x**e
                    mono = xe if mono is None else mono * xe
            term = c if mono is None else c * mono
            acc = term if acc is None else acc + term
        return 0 if acc is None else acc

    def specialize_t(self, t0: Fraction) -> dict[tuple[int, ...], Fraction]:
        """Substitute t = t0; returns the (possibly zero) rational term map."""
        return {e: _ceval_t(c, t0) for e, c in self.terms.items()}

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for exps, c in self.terms.items():
            if isinstance(c, TPoly):
                if c.is_constant:
                    coeff_str, negative = str(abs(c.lead)), c.lead < 0
                else:
                    coeff_str, negative = f"({c})", False
            else:
                coeff_str, negative = str(abs(c)), c < 0
            monos = [
                f"X{i}" if e == 1 else f"X{i}^{e}"
                for i, e in enumerate(exps)
                if e > 0
            ]
            body = "*".join(([coeff_str] if coeff_str != "1" or not monos else []) + monos)
            if not parts:
                parts.append(body if not negative else f"-{body}")
            else:
                parts.append(f" - {body}" if negative else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"HomogPoly({self})"


def parse_homog(text: str, nvars: int) -> HomogPoly:
    """Parse a homogeneous polynomial in X0..X(nvars-1) with coefficients in Z[t].

    Coefficients without t become plain ints, so has_param tells the rings apart.
    """
    terms = parse_terms(text, nvars)
    return HomogPoly(nvars, {e: c.lead if c.is_constant else c for e, c in terms.items()})


class Morphism:
    """Self-map of P^N given by a homogeneous lift of common degree."""

    __slots__ = ("lift", "nvars", "degree", "has_param", "_solved", "_certificate")

    def __init__(self, lift, normalize: bool = True):
        lift = tuple(lift)
        if not lift:
            raise ValidationError("empty lift")
        nvars = lift[0].nvars
        if len(lift) != nvars:
            raise ValidationError("lift must have N+1 coordinates on P^N")
        degrees = {p.degree for p in lift if not p.is_zero}
        if not degrees:
            raise ValidationError("lift is identically zero")
        if len(degrees) != 1:
            raise ValidationError("lift coordinates must share one degree")
        (degree,) = degrees
        if degree < 1:
            raise ValidationError("lift degree must be at least 1")
        if normalize:
            lift = _canonical_lift(lift)
        self.lift = lift
        self.nvars = nvars
        self.degree = degree
        self.has_param = any(p.has_param for p in lift)
        self._solved = None
        self._certificate = None

    # -- queries ---------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.nvars - 1

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return self.lift == other.lift

    def __hash__(self):
        return hash(tuple(self.lift))

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.lift) + ")"

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_strings(cls, polys, dim: int, normalize: bool = True) -> "Morphism":
        nvars = dim + 1
        return cls([parse_homog(s, nvars) for s in polys], normalize=normalize)

    # -- evaluation -----------------------------------------------------------------

    def eval_raw(self, coords) -> tuple:
        """Evaluate the lift with HomogPoly.eval; no normalization.

        A zero coordinate polynomial gives the int 0 whatever coords are.
        """
        return tuple(p.eval(coords) for p in self.lift)

    def apply(self, point: ProjPointQ) -> ProjPointQ:
        """Evaluate on primitive coordinates and renormalize; exact.

        On P^1 the content of F(x) divides Res(F) for primitive x, because
        Res(F) * x_j^(2d-1) = G_j0(x)*F_0(x) + G_j1(x)*F_1(x) for j = 0, 1
        with integer forms G_ji, and x_0^(2d-1), x_1^(2d-1) are coprime.  So
        the content is gcd(Res, F_0(x), F_1(x)): a reduction of the huge
        coordinates modulo Res.  On P^N, or with a zero resultant, it is
        the full gcd.
        """
        if point.dim != self.dim:
            raise ValidationError("dimension mismatch")
        if self.has_param:
            raise ValidationError("parametric lift applied to a rational point")
        vals = self.eval_raw(point.coords)
        if all(v == 0 for v in vals):
            raise IndeterminatePointError("indeterminate point")
        return normalize(vals, self.resultant() if self.dim == 1 else 0)

    def apply_ff(self, point: ProjPointFF) -> ProjPointFF:
        """Evaluate on Q(t)-coordinates and renormalize to a coprime tuple.

        The argument of apply, in Z[t]: for coprime x of content 1 the
        gcd of F_0(x) and F_1(x) divides the t-resultant, so the
        polynomial gcd starts from it and is skipped when it is a nonzero
        constant (as for x^2 + t).  On P^N, or with a zero resultant, it is
        the full gcd.
        """
        if point.dim != self.dim:
            raise ValidationError("dimension mismatch")
        vals = self.eval_raw(point.coords)
        if all(v == 0 for v in vals):
            raise IndeterminatePointError("indeterminate point")
        return normalize_ff(vals, self.resultant() if self.dim == 1 else 0)

    # -- structure ---------------------------------------------------------------

    def compose(self, inner: "Morphism") -> "Morphism":
        """Symbolic substitution; degree multiplies, content is removed."""
        if self.nvars != inner.nvars:
            raise ValidationError("dimension mismatch")
        return Morphism([p.eval(inner.lift) if not p.is_zero else p for p in self.lift])

    def _solve(self, what: str) -> tuple:
        """The one cached solve of S^T g = e_0, e_(2d-1) of a map of P^1.

        Row c of S^T holds, for each Sylvester row r = d*p + i, the
        coefficient of X0^(2d-1-c) * X1^c in X0^(d-1-i) * X1^i * F_p;
        entries are in the lift's ring.  Returns solve_scaled's (D, ys), or
        (zero of the ring, None) when the resultant vanishes.
        """
        if self._solved is None:
            if self.dim != 1:
                raise ValidationError(f"{what} is only defined on P^1")
            d, n = self.degree, 2 * self.degree
            one = TPoly.const(1) if self.has_param else 1
            rows: list[dict] = [{} for _ in range(n)]
            for p, form in enumerate(self.lift):
                for (e0, _e1), c in form.terms.items():
                    for i in range(d):
                        rows[i + d - e0][d * p + i] = one * c
            rows[0][n] = one
            rows[n - 1][n + 1] = one
            self._solved = solve_scaled(rows, 2) or (one * 0, None)
        return self._solved

    def resultant(self) -> int | TPoly:
        """Sylvester resultant of the two coordinate forms (P^1), sign included.

        The signed determinant D of the cached solve, over the lift's
        coefficient ring: an int for a constant lift, a TPoly for a
        parametric one (zero included).
        """
        return self._solve("resultant")[0]

    def certificate(self) -> tuple:
        """Nullstellensatz certificate of a morphism of P^1.

        Returns ((R_0, (G_00, G_01)), (R_1, (G_10, G_11))): for j = 0, 1,
        R_j is the least positive integer with
        R_j * X_j^(2d-1) = G_j0 * F_0 + G_j1 * F_1 for integer forms G_ji
        of degree d - 1.  The coefficients of (G_j0, G_j1) are the g with
        S^T g = R_j * e_c, S the Sylvester matrix and c the column of
        X_j^(2d-1).  S is invertible, so g / R_j = y / D is the unique
        rational solution for e_c, with D = Res and the integers y
        (Cramer's rule) of the cached solve that gave the resultant.  R_j,
        the lcm of its denominators, is |D| / gcd(D, y), a divisor of the
        resultant.
        """
        if self._certificate is None:
            if self.has_param:
                raise ValidationError("parametric lift has no integer certificate (specialize first)")
            res, ys = self._solve("certificate")
            if ys is None:
                raise ValidationError(f"not a morphism: zero resultant for {self}")
            d = self.degree
            cert = []
            for y in ys:
                rj = abs(res) // gcd(res, *y)
                scale = res // rj
                forms = tuple(
                    HomogPoly(2, {(d - 1 - i, i): y[d * p + i] // scale for i in range(d)})
                    for p in range(2)
                )
                cert.append((rj, forms))
            self._certificate = tuple(cert)
        return self._certificate

    def specialize(self, t0: Fraction) -> "Morphism":
        """Substitute t = t0 and clear denominators to a canonical integer lift."""
        t0 = Fraction(t0)
        rational = [p.specialize_t(t0) for p in self.lift]
        scale = lcm(*(c.denominator for terms in rational for c in terms.values()))
        lift = []
        for terms in rational:
            lift.append(
                HomogPoly(self.nvars, {e: int(c * scale) for e, c in terms.items()})
            )
        return Morphism(lift, normalize=True)


def _canonical_lift(lift: tuple) -> tuple:
    """Remove integer content; make the first nonzero coefficient positive."""
    g = 0
    for p in lift:
        for c in p.terms.values():
            g = gcd(g, _ccontent(c))
    if g == 0:
        raise ValidationError("lift is identically zero")
    first = next(c for p in lift for c in p.terms.values())
    sign = 1 if _clead(first) > 0 else -1
    s = g * sign
    if s == 1:
        return tuple(lift)
    out = []
    for p in lift:
        out.append(HomogPoly(p.nvars, {e: c // g * sign for e, c in p.terms.items()}))
    return tuple(out)


@dataclass(frozen=True)
class PolarizedSystem:
    """k morphisms of a common P^N with weight alpha = sum of degrees > k."""

    maps: tuple[Morphism, ...]
    k: int
    alpha: int
    dim: int
    _bad_primes: list | None = field(default=None, compare=False, repr=False)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.degree for m in self.maps)

    def resultants(self) -> tuple[int, ...]:
        return tuple(m.resultant() for m in self.maps)

    def bad_primes(self) -> list[int]:
        """Primes dividing some lift resultant (P^1 only), sorted."""
        if self._bad_primes is None:
            res = prod(self.resultants())
            found = sorted(prime_factors(res)) if abs(res) != 1 else []
            object.__setattr__(self, "_bad_primes", found)
        return list(self._bad_primes)


def polarization(maps: tuple) -> tuple[int, int]:
    """(k, alpha) of a nonempty tuple of maps; rejects it unless alpha > k."""
    if not maps:
        raise ValidationError("empty system")
    k = len(maps)
    alpha = sum(m.degree for m in maps)
    if alpha <= k:
        raise ValidationError(f"not polarized with alpha > k (alpha={alpha}, k={k})")
    return k, alpha


def validate_system(maps) -> PolarizedSystem:
    """Check the polarization inequality and, on P^1, morphism-ness.

    alpha is the sum of the coordinate degrees; the system is rejected
    unless alpha > k.  On P^1 a zero resultant means some map is not a
    morphism and the system is rejected as well.
    """
    maps = tuple(maps)
    k, alpha = polarization(maps)
    dims = {m.dim for m in maps}
    if len(dims) != 1:
        raise ValidationError("maps live on different projective spaces")
    (dim,) = dims
    if any(m.has_param for m in maps):
        raise ValidationError("parametric lift in a constant system (specialize first)")
    if dim == 1:
        for m in maps:
            if m.resultant() == 0:
                raise ValidationError(f"not a morphism: zero resultant for {m}")
    return PolarizedSystem(maps=maps, k=k, alpha=alpha, dim=dim)


def commutes(f: Morphism, g: Morphism) -> bool:
    """True when f∘g and g∘f have proportional lifts (compose returns canonical ones)."""
    return f.compose(g) == g.compose(f)
