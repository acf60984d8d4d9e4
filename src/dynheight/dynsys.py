"""Morphisms of P^N given by homogeneous lifts, and polarized systems.

A morphism is stored as a lift: N+1 homogeneous polynomials of a common
degree d with integer coefficients (or Z[t] coefficients for families).
Lifts are canonicalized by polynomial.content_unit, the rule points use
too: integer content 1 and the first coefficient (in term order) with a
positive leading coefficient, which makes Green values and bad-prime sets
deterministic functions of the system; pass normalize=False to keep a
deliberately rescaled lift.

A polarized system is a tuple of k such morphisms on the same P^N.  Its
weight is alpha = sum of the degrees, and alpha > k is required throughout:
that inequality is what makes the averaged height relation contract.

A lift F of degree d on P^N is a morphism exactly when the forms
sum_i G_i*F_i, G_i of degree delta - d, fill every form of Macaulay's
degree delta = (N+1)(d-1)+1.  One cached fraction-free solve per map
(Morphism._solve) decides it and gives the Nullstellensatz certificate.
Its rows are the monomials of degree delta, its columns the multiples
mu*F_i, and its right-hand sides X_0^delta, ..., X_N^delta, built straight
from the lift in its ring (Z, or Z[t] for a parametric lift): each term
c*X^e of F_i puts c in the rows of the monomials mu*X^e, and those rows
are laid out once per exponent e that some lift has (_multiple_rows), so
a sparse lift of high degree costs its terms, not all degree-d monomials.
On P^1 the matrix is S^T, S the Sylvester matrix.  Morphism.resultant is the solve's
signed minor D: the resultant on P^1, a nonzero multiple of the Macaulay
resultant on P^N, and 0 exactly for a non-morphism, which validate_system
rejects.  Morphism.certificate reads from the solve, on demand, R_j and
forms G_ji with R_j * X_j^delta = sum_i G_ji*F_i and R_j | D; they bound
the p-adic valuation of an image (see canonical).

D also bounds the content of an exact image: at a primitive x,
gcd_i F_i(x) divides every R_j * x_j^delta, so it divides lcm_j R_j and
hence D.  So Morphism.apply renormalizes by gcd(D, F_0(x), ..., F_N(x)),
a reduction modulo a small integer instead of a gcd of huge ones, or the
same in Z[t]: projective.normalize reads the ring from the image.  With
D = 0 the gcd is the full one.  The argument needs primitive input, which
is why only projective.normalize builds points.

Lift polynomials are read by polynomial.parse_terms, which states the
grammar; t always parses, and a parametric lift is rejected wherever a
constant one is needed (validate_system, Morphism.certificate).  HomogPoly.eval
is the one lift evaluator, whatever the coordinates are: integers and
residues in the exact walks, Z[t] in the function-field height,
HomogPolys in compose, float columns in the archimedean walk.  Terms are stored in descending lexicographic exponent
order and summed in that order as c * (x_0^e_0 * x_1^e_1 * ...), so the
archimedean float sums are reproducible bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from operator import add

from .errors import IndeterminatePointError, ValidationError
from .exactnum import prime_factors
from .linalg import solve_scaled
from .polynomial import TPoly, content_unit, parse_terms
from .projective import ProjPoint, normalize

__all__ = [
    "HomogPoly",
    "Morphism",
    "PolarizedSystem",
    "parse_homog",
    "commutes",
    "validate_system",
]

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
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(self.terms.items())))

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

    def apply(self, point: ProjPoint) -> ProjPoint:
        """Evaluate on primitive coordinates and renormalize; exact, over Q or Q(t).

        The content of F(x) divides D = resultant() (see the module
        docstring), so normalize takes gcd(D, F_0(x), ..., F_N(x)), the huge
        coordinates reduced modulo D, in Z or Z[t]; with D = 0 the full gcd.
        A parametric lift maps a rational point to a point over Q(t): the
        image of the constant section.
        """
        if point.dim != self.dim:
            raise ValidationError("dimension mismatch")
        vals = self.eval_raw(point.coords)
        if all(v == 0 for v in vals):
            raise IndeterminatePointError("indeterminate point")
        return normalize(vals, self.resultant())

    # -- structure ---------------------------------------------------------------

    def compose(self, inner: "Morphism") -> "Morphism":
        """Symbolic substitution; degree multiplies, content is removed."""
        if self.nvars != inner.nvars:
            raise ValidationError("dimension mismatch")
        return Morphism([p.eval(inner.lift) if not p.is_zero else p for p in self.lift])

    def _solve(self) -> tuple:
        """The one cached solve of M y_j = D * e_j, j = 0..N, M the Macaulay matrix.

        Entries are in the lift's ring (layout: _macaulay_layout).  Returns
        solve_scaled's (D, ys), or (zero of the ring, None) when the rows of
        M are dependent: the map is not a morphism.
        """
        if self._solved is None:
            nvars, d = self.nvars, self.degree
            row_of, mults, rhs = _macaulay_layout(nvars, d)
            one = TPoly.const(1) if self.has_param else 1
            rows: list[dict] = [{} for _ in row_of]
            for i, form in enumerate(self.lift):
                base = i * len(mults)
                for e, c in form.terms.items():
                    v = one * c
                    for m, r in enumerate(_multiple_rows(nvars, d, e)):
                        rows[r][base + m] = v
            n = nvars * len(mults)
            for j, r in enumerate(rhs):
                rows[r][n + j] = one
            self._solved = solve_scaled(rows, n, nvars) or (one * 0, None)
        return self._solved

    def resultant(self) -> int | TPoly:
        """The signed minor D of the cached solve, in the lift's ring (int or TPoly).

        On P^1 the resultant of the two coordinate forms, sign included; on
        P^N a nonzero multiple of the Macaulay resultant.  0 exactly when
        the map is not a morphism.
        """
        return self._solve()[0]

    def certificate(self) -> tuple:
        """Nullstellensatz certificate of a morphism of P^N.

        Returns, per coordinate j, (R_j, (G_j0, ..., G_jN)): a positive
        integer and integer forms (or zeros) with R_j * X_j^delta =
        sum_i G_ji * F_i.  The cached solve's y has M y = D * e_j, so y / D
        solves M g = e_j and R_j = |D| / gcd(D, y), the lcm of its
        denominators, divides D.  On P^1, M = S^T is invertible, so R_j is
        the least such integer; on P^N it is a multiple of the least.
        """
        if self._certificate is None:
            if self.has_param:
                raise ValidationError("parametric lift has no integer certificate (specialize first)")
            res, ys = self._solve()
            if ys is None:
                raise ValidationError(f"not a morphism: zero resultant for {self}")
            _row_of, mults, _rhs = _macaulay_layout(self.nvars, self.degree)
            cert = []
            for y in ys:
                rj = abs(res) // gcd(res, *y)
                scale = res // rj
                forms = tuple(
                    HomogPoly(self.nvars, {mu: y[i * len(mults) + m] // scale for m, mu in enumerate(mults)})
                    for i in range(self.nvars)
                )
                cert.append((rj, forms))
            self._certificate = tuple(cert)
        return self._certificate

    def specialize(self, t0: Fraction) -> "Morphism":
        """The canonical integer lift of the fiber at t = t0.

        For t0 = a/b every coefficient c becomes the integer b^D * c(a/b)
        (TPoly.hom), D the lift's largest t-degree; the canonical lift
        divides b^D out with the rest of the content.
        """
        t0 = Fraction(t0)
        coeffs = [c for p in self.lift for c in p.terms.values()]
        deg = max(c.degree if isinstance(c, TPoly) else 0 for c in coeffs)
        scale = t0.denominator**deg
        lift = [
            HomogPoly(self.nvars, {
                e: c.hom(t0, deg) if isinstance(c, TPoly) else c * scale
                for e, c in p.terms.items()
            })
            for p in self.lift
        ]
        return Morphism(lift)


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials of a degree in nvars variables, descending lex."""
    if nvars == 1:
        return [(degree,)]
    return [(e, *rest) for e in range(degree, -1, -1) for rest in _monomials(nvars - 1, degree - e)]


@functools.cache
def _macaulay_layout(nvars: int, d: int) -> tuple:
    """The layout of the Macaulay matrix of the degree-d maps of P^(nvars-1).

    Rows are the monomials of degree delta = nvars*(d-1)+1, columns the
    pairs (coordinate i, multiplier mu of degree delta-d) at i*M + m for the
    m-th of M multipliers, both in descending lex order.  Returns ({monomial
    of degree delta: its row}, the multipliers, the rows of X_0^delta, ...,
    X_N^delta).
    """
    delta = nvars * (d - 1) + 1
    row_of = {e: r for r, e in enumerate(_monomials(nvars, delta))}
    rhs = [row_of[tuple(delta * (i == j) for i in range(nvars))] for j in range(nvars)]
    return row_of, _monomials(nvars, delta - d), rhs


@functools.cache
def _multiple_rows(nvars: int, d: int, e: tuple) -> list[int]:
    """The rows of mu*X^e, mu over the multipliers of _macaulay_layout(nvars, d), in order.

    Cached per exponent of a lift term, so a sparse lift of high degree
    never lays out the degree-d monomials it does not have.
    """
    row_of, mults, _rhs = _macaulay_layout(nvars, d)
    return [row_of[tuple(map(add, mu, e))] for mu in mults]


def _canonical_lift(lift: tuple) -> tuple:
    """Divide the lift by content_unit of its coefficients, in term order."""
    unit = content_unit([c for p in lift for c in p.terms.values()])
    if unit == 1:
        return lift
    return tuple(HomogPoly(p.nvars, {e: c // unit for e, c in p.terms.items()}) for p in lift)


@dataclass(frozen=True)
class PolarizedSystem:
    """k morphisms of a common P^N with weight alpha = sum of degrees > k."""

    maps: tuple[Morphism, ...]
    k: int
    alpha: int
    dim: int
    _bad_primes: list | None = field(default=None, compare=False, repr=False)

    def resultants(self) -> tuple[int, ...]:
        return tuple(m.resultant() for m in self.maps)

    def bad_primes(self) -> list[int]:
        """Primes dividing some lift resultant, sorted; P^N's minors are too large to factor."""
        if self.dim != 1:
            raise ValidationError("bad primes are only computed on P^1")
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
    """Check the polarization inequality and morphism-ness.

    alpha is the sum of the coordinate degrees; the system is rejected
    unless alpha > k.  A zero D (Morphism.resultant) means some map is not
    a morphism and the system is rejected as well.
    """
    maps = tuple(maps)
    k, alpha = polarization(maps)
    dims = {m.dim for m in maps}
    if len(dims) != 1:
        raise ValidationError("maps live on different projective spaces")
    (dim,) = dims
    if any(m.has_param for m in maps):
        raise ValidationError("parametric lift in a constant system (specialize first)")
    for m in maps:
        if m.resultant() == 0:
            raise ValidationError(f"not a morphism: zero resultant for {m}")
    return PolarizedSystem(maps=maps, k=k, alpha=alpha, dim=dim)


def commutes(f: Morphism, g: Morphism) -> bool:
    """True when f∘g and g∘f have proportional lifts (compose returns canonical ones)."""
    return f.compose(g) == g.compose(f)
