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
the only finite places that can carry a nonzero Green function.  On higher
P^N no resultant is computed; morphism-ness is user-asserted and failures
surface as runtime "indeterminate point" errors.

Lift polynomials are read by polynomial.parse_terms, which states the
grammar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import IndeterminatePointError, ValidationError
from .exactnum import prime_factors
from .linalg import det_int, det_tpoly
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
    nonzero coefficients.  The zero polynomial has degree None.
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
        self.terms = clean

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def has_param(self) -> bool:
        return any(isinstance(c, TPoly) for c in self.terms.values())

    def sorted_terms(self):
        """Terms in descending lexicographic exponent order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._key() == other._key()

    def __hash__(self):
        return hash((self.nvars, self._key()))

    def _key(self):
        return tuple(
            (e, c.c if isinstance(c, TPoly) else c) for e, c in self.sorted_terms()
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

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def scale(self, s) -> "HomogPoly":
        if s == 0:
            return HomogPoly.zero(self.nvars)
        return HomogPoly(self.nvars, {e: c * s for e, c in self.terms.items()})

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

    # -- evaluation and substitution ----------------------------------------------

    def eval(self, coords):
        """Exact evaluation on ring elements (int, Fraction or TPoly)."""
        acc = 0
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(coords, exps):
                if e == 1:
                    term = term * x
                elif e > 1:
                    term = term * x**e
            acc = acc + term
        return acc

    def substitute(self, polys: list["HomogPoly"]) -> "HomogPoly":
        """Plug homogeneous polynomials in for the variables."""
        nvars = polys[0].nvars
        cache: dict[tuple[int, int], HomogPoly] = {}

        def power(i: int, e: int) -> HomogPoly:
            if (i, e) not in cache:
                cache[(i, e)] = polys[i] ** e
            return cache[(i, e)]

        acc = HomogPoly.zero(nvars)
        for exps, c in self.terms.items():
            term = None
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                term = power(i, e) if term is None else term * power(i, e)
            if term is None:
                term = HomogPoly(nvars, {(0,) * nvars: 1})
            acc = acc + term.scale(c)
        return acc

    def specialize_t(self, t0: Fraction) -> dict[tuple[int, ...], Fraction]:
        """Substitute t = t0; returns the (possibly zero) rational term map."""
        return {e: _ceval_t(c, t0) for e, c in self.terms.items()}

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for exps, c in self.sorted_terms():
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


def parse_homog(text: str, nvars: int, allow_t: bool = False) -> HomogPoly:
    """Parse a homogeneous polynomial in X0..X(nvars-1), optionally with t.

    Coefficients without t become plain ints.
    """
    terms = parse_terms(text, nvars, allow_t)
    return HomogPoly(nvars, {e: c.lead if c.is_constant else c for e, c in terms.items()})


class Morphism:
    """Self-map of P^N given by a homogeneous lift of common degree."""

    __slots__ = ("lift", "nvars", "degree", "_np_cache", "_res_cache")

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
        self._np_cache = None
        self._res_cache: dict = {}

    # -- queries ---------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.nvars - 1

    @property
    def has_param(self) -> bool:
        return any(p.has_param for p in self.lift)

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
    def from_strings(cls, polys, dim: int, allow_t: bool = False, normalize: bool = True) -> "Morphism":
        nvars = dim + 1
        return cls([parse_homog(s, nvars, allow_t) for s in polys], normalize=normalize)

    # -- evaluation -----------------------------------------------------------------

    def eval_raw(self, coords) -> tuple:
        """Evaluate the lift exactly; no normalization, any coefficient ring."""
        return tuple(p.eval(coords) if not p.is_zero else 0 for p in self.lift)

    def apply(self, point: ProjPointQ) -> ProjPointQ:
        """Evaluate on primitive coordinates and renormalize; exact."""
        if point.dim != self.dim:
            raise ValidationError("dimension mismatch")
        if self.has_param:
            raise ValidationError("parametric lift applied to a rational point")
        vals = self.eval_raw(point.coords)
        if all(v == 0 for v in vals):
            raise IndeterminatePointError("indeterminate point")
        return normalize(vals)

    def apply_ff(self, point: ProjPointFF) -> ProjPointFF:
        """Evaluate on Q(t)-coordinates and renormalize to a coprime tuple."""
        if point.dim != self.dim:
            raise ValidationError("dimension mismatch")
        vals = self.eval_raw(point.coords)
        if all(v == 0 for v in vals):
            raise IndeterminatePointError("indeterminate point")
        return normalize_ff(vals)

    # -- structure ---------------------------------------------------------------

    def compose(self, inner: "Morphism") -> "Morphism":
        """Symbolic substitution; degree multiplies, content is removed."""
        if self.nvars != inner.nvars:
            raise ValidationError("dimension mismatch")
        lift = [p.substitute(list(inner.lift)) for p in self.lift]
        return Morphism(lift, normalize=True)

    def _binary_form_rows(self) -> tuple[list, list]:
        if self.dim != 1:
            raise ValidationError("resultant is only defined on P^1")
        d = self.degree
        rows = []
        for p in self.lift:
            row = [0] * (d + 1)
            for (e0, _e1), c in p.terms.items():
                row[d - e0] = c
            rows.append(row)
        return rows[0], rows[1]

    def resultant(self) -> int:
        """Sylvester resultant of the two coordinate forms (P^1, Z coefficients)."""
        if "int" not in self._res_cache:
            if self.has_param:
                raise ValidationError("use t_resultant for parametric lifts")
            a, b = self._binary_form_rows()
            self._res_cache["int"] = det_int(_sylvester(a, b, self.degree))
        return self._res_cache["int"]

    def t_resultant(self) -> TPoly:
        """Resultant of the coordinate forms as a polynomial in t (P^1)."""
        if "t" not in self._res_cache:
            a, b = self._binary_form_rows()
            self._res_cache["t"] = det_tpoly(_sylvester(a, b, self.degree))
        return self._res_cache["t"]

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


def _sylvester(a: list, b: list, d: int) -> list[list]:
    n = 2 * d
    m = [[0] * n for _ in range(n)]
    for i in range(d):
        for j, v in enumerate(a):
            m[i][i + j] = v
    for i in range(d):
        for j, v in enumerate(b):
            m[d + i][i + j] = v
    return m


def _canonical_lift(lift: tuple) -> tuple:
    """Remove integer content; make the first nonzero coefficient positive."""
    g = 0
    for p in lift:
        for c in p.terms.values():
            g = gcd(g, _ccontent(c))
    if g == 0:
        raise ValidationError("lift is identically zero")
    sign = 0
    for p in lift:
        for _e, c in p.sorted_terms():
            sign = 1 if _clead(c) > 0 else -1
            break
        if sign:
            break
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


def validate_system(maps) -> PolarizedSystem:
    """Check the polarization inequality and, on P^1, morphism-ness.

    alpha is the sum of the coordinate degrees; the system is rejected
    unless alpha > k.  On P^1 a zero resultant means some map is not a
    morphism and the system is rejected as well.
    """
    maps = tuple(maps)
    if not maps:
        raise ValidationError("empty system")
    dims = {m.dim for m in maps}
    if len(dims) != 1:
        raise ValidationError("maps live on different projective spaces")
    (dim,) = dims
    if any(m.has_param for m in maps):
        raise ValidationError("parametric lift in a constant system (specialize first)")
    k = len(maps)
    alpha = sum(m.degree for m in maps)
    if alpha <= k:
        raise ValidationError(f"not polarized with alpha > k (alpha={alpha}, k={k})")
    if dim == 1:
        for m in maps:
            if m.resultant() == 0:
                raise ValidationError(f"not a morphism: zero resultant for {m}")
    return PolarizedSystem(maps=maps, k=k, alpha=alpha, dim=dim)


def commutes(f: Morphism, g: Morphism) -> bool:
    """True when f∘g and g∘f have proportional lifts (compose returns canonical ones)."""
    return f.compose(g) == g.compose(f)
