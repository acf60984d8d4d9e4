"""One-parameter families of systems over Q(t): specialization and sweeps.

A parametric system is a tuple of morphisms of P^1 whose lift coefficients
live in Z[t].  The good locus is the complement of the zero set of
R(t) = product of the t-resultants of the lifts: exactly at parameters with
R(t0) != 0 does every map specialize to a genuine morphism, and there the
fiber carries its own canonical height.  Fibers, sections and R are
specialized in integers: for t0 = a/b a polynomial P of degree at most D
gives b^D * P(a/b) (TPoly.hom), and the canonical lift or primitive point
divides b^D out again.

Three experiment harnesses compare those fiberwise heights with heights on
the base:

* variation_sweep measures D(t) = |h^_t(x_t) - h(x_t)| against the base
  height h_T(t) and fits an affine envelope D <= c1*h_T + c2.
* limit_ratio tracks h^_t(P_t)/h_T(t) along a sequence of parameters and
  compares it with the function-field canonical height of the section,
  computed exactly by word iteration over Q(t).
* local_variation_sweep compares canonical local heights with the standard
  hyperplane local height, row by row against a local height of the bad
  locus on the base.

All three walk the fibers through one loop (_fibers), which reports the
parameters outside the good locus as skipped; a section, normalized to
coprime coordinates, specializes to a point at every parameter.  The
naive heights h and h_T are ln||x||_inf (exactnum.log_norm); the hyperplane
and boundary local heights are deg D * ln||x||_v - ln|D(x)|_v (log_abs).

Sweep tables render to CSV with the fixed column header t,h_T,point,value,aux
and 12 significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canonical import (
    GreenConfig,
    canonical_height,
    canonical_local_height,
    resolve_budget,
    walk,
)
from .dynsys import Morphism, PolarizedSystem, polarization, validate_system
from .errors import (
    BadParameterError,
    PointOnDivisorError,
    ValidationError,
)
from .exactnum import INFINITY, Place, log_abs, log_norm
from .polynomial import TPoly, parse_tpoly
from .projective import (
    ProjPoint,
    ff_height,
    local_height_hyperplane,
    normalize,
    weil_height,
)

__all__ = [
    "ParamSystem",
    "Section",
    "SweepRow",
    "FFHeightResult",
    "VariationSweep",
    "RatioSweep",
    "LocalSweep",
    "specialize",
    "ff_canonical_height",
    "base_height",
    "variation_sweep",
    "limit_ratio",
    "boundary_local_height",
    "local_variation_sweep",
    "rows_to_csv",
]


@dataclass(frozen=True)
class ParamSystem:
    """k morphisms of P^1 with Z[t] coefficients and their good locus R(t)."""

    maps: tuple[Morphism, ...]
    k: int
    alpha: int
    good_locus: TPoly

    @classmethod
    def build(cls, maps) -> "ParamSystem":
        maps = tuple(maps)
        k, alpha = polarization(maps)
        if any(m.dim != 1 for m in maps):
            raise ValidationError("parametric systems are supported on P^1 only")
        locus = TPoly.const(1)
        for m in maps:
            locus = locus * m.resultant()
        if locus.is_zero:
            raise ValidationError("generic fiber is not a morphism system (zero t-resultant)")
        return cls(maps=maps, k=k, alpha=alpha, good_locus=locus)


@dataclass(frozen=True)
class Section:
    """A point of P^1 over Q(t): a family of points, one per good parameter."""

    point: ProjPoint

    @classmethod
    def from_strings(cls, polys) -> "Section":
        return cls(normalize([parse_tpoly(s) for s in polys]))

    @classmethod
    def constant(cls, point: ProjPoint) -> "Section":
        # TPoly entries, even constant ones: specialize_at reads their degrees.
        return cls(normalize([TPoly.const(c) for c in point.coords]))

    def specialize_at(self, t0: Fraction) -> ProjPoint:
        """The point at t = t0: b^D * P_i(a/b) for t0 = a/b, D the largest degree, normalized."""
        t0 = Fraction(t0)
        deg = max(p.degree for p in self.point.coords)
        return normalize([p.hom(t0, deg) for p in self.point.coords])

    def __str__(self) -> str:
        return str(self.point)


def specialize(system: ParamSystem, t0: Fraction) -> PolarizedSystem:
    """Fiber of the family at t0; requires t0 in the good locus."""
    t0 = Fraction(t0)
    if system.good_locus.hom(t0, system.good_locus.degree) == 0:
        raise BadParameterError(f"t={t0} not in the good locus")
    return validate_system(m.specialize(t0) for m in system.maps)


@dataclass
class FFHeightResult:
    """Partial function-field canonical height with its last increment.

    value is the exact rational alpha^-n * sum over words of the coordinate
    degree of f_w(P); the increment from depth n-1 is the convergence
    indicator (the sequence is eventually constant or contracts with ratio
    at most k/alpha for the families in scope).
    """

    value: Fraction
    last_increment: Fraction
    depth: int


def ff_canonical_height(system: ParamSystem, section: Section, n: int) -> FFHeightResult:
    """Exact word iteration of the section over Q(t), averaged by alpha^n."""
    if n < 0:
        raise ValidationError("depth must be nonnegative")
    if section.point.dim != 1:
        raise ValidationError("a section must be a point of P^1")

    def step(point: ProjPoint) -> tuple[list[ProjPoint], int]:
        kids = [mp.apply(point) for mp in system.maps]
        return kids, sum(ff_height(kid) for kid in kids)

    value = prev = Fraction(ff_height(section.point))
    for m, _nodes, _level, total in walk(section.point, step, system.k, n, resolve_budget(None)):
        prev, value = value, Fraction(total, system.alpha**m)
    return FFHeightResult(value, value - prev, n)


def base_height(t0: Fraction) -> float:
    """Naive height of t0 as a point of P^1(Q): ln max(|a|, b) for t0 = a/b."""
    t0 = Fraction(t0)
    return log_norm((t0.numerator, t0.denominator), INFINITY)


@dataclass
class SweepRow:
    t: Fraction
    h_t: float
    point: str
    value: float
    aux: float


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Fixed-format sweep table: header t,h_T,point,value,aux, 12 sig digits."""
    lines = ["t,h_T,point,value,aux"]
    for r in rows:
        lines.append(
            f"{r.t},{r.h_t:.12g},{r.point},{r.value:.12g},{r.aux:.12g}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class VariationSweep:
    rows: list[SweepRow]
    c1: float
    c2: float
    violations: list[SweepRow]
    skipped: list[tuple[Fraction, str]]


def _fit_envelope(train: list[SweepRow]) -> tuple[float, float]:
    """Two-pass max-slope envelope fit.

    Pass 1 takes c1 as the least slope from any row of smaller h to the top
    row R at the largest h: the slope of the rightmost upper-convex-hull edge
    of the training cloud (its asymptotic growth rate), 0 if no h is smaller.
    Pass 2 takes the least c2 making D <= c1*h + c2 hold on all training
    rows.  A flat cloud gives c1 = c2 = 0 exactly.  Both constants are
    clamped to be nonnegative.
    """
    if not train:
        return 0.0, 0.0
    top = max(train, key=lambda r: (r.h_t, r.value))
    slopes = [(top.value - r.value) / (top.h_t - r.h_t) for r in train if r.h_t < top.h_t]
    c1 = max(0.0, min(slopes, default=0.0))
    c2 = max(0.0, max(r.value - c1 * r.h_t for r in train))
    return c1, c2


def _split_rows(rows: list[SweepRow]) -> tuple[list[SweepRow], list[SweepRow]]:
    # Stratified split: sort by (h, -D) and alternate, so the envelope
    # support at each base height lands in the training half.
    order = sorted(rows, key=lambda r: (r.h_t, -r.value, str(r.t), r.point))
    return order[0::2], order[1::2]


def _fibers(system: ParamSystem, sections, t_samples, skipped: list):
    """Yield (t0, fiber, x_t) for each parameter and each section, in order.

    A t0 outside the good locus is appended to skipped as (t0, reason)
    instead.
    """
    if any(s.point.dim != 1 for s in sections):
        raise ValidationError("a section must be a point of P^1")
    for t0 in t_samples:
        t0 = Fraction(t0)
        try:
            fiber = specialize(system, t0)
        except BadParameterError as exc:
            skipped.append((t0, str(exc)))
            continue
        for section in sections:
            yield t0, fiber, section.specialize_at(t0)


def variation_sweep(
    system: ParamSystem,
    sections: list[Section],
    t_samples,
    cfg: GreenConfig | None = None,
) -> VariationSweep:
    """Height-difference sweep D(t) = |h^_t(x_t) - h(x_t)| with envelope fit.

    Bad parameters are skipped and reported, not fatal.  The envelope is
    fitted on a stratified half of the rows and validated on the held-out
    half; holdout rows breaking D <= c1*h_T + c2 (beyond float slack) are
    returned as violations.
    """
    cfg = cfg or GreenConfig()
    rows: list[SweepRow] = []
    skipped: list[tuple[Fraction, str]] = []
    for t0, fiber, x_t in _fibers(system, sections, t_samples, skipped):
        height = canonical_height(fiber, x_t, cfg)
        diff = abs(height.value - weil_height(x_t))
        rows.append(SweepRow(t0, base_height(t0), str(x_t), diff, height.value))
    train, holdout = _split_rows(rows)
    c1, c2 = _fit_envelope(train)
    violations = [r for r in holdout if r.value > c1 * r.h_t + c2 + 1e-9]
    return VariationSweep(rows, c1, c2, violations, skipped)


@dataclass
class RatioSweep:
    rows: list[SweepRow]
    ff_value: Fraction
    skipped: list[tuple[Fraction, str]]


def limit_ratio(
    system: ParamSystem,
    section: Section,
    t_sequence,
    cfg: GreenConfig | None = None,
    ff_depth: int = 10,
) -> RatioSweep:
    """Ratios h^_t(P_t)/h_T(t) along a parameter sequence.

    The aux column is the deviation from the function-field canonical
    height of the section, which the ratios approach as h_T(t) grows.
    """
    cfg = cfg or GreenConfig()
    ff_val = ff_canonical_height(system, section, ff_depth).value
    rows: list[SweepRow] = []
    skipped: list[tuple[Fraction, str]] = []
    for t0, fiber, x_t in _fibers(system, [section], t_sequence, skipped):
        h_t = base_height(t0)
        if h_t <= 0:
            skipped.append((t0, "h_T(t) = 0"))
            continue
        ratio = canonical_height(fiber, x_t, cfg).value / h_t
        rows.append(SweepRow(t0, h_t, str(x_t), ratio, abs(ratio - float(ff_val))))
    return RatioSweep(rows, ff_val, skipped)


def boundary_local_height(locus: TPoly, t0: Fraction, v: Place) -> float:
    """Local height of the parameter against the zero set of a base polynomial.

    For t0 = a/b primitive and R of degree D with homogenization R_hom,
    returns D * ln max(|a|_v, |b|_v) - ln |R_hom(a, b)|_v, which is
    nonnegative at finite places when R has coprime integer coefficients.
    """
    if locus.is_zero:
        raise ValidationError("zero boundary polynomial")
    t0 = Fraction(t0)
    a, b = t0.numerator, t0.denominator
    deg = locus.degree
    r_hom = locus.hom(t0, deg)
    if r_hom == 0:
        raise BadParameterError(f"t={t0} on boundary")
    return deg * log_norm((a, b), v) - log_abs(r_hom, v)


@dataclass
class LocalSweep:
    rows: list[SweepRow]
    empirical_c: float
    skipped: list[tuple[Fraction, str]]


def local_variation_sweep(
    system: ParamSystem,
    section: Section,
    j: int,
    v: Place,
    t_samples,
    cfg: GreenConfig | None = None,
) -> LocalSweep:
    """Per-place differences between canonical and standard local heights.

    Row value is lambda^_{t,v}(x_t) - lambda_v(x_t); aux is the boundary
    local height of the parameter.  The empirical constant is the max of
    |value| / max(1, aux) over the rows.
    """
    if not 0 <= j <= 1:
        raise ValidationError(f"coordinate index {j} out of range")
    cfg = cfg or GreenConfig()
    rows: list[SweepRow] = []
    skipped: list[tuple[Fraction, str]] = []
    for t0, fiber, x_t in _fibers(system, [section], t_samples, skipped):
        try:
            lam_hat = canonical_local_height(fiber, x_t, j, v, cfg)
            lam = local_height_hyperplane(x_t, j, v)
        except PointOnDivisorError as exc:
            skipped.append((t0, str(exc)))
            continue
        boundary = boundary_local_height(system.good_locus, t0, v)
        rows.append(SweepRow(t0, base_height(t0), str(x_t), lam_hat - lam, boundary))
    emp = max((abs(r.value) / max(1.0, r.aux) for r in rows), default=0.0)
    return LocalSweep(rows, emp, skipped)
