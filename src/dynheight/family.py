"""One-parameter families of systems over Q(t): specialization and sweeps.

A parametric system is a tuple of morphisms of P^1 whose lift coefficients
live in Z[t].  The good locus is the complement of the zero set of
R(t) = product of the t-resultants of the lifts: exactly at parameters with
R(t0) != 0 does every map specialize to a genuine morphism, and there the
fiber carries its own canonical height.

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

Sweep tables render to CSV with the fixed column header t,h_T,point,value,aux
and 12 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .canonical import (
    GreenConfig,
    canonical_height,
    canonical_local_height,
    resolve_budget,
    walk,
)
from .dynsys import Morphism, PolarizedSystem, validate_system
from .errors import (
    BadParameterError,
    PointOnDivisorError,
    ValidationError,
)
from .exactnum import Place, ord_p_rational
from .polynomial import TPoly, parse_tpoly
from .projective import (
    ProjPointFF,
    ProjPointQ,
    ff_height,
    local_height_hyperplane,
    normalize,
    normalize_ff,
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
        if not maps:
            raise ValidationError("empty system")
        if any(m.dim != 1 for m in maps):
            raise ValidationError("parametric systems are supported on P^1 only")
        k = len(maps)
        alpha = sum(m.degree for m in maps)
        if alpha <= k:
            raise ValidationError(f"not polarized with alpha > k (alpha={alpha}, k={k})")
        locus = TPoly.const(1)
        for m in maps:
            locus = locus * m.t_resultant()
        if locus.is_zero:
            raise ValidationError("generic fiber is not a morphism system (zero t-resultant)")
        return cls(maps=maps, k=k, alpha=alpha, good_locus=locus)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.degree for m in self.maps)


@dataclass(frozen=True)
class Section:
    """A point of P^1 over Q(t): a family of points, one per good parameter."""

    point: ProjPointFF

    @classmethod
    def from_strings(cls, polys) -> "Section":
        return cls(normalize_ff([parse_tpoly(s) for s in polys]))

    @classmethod
    def constant(cls, point: ProjPointQ) -> "Section":
        return cls(normalize_ff([TPoly.const(c) for c in point.coords]))

    def specialize_at(self, t0: Fraction) -> ProjPointQ:
        t0 = Fraction(t0)
        vals = [p.eval(t0) for p in self.point.coords]
        if all(v == 0 for v in vals):
            raise BadParameterError(f"section degenerates at t={t0}")
        return normalize(vals)

    def __str__(self) -> str:
        return str(self.point)


def specialize(system: ParamSystem, t0: Fraction) -> PolarizedSystem:
    """Fiber of the family at t0; requires t0 in the good locus."""
    t0 = Fraction(t0)
    if system.good_locus.eval(t0) == 0:
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


def ff_canonical_height(
    system: ParamSystem, section: Section, n: int, node_budget: int | None = None
) -> FFHeightResult:
    """Exact word iteration of the section over Q(t), averaged by alpha^n."""
    if n < 0:
        raise ValidationError("depth must be nonnegative")

    def children(point: ProjPointFF) -> list[ProjPointFF]:
        return [mp.apply_ff(point) for mp in system.maps]

    budget = resolve_budget(node_budget)
    value = prev = Fraction(ff_height(section.point))
    for m, _nodes, level in walk(section.point, children, system.k, n, budget):
        total = sum(words * ff_height(point) for point, words in level.items())
        prev, value = value, Fraction(total, system.alpha**m)
    return FFHeightResult(value, value - prev, n)


def base_height(t0: Fraction) -> float:
    """Naive height of t0 as a point of P^1(Q): ln max(|a|, b) for t0 = a/b."""
    t0 = Fraction(t0)
    return math.log(max(abs(t0.numerator), t0.denominator))


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
    train_count: int
    holdout_count: int


def _upper_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    # Andrew monotone chain, upper side; points sorted by x then y.
    hull: list[tuple[float, float]] = []
    for pt in points:
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            if (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _fit_envelope(train: list[SweepRow]) -> tuple[float, float]:
    """Two-pass max-slope envelope fit.

    Pass 1 takes c1 as the slope of the rightmost upper-convex-hull edge of
    the training cloud (its asymptotic growth rate); pass 2 takes the least
    c2 making D <= c1*h + c2 hold on all training rows.  A flat cloud gives
    c1 = c2 = 0 exactly.  Both constants are clamped to be nonnegative.
    """
    if not train:
        return 0.0, 0.0
    best: dict[float, float] = {}
    for r in train:
        best[r.h_t] = max(best.get(r.h_t, -math.inf), r.value)
    pts = sorted(best.items())
    c1 = 0.0
    if len(pts) >= 2:
        hull = _upper_hull(pts)
        if len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if x1 > x0:
                c1 = max(0.0, (y1 - y0) / (x1 - x0))
    c2 = max(0.0, max(r.value - c1 * r.h_t for r in train))
    return c1, c2


def _split_rows(rows: list[SweepRow]) -> tuple[list[SweepRow], list[SweepRow]]:
    # Stratified split: sort by (h, -D) and alternate, so the envelope
    # support at each base height lands in the training half.
    order = sorted(rows, key=lambda r: (r.h_t, -r.value, str(r.t), r.point))
    return order[0::2], order[1::2]


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
    for t0 in t_samples:
        t0 = Fraction(t0)
        try:
            fiber = specialize(system, t0)
        except BadParameterError as exc:
            skipped.append((t0, str(exc)))
            continue
        for section in sections:
            try:
                x_t = section.specialize_at(t0)
            except BadParameterError as exc:
                skipped.append((t0, str(exc)))
                continue
            height = canonical_height(fiber, x_t, cfg)
            diff = abs(height.value - weil_height(x_t))
            rows.append(SweepRow(t0, base_height(t0), str(x_t), diff, height.value))
    train, holdout = _split_rows(rows)
    c1, c2 = _fit_envelope(train)
    violations = [r for r in holdout if r.value > c1 * r.h_t + c2 + 1e-9]
    return VariationSweep(rows, c1, c2, violations, skipped, len(train), len(holdout))


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
    for t0 in t_sequence:
        t0 = Fraction(t0)
        h_t = base_height(t0)
        if h_t <= 0:
            skipped.append((t0, "h_T(t) = 0"))
            continue
        try:
            fiber = specialize(system, t0)
            x_t = section.specialize_at(t0)
        except BadParameterError as exc:
            skipped.append((t0, str(exc)))
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
    deg = max(locus.degree, 0)
    r_hom = sum(c * a**i * b ** (deg - i) for i, c in enumerate(locus.c))
    if r_hom == 0:
        raise BadParameterError(f"t={t0} on boundary")
    if v.is_infinite:
        return deg * math.log(max(abs(a), b)) - math.log(abs(r_hom))
    p = v.p
    min_ord = min(ord_p_rational(a, p) if a else 10**9, ord_p_rational(b, p))
    return (-deg * min_ord + ord_p_rational(r_hom, p)) * math.log(p)


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
    cfg = cfg or GreenConfig()
    rows: list[SweepRow] = []
    skipped: list[tuple[Fraction, str]] = []
    for t0 in t_samples:
        t0 = Fraction(t0)
        try:
            fiber = specialize(system, t0)
            x_t = section.specialize_at(t0)
            lam_hat = canonical_local_height(fiber, x_t, j, v, cfg)
            lam = local_height_hyperplane(x_t, j, v)
        except (BadParameterError, PointOnDivisorError) as exc:
            skipped.append((t0, str(exc)))
            continue
        boundary = boundary_local_height(system.good_locus, t0, v)
        rows.append(SweepRow(t0, base_height(t0), str(x_t), lam_hat - lam, boundary))
    emp = max((abs(r.value) / max(1.0, r.aux) for r in rows), default=0.0)
    return LocalSweep(rows, emp, skipped)
