"""Green functions per place and canonical heights for polarized systems.

For a system S = {F_1, ..., F_k} of degree d_i lifts on P^N with weight
alpha = sum d_i > k, the Green function of S at a place v is the unique
degree-1-homogeneous potential on lift coordinates with

    sum_i G_v(F_i(x)) = alpha * G_v(x),   G_v = ln||.||_v + O(1).

It is computed as the limit of the averaged word-tree recursion

    G^(0)(x) = ln||x||_v,
    G^(m+1)(x) = alpha^-1 * sum_i [ ln c_i + G^(m)(F_i(x)/c_i) ],

where c_i renormalizes each image: at the archimedean place divide by the
sup norm (floats, per-level log accumulation), at a finite place divide by
the p-part of the coordinate gcd (exact residue arithmetic).  Increments
shrink geometrically with ratio k/alpha, which gives the reported tail
bounds.

The canonical height of a rational point is the sum of its Green values on
primitive coordinates over the archimedean place and the bad primes;
good-reduction primes contribute exactly zero because the resultants are
p-adic units there.  An independent word-iteration oracle (exact
big-integer orbits, naive heights averaged over all k^n words) provides a
second route used for cross-checks.

Tail bounds at finite places are certified by the resultant valuations; at
the archimedean place they use the running maximum of observed one-step
increments and are therefore monitored, not certified.  A small constant
float-accumulation allowance is added on top.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    IndeterminatePointError,
    NonCommutingError,
    PointOnDivisorError,
    ValidationError,
)
from .exactnum import INFINITY, Place, log_abs, ord_p
from .dynsys import Morphism, PolarizedSystem, commutes
from .projective import ProjPointQ, weil_height

__all__ = [
    "GreenConfig",
    "GreenProfile",
    "CanonicalHeightResult",
    "OracleResult",
    "green_local",
    "green_profile",
    "canonical_height",
    "canonical_height_oracle_detailed",
    "canonical_local_height",
    "functional_eq_residual",
    "metric_equality_report",
    "height_equality_report",
    "forward_orbit",
]

DEFAULT_NODE_BUDGET = 10**7
BUDGET_ENV_VAR = "DYNHEIGHT_NODE_BUDGET"

# Allowance for float accumulation across the level sums; added to every
# reported tail bound so that exact identities compared in floats stay
# inside their own error bars.
FLOAT_SLACK = 1e-10


@dataclass(frozen=True)
class GreenConfig:
    """Word-tree evaluation parameters.

    depth is the word length for fixed mode and the depth cap for adaptive
    mode.  Adaptive mode stops once the last two level increments drop
    below target_eps * (alpha - k) / k (the Cauchy criterion for the
    geometric tail) and the monitored geometric tail itself is below
    target_eps; a single increment can be incidentally zero (an orbit can
    sit at sup norm one for a step before escaping), so one small increment
    alone is not trusted.
    """

    depth: int = 20
    target_eps: float = 1e-9
    mode: str = "fixed"
    node_budget: int | None = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError("depth must be at least 1")
        if self.mode not in ("fixed", "adaptive"):
            raise ValidationError("mode must be 'fixed' or 'adaptive'")
        if self.target_eps <= 0:
            raise ValidationError("target_eps must be positive")


def resolve_budget(node_budget: int | None) -> int:
    """node_budget if given, else $DYNHEIGHT_NODE_BUDGET, else the default."""
    if node_budget is not None:
        return node_budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_NODE_BUDGET
    if not env.isdecimal():
        raise ValidationError(f"{BUDGET_ENV_VAR} must be a nonnegative integer, got {env!r}")
    return int(env)


def charge_level(nodes: int, count: int, m: int, budget: int) -> int:
    """Add level m's count map evaluations to the node count; raise past the budget."""
    nodes += count
    if nodes > budget:
        raise BudgetExceededError(f"budget exceeded: depth {m} needs {nodes} nodes > {budget}")
    return nodes


def walk(root, children, k: int, depth: int, budget: int):
    """The word tree below root with equal states merged, level by level.

    children(state) returns the k child states.  For m = 1..depth this
    yields (m, nodes, level), where level maps each distinct state at depth
    m to the number of words that reach it, and nodes counts the map
    evaluations so far: k per distinct state expanded.
    """
    level = {root: 1}
    nodes = 0
    for m in range(1, depth + 1):
        nodes = charge_level(nodes, k * len(level), m, budget)
        nxt: dict = {}
        for state, words in level.items():
            for child in children(state):
                nxt[child] = nxt.get(child, 0) + words
        level = nxt
        yield m, nodes, level


def geom_tail(system: PolarizedSystem, chat: float, m: int) -> float:
    """Geometric tail chat * r^m / (1 - r), r = k/alpha, left after m levels."""
    ratio = system.k / system.alpha
    return chat * ratio**m / (1.0 - ratio)


def _converged(
    system: PolarizedSystem, cfg: GreenConfig, increments: list[float], chat: float
) -> bool:
    """The adaptive stop rule of GreenConfig, after level len(increments)."""
    m = len(increments)
    if cfg.mode != "adaptive" or m < 2:
        return False
    cauchy = cfg.target_eps * (system.alpha - system.k) / system.k
    return (
        abs(increments[-1]) < cauchy
        and abs(increments[-2]) < cauchy
        and geom_tail(system, chat, m) < cfg.target_eps
    )


@dataclass
class GreenProfile:
    """One place-local Green evaluation with its convergence diagnostics."""

    value: float
    increments: list[float]
    chat: float            # one-step increment bound: certified at p, monitored at inf
    depth: int
    nodes: int             # map evaluations charged to the node budget
    exact: Fraction | None = None   # finite places: value = exact * ln(p)


@dataclass
class CanonicalHeightResult:
    value: float
    tail_bound: float
    per_place: dict[Place, float]
    depth_used: int


@dataclass
class OracleResult:
    value: float
    tail_bound: float
    depth: int
    c_measured: float


# -- archimedean walk ---------------------------------------------------------------


def _np_terms(m: Morphism):
    if m._np_cache is None:
        per_coord = []
        try:
            for p in m.lift:
                per_coord.append([(float(c), exps) for exps, c in p.sorted_terms()])
        except OverflowError as exc:
            raise ValidationError("lift coefficient is too large for a float") from exc
        m._np_cache = per_coord
    return m._np_cache


def _np_eval(m: Morphism, x: np.ndarray) -> np.ndarray:
    rows = x.shape[0]
    out = np.empty((rows, m.nvars))
    powers: dict[tuple[int, int], np.ndarray] = {}

    def power(i: int, e: int) -> np.ndarray:
        key = (i, e)
        if key not in powers:
            powers[key] = x[:, i] ** e
        return powers[key]

    for j, entries in enumerate(_np_terms(m)):
        acc = np.zeros(rows)
        for coeff, exps in entries:
            term = None
            for i, e in enumerate(exps):
                if e:
                    term = power(i, e) if term is None else term * power(i, e)
            acc = acc + coeff * term if term is not None else acc + coeff
        out[:, j] = acc
    return out


def _green_arch(system: PolarizedSystem, coords, cfg: GreenConfig) -> GreenProfile:
    """Level-by-level word-tree walk at the archimedean place.

    Levels are kept as arrays of sup-normalized points in lexicographic
    word order; the per-level log contributions are reduced in that fixed
    index order, so the output is reproducible for a given configuration.
    """
    coords = [int(c) for c in coords]
    sup = max(abs(c) for c in coords)
    if sup == 0:
        raise ValidationError("zero lift coordinates")
    k, alpha = system.k, system.alpha
    nvars = len(coords)
    total = math.log(sup)
    x = np.array([[float(Fraction(c, sup)) for c in coords]])
    budget = resolve_budget(cfg.node_budget)
    increments: list[float] = []
    chat = 0.0
    nodes = 0
    weight = 1.0
    for m in range(1, cfg.depth + 1):
        nodes = charge_level(nodes, k * len(x), m, budget)
        children = []
        lncs = []
        for mp in system.maps:
            y = _np_eval(mp, x)
            c = np.max(np.abs(y), axis=1)
            if not np.all(c > 0.0):
                raise IndeterminatePointError("indeterminate point in word tree")
            children.append(y / c[:, None])
            lncs.append(np.log(c))
        lnc = np.stack(lncs, axis=1)                       # (rows, k), parent-major
        weight /= alpha
        inc = float(np.sum(lnc)) * weight
        chat = max(chat, float(np.max(np.abs(np.sum(lnc, axis=1)))) / alpha)
        total += inc
        increments.append(inc)
        if m == cfg.depth or _converged(system, cfg, increments, chat):
            break
        x = np.stack(children, axis=1).reshape(-1, nvars)
    return GreenProfile(total, increments, chat, len(increments), nodes)


# -- finite-place walk ----------------------------------------------------------------


class _PrecisionExhausted(Exception):
    pass


def _unit_canonical(coords: tuple[int, ...], p: int, prec: int) -> tuple[int, ...]:
    # Scale by the inverse of the first unit coordinate: Green contributions
    # only depend on the point up to p-adic units, so states collapse.
    mod = p**prec
    for c in coords:
        if c % p:
            inv = pow(c, -1, mod)
            return tuple((v * inv) % mod for v in coords)
    raise AssertionError("no unit coordinate after renormalization")


def _padic_walk(
    system: PolarizedSystem, coords: tuple[int, ...], p: int, prec0: int, cfg: GreenConfig
) -> GreenProfile:
    # States are (unit-canonical residues, precision).  Dividing an image by
    # p^e leaves precision prec - e, so the valuations summed over level m
    # are k * P(m-1) - P(m), where P(m) sums words * precision over level m.
    k, alpha = system.k, system.alpha
    e0 = min(ord_p(c, p) for c in coords if c != 0)
    pe0 = p**e0
    start = tuple((c // pe0) % p**prec0 for c in coords)
    start = _unit_canonical(start, p, prec0)
    exact = Fraction(-e0)
    lnp = math.log(p)
    if system.dim == 1:
        res_bound = sum(ord_p(r, p) for r in system.resultants())
        chat = float(Fraction(res_bound, alpha)) * lnp
        monitored = False
    else:
        chat = 0.0
        monitored = True

    def children(state):
        nonlocal chat
        cs, prec = state
        pm = p**prec
        kids = []
        for mp in system.maps:
            vals = [v % pm for v in mp.eval_raw(cs)]
            nonzero = [v for v in vals if v]
            if not nonzero:
                raise _PrecisionExhausted
            e = min(ord_p(v, p) for v in nonzero)
            nprec = prec - e
            pe = p**e
            pnm = p**nprec
            kids.append((_unit_canonical(tuple((v // pe) % pnm for v in vals), p, nprec), nprec))
        if monitored:
            chat = max(chat, sum(prec - q for _cs, q in kids) / alpha * lnp)
        return kids

    increments: list[float] = []
    prev_p = prec0
    levels = walk((start, prec0), children, k, cfg.depth, resolve_budget(cfg.node_budget))
    for m, nodes, level in levels:
        level_p = sum(words * prec for (_cs, prec), words in level.items())
        step = Fraction(k * prev_p - level_p, alpha**m)
        prev_p = level_p
        exact -= step
        increments.append(-float(step) * lnp)
        if _converged(system, cfg, increments, chat):
            break
    return GreenProfile(float(exact) * lnp, increments, chat, len(increments), nodes, exact)


def _green_padic(system: PolarizedSystem, coords, p: int, cfg: GreenConfig) -> GreenProfile:
    coords = tuple(int(c) for c in coords)
    if all(c == 0 for c in coords):
        raise ValidationError("zero lift coordinates")
    e0 = min(ord_p(c, p) for c in coords if c != 0)
    if system.dim == 1:
        per_step = max(ord_p(r, p) for r in system.resultants())
        if per_step == 0:
            # Good reduction: images of primitive tuples stay primitive, so
            # the walk contributes nothing beyond the initial content.
            exact = Fraction(-e0)
            return GreenProfile(float(exact) * math.log(p), [], 0.0, 0, 0, exact)
        prec0 = cfg.depth * per_step + 8
    else:
        prec0 = 64
    # On P^1 the resultant bound makes the first precision sufficient; the
    # doubling loop only matters on higher P^N where no bound is computed.
    # An image that is the exact zero vector (an indeterminacy point of a
    # non-morphism) would exhaust any precision, so restarts stop at a
    # generous desk-scale ceiling.
    while prec0 <= 2**16:
        try:
            return _padic_walk(system, coords, p, prec0, cfg)
        except _PrecisionExhausted:
            prec0 *= 2
    raise IndeterminatePointError(
        f"images vanish {p}-adically beyond working precision: indeterminate point"
    )


# -- public surface ---------------------------------------------------------------------


def green_profile(system: PolarizedSystem, lift_coords, v: Place, cfg: GreenConfig) -> GreenProfile:
    """Green evaluation with diagnostics (value, increments, tail data)."""
    if v.is_infinite:
        return _green_arch(system, lift_coords, cfg)
    return _green_padic(system, lift_coords, v.p, cfg)


def green_local(system: PolarizedSystem, lift_coords, v: Place, cfg: GreenConfig) -> float:
    """Depth-cfg Green value G_v of the system at integer lift coordinates.

    Homogeneous of degree 1 in the lift: G_v(c*x) = G_v(x) + ln|c|_v.
    """
    return green_profile(system, lift_coords, v, cfg).value


def canonical_height(
    system: PolarizedSystem, point: ProjPointQ, cfg: GreenConfig | None = None
) -> CanonicalHeightResult:
    """Canonical height by local decomposition over Infinity and bad primes.

    The per-place entries are Green values on the primitive coordinates;
    their sum is the height.  The tail bound combines the per-place
    geometric tails (certified at finite places, monitored at the
    archimedean place) plus a float-accumulation allowance.
    """
    cfg = cfg or GreenConfig()
    if system.dim != 1:
        raise ValidationError("canonical_height needs P^1 (finite places via resultants)")
    if point.dim != system.dim:
        raise ValidationError("dimension mismatch")
    profiles: list[tuple[Place, GreenProfile]] = [
        (INFINITY, _green_arch(system, point.coords, cfg))
    ]
    for p in system.bad_primes():
        profiles.append((Place.prime(p), _green_padic(system, point.coords, p, cfg)))
    per_place = {place: prof.value for place, prof in profiles}
    value = math.fsum(prof.value for _place, prof in profiles)
    tail = math.fsum(geom_tail(system, prof.chat, prof.depth) for _place, prof in profiles)
    tail += FLOAT_SLACK * (1.0 + abs(value))
    depth_used = max(prof.depth for _place, prof in profiles)
    return CanonicalHeightResult(value, tail, per_place, depth_used)


def canonical_height_oracle_detailed(
    system: PolarizedSystem, point: ProjPointQ, n: int, node_budget: int | None = None
) -> OracleResult:
    """Word-iteration surrogate alpha^-n * sum over all k^n words of h(f_w(P)).

    Points are iterated exactly in big integers (with renormalization to
    primitive tuples, and deduplication of coinciding word images); only the
    final logs are floats.  The tail bound uses the measured maximum of
    |sum_i h(F_i x) - alpha h(x)| over all visited nodes, monitored like
    the archimedean Green bound.
    """
    if point.dim != system.dim:
        raise ValidationError("dimension mismatch")
    if n < 0:
        raise ValidationError("depth must be nonnegative")
    alpha = system.alpha
    naive = functools.cache(weil_height)
    c_measured = 0.0

    def children(pt: ProjPointQ) -> list[ProjPointQ]:
        nonlocal c_measured
        kids = [mp.apply(pt) for mp in system.maps]
        resid = abs(math.fsum(naive(q) for q in kids) - alpha * naive(pt))
        c_measured = max(c_measured, resid)
        return kids

    level = {point: 1}
    for _m, _nodes, level in walk(point, children, system.k, n, resolve_budget(node_budget)):
        pass
    value = math.fsum(float(mult) * naive(pt) for pt, mult in level.items())
    value /= float(alpha**n)
    tail = geom_tail(system, c_measured / alpha, n) + FLOAT_SLACK * (1.0 + abs(value))
    return OracleResult(value, tail, n, c_measured)


def canonical_local_height(
    system: PolarizedSystem,
    point: ProjPointQ,
    j: int,
    v: Place,
    cfg: GreenConfig | None = None,
) -> float:
    """Canonical local height against the hyperplane {x_j = 0} at v.

    Realized as G_v on the primitive coordinates minus ln|x_j|_v, which is
    scale-invariant in the lift and sums to the canonical height over
    Infinity, the bad primes and the primes dividing x_j.
    """
    cfg = cfg or GreenConfig()
    if not 0 <= j < len(point.coords):
        raise ValidationError(f"coordinate index {j} out of range")
    if point.coords[j] == 0:
        raise PointOnDivisorError("point on divisor")
    g = green_local(system, point.coords, v, cfg)
    return g - log_abs(point.coords[j], v)


def functional_eq_residual(
    system: PolarizedSystem, point: ProjPointQ, cfg: GreenConfig | None = None
) -> float:
    """| sum_i h^(F_i P) - alpha * h^(P) | at the configured depth."""
    cfg = cfg or GreenConfig()
    base = canonical_height(system, point, cfg).value
    total = math.fsum(
        canonical_height(system, mp.apply(point), cfg).value for mp in system.maps
    )
    return abs(total - system.alpha * base)


def _require_commuting(left: PolarizedSystem, right: PolarizedSystem) -> None:
    for f in left.maps:
        for g in right.maps:
            if not commutes(f, g):
                raise NonCommutingError("systems do not commute")


def metric_equality_report(
    left: PolarizedSystem,
    right: PolarizedSystem,
    samples,
    v: Place,
    cfg: GreenConfig | None = None,
) -> float:
    """Max |G_{v,left} - G_{v,right}| over sample lift coordinates.

    Requires every map of one system to commute with every map of the
    other; for such pairs the two Green functions agree, so the report
    should be at the level of the tails.
    """
    cfg = cfg or GreenConfig()
    _require_commuting(left, right)
    return max(
        abs(green_local(left, s, v, cfg) - green_local(right, s, v, cfg))
        for s in samples
    )


def height_equality_report(
    left: PolarizedSystem,
    right: PolarizedSystem,
    points,
    cfg: GreenConfig | None = None,
) -> float:
    """Max canonical-height difference over points, for commuting systems."""
    cfg = cfg or GreenConfig()
    _require_commuting(left, right)
    return max(
        abs(canonical_height(left, p, cfg).value - canonical_height(right, p, cfg).value)
        for p in points
    )


def forward_orbit(
    system: PolarizedSystem, point: ProjPointQ, max_points: int = 10**4
) -> tuple[set[tuple[int, ...]], bool]:
    """Breadth-first forward orbit under all maps; closed=False on budget."""
    seen = {point.coords}
    frontier = [point]
    while frontier:
        pt = frontier.pop()
        for mp in system.maps:
            child = mp.apply(pt)
            if child.coords not in seen:
                if len(seen) >= max_points:
                    return seen, False
                seen.add(child.coords)
                frontier.append(child)
    return seen, True
