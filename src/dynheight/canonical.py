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

At the archimedean place one level loop (_arch_walk) serves two steps.  A
one-map system's tree is a chain, stepped on a tuple of Python floats; it
matches the numpy step over the whole tree (used for k >= 2, and the
reference in the tests) bit for bit when the lift's exponents are at most
2; above that values, increments and tails agree within FLOAT_SLACK.
Floats never merge, so the merging walk() serves only the exact walks:
the finite places, the oracle and the function-field height.  Its levels
carry total, the sum of words * weight over the states expanded: the
valuation sum sum_i e_i at a finite place, the degree sum over Q(t).

Since floats never merge, level m of the archimedean walk charges k^m
evaluations whatever the point, so its budget horizon, the deepest level
whose walk fits the node budget, is known before level 1.  A fixed walk
deeper than the horizon, and an adaptive walk whose monitored tail at the
horizon is already at least eps, raise the budget error of the level past
the horizon without walking to it.  So a fixed walk over the horizon
reports the budget error before any float fault at a shallower level, as
a fixed finite-place walk over the budget is refused up front.

On every P^N a finite-place step reads at most r = max_{i,j} ord_p(R_ij)
digits, R_ij the integers of the Nullstellensatz certificates
R_ij * X_j^delta = sum_l G_ijl * F_il (Morphism.certificate), so a state
at level m of a depth-D walk keeps its residues mod p^((D-m)*r + 1) and
states that agree on those digits merge.  R_ij divides D_i, the signed
minor of map i's Macaulay solve (Morphism.resultant, the resultant on
P^1), so this r is at most max_i ord_p(D_i), often below it; the
certified tail comes from the D_i.  A prime dividing no D_i has good
reduction, and a zero D_i is a map that is not a morphism.  An adaptive
walk takes D one level past the first whose certified tail is below eps;
the D_i bound every increment, so the stop rule holds by D and each
finite place is walked once.

Before it builds residues, the walk tries the point's residue-class
table (_class_table): classes of primitive points mod p^s, s <= 3, up to
units.  When every class the orbit reaches is resolved (each map sends
it to one class with one valuation, whatever its lift), the walk steps
over classes instead of trimmed residues.  Each word gets the same
valuations either way, so both give the same level sums and values; a
closed table holds a few states at any depth.  Otherwise the walk falls
back to trimmed residues.

The canonical height of a rational point on P^1 is the sum of its Green
values on primitive coordinates over the archimedean place and the bad
primes; good-reduction primes contribute exactly zero because the
resultants are p-adic units there.  On P^N the D_i are too large to
factor, so canonical_height stays on P^1.  An independent word-iteration
oracle (exact big-integer orbits, naive heights averaged over all k^n
words) provides a second route used for cross-checks.  Its images come
from Morphism.apply, which divides by gcd(D_i, F_i(x)) instead of a gcd
of the huge coordinates (dynsys states the bound); it uses D_i, not the
certificates that trim the finite-place walk.  Each word count is
weighted by the int division mult / alpha^n, which is correctly rounded
and stays in the float range at any depth.

Tail bounds at finite places are certified by the valuations of the D_i.
At the archimedean place they use the running maximum of observed
one-step increments and are therefore monitored, not certified.  A small
constant float-accumulation allowance is added on top.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import deque
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
from .dynsys import PolarizedSystem, commutes
from .projective import ProjPoint, weil_height

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

# Limits of one attempt at a finite place's residue-class table: the
# largest s of the classes mod p^s, and the lifts enumerated over all s.
# Past them the walk steps over trimmed residues.
CLASS_MAX_S = 3
CLASS_MAX_LIFTS = 2**10


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
        if not (math.isfinite(self.target_eps) and self.target_eps > 0):
            raise ValidationError(f"target_eps must be finite and positive, got {self.target_eps}")


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


def walk(root, step, k: int, depth: int, budget: int):
    """The word tree below root with equal states merged, level by level.

    step(state) returns (the k child states, weight).  For m = 1..depth this
    yields (m, nodes, level, total), where level maps each distinct state at
    depth m to the number of words that reach it, total sums words * weight
    over the states of depth m - 1 just expanded, and nodes counts the map
    evaluations so far: k per distinct state expanded.  The finite-place
    walk reads total as level m's valuation sum, the function-field height
    as level m's degree sum; the oracle's weight is 0.
    """
    level = {root: 1}
    nodes = 0
    for m in range(1, depth + 1):
        nodes = charge_level(nodes, k * len(level), m, budget)
        nxt: dict = {}
        total = 0
        for state, words in level.items():
            kids, weight = step(state)
            total += words * weight
            for child in kids:
                nxt[child] = nxt.get(child, 0) + words
        level = nxt
        yield m, nodes, level, total


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
    chat: float            # one-step increment bound: certified at p, monitored at infinity
    depth: int
    nodes: int             # map evaluations charged to the node budget
    exact: Fraction | None = None   # finite places: value = exact * ln(p)


@dataclass
class CanonicalHeightResult:
    value: float
    tail_bound: float
    per_place: dict[Place, float]   # inf first, then the bad primes ascending
    depth_used: int
    target_met: bool | None = None   # adaptive: tail_bound <= target_eps; fixed: None


@dataclass
class OracleResult:
    value: float
    tail_bound: float
    depth: int
    c_measured: float


# -- archimedean walk ---------------------------------------------------------------


def _green_arch(system: PolarizedSystem, coords, cfg: GreenConfig) -> GreenProfile:
    """Green walk at the archimedean place: the chain for one map, else the tree."""
    if system.k == 1:
        return _green_chain(system, coords, cfg)
    return _green_tree(system, coords, cfg)


def _arch_horizon(k: int, budget: int) -> tuple[int, int]:
    """(last, nodes): the deepest archimedean level within budget, and the
    map evaluations that a walk through it charges.

    Floats never merge, so level m charges k^m evaluations whatever the
    point, and a walk through level m charges sum_{j<=m} k^j.  A chain
    (k = 1) charges m, so its horizon is the budget itself.
    """
    if k == 1:
        last = max(budget, 0)
        return last, last
    last = nodes = 0
    width = k
    while nodes + width <= budget:
        last += 1
        nodes += width
        width *= k
    return last, nodes


def _arch_walk(system: PolarizedSystem, coords, cfg: GreenConfig, step) -> GreenProfile:
    """The archimedean level loop that the chain and the tree share.

    Level 0 is the integer coords divided by their sup norm.  step(level, m)
    maps the sup-normalized points of level m - 1 to those of level m and
    returns (next level, sum of ln c over the level's images, the largest
    |sum_i ln c_i| of one parent); a level is any sequence with one entry
    per point.

    The budget horizon last (_arch_horizon) is known before level 1, and
    level last + 1 would raise charge_level's error.  A fixed walk deeper
    than last raises it at once, before any float fault that a shallower
    level would meet, as the finite-place walk refuses a fixed walk up
    front.  An adaptive walk stops at level m only if geom_tail(chat, m) <
    eps; chat never decreases and the tail falls with m, so once
    geom_tail(chat, last) >= eps after some level, no level up to last can
    stop and the walk raises the same error right away.
    """
    coords = [int(c) for c in coords]
    sup = max(abs(c) for c in coords)
    if sup == 0:
        raise ValidationError("zero lift coordinates")
    total = math.log(sup)
    level = [tuple(float(Fraction(c, sup)) for c in coords)]
    budget = resolve_budget(cfg.node_budget)
    k = system.k
    last, full = _arch_horizon(k, budget)

    def refuse():
        charge_level(full, k ** (last + 1), last + 1, budget)   # raises: level last + 1

    # A chat at or above doomed cannot stop by level last; geom_tail itself
    # confirms before a refusal, so rounding here only delays one.  An
    # r^last that underflows to 0 leaves doomed at inf: no early refusal.
    doomed = math.inf
    if cfg.depth > last:
        if cfg.mode == "fixed":
            refuse()
        ratio = k / system.alpha
        shrink = ratio**last
        if shrink > 0.0:
            doomed = cfg.target_eps * (1.0 - ratio) / shrink
    increments: list[float] = []
    chat = 0.0
    nodes = 0
    weight = 1.0
    for m in range(1, cfg.depth + 1):
        nodes = charge_level(nodes, k * len(level), m, budget)
        try:
            level, lnc_sum, lnc_max = step(level, m)
        except OverflowError as exc:
            raise ValidationError("lift coefficient is too large for a float") from exc
        weight /= system.alpha
        inc = lnc_sum * weight
        chat = max(chat, lnc_max / system.alpha)
        total += inc
        increments.append(inc)
        if _converged(system, cfg, increments, chat):
            break
        if chat >= doomed and geom_tail(system, chat, last) >= cfg.target_eps:
            refuse()
    return GreenProfile(total, increments, chat, len(increments), nodes)


def _arch_fault(lo: float, depth: int) -> Exception:
    """The error for a level whose sup norms are not all in (0, inf).

    lo is the smallest sup norm: 0 means an image vanished, so the point is
    indeterminate; inf or NaN means the images left the float range.
    """
    if lo == 0.0:
        return IndeterminatePointError("indeterminate point in word tree")
    return ValidationError(f"float overflow in the archimedean walk at depth {depth}")


def _green_chain(system: PolarizedSystem, coords, cfg: GreenConfig) -> GreenProfile:
    """The archimedean walk of a one-map system: one point per level.

    The point is a tuple of sup-normalized Python floats, stepped with
    HomogPoly.eval.  Squares, products, sums, the sup norm and np.log are
    the tree's operations on the same values, so a chain gives the tree's
    bits wherever the lift's exponents are at most 2 (float pow may differ
    from numpy's above that).
    """
    (mp,) = system.maps

    def step(level, m):
        y = mp.eval_raw(level[0])
        c = max(abs(v) for v in y)
        if not 0.0 < c < math.inf:
            raise _arch_fault(c, m)
        lnc = float(np.log(c))
        return [tuple(v / c for v in y)], lnc, abs(lnc)

    return _arch_walk(system, coords, cfg, step)


@np.errstate(over="ignore", invalid="ignore")       # overflows end in _arch_fault
def _green_tree(system: PolarizedSystem, coords, cfg: GreenConfig) -> GreenProfile:
    """The archimedean walk of the whole word tree, one numpy array per level.

    The lifts are evaluated by HomogPoly.eval on the coordinate columns, and
    the sup norm is an elementwise maximum over the image columns.  Map i's
    images of row r go to out[r, i], so out.reshape(n*k, N+1) is the next
    level in lexicographic word order.  The log contributions are reduced
    over the (n, k) array in that fixed index order, so the output is
    reproducible for a given configuration.
    """
    k = system.k

    def step(level, m):
        x = np.asarray(level)
        n, nvars = x.shape
        out = np.empty((n, k, nvars))
        lnc = np.empty((n, k))
        columns = [x[:, j] for j in range(nvars)]
        for i, mp in enumerate(system.maps):
            y = mp.eval_raw(columns)                       # a zero coordinate is the scalar 0
            c = functools.reduce(np.maximum, map(np.abs, y))
            if not (c.min() > 0.0 and c.max() < math.inf):
                raise _arch_fault(c.min(), m)
            for j, v in enumerate(y):
                out[:, i, j] = v / c
            lnc[:, i] = np.log(c)
        lnc_max = float(np.max(np.abs(np.sum(lnc, axis=1))))
        return out.reshape(n * k, nvars), float(np.sum(lnc)), lnc_max

    return _arch_walk(system, coords, cfg, step)


# -- finite-place walk ----------------------------------------------------------------


def _unit_canonical(coords: tuple[int, ...], p: int, prec: int) -> tuple[int, ...]:
    # Scale by the inverse of the first unit coordinate: Green contributions
    # only depend on the point up to p-adic units, so states collapse.
    mod = p**prec
    for c in coords:
        if c % p:
            inv = pow(c, -1, mod)
            return tuple((v * inv) % mod for v in coords)
    raise AssertionError("no unit coordinate after renormalization")


def _class_table(system: PolarizedSystem, unit, p: int):
    """The walk over residue classes of a primitive point at p, or None.

    A class is a unit-canonical tuple mod p^s, so its first unit coordinate
    is 1.  Map i sends a class to one class with one valuation e_i when
    F_i(class) is not 0 mod p^s, which fixes e_i < s, and every lift mod
    p^(s+e_i) with the unit coordinate kept at 1 gives the same
    unit-canonical class of F_i(x)/p^(e_i) mod p^s.  For s = 1 ..
    CLASS_MAX_S this searches the classes reachable from unit's class; the
    first s at which they all resolve gives (start class, step),
    step(class) = (the k child classes, sum_i e_i).  None when no s closes,
    or once the lifts, p^(e_i*N) per class and map, pass CLASS_MAX_LIFTS.
    """
    lifts = 0
    for s in range(1, CLASS_MAX_S + 1):
        ps = p**s
        start = _unit_canonical(tuple(c % ps for c in unit), p, s)
        table: dict = {}
        todo = [start]
        while todo:
            cls = todo.pop()
            if cls in table:
                continue
            j0 = next(j for j, c in enumerate(cls) if c % p)
            free = [j for j in range(len(cls)) if j != j0]
            kids = []
            esum = 0
            for mp in system.maps:
                vals = [v % ps for v in mp.eval_raw(cls)]
                if not any(vals):
                    break                           # e_i >= s: unresolved at this s
                e = min(ord_p(v, p) for v in vals if v)
                pe = p**e
                lifts += pe ** len(free)
                if lifts > CLASS_MAX_LIFTS:
                    return None
                images = set()
                for shifts in itertools.product(range(0, ps * pe, ps), repeat=len(free)):
                    x = list(cls)
                    for j, shift in zip(free, shifts):
                        x[j] += shift
                    images.add(_unit_canonical(
                        tuple(v % (ps * pe) // pe for v in mp.eval_raw(x)), p, s))
                if len(images) > 1:
                    break                           # the image class is not fixed
                kids += images
                esum += e
            if len(kids) < system.k:
                break                               # cls does not resolve: try s + 1
            table[cls] = (kids, esum)
            todo += kids
        else:
            return start, table.__getitem__
    return None


def _residue_step(system: PolarizedSystem, unit, p: int, depth: int, r: int):
    """The walk over trimmed residues of a primitive point at p: (start, step).

    A state is (unit-canonical residues, precision): the walk starts with
    depth*r + 1 digits and cuts every child to prec - r, so states that
    agree on every digit the remaining levels can read merge.
    step(state) = (the k child states, sum_i e_i).
    """
    prec0 = depth * r + 1
    start = (_unit_canonical(tuple(c % p**prec0 for c in unit), p, prec0), prec0)

    def step(state):
        cs, prec = state
        pm = p**prec
        nprec = prec - r
        pnm = p**nprec
        kids = []
        esum = 0
        for mp in system.maps:
            vals = [v % pm for v in mp.eval_raw(cs)]
            e = min(ord_p(v, p) for v in vals if v)
            esum += e
            pe = p**e
            kids.append((_unit_canonical(tuple((v // pe) % pnm for v in vals), p, nprec), nprec))
        return kids, esum

    return start, step


def _green_padic(system: PolarizedSystem, coords, p: int, cfg: GreenConfig) -> GreenProfile:
    coords = tuple(int(c) for c in coords)
    if all(c == 0 for c in coords):
        raise ValidationError("zero lift coordinates")
    certs = [mp.certificate() for mp in system.maps]     # "not a morphism" for a zero D
    ords = [ord_p(res, p) for res in system.resultants()]
    e0 = min(ord_p(c, p) for c in coords if c != 0)
    lnp = math.log(p)
    if max(ords) == 0:
        # Good reduction: the Macaulay rows stay independent mod p, so
        # images of primitive tuples stay primitive, and the walk
        # contributes nothing beyond the initial content.
        return GreenProfile(-e0 * lnp, [], 0.0, 0, 0, Fraction(-e0))
    k, alpha = system.k, system.alpha
    chat = float(Fraction(sum(ords), alpha)) * lnp
    # Let x be primitive, x_j a unit, and p^e | F_i(x).  The certificate
    # R_ij * X_j^delta = sum_l G_ijl * F_il evaluated at x gives
    # p^e | R_ij * x_j^delta, so e <= ord_p(R_ij): an image has valuation at
    # most r = max_{i,j} ord_p(R_ij).  So a step reads at most r digits and
    # the last step one more to find its valuation: a state at level m of a
    # depth-D walk needs (D - m)*r + 1 digits.  R_ij divides D_i, the
    # minor of resultant(), so e_i <= ord_p(D_i) and a level-m increment is
    # at most chat * (k/alpha)^(m-1).  An adaptive walk takes D = m* + 1,
    # m* the first level whose certified tail is below eps: both of the
    # last two increments are then below the Cauchy threshold, so the stop
    # rule holds by D, and the tail at D is below eps in any case.
    r = max(ord_p(rj, p) for cert in certs for rj, _forms in cert)
    depth = cfg.depth
    if cfg.mode == "adaptive":
        m_star = 1
        while m_star < depth and geom_tail(system, chat, m_star) >= cfg.target_eps:
            m_star += 1
        depth = min(depth, m_star + 1)
    budget = resolve_budget(cfg.node_budget)
    if cfg.mode == "fixed" and k * depth > budget:
        # Every level holds a state, so a fixed walk charges at least k
        # evaluations per level: fail before building a table or residues.
        raise BudgetExceededError(
            f"budget exceeded: depth {depth} needs at least {k * depth} nodes > {budget}"
        )
    # Both walks give every word the valuations of its exact big-integer
    # images, so they give the same level sums.  A closed class table
    # (_class_table) has a few states at any depth; else the states are
    # trimmed residues.  Each step weighs a state by its valuation sum
    # sum_i e_i, so walk's total is level m's valuation sum.
    pe0 = p**e0
    unit = tuple(c // pe0 for c in coords)
    start, step = _class_table(system, unit, p) or _residue_step(system, unit, p, depth, r)
    # The exact value after level m is num / alpha^m; level m's step is
    # s / alpha^m, and s / alpha^m as an int division is float(Fraction(s, alpha^m)).
    num = -e0
    increments: list[float] = []
    for m, nodes, _level, s in walk(start, step, k, depth, budget):
        num = num * alpha - s
        increments.append(-(s / alpha**m) * lnp)
        if _converged(system, cfg, increments, chat):
            break
    exact = Fraction(num, alpha ** len(increments))
    return GreenProfile(float(exact) * lnp, increments, chat, len(increments), nodes, exact)


# -- public surface ---------------------------------------------------------------------


def green_profile(system: PolarizedSystem, lift_coords, v: Place, cfg: GreenConfig) -> GreenProfile:
    """Green evaluation with diagnostics (value, increments, tail data)."""
    if len(lift_coords) != system.dim + 1:
        raise ValidationError("dimension mismatch")
    if v.is_infinite:
        return _green_arch(system, lift_coords, cfg)
    return _green_padic(system, lift_coords, v.p, cfg)


def green_local(system: PolarizedSystem, lift_coords, v: Place, cfg: GreenConfig) -> float:
    """Depth-cfg Green value G_v of the system at integer lift coordinates.

    Homogeneous of degree 1 in the lift: G_v(c*x) = G_v(x) + ln|c|_v.
    """
    return green_profile(system, lift_coords, v, cfg).value


def canonical_height(
    system: PolarizedSystem, point: ProjPoint, cfg: GreenConfig | None = None
) -> CanonicalHeightResult:
    """Canonical height by local decomposition over Infinity and bad primes.

    The per-place entries are Green values on the primitive coordinates;
    their sum is the height.  The tail bound combines the per-place
    geometric tails (certified at finite places, monitored at the
    archimedean place) plus a float-accumulation allowance; in adaptive
    mode target_met says whether that whole bound is within target_eps.
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
    target_met = tail <= cfg.target_eps if cfg.mode == "adaptive" else None
    return CanonicalHeightResult(value, tail, per_place, depth_used, target_met)


def canonical_height_oracle_detailed(
    system: PolarizedSystem, point: ProjPoint, n: int
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

    def step(pt: ProjPoint) -> tuple[list[ProjPoint], int]:
        nonlocal c_measured
        kids = [mp.apply(pt) for mp in system.maps]
        resid = abs(math.fsum(naive(q) for q in kids) - alpha * naive(pt))
        c_measured = max(c_measured, resid)
        return kids, 0

    level = {point: 1}
    for _m, _nodes, level, _total in walk(point, step, system.k, n, resolve_budget(None)):
        pass
    # Each weight mult / alpha^n is at most 1 and correctly rounded, however
    # far word counts and alpha^n outgrow the float range.
    scale = alpha**n
    value = math.fsum(mult / scale * naive(pt) for pt, mult in level.items())
    tail = geom_tail(system, c_measured / alpha, n) + FLOAT_SLACK * (1.0 + abs(value))
    return OracleResult(value, tail, n, c_measured)


def canonical_local_height(
    system: PolarizedSystem,
    point: ProjPoint,
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
    system: PolarizedSystem, point: ProjPoint, cfg: GreenConfig | None = None
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
    system: PolarizedSystem, point: ProjPoint, max_points: int = 10**4
) -> tuple[set[tuple[int, ...]], bool]:
    """Breadth-first forward orbit under all maps; closed=False on budget."""
    seen = {point.coords}
    frontier = deque([point])
    while frontier:
        pt = frontier.popleft()
        for mp in system.maps:
            child = mp.apply(pt)
            if child.coords not in seen:
                if len(seen) >= max_points:
                    return seen, False
                seen.add(child.coords)
                frontier.append(child)
    return seen, True
