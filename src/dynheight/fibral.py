"""Component actions on special fibers, exact weight solves, and models.

A finite morphism extending a system map to an integral model permutes the
irreducible components of the special fiber; recording only where each
component goes gives a permutation-type matrix (exactly one 1 per column).
The canonical local height of a point then differs from a plain
intersection multiplicity by a component-dependent correction x_sigma(P),
where the weight vector x solves the linear system

    sum_i x_{A_i(j)} - alpha * x_j + c_j = 0,      j = 1..n.

Row sums of the matrix acting on x here are exactly k, so the system is
solvable for every alpha > k; the classically stated hypothesis alpha > nk
is sufficient but not necessary, and results record which regime applies.

SyntheticModel packages a finite forward-closed orbit with component data,
intersection numbers iE(P) and corrections vf(P) satisfying the exact
balance

    sum_i iE(phi_i P) = alpha * iE(P) + vf(P) + c_{sigma(P)},

and verify_intersection_formula replays that balance, the weight solve and
the contraction-uniqueness argument independently of how the model was
built.  All residuals are exact rationals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .linalg import solve_exact
from .rng import Lcg64

__all__ = [
    "PermTypeMatrix",
    "ComponentWeights",
    "ModelPoint",
    "SyntheticModel",
    "VerificationReport",
    "is_perm_type",
    "row_sum_bounds",
    "spectral_radius",
    "solve_weights",
    "build_synthetic",
    "random_synthetic",
    "verify_intersection_formula",
    "model_to_json",
    "model_from_json",
]


@dataclass(frozen=True)
class PermTypeMatrix:
    """Action j -> image[j] on n components; column j carries its single 1."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.n or any(not 0 <= v < self.n for v in self.image):
            raise ValidationError("component action out of range")

    @classmethod
    def from_matrix(cls, rows) -> "PermTypeMatrix":
        if isinstance(rows, (list, tuple)) and not rows:
            raise ValidationError("action matrix is empty: an action needs at least one component")
        if not is_perm_type(rows):
            raise ValidationError("matrix is not permutation-type")
        n = len(rows)
        image = tuple(next(i for i in range(n) if rows[i][j]) for j in range(n))
        return cls(n, image)

    def as_matrix(self) -> list[list[int]]:
        return [[1 if self.image[j] == i else 0 for j in range(self.n)] for i in range(self.n)]


def is_perm_type(rows) -> bool:
    """True when the nonempty square matrix of int 0s and 1s has exactly one 1 in each column.

    Entries must be ints: bools and floats such as 1.0 are not matrix entries.
    """
    if not isinstance(rows, (list, tuple)) or any(not isinstance(r, (list, tuple)) for r in rows):
        return False
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        return False
    for r in rows:
        for v in r:
            if type(v) is not int or v not in (0, 1):
                return False
    return all(sum(rows[i][j] for i in range(n)) == 1 for j in range(n))


def row_sum_bounds(rows) -> tuple[Fraction, Fraction]:
    """Exact (min, max) row sums of a nonnegative matrix."""
    sums = [sum((Fraction(v) for v in r), Fraction(0)) for r in rows]
    if any(v < 0 for r in rows for v in (Fraction(x) for x in r)):
        raise ValidationError("matrix must be nonnegative")
    return min(sums), max(sums)


def spectral_radius(rows) -> float:
    """Spectral radius of a nonnegative square matrix: the largest |eigenvalue|."""
    a = np.array(rows, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("square matrix required")
    if np.any(a < 0):
        raise ValidationError("matrix must be nonnegative")
    return float(np.max(np.abs(np.linalg.eigvals(a)), initial=0.0))


@dataclass
class ComponentWeights:
    """Solution x of the component equations, with the regime it was solved in."""

    x: tuple[Fraction, ...]
    alpha: Fraction
    k: int
    n: int

    @property
    def within_classical_hypothesis(self) -> bool:
        """True when alpha > n*k (the stated hypothesis); alpha > k suffices."""
        return self.alpha > self.n * self.k


def _balance_rows(alpha: Fraction, images) -> list[dict]:
    """Sparse rows {j: coefficient} of alpha*v_t - sum_i v_{images[t][i]}."""
    rows = []
    for t, targets in enumerate(images):
        row = {t: alpha}
        for j in targets:
            row[j] = row.get(j, 0) - 1
        rows.append(row)
    return rows


def _action_rows(alpha: Fraction, actions: list[PermTypeMatrix]) -> list[dict]:
    # Row t of the system is alpha*x_t - sum_i x_{A_i(t)} = c_t, i.e. the
    # matrix acting on x is the transpose of the column-convention ones.
    return _balance_rows(alpha, zip(*(act.image for act in actions)))


def solve_weights(alpha, actions, c) -> ComponentWeights:
    """Exact weight vector solving sum_i x_{A_i(t)} - alpha*x_t + c_t = 0."""
    actions = list(actions)
    if not actions:
        raise ValidationError("need at least one action")
    alpha = Fraction(alpha)
    if alpha <= len(actions):
        raise ValidationError(f"alpha must exceed k (alpha={alpha}, k={len(actions)})")
    n = actions[0].n
    if any(a.n != n for a in actions):
        raise ValidationError("actions have mismatched sizes")
    c = [Fraction(v) for v in c]
    if len(c) != n:
        raise ValidationError("correction vector has wrong length")
    # Row t has alpha - f_t on the diagonal and k - f_t off it (f_t actions
    # fix t), so alpha > k makes it strictly diagonally dominant: never singular.
    x = solve_exact(_action_rows(alpha, actions), c)
    return ComponentWeights(tuple(x), alpha, len(actions), n)


@dataclass(frozen=True)
class ModelPoint:
    pid: int
    sigma: int                  # component index, 0-based
    images: tuple[int, ...]     # image point ids, one per action
    i_e: Fraction
    vf: Fraction


@dataclass(frozen=True)
class SyntheticModel:
    """Finite combinatorial model: actions, corrections, orbit with data.

    Structural invariants (forward closure and sigma-compatibility with the
    actions) are enforced on construction; the exact balance equation is
    deliberately left to verify_intersection_formula so that perturbed
    models can be represented and diagnosed.
    """

    n: int
    k: int
    alpha: Fraction
    actions: tuple[PermTypeMatrix, ...]
    c: tuple[Fraction, ...]
    points: tuple[ModelPoint, ...]
    seed: int | None = None

    def __post_init__(self):
        if self.alpha <= self.k:
            raise ValidationError("alpha must exceed k")
        if not self.points:
            raise ValidationError("a model needs at least one point")
        if self.seed is not None and type(self.seed) is not int:
            raise ValidationError(f"seed must be an integer, not {self.seed!r}")
        if len(self.actions) != self.k or len(self.c) != self.n:
            raise ValidationError("inconsistent action/correction data")
        ids = {pt.pid for pt in self.points}
        if len(ids) != len(self.points):
            raise ValidationError("duplicate point ids")
        by_id = {pt.pid: pt for pt in self.points}
        for pt in self.points:
            if not 0 <= pt.sigma < self.n:
                raise ValidationError(f"point {pt.pid}: component out of range")
            if len(pt.images) != self.k:
                raise ValidationError(f"point {pt.pid}: needs one image per map")
            for i, qid in enumerate(pt.images):
                if qid not in by_id:
                    raise ValidationError(f"point {pt.pid}: image {qid} missing (not forward-closed)")
                if by_id[qid].sigma != self.actions[i].image[pt.sigma]:
                    raise ValidationError(
                        f"point {pt.pid}: image component disagrees with action {i}"
                    )

    def with_perturbed_intersection(self, pid: int, delta: Fraction) -> "SyntheticModel":
        pts = tuple(
            replace(pt, i_e=pt.i_e + delta) if pt.pid == pid else pt for pt in self.points
        )
        return replace(self, points=pts)


def build_synthetic(
    n: int,
    k: int,
    alpha,
    actions,
    c,
    orbit: list[tuple[int, tuple[int, ...], Fraction]],
    seed: int | None = None,
) -> SyntheticModel:
    """Assemble a model from an explicit orbit shape.

    orbit entries are (sigma, images, vf) per point, ids being list
    positions.  The local-height values lambda(P) are solved exactly from
    alpha*lambda(P) = sum_i lambda(phi_i P) - vf(P) (the matrix is strictly
    diagonally dominant since alpha > k), the weights x from the component
    equations, and iE(P) := lambda(P) - x_sigma(P), which makes the balance
    equation hold exactly by construction.
    """
    alpha = Fraction(alpha)
    actions = tuple(actions)
    c = tuple(Fraction(v) for v in c)
    rows = _balance_rows(alpha, (images for _sigma, images, _vf in orbit))
    lam = solve_exact(rows, [-Fraction(vf) for _sigma, _images, vf in orbit])
    if lam is None:
        raise ValidationError("orbit system is singular (alpha must exceed k)")
    weights = solve_weights(alpha, actions, c)
    points = tuple(
        ModelPoint(
            pid=pid,
            sigma=sigma,
            images=tuple(images),
            i_e=lam[pid] - weights.x[sigma],
            vf=Fraction(vf),
        )
        for pid, (sigma, images, vf) in enumerate(orbit)
    )
    return SyntheticModel(n=n, k=k, alpha=alpha, actions=actions, c=c, points=points, seed=seed)


def random_synthetic(
    seed: int, max_components: int = 6, max_maps: int = 3, max_points: int = 40
) -> SyntheticModel:
    """Seeded random model; deterministic for a given seed."""
    if min(max_components, max_maps, max_points) < 1:
        raise ValidationError("max_components, max_maps and max_points must be at least 1")
    rng = Lcg64(seed)
    n = rng.randint(1, max_components)
    if max_points < n:
        raise ValidationError(f"max_points {max_points} is below the {n} components drawn")
    k = rng.randint(1, max_maps)
    # Mix the two solvability regimes: alpha in (k, nk] about half the time.
    if n > 1 and rng.below(2):
        alpha = Fraction(k) + Fraction(rng.randint(1, max(1, (n - 1) * k * 2)), 2)
    else:
        alpha = Fraction(n * k + rng.randint(1, 4))
    actions = tuple(
        PermTypeMatrix(n, tuple(rng.below(n) for _ in range(n))) for _ in range(k)
    )
    c = tuple(rng.small_fraction() for _ in range(n))
    count = rng.randint(n, max_points)
    sigmas = [j % n for j in range(n)] + [rng.below(n) for _ in range(count - n)]
    by_component: dict[int, list[int]] = {}
    for pid, s in enumerate(sigmas):
        by_component.setdefault(s, []).append(pid)
    orbit = []
    for pid in range(count):
        images = tuple(
            rng.choice(by_component[act.image[sigmas[pid]]]) for act in actions
        )
        orbit.append((sigmas[pid], images, rng.small_fraction()))
    return build_synthetic(n, k, alpha, actions, c, orbit, seed=seed)


@dataclass
class VerificationReport:
    ok: bool
    weights_residual: Fraction
    balance_residual: Fraction
    failures: list[tuple[int, Fraction]]
    uniqueness_error: float
    uniqueness_bound: float

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"{status}: weights residual {self.weights_residual},"
            f" balance residual {self.balance_residual},"
            f" fixed-point error {self.uniqueness_error:.3e}"
            f" (bound {self.uniqueness_bound:.3e})"
        ]
        for pid, res in self.failures:
            lines.append(f"  balance fails at point {pid}: residual {res}")
        return "\n".join(lines)


CONTRACTION_STEPS = 60   # averaging iterations in verify_intersection_formula's check (c)


def verify_intersection_formula(model: SyntheticModel) -> VerificationReport:
    """Independent replay of the intersection-number representation.

    (a) re-solves the component weights and checks the defining equations
    exactly; (b) checks that Lambda(P) = iE(P) + x_sigma(P) satisfies the
    balance sum_i Lambda(phi_i P) = alpha*Lambda(P) + vf(P) exactly at every
    point; (c) iterates the averaging operator from the zero function and
    checks convergence to the same Lambda within the (k/alpha)^N geometric
    bound.  Any nonzero exact residual is reported with its point.
    """
    weights = solve_weights(model.alpha, model.actions, model.c)
    rows = _action_rows(weights.alpha, list(model.actions))
    w_res = Fraction(0)
    for row, c_t in zip(rows, model.c):
        lhs = sum((v * weights.x[j] for j, v in row.items()), Fraction(0))
        w_res = max(w_res, abs(lhs - c_t))

    by_id = {pt.pid: pt for pt in model.points}
    lam = {pt.pid: pt.i_e + weights.x[pt.sigma] for pt in model.points}
    failures: list[tuple[int, Fraction]] = []
    b_res = Fraction(0)
    for pt in model.points:
        res = (
            sum((lam[q] for q in pt.images), Fraction(0))
            - model.alpha * lam[pt.pid]
            - pt.vf
        )
        if res != 0:
            failures.append((pt.pid, res))
        b_res = max(b_res, abs(res))

    # Contraction uniqueness: iterate lambda <- (sum_i lambda(phi_i P) - vf)/alpha.
    alpha_f = float(model.alpha)
    steps = [(pid, pt.images, float(pt.vf)) for pid, pt in by_id.items()]
    cur = {pid: 0.0 for pid in by_id}
    for _step in range(CONTRACTION_STEPS):
        cur = {pid: (math.fsum(cur[q] for q in images) - vf) / alpha_f for pid, images, vf in steps}
    spread = max((abs(float(v)) for v in lam.values()), default=0.0)
    bound = (model.k / alpha_f) ** CONTRACTION_STEPS * spread + 1e-9
    uniq_err = max((abs(cur[pid] - float(lam[pid])) for pid in cur), default=0.0)
    ok = w_res == 0 and b_res == 0 and uniq_err <= bound
    return VerificationReport(ok, w_res, b_res, failures, uniq_err, bound)


# -- JSON round trip -----------------------------------------------------------------


def model_to_json(model: SyntheticModel) -> str:
    doc = {
        "n": model.n,
        "k": model.k,
        "alpha": str(model.alpha),
        "actions": [[v + 1 for v in act.image] for act in model.actions],
        "c": [str(v) for v in model.c],
        "points": [
            {
                "id": pt.pid,
                "sigma": pt.sigma + 1,
                "images": list(pt.images),
                "iE": str(pt.i_e),
                "vf": str(pt.vf),
            }
            for pt in model.points
        ],
    }
    if model.seed is not None:
        doc["seed"] = model.seed
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_int(v):
    """v if it is a JSON integer (not a bool), else a ValueError."""
    if type(v) is not int:
        raise ValueError(f"integer expected, not {v!r}")
    return v


def model_from_json(text: str) -> SyntheticModel:
    try:
        doc = json.loads(text)
        n = _json_int(doc["n"])
        actions = tuple(
            PermTypeMatrix(n, tuple(_json_int(v) - 1 for v in img)) for img in doc["actions"]
        )
        points = tuple(
            ModelPoint(
                pid=_json_int(p["id"]),
                sigma=_json_int(p["sigma"]) - 1,
                images=tuple(_json_int(q) for q in p["images"]),
                i_e=Fraction(p["iE"]),
                vf=Fraction(p["vf"]),
            )
            for p in doc["points"]
        )
        return SyntheticModel(
            n=n,
            k=_json_int(doc["k"]),
            alpha=Fraction(doc["alpha"]),
            actions=actions,
            c=tuple(Fraction(v) for v in doc["c"]),
            points=points,
            seed=_json_int(doc["seed"]) if "seed" in doc else None,
        )
    except (KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad model file: {exc}") from exc
