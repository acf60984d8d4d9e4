"""Reference values for the benchmark's output checks, computed apart from dynheight.

Nothing here imports dynheight.  The systems are written out again as
coefficient tables, and every value comes from a closed form or from exact
big-integer word iteration:

* Chebyshev pair {T2, T3}: h^([a:b]) = ln|b| + ln((|x| + sqrt(x^2 - 4)) / 2)
  for x = a/b with |x| > 2, and ln|b| otherwise.
* Monomial pair {x^2, x^3}: h^ is the naive height.
* (X0^2, t*X1^2) at an integer t: lambda^_{t,v}([a:b]) =
  max(log|a|_v, log|t|_v + log|b|_v) - log|b|_v, and summed over all places
  h^([a:b]) = max(ln|a|, ln|t| + ln|b|) - ln gcd(a, t).
* x^2 + t at an integer t: the lift has resultant 1, so h^([0:1]) is the
  escape rate lim 2^-n ln max(|z_n|, 1) of z_0 = 0, z_{n+1} = z_n^2 + t,
  taken on exact integers.  The function-field height of the section [0:1]
  is exactly 1/2.
* Any system on P^1: at a prime p, the word sum G^(m)_p(x) = alpha^-m
  sum_{|w|=m} ln||F_w(x)||_p over unnormalised integer lifts, an exact
  rational times ln p; over all places together, the word sum of naive
  heights alpha^-m sum_{|w|=m} h(F_w(x)).
* Fibral models: the balance residual
  sum_i iE(phi_i P) - alpha*iE(P) - vf(P) - c_sigma(P) and the weight
  residual sum_i x_{A_i(j)} - alpha*x_j + c_j, both in Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

# A binary form is a tuple of (coefficient, e0, e1) terms; a map is a pair of
# forms of one degree; a system is a tuple of maps.
CHEBYSHEV = (
    (((1, 2, 0), (-2, 0, 2)), ((1, 0, 2),)),
    (((1, 3, 0), (-3, 1, 2)), ((1, 0, 3),)),
)
MONOMIAL = (
    (((1, 2, 0),), ((1, 0, 2),)),
    (((1, 3, 0),), ((1, 0, 3),)),
)
S_BAD = (
    (((1, 2, 0),), ((2, 0, 2),)),
    (((1, 3, 0), (1, 0, 3)), ((3, 0, 3),)),
)

# Relative allowance for the reference's own float rounding (a few ulps of a
# sum of logs); exact references use none.
REF_ROUNDING = 1e-12


def degree(map_) -> int:
    _c, e0, e1 = map_[0][0]
    return e0 + e1


def weight(system) -> int:
    return sum(degree(m) for m in system)


def contraction(system) -> float:
    return len(system) / weight(system)


def ln_abs(n: int) -> float:
    return math.log(abs(n))


def ord_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    n = abs(n)
    if n == 0:
        raise ValueError("valuation of zero")
    if p == 2:
        return (n & -n).bit_length() - 1
    e = 0
    while n % p == 0:
        # strip the largest p^(2^j) that divides n, so long runs cost O(log e) divisions
        q, k = p, 1
        while n % (q * q) == 0:
            q, k = q * q, 2 * k
        n, e = n // q, e + k
    return e


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases: exact below 3.1e23."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for c in v:
        g = math.gcd(g, c)
    if g == 0:
        raise ValueError("zero vector")
    out = tuple(c // g for c in v)
    first = next(c for c in out if c)
    return out if first > 0 else tuple(-c for c in out)


def naive_height(v: tuple[int, ...]) -> float:
    return math.log(max(abs(c) for c in primitive(v)))


# -- closed forms ------------------------------------------------------------------


def chebyshev_height(a: int, b: int) -> float:
    a, b = primitive((a, b))
    if b == 0:
        return 0.0
    x = abs(Fraction(a, b))
    base = ln_abs(b)
    if x <= 2:
        return base
    xf = float(x)
    return base + math.log((xf + math.sqrt(xf * xf - 4.0)) / 2.0)


def monomial_height(a: int, b: int) -> float:
    return naive_height((a, b))


def log_abs(n: int, place: int | None) -> float:
    """log|n|_v for a nonzero integer; place None is the archimedean one."""
    if place is None:
        return ln_abs(n)
    return -ord_p(n, place) * math.log(place)


def ty2_local(t: int, a: int, b: int, place: int | None) -> float:
    """lambda^_{t,v}([a:b]) against {X1 = 0} for the lift (X0^2, t*X1^2)."""
    ta = log_abs(a, place) if a else -math.inf
    return max(ta, log_abs(t, place) + log_abs(b, place)) - log_abs(b, place)


def hyperplane_local(a: int, b: int, place: int | None) -> float:
    """Standard local height max(log|a|_v, log|b|_v) - log|b|_v."""
    ta = log_abs(a, place) if a else -math.inf
    return max(ta, log_abs(b, place)) - log_abs(b, place)


def ty2_boundary(t: int, place: int | None) -> float:
    """Local height of t against R(t) = t^2, the t-resultant of (X0^2, t*X1^2)."""
    if place is None:
        return 0.0
    return 2 * ord_p(t, place) * math.log(place)


def ty2_height(t: int, a: int, b: int) -> float:
    a, b = primitive((a, b))
    ta = ln_abs(a) if a else -math.inf
    return max(ta, ln_abs(t) + ln_abs(b)) - math.log(math.gcd(a, t))


def x2plust_height(t: int) -> float:
    """h^([0:1]) for x^2 + t at an integer t, from the exact integer orbit.

    Once |z_n| > 10^60 >> |t|, every later step changes 2^-n ln|z_n| by less
    than 2^-n |t| / z_n^2, far below double precision.
    """
    z, n, seen = 0, 0, set()
    while abs(z) <= 10**60:
        if z in seen:
            return 0.0  # preperiodic orbit
        seen.add(z)
        z, n = z * z + t, n + 1
    return math.ldexp(ln_abs(z), -n)


X2PLUST_SECTION_FF_HEIGHT = Fraction(1, 2)


# -- word sums on P^1 ------------------------------------------------------------------


def eval_form(form, x: int, y: int) -> int:
    return sum(c * x**e0 * y**e1 for c, e0, e1 in form)


def apply_map(map_, v: tuple[int, int]) -> tuple[int, int]:
    return (eval_form(map_[0], *v), eval_form(map_[1], *v))


def word_lifts(system, v: tuple[int, int], m: int) -> list[tuple[int, int]]:
    """F_w(v) for all k^m words w, on unnormalised integer lifts."""
    level = [tuple(v)]
    for _ in range(m):
        level = [apply_map(f, w) for w in level for f in system]
    return level


def green_padic_exact(system, v: tuple[int, int], p: int, m: int) -> Fraction:
    """G^(m)_p(v) / ln p as an exact rational."""
    total = sum(-min(ord_p(c, p) for c in w if c) for w in word_lifts(system, v, m))
    return Fraction(total, weight(system) ** m)


def sylvester_resultant(map_) -> int:
    d = degree(map_)
    rows = []
    for form in map_:
        coeffs = [0] * (d + 1)
        for c, e0, _e1 in form:
            coeffs[d - e0] += c
        rows.append(coeffs)
    size = 2 * d
    mat = []
    for coeffs in rows:
        for i in range(d):
            row = [Fraction(0)] * size
            for j, c in enumerate(coeffs):
                row[i + j] = Fraction(c)
            mat.append(row)
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if mat[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, size):
            f = mat[r][col] / mat[col][col]
            if f:
                for j in range(col, size):
                    mat[r][j] -= f * mat[col][j]
    return int(det)


def padic_tail(system, p: int, m: int) -> float:
    """Certified |G_p - G^(m)_p| <= (sum_i ord_p Res_i / alpha) ln p r^m / (1 - r)."""
    r = contraction(system)
    res = sum(ord_p(sylvester_resultant(f), p) for f in system)
    return res / weight(system) * math.log(p) * r**m / (1.0 - r)


def word_height_sum(system, v: tuple[int, int], m: int) -> tuple[float, float]:
    """alpha^-m sum_{|w|=m} h(F_w(v)) and its monitored tail.

    By the product formula this is the sum over all places of G^(m)_v on a
    primitive lift.  The tail is (k/alpha)^m * c / (alpha - k) with c the
    largest |sum_i h(F_i y) - alpha h(y)| seen over the visited nodes.
    """
    k, alpha = len(system), weight(system)
    level = {primitive(v): 1}
    c = 0.0
    heights: dict[tuple[int, int], float] = {}

    def h(y):
        if y not in heights:
            heights[y] = math.log(max(abs(q) for q in y))
        return heights[y]

    for _ in range(m):
        nxt: dict[tuple[int, int], int] = {}
        for y, mult in level.items():
            kids = [primitive(apply_map(f, y)) for f in system]
            c = max(c, abs(math.fsum(h(q) for q in kids) - alpha * h(y)))
            for q in kids:
                nxt[q] = nxt.get(q, 0) + mult
        level = nxt
    value = math.fsum(mult * h(y) for y, mult in level.items()) / alpha**m
    return value, (k / alpha) ** m * c / (alpha - k)


# -- fibral models ---------------------------------------------------------------------


def balance_residuals(model_doc: dict) -> dict[int, Fraction]:
    """Nonzero balance residuals per point id, from a model's JSON document."""
    alpha = Fraction(model_doc["alpha"])
    c = [Fraction(v) for v in model_doc["c"]]
    i_e = {int(p["id"]): Fraction(p["iE"]) for p in model_doc["points"]}
    out = {}
    for p in model_doc["points"]:
        pid = int(p["id"])
        res = (
            sum((i_e[int(q)] for q in p["images"]), Fraction(0))
            - alpha * i_e[pid]
            - Fraction(p["vf"])
            - c[int(p["sigma"]) - 1]
        )
        if res:
            out[pid] = res
    return out


def weight_residual(model_doc: dict, x) -> Fraction:
    """Largest |sum_i x_{A_i(j)} - alpha*x_j + c_j| over the components."""
    alpha = Fraction(model_doc["alpha"])
    c = [Fraction(v) for v in model_doc["c"]]
    worst = Fraction(0)
    for j in range(int(model_doc["n"])):
        lhs = sum((Fraction(x[img[j] - 1]) for img in model_doc["actions"]), Fraction(0))
        worst = max(worst, abs(lhs - alpha * Fraction(x[j]) + c[j]))
    return worst


def within(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol + REF_ROUNDING * (1.0 + abs(ref))
