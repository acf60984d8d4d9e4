#!/usr/bin/env python3
"""Equality of canonical metrics and heights for commuting systems.

Compares {x^2, x^3} against {x^6} and the Chebyshev pair {T2, T3} against
T6 = T2 of T3: Green functions at the archimedean place and canonical
heights agree to the tails on seeded samples.
"""

import argparse
import math

from dynheight import (
    GreenConfig,
    Morphism,
    canonical_height,
    height_equality_report,
    metric_equality_report,
    normalize,
    parse_point,
    validate_system,
)
from dynheight.exactnum import INFINITY
from dynheight.rng import Lcg64


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=20)
    args = ap.parse_args()

    def mk(*polys):
        return Morphism.from_strings(polys, dim=1)

    monomial = validate_system([mk("X0^2", "X1^2"), mk("X0^3", "X1^3")])
    x6 = validate_system([mk("X0^6", "X1^6")])
    t2 = mk("X0^2-2*X1^2", "X1^2")
    t3 = mk("X0^3-3*X0*X1^2", "X1^3")
    cheb = validate_system([t2, t3])
    cheb6 = validate_system([t2.compose(t3)])

    rng = Lcg64(args.seed)
    lifts = []
    while len(lifts) < args.samples:
        coords = (rng.randint(-50, 50), rng.randint(-50, 50))
        if any(coords):
            lifts.append(coords)
    points = [normalize(c) for c in lifts]
    cfg = GreenConfig(depth=20)

    print(f"# seed={args.seed} samples={args.samples}")
    for name, left, right in (("monomials-vs-x6", monomial, x6), ("chebyshev-vs-T6", cheb, cheb6)):
        g = metric_equality_report(left, right, lifts, INFINITY, cfg)
        h = height_equality_report(left, right, points, cfg)
        print(f"{name}: max green diff {g:.3e}, max height diff {h:.3e}")

    anchor = canonical_height(cheb, parse_point("3:1"), cfg).value
    closed = math.log((3 + math.sqrt(5)) / 2)
    print(f"chebyshev height of [3:1]: {anchor:.8f} (closed form {closed:.8f})")


if __name__ == "__main__":
    main()
