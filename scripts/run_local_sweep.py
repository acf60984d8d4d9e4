#!/usr/bin/env python3
"""Local-height comparison for the family (X^2, t*Y^2) at finite places.

At p = 2 with t = 2, 4, 8, 16 the difference between the canonical and the
standard hyperplane local height stays within one multiple of the boundary
local height of the parameter; at a good place (p = 7, odd t) the
differences vanish.
"""

import sys

from dynheight import GreenConfig, Morphism, ParamSystem, Place, Section, local_variation_sweep, rows_to_csv


def main():
    family = ParamSystem.build(
        [Morphism.from_strings(["X0^2", "t*X1^2"], dim=1)]
    )
    section = Section.from_strings(["1", "1"])
    cfg = GreenConfig(depth=25)

    for place, samples in ((Place.prime(2), [2, 4, 8, 16]), (Place.prime(7), [1, 3, 5, 9])):
        result = local_variation_sweep(family, section, 1, place, samples, cfg)
        print(f"# place {place}: empirical_c={result.empirical_c:.6f}", file=sys.stderr)
        sys.stdout.write(rows_to_csv(result.rows))


if __name__ == "__main__":
    main()
