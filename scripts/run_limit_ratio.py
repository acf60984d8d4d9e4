#!/usr/bin/env python3
"""Specialization limit for the family x^2 + t at the section [0:1].

Tracks h^_t(0)/h_T(t) for t = 10, 10^2, ..., 10^6 and compares against the
function-field canonical height of the section (exactly 1/2), which the
ratios approach as the base height grows.
"""

import argparse
import sys

from dynheight import GreenConfig, Morphism, ParamSystem, Section, limit_ratio, rows_to_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-exponent", type=int, default=6)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    family = ParamSystem.build(
        [Morphism.from_strings(["X0^2+t*X1^2", "X1^2"], dim=1)]
    )
    section = Section.from_strings(["0", "1"])
    cfg = GreenConfig(depth=40, mode="adaptive", target_eps=1e-9)
    seq = [10**j for j in range(1, args.max_exponent + 1)]
    result = limit_ratio(family, section, seq, cfg, ff_depth=8)

    csv_text = rows_to_csv(result.rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    print(f"# ff_height={result.ff_value} (ratios converge to it)", file=sys.stderr)


if __name__ == "__main__":
    main()
