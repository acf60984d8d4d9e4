#!/usr/bin/env python3
"""Height-difference sweep for the family x^2 + t.

Sweeps t over +-1..+-50, measures D(t) = |h^_t(0) - h(0)| against the base
height, fits the affine envelope D <= c1*h_T + c2 on half the rows and
validates it on the other half.  Writes the table as CSV.
"""

import argparse
import sys

from dynheight import GreenConfig, Morphism, ParamSystem, Section, rows_to_csv, variation_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tmax", type=int, default=50)
    ap.add_argument("--eps", type=float, default=1e-9)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    family = ParamSystem.build(
        [Morphism.from_strings(["X0^2+t*X1^2", "X1^2"], dim=1)]
    )
    section = Section.from_strings(["0", "1"])
    samples = [t for a in range(1, args.tmax + 1) for t in (a, -a)]
    cfg = GreenConfig(depth=40, mode="adaptive", target_eps=args.eps)
    sweep = variation_sweep(family, [section], samples, cfg)

    csv_text = rows_to_csv(sweep.rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    print(
        f"# rows={len(sweep.rows)} c1={sweep.c1:.6f} c2={sweep.c2:.6f} "
        f"holdout_violations={len(sweep.violations)}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
