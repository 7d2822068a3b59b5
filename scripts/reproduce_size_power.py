#!/usr/bin/env python3
"""Replicate the size and power study for both tests.

Sweeps c3 over [-2, 2] (the null of no effect sits at c3 = -2, where the
treated and control curves coincide; the constancy null holds there too)
and reports the rejection rate of the global and constancy tests at each
point. Desk scale by default; --full-scale raises replications and
resamples. Censoring means are solved from the population censoring rate
for the 40% target, once for the control arm, whose failure times do not
depend on c3, and at each c3 for the treated arm; no seed changes them.
"""

import argparse
import csv
import pathlib
import sys
import time

import numpy as np

import marktau as mt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--c3-min", type=float, default=-2.0)
    parser.add_argument("--c3-max", type=float, default=2.0)
    parser.add_argument("--step", type=float, default=0.25)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--resamples", type=int, default=500)
    parser.add_argument("--full-scale", action="store_true",
                        help="1000 replications with B=1000 resamples")
    parser.add_argument("--kinds", nargs="+", default=["global", "constancy"],
                        choices=["global", "constancy"])
    parser.add_argument("--seed", type=int, default=20260822)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    reps = 1000 if args.full_scale else args.reps
    resamples = 1000 if args.full_scale else args.resamples

    count = int(np.floor((args.c3_max - args.c3_min) / args.step + 1e-9)) + 1
    c3_values = np.round(args.c3_min + args.step * np.arange(count), 12)
    scenario = mt.Scenario(c1=3.0, c2=0.0, c3=c3_values[0], n=args.n,
                           reps=reps, seed=args.seed)

    rows = []
    for kind in args.kinds:
        start = time.perf_counter()
        curve = mt.size_power_curve(scenario, c3_values, kind,
                                    resamples=resamples, workers=args.threads)
        elapsed = time.perf_counter() - start
        print(f"{kind} test  n={args.n}  reps={reps}  B={resamples}  "
              f"[{elapsed:.1f}s]")
        for k, c3 in enumerate(curve.c3):
            print(f"  c3={c3:+.2f}  reject {curve.rate[k]:.3f} "
                  f"(se {curve.se[k]:.3f})")
            rows.append((kind, c3, curve.rate[k], curve.se[k],
                         curve.rejections[k], reps, args.n, resamples))
    if args.out is not None:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("kind", "c3", "rate", "se", "rejections",
                             "reps", "n", "resamples"))
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
