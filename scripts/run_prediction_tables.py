#!/usr/bin/env python3
"""Held-out prediction ranks and learned-model sizes per train fraction.

For each dataset (bundled by default) and each train fraction, learns a
network per criterion on a random prefix, then reports mean held-out
log-likelihood with tied ranks and the mean parameter count of the chosen
models. Two experiment directories are written, one per table.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from bnsl.bench import default_spec, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("datasets", nargs="*",
                    help="dataset CSV files (default: bundled datasets)")
    ap.add_argument("--out", default="results",
                    help="parent output directory (default: %(default)s)")
    ap.add_argument("--fractions", type=float, nargs="+",
                    help="train fractions (default: 0.1 .. 0.9)")
    ap.add_argument("--reps", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for kind in ("predict-rank", "param-count"):
        spec = replace(default_spec(kind), repetitions=args.reps,
                       seed=args.seed)
        if args.datasets:
            spec = replace(spec, datasets=tuple(args.datasets))
        if args.fractions:
            spec = replace(spec, train_fractions=tuple(args.fractions))
        out = Path(args.out) / kind
        manifest = run_experiment(spec, out)
        print(f"{manifest['rows']} rows in {manifest['wallTimeSeconds']}s "
              f"-> {out}/{kind}.csv")


if __name__ == "__main__":
    main()
