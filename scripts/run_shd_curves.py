#!/usr/bin/env python3
"""Structure-recovery curves: mean SHD to the truth versus sample size.

Runs every criterion on datasets sampled from the bundled networks (or any
network files passed on the command line) and writes one CSV suitable for
plotting mean SHD against N.
"""

import argparse
from dataclasses import replace

from bnsl.bench import default_spec, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("networks", nargs="*",
                    help="network JSON files (default: bundled networks)")
    ap.add_argument("--out", default="results/shd-curve",
                    help="output directory (default: %(default)s)")
    ap.add_argument("--sizes", type=int, nargs="+",
                    help="sample sizes (default: 10 100 1000 10000)")
    ap.add_argument("--reps", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = default_spec("shd-curve")
    spec = replace(spec, repetitions=args.reps, seed=args.seed)
    if args.networks:
        spec = replace(spec, networks=tuple(args.networks))
    if args.sizes:
        spec = replace(spec, sample_sizes=tuple(args.sizes))
    manifest = run_experiment(spec, args.out)
    print(f"{manifest['rows']} rows in {manifest['wallTimeSeconds']}s "
          f"-> {args.out}/shd-curve.csv")


if __name__ == "__main__":
    main()
