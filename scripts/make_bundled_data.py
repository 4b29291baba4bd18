#!/usr/bin/env python3
"""Regenerate the synthetic datasets bundled with the package.

The bundled files are committed; this script exists so they can be audited
and rebuilt from scratch. Each CSV is sampled from a network whose CPTs
live in its JSON file next to it; synth4 has no file and is declared here.
Seeds are fixed, so output is byte-identical.
"""

import argparse
import pathlib

import numpy as np

from bnsl.dataset import write_dataset
from bnsl.model import BayesianNetwork, load_network, sample
from bnsl.structure import DagStructure

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "src/bnsl/data"


def synth4() -> BayesianNetwork:
    # Generator for the small prediction benchmark; not bundled itself.
    g = DagStructure(4, ((), (0,), (1,), (1,)), tuple("ABCD"))
    cpts = (
        np.array([[0.4, 0.6]]),
        np.array([[0.8, 0.15, 0.05], [0.05, 0.2, 0.75]]),
        np.array([[0.85, 0.15], [0.3, 0.7], [0.05, 0.95]]),
        np.array([[0.8, 0.2], [0.45, 0.55], [0.15, 0.85]]),
    )
    return BayesianNetwork(g, (2, 3, 2, 2), cpts)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Regenerate the bundled CSV datasets.")
    parser.add_argument("out_dir", nargs="?", type=pathlib.Path,
                        default=DATA_DIR,
                        help="directory to write the CSV files to "
                             "(default: src/bnsl/data)")
    out_dir = parser.parse_args(argv).out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    datasets = {
        "synth4_n400.csv": (synth4(), 400, 20260504),
        "mixed6_n500.csv": (load_network(DATA_DIR / "mixed6.json"), 500,
                            20260502),
        "web8_n500.csv": (load_network(DATA_DIR / "web8.json"), 500, 20260503),
    }
    for name, (net, n, seed) in datasets.items():
        write_dataset(sample(net, n, seed=seed), out_dir / name)
        print("wrote", out_dir / name)


if __name__ == "__main__":
    main()
