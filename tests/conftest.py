"""Shared generators for the test suite.

Everything random is seeded through numpy Generators so failures
reproduce; hypothesis supplies its own shrinkable randomness where used.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import bnsl
from bnsl.dataset import Dataset
from bnsl.structure import DagStructure

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")


def child_env() -> dict:
    """The environment of a child interpreter that imports the bnsl this
    suite imports: PYTHONPATH starts with the directory that holds it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(Path(bnsl.__file__).resolve().parent.parent),
        env.get("PYTHONPATH"))))
    return env


def random_dataset(rng: np.random.Generator, n_vars: int, n_rows: int,
                   max_arity: int = 3) -> Dataset:
    arities = tuple(int(a) for a in rng.integers(2, max_arity + 1, n_vars))
    rows = np.stack([rng.integers(0, r, n_rows) for r in arities], axis=1) \
        if n_rows else np.zeros((0, n_vars), dtype=np.int64)
    names = tuple(f"X{i + 1}" for i in range(n_vars))
    return Dataset(names, arities, rows.astype(np.int64))


def random_dag(rng: np.random.Generator, n: int,
               max_parents: int | None = None,
               arc_prob: float = 0.4) -> DagStructure:
    # Sample a random variable order, then admit each earlier variable as
    # a parent with fixed probability; acyclic by construction.
    order = rng.permutation(n)
    parents = [[] for _ in range(n)]
    for pos, v in enumerate(order):
        candidates = [int(order[k]) for k in range(pos)]
        rng.shuffle(candidates)
        for u in candidates:
            if max_parents is not None and len(parents[v]) >= max_parents:
                break
            if rng.random() < arc_prob:
                parents[v].append(u)
    return DagStructure(n, tuple(tuple(sorted(ps)) for ps in parents))


def covered_arcs(g: DagStructure):
    out = []
    for b in range(g.n):
        for a in g.parents[b]:
            if set(g.parents[b]) == {a} | set(g.parents[a]):
                out.append((a, b))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
