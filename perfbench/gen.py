"""Seeded benchmark inputs, generated with numpy alone.

The inputs never go through the package's own sampler or CSV writer, so a
change to the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import numpy as np

# Per workload: column arities and row count, full size and smoke size.
SIZES = {
    "wide-qnml": {"full": ((2,) * 12, 1000), "smoke": ((2,) * 6, 200)},
    "tall-fnml": {"full": (tuple((2, 3, 4)[i % 3] for i in range(8)), 25_000),
                  "smoke": ((2, 3, 4, 2), 2000)},
}
MAX_PARENTS = 2
CPT_ALPHA = 0.5
MAX_DRAWS = 100
# The generating network is the same for every run of a workload, so that
# every run does the same amount of work; --seed draws the rows.
NETWORK_SEED = 1


def random_network(rng: np.random.Generator, arities):
    """Random DAG with at most MAX_PARENTS parents per node and
    Dirichlet(CPT_ALPHA) rows; returns (order, parents, cpts)."""
    n = len(arities)
    order = rng.permutation(n)
    parents, cpts = [()] * n, [None] * n
    for k, v in enumerate(order):
        n_par = int(rng.integers(0, min(MAX_PARENTS, k) + 1))
        pa = tuple(sorted(int(p) for p in rng.choice(order[:k], n_par,
                                                     replace=False)))
        q = int(np.prod([arities[p] for p in pa], dtype=np.int64))
        parents[v] = pa
        cpts[v] = rng.dirichlet(np.full(arities[v], CPT_ALPHA), size=q)
    return order, parents, cpts


def sample_rows(rng: np.random.Generator, arities, order, parents, cpts,
                n_rows: int) -> np.ndarray:
    """Ancestral sampling into an n_rows x n matrix of category indices."""
    rows = np.zeros((n_rows, len(arities)), dtype=np.int64)
    for v in order:
        j = np.zeros(n_rows, dtype=np.int64)
        for p in parents[v]:
            j = j * arities[p] + rows[:, p]
        cum = np.cumsum(cpts[v], axis=1)[j]
        u = rng.random(n_rows)[:, None]
        rows[:, v] = np.minimum((u >= cum).sum(axis=1), arities[v] - 1)
    return rows


def make_learn_input(workload: str, seed: int, smoke: bool = False):
    """(names, arities, rows) for a learn workload: rows drawn by seed from
    the workload's fixed random network.

    Rows are redrawn from the same stream until every category of every
    column is observed, so the loader always sees the declared arities.
    """
    arities, n_rows = SIZES[workload]["smoke" if smoke else "full"]
    net = random_network(np.random.default_rng(NETWORK_SEED), arities)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        rows = sample_rows(rng, arities, *net, n_rows)
        if all(len(np.unique(rows[:, j])) == r for j, r in enumerate(arities)):
            names = tuple(f"V{j:02d}" for j in range(len(arities)))
            return names, arities, rows
    raise RuntimeError(f"seed {seed}: no draw observed every category")


def permute_csv(src: str, seed: int) -> str:
    """The text of a CSV file with its data rows shuffled by seed."""
    with open(src, newline="") as fh:
        header, *body = fh.read().splitlines()
    perm = np.random.default_rng(seed).permutation(len(body))
    return "\n".join([header] + [body[i] for i in perm]) + "\n"


def write_csv(path: str, names, rows: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, rows, fmt="%d", delimiter=",")
