"""Parameterized networks: CPT estimation, sampling, prediction and file I/O.

A network file is JSON with three fields:

  variables: ordered list of {"name": str, "arity": int}
  parents:   mapping from variable name to its list of parent names
  cpts:      optional mapping from variable name to a q x r matrix of
             probabilities, one row per parent configuration in the
             mixed-radix order used everywhere else (ascending parent
             index, last parent fastest)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, config_index, config_indices, contingency
from .errors import DataError, integer
from .structure import DagStructure, topological_order

CPT_ROW_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BayesianNetwork:
    """Structure plus one conditional probability table per variable."""

    structure: DagStructure
    arities: tuple[int, ...]
    cpts: tuple[np.ndarray, ...]

    def __post_init__(self):
        arities = tuple(integer(a, "an arity") for a in self.arities)
        object.__setattr__(self, "arities", arities)
        g = self.structure
        if len(arities) != g.n or len(self.cpts) != g.n:
            raise DataError("arities and cpts must cover every variable")
        if any(a < 1 for a in arities):
            raise DataError("arities must be at least 1")
        cpts = []
        for i in range(g.n):
            q = 1
            for p in g.parents[i]:
                q *= arities[p]
            cpt = np.ascontiguousarray(np.asarray(self.cpts[i], dtype=np.float64))
            if cpt.shape != (q, arities[i]):
                raise DataError(
                    f"cpt of variable {i} must be {q} x {arities[i]}, "
                    f"got {cpt.shape}")
            if (cpt < 0).any():
                raise DataError(f"cpt of variable {i} has negative entries")
            if not (np.abs(cpt.sum(axis=1) - 1.0) <= CPT_ROW_TOL).all():
                raise DataError(f"cpt rows of variable {i} must sum to 1")
            cpt.setflags(write=False)
            cpts.append(cpt)
        object.__setattr__(self, "cpts", tuple(cpts))

    @property
    def n_vars(self) -> int:
        return self.structure.n


def rule_cpts(counts: np.ndarray, rule: str) -> np.ndarray:
    """CPTs of the rule "ml", "snml" or "bpp" from counts of shape
    (..., q, r): cell weights, each row normalized, rows with no mass
    uniform."""
    w = counts.astype(np.float64)
    if rule == "snml":  # e(N) (N + 1) with e(0) = 1, e(m) = ((m+1)/m)^m
        base = np.where(w == 0.0, 1.0, (w + 1.0) / np.where(w == 0.0, 1.0, w))
        w = np.power(base, w) * (w + 1.0)
    elif rule == "bpp":  # a Dirichlet prior of 1/(q r) per cell
        w += 1 / (w.shape[-2] * w.shape[-1])
    totals = w.sum(axis=-1, keepdims=True)
    safe = np.where(totals > 0.0, totals, 1.0)
    return np.where(totals > 0.0, w / safe, 1.0 / w.shape[-1])


def _fit(data: Dataset, g: DagStructure, rule: str) -> BayesianNetwork:
    if data.n_vars != g.n:
        raise DataError("dataset and graph variable counts differ")
    cpts = tuple(rule_cpts(contingency(data, i, g.parents[i]), rule)
                 for i in range(g.n))
    return BayesianNetwork(g, data.arities, cpts)


def fit_ml(data: Dataset, g: DagStructure) -> BayesianNetwork:
    """Maximum-likelihood CPTs; unobserved parent rows become uniform."""
    return _fit(data, g, "ml")


def fit_snml(data: Dataset, g: DagStructure) -> BayesianNetwork:
    """Sequential NML predictive CPTs.

    Each cell gets weight e(N_jk) (N_jk + 1) with e(0) = 1 and
    e(m) = ((m+1)/m)^m, then rows are normalized. Strictly positive.
    """
    return _fit(data, g, "snml")


def fit_bpp(data: Dataset, g: DagStructure) -> BayesianNetwork:
    """Bayesian predictive CPTs under a Dirichlet prior of 1/(q r) per cell
    of each family, q parent configurations by r child values."""
    return _fit(data, g, "bpp")


def log_predict(net: BayesianNetwork, row) -> float:
    """ln probability of one complete row under the network.

    Returns -inf when a zero-probability cell is hit, which only ML
    parameters can produce.
    """
    row = np.asarray(row, dtype=np.int64)
    g = net.structure
    if row.shape != (g.n,):
        raise DataError(f"row must have {g.n} values")
    if (row < 0).any() or (row >= np.asarray(net.arities)).any():
        raise DataError("row value out of range for its arity")
    out = 0.0
    for i in range(g.n):
        j = config_index(row, g.parents[i], net.arities)
        p = net.cpts[i][j, row[i]]
        out += math.log(p) if p > 0.0 else -math.inf
    return out


def log_predict_rows(net: BayesianNetwork, data: Dataset) -> np.ndarray:
    """Vectorized log_predict over every row of a compatible dataset."""
    _check_compatible(net, data)
    out = np.zeros(data.n_rows, dtype=np.float64)
    g = net.structure
    for i in range(g.n):
        j = config_indices(data.rows, g.parents[i], net.arities)
        p = net.cpts[i][j, data.rows[:, i]]
        with np.errstate(divide="ignore"):
            out += np.log(p)
    return out


def mean_test_loglik(net: BayesianNetwork, test: Dataset) -> float:
    """Average per-row log probability of a held-out dataset."""
    if test.n_rows == 0:
        raise DataError("test set must not be empty")
    return float(np.mean(log_predict_rows(net, test)))


def _check_compatible(net: BayesianNetwork, data: Dataset) -> None:
    if data.n_vars != net.structure.n:
        raise DataError("dataset and network variable counts differ")
    for i, (a_data, a_net) in enumerate(zip(data.arities, net.arities)):
        if a_data > a_net:
            raise DataError(
                f"column {i} has arity {a_data}, network allows {a_net}")


def sample(net: BayesianNetwork, n_rows: int, seed: int) -> Dataset:
    """Ancestral sampling of n_rows complete rows.

    Deterministic for a given seed: a PCG64 generator draws one uniform per
    (variable, row), variable-major in topological order (ties broken by
    node index), and each value is read off the row's CPT by inverse CDF.
    """
    n_rows = integer(n_rows, "sample size")
    seed = integer(seed, "seed")
    if n_rows < 0:
        raise DataError("sample size must be nonnegative")
    if seed < 0:
        raise DataError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    g = net.structure
    rows = np.zeros((n_rows, g.n), dtype=np.int64)
    for i in topological_order(g):
        u = rng.random(n_rows)
        j = config_indices(rows, g.parents[i], net.arities)
        cdf = np.cumsum(net.cpts[i], axis=1)
        # the cdf never decreases, so counting the first r - 1 columns that
        # u reaches is the inverse-CDF value, capped at r - 1
        values = np.zeros(n_rows, dtype=np.int64)
        for k in range(net.arities[i] - 1):
            values += u >= cdf[:, k].take(j)
        rows[:, i] = values
    names = g.names if g.names is not None else tuple(
        f"X{k + 1}" for k in range(g.n))
    return Dataset(names, net.arities, rows)


def save_network(path, g: DagStructure, arities, cpts=None) -> None:
    """Write a network file; cpts may be omitted for a structure-only file."""
    arities = tuple(integer(a, "an arity") for a in arities)
    if len(arities) != g.n:
        raise DataError("arities length must equal the node count")
    if any(a < 1 for a in arities):
        raise DataError("arities must be at least 1")
    names = g.names if g.names is not None else tuple(
        f"X{k + 1}" for k in range(g.n))
    doc = {
        "variables": [{"name": nm, "arity": a} for nm, a in zip(names, arities)],
        "parents": {names[i]: [names[p] for p in g.parents[i]]
                    for i in range(g.n)},
    }
    if cpts is not None:
        doc["cpts"] = {names[i]: np.asarray(cpts[i]).tolist()
                       for i in range(g.n)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _parse_network(path):
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: invalid JSON ({e})") from None
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
    try:
        variables = doc["variables"]
        parents_by_name = doc["parents"]
    except (KeyError, TypeError):
        raise DataError(f"{path}: network file needs 'variables' and "
                        f"'parents' fields") from None
    if not isinstance(variables, list) or not isinstance(parents_by_name, dict):
        raise DataError(f"{path}: 'variables' must be a list and 'parents' "
                        f"an object")
    names = []
    arities = []
    for entry in variables:
        try:
            names.append(str(entry["name"]))
            arity = entry["arity"]
        except (KeyError, TypeError):
            raise DataError(f"{path}: each variable needs a name and an "
                            f"arity") from None
        if isinstance(arity, bool) or not isinstance(arity, int):
            raise DataError(f"{path}: arity of {names[-1]} must be an integer")
        arities.append(arity)
    if len(set(names)) != len(names):
        raise DataError(f"{path}: duplicate variable names")
    index = {nm: i for i, nm in enumerate(names)}
    parent_tuples = []
    for nm in names:
        if nm not in parents_by_name:
            raise DataError(f"{path}: no parent entry for variable {nm}")
        ps = parents_by_name[nm]
        if not (isinstance(ps, list)
                and all(isinstance(p, str) and p in index for p in ps)):
            raise DataError(f"{path}: parents of {nm} must be a list of "
                            f"variable names, got {ps!r}")
        parent_tuples.append(tuple(sorted(index[p] for p in ps)))
    g = DagStructure(len(names), tuple(parent_tuples), tuple(names))
    cpts = None
    if "cpts" in doc:
        cpts = []
        for nm in names:
            try:
                cpts.append(np.asarray(doc["cpts"][nm], dtype=np.float64))
            except (KeyError, TypeError, ValueError):
                raise DataError(f"{path}: cpts present but no matrix of "
                                f"numbers for {nm}") from None
    return g, tuple(arities), cpts


def load_structure(path) -> tuple[DagStructure, tuple[int, ...]]:
    """Read a network file, ignoring any CPTs it carries."""
    g, arities, _ = _parse_network(path)
    return g, arities


def load_network(path) -> BayesianNetwork:
    """Read a network file that must carry CPTs."""
    g, arities, cpts = _parse_network(path)
    if cpts is None:
        raise DataError(f"{path}: network file has no cpts")
    return BayesianNetwork(g, arities, tuple(cpts))
