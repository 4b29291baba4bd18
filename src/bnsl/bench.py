"""Experiment harness: regret tables, SHD curves, prediction ranks, model sizes.

Every experiment is a pure function of its spec, so reruns produce
byte-identical CSV files. Per-repetition randomness derives from the base
seed as ``seed + repetition_index``; nothing reads global RNG state.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import platform
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import Dataset, config_indices, distinct, load_dataset
from .errors import DataError, integer
from .learner import learn_datasets
from .model import fit_bpp, fit_ml, fit_snml, load_network, rule_cpts, sample
from .regret import regret_exact, regret_szp_all_range, regret_szp_small_r
from .scores import CRITERIA, ScoreConfig
from .structure import cpdag_shd, parameter_count, to_cpdag

DEFAULT_CRITERIA = ("bdeu", "bic", "fnml", "qnml")
DEFAULT_SAMPLE_SIZES = (10, 100, 1000, 10000)
DEFAULT_FRACTIONS = tuple(round(0.1 * k, 1) for k in range(1, 10))

# (N, r) grid of the reference regret table.
TABLE1_GRID = tuple((n, r) for n in (50, 500, 5000)
                    for r in (10, 100, 1000, 10000))


def bundled_path(name: str) -> str:
    """Absolute path of a data file shipped inside the package."""
    return str(resources.files("bnsl").joinpath("data", name))


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str = "regret-table"
    criteria: tuple = DEFAULT_CRITERIA
    sample_sizes: tuple = DEFAULT_SAMPLE_SIZES
    repetitions: int = 50
    seed: int = 0
    networks: tuple = ()
    datasets: tuple = ()
    train_fractions: tuple = DEFAULT_FRACTIONS

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown experiment kind {self.kind!r}; "
                            f"expected one of {', '.join(KINDS)}")
        object.__setattr__(self, "criteria", _items(self.criteria, "criteria"))
        for c in self.criteria:
            if c not in CRITERIA:
                raise DataError(f"unknown criterion {c!r}")
        if not self.criteria:
            raise DataError("criteria list is empty")
        object.__setattr__(self, "sample_sizes", tuple(
            integer(n, "each sample size")
            for n in _items(self.sample_sizes, "sample sizes")))
        if any(n <= 0 for n in self.sample_sizes):
            raise DataError("sample sizes must be positive")
        object.__setattr__(self, "repetitions",
                           integer(self.repetitions, "repetitions"))
        if self.repetitions < 1:
            raise DataError("repetitions must be at least 1")
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        if self.seed < 0:
            raise DataError("seed must be nonnegative")
        for field in ("networks", "datasets"):
            paths = _items(getattr(self, field), field)
            if not all(isinstance(p, (str, os.PathLike)) for p in paths):
                raise DataError(f"{field} must be file paths")
            object.__setattr__(self, field, tuple(str(p) for p in paths))
        fractions = _items(self.train_fractions, "train fractions")
        if not all(isinstance(f, numbers.Real) and not isinstance(f, bool)
                   and 0.0 < f < 1.0 for f in fractions):
            raise DataError("train fractions must be numbers strictly between 0 "
                            "and 1")
        object.__setattr__(self, "train_fractions",
                           tuple(float(f) for f in fractions))

    def to_json_dict(self) -> dict:
        values = {key: getattr(self, field) for key, field in _JSON_KEYS.items()}
        return {key: list(v) if isinstance(v, tuple) else v
                for key, v in values.items()}


def _items(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise DataError(f"{what} must be a list, got {value!r}")
    return tuple(value)


_JSON_KEYS = {
    "kind": "kind",
    "criteria": "criteria",
    "sampleSizes": "sample_sizes",
    "repetitions": "repetitions",
    "seeds": "seed",
    "networks": "networks",
    "datasets": "datasets",
    "trainFractions": "train_fractions",
}


def spec_from_json(doc: dict) -> ExperimentSpec:
    """Build a spec from a parsed JSON document; unknown keys are errors."""
    if not isinstance(doc, dict):
        raise DataError("experiment spec must be a JSON object")
    kwargs = {}
    for key, value in doc.items():
        if key not in _JSON_KEYS:
            raise DataError(f"unknown spec field {key!r}")
        kwargs[_JSON_KEYS[key]] = value
    return ExperimentSpec(**kwargs)


def load_spec(path: str) -> ExperimentSpec:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
    return spec_from_json(doc)


def default_spec(kind: str) -> ExperimentSpec:
    """Spec running the named experiment on the bundled networks/datasets."""
    if kind == "shd-curve":
        return ExperimentSpec(
            kind=kind,
            networks=(bundled_path("chain5.json"),
                      bundled_path("collider5.json")),
        )
    if kind in ("predict-rank", "param-count"):
        return ExperimentSpec(
            kind=kind,
            datasets=(bundled_path("synth4_n400.csv"),
                      bundled_path("mixed6_n500.csv"),
                      bundled_path("web8_n500.csv")),
        )
    return ExperimentSpec(kind=kind)


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


def _label(path: str) -> str:
    return Path(path).stem


def run_regret_table(spec: ExperimentSpec | None = None) -> list[list[str]]:
    """Regret of a single multinomial on the reference (N, r) grid.

    Columns: the small-alphabet expansion, the all-range approximation,
    and the exact sum, printed to two decimals.
    """
    rows = [["n", "r", "szp1", "szp2", "exact"]]
    for n, r in TABLE1_GRID:
        rows.append([str(n), str(r),
                     "%.2f" % regret_szp_small_r(n, r),
                     "%.2f" % regret_szp_all_range(n, r),
                     "%.2f" % regret_exact(n, r)])
    return rows


def run_shd_curve(spec: ExperimentSpec) -> list[list[str]]:
    """Mean CPDAG distance to the generating network versus sample size.

    One dataset is drawn per (sample size, repetition). The repetitions of
    a sample size are learned under all criteria in one learn_datasets
    batch, drawn as it consumes them, so the columns are paired comparisons
    on identical data, and datasets of one shape are counted together.
    Each distinct DAG learned for a network is converted and compared once.
    """
    if not spec.networks:
        raise DataError("shd-curve needs at least one network file")
    rows = [["network", "criterion", "n", "meanSHD", "stderr"]]
    cfgs = tuple(ScoreConfig(criterion=crit) for crit in spec.criteria)
    for net_path in spec.networks:
        net = load_network(net_path)
        truth = to_cpdag(net.structure)
        shds = {}  # SHD of each distinct learned DAG, keyed on its parents
        for n in spec.sample_sizes:
            per_rep = np.empty((spec.repetitions, len(spec.criteria)))
            datasets = (sample(net, n, seed=spec.seed + rep)
                        for rep in range(spec.repetitions))
            for rep, results in enumerate(learn_datasets(datasets, cfgs)):
                for j, res in enumerate(results):
                    g = res.network
                    if g.parents not in shds:
                        shds[g.parents] = cpdag_shd(to_cpdag(g), truth)
                    per_rep[rep, j] = shds[g.parents]
            for j, crit in enumerate(spec.criteria):
                col = per_rep[:, j]
                err = (col.std(ddof=1) / np.sqrt(len(col))
                       if len(col) > 1 else float("nan"))
                rows.append([_label(net_path), crit, str(n),
                             _fmt(col.mean()), _fmt(err)])
    return rows


def _rule(criterion: str, params: str | None = None) -> str:
    return params or ("bpp" if criterion == "bdeu" else "snml")


def fit_for(criterion: str, params: str | None = None):
    """Parameter rule named by ``params``, or by default the one paired
    with the criterion: Bayesian posterior-predictive parameters for BDeu,
    sequential NML parameters for everything else."""
    return {"ml": fit_ml, "snml": fit_snml, "bpp": fit_bpp}[
        _rule(criterion, params)]


def _min_ranks(values) -> list[int]:
    """Rank 1 = best (largest value); exactly equal values share the
    smallest rank of their group."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    ranks = [0] * len(values)
    for pos, i in enumerate(order):
        if pos > 0 and values[i] == values[order[pos - 1]]:
            ranks[i] = ranks[order[pos - 1]]
        else:
            ranks[i] = pos + 1
    return ranks


def _mean_test_logliks(rows, arities, n_trains, graphs, rules) -> list:
    """Mean log-likelihood of rows[n:] under each network graphs[f][c]
    fitted by the rule rules[c] on rows[:n], n = n_trains[f]: bit for bit
    mean_test_loglik of that rule's fit_*, but each distinct family is
    counted once for every train prefix."""
    ends = distinct(n_trains)
    # row t is in every prefix from the first one that ends after t
    first = np.searchsorted(ends, np.arange(ends[-1]), side="right")
    sums = [[np.zeros(len(rows) - n) for _ in rules] for n in n_trains]
    for child in range(len(arities)):  # children added in order
        fits, logps = {}, {}
        for f, (n, nets) in enumerate(zip(n_trains, graphs)):
            for c, g in enumerate(nets):
                family, rule = (*g.parents[child], child), rules[c]
                if (family, rule) not in fits:
                    cells = config_indices(rows, family, arities)
                    size = math.prod(arities[v] for v in family)
                    counts = np.bincount(first * size + cells[:ends[-1]],
                                         minlength=len(ends) * size)
                    counts = counts.reshape(len(ends), -1, arities[child])
                    cpts = rule_cpts(counts.cumsum(axis=0), rule)
                    fits[family, rule] = cells, cpts.reshape(len(ends), -1)
                cells, cpts = fits[family, rule]
                if (family, rule, n) not in logps:
                    with np.errstate(divide="ignore"):
                        logps[family, rule, n] = np.log(
                            cpts[np.searchsorted(ends, n)].take(cells[n:]))
                sums[f][c] += logps[family, rule, n]
    return [[np.mean(s) for s in row] for row in sums]


def _predict_tables(spec: ExperimentSpec) -> list[list[str]]:
    """Shared driver for the prediction-rank and model-size experiments.

    Per repetition the rows are permuted once; each train fraction takes
    the leading slice of that permutation, so larger fractions extend the
    smaller ones instead of resampling, and the rest is its test split.
    The train splits of a repetition are learned under all criteria in one
    learn_datasets batch, and each distinct learned family is fitted and
    scored once for all of them. Each (dataset, criterion, fraction) row
    holds the mean held-out log-likelihood, rank and parameter count.
    """
    if not spec.datasets:
        raise DataError(f"{spec.kind} needs at least one dataset file")
    rows = []
    cfgs = tuple(ScoreConfig(criterion=crit) for crit in spec.criteria)
    rules = [_rule(crit) for crit in spec.criteria]
    for ds_path in spec.datasets:
        data = load_dataset(ds_path)
        n_trains = [int(f * data.n_rows) for f in spec.train_fractions]
        for fraction, n_train in zip(spec.train_fractions, n_trains):
            if n_train < 1 or n_train >= data.n_rows:
                raise DataError(
                    f"train fraction {fraction} leaves an empty split "
                    f"for {data.n_rows} rows")
        # log-likelihood, rank, parameter count x fraction x criterion x rep
        stats = np.empty((3, len(spec.train_fractions), len(spec.criteria),
                          spec.repetitions))
        for rep in range(spec.repetitions):
            perm = np.random.default_rng(spec.seed + rep).permutation(
                data.n_rows)
            permuted = data.rows[perm]
            learned = learn_datasets(
                [Dataset(data.names, data.arities, permuted[:n_train])
                 for n_train in n_trains], cfgs)
            graphs = [[res.network for res in results] for results in learned]
            stats[0, :, :, rep] = _mean_test_logliks(
                permuted, data.arities, n_trains, graphs, rules)
            for fi, nets in enumerate(graphs):
                stats[1, fi, :, rep] = _min_ranks(stats[0, fi, :, rep])
                stats[2, fi, :, rep] = [parameter_count(g, data.arities)
                                        for g in nets]
        for fi, fraction in enumerate(spec.train_fractions):
            for ci, crit in enumerate(spec.criteria):
                rows.append([_label(ds_path), crit, _fmt(fraction)]
                            + [_fmt(np.mean(stats[k, fi, ci]))
                               for k in range(3)])
    return rows


def run_predict_rank(spec: ExperimentSpec) -> list[list[str]]:
    """Mean held-out log-likelihood and mean rank per train fraction.

    Parameters pair with the criterion that chose the model (see
    ``fit_for``).
    """
    header = ["dataset", "criterion", "fraction", "meanLogLik", "rank"]
    return [header] + [row[:5] for row in _predict_tables(spec)]


def run_param_count(spec: ExperimentSpec) -> list[list[str]]:
    """Mean parameter count of the learned model per train fraction.

    Counts use the full parent-configuration product, matching the
    dimension the BIC penalty charges for.
    """
    header = ["dataset", "criterion", "fraction", "meanParamCount"]
    return [header] + [row[:3] + row[5:] for row in _predict_tables(spec)]


RUNNERS = {
    "regret-table": run_regret_table,
    "shd-curve": run_shd_curve,
    "predict-rank": run_predict_rank,
    "param-count": run_param_count,
}
KINDS = tuple(RUNNERS)


def run_experiment(spec: ExperimentSpec, out_dir: str) -> dict:
    """Run one experiment and write ``<kind>.csv`` plus ``manifest.json``.

    Returns the manifest dictionary. The manifest wall time is the only
    output field that varies between reruns of the same spec. The manifest
    lists the versions of bnsl, Python and numpy, the only libraries any
    kind runs.
    """
    start = time.perf_counter()
    rows = RUNNERS[spec.kind](spec)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{spec.kind}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    manifest = {
        "kind": spec.kind,
        "spec": spec.to_json_dict(),
        "rows": len(rows) - 1,
        "versions": {"bnsl": __version__,
                     "python": platform.python_version(),
                     "numpy": np.__version__},
        "wallTimeSeconds": round(time.perf_counter() - start, 3),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest
