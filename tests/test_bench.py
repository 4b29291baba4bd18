"""Tests for the experiment harness: specs, runners and output files."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bnsl import bench
from bnsl.bench import (
    DEFAULT_CRITERIA,
    DEFAULT_FRACTIONS,
    DEFAULT_SAMPLE_SIZES,
    ExperimentSpec,
    KINDS,
    TABLE1_GRID,
    bundled_path,
    default_spec,
    fit_for,
    load_spec,
    run_experiment,
    run_param_count,
    run_predict_rank,
    run_regret_table,
    run_shd_curve,
    spec_from_json,
    _min_ranks,
)
from bnsl.dataset import Dataset, write_dataset
from bnsl.errors import DataError
from bnsl.learner import learn_datasets
from bnsl.model import mean_test_loglik
from bnsl.regret import regret
from bnsl.scores import ScoreConfig
from bnsl.structure import DagStructure


# ------------------------------------------------------------------ specs

def test_spec_defaults():
    spec = ExperimentSpec()
    assert spec.kind == "regret-table"
    assert spec.criteria == DEFAULT_CRITERIA
    assert spec.sample_sizes == DEFAULT_SAMPLE_SIZES
    assert spec.repetitions == 50
    assert spec.seed == 0
    assert spec.train_fractions == DEFAULT_FRACTIONS


def test_spec_validation():
    with pytest.raises(DataError):
        ExperimentSpec(kind="nope")
    with pytest.raises(DataError):
        ExperimentSpec(criteria=("qnml", "mystery"))
    with pytest.raises(DataError):
        ExperimentSpec(criteria=())
    with pytest.raises(DataError):
        ExperimentSpec(sample_sizes=(100, 0))
    with pytest.raises(DataError):
        ExperimentSpec(repetitions=0)
    with pytest.raises(DataError):
        ExperimentSpec(train_fractions=(0.5, 1.0))
    with pytest.raises(DataError):
        ExperimentSpec(train_fractions=(0.0,))


def test_spec_json_roundtrip():
    spec = ExperimentSpec(kind="shd-curve", criteria=("qnml", "bic"),
                          sample_sizes=(10, 100), repetitions=3, seed=7,
                          networks=("a.json",), train_fractions=(0.25,))
    doc = spec.to_json_dict()
    # the file format uses camelCase field names
    assert set(doc) == {"kind", "criteria", "sampleSizes", "repetitions",
                        "seeds", "networks", "datasets", "trainFractions"}
    assert doc["sampleSizes"] == [10, 100]
    assert doc["seeds"] == 7
    assert spec_from_json(doc) == spec


def test_spec_from_json_rejects_unknown_fields():
    with pytest.raises(DataError):
        spec_from_json({"kind": "regret-table", "sample_sizes": [10]})
    with pytest.raises(DataError):
        spec_from_json(["regret-table"])


def test_load_spec(tmp_path):
    path = tmp_path / "spec.json"
    for text in ('{"kind": "regret-table", "seeds": 3}',
                 '\ufeff{"kind": "regret-table", "seeds": 3}'):
        path.write_text(text, encoding="utf-8")
        assert load_spec(path).seed == 3
    path.write_text("{oops")
    with pytest.raises(DataError):
        load_spec(path)


def test_default_specs_point_at_bundled_files():
    for kind in KINDS:
        spec = default_spec(kind)
        assert spec.kind == kind
        for p in spec.networks + spec.datasets:
            assert Path(p).exists()
    assert default_spec("shd-curve").networks
    assert default_spec("predict-rank").datasets
    with pytest.raises(DataError):
        default_spec("mystery")


def test_bundled_path_resolves():
    assert Path(bundled_path("chain5.json")).exists()


# ----------------------------------------------------------- regret table

def test_regret_table_shape_and_values():
    rows = run_regret_table()
    assert rows[0] == ["n", "r", "szp1", "szp2", "exact"]
    assert len(rows) == 1 + len(TABLE1_GRID)
    assert rows[1] == ["50", "10", "13.24", "13.26", "13.24"]
    for (n, r), row in zip(TABLE1_GRID, rows[1:]):
        assert row[:2] == [str(n), str(r)]
        assert row[2] == "%.2f" % regret(n, r, "szp1")
        assert row[3] == "%.2f" % regret(n, r, "szp2")
        assert row[4] == "%.2f" % regret(n, r, "exact")


# -------------------------------------------------------------- shd curve

def small_shd_spec(reps=3):
    return ExperimentSpec(kind="shd-curve", criteria=("qnml", "bic"),
                          sample_sizes=(50,), repetitions=reps,
                          networks=(bundled_path("chain5.json"),))


def test_shd_curve_shape():
    rows = run_shd_curve(small_shd_spec())
    assert rows[0] == ["network", "criterion", "n", "meanSHD", "stderr"]
    assert len(rows) == 3
    for row, crit in zip(rows[1:], ("qnml", "bic")):
        assert row[0] == "chain5" and row[1] == crit and row[2] == "50"
        assert float(row[3]) >= 0.0
        assert float(row[4]) >= 0.0


def test_shd_curve_is_deterministic():
    assert run_shd_curve(small_shd_spec()) == run_shd_curve(small_shd_spec())


def test_shd_curve_single_repetition_has_nan_stderr():
    rows = run_shd_curve(small_shd_spec(reps=1))
    assert all(math.isnan(float(row[4])) for row in rows[1:])


def test_shd_curve_requires_networks():
    with pytest.raises(DataError):
        run_shd_curve(ExperimentSpec(kind="shd-curve"))


# ------------------------------------------------- prediction experiments

def small_predict_spec(kind, criteria=("qnml", "bdeu"), reps=2,
                       fractions=(0.5,)):
    return ExperimentSpec(kind=kind, criteria=criteria, repetitions=reps,
                          datasets=(bundled_path("synth4_n400.csv"),),
                          train_fractions=fractions)


def test_min_ranks():
    assert _min_ranks([3.0, 1.0, 3.0, 0.5]) == [1, 3, 1, 4]
    assert _min_ranks([2.0]) == [1]
    assert _min_ranks([1.0, 1.0, 1.0]) == [1, 1, 1]


def test_predict_rank_shape():
    rows = run_predict_rank(small_predict_spec("predict-rank"))
    assert rows[0] == ["dataset", "criterion", "fraction", "meanLogLik",
                       "rank"]
    assert len(rows) == 3
    for row, crit in zip(rows[1:], ("qnml", "bdeu")):
        assert row[0] == "synth4_n400" and row[1] == crit
        assert row[2] == "0.5"
        assert math.isfinite(float(row[3])) and float(row[3]) < 0.0
        assert 1.0 <= float(row[4]) <= 2.0


def test_predict_rank_ties_share_the_best_rank():
    # the same criterion twice produces identical predictions, so both
    # copies must be ranked 1 in every repetition
    spec = small_predict_spec("predict-rank", criteria=("qnml", "qnml"))
    rows = run_predict_rank(spec)
    assert [row[4] for row in rows[1:]] == ["1", "1"]


def test_param_count_shape():
    rows = run_param_count(small_predict_spec("param-count"))
    assert rows[0] == ["dataset", "criterion", "fraction", "meanParamCount"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert float(row[3]) >= 3.0  # three free parameters at minimum


def test_prediction_requires_datasets():
    with pytest.raises(DataError):
        run_predict_rank(ExperimentSpec(kind="predict-rank"))


def test_prediction_names_its_empty_input():
    for kind, run in (("predict-rank", run_predict_rank),
                      ("param-count", run_param_count)):
        with pytest.raises(DataError,
                           match=f"{kind} needs at least one dataset file"):
            run(ExperimentSpec(kind=kind))
        with pytest.raises(DataError,
                           match=f"{kind} needs at least one train fraction"):
            run(small_predict_spec(kind, fractions=()))


def test_degenerate_train_split_is_an_error(tmp_path):
    path = tmp_path / "tiny.csv"
    write_dataset(Dataset(("A", "B"), (2, 2),
                          np.array([[0, 0], [1, 1], [0, 1]], np.int64)), path)
    spec = ExperimentSpec(kind="predict-rank", criteria=("bic",),
                          repetitions=1, datasets=(path,),
                          train_fractions=(0.1,))
    with pytest.raises(DataError):
        run_predict_rank(spec)


def test_sparse_penalty_ranking_shifts_with_training_size():
    # with little data the heaviest penalty wins held-out prediction less
    # often than it does with plenty of data
    spec = ExperimentSpec(kind="predict-rank", repetitions=20,
                          datasets=(bundled_path("synth4_n400.csv"),),
                          train_fractions=(0.1, 0.9))
    rows = run_predict_rank(spec)
    rank = {(row[1], row[2]): float(row[4]) for row in rows[1:]}
    assert rank[("bic", "0.1")] < rank[("bic", "0.9")]


# ----------------------------------------------------------- golden rows

# Exact output of the three runners on small specs, all five criteria.
# Ten repetitions send each mean through numpy's eight-way unrolled
# pairwise summation rather than its plain loop for short arrays.
GOLDEN_CRITERIA = ("bic", "bdeu", "fnml", "qnml", "bdq")

GOLDEN_SHD_CURVE = """\
network,criterion,n,meanSHD,stderr
chain5,bic,20,1.6,0.47609522857
chain5,bdeu,20,2.7,0.395811402901
chain5,fnml,20,2.9,0.433333333333
chain5,qnml,20,3,0.471404520791
chain5,bdq,20,2.7,0.472581562625
chain5,bic,200,0.3,0.3
chain5,bdeu,200,0.3,0.3
chain5,fnml,200,0.7,0.395811402901
chain5,qnml,200,0.9,0.406885187191
chain5,bdq,200,0.9,0.406885187191
"""

GOLDEN_PREDICT_RANK = """\
dataset,criterion,fraction,meanLogLik,rank
synth4_n400,bic,0.2,-2.16463346197,1.4
synth4_n400,bdeu,0.2,-2.24987980845,4.5
synth4_n400,fnml,0.2,-2.19701653898,2.5
synth4_n400,qnml,0.2,-2.19635854793,2.3
synth4_n400,bdq,0.2,-2.19393050652,2.5
synth4_n400,bic,0.7,-2.04749802963,1.8
synth4_n400,bdeu,0.7,-2.04853568913,3.2
synth4_n400,fnml,0.7,-2.04761649946,3.3
synth4_n400,qnml,0.7,-2.04754525929,2.3
synth4_n400,bdq,0.7,-2.04750292822,1.7
"""

GOLDEN_PARAM_COUNT = """\
dataset,criterion,fraction,meanParamCount
synth4_n400,bic,0.2,10.8
synth4_n400,bdeu,0.2,12.4
synth4_n400,fnml,0.2,12.4
synth4_n400,qnml,0.2,12.8
synth4_n400,bdq,0.2,12.5
synth4_n400,bic,0.7,11
synth4_n400,bdeu,0.7,11
synth4_n400,fnml,0.7,11
synth4_n400,qnml,0.7,11
synth4_n400,bdq,0.7,11
"""


def golden_predict_spec(kind):
    return ExperimentSpec(kind=kind, criteria=GOLDEN_CRITERIA, repetitions=10,
                          seed=3, datasets=(bundled_path("synth4_n400.csv"),),
                          train_fractions=(0.2, 0.7))


def as_text(rows):
    return "".join(",".join(row) + "\n" for row in rows)


def test_runners_reproduce_golden_rows():
    shd_spec = ExperimentSpec(kind="shd-curve", criteria=GOLDEN_CRITERIA,
                              sample_sizes=(20, 200), repetitions=10, seed=3,
                              networks=(bundled_path("chain5.json"),))
    assert as_text(run_shd_curve(shd_spec)) == GOLDEN_SHD_CURVE
    assert (as_text(run_predict_rank(golden_predict_spec("predict-rank")))
            == GOLDEN_PREDICT_RANK)
    assert (as_text(run_param_count(golden_predict_spec("param-count")))
            == GOLDEN_PARAM_COUNT)


# ------------------------------------------- batched fits against oracles

def assert_oracle_means(rows, arities, n_trains, graphs, means, criteria,
                        params=None):
    """Each mean equals fitting and scoring one split alone, bit for bit."""
    names = tuple(f"V{i}" for i in range(len(arities)))
    for n, nets, got_row in zip(n_trains, graphs, means):
        train = Dataset(names, arities, rows[:n])
        test = Dataset(names, arities, rows[n:])
        for crit, g, got in zip(criteria, nets, got_row):
            want = mean_test_loglik(fit_for(crit, params)(train, g), test)
            assert got == want, (crit, n, g.parents, got, want)


@pytest.mark.parametrize("fractions", [(0.2, 0.7), (0.7, 0.2), (0.5, 0.5),
                                       (0.5, 0.501, 0.3)])
def test_batched_prediction_matches_the_per_split_oracle(monkeypatch,
                                                         fractions):
    # (0.5, 0.501) give the same n_train on every bundled dataset
    calls = []
    batched = bench._mean_test_logliks

    def spy(rows, arities, n_trains, graphs, rules):
        means = batched(rows, arities, n_trains, graphs, rules)
        calls.append((rows, arities, n_trains, graphs, means))
        return means

    monkeypatch.setattr(bench, "_mean_test_logliks", spy)
    files = ("synth4_n400.csv", "mixed6_n500.csv", "web8_n500.csv")
    spec = ExperimentSpec(kind="predict-rank", criteria=GOLDEN_CRITERIA,
                          repetitions=2, seed=5, train_fractions=fractions,
                          datasets=tuple(bundled_path(f) for f in files))
    rows = run_predict_rank(spec)
    assert len(calls) == len(files) * spec.repetitions
    for rows_, arities, n_trains, graphs, means in calls:
        assert n_trains == [int(f * len(rows_)) for f in fractions]
        assert_oracle_means(rows_, arities, n_trains, graphs, means,
                            GOLDEN_CRITERIA)
    if fractions == (0.5, 0.5):
        for ds in range(len(files)):
            block = rows[1 + 10 * ds:11 + 10 * ds]
            assert [row[3:] for row in block[:5]] == [row[3:]
                                                      for row in block[5:]]


@pytest.mark.parametrize("params", ["ml", "snml", "bpp"])
def test_batched_prediction_wide_arity_and_one_row_test_split(params):
    # column 0 declares three values and column 2 four, but only 0 and 1
    # occur; a 39-row prefix of 40 rows leaves a one-row test split
    rows = np.random.default_rng(4).integers(0, 2, size=(40, 3))
    arities = (3, 2, 4)
    n_trains = [39, 20, 4, 20]
    names = ("A", "B", "C")
    cfgs = tuple(ScoreConfig(criterion=c) for c in GOLDEN_CRITERIA)
    full = DagStructure(3, ((), (0,), (0, 1)))
    graphs = [[res.network for res in results] + [full]
              for results in learn_datasets(
                  [Dataset(names, arities, rows[:n]) for n in n_trains],
                  cfgs)]
    criteria = GOLDEN_CRITERIA + ("bic",)
    means = bench._mean_test_logliks(rows, arities, n_trains, graphs,
                                     [params] * len(criteria))
    assert_oracle_means(rows, arities, n_trains, graphs, means, criteria,
                        params)


@pytest.mark.parametrize("networks", [("chain5.json",),
                                      ("chain5.json", "collider5.json")])
def test_shd_curve_converts_each_distinct_dag_once(monkeypatch, networks):
    # one event list in call order: a network's truth is converted right
    # after it is loaded, before any DAG learned from its samples
    events = []
    load, convert, learn = (bench.load_network, bench.to_cpdag,
                            bench.learn_datasets)

    def counting_load(path):
        events.append(("net", path))
        return load(path)

    def counting_convert(g):
        events.append(("cpdag", g.parents))
        return convert(g)

    def recording_learn(datasets, cfgs):
        for results in learn(datasets, cfgs):
            events.extend(("learned", res.network.parents)
                          for res in results)
            yield results

    monkeypatch.setattr(bench, "load_network", counting_load)
    monkeypatch.setattr(bench, "to_cpdag", counting_convert)
    monkeypatch.setattr(bench, "learn_datasets", recording_learn)
    spec = ExperimentSpec(kind="shd-curve", criteria=GOLDEN_CRITERIA,
                          sample_sizes=(20, 200), repetitions=10, seed=3,
                          networks=tuple(bundled_path(f) for f in networks))
    run_shd_curve(spec)
    starts = [k for k, e in enumerate(events) if e[0] == "net"]
    assert len(starts) == len(networks)
    for start, end in zip(starts, starts[1:] + [len(events)]):
        segment = events[start + 1:end]
        truth = load(events[start][1]).structure.parents
        assert segment[0] == ("cpdag", truth)
        learned = [p for kind, p in segment if kind == "learned"]
        converted = [p for kind, p in segment[1:] if kind == "cpdag"]
        assert len(learned) == 2 * 10 * len(GOLDEN_CRITERIA)
        assert sorted(converted) == sorted(set(learned))


# ------------------------------------------------------------ experiments

def test_run_experiment_outputs(tmp_path):
    spec = small_shd_spec(reps=2)
    manifest = run_experiment(spec, tmp_path / "out")
    csv_path = tmp_path / "out" / "shd-curve.csv"
    assert csv_path.exists()
    assert (tmp_path / "out" / "manifest.json").exists()
    assert manifest["kind"] == "shd-curve"
    assert manifest["rows"] == 2
    assert manifest["spec"] == spec.to_json_dict()
    # numpy is the only library any experiment runs, the regret table's
    # exact regret included
    assert set(manifest["versions"]) == {"bnsl", "python", "numpy"}
    on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert on_disk == manifest
    table = run_experiment(ExperimentSpec(), tmp_path / "table")
    assert set(table["versions"]) == {"bnsl", "python", "numpy"}


def test_rerun_is_byte_identical_outside_wall_time(tmp_path):
    spec = small_shd_spec(reps=2)
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")
    csv_a = (tmp_path / "a" / "shd-curve.csv").read_bytes()
    csv_b = (tmp_path / "b" / "shd-curve.csv").read_bytes()
    assert csv_a == csv_b
    man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    man_a.pop("wallTimeSeconds")
    man_b.pop("wallTimeSeconds")
    assert man_a == man_b


def test_run_experiment_regret_table(tmp_path):
    run_experiment(ExperimentSpec(), tmp_path)
    text = (tmp_path / "regret-table.csv").read_text()
    assert text.splitlines()[0] == "n,r,szp1,szp2,exact"
    assert len(text.splitlines()) == 13
