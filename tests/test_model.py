"""Tests for CPT fitting, sampling, prediction and network file I/O."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bnsl.dataset import Dataset, contingency, counts_loglik
from bnsl.errors import DataError
from bnsl.model import (
    BayesianNetwork,
    fit_bpp,
    fit_ml,
    fit_snml,
    load_network,
    load_structure,
    log_predict,
    log_predict_rows,
    mean_test_loglik,
    sample,
    save_network,
)
from bnsl.structure import DagStructure

from conftest import random_dag, random_dataset


def dag(n, *arcs, names=None):
    parents = [[] for _ in range(n)]
    for p, c in arcs:
        parents[c].append(p)
    return DagStructure(n, tuple(tuple(sorted(ps)) for ps in parents), names)


def single_var_data(values, arity=2):
    rows = np.asarray(values, dtype=np.int64).reshape(-1, 1)
    return Dataset(("A",), (arity,), rows)


# ---------------------------------------------------------------- fitting

def test_fit_ml_hand_values():
    data = Dataset(("A", "B"), (2, 2),
                   np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int64))
    net = fit_ml(data, dag(2, (0, 1)))
    assert np.allclose(net.cpts[0], [[2 / 3, 1 / 3]])
    assert np.allclose(net.cpts[1], [[0.5, 0.5], [1.0, 0.0]])


def test_fit_snml_hand_values():
    # counts (1,0): weights 4 and 1; counts (2,0): 6.75 and 1
    net = fit_snml(single_var_data([0]), dag(1))
    assert np.allclose(net.cpts[0], [[0.8, 0.2]])
    net = fit_snml(single_var_data([0, 0]), dag(1))
    assert np.allclose(net.cpts[0], [[6.75 / 7.75, 1.0 / 7.75]])


def test_fit_bpp_hand_values():
    # Dirichlet(1/2, 1/2) posterior mean on counts (3,1)
    net = fit_bpp(single_var_data([0, 0, 0, 1]), dag(1))
    assert np.allclose(net.cpts[0], [[0.7, 0.3]])


def test_unseen_parent_rows_fall_back_to_uniform():
    # parent value 2 never occurs, so that row of the child cpt is uniform
    data = Dataset(("A", "B"), (3, 2),
                   np.array([[0, 0], [1, 1]], dtype=np.int64))
    for fit in (fit_ml, fit_snml, fit_bpp):
        net = fit(data, dag(2, (0, 1)))
        assert np.allclose(net.cpts[1][2], [0.5, 0.5])


def test_fit_on_empty_dataset_is_uniform():
    data = Dataset(("A", "B"), (2, 3), np.zeros((0, 2), np.int64))
    net = fit_ml(data, dag(2, (0, 1)))
    assert np.allclose(net.cpts[0], [[0.5, 0.5]])
    assert np.allclose(net.cpts[1], np.full((2, 3), 1 / 3))


def test_snml_and_bpp_are_strictly_positive(rng):
    data = random_dataset(rng, 4, 30)
    g = random_dag(rng, 4)
    for fit in (fit_snml, fit_bpp):
        net = fit(data, g)
        assert all((c > 0.0).all() for c in net.cpts)


def test_fit_rejects_variable_count_mismatch():
    with pytest.raises(DataError):
        fit_ml(single_var_data([0, 1]), dag(2, (0, 1)))


def test_ml_training_loglik_matches_score_term(rng):
    # total ln-likelihood of the fitted net on its own training data equals
    # the maximized conditional log-likelihood summed over families
    for _ in range(5):
        data = random_dataset(rng, 4, 25)
        g = random_dag(rng, 4)
        net = fit_ml(data, g)
        got = float(log_predict_rows(net, data).sum())
        want = sum(counts_loglik(contingency(data, i, g.parents[i]))
                   for i in range(4))
        assert got == pytest.approx(want, abs=1e-9)


# ------------------------------------------------------------- validation

def test_network_rejects_bad_cpts():
    g = dag(2, (0, 1))
    ok_a = [[0.5, 0.5]]
    ok_b = [[0.9, 0.1], [0.2, 0.8]]
    with pytest.raises(DataError):
        BayesianNetwork(g, (2, 2), (ok_a, [[0.9, 0.1]]))  # wrong shape
    with pytest.raises(DataError):
        BayesianNetwork(g, (2, 2), (ok_a, [[1.1, -0.1], [0.2, 0.8]]))
    with pytest.raises(DataError):
        BayesianNetwork(g, (2, 2), (ok_a, [[0.6, 0.6], [0.2, 0.8]]))
    with pytest.raises(DataError):
        BayesianNetwork(g, (2,), (ok_a, ok_b))
    with pytest.raises(DataError):
        BayesianNetwork(g, (2, 0), (ok_a, ok_b))
    # an arity is an integer, never truncated to one
    for arity in (2.6, True, "2"):
        with pytest.raises(DataError, match="must be an integer"):
            BayesianNetwork(g, (arity, 2), (ok_a, ok_b))
    assert BayesianNetwork(g, (np.int64(2), 2), (ok_a, ok_b)).arities == (2, 2)


def test_network_cpts_are_read_only():
    net = fit_ml(single_var_data([0, 1]), dag(1))
    with pytest.raises(ValueError):
        net.cpts[0][0, 0] = 0.9


# --------------------------------------------------------------- predict

def chain_net():
    g = dag(2, (0, 1), names=("A", "B"))
    return BayesianNetwork(g, (2, 2),
                           ([[0.6, 0.4]], [[0.9, 0.1], [0.2, 0.8]]))


def test_log_predict_hand_value():
    assert log_predict(chain_net(), [0, 1]) == pytest.approx(
        math.log(0.6) + math.log(0.1))
    assert log_predict(chain_net(), [1, 1]) == pytest.approx(
        math.log(0.4) + math.log(0.8))


def test_log_predict_zero_cell_is_minus_inf():
    net = BayesianNetwork(dag(1), (2,), ([[1.0, 0.0]],))
    assert log_predict(net, [1]) == -math.inf


def test_log_predict_rejects_bad_rows():
    with pytest.raises(DataError):
        log_predict(chain_net(), [0])
    with pytest.raises(DataError):
        log_predict(chain_net(), [0, 2])
    with pytest.raises(DataError):
        log_predict(chain_net(), [-1, 0])


def test_log_predict_rows_matches_scalar_version(rng):
    data = random_dataset(rng, 4, 20)
    net = fit_snml(data, random_dag(rng, 4))
    vec = log_predict_rows(net, data)
    assert vec.shape == (20,)
    for k in range(20):
        assert vec[k] == pytest.approx(log_predict(net, data.rows[k]))


def test_log_predict_rows_propagates_minus_inf():
    net = BayesianNetwork(dag(1), (2,), ([[1.0, 0.0]],))
    vec = log_predict_rows(net, single_var_data([0, 1, 0]))
    assert vec[0] > -math.inf and vec[2] > -math.inf
    assert vec[1] == -math.inf


def test_mean_test_loglik():
    data = Dataset(("A", "B"), (2, 2),
                   np.array([[0, 1], [1, 1]], dtype=np.int64))
    want = (log_predict(chain_net(), [0, 1])
            + log_predict(chain_net(), [1, 1])) / 2
    assert mean_test_loglik(chain_net(), data) == pytest.approx(want)
    with pytest.raises(DataError):
        mean_test_loglik(chain_net(), Dataset(("A", "B"), (2, 2),
                                              np.zeros((0, 2), np.int64)))


def test_prediction_rejects_wider_data_than_network():
    wide = Dataset(("A", "B"), (2, 3),
                   np.array([[0, 2]], dtype=np.int64))
    with pytest.raises(DataError):
        log_predict_rows(chain_net(), wide)
    # narrower declared arity is fine
    narrow = Dataset(("A",), (1,), np.zeros((2, 1), np.int64))
    net = BayesianNetwork(dag(1), (2,), ([[0.7, 0.3]],))
    assert np.allclose(log_predict_rows(net, narrow), math.log(0.7))


# --------------------------------------------------------------- sampling

def test_sample_is_deterministic_per_seed():
    net = chain_net()
    a = sample(net, 40, seed=7)
    b = sample(net, 40, seed=7)
    c = sample(net, 40, seed=8)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)
    assert a.names == ("A", "B") and a.arities == (2, 2)


def test_sample_zero_rows():
    d = sample(chain_net(), 0, seed=0)
    assert d.n_rows == 0 and d.n_vars == 2
    with pytest.raises(DataError):
        sample(chain_net(), -1, seed=0)
    with pytest.raises(DataError):
        sample(chain_net(), 5, seed=-1)


def test_sample_checks_size_and_seed_are_integers():
    for n_rows, seed in ((2.5, 0), (True, 0), (3, 1.5), (3, False)):
        with pytest.raises(DataError, match="must be an integer"):
            sample(chain_net(), n_rows, seed)
    d = sample(chain_net(), np.int64(3), seed=np.int32(7))
    assert np.array_equal(d.rows, sample(chain_net(), 3, seed=7).rows)


def test_sample_respects_deterministic_cpts():
    # B copies A exactly, so every sampled row must satisfy B == A
    g = dag(2, (0, 1))
    net = BayesianNetwork(g, (2, 2),
                          ([[0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]))
    d = sample(net, 200, seed=3)
    assert np.array_equal(d.rows[:, 0], d.rows[:, 1])
    assert 0 < d.rows[:, 0].mean() < 1


def test_sample_marginal_frequencies_are_close():
    net = BayesianNetwork(dag(1), (2,), ([[0.3, 0.7]],))
    d = sample(net, 5000, seed=11)
    assert d.rows[:, 0].mean() == pytest.approx(0.7, abs=0.03)


def test_sample_names_default_when_structure_is_anonymous():
    net = BayesianNetwork(dag(2, (0, 1)), (2, 2),
                          ([[0.5, 0.5]], [[0.9, 0.1], [0.2, 0.8]]))
    assert sample(net, 1, seed=0).names == ("X1", "X2")


def test_bundled_datasets_regenerate_byte_identical(tmp_path):
    # the bundled CSVs are samples of networks of mixed arities at fixed
    # seeds, so this pins sample's output row for row
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "make_bundled_data", root / "scripts" / "make_bundled_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main([str(tmp_path)])
    names = ("synth4_n400.csv", "mixed6_n500.csv", "web8_n500.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert ((tmp_path / name).read_bytes()
                == (root / "src" / "bnsl" / "data" / name).read_bytes()), name


# ------------------------------------------------------------------- I/O

def test_network_file_roundtrip(tmp_path):
    net = chain_net()
    path = tmp_path / "net.json"
    save_network(path, net.structure, net.arities, net.cpts)
    # the same file behind a UTF-8 byte-order mark
    bom_path = tmp_path / "bom.json"
    bom_path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    for p in (path, bom_path):
        back = load_network(p)
        assert back.structure.parents == net.structure.parents
        assert back.structure.names == ("A", "B")
        assert back.arities == net.arities
        for got, want in zip(back.cpts, net.cpts):
            assert np.allclose(got, want)


def test_structure_only_file(tmp_path):
    path = tmp_path / "skel.json"
    save_network(path, dag(3, (0, 1), (1, 2), names=("A", "B", "C")), (2, 3, 2))
    g, arities = load_structure(path)
    assert g.parents == ((), (0,), (1,))
    assert arities == (2, 3, 2)
    with pytest.raises(DataError):
        load_network(path)


def test_load_structure_ignores_cpts(tmp_path):
    path = tmp_path / "net.json"
    net = chain_net()
    save_network(path, net.structure, net.arities, net.cpts)
    g, arities = load_structure(path)
    assert g.parents == ((), (0,)) and arities == (2, 2)


def write_doc(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        load_structure(path)

    ok_vars = [{"name": "A", "arity": 2}, {"name": "B", "arity": 2}]
    cases = [
        {"variables": ok_vars},  # parents missing
        {"variables": [{"name": "A"}], "parents": {"A": []}},
        {"variables": ok_vars, "parents": {"A": []}},  # no entry for B
        {"variables": ok_vars, "parents": {"A": [], "B": ["Z"]}},
        {"variables": ok_vars + ok_vars[:1], "parents": {"A": [], "B": []}},
        {"variables": 5, "parents": {}},
        {"variables": [{"name": "A", "arity": "x"}], "parents": {"A": []}},
        {"variables": [{"name": "A", "arity": 2.5}], "parents": {"A": []}},
        {"variables": ok_vars, "parents": ["A", "B"]},
        {"variables": ok_vars, "parents": {"A": [], "B": 5}},
        {"variables": ok_vars, "parents": {"A": [], "B": [["A"]]}},
        {"variables": ok_vars, "parents": {"A": [], "B": []}, "cpts": 5},
        {"variables": ok_vars[:1], "parents": {"A": []},
         "cpts": {"A": [[0.5, 0.5], [1.0]]}},  # ragged
        {"variables": ok_vars[:1], "parents": {"A": []},
         "cpts": {"A": [["a", "b"]]}},
    ]
    for doc in cases:
        with pytest.raises(DataError):
            load_structure(write_doc(tmp_path, doc))


def test_load_validates_cpts(tmp_path):
    doc = {
        "variables": [{"name": "A", "arity": 2}],
        "parents": {"A": []},
        "cpts": {"A": [[0.6, 0.6]]},
    }
    with pytest.raises(DataError):
        load_network(write_doc(tmp_path, doc))
    doc["cpts"] = {}
    with pytest.raises(DataError):
        load_network(write_doc(tmp_path, doc))
    doc["cpts"] = {"A": [[None, 1.0]]}  # null reads as NaN
    with pytest.raises(DataError):
        load_network(write_doc(tmp_path, doc))


def test_save_rejects_arity_length_mismatch(tmp_path):
    with pytest.raises(DataError):
        save_network(tmp_path / "x.json", dag(2, (0, 1)), (2,))
    # an arity that is not an integer of at least 1, as BayesianNetwork
    # refuses it: no file that load_network would refuse is written
    for bad in (2.7, True, 0):
        with pytest.raises(DataError):
            save_network(tmp_path / "y.json", DagStructure(1, ((),)), (bad,))
        assert not (tmp_path / "y.json").exists()
