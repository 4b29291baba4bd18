import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnsl.dataset import Dataset
from bnsl.errors import ResourceLimitError
from bnsl.learner import (compute_local_scores, learn_bruteforce, learn_exact)
from bnsl.scores import CRITERIA, ScoreConfig, local_score, total_score
from bnsl.structure import mask_to_parents

from conftest import random_dataset


@given(st.integers(1, 10 ** 6), st.sampled_from(CRITERIA))
@settings(max_examples=30)
def test_exact_matches_exhaustive_search(seed, criterion):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, 4, int(rng.integers(1, 40)))
    cfg = ScoreConfig(criterion=criterion)
    exact = learn_exact(data, cfg)
    brute = learn_bruteforce(data, cfg)
    assert exact.total_score == pytest.approx(brute.total_score, abs=1e-9)
    # tie-break orders differ between the two searches, so only the
    # achieved score is guaranteed to coincide
    assert total_score(data, exact.network, cfg) == pytest.approx(
        brute.total_score, abs=1e-9)


def test_reported_score_is_consistent(rng):
    data = random_dataset(rng, 5, 60)
    for criterion in ("qnml", "bic"):
        cfg = ScoreConfig(criterion=criterion)
        res = learn_exact(data, cfg)
        assert res.total_score == pytest.approx(
            total_score(data, res.network, cfg), abs=1e-9)
        assert sum(res.per_variable) == pytest.approx(res.total_score,
                                                      abs=1e-9)
        assert res.elapsed >= 0.0


def test_empty_dataset_learns_empty_graph():
    data = Dataset(("A", "B", "C"), (2, 2, 2), np.zeros((0, 3), np.int64))
    res = learn_exact(data, ScoreConfig(criterion="qnml"))
    assert res.network.arc_count() == 0
    assert res.total_score == 0.0


def test_single_variable():
    data = Dataset(("A",), (2,), np.array([[0], [1], [1]], dtype=np.int64))
    res = learn_exact(data, ScoreConfig(criterion="qnml"))
    assert res.network.parents == ((),)


def test_max_parents_cap_is_respected(rng):
    data = random_dataset(rng, 6, 80)
    for cap in (0, 1, 2):
        res = learn_exact(data, ScoreConfig(criterion="bic"), max_parents=cap)
        assert max(len(p) for p in res.network.parents) <= cap
    capped = learn_exact(data, ScoreConfig(criterion="bic"), max_parents=0)
    assert capped.network.arc_count() == 0


def test_cap_never_beats_uncapped(rng):
    data = random_dataset(rng, 5, 50)
    cfg = ScoreConfig(criterion="qnml")
    free = learn_exact(data, cfg).total_score
    for cap in (1, 2, 3):
        assert learn_exact(data, cfg, max_parents=cap).total_score <= free + 1e-12


def test_determinism_across_runs(rng):
    data = random_dataset(rng, 5, 40)
    cfg = ScoreConfig(criterion="bdeu")
    runs = [learn_exact(data, cfg).network.parents for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_local_score_table_shape(rng):
    data = random_dataset(rng, 4, 20)
    table = compute_local_scores(data, ScoreConfig(criterion="bic"))
    assert table.n == 4
    # every child scores every subset of the other three variables
    assert all(len(s) == 8 for s in table.scores)
    capped = compute_local_scores(data, ScoreConfig(criterion="bic"),
                                  max_parents=1)
    assert capped.max_parents == 1
    # capped at one parent: the empty set and three singletons
    assert all(len(s) == 4 for s in capped.scores)
    # differential oracle: every entry is exactly the per-family score
    for criterion in CRITERIA:
        cfg = ScoreConfig(criterion=criterion)
        for max_parents in (None, 1):
            table = compute_local_scores(data, cfg, max_parents)
            for child, entries in enumerate(table.scores):
                for mask, value in entries.items():
                    parents = mask_to_parents(mask)
                    assert value == local_score(data, child, parents, cfg)


def test_variable_count_guards():
    n = 21
    data = Dataset(tuple(f"V{i}" for i in range(n)), (2,) * n,
                   np.zeros((4, n), dtype=np.int64))
    with pytest.raises(ResourceLimitError):
        learn_exact(data, ScoreConfig(criterion="bic"))
    with pytest.raises(ResourceLimitError):
        learn_exact(data, ScoreConfig(criterion="bic"), max_parents=2)
    n = 6
    data = Dataset(tuple(f"V{i}" for i in range(n)), (2,) * n,
                   np.zeros((4, n), dtype=np.int64))
    with pytest.raises(ResourceLimitError):
        learn_bruteforce(data, ScoreConfig(criterion="bic"))


def test_tied_optima_resolve_to_equivalent_graphs():
    # two identical deterministic columns: A -> B and B -> A tie exactly
    # under a reversal-invariant criterion, and both searches must land in
    # that same one-arc equivalence class
    from bnsl.structure import to_cpdag

    rows = np.array([[0, 0], [1, 1], [0, 0], [1, 1]], dtype=np.int64)
    data = Dataset(("A", "B"), (2, 2), rows)
    res = learn_exact(data, ScoreConfig(criterion="bdeu"))
    brute = learn_bruteforce(data, ScoreConfig(criterion="bdeu"))
    assert res.network.arc_count() == brute.network.arc_count() == 1
    assert to_cpdag(res.network) == to_cpdag(brute.network)


def test_all_ties_resolve_to_the_empty_graph():
    # a zero-row dataset scores every structure identically; both searches
    # document a fewest-arcs preference, which pins the empty graph
    data = Dataset(("A", "B", "C"), (2, 2, 2), np.zeros((0, 3), np.int64))
    for crit in ("qnml", "fnml", "bdeu", "bdq"):
        cfg = ScoreConfig(criterion=crit)
        assert learn_exact(data, cfg).network.arc_count() == 0
        assert learn_bruteforce(data, cfg).network.arc_count() == 0


def test_learned_quality_improves_with_sample_size():
    # identifiable 4-node collider; count exact recoveries over seeds
    from bnsl.model import BayesianNetwork, sample
    from bnsl.structure import DagStructure, shd

    g = DagStructure(4, ((), (), (0, 1), (2,)), tuple("ABCD"))
    net = BayesianNetwork(g, (2,) * 4, (
        np.array([[0.5, 0.5]]), np.array([[0.6, 0.4]]),
        np.array([[0.9, 0.1], [0.25, 0.75], [0.25, 0.75], [0.05, 0.95]]),
        np.array([[0.85, 0.15], [0.15, 0.85]]),
    ))
    cfg = ScoreConfig(criterion="qnml")
    hits = {}
    for n_rows in (100, 10000):
        hits[n_rows] = sum(
            shd(learn_exact(sample(net, n_rows, seed=s), cfg).network, g) == 0
            for s in range(15))
    assert hits[10000] >= hits[100]
    assert hits[10000] >= 12  # near-certain recovery at large N
