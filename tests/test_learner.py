import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnsl.dataset import Dataset
from bnsl.errors import ResourceLimitError
from bnsl.learner import (_best_parents, _best_sinks, _compress_mask,
                          _expand_mask, _search, compute_local_scores,
                          learn_bruteforce, learn_exact)
from bnsl.scores import CRITERIA, ScoreConfig, local_score, total_score

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
    n = 4
    data = random_dataset(rng, n, 20)
    popcount = np.array([bin(m).count("1") for m in range(1 << (n - 1))])
    for criterion in CRITERIA:
        cfg = ScoreConfig(criterion=criterion)
        for max_parents in (None, 1):
            table = compute_local_scores(data, cfg, max_parents)
            assert table.n == n and table.max_parents == max_parents
            assert table.scores.shape == (n, 1 << (n - 1))
            assert not table.scores.flags.writeable
            cap = n - 1 if max_parents is None else max_parents
            # -inf marks exactly the parent sets above the cap
            assert np.array_equal(table.scores == -np.inf,
                                  np.tile(popcount > cap, (n, 1)))
            assert table.entry_count() == n * sum(
                math.comb(n - 1, k) for k in range(cap + 1))
            # differential oracle: every entry is exactly the per-family
            # score, with column bits over the other variables ascending
            for child in range(n):
                others = [v for v in range(n) if v != child]
                for cm in np.flatnonzero(popcount <= cap):
                    parents = tuple(v for k, v in enumerate(others)
                                    if cm >> k & 1)
                    assert table.scores[child, cm] == local_score(
                        data, child, parents, cfg)


def _reference_best_parents(scores):
    """Per child and candidate set, a direct search over all its subsets."""
    best = np.empty_like(scores)
    chosen = np.empty(scores.shape, dtype=np.int64)
    for child in range(scores.shape[0]):
        for cand in range(scores.shape[1]):
            subsets = [cand]
            while subsets[-1]:
                subsets.append((subsets[-1] - 1) & cand)
            m = min(subsets, key=lambda m: (-scores[child, m],
                                            bin(m).count("1"), m))
            best[child, cand], chosen[child, cand] = scores[child, m], m
    return best, chosen


def _reference_sinks(best_score):
    """The per-subset sink loop: subsets ascending, then sinks ascending."""
    n = best_score.shape[0]
    best = np.full(1 << n, -np.inf)
    best[0] = 0.0
    sink = np.full(1 << n, -1, dtype=np.int64)
    for w in range(1, 1 << n):
        for s in range(n):
            if w >> s & 1:
                rest = w ^ (1 << s)
                value = best[rest] + best_score[s, _compress_mask(rest, s)]
                if value > best[w]:
                    best[w], sink[w] = value, s
    return best, sink


@pytest.mark.parametrize("ties", [False, True])
def test_vectorized_sweeps_match_reference_loops(ties):
    rng = np.random.default_rng(7)
    for n in range(1, 11):
        shape = (n, 1 << (n - 1))
        if ties:
            scores = rng.integers(-3, 1, size=shape).astype(np.float64)
        else:
            scores = rng.normal(size=shape)
        # cap the parent sets like compute_local_scores does
        cap = int(rng.integers(0, n))
        popcount = np.array([bin(m).count("1") for m in range(1 << n)],
                            dtype=np.int8)
        scores[:, popcount[:shape[1]] > cap] = -np.inf
        ref_score, ref_set = _reference_best_parents(scores)
        best_score = _best_parents(scores)
        assert np.array_equal(best_score, ref_score)
        ref_best, ref_sink = _reference_sinks(ref_score)
        assert np.array_equal(_best_sinks(best_score, popcount), ref_best)
        # the search breaks ties only while backtracking; it must pick the
        # oracles' sinks and parent sets, in the same order
        want = []
        w = (1 << n) - 1
        while w:
            s = int(ref_sink[w])
            w ^= 1 << s
            cm = _compress_mask(w, s)
            want.append((s, _expand_mask(int(ref_set[s, cm]), s),
                         float(ref_score[s, cm])))
        assert _search(scores) == want


def test_variable_count_guards():
    n = 21
    data = Dataset(tuple(f"V{i}" for i in range(n)), (2,) * n,
                   np.zeros((4, n), dtype=np.int64))
    with pytest.raises(ResourceLimitError):
        learn_exact(data, ScoreConfig(criterion="bic"))
    with pytest.raises(ResourceLimitError):
        learn_exact(data, ScoreConfig(criterion="bic"), max_parents=2)
    with pytest.raises(ResourceLimitError):
        compute_local_scores(data, ScoreConfig(criterion="bic"),
                             max_parents=1)
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
