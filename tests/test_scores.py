"""Score-function tests.

Hand oracles here are independent straight-line reimplementations of the
defining formulas (collections.Counter counting, direct lgamma sums), so a
shared bug in the library's vectorized path cannot hide.
"""

import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from bnsl import scores
from bnsl.dataset import Dataset, contingency, counts_loglik
from bnsl.errors import DataError
from bnsl.regret import METHODS, RegretCache, regret_exact
from bnsl.scores import (CRITERIA, ScoreConfig, criterion, local_score,
                         per_variable_scores, total_score)
from bnsl.structure import DagStructure, is_covered_arc, reverse_covered_arc

from conftest import covered_arcs, random_dag, random_dataset


def dataset(rows, arities):
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(arities))
    names = tuple(f"X{i + 1}" for i in range(len(arities)))
    return Dataset(names, tuple(arities), rows)


def naive_mll(data, child, parents):
    """ln max-likelihood of the child column given parent columns."""
    joint = Counter(tuple(row[[*parents, child]]) for row in data.rows)
    margin = Counter(tuple(row[list(parents)]) for row in data.rows)
    total = 0.0
    for key, c in joint.items():
        total += c * math.log(c / margin[key[:-1]])
    return total


def test_config_validation():
    assert ScoreConfig().criterion == "qnml"
    assert ScoreConfig(regret_method="szp2").regret_method == "szp-all-range"
    with pytest.raises(DataError):
        ScoreConfig(criterion="aic")
    # bdeu and bdq take one Dirichlet hyperparameter, with a default each;
    # the other criteria have none and refuse one
    assert ScoreConfig(criterion="bdeu").alpha == 1.0
    assert ScoreConfig(criterion="bdq").alpha == 0.5
    for c in ("bdeu", "bdq"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DataError, match="positive and finite"):
                ScoreConfig(criterion=c, alpha=bad)
    for c in ("bic", "fnml", "qnml"):
        assert ScoreConfig(criterion=c).alpha is None
        assert ScoreConfig(criterion=c, alpha=None) == ScoreConfig(criterion=c)
        for alpha in (1.0, 0.5, 0.0, math.nan):
            with pytest.raises(DataError):
                ScoreConfig(criterion=c, alpha=alpha)
    with pytest.raises(DataError):
        ScoreConfig(regret_method="simpson")


def test_config_refuses_arguments_of_the_wrong_type():
    # a DataError, not a TypeError from the comparison or the alias lookup,
    # and a bool is no hyperparameter
    for c, field, bad in (("bdeu", "alpha", "1"), ("bdeu", "alpha", True),
                          ("bdq", "alpha", [0.5]), ("bdq", "alpha", 1j),
                          ("qnml", "regret_method", ["exact"]),
                          ("qnml", "regret_method", 1)):
        with pytest.raises(DataError):
            ScoreConfig(criterion=c, **{field: bad})
    # ints and numpy floats are reals, kept as Python floats
    for c, given, want in (("bdeu", 2, 2.0), ("bdq", np.float64(0.25), 0.25),
                           ("bdq", np.float32(0.5), 0.5)):
        alpha = ScoreConfig(criterion=c, alpha=given).alpha
        assert type(alpha) is float and alpha == want
    assert ScoreConfig(criterion="bdeu", alpha=2) == ScoreConfig(
        criterion="bdeu", alpha=2.0)


@given(st.integers(1, 10 ** 6))
@settings(max_examples=30)
def test_max_loglik_matches_counter_oracle(seed):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, 3, int(rng.integers(1, 40)))
    assert counts_loglik(contingency(data, 0, (1, 2))) == pytest.approx(
        naive_mll(data, 0, (1, 2)), abs=1e-9)


def test_bic_hand_value():
    # X2 binary root, X1 ternary child; N = 4
    data = dataset([[0, 0], [1, 0], [2, 1], [0, 1]], (3, 2))
    cfg = ScoreConfig(criterion="bic")
    got = local_score(data, 0, (1,), cfg)
    # counts by parent row: X2=0 -> (1,1,0); X2=1 -> (1,0,1)
    mll = 4 * math.log(1 / 2)
    penalty = 2 * (3 - 1) / 2 * math.log(4)
    assert got == pytest.approx(mll - penalty, abs=1e-12)


def test_bdeu_hand_value():
    # single binary variable, no parents, counts (3, 1), alpha = 1
    data = dataset([[0], [0], [0], [1]], (2,))
    got = local_score(data, 0, (), ScoreConfig(criterion="bdeu"))
    a = 0.5
    want = (gammaln(1.0) - gammaln(1.0 + 4)
            + (gammaln(a + 3) - gammaln(a)) + (gammaln(a + 1) - gammaln(a)))
    assert got == pytest.approx(float(want), abs=1e-12)


def test_bdeu_unobserved_parent_rows_contribute_nothing():
    # parent X2 never takes value 2: that block must add exactly 0
    data = dataset([[0, 0], [1, 0], [0, 1], [1, 1]], (2, 3))
    cfg = ScoreConfig(criterion="bdeu", alpha=1.5)
    got = local_score(data, 0, (1,), cfg)
    a = 1.5 / 3 / 2
    want = 0.0
    for c0, c1 in ((1, 1), (1, 1)):
        want += gammaln(2 * a) - gammaln(2 * a + c0 + c1)
        want += gammaln(a + c0) - gammaln(a) + gammaln(a + c1) - gammaln(a)
    assert got == pytest.approx(float(want), abs=1e-12)


def test_fnml_hand_value():
    # child binary, parent binary; slices have 2 and 3 rows
    data = dataset([[0, 0], [1, 0], [0, 1], [0, 1], [1, 1]], (2, 2))
    got = local_score(data, 0, (1,), ScoreConfig(criterion="fnml",
                                                 regret_method="exact"))
    mll = naive_mll(data, 0, (1,))
    penalty = regret_exact(2, 2) + regret_exact(3, 2)
    assert got == pytest.approx(mll - penalty, abs=1e-12)


def test_fnml_penalty_adds_observed_configurations_only():
    # the penalty adds reg(N_j, r) over every parent configuration, one
    # batch row per parent set; reg(0, r) is 0.0 for every method, so the
    # running sum must equal, bit for bit, the sum over observed ones
    rng = np.random.default_rng(11)
    totals = rng.integers(0, 10_000, (6, 24))
    totals[rng.random(totals.shape) < 0.4] = 0
    totals[0] = 0
    fnml = criterion("fnml")
    for method in METHODS:
        cache = RegretCache(method)
        for r in (2, 5):
            got = fnml.penalty(totals, r, 0, ScoreConfig(), cache)
            for row, value in zip(totals.tolist(), got.tolist()):
                want = 0.0
                for count in row:
                    if count:
                        want += cache.get(count, r)
                assert value == want


def test_qnml_uses_full_arity_products():
    # q = 3 even though only 2 parent values are observed
    data = dataset([[0, 0], [1, 0], [0, 1], [1, 1]], (2, 3))
    got = local_score(data, 0, (1,), ScoreConfig(criterion="qnml",
                                                 regret_method="exact"))
    mll = naive_mll(data, 0, (1,))
    penalty = regret_exact(4, 6) - regret_exact(4, 3)
    assert got == pytest.approx(mll - penalty, abs=1e-12)


def test_qnml_no_parents_reduces_to_plain_nml():
    data = dataset([[0], [1], [1]], (2,))
    got = local_score(data, 0, (), ScoreConfig(criterion="qnml",
                                               regret_method="exact"))
    mll = 2 * math.log(2 / 3) + math.log(1 / 3)
    assert got == pytest.approx(mll - regret_exact(3, 2), abs=1e-12)


def test_bdq_hand_value():
    data = dataset([[0, 1], [1, 0], [1, 1]], (2, 2))
    got = local_score(data, 0, (1,), ScoreConfig(criterion="bdq"))

    def collapsed(cols, m):
        counts = Counter(tuple(row[list(cols)]) for row in data.rows)
        a = 0.5
        value = gammaln(m * a) - gammaln(m * a + 3)
        value += sum(gammaln(a + c) - gammaln(a) for c in counts.values())
        return float(value)

    assert got == pytest.approx(collapsed((0, 1), 4) - collapsed((1,), 2),
                                abs=1e-12)


def _same(a, b):
    """Equal bit for bit, nan included."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def test_lgam_port_is_bit_identical_to_gammaln(monkeypatch):
    # the Cephes port replaced scipy's gammaln in bdeu and bdq; the scores,
    # and so the learned networks, depend on every bit of it
    rng = np.random.default_rng(19)
    ulps = [np.nextafter(x, d) for x in (13.0, 1000.0, 1e8) for d in (0, 2e8)]
    edges = [5e-324, 1e-310, 0.0, 13.0, 1000.0, 1e8, *ulps, 2.556348e305,
             2.6e305, math.inf, 2.0, 3.0, 1.0, 0.5]
    draws = [rng.uniform(1e-6, 13, 20000), rng.uniform(13, 2000, 20000),
             rng.uniform(2000, 2e8, 2000),
             np.exp(rng.uniform(math.log(1e-300), math.log(1e305), 20000))]
    x = np.concatenate([edges, *draws, np.arange(1, 31) / 2 + 3000])
    with np.errstate(all="ignore"):
        assert _same(scores._lgam(x), gammaln(x))
        assert scores._lgam(1e-310) == scores._lgam(0.0) == math.inf
    # every rise table grows from empty, small maxima first, so it grows
    # several times; 60 last reads a table grown far past it
    monkeypatch.setattr(scores, "_RISE_TABLES", {})
    monkeypatch.setattr(scores, "_norm",
                        functools.cache(scores._norm.__wrapped__))
    # cell counts of families of arities 2-4
    sizes = np.array(sorted({math.prod(rng.integers(2, 5, k))
                             for k in range(1, 6) for _ in range(4)}))
    largest = {}
    for top in (1, 3, 12, 40, 700, 3000, 60):
        for alpha in (1.0, 0.5, 1e-3, 7.3):
            index = rng.integers(0, len(sizes), 7)
            counts = rng.integers(0, top + 1, (3, 7, 5))
            bdeu = ScoreConfig(criterion="bdeu", alpha=alpha)
            # one call per family size, on the counts of its families
            for j, size in enumerate(sizes.tolist()):
                a, mine = alpha / size, counts[:, index == j]
                got = criterion("bdeu").cell(mine, size, top, bdeu)
                assert _same(got, gammaln(a + mine) - gammaln(a))
                # each table is bound by the largest count its a has met
                largest[a] = max(largest.get(a, 0), int(mine.max(initial=0)))
            bdq = ScoreConfig(criterion="bdq", alpha=alpha)
            got = criterion("bdq").cell(counts, 1, top, bdq)
            assert _same(got, gammaln(alpha + counts) - gammaln(alpha))
            largest[alpha] = max(largest.get(alpha, 0), int(counts.max()))
            m = rng.integers(1, 300, 6)
            n_rows = rng.integers(0, 2 * top + 1, (4, 1))
            assert _same(scores._bdq_norm(m, n_rows, alpha),
                         gammaln(m * alpha) - gammaln(m * alpha + n_rows))
            assert _same(scores._bdq_norm(5, top, alpha),
                         gammaln(5 * alpha) - gammaln(5 * alpha + top))
    assert {a: len(t) - 1 for a, t in scores._RISE_TABLES.items()} == largest
    for a, table in scores._RISE_TABLES.items():
        k = np.arange(len(table))
        assert _same(table, gammaln(a + k) - gammaln(a))
    # at a tiny a, lgam(a) overflows: an unobserved cell reads nan, not 0
    with np.errstate(invalid="ignore"):
        tiny = criterion("bdq").cell(np.array([0, 2]), 2, 2,
                                     ScoreConfig(criterion="bdq",
                                                 alpha=1e-310))
    assert np.isnan(tiny[0]) and tiny[1] == -math.inf


def test_decomposability(rng):
    data = random_dataset(rng, 4, 25)
    g = random_dag(rng, 4)
    for crit in CRITERIA:
        cfg = ScoreConfig(criterion=crit)
        per = per_variable_scores(data, g, cfg)
        assert total_score(data, g, cfg) == pytest.approx(sum(per), abs=1e-12)
        for i in range(4):
            assert per[i] == pytest.approx(
                local_score(data, i, g.parents[i], cfg), abs=1e-12)


@given(st.integers(1, 10 ** 6))
@settings(max_examples=60)
def test_covered_arc_reversal_keeps_qnml_bdeu_bdq(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    data = random_dataset(rng, n, int(rng.integers(1, 30)))
    g = random_dag(rng, n)
    arcs = covered_arcs(g)
    if not arcs:
        return
    a, b = arcs[int(rng.integers(len(arcs)))]
    assert is_covered_arc(g, a, b)
    g2 = reverse_covered_arc(g, a, b)
    for crit, tol in (("qnml", 1e-8), ("bdeu", 1e-9), ("bdq", 1e-9)):
        cfg = ScoreConfig(criterion=crit, regret_method="exact")
        assert total_score(data, g, cfg) == pytest.approx(
            total_score(data, g2, cfg), abs=tol)


def test_covered_arc_reversal_changes_fnml():
    # minimal dataset where the per-slice regrets fail to cancel
    data = dataset([[0, 0], [0, 1], [1, 1], [1, 1]], (2, 2))
    g = DagStructure(2, ((), (0,)))
    g2 = reverse_covered_arc(g, 0, 1)
    cfg = ScoreConfig(criterion="fnml", regret_method="exact")
    assert abs(total_score(data, g, cfg)
               - total_score(data, g2, cfg)) > 1e-6


@given(st.integers(1, 10 ** 6))
@settings(max_examples=40)
def test_category_relabeling_invariance(seed):
    # permuting the labels of any column must not move any score
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, 3, int(rng.integers(2, 25)))
    col = int(rng.integers(3))
    perm = rng.permutation(data.arities[col])
    rows = data.rows.copy()
    rows[:, col] = perm[rows[:, col]]
    relabeled = Dataset(data.names, data.arities, rows)
    g = random_dag(rng, 3)
    for crit in CRITERIA:
        cfg = ScoreConfig(criterion=crit, regret_method="exact")
        assert total_score(data, g, cfg) == pytest.approx(
            total_score(relabeled, g, cfg), abs=1e-9)


def test_empty_dataset_scores():
    data = dataset(np.zeros((0, 2)), (2, 2))
    g = DagStructure(2, ((), (0,)))
    for crit in ("qnml", "fnml", "bdeu", "bdq"):
        assert total_score(data, g, ScoreConfig(criterion=crit)) == 0.0
    with pytest.raises(DataError):
        total_score(data, g, ScoreConfig(criterion="bic"))


def test_private_cache_matches_shared(rng):
    data = random_dataset(rng, 3, 20)
    cfg = ScoreConfig(criterion="qnml", regret_method="exact")
    private = RegretCache("exact")
    assert local_score(data, 0, (1, 2), cfg, cache=private) == pytest.approx(
        local_score(data, 0, (1, 2), cfg), abs=1e-15)
