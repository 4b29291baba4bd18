import dataclasses
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bnsl import learner, scores
from bnsl.dataset import MAX_TABLE_CELLS, Dataset
from bnsl.errors import DataError, ResourceLimitError
from bnsl.learner import (_best_parents, _best_sinks, _compress_mask,
                          _expand_mask, _search, compute_local_scores,
                          learn_bruteforce, learn_criteria, learn_datasets,
                          learn_exact)
from bnsl.regret import METHODS
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
            assert np.array_equal(table.scores,
                                  _family_table(data, cfg, max_parents))


def _family_table(data, cfg, max_parents=None):
    """The local-score table rebuilt entry by entry from local_score."""
    n = data.n_vars
    cap = n - 1 if max_parents is None else min(max_parents, n - 1)
    table = np.full((n, 1 << (n - 1)), -np.inf)
    for child in range(n):
        others = [v for v in range(n) if v != child]
        for cm in range(1 << (n - 1)):
            parents = tuple(v for k, v in enumerate(others) if cm >> k & 1)
            if len(parents) <= cap:
                table[child, cm] = local_score(data, child, parents, cfg)
    return table


# the Dirichlet hyperparameters drawn for the criteria that take one
_ALPHAS = {"bdeu": [1.0, 0.3, 9.5], "bdq": [0.5, 1.0, 4.0]}


def draw_config(draw, crit):
    """A config of the criterion with a drawn regret method, and a drawn
    alpha where the criterion takes one."""
    alpha = draw(st.sampled_from(_ALPHAS[crit])) if crit in _ALPHAS else None
    return ScoreConfig(criterion=crit, alpha=alpha,
                       regret_method=draw(st.sampled_from(METHODS)))


@st.composite
def scoring_cases(draw):
    n = draw(st.integers(1, 6))
    arities = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    if draw(st.booleans()):
        # one arity throughout, so many subsets share an arity sequence
        # and are scored as the rows of one batch
        arities = [arities[0]] * n
    n_rows = draw(st.sampled_from([0, 1, 2, 3, 12, 80, 500]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = np.zeros((n_rows, n), dtype=np.int64)
    for j, a in enumerate(arities):
        rows[:, j] = rng.integers(0, a, n_rows)
    if n > 1 and draw(st.booleans()):
        # a duplicated column, folded into the copy's own arity
        i, j = draw(st.permutations(range(n)))[:2]
        rows[:, j] = rows[:, i] % arities[j]
    if n_rows > 1 and draw(st.booleans()):
        rows[n_rows // 2:] = rows[0]
    # declared arities may be wider than the observed values
    declared = [a + draw(st.integers(0, 2)) for a in arities]
    data = Dataset(tuple(f"X{i}" for i in range(n)), declared, rows)
    cfg = draw_config(draw, draw(st.sampled_from(CRITERIA)))
    return data, cfg, draw(st.sampled_from([None, 0, 1, 2]))


def _batched_case():
    """Four ternary variables, N = 80: each batch holds many subsets whose
    float sums depend on the order their cells are added in."""
    rows = np.random.default_rng(0).integers(0, 3, (80, 4))
    return (Dataset(tuple("ABCD"), (3,) * 4, rows),
            ScoreConfig(criterion="bdeu"), None)


def _binary_chain_case():
    """A binary chain of ten variables, each a noisy copy of the one before:
    split into blocks of a few cells, the full set is a set B counted alone
    of 1024 cells, more than its 1-byte codes hold."""
    rng = np.random.default_rng(1)
    rows = np.empty((150, 10), dtype=np.int64)
    rows[:, 0] = rng.integers(0, 2, 150)
    for v in range(1, 10):
        rows[:, v] = rows[:, v - 1] ^ (rng.random(150) < 0.2)
    return (Dataset(tuple(f"X{v}" for v in range(10)), (2,) * 10, rows),
            ScoreConfig(criterion="qnml"), None)


def _same_bits(a, b):
    """Equal bit patterns: -inf where b has it, and 0.0 apart from -0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@given(scoring_cases(), st.booleans(),
       st.sampled_from([2, 12, 64, learner._BLOCK_CELLS]))
@example(_batched_case(), True, learner._BLOCK_CELLS)
@example(_binary_chain_case(), True, 2)
@settings(max_examples=200)
def test_subset_table_equals_per_family_scores(case, cached, block_cells):
    data, cfg, max_parents = case
    if cfg.criterion == "bic" and data.n_rows == 0:
        return  # no BIC score exists; test_table_errors_match covers it
    with pytest.MonkeyPatch.context() as mp:
        if not cached:
            # no kept plan, so each is built anew; every take holds one
            # family's cells, and the join runs one child at a time
            learner._block_plan.cache_clear()
            mp.setattr(learner, "_GATHER_ENTRIES", 0)
        # a budget of a few cells splits every block, down to blocks of one
        # subset; 12 and 64 leave small blocks joined with later variables,
        # counted in one batch when they share a shape
        mp.setattr(learner, "_BLOCK_CELLS", block_cells)
        table = compute_local_scores(data, cfg, max_parents).scores
    # -inf exactly above the cap, every other entry the per-family float
    # bit for bit, its sign included
    assert _same_bits(table, _family_table(data, cfg, max_parents))


def test_tall_table_equals_per_family_scores():
    # chain5 at the harness's largest N: block counts and summed marginals
    # reach their largest values here, and fNML sums the regrets of every
    # parent configuration, where reg(0, r) = 0.0 must leave the sum alone
    from bnsl.bench import bundled_path
    from bnsl.model import load_network, sample

    data = sample(load_network(bundled_path("chain5.json")), 10_000, seed=3)
    configs = [ScoreConfig(criterion=c) for c in CRITERIA]
    configs += [ScoreConfig(criterion="fnml", regret_method=m)
                for m in ("exact", "szp-small-r")]
    for cfg in configs:
        assert _same_bits(compute_local_scores(data, cfg).scores,
                          _family_table(data, cfg)), cfg


def test_mixed_arity_table_equals_per_family_scores():
    # nine variables of arities 2-4 under the default budgets: uncapped,
    # the blocks (7, two variables), (7, one) and (8, none); at cap 2,
    # blocks of three variables counted alone (b = 0) as well
    rng = np.random.default_rng(5)
    arities = tuple(int(a) for a in rng.integers(2, 5, 9))
    rows = np.zeros((400, 9), dtype=np.int64)
    rows[:, 0] = rng.integers(0, arities[0], 400)
    for j in range(1, 9):
        fresh = rng.random(400) < 0.3
        rows[:, j] = np.where(fresh, rng.integers(0, arities[j], 400),
                              rows[:, j - 1] % arities[j])
    data = Dataset(tuple(f"V{i}" for i in range(9)), arities, rows)
    shapes = {cap: {(b, len(bdims)) for b, bdims, *_ in
                    learner._learn_shape(arities, cap)[1]}
              for cap in (None, 2)}
    assert shapes[None] == {(7, 2), (7, 1), (8, 0)}
    assert (0, 3) in shapes[2]
    for crit in CRITERIA:
        cfg = ScoreConfig(criterion=crit)
        for cap in (None, 2):
            assert _same_bits(compute_local_scores(data, cfg, cap).scores,
                              _family_table(data, cfg, cap)), (crit, cap)


def test_cell_term_gathers_hold_one_family_at_most():
    # with no gather budget, every take of a chunk holds one family's cells
    # per tensor row: one subset's counts, whose cell terms the next takes
    # read one order at a time. A budget of 64 cells splits the variables
    # into many small blocks, sets counted alone (b = 0) among them. A take
    # of parent-set counts holds at most the count tensor and is followed
    # by no take of cell terms, so it is not checked
    arities = (2, 3, 2, 3, 2)
    rows = np.random.default_rng(3).integers(0, arities, (60, 5))
    data = Dataset(tuple("ABCDE"), arities, rows)
    take = np.take
    seen = []

    def recorded(a, indices, *args, **kwargs):
        out = take(a, indices, *args, **kwargs)
        seen.append((a.dtype.kind, out.size // out.shape[0]))
        return out

    for crit in CRITERIA:
        cfg = ScoreConfig(criterion=crit)
        for cap in (None, 2):
            seen.clear()
            learner._block_plan.cache_clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(learner, "_GATHER_ENTRIES", 0)
                mp.setattr(learner, "_BLOCK_CELLS", 64)
                mp.setattr(np, "take", recorded)
                table = compute_local_scores(data, cfg, cap).scores
            terms = [size for kind, size in seen if kind == "f"]
            # the largest family: every variable, or three
            k = 2 * 3 * 2 * 3 * 2 if cap is None else 3 * 3 * 2
            assert terms and max(terms) <= k, (crit, cap, max(terms))
            # a chunk's count take, which the take of its cell terms
            # follows, holds one subset's cells, as that take holds one
            # order of them
            chunks = [(size, then) for (kind, size), (after, then)
                      in zip(seen, seen[1:]) if kind + after == "if"]
            assert chunks and all(a == b for a, b in chunks), (crit, cap)
            assert _same_bits(table, _family_table(data, cfg, cap))


def test_capped_blocks_are_counted_in_batches():
    # a cap of two parents over twelve mixed-arity variables splits the
    # subsets into many small blocks; blocks of one shape share one count,
    # so there are far fewer counts than the 299 subsets within the cap
    rng = np.random.default_rng(12)
    arities = (2, 3, 2, 2, 4, 2, 3, 2, 2, 2, 3, 2)
    rows = np.stack([rng.integers(0, a, 300) for a in arities], axis=1)
    data = Dataset(tuple(f"V{i}" for i in range(12)), arities, rows)
    marginals = learner._marginals
    counts = []

    def counted(*args):
        counts.append(args)
        return marginals(*args)

    for crit in CRITERIA:
        cfg = ScoreConfig(criterion=crit)
        counts.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learner, "_marginals", counted)
            table = compute_local_scores(data, cfg, max_parents=2).scores
        assert len(counts) < 30
        assert _same_bits(table, _family_table(data, cfg, 2))


def test_plans_are_kept_per_shape():
    # shapes that share n but differ in arities or cap, and data of one
    # shape but another N, each learned twice in turn: a kept plan must
    # never serve a shape it was not built for
    rng = np.random.default_rng(4)
    cases = []
    for arities in ((2, 3, 2, 2), (3, 2, 2, 2)):
        for n_rows in (10, 10_000):
            rows = np.stack([rng.integers(0, a, n_rows) for a in arities],
                            axis=1)
            data = Dataset(tuple("ABCD"), arities, rows)
            cases += [(data, None), (data, 1)]
    for crit in ("bdeu", "fnml"):
        cfg = ScoreConfig(criterion=crit)
        want = [_family_table(data, cfg, cap) for data, cap in cases]
        learned = [learn_exact(data, cfg, cap).network for data, cap in cases]
        for _ in range(2):
            for (data, cap), table, network in zip(cases, want, learned):
                assert _same_bits(compute_local_scores(data, cfg, cap).scores,
                                  table)
                assert learn_exact(data, cfg, cap).network == network


def test_kept_plans_stay_within_their_budget():
    # every block plan of a binary n = 16 learn: cell and table positions,
    # about 3.5 MiB together. The family orders, some 48 MiB for this
    # shape, are not part of a plan
    arities = (2,) * 16
    shape = learner._learn_shape(arities, None)
    plans = [learner._block_plan(16, arities[:b], bdims,
                                 min(shape.cap, b + len(bdims)))
             for b, bdims, *_ in shape.blocks]
    # the bytes of every array a plan holds, or holds a view of, once
    owners = {}

    def own(part):
        if isinstance(part, np.ndarray):
            while part.base is not None:
                part = part.base
            owners[id(part)] = part.nbytes
        elif isinstance(part, (tuple, list)):
            for item in part:
                own(item)

    own(plans)
    assert len(plans) == 14
    assert sum(owners.values()) <= 4 << 20, sum(owners.values()) / 2 ** 20


def test_only_block_plans_are_kept():
    # the harness shapes: samples of every bundled network and the bundled
    # web8 CSV, under every criterion, uncapped and capped. Their block
    # plans are kept, each built once; the block shapes, which tests
    # shrink through the budgets, and the sink-sweep and join plans are
    # built where they are used
    from bnsl.bench import bundled_path
    from bnsl.dataset import load_dataset
    from bnsl.model import load_network, sample

    cfgs = [ScoreConfig(criterion=c) for c in CRITERIA]
    learner._block_plan.cache_clear()
    for name in ("chain5", "collider5", "mixed6", "web8"):
        net = load_network(bundled_path(f"{name}.json"))
        learn_datasets([sample(net, 100, seed=s) for s in range(3)], cfgs)
    web8 = load_dataset(bundled_path("web8_n500.csv"))
    for cap in (1, 2):
        learn_criteria(web8, cfgs, cap)
    kept = learner._block_plan.cache_info()
    assert 0 < kept.misses == kept.currsize < kept.maxsize, kept
    for built in (learner._learn_shape, learner._build_block_shapes,
                  learner._join_plan, learner._sweep_plan):
        assert not hasattr(built, "cache_info"), built


def _chain_rows(rng, n, n_rows):
    """Binary rows where each variable copies the one before, 30 % noise."""
    rows = np.zeros((n_rows, n), dtype=np.int64)
    rows[:, 0] = rng.integers(0, 2, n_rows)
    for j in range(1, n):
        rows[:, j] = np.where(rng.random(n_rows) < 0.3,
                              rng.integers(0, 2, n_rows), rows[:, j - 1])
    return rows


def test_a_run_builds_each_distinct_network_once():
    # two copies of one dataset in one run, and configs that agree on a
    # DAG, share one network object; every network is what the public
    # constructor builds from its parent sets and names
    from bnsl.structure import DagStructure

    rows = _chain_rows(np.random.default_rng(0), 5, 200)
    data = Dataset(tuple("ABCDE"), (2,) * 5, rows)
    other = Dataset(tuple("abcde"), (2,) * 5, rows)
    cfgs = [ScoreConfig(criterion=c) for c in CRITERIA]
    learned = learn_datasets((data, data, other), cfgs)
    for first, second, renamed in zip(*learned):
        assert first.network is second.network
        assert renamed.network == DagStructure(5, first.network.parents,
                                               other.names)
    for results in learned:
        networks = [res.network for res in results]
        for g in networks:
            assert g == DagStructure(g.n, g.parents, g.names)
        for g, h in zip(networks, networks[1:]):
            assert (g is h) == (g == h)


def test_total_score_sums_the_variables_in_order():
    # nine variables, each config's table in a run of its own dataset: the
    # total is a Python sum over the variables in order, bit for bit, where
    # numpy's pairwise sum gives other bits for some of the five criteria
    n = 9
    data = Dataset(tuple(f"V{i}" for i in range(n)), (2,) * n,
                   _chain_rows(np.random.default_rng(0), n, 200))
    results = learn_criteria(data, [ScoreConfig(criterion=c)
                                    for c in CRITERIA])
    totals = [(res.total_score, res.per_variable) for res in results]
    assert all(total.hex() == float(sum(per)).hex() for total, per in totals)
    assert any(total != float(np.sum(per)) for total, per in totals)


def test_table_errors_match_per_family_errors():
    rows = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.int64)
    empty = Dataset(("A", "B"), (2, 2), rows[:0])
    bic = ScoreConfig(criterion="bic")
    with pytest.raises(DataError, match="at least one data row"):
        local_score(empty, 0, (), bic)
    with pytest.raises(DataError, match="at least one data row"):
        compute_local_scores(empty, bic)
    # a tiny alpha passes ScoreConfig but overflows gammaln
    data = Dataset(("A", "B"), (2, 2), rows)
    tiny = ScoreConfig(criterion="bdeu", alpha=1e-310)
    with pytest.raises(DataError, match="not finite"):
        local_score(data, 0, (1,), tiny)
    with pytest.raises(DataError, match="not finite"):
        compute_local_scores(data, tiny)
    # a family over the dense-table guard: 300^3 cells within the cap.
    # The table refuses it before allocating any count array
    n = 4
    wide = Dataset(tuple("ABCD"), (300,) * n, np.zeros((5, n), np.int64))
    assert 300 ** 3 > MAX_TABLE_CELLS
    with pytest.raises(ResourceLimitError):
        local_score(wide, 0, (1, 2), ScoreConfig())
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            compute_local_scores(wide, ScoreConfig(), max_parents=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # one parent fewer keeps every family at 300^2 cells
    compute_local_scores(wide, ScoreConfig(), max_parents=1)


@st.composite
def batch_cases(draw):
    """Datasets of one shape, a cap and a batch of configs: every criterion
    once, in shuffled order, with drawn hyperparameters and regret methods,
    plus duplicates of some of them and a few more drawn configs. The
    datasets' row counts differ, and now and then one of them has none."""
    n = draw(st.integers(1, 7))
    arities = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    declared = [a + draw(st.integers(0, 1)) for a in arities]
    sizes = draw(st.lists(st.sampled_from([1, 2, 12, 80, 500]), min_size=1,
                          max_size=6))
    if draw(st.integers(0, 3)) == 0:
        sizes[draw(st.integers(0, len(sizes) - 1))] = 0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    datasets = tuple(
        Dataset(tuple(f"X{i}" for i in range(n)), declared,
                np.stack([rng.integers(0, a, n_rows) for a in arities],
                         axis=1).reshape(n_rows, n))
        for n_rows in sizes)
    cfgs = [draw_config(draw, crit)
            for crit in draw(st.permutations(CRITERIA))]
    cfgs += draw(st.lists(st.sampled_from(cfgs), max_size=3))
    cfgs += [draw_config(draw, crit) for crit in draw(
        st.lists(st.sampled_from(CRITERIA), max_size=3))]
    cfgs = draw(st.permutations(cfgs))
    return datasets, tuple(cfgs), draw(st.sampled_from([None, 0, 1, 2, 3]))


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


def _mixed_hyperparameters_case():
    """Configs of one criterion that differ only in the hyperparameter of
    their cell terms, next to configs whose cell terms agree, on two
    datasets of different row counts."""
    rows = np.random.default_rng(1).integers(0, 3, (60, 4))
    cfgs = (ScoreConfig(criterion="bdeu"),
            ScoreConfig(criterion="bdeu", alpha=9.5),
            ScoreConfig(criterion="bdq"),
            ScoreConfig(criterion="bdq", alpha=4.0),
            ScoreConfig(criterion="fnml", regret_method="exact"),
            ScoreConfig(criterion="bic"),
            ScoreConfig(criterion="qnml"))
    return ((Dataset(tuple("ABCD"), (3,) * 4, rows),
             Dataset(tuple("ABCD"), (3,) * 4, rows[:17])), cfgs, None)


@given(batch_cases(), st.sampled_from([learner._BATCH_BYTES, 512, 0]),
       st.sampled_from([learner._BLOCK_CELLS, 64, 12]))
@example(_mixed_hyperparameters_case(), learner._BATCH_BYTES,
         learner._BLOCK_CELLS)
@settings(max_examples=100, deadline=None)
def test_batched_learn_equals_each_config_alone(case, batch_bytes,
                                                block_cells):
    datasets, cfgs, max_parents = case
    # a budget of 512 bytes holds five tables of n = 3, two of n = 4 and
    # one from n = 5 up; 0 learns each config in a run of its own. 64 and
    # 12 cells split the blocks, and the datasets into runs of a few rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_BATCH_BYTES", batch_bytes)
        mp.setattr(learner, "_BLOCK_CELLS", block_cells)
        try:
            batch = learn_datasets(iter(datasets), cfgs, max_parents)
        except DataError as exc:
            batch = exc
    if isinstance(batch, DataError):
        # the error of the first dataset that fails alone
        for data in datasets:
            try:
                learn_criteria(data, cfgs, max_parents)
            except DataError as exc:
                assert str(batch) == str(exc)
                return
        raise batch
    assert len(batch) == len(datasets)
    for data, results in zip(datasets, batch):
        assert len(results) == len(cfgs)
        for cfg, res in zip(cfgs, results):
            alone = learn_criteria(data, (cfg,), max_parents)[0]
            assert res.network == alone.network
            assert _bits(res.per_variable) == _bits(alone.per_variable)
            assert _bits(res.total_score) == _bits(alone.total_score)
    # every stacked table is its dataset's table alone and the per-family
    # table, bit for bit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_BLOCK_CELLS", block_cells)
        tables = _score_tables(datasets, cfgs, max_parents)
    n = datasets[0].n_vars
    assert tables.shape == (len(cfgs), len(datasets), n, 1 << (n - 1))
    for d, data in enumerate(datasets):
        alone = _score_tables((data,), cfgs, max_parents)
        for i, cfg in enumerate(cfgs):
            assert _same_bits(tables[i, d], alone[i, 0])
            assert _same_bits(tables[i, d],
                              _family_table(data, cfg, max_parents))


def _score_tables(datasets, cfgs, max_parents):
    """learner._score_tables of datasets of one arity tuple, each indexed
    as learn_datasets indexes it."""
    shape = learner._learn_shape(datasets[0].arities, max_parents)
    return learner._score_tables([learner._index(data)
                                  for data in datasets], cfgs, shape)


def test_a_record_holds_compact_codes_whatever_the_shape():
    # a record is the dataset's codes alone, one byte a cell up to arity
    # 256 and two from there; one record serves the shape of every cap
    rng = np.random.default_rng(4)
    for arities, dtype in (((2, 3, 4, 2), np.uint8),
                           ((3, 300, 2), np.uint16)):
        n, n_rows = len(arities), 400
        data = Dataset(tuple(f"V{i}" for i in range(n)), arities,
                       rng.integers(0, arities, (n_rows, n)))
        record = learner._index(data)
        codes = record.codes
        assert codes.shape == (n, n_rows) and codes.flags.c_contiguous
        assert codes.dtype == dtype
        assert codes.nbytes == n * n_rows * np.dtype(dtype).itemsize
        assert np.array_equal(codes, data.rows.T)
        cfg = ScoreConfig(criterion="bdeu")
        for max_parents in (None, 1, 2):
            shape = learner._learn_shape(arities, max_parents)
            table = learner._score_tables((record,), (cfg,), shape)[0, 0]
            assert _same_bits(table, _family_table(data, cfg, max_parents))


def _marginal_calls(mp):
    """Patch learner._marginals to count its calls into the returned list."""
    marginals = learner._marginals
    calls = []
    mp.setattr(learner, "_marginals",
               lambda *args: calls.append(1) or marginals(*args))
    return calls


def test_batch_counts_the_data_once():
    # a batch of every criterion counts each block as often as one learn,
    # and so does a batch of ten datasets of one shape
    rng = np.random.default_rng(3)
    arities = (2, 3, 2, 4, 2, 3)
    datasets = [Dataset(tuple(f"V{i}" for i in range(6)), arities,
                        np.stack([rng.integers(0, a, n_rows)
                                  for a in arities], axis=1))
                for n_rows in (200, 10, 350, 1, 200, 60, 0, 90, 200, 31)]
    cfgs = [ScoreConfig(criterion=c) for c in CRITERIA if c != "bic"]
    for cap in (None, 2):
        with pytest.MonkeyPatch.context() as mp:
            counts = _marginal_calls(mp)
            learn_exact(datasets[0], ScoreConfig(), cap)
            alone = len(counts)
            learn_criteria(datasets[0], [ScoreConfig(criterion=c)
                                         for c in CRITERIA], cap)
            assert len(counts) == 2 * alone
            batch = learn_datasets(datasets, cfgs, cap)
            assert len(counts) == 3 * alone
        for data, results in zip(datasets, batch):
            assert results == tuple(dataclasses.replace(
                res, elapsed=results[0].elapsed)
                for res in learn_criteria(data, cfgs, cap))


def test_configs_share_cell_terms_unless_a_field_they_read_differs():
    # each cell function counts its calls; a batch evaluates the cell terms
    # of configs whose cell function and alpha agree once
    rows = np.random.default_rng(5).integers(0, 3, (50, 4))
    data = Dataset(tuple("ABCD"), (3,) * 4, rows)
    calls = []
    counted = {}

    def counting(name):
        crit = scores.criterion(name)
        if crit.cell not in counted:
            def cell(*args, _cell=crit.cell):
                calls.append(_cell)
                return _cell(*args)
            counted[crit.cell] = cell
        return dataclasses.replace(crit, cell=counted[crit.cell])

    def evaluations(cfgs):
        calls.clear()
        learn_criteria(data, cfgs)
        return len(calls)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "criterion", counting)
        once = evaluations([ScoreConfig(criterion="qnml")])
        assert once > 0
        # loglik takes no hyperparameter, and its configs refuse one
        assert evaluations([ScoreConfig(criterion="bic"),
                            ScoreConfig(criterion="qnml"),
                            ScoreConfig(criterion="fnml",
                                        regret_method="exact")]) == once
        for c in ("bic", "fnml", "qnml"):
            with pytest.raises(DataError):
                ScoreConfig(criterion=c, alpha=1.0)
        # bdeu and bdq share terms where their alpha agrees, the default
        # given or not
        assert evaluations([ScoreConfig(criterion="bdeu"),
                            ScoreConfig(criterion="bdeu", alpha=1)]) == once
        assert evaluations([ScoreConfig(criterion="bdq"),
                            ScoreConfig(criterion="bdq", alpha=0.5)]) == once
        assert evaluations([ScoreConfig(criterion="bdeu"),
                            ScoreConfig(criterion="bdeu", alpha=3.0),
                            ScoreConfig(criterion="bdq"),
                            ScoreConfig(criterion="bdq", alpha=2.0)]
                           ) == 4 * once


def test_large_tables_are_learned_in_runs_within_the_budget():
    # with room for two tables, five configs are learned in runs of two,
    # two and one, each run counting the data once, with the results of
    # one batch
    rng = np.random.default_rng(6)
    data = Dataset(tuple(f"V{i}" for i in range(6)), (2,) * 6,
                   rng.integers(0, 2, (120, 6)))
    cfgs = [ScoreConfig(criterion=c) for c in CRITERIA]
    whole = learn_criteria(data, cfgs)
    score_tables = learner._score_tables
    runs = []

    def counted(data, cfgs, max_parents):
        runs.append(len(cfgs))
        return score_tables(data, cfgs, max_parents)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_score_tables", counted)
        mp.setattr(learner, "_BATCH_BYTES", 2 * 8 * 6 << 5)
        split = learn_criteria(data, cfgs)
    assert runs == [2, 2, 1]
    for a, b in zip(whole, split):
        assert a.network == b.network
        assert _bits(a.per_variable) == _bits(b.per_variable)


def test_batch_raises_the_first_failing_configs_error():
    # A, B, C of arities 2, 3, 3 with one parent at most. At this alpha
    # only a family of 9 cells (B, C) gives a non-finite bdeu score, so the
    # first failing child is B; at the smaller one it is A
    rng = np.random.default_rng(0)
    rows = np.stack([rng.integers(0, a, 40) for a in (2, 3, 3)], axis=1)
    data = Dataset(("A", "B", "C"), (2, 3, 3), rows)
    fails_at_b = ScoreConfig(criterion="bdeu", alpha=4e-308)
    fails_at_a = ScoreConfig(criterion="bdeu", alpha=1e-310)
    bdq = ScoreConfig(criterion="bdq", alpha=1e-310)
    qnml = ScoreConfig(criterion="qnml")
    alone = {}
    for cfg in (fails_at_b, fails_at_a, bdq):
        with pytest.raises(DataError, match="not finite") as exc:
            learn_criteria(data, (cfg,), max_parents=1)
        alone[cfg] = str(exc.value)
    assert "'B'" in alone[fails_at_b] and "'A'" in alone[fails_at_a]
    assert len(set(alone.values())) == 3
    batches = [(qnml, fails_at_b), (fails_at_b, fails_at_a),
               (qnml, fails_at_a, fails_at_b), (bdq, fails_at_b, fails_at_a),
               (fails_at_a, qnml, bdq)]
    for mode in ("batch", "by child", "runs"):
        with pytest.MonkeyPatch.context() as mp:
            if mode == "by child":
                # the join runs child by child, with plans built anew, so a
                # later config meets its first failure (at A) before the
                # first config meets its own (at B)
                learner._block_plan.cache_clear()
                mp.setattr(learner, "_GATHER_ENTRIES", 0)
            if mode == "runs":
                # every config in a run of its own
                mp.setattr(learner, "_BATCH_BYTES", 0)
            for cfgs in batches:
                first = next(cfg for cfg in cfgs if cfg in alone)
                with pytest.raises(DataError) as exc:
                    learn_criteria(data, cfgs, max_parents=1)
                assert str(exc.value) == alone[first], cfgs
    # a penalty's error, raised after every config is counted
    empty = Dataset(("A", "B"), (2, 2), rows[:0, :2])
    with pytest.raises(DataError, match="at least one data row"):
        learn_criteria(empty, (qnml, ScoreConfig(criterion="bic")))
    with pytest.raises(DataError, match="no score configs"):
        learn_criteria(data, ())
    # a duplicate config gets its own result, equal to the first's
    bic = ScoreConfig(criterion="bic")
    res = learn_criteria(data, [qnml, bic, qnml, qnml])
    assert len(res) == 4 and res[0] == res[2] == res[3] != res[1]
    assert res[0].network == learn_exact(data, qnml).network


def test_dataset_batch_raises_the_first_failing_datasets_error():
    # two datasets of arities 2, 3, 3 under other names, so each error
    # names its dataset; the tiny alpha fails on both, bic on the empty one
    rng = np.random.default_rng(0)
    rows = np.stack([rng.integers(0, a, 40) for a in (2, 3, 3)], axis=1)
    abc = Dataset(("A", "B", "C"), (2, 3, 3), rows)
    pqr = Dataset(("P", "Q", "R"), (2, 3, 3), rows[::-1])
    short = Dataset(("A", "B", "C"), (2, 3, 3), rows[:5])
    empty = Dataset(("E", "F", "G"), (2, 3, 3), rows[:0])
    tiny = ScoreConfig(criterion="bdeu", alpha=1e-310)
    bic = ScoreConfig(criterion="bic")
    qnml = ScoreConfig(criterion="qnml")
    batches = [(abc, pqr), (pqr, abc), (empty, abc), (abc, empty),
               (short, empty, pqr)]
    for cfgs in ((tiny, bic), (bic, tiny), (qnml, tiny), (qnml, bic)):
        for datasets in batches:
            want = None
            for data in datasets:
                try:
                    learn_criteria(data, cfgs, max_parents=1)
                except DataError as exc:
                    want = str(exc)
                    break
            for mode in ("batch", "runs", "by child"):
                with pytest.MonkeyPatch.context() as mp:
                    if mode == "runs":
                        # one dataset a run
                        mp.setattr(learner, "_BLOCK_CELLS", 1)
                    if mode == "by child":
                        learner._block_plan.cache_clear()
                        mp.setattr(learner, "_GATHER_ENTRIES", 0)
                    if want is None:
                        learn_datasets(datasets, cfgs, max_parents=1)
                        continue
                    with pytest.raises(DataError) as exc:
                        learn_datasets(datasets, cfgs, max_parents=1)
                    assert str(exc.value) == want, (cfgs, datasets, mode)
    # each network carries its own dataset's names
    learned = learn_datasets((abc, pqr), (qnml,))
    assert [r[0].network.names for r in learned] == [abc.names, pqr.names]


def test_dataset_batch_arguments_are_checked_before_their_run():
    rows = np.random.default_rng(1).integers(0, 2, (30, 3))
    data = Dataset(tuple("ABC"), (2, 2, 2), rows)
    wider = Dataset(tuple("ABC"), (2, 3, 2), rows)
    cfgs = (ScoreConfig(),)
    calls = []
    score_tables = learner._score_tables
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_score_tables",
                   lambda *args: calls.append(1) or score_tables(*args))
        with pytest.raises(DataError, match="share their arities"):
            learn_datasets([data, data, wider], cfgs)
        with pytest.raises(DataError, match="no datasets"):
            learn_datasets([], cfgs)
        with pytest.raises(DataError, match="no datasets"):
            learn_datasets(iter(()), cfgs)
        with pytest.raises(DataError, match="must be a Dataset"):
            learn_datasets([data, rows], cfgs)
        # the configs are checked before any dataset is drawn
        with pytest.raises(DataError, match="no score configs"):
            learn_datasets(iter([wider, data]), ())
        assert calls == []
        # in runs of one dataset, the first run is learned when the second
        # is drawn, and the mismatch is raised before the second run
        mp.setattr(learner, "_BLOCK_CELLS", 1)
        with pytest.raises(DataError, match="share their arities"):
            learn_datasets([data, data, wider], cfgs)
        assert calls == [1]


def test_dataset_batch_draws_one_run_at_a_time():
    # runs of two datasets, 3 x 40 x 2 rows within 2^8 cells: each run is
    # learned when the dataset after it is drawn, and no drawing time is
    # part of elapsed
    rng = np.random.default_rng(2)
    drawn = []

    def datasets():
        for k in range(5):
            time.sleep(0.05)
            drawn.append(k)
            yield Dataset(tuple("ABC"), (2, 2, 2),
                          rng.integers(0, 2, (40, 3)))

    seen = []
    score_tables = learner._score_tables
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_BLOCK_CELLS", 1 << 8)
        mp.setattr(learner, "_score_tables", lambda run, *args: seen.append(
            (len(run), len(drawn))) or score_tables(run, *args))
        learned = learn_datasets(datasets(), [ScoreConfig()])
    assert seen == [(2, 3), (2, 5), (1, 5)]
    assert len(learned) == 5
    assert learned[0][0].elapsed < 0.05 * 5


def test_dataset_batch_holds_no_drawn_dataset():
    # in runs of three datasets, 4 x 180-cell tensors within 2160 cells,
    # each dataset is indexed as it is drawn and dropped with its rows: none
    # is alive when the next one is drawn, and each result equals that of
    # its dataset learned alone
    names, arities = tuple("ABCD"), (3, 2, 4, 2)
    sizes = (40, 25, 60, 1, 33, 50, 8)

    def dataset(k):
        rng = np.random.default_rng(k)
        return Dataset(names, arities, rng.integers(0, arities,
                                                    (sizes[k], 4)))

    cfgs = [ScoreConfig(criterion=c) for c in CRITERIA]
    score_tables = learner._score_tables
    for max_parents in (None, 1):
        refs, alive, runs = [], [], []

        def datasets():
            for k in range(len(sizes)):
                alive.append([ref() is not None for pair in refs
                              for ref in pair])
                data = dataset(k)
                refs.append((weakref.ref(data), weakref.ref(data.rows)))
                yield data
                del data

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learner, "_BLOCK_CELLS", 2160)
            mp.setattr(learner, "_score_tables",
                       lambda run, *args: runs.append(len(run))
                       or score_tables(run, *args))
            learned = learn_datasets(datasets(), cfgs, max_parents)
        assert runs == [3, 3, 1]
        assert alive == [[False] * 2 * k for k in range(len(sizes))]
        assert len(learned) == len(sizes)
        for k, results in enumerate(learned):
            alone = learn_criteria(dataset(k), cfgs, max_parents)
            for res, want in zip(results, alone, strict=True):
                assert res.network == want.network
                assert _bits(res.per_variable) == _bits(want.per_variable)
                assert _bits(res.total_score) == _bits(want.total_score)


def test_dataset_runs_stay_within_the_cell_budget():
    # n times a dataset's rows, or its largest block tensor, counts against
    # _BLOCK_CELLS: five 5-variable datasets of 10 000 rows fill a run, and
    # a 12-variable binary dataset (a tensor of 3^11 cells) fills one alone
    rng = np.random.default_rng(8)
    runs = []
    score_tables = learner._score_tables
    cfgs = [ScoreConfig(criterion="qnml")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_score_tables", lambda run, *args: runs.append(
            len(run)) or score_tables(run, *args))
        for n, n_rows, count, want in ((5, 10_000, 12, [5, 5, 2]),
                                       (5, 10, 12, [12]),
                                       (12, 50, 3, [1, 1, 1])):
            runs.clear()
            datasets = [Dataset(tuple(f"V{i}" for i in range(n)), (2,) * n,
                                rng.integers(0, 2, (n_rows, n)))
                        for _ in range(count)]
            learned = learn_datasets(datasets, cfgs)
            assert runs == want
            for data, results in zip(datasets[:2], learned):
                assert results[0].network == learn_exact(data,
                                                         cfgs[0]).network


def test_fourteen_variable_learn_time_and_table_memory():
    # a binary chain with 20 % flips, N = 1000, qNML: the subset table
    # counts blocks of subsets, not 14 * 2^13 families, and holds one
    # batch's marginal tensor of at most _BLOCK_CELLS cells at a time
    n, n_rows = 14, 1000
    rng = np.random.default_rng(14)
    rows = np.zeros((n_rows, n), dtype=np.int64)
    rows[:, 0] = rng.integers(0, 2, n_rows)
    for j in range(1, n):
        flip = rng.random(n_rows) < 0.2
        rows[:, j] = np.where(flip, 1 - rows[:, j - 1], rows[:, j - 1])
    data = Dataset(tuple(f"V{i}" for i in range(n)), (2,) * n, rows)
    cfg = ScoreConfig(criterion="qnml")
    start = time.perf_counter()
    res = learn_exact(data, cfg)
    assert time.perf_counter() - start < 3.0
    assert res.network.arc_count() >= n - 1
    tracemalloc.start()
    try:
        compute_local_scores(data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


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


def _picks(found, count, n):
    """A search's (tables, n) arrays of sinks, parent masks and scores, as
    per table its (sink, mask, score) picks in backtracking order."""
    sinks, masks, scores = found
    assert sinks.shape == masks.shape == scores.shape == (count, n)
    assert sinks.dtype.kind == masks.dtype.kind == "i"
    assert scores.dtype == np.float64
    return [list(zip(*rows)) for rows in zip(sinks.tolist(), masks.tolist(),
                                              scores.tolist())]


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
        # a second table of the same shape, searched alone and stacked
        other = np.where(np.isfinite(scores), rng.normal(size=shape), -np.inf)
        stack = np.stack((scores, other, scores))
        ref_score, ref_set = _reference_best_parents(scores)
        best_score = _best_parents(scores)
        assert np.array_equal(best_score, ref_score)
        ref_best, ref_sink = _reference_sinks(ref_score)
        assert np.array_equal(_best_sinks(best_score), ref_best)
        # a stack of tables along a last axis, one column per table
        other_best = _reference_sinks(_reference_best_parents(other)[0])[0]
        stacked_best = np.stack((ref_best, other_best, ref_best), axis=-1)
        stacked_score = _best_parents(np.moveaxis(stack, 0, -1))
        assert np.array_equal(stacked_score[..., 1],
                              _reference_best_parents(other)[0])
        assert np.array_equal(_best_sinks(stacked_score), stacked_best)
        # wide layers are scored in chunks; force one subset per chunk, and
        # pick parents one sink at a time
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learner, "_GATHER_ENTRIES", 0)
            assert np.array_equal(_best_sinks(best_score), ref_best)
            assert np.array_equal(_best_sinks(stacked_score), stacked_best)
            chunked = _picks(_search(scores[None]), 1, n)
            chunked_stack = _picks(_search(stack), 3, n)
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
        assert _picks(_search(scores[None]), 1, n) == [want]
        assert chunked == [want]
        # a stacked search picks what each table's own search picks
        alone = _picks(_search(other[None]), 1, n)[0]
        assert _picks(_search(stack), 3, n) == chunked_stack == [want, alone,
                                                                  want]


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


def test_learn_arguments_are_checked_before_any_work(rng):
    data = random_dataset(rng, 4, 30)
    cfg = ScoreConfig(criterion="bic")
    learns = (lambda c, cap: learn_criteria(data, [cfg, c], cap),
              lambda c, cap: learn_exact(data, c, cap),
              lambda c, cap: compute_local_scores(data, c, cap))

    def no_work(*args):
        raise AssertionError("an argument was not checked")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_score_tables", no_work)
        for learn in learns:
            for cap in (1.5, 1.0, math.nan, "1", True, -1):
                with pytest.raises(DataError, match="max_parents"):
                    learn(cfg, cap)
            for other in ("qnml", None, {"criterion": "bic"}):
                with pytest.raises(DataError, match="ScoreConfig"):
                    learn(other, 1)
    # numpy integers are integers
    want = learn_exact(data, cfg, 1)
    assert learn_exact(data, cfg, np.int64(1)).network == want.network
    assert compute_local_scores(data, cfg, np.int8(1)).max_parents == 1


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
