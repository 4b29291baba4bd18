import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import xlogy

from bnsl import dataset
from bnsl.dataset import (Dataset, config_index, config_indices, contingency,
                          counts_loglik, distinct, empirical_cond_entropy,
                          load_dataset, load_datasets_shared, write_dataset)
from bnsl.errors import DataError, ResourceLimitError

from conftest import random_dataset


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_one_shared(path, declared_arities=None):
    return load_datasets_shared([path], declared_arities)[0]


# load_dataset delegates to the shared loader; both entry points must
# validate alike
LOADERS = (load_dataset, load_one_shared)


def test_load_maps_categories_in_sorted_order(tmp_path):
    # a UTF-8 byte-order mark is not part of the first variable name
    for text in ("A,B\nyes,1\nno,0\nno,2\n", "\ufeffA,B\nyes,1\nno,0\nno,2\n"):
        for load in LOADERS:
            data = load(write(tmp_path, text))
            assert data.names == ("A", "B")
            assert data.arities == (2, 3)
            # "no" < "yes", "0" < "1" < "2"
            assert data.rows.tolist() == [[1, 1], [0, 0], [0, 2]]


def test_load_is_row_order_independent(tmp_path):
    a = load_dataset(write(tmp_path, "A\nx\ny\nz\n", "a.csv"))
    b = load_dataset(write(tmp_path, "A\nz\ny\nx\n", "b.csv"))
    assert sorted(a.rows[:, 0].tolist()) == sorted(b.rows[:, 0].tolist())


def test_declared_arities_widen_but_never_narrow(tmp_path):
    path = write(tmp_path, "A,B\n0,0\n1,1\n2,0\n")
    for load in LOADERS:
        wide = load(path, declared_arities=(4, 2))
        assert wide.arities == (4, 2)
        assert load(path, declared_arities=(np.int64(3), 2)).arities == (3, 2)
        # too narrow, too short, too long, below 1, not integers
        for declared in ((2, 2), (4,), (4, 2, 2), (4, 0), (2.7, 3), (3.0, 2),
                         (True, 2), ("3", 2)):
            with pytest.raises(DataError):
                load(path, declared_arities=declared)


def test_load_rejects_malformed_files(tmp_path):
    for load in LOADERS:
        for text in ("", "\n", "A,A\n0,0\n", "A,B\n0\n", "A,B\n0,\n"):
            with pytest.raises(DataError):
                load(write(tmp_path, text))
    with pytest.raises(DataError):
        load_datasets_shared([])


def test_empty_dataset_is_allowed(tmp_path):
    data = load_dataset(write(tmp_path, "A,B\n"))
    assert data.n_rows == 0 and data.arities == (1, 1)


def test_roundtrip_preserves_codes(tmp_path, rng):
    data = random_dataset(rng, 4, 30)
    path = tmp_path / "r.csv"
    write_dataset(data, path)
    back = load_dataset(path, declared_arities=data.arities)
    assert back.arities == data.arities
    assert np.array_equal(back.rows, data.rows)


def test_roundtrip_pads_wide_arity_columns(tmp_path):
    # 12 categories: without padding, "10" would sort before "2"
    rows = np.arange(12, dtype=np.int64).reshape(-1, 1)
    data = Dataset(("A",), (12,), rows)
    path = tmp_path / "wide.csv"
    write_dataset(data, path)
    back = load_dataset(path)
    assert np.array_equal(back.rows, data.rows)


def test_shared_loading_pools_category_codebooks(tmp_path):
    p1 = write(tmp_path, "A\nred\nblue\n", "t1.csv")
    p2 = write(tmp_path, "A\ngreen\n", "t2.csv")
    d1, d2 = load_datasets_shared([p1, p2])
    assert d1.arities == d2.arities == (3,)
    # pooled sorted order: blue=0, green=1, red=2
    assert d1.rows[:, 0].tolist() == [2, 0]
    assert d2.rows[:, 0].tolist() == [1]


def test_shared_loading_requires_identical_headers(tmp_path):
    p1 = write(tmp_path, "A,B\n0,0\n", "t1.csv")
    p2 = write(tmp_path, "B,A\n0,0\n", "t2.csv")
    with pytest.raises(DataError):
        load_datasets_shared([p1, p2])


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(("A", "A"), (2, 2), np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(DataError):
        Dataset(("A",), (2,), np.array([[2]], dtype=np.int64))
    with pytest.raises(DataError):
        Dataset(("A",), (0,), np.zeros((0, 1), dtype=np.int64))
    # an arity is an integer, a numpy one included, never truncated to one
    rows = np.zeros((2, 2), dtype=np.int64)
    for arity in (2.9, True, "3", 2.0):
        with pytest.raises(DataError, match="must be an integer"):
            Dataset(("A", "B"), (arity, 2), rows)
    assert Dataset(("A", "B"), (np.int64(3), 2), rows).arities == (3, 2)
    # each column's values lie in 0 .. arity - 1, the last column's too
    names, arities = ("A", "B", "C"), (2, 3, 4)
    top = np.array([[0, 0, 0], [1, 2, 3], [1, 0, 2]], dtype=np.int64)
    assert Dataset(names, arities, top).rows.max(axis=0).tolist() == [1, 2, 3]
    for row, col, value in ((2, 0, -1), (0, 2, -1), (1, 2, 4), (2, 2, 9)):
        bad = top.copy()
        bad[row, col] = value
        with pytest.raises(DataError,
                           match="cell value out of range for its column"):
            Dataset(names, arities, bad)


@given(st.lists(st.integers(-3, 6), max_size=30), st.integers(1, 3))
def test_distinct_equals_np_unique(values, width):
    # np.unique is the reference; distinct flattens any shape as it does
    array = np.array(values[:len(values) // width * width], dtype=np.int64)
    for shaped in (array, array.reshape(-1, width)):
        got, want = distinct(shaped), np.unique(shaped)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert distinct(7).tolist() == [7]
    assert distinct([5, 1, 5]).tolist() == [1, 5]


def test_rows_are_read_only(rng):
    data = random_dataset(rng, 3, 5)
    with pytest.raises(ValueError):
        data.rows[0, 0] = 0


def test_caller_rows_stay_writable_and_apart():
    # the dataset keeps its own copy of a C-contiguous int64 array, so the
    # caller may still write to it, and such a write, an out-of-range code
    # included, does not reach the validated rows
    rows = np.zeros((3, 2), dtype=np.int64)
    data = Dataset(("A", "B"), (2, 2), rows)
    rows[0, 0] = 5
    assert rows.flags.writeable
    assert data.rows.tolist() == [[0, 0]] * 3
    assert not data.rows.flags.writeable


def test_config_index_last_parent_moves_fastest():
    arities = (2, 3, 4)
    # parents (1, 2): index = v1 * 4 + v2
    assert config_index((0, 2, 3), (1, 2), arities) == 2 * 4 + 3
    rows = np.array([[0, 2, 3], [1, 0, 1]], dtype=np.int64)
    assert config_indices(rows, (1, 2), arities).tolist() == [11, 1]


@given(st.integers(2, 4), st.integers(0, 40), st.integers(1, 10 ** 6))
def test_contingency_matches_naive_counting(n_vars, n_rows, seed):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n_vars, n_rows)
    child = int(rng.integers(n_vars))
    others = [j for j in range(n_vars) if j != child]
    k = int(rng.integers(0, len(others) + 1))
    parents = tuple(sorted(rng.choice(others, size=k, replace=False).tolist()))
    counts = contingency(data, child, parents)
    q = math.prod(data.arities[p] for p in parents)
    naive = np.zeros((q, data.arities[child]), dtype=np.int64)
    for row in data.rows:
        naive[config_index(row, parents, data.arities), row[child]] += 1
    assert counts.shape == naive.shape
    assert counts.dtype == np.int64
    assert np.array_equal(counts, naive)


def test_contingency_rejects_bad_families(rng):
    data = random_dataset(rng, 3, 10)
    with pytest.raises(DataError):
        contingency(data, 0, (0,))
    with pytest.raises(DataError):
        contingency(data, 0, (2, 1))
    with pytest.raises(DataError):
        contingency(data, 0, (1, 1))


def test_contingency_cell_guard():
    n = 40
    data = Dataset(tuple(f"X{i}" for i in range(n)), (2,) * n,
                   np.zeros((1, n), dtype=np.int64))
    with pytest.raises(ResourceLimitError):
        contingency(data, 0, tuple(range(1, n)))


def test_counts_loglik_hand_value():
    counts = np.array([[3.0, 1.0]])
    expected = 3 * np.log(3 / 4) + 1 * np.log(1 / 4)
    assert counts_loglik(counts) == pytest.approx(expected)
    # all mass on one cell: exactly zero, not a tiny negative
    counts = np.array([[5.0, 0.0]])
    assert counts_loglik(counts) == 0.0


def test_counts_loglik_is_bit_identical_to_xlogy(monkeypatch):
    # the k ln k table replaced scipy's xlogy; the scores, and so the
    # learned networks, depend on every bit of it
    monkeypatch.setattr(dataset, "_xlogx", np.zeros(1))
    rng = np.random.default_rng(7)
    largest = 0
    # small maxima first, so the table grows several times; 60 last reads
    # a table grown far past it
    for top in (1, 3, 40, 700, 10 ** 4, 10 ** 5, 60):
        for _ in range(5):
            q, r = (int(v) for v in rng.integers(1, 9, 2))
            counts = rng.integers(0, top + 1, (q, r))
            totals = counts.sum(axis=1)
            old = xlogy(counts, counts).sum() - xlogy(totals, totals).sum()
            assert counts_loglik(counts) == min(0.0, float(old))
            largest = max(largest, int(totals.max()))
            assert largest < len(dataset._xlogx) <= 2 * (largest + 1)
    # numpy's own log misses xlogy at k = 9170 and 19143, among others
    k = np.arange(len(dataset._xlogx))
    assert np.array_equal(dataset._xlogx, xlogy(k, k))
    assert counts_loglik(np.array([[9170, 19143]])) == (
        xlogy(9170, 9170) + xlogy(19143, 19143) - xlogy(28313, 28313))
    assert counts_loglik(np.zeros((4, 3), dtype=np.int64)) == 0.0
    whole = np.array([[3.0, 1.0], [0.0, 7.0]])
    assert counts_loglik(whole) == counts_loglik(whole.astype(np.int64))
    for bad in ([[1.5, 2.0]], [[np.nan, 1.0]], [[np.inf, 1.0]], [[-1, 2]]):
        with pytest.raises(DataError):
            counts_loglik(np.array(bad))


def test_empirical_cond_entropy(rng):
    data = random_dataset(rng, 2, 50)
    h = empirical_cond_entropy(data, 0, (1,))
    assert 0.0 <= h <= np.log(data.arities[0]) + 1e-12
    empty = Dataset(("A",), (2,), np.zeros((0, 1), dtype=np.int64))
    with pytest.raises(DataError):
        empirical_cond_entropy(empty, 0, ())
