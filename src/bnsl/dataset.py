"""Categorical datasets, contingency counting and empirical conditional entropy.

Data is held as an N x n matrix of category indices. Parent configurations
are indexed mixed-radix over the parent variables in ascending index order,
with the last parent varying fastest, so configuration j of parents (p1 < p2)
is value(p1) * arity(p2) + value(p2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ResourceLimitError, integer

# dense q x r contingency tables are refused beyond this many cells
MAX_TABLE_CELLS = 1 << 24


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable matrix of category indices with per-column names and arities."""

    names: tuple[str, ...]
    arities: tuple[int, ...]
    rows: np.ndarray

    def __post_init__(self):
        # a private copy: a caller's array stays writable, and a later write
        # to it cannot slip an out-of-range code past the checks below
        rows = np.array(self.rows, dtype=np.int64, order="C")
        if rows.ndim != 2:
            raise DataError("rows must be a two-dimensional array")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "arities", tuple(integer(a, "an arity")
                                                 for a in self.arities))
        object.__setattr__(self, "rows", rows)
        n = rows.shape[1]
        if n < 1:
            raise DataError("a dataset needs at least one variable")
        if len(self.names) != n or len(self.arities) != n:
            raise DataError("names and arities must match the column count")
        if len(set(self.names)) != n:
            raise DataError("variable names must be unique")
        if any(a < 1 for a in self.arities):
            raise DataError("arities must be at least 1")
        if rows.size:
            # per-column maxima, not an N x n comparison
            if rows.min() < 0 or (rows.max(axis=0) >= self.arities).any():
                raise DataError("cell value out of range for its column arity")
        rows.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_vars(self) -> int:
        return self.rows.shape[1]


def load_dataset(path, declared_arities=None) -> Dataset:
    """Read a CSV file with a header row of variable names.

    Distinct strings in each column are mapped to indices by sorted order, so
    the encoding is independent of row order. Declared arities may widen a
    column beyond its observed values (the unseen categories are the top
    indices) but may never narrow it.
    """
    return load_datasets_shared([path], declared_arities)[0]


def write_dataset(data: Dataset, path) -> None:
    """Write a dataset as CSV to a path or an open text stream.

    Category indices are zero-padded to a fixed width per column whenever the
    arity exceeds 10, so that reloading (which sorts distinct strings) maps
    them back in numeric order.
    """
    widths = [len(str(r - 1)) for r in data.arities]

    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(data.names)
        for row in data.rows:
            writer.writerow([str(int(v)).zfill(w) for v, w in zip(row, widths)])

    if hasattr(path, "write"):
        emit(path)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            emit(fh)


def load_datasets_shared(paths, declared_arities=None) -> list[Dataset]:
    """Load several CSV files with one shared category mapping per column.

    Needed when separate files (a train/test pair, say) must agree on the
    index assigned to each category string; per-file sorted mappings would
    otherwise drift whenever one file misses a category.
    """
    if not paths:
        raise DataError("no dataset files given")
    headers = []
    raws = []
    for path in paths:
        # utf-8-sig drops a byte-order mark, which would otherwise become
        # part of the first variable name
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                headers.append(next(reader))
                raws.append(list(reader))
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            except UnicodeDecodeError:
                raise DataError(f"{path}: not UTF-8 text") from None
    for path, names in zip(paths, headers):
        if not names or names == [""]:
            raise DataError(f"{path}: empty header")
        if len(set(names)) != len(names):
            raise DataError(f"{path}: duplicate variable names in header")
    if any(h != headers[0] for h in headers):
        raise DataError("datasets must share an identical header")
    names = headers[0]
    n = len(names)
    if declared_arities is not None:
        if len(declared_arities) != n:
            raise DataError("declared arities must match the header length")
        declared_arities = [integer(a, "a declared arity")
                            for a in declared_arities]
        if any(a < 1 for a in declared_arities):
            raise DataError("declared arities must be at least 1")
    columns = []
    for path, raw in zip(paths, raws):
        for k, row in enumerate(raw):
            if len(row) != n:
                raise DataError(
                    f"{path}: row {k + 2} has {len(row)} fields, expected {n}")
            if any(v == "" for v in row):
                raise DataError(f"{path}: empty cell on row {k + 2}")
        columns.append([[row[j] for row in raw] for j in range(n)])
    # one set per column and file, pooled by union: cheaper than adding
    # every cell to the pooled sets one at a time
    pooled = [set().union(*(set(cols[j]) for cols in columns))
              for j in range(n)]
    where = ", ".join(str(p) for p in paths)
    lookups = []
    arities = []
    for j in range(n):
        lookups.append({v: k for k, v in enumerate(sorted(pooled[j]))})
        arity = max(len(pooled[j]), 1)
        if declared_arities is not None:
            declared = declared_arities[j]
            if declared < arity:
                raise DataError(
                    f"{where}: declared arity {declared} for column "
                    f"{names[j]} is smaller than the {arity} observed values")
            arity = declared
        arities.append(arity)
    out = []
    for cols in columns:
        codes = np.zeros((len(cols[0]), n), dtype=np.int64)
        for j in range(n):
            if cols[j]:
                codes[:, j] = [lookups[j][v] for v in cols[j]]
        out.append(Dataset(tuple(names), tuple(arities), codes))
    return out


def distinct(values) -> np.ndarray:
    """The distinct values of an array, ascending, as np.unique gives them
    but by a sort and a comparison of neighbours: numpy 2.4's np.unique
    imports numpy.ma, which no learn needs otherwise."""
    values = np.sort(values, axis=None)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def config_index(values, parents, arities) -> int:
    """Mixed-radix parent-configuration index of one row of values."""
    j = 0
    for p in parents:
        j = j * arities[p] + int(values[p])
    return j


def config_indices(rows: np.ndarray, parents, arities) -> np.ndarray:
    """Vectorized config_index over the rows of an N x n matrix."""
    if not parents:
        return np.zeros(rows.shape[0], dtype=np.int64)
    dims = tuple(arities[p] for p in parents)
    return np.ravel_multi_index(tuple(rows[:, p] for p in parents), dims)


def contingency(data: Dataset, child: int, parents) -> np.ndarray:
    """Count (parent configuration, child value) pairs over the whole dataset.

    Returns a q x r int64 array: one row per parent configuration over the
    FULL configuration space (q rows even when some configurations never
    occur) and one column per child value.

    Args:
        data: the dataset to count over.
        child: index of the child variable.
        parents: strictly ascending indices of the parent variables.
    """
    parents = tuple(int(p) for p in parents)
    _check_family(data.n_vars, child, parents)
    r = data.arities[child]
    q = 1
    for p in parents:
        q *= data.arities[p]
    if q * r > MAX_TABLE_CELLS:
        raise ResourceLimitError(
            f"contingency table with {q} x {r} cells exceeds the dense-table "
            f"guard of {MAX_TABLE_CELLS}")
    # the child as the last, fastest-moving digit of one mixed-radix index
    flat = config_indices(data.rows, (*parents, child), data.arities)
    return np.bincount(flat, minlength=q * r).reshape(q, r)


# k ln k at index k, grown on demand and never shrunk. Each entry is
# float(k) * math.log(k), libm's log, which is what scipy.special.xlogy(k, k)
# computes, so the scores match it bit for bit. k * np.log(k) is not a
# substitute: numpy's SIMD log rounds differently (95 of the k <= 2 * 10**6
# with numpy 2.4 on an AVX-512 x86-64 CPU).
_xlogx = np.zeros(1)


def _xlogx_table(max_count: int) -> np.ndarray:
    """The k ln k table, first grown to cover 0..max_count if it falls short."""
    global _xlogx
    table = _xlogx
    if max_count >= len(table):
        # doubling past the largest count so far keeps regrowth rare while
        # the table stays O(largest count) long
        size = 2 * (max_count + 1)
        grown = np.empty(size)
        grown[:len(table)] = table
        grown[len(table):] = [float(k) * math.log(k)
                              for k in range(len(table), size)]
        _xlogx = table = grown
    return table


def counts_loglik(counts) -> float:
    """Maximized conditional log-likelihood of a q x r contingency array.

    Equals sum_jk N_jk ln(N_jk / N_j) with 0 ln 0 = 0; always <= 0. Counts
    may be any integer array, or floats holding whole numbers.
    """
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        values = counts.astype(np.float64)
        if not (np.isfinite(values).all() and (values == np.floor(values)).all()):
            raise DataError("counts must be whole numbers")
        counts = values.astype(np.int64)
    if counts.min(initial=0) < 0:
        raise DataError("counts must be nonnegative")
    return _loglik(counts, counts.sum(axis=1))


def _loglik(counts: np.ndarray, totals: np.ndarray) -> float:
    """counts_loglik of a checked count array and its row totals."""
    xlogx = _xlogx_table(int(totals.max(initial=0)))
    raw = float(xlogx[counts].sum() - xlogx[totals].sum())
    return min(0.0, raw)


def empirical_cond_entropy(data: Dataset, child: int, parents) -> float:
    """Empirical conditional entropy H(child | parents) in nats."""
    if data.n_rows == 0:
        raise DataError("conditional entropy needs at least one row")
    counts = contingency(data, child, parents)
    return -_loglik(counts, counts.sum(axis=1)) / data.n_rows


def _check_family(n: int, child: int, parents) -> None:
    if not 0 <= child < n:
        raise DataError(f"child index {child} out of range for {n} variables")
    for p in parents:
        if not 0 <= p < n:
            raise DataError(f"parent index {p} out of range for {n} variables")
    if child in parents:
        raise DataError(f"variable {child} cannot be its own parent")
    if list(parents) != sorted(set(parents)):
        raise DataError("parents must be strictly ascending without duplicates")
