"""Globally optimal structure search.

Three-stage dynamic program over variable subsets: local scores for every
(child, candidate parent set), best parent set per child within every
candidate set, then a best-sink sweep over subsets of all variables with
backtracking. Finds a provably score-optimal network for any decomposable
criterion; complexity is O(n 2^n) table entries, which caps n at 20.

The local-score table counts each variable subset once, not each of the
n 2^(n-1) families (Silander & Myllymaki, UAI 2006): a family's cells are
those of its subset, and every criterion's remaining terms depend on the
parent set and the child arity alone.

The two search stages keep scores only; ties are resolved once, during
backtracking (see _search).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataset import MAX_TABLE_CELLS, Dataset
from .errors import DataError, ResourceLimitError
from .regret import shared_cache
from .scores import ScoreConfig, criterion
from .structure import (DagStructure, dag_from_masks, enumerate_dags,
                        mask_to_parents)

MAX_VARS = 20
BRUTEFORCE_MAX_VARS = 5


@dataclass(frozen=True)
class LocalScoreTable:
    """Local scores as one read-only float64 array of shape n x 2^(n-1).

    Row c is child c; column m is the parent set whose bits index the other
    variables in ascending order (see _compress_mask). Parent sets larger
    than max_parents hold -inf.
    """

    n: int
    scores: np.ndarray
    max_parents: int | None

    def entry_count(self) -> int:
        return int(np.isfinite(self.scores).sum())


@dataclass(frozen=True)
class LearnResult:
    network: DagStructure
    total_score: float
    per_variable: tuple[float, ...]
    elapsed: float


# a non-finite entry is a DataError, so the operations that make one stay quiet
@np.errstate(invalid="ignore")
def compute_local_scores(data: Dataset, cfg: ScoreConfig,
                         max_parents: int | None = None) -> LocalScoreTable:
    """Score every admissible (child, parent set) pair, counting each
    variable subset once.

    A family {c} + P has the cells of the subset T = P + {c}, and every
    criterion's other terms depend on P and the child arity alone (see
    scores.Criterion). So the subsets T with |T| <= cap + 1 are visited in
    increasing-mask order, each with one bincount: its mixed-radix index is
    x_v * cells(T - v) + index(T - v), v the lowest variable of T, and
    T - v was visited before T. A stack of one index per subset size holds
    the indices still needed. T's cell terms are summed once per child, in
    that family's own order; when |T| <= cap, its parent-set terms are kept
    as well. Each entry equals local_score of its family bit for bit.
    """
    n = data.n_vars
    if max_parents is not None and max_parents < 0:
        raise DataError("max_parents must be nonnegative")
    if n > MAX_VARS:
        raise ResourceLimitError(
            f"{n} variables exceed the subset search limit of {MAX_VARS}")
    cap = n - 1 if max_parents is None else min(max_parents, n - 1)
    arities = data.arities
    largest = math.prod(sorted(arities, reverse=True)[:cap + 1])
    if largest > MAX_TABLE_CELLS:
        raise ResourceLimitError(
            f"a family with {largest} cells exceeds the dense-table guard of "
            f"{MAX_TABLE_CELLS}")
    crit = criterion(cfg.criterion)
    cache = shared_cache(cfg.regret_method)
    n_rows = data.n_rows
    child_arities = sorted(set(arities))
    half = 1 << (n - 1)
    popcount = _popcounts(n)
    # per parent set P: its parent term, and its penalty per child arity
    parent = np.zeros(2 * half)
    penalty = np.zeros((len(child_arities), 2 * half))
    scores = np.full((n, half), -np.inf)
    flat = scores.reshape(-1)
    columns = data.rows.T.copy()
    # per subset size: (index, axis lengths, cells, flat table positions of
    # its families, children ascending) of the last subset of that size
    stack = [None] * (cap + 2)
    stack[0] = (np.zeros(n_rows, dtype=np.int64), (), 1, [])
    for t in np.flatnonzero(popcount <= cap + 1).tolist():
        k = t.bit_count()
        index, dims, cells, pos = stack[max(k - 1, 0)]
        if t:
            low = t & -t
            v = low.bit_length() - 1
            index = columns[v] * cells + index
            dims = (arities[v], *dims)
            cells *= arities[v]
            # child v has parents t - v, all above v; the other children
            # gain parent v, which keeps bit v in their compressed masks
            pos = [v * half + ((t ^ low) >> (v + 1) << v),
                   *(p | low for p in pos)]
        counts = np.bincount(index, minlength=cells)
        if k <= cap:
            stack[k] = (index, dims, cells, pos)
            parent[t] = crit.parent(counts, n_rows, cfg)
            for i, r in enumerate(child_arities):
                penalty[i, t] = crit.penalty(counts, r, n_rows, cfg, cache)
        if k:
            flat[pos] = _family_sums(crit.cell(counts, cells, n_rows, cfg),
                                     dims)
    admissible = np.flatnonzero(popcount[:half] <= cap)
    for c in range(n):
        p = _expand_mask(admissible, c)
        row = crit.join(scores[c, admissible], parent[p],
                        penalty[child_arities.index(arities[c]), p])
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            raise DataError(f"{cfg.criterion} local score of "
                            f"{data.names[c]!r} is {row[bad[0]]}, not finite")
        scores[c, admissible] = row
    scores.flags.writeable = False
    return LocalScoreTable(n, scores, max_parents)


# a subset's family orders are gathered through one cached permutation up to
# this many entries (children x cells), child by child beyond it
_GATHER_ENTRIES = 1 << 17


def _family_sums(terms: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Per child of a subset, the sum of its cell terms in that family's order.

    terms is indexed mixed-radix over the subset's variables ascending, with
    axis lengths dims. Child i sums with axis i moved last, the layout of
    dataset.contingency, so each sum is the family's own 1-D float sum; a
    row sum of a C-contiguous array is bitwise that same sum.
    """
    if len(dims) * terms.size <= _GATHER_ENTRIES:
        return terms[_family_orders(dims)].sum(axis=1)
    cube = terms.reshape(dims)
    return np.array([np.moveaxis(cube, i, -1).ravel().sum()
                     for i in range(len(dims))])


@lru_cache(maxsize=32)
def _family_orders(dims: tuple[int, ...]) -> np.ndarray:
    """Row i lists a subset's cells in the family order of its child i."""
    cube = np.arange(math.prod(dims)).reshape(dims)
    return np.stack([np.moveaxis(cube, i, -1).ravel()
                     for i in range(len(dims))])


def _popcounts(n: int) -> np.ndarray:
    """Bit count of every mask below 2^n, as int8."""
    popcount = np.zeros(1 << n, dtype=np.int8)
    for b in range(n):
        popcount[1 << b:2 << b] = popcount[:1 << b] + 1
    return popcount


def _compress_mask(mask, child):
    return ((mask >> (child + 1)) << child) | (mask & ((1 << child) - 1))


def _expand_mask(mask: int, child: int) -> int:
    return ((mask >> child) << (child + 1)) | (mask & ((1 << child) - 1))


def _best_parents(scores: np.ndarray) -> np.ndarray:
    """For every child (row) and candidate set C, the best score of a subset.

    A max-zeta transform over the subset lattice, all children at once:
    start each candidate set with its own score, then fold in the best of
    each one-smaller subset, one bit at a time. max is exact, so every
    result is bitwise equal to one entry of its row.
    """
    rows, size = scores.shape
    best = scores.copy()
    for b in range(size.bit_length() - 1):
        # axis 2 pairs every candidate set without bit b (index 0) with the
        # same set plus bit b (index 1)
        v = best.reshape(rows, -1, 2, 1 << b)
        np.maximum(v[:, :, 0], v[:, :, 1], out=v[:, :, 1])
    return best


# the sink sweep scores at most this many subsets of one layer at a time,
# which bounds its n x chunk temporaries
_SWEEP_CHUNK = 1 << 13


def _best_sinks(best_score: np.ndarray, popcount: np.ndarray) -> np.ndarray:
    """Best network score of every variable subset w.

    Subsets are swept one popcount layer at a time, so every subset one
    smaller is final before w is scored. A wide layer is scored in chunks.
    """
    n = best_score.shape[0]
    sinks = np.arange(n)[:, None]
    best = np.zeros(1 << n)
    for k in range(1, n + 1):
        layer = np.flatnonzero(popcount == k)
        for start in range(0, len(layer), _SWEEP_CHUNK):
            w = layer[start:start + _SWEEP_CHUNK]
            # row s: w without sink s, meaningful only where s is in w
            rest = w ^ (1 << sinks)
            best[w] = np.where(rest < w, best[rest] + best_score[
                sinks, _compress_mask(rest, sinks)], -np.inf).max(axis=0)
    return best


def _search(scores: np.ndarray) -> list[tuple[int, int, float]]:
    """(sink, parent mask, local score) of an optimal network, last sink first.

    Ties are broken here, once per variable: the smallest sink whose sum
    (the sweep's own float addition) reaches the subset's best, then the
    parent subset of smallest cardinality, then smallest mask, whose score
    equals the fold's best exactly.
    """
    n = scores.shape[0]
    popcount = _popcounts(n)
    best_score = _best_parents(scores)
    best = _best_sinks(best_score, popcount)
    picks = []
    w = (1 << n) - 1
    while w:
        s = next(s for s in range(n) if w >> s & 1 and best[w ^ 1 << s]
                 + best_score[s, _compress_mask(w ^ 1 << s, s)] == best[w])
        w ^= 1 << s
        cm = _compress_mask(w, s)
        hits = np.flatnonzero(scores[s] == best_score[s, cm])
        hits = hits[(hits & ~cm) == 0]
        m = int(hits[popcount[hits].argmin()])
        picks.append((s, _expand_mask(m, s), float(best_score[s, cm])))
    return picks


def learn_exact(data: Dataset, cfg: ScoreConfig,
                max_parents: int | None = None) -> LearnResult:
    """Provably optimal network for the criterion, via the subset DP."""
    start = time.perf_counter()
    n = data.n_vars
    table = compute_local_scores(data, cfg, max_parents)
    parents = [()] * n
    per = [0.0] * n
    for s, mask, score in _search(table.scores):
        parents[s] = mask_to_parents(mask)
        per[s] = score
    g = DagStructure(n, tuple(parents), data.names)
    return LearnResult(g, float(sum(per)), tuple(per),
                       time.perf_counter() - start)


def learn_bruteforce(data: Dataset, cfg: ScoreConfig) -> LearnResult:
    """Optimal network by exhaustive DAG enumeration; oracle for learn_exact.

    Same local scores, independent search: every labeled DAG is summed and
    ranked by (score desc, arc count asc, parent-mask tuple asc).
    """
    start = time.perf_counter()
    n = data.n_vars
    if n > BRUTEFORCE_MAX_VARS:
        raise ResourceLimitError(
            f"brute-force search supports at most {BRUTEFORCE_MAX_VARS} "
            f"variables, got {n}")
    table = compute_local_scores(data, cfg).scores.tolist()
    best_key = None
    best_masks = None
    for masks in enumerate_dags(n):
        total = 0.0
        for child, mask in enumerate(masks):
            total += table[child][_compress_mask(mask, child)]
        arcs = sum(m.bit_count() for m in masks)
        key = (-total, arcs, masks)
        if best_key is None or key < best_key:
            best_key, best_masks = key, masks
    g = dag_from_masks(best_masks, data.names)
    per = tuple(table[i][_compress_mask(best_masks[i], i)]
                for i in range(n))
    return LearnResult(g, float(sum(per)), per, time.perf_counter() - start)
