"""Globally optimal structure search.

Three-stage dynamic program over variable subsets: local scores for every
(child, candidate parent set), best parent set per child within every
candidate set, then a best-sink sweep over subsets of all variables with
backtracking. Finds a provably score-optimal network for any decomposable
criterion; complexity is O(n 2^n) table entries, which caps n at 20.

Ties are broken deterministically: among equal-scoring parent sets the
smaller cardinality wins, then the lexicographically smallest bitmask;
among equal-scoring sinks, the smallest variable index.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dataset import Dataset
from .errors import DataError, ResourceLimitError
from .regret import shared_cache
from .scores import ScoreConfig, local_score
from .structure import (DagStructure, dag_from_masks, enumerate_dags,
                        mask_to_parents, parents_to_mask)

MAX_FULL_VARS = 20
MAX_CAPPED_VARS = 31
BRUTEFORCE_MAX_VARS = 5
# peak entries n 2^(n-1) + 2^n at the n = 20 limit
MAX_PEAK_ENTRIES = 20 * (1 << 19) + (1 << 20)


@dataclass(frozen=True)
class LocalScoreTable:
    """Per-child map from parent-set bitmask to local score."""

    n: int
    scores: tuple[dict, ...]
    max_parents: int | None

    def entry_count(self) -> int:
        return sum(len(d) for d in self.scores)


@dataclass(frozen=True)
class LearnResult:
    network: DagStructure
    total_score: float
    per_variable: tuple[float, ...]
    elapsed: float


def _table_entry_count(n: int, max_parents: int | None) -> int:
    if max_parents is None:
        return n * (1 << (n - 1))
    cap = min(max_parents, n - 1)
    return n * sum(math.comb(n - 1, k) for k in range(cap + 1))


def compute_local_scores(data: Dataset, cfg: ScoreConfig,
                         max_parents: int | None = None) -> LocalScoreTable:
    """Score every admissible (child, parent set) pair.

    One contingency pass per pair; each pair is scored exactly once.
    """
    n = data.n_vars
    if max_parents is not None and max_parents < 0:
        raise DataError("max_parents must be nonnegative")
    if max_parents is None and n > MAX_FULL_VARS:
        raise ResourceLimitError(
            f"{n} variables exceed the exhaustive parent-set limit of "
            f"{MAX_FULL_VARS}; pass max_parents to cap the search")
    if n > MAX_CAPPED_VARS:
        raise ResourceLimitError(
            f"{n} variables exceed the {MAX_CAPPED_VARS}-variable limit")
    if _table_entry_count(n, max_parents) > MAX_PEAK_ENTRIES:
        raise ResourceLimitError(
            "local-score table would exceed the memory guard of "
            f"{MAX_PEAK_ENTRIES} entries")
    cache = shared_cache(cfg.regret_method)
    cap = n - 1 if max_parents is None else min(max_parents, n - 1)

    def score_child(child: int) -> dict:
        others = [v for v in range(n) if v != child]
        out = {}
        for size in range(cap + 1):
            for parents in combinations(others, size):
                out[parents_to_mask(parents)] = local_score(
                    data, child, parents, cfg, cache)
        return out

    return LocalScoreTable(n, tuple(score_child(child) for child in range(n)),
                           max_parents)


def _compress_mask(mask: int, child: int) -> int:
    return ((mask >> (child + 1)) << child) | (mask & ((1 << child) - 1))


def _expand_mask(mask: int, child: int) -> int:
    return ((mask >> child) << (child + 1)) | (mask & ((1 << child) - 1))


def _best_parents_per_child(table: LocalScoreTable):
    """For every child and candidate set C, the best parent subset of C.

    Subset-lattice sweep: initialize each candidate set with its own score
    where admissible, then fold in the best of each one-smaller subset, one
    bit at a time. The comparison key (score desc, cardinality asc, bitmask
    asc) is a total order, so any fold order yields the same winner.
    """
    n = table.n
    size = 1 << (n - 1)
    popcount = np.zeros(size, dtype=np.int64)
    for b in range(n - 1):
        popcount[(np.arange(size) & (1 << b)) != 0] += 1
    best_scores = []
    best_sets = []
    for child in range(n):
        score = np.full(size, -np.inf)
        chosen = np.zeros(size, dtype=np.int64)
        for full_mask, s in table.scores[child].items():
            cm = _compress_mask(full_mask, child)
            score[cm] = s
            chosen[cm] = cm
        idx = np.arange(size)
        for b in range(n - 1):
            has = idx[(idx & (1 << b)) != 0]
            sub = has ^ (1 << b)
            cand_score, cand_set = score[sub], chosen[sub]
            cur_score, cur_set = score[has], chosen[has]
            better = cand_score > cur_score
            ties = cand_score == cur_score
            pref = ties & ((popcount[cand_set] < popcount[cur_set])
                           | ((popcount[cand_set] == popcount[cur_set])
                              & (cand_set < cur_set)))
            take = better | pref
            score[has[take]] = cand_score[take]
            chosen[has[take]] = cand_set[take]
        best_scores.append(score)
        best_sets.append(chosen)
    return best_scores, best_sets


def learn_exact(data: Dataset, cfg: ScoreConfig,
                max_parents: int | None = None) -> LearnResult:
    """Provably optimal network for the criterion, via the subset DP."""
    start = time.perf_counter()
    n = data.n_vars
    if n * (1 << (n - 1)) + (1 << n) > MAX_PEAK_ENTRIES:
        raise ResourceLimitError(
            f"subset DP over {n} variables exceeds the memory guard; "
            f"the search supports at most {MAX_FULL_VARS} variables")
    table = compute_local_scores(data, cfg, max_parents)
    best_score, best_set = _best_parents_per_child(table)
    size = 1 << n
    best = np.full(size, -np.inf)
    best[0] = 0.0
    sink = np.full(size, -1, dtype=np.int64)
    for w in range(1, size):
        bits = w
        while bits:
            s = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            rest = w ^ (1 << s)
            value = best[rest] + best_score[s][_compress_mask(rest, s)]
            # strict improvement keeps the smallest qualifying sink index
            if value > best[w]:
                best[w] = value
                sink[w] = s
        if sink[w] < 0:
            raise DataError("subset sweep failed to place a sink")
    parents = [()] * n
    w = size - 1
    while w:
        s = int(sink[w])
        rest = w ^ (1 << s)
        cm = int(best_set[s][_compress_mask(rest, s)])
        parents[s] = mask_to_parents(_expand_mask(cm, s))
        w = rest
    g = DagStructure(n, tuple(parents), data.names)
    per = tuple(table.scores[i][parents_to_mask(g.parents[i])]
                for i in range(n))
    return LearnResult(g, float(sum(per)), per,
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
    table = compute_local_scores(data, cfg)
    best_key = None
    best_masks = None
    best_total = -math.inf
    for masks in enumerate_dags(n):
        total = 0.0
        for child, mask in enumerate(masks):
            total += table.scores[child][mask]
        arcs = sum(m.bit_count() for m in masks)
        key = (-total, arcs, masks)
        if best_key is None or key < best_key:
            best_key, best_masks, best_total = key, masks, total
    g = dag_from_masks(best_masks, data.names)
    per = tuple(table.scores[i][best_masks[i]] for i in range(n))
    return LearnResult(g, float(sum(per)), per, time.perf_counter() - start)
