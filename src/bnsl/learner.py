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


def compute_local_scores(data: Dataset, cfg: ScoreConfig,
                         max_parents: int | None = None) -> LocalScoreTable:
    """Score every admissible (child, parent set) pair.

    One contingency pass per pair; each pair is scored exactly once.
    """
    n = data.n_vars
    if max_parents is not None and max_parents < 0:
        raise DataError("max_parents must be nonnegative")
    if n > MAX_VARS:
        raise ResourceLimitError(
            f"{n} variables exceed the subset search limit of {MAX_VARS}")
    cache = shared_cache(cfg.regret_method)
    cap = n - 1 if max_parents is None else min(max_parents, n - 1)
    scores = np.full((n, 1 << (n - 1)), -np.inf)
    for child in range(n):
        others = [v for v in range(n) if v != child]
        for size in range(cap + 1):
            for parents in combinations(others, size):
                cm = _compress_mask(parents_to_mask(parents), child)
                scores[child, cm] = local_score(data, child, parents, cfg,
                                                cache)
    scores.flags.writeable = False
    return LocalScoreTable(n, scores, max_parents)


def _compress_mask(mask, child):
    return ((mask >> (child + 1)) << child) | (mask & ((1 << child) - 1))


def _expand_mask(mask: int, child: int) -> int:
    return ((mask >> child) << (child + 1)) | (mask & ((1 << child) - 1))


def _popcount(size: int) -> np.ndarray:
    return np.array([m.bit_count() for m in range(size)], dtype=np.int8)


def _best_parents(scores: np.ndarray):
    """For every child (row) and candidate set C, the best parent subset of C.

    Subset-lattice sweep over all children at once: start each candidate
    set with its own score, then fold in the best of each one-smaller
    subset, one bit at a time. The comparison key (score desc, cardinality
    asc, bitmask asc) is a total order, so any fold order yields the same
    winner.
    """
    rows, size = scores.shape
    best = scores.copy()
    # compressed masks stay below 2^(MAX_VARS - 1), so int32 holds them
    chosen = np.tile(np.arange(size, dtype=np.int32), (rows, 1))
    card = np.tile(_popcount(size), (rows, 1))
    for b in range(size.bit_length() - 1):
        # axis 2 of these views pairs every candidate set without bit b
        # (index 0) with the same set plus bit b (index 1)
        views = [a.reshape(rows, -1, 2, 1 << b) for a in (best, chosen, card)]
        (cand_score, cur_score), (cand_set, cur_set), (cand_card, cur_card) = (
            (v[:, :, 0], v[:, :, 1]) for v in views)
        take = (cand_score > cur_score) | (
            (cand_score == cur_score)
            & ((cand_card < cur_card)
               | ((cand_card == cur_card) & (cand_set < cur_set))))
        for v in views:
            np.copyto(v[:, :, 1], v[:, :, 0], where=take)
    return best, chosen


def _best_sinks(best_score: np.ndarray):
    """Best network score and sink of every variable subset w.

    Subsets are swept one popcount layer at a time, so every subset one
    smaller is final before w is scored. Among equal scores the first
    maximum, i.e. the smallest sink index, wins, exactly as a loop over
    sinks in ascending order with a strict improvement would choose.
    """
    n = best_score.shape[0]
    popcount = _popcount(1 << n)
    sinks = np.arange(n)[:, None]
    best = np.zeros(1 << n)
    sink = np.full(1 << n, -1, dtype=np.int64)
    for k in range(1, n + 1):
        layer = np.flatnonzero(popcount == k)
        # row s: w without sink s, meaningful only where s is in w
        rest = layer ^ (1 << sinks)
        value = np.where(rest < layer, best[rest] + best_score[
            sinks, _compress_mask(rest, sinks)], -np.inf)
        sink[layer] = value.argmax(axis=0)
        best[layer] = value.max(axis=0)
        if not (best[layer] > -np.inf).all():
            raise DataError("subset sweep failed to place a sink")
    return best, sink


def learn_exact(data: Dataset, cfg: ScoreConfig,
                max_parents: int | None = None) -> LearnResult:
    """Provably optimal network for the criterion, via the subset DP."""
    start = time.perf_counter()
    n = data.n_vars
    table = compute_local_scores(data, cfg, max_parents)
    best_score, best_set = _best_parents(table.scores)
    _, sink = _best_sinks(best_score)
    parents = [()] * n
    per = [0.0] * n
    w = (1 << n) - 1
    while w:
        s = int(sink[w])
        rest = w ^ (1 << s)
        cm = _compress_mask(rest, s)
        parents[s] = mask_to_parents(_expand_mask(int(best_set[s, cm]), s))
        per[s] = float(best_score[s, cm])
        w = rest
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
