"""Globally optimal structure search.

Three-stage dynamic program over variable subsets: local scores for every
(child, candidate parent set), best parent set per child within every
candidate set, then a best-sink sweep over subsets of all variables with
backtracking. Finds a provably score-optimal network for any decomposable
criterion; complexity is O(n 2^n) table entries, which caps n at 20.

The two search stages keep scores only; ties are resolved once, during
backtracking (see _search).
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


def _best_sinks(best_score: np.ndarray, popcount: np.ndarray) -> np.ndarray:
    """Best network score of every variable subset w.

    Subsets are swept one popcount layer at a time, so every subset one
    smaller is final before w is scored.
    """
    n = best_score.shape[0]
    sinks = np.arange(n)[:, None]
    best = np.zeros(1 << n)
    for k in range(1, n + 1):
        layer = np.flatnonzero(popcount == k)
        # row s: w without sink s, meaningful only where s is in w
        rest = layer ^ (1 << sinks)
        best[layer] = np.where(rest < layer, best[rest] + best_score[
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
    popcount = np.zeros(1 << n, dtype=np.int8)
    for b in range(n):
        popcount[1 << b:2 << b] = popcount[:1 << b] + 1
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
