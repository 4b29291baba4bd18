"""Globally optimal structure search.

Three-stage dynamic program over variable subsets: local scores for every
(child, candidate parent set), best parent set per child within every
candidate set, then a best-sink sweep over subsets of all variables with
backtracking. Finds a provably score-optimal network for any decomposable
criterion; complexity is O(n 2^n) table entries, which caps n at 20.

The local-score table scores each variable subset once, not each of the
n 2^(n-1) families (Silander & Myllymaki, UAI 2006): a family's cells are
those of its subset, and every criterion's remaining terms depend on the
parent set and the child arity alone. Subsets are counted in blocks, and
blocks of one shape in batches: one bincount of a batch's joint index,
then every marginal by exact integer sums, the cached-statistics idea of
AD-trees (Moore & Lee, JAIR 1998). The subsets of a batch that share an
arity sequence are scored together, one numpy call per term.

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
    """Score every admissible (child, parent set) pair, counting each block
    of variable subsets once.

    A family {c} + P has the cells of the subset T = P + {c}, and every
    criterion's other terms depend on P and the child arity alone (see
    scores.Criterion). The subsets T with |T| <= cap + 1 are counted in
    blocks: every A within the first b variables, joined with one set B of
    later ones. One bincount of the block's joint index (the first-b prefix
    index times cells(B), plus B's index) gives the joint counts; appending
    to each of the b axes one slot that holds the sum over that axis gives
    every A + B count array at once, by exact integer sums. The first block
    is (n, {}). A block is split on variable b - 1 into (b - 1, B) and
    (b - 1, B + {b - 1}) while its marginal tensor exceeds _BLOCK_CELLS, or
    while the subsets within the cap fill less than 1/_CAPPED_FILL of it; a
    B larger than cap + 1 is dropped, and one of cap + 1 is counted alone.
    Blocks of one b whose sets B share their arities are counted together,
    one after another in one tensor within the same budget, so a small cap,
    which leaves many small blocks, costs few numpy calls. The subsets of
    one arity sequence in such a batch are scored together, one row each:
    their cell terms are summed once per child in that family's own order,
    and when |T| <= cap their parent-set terms are kept as well. Each entry
    equals local_score of its family bit for bit.
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
    # per b: the marginal tensor width of the first b variables, and per j
    # the cells of their subsets of at most j variables
    widths = [1]
    capped = [[1] * (cap + 2)]
    for r in arities:
        widths.append(widths[-1] * (r + 1))
        c = capped[-1]
        capped.append([1] + [c[j] + r * c[j - 1] for j in range(1, cap + 2)])
    # the index of the widest prefix of variables that fits one block
    top = sum(w <= _BLOCK_CELLS for w in widths) - 1
    prefix = np.zeros(n_rows, dtype=np.int64)
    for v in range(top):
        prefix = prefix * arities[v] + columns[v]

    def count(b, bdims, batch):
        """Count and score a batch of blocks (b, B) whose sets B have the
        arities bdims, given as (B's index, B's mask, the table position of
        each child of B less A's bits). Block i's joint index is offset by
        i times the cells of one block, so one bincount counts them all,
        one block after another."""
        m = len(batch)
        low = tuple(arities[:b])
        bcells = math.prod(bdims)
        if b < top:
            joint = prefix // math.prod(arities[b:top])
        else:
            joint = prefix
        bmasks = 0
        if bdims:
            bindex, bmasks, bpos = zip(*batch)
            size = math.prod(low) * bcells
            index = np.stack(bindex)
            index += np.arange(0, m * size, size)[:, None]
            if b:
                index += joint * bcells
            joint = index.reshape(-1)
            bmasks = np.array(bmasks)[:, None]
            # a child of B sees A's bits where they are
            bpos = np.array(bpos)[:, None]
        cube = _marginals(joint, m, low, bcells)
        for dims, amasks, cells, members, compressed in _block_plan(low):
            dims += bdims
            if len(dims) > cap + 1:
                continue
            counts = np.take(cube, cells, axis=1).reshape(m * len(amasks), -1)
            subsets = (amasks | bmasks).reshape(-1)
            if len(dims) <= cap:
                parent[subsets] = crit.parent(counts, n_rows, cfg)
                for i, r in enumerate(child_arities):
                    penalty[i, subsets] = crit.penalty(counts, r, n_rows,
                                                       cfg, cache)
            if dims:
                pos = members * half + compressed
                if bdims:
                    # a child of A sees B's bits one place lower
                    pos = np.concatenate(
                        (pos + (bmasks >> 1)[:, :, None],
                         amasks[:, None] + bpos), axis=2)
                flat[pos.reshape(len(counts), -1)] = _family_sums(
                    crit.cell(counts, counts.shape[1], n_rows, cfg), dims)

    # blocks ready to count, per (b, arity sequence of B)
    ready = {}
    # (b, variables of B ascending, their arities, index of B or None when
    # B is empty)
    blocks = [(n, (), (), None)]
    while blocks:
        b, bvars, bdims, bindex = blocks.pop()
        if len(bvars) > cap:
            b = 0  # only B itself is admissible
        bcells = math.prod(bdims)
        room = cap + 1 - len(bvars)
        if b and (widths[b] * bcells > _BLOCK_CELLS or room < b and
                  _CAPPED_FILL * capped[b][room] < widths[b]):
            v = b - 1
            blocks.append((v, bvars, bdims, bindex))
            if room:
                index = columns[v] * bcells
                if bindex is not None:
                    index += bindex
                blocks.append((v, (v, *bvars), (arities[v], *bdims), index))
            continue
        bmask = sum(1 << v for v in bvars)
        batch = ready.setdefault((b, bdims), [])
        batch.append((bindex, bmask,
                      [v * half + _compress_mask(bmask, v) for v in bvars]))
        # a batch's tensor and its stacked index stay within the budget
        if (len(batch) + 1) * max(widths[b] * bcells, n_rows) > _BLOCK_CELLS:
            count(b, bdims, ready.pop((b, bdims)))
    for (b, bdims), batch in ready.items():
        count(b, bdims, batch)
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


# a block's marginal tensor holds at most this many cells
_BLOCK_CELLS = 1 << 18
# a block is split while the subsets within the cap fill less than
# 1/_CAPPED_FILL of its marginal tensor. Timed on binary chains, N = 1000,
# qnml, caps 2-4 at n = 16-20: 1/8, 1/16 and 1/32 within noise of each
# other, 1/16 ahead at cap 3-4; 1/128 up to 1.5x slower, and no split on
# fill 2-3x slower
_CAPPED_FILL = 16


def _marginals(joint: np.ndarray, blocks: int, low: tuple[int, ...],
               bcells: int) -> np.ndarray:
    """Every marginal count array of a batch of blocks, in one tensor.

    joint indexes the rows' cells mixed-radix: the block, the first b
    variables with arities low, then B's bcells. The tensor has axis
    lengths blocks, r + 1 per variable, then bcells, flattened to
    (blocks, -1, bcells); slot r of an axis holds the sum over that axis,
    so every sum is an exact integer sum.
    """
    cube = np.empty([blocks] + [r + 1 for r in low] + [bcells],
                    dtype=np.int64)
    cube[(slice(None), *(slice(r) for r in low))] = np.bincount(
        joint, minlength=blocks * math.prod(low) * bcells).reshape(
            blocks, *low, bcells)
    for i in reversed(range(len(low))):
        # the sum slot of axis i, taken over the axes after it in full:
        # last axis first, so each add runs over one contiguous tail, and
        # elementwise adds beat a reduce along a short middle axis
        head = (slice(None), *(slice(s) for s in low[:i]))
        total = cube[(*head, low[i])]
        np.copyto(total, cube[(*head, 0)])
        for j in range(1, low[i]):
            total += cube[(*head, j)]
    return cube.reshape(blocks, -1, bcells)


@lru_cache(maxsize=16)
def _block_plan(low: tuple[int, ...]) -> tuple:
    """Where each subset A of the first b variables sits in a block's
    marginal tensor, grouped by A's arity sequence.

    low holds the arities of the first b variables; the tensor has axis
    lengths r + 1 for them, slot r holding the sum over the axis. A cell
    belongs to the subset of the axes where it sits below the sum slot, so
    every cell belongs to exactly one A, and A's cells in increasing
    position are its count array, axes ascending. One entry per arity
    sequence: (its arities, the masks A ascending, their cell positions one
    row each, their variables ascending one row each, and A's compressed
    mask for each of those variables as child).
    """
    b = len(low)
    owner = np.zeros([r + 1 for r in low], dtype=np.int64)
    for i, r in enumerate(low):
        shape = [1] * b
        shape[i] = r + 1
        owner |= (np.arange(r + 1) < r).astype(np.int64).reshape(shape) << i
    owner = owner.reshape(-1)
    order = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner, minlength=1 << b)
    starts = np.cumsum(sizes) - sizes
    # each arity sequence as the digits 1..d of one base d + 1 integer, d
    # the distinct arities; while the tensor fits _BLOCK_CELLS the key stays
    # below 2^36
    masks = np.arange(1 << b)
    digits = {r: d for d, r in enumerate(sorted(set(low)), 1)}
    key = np.zeros(1 << b, dtype=np.int64)
    for i, r in enumerate(low):
        key = np.where(masks >> i & 1, key * (len(digits) + 1) + digits[r],
                       key)
    masks = np.argsort(key, kind="stable")
    bounds = np.flatnonzero(np.diff(key[masks])) + 1
    plan = []
    for group in np.split(masks, bounds):
        dims = tuple(r for i, r in enumerate(low) if group[0] >> i & 1)
        cells = starts[group][:, None] + np.arange(math.prod(dims))
        members = np.nonzero(group[:, None] >> np.arange(b) & 1)[1]
        members = members.reshape(len(group), len(dims))
        plan.append((dims, group, order[cells], members,
                     _compress_mask(group[:, None], members)))
    return tuple(plan)


# a family-order gather holds at most this many entries (rows x children x
# cells); a subset whose own children x cells exceed it sums child by child
_GATHER_ENTRIES = 1 << 17


def _family_sums(terms: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Per row (subset) and child, the sum of its cell terms in that
    family's order.

    terms holds one row per subset, indexed mixed-radix over the subset's
    variables ascending, with axis lengths dims. Child i sums with axis i
    moved last, the layout of dataset.contingency, so each sum is the
    family's own 1-D float sum: the last-axis sum of a C-contiguous array is
    bitwise that same sum. terms[:, order] is not C-contiguous, and its
    sums can differ in the last bits.
    """
    rows, cells = terms.shape
    k = len(dims)
    if k * cells > _GATHER_ENTRIES:
        return np.array([[np.moveaxis(cube, i, -1).ravel().sum()
                          for i in range(k)]
                         for cube in terms.reshape(rows, *dims)])
    orders = _family_orders(dims)
    step = _GATHER_ENTRIES // (k * cells)
    return np.concatenate([
        np.take(terms[start:start + step], orders, axis=1).sum(axis=-1)
        for start in range(0, rows, step)])


@lru_cache(maxsize=32)
def _family_orders(dims: tuple[int, ...]) -> np.ndarray:
    """Row i lists a subset's cells in the family order of its child i."""
    cube = np.arange(math.prod(dims)).reshape(dims)
    return np.stack([np.moveaxis(cube, i, -1).ravel()
                     for i in range(len(dims))])


@lru_cache(maxsize=4)
def _popcounts(n: int) -> np.ndarray:
    """Bit count of every mask below 2^n, as read-only int8."""
    popcount = np.zeros(1 << n, dtype=np.int8)
    for b in range(n):
        popcount[1 << b:2 << b] = popcount[:1 << b] + 1
    popcount.flags.writeable = False
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
