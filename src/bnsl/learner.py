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
AD-trees (Moore & Lee, JAIR 1998). The criterion's cell terms are
evaluated once per batch, and the sums of a batch's rows that share a cell
count are taken with one numpy call each.

The index work of a learn depends on its shape alone (n, the arities and
the cap), not on the data: where each family's cells sit in a block, where
its sums go in the table, which subsets the sink sweep meets. It is built
once per shape with whole-array steps and kept in a plan cache of bounded
bytes (_PLANS), so learns of one shape share it.

The two search stages keep scores only; ties are resolved once, during
backtracking (see _search).
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    Blocks of one shape (b and the arities of B) are counted together, as
    many in one tensor as fit the same budget, so a small cap, which leaves
    many small blocks, costs few numpy calls.

    The criterion's cell term is evaluated once over a batch's tensor. The
    shape's cached plan (see _block_plan) groups its rows by cell count,
    not by arity sequence: one row per family, its cells in that family's
    order, and one per parent set within the cap, its cells in natural
    order. In a small shape one take and one row sum per cell count give
    every family sum and every parent set's term sum; a large one takes its
    subsets' cells per arity sequence, then each row's order. A subset
    counted alone (b = 0) is summed child by child. A parent set's term is
    read from its own term sum (see scores.Criterion), and the sums, parent
    terms and penalties are joined for all children at once. Each entry
    equals local_score of its family bit for bit.
    """
    n = data.n_vars
    if max_parents is not None and max_parents < 0:
        raise DataError("max_parents must be nonnegative")
    if n > MAX_VARS:
        raise ResourceLimitError(
            f"{n} variables exceed the subset search limit of {MAX_VARS}")
    cap = n - 1 if max_parents is None else min(max_parents, n - 1)
    arities = tuple(data.arities)
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
    # per parent set P: the sum of its cell terms in natural order, and its
    # penalty per child arity
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

    def count(b, bdims, batch, plan):
        """Count and score a batch of blocks (b, B) whose sets B have the
        arities bdims, given as B's variables ascending. Block i's joint
        index is offset by i times the cells of one block, so one bincount
        counts them all, one block after another."""
        m = len(batch)
        low = arities[:b]
        bcells = math.prod(bdims)
        if b < top:
            joint = prefix // math.prod(arities[b:top])
        else:
            joint = prefix
        bvars = np.array(batch, dtype=np.int64).reshape(m, -1)
        bmasks = (1 << bvars).sum(axis=1)
        if bdims:
            index = columns[bvars[:, 0]]
            for j in range(1, len(bdims)):
                index = index * bdims[j] + columns[bvars[:, j]]
            size = math.prod(low) * bcells
            index += np.arange(0, m * size, size)[:, None]
            if b:
                index += joint * bcells
            joint = index.reshape(-1)
            # per block, what the plan's table positions lack: a child of A
            # sees B's bits one place lower, a parent set is A + B, and a
            # child of B sees A's bits where they are
            offsets = np.column_stack(
                (bmasks >> 1, bmasks,
                 bvars * half + _compress_mask(bmasks[:, None], bvars)))
        cube = _marginals(joint, m, low, bcells)
        if not b:
            terms = crit.cell(cube, bcells, n_rows, cfg).reshape(m, *bdims)
            for j in range(len(bdims)):
                flat[offsets[:, 2 + j]] = np.moveaxis(
                    terms, 1 + j, -1).reshape(m, -1).sum(axis=-1)
            if len(bdims) <= cap:
                parent[bmasks] = terms.reshape(m, -1).sum(axis=-1)
                totals = cube.reshape(m, -1)
                for i, r in enumerate(child_arities):
                    penalty[i, bmasks] = crit.penalty(totals, r, n_rows, cfg,
                                                      cache)
            return
        terms = crit.cell(cube, plan.cells, n_rows, cfg)
        # positions pick single cells of a block's tensor, or with orders,
        # chunks of B's cells
        cells = terms.reshape(m, -1)
        sums = np.empty((m, plan.rows))
        pens = np.empty((len(child_arities), m, len(plan.pdest)))
        start = 0
        for k, parts, first, parents in plan.groups:
            for rows, orders in parts:
                # one take holds at most _GATHER_ENTRIES entries, or one row
                width = k if orders is None else k * len(orders)
                step = max(1, _GATHER_ENTRIES // (m * width))
                for row in range(0, len(rows), step):
                    if orders is None:
                        part = np.take(cells, rows[row:row + step], axis=1)
                    else:
                        part = np.take(np.take(
                            terms, rows[row:row + step], axis=1).reshape(
                                -1, k), orders, axis=1)
                    part = part.reshape(m, -1, k)
                    end = start + part.shape[1]
                    part.sum(axis=-1, out=sums[:, start:end])
                    start = end
            if len(parents):
                totals = np.take(cube, parents, axis=1).reshape(-1, k)
                for i, r in enumerate(child_arities):
                    pens[i, :, first:first + len(parents)] = crit.penalty(
                        totals, r, n_rows, cfg, cache).reshape(m, -1)
        if bdims:
            fdest = plan.fdest + offsets[:, plan.fsel]
            pdest = plan.pdest + bmasks[:, None]
        else:
            fdest, pdest = plan.fdest[None], plan.pdest[None]
        flat[fdest] = sums[:, plan.fcols]
        parent[pdest] = sums[:, plan.pcols]
        penalty[:, pdest] = pens

    # the blocks of each shape (b, arities of B), as B's variables
    shapes = {}
    blocks = [(n, ())]
    while blocks:
        b, bvars = blocks.pop()
        if len(bvars) > cap:
            b = 0  # only B itself is admissible
        bdims = tuple(arities[v] for v in bvars)
        room = cap + 1 - len(bvars)
        if b and (widths[b] * math.prod(bdims) > _BLOCK_CELLS or room < b and
                  _CAPPED_FILL * capped[b][room] < widths[b]):
            v = b - 1
            blocks.append((v, bvars))
            if room:
                blocks.append((v, (v, *bvars)))
            continue
        shapes.setdefault((b, bdims), []).append(bvars)
    for (b, bdims), group in shapes.items():
        # a batch's tensor and its stacked index stay within the budget
        step = max(1, _BLOCK_CELLS // max(widths[b] * math.prod(bdims),
                                          n_rows))
        plan = None
        if b:
            plan = _block_plan(n, arities[:b], bdims,
                               min(cap, b + len(bdims)))
        for start in range(0, len(group), step):
            count(b, bdims, group[start:start + step], plan)

    rank = np.searchsorted(child_arities, arities)
    cells = _set_cells(arities)
    admissible, chunks = _join_plan(n, cap)
    for c, sets in chunks:
        rows = slice(c, c + len(sets))
        if admissible is None:
            before = scores[rows]
        else:
            before = scores[rows, admissible]
        row = crit.join(before,
                        crit.parent(parent[sets], cells[sets], n_rows, cfg),
                        penalty[rank[rows, None], sets])
        bad = ~np.isfinite(row)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(f"{cfg.criterion} local score of "
                            f"{data.names[c + i]!r} is {row[i, j]}, not "
                            "finite")
        if admissible is None:
            scores[rows] = row
        else:
            scores[rows, admissible] = row
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
# one gather of sums or local scores holds at most this many entries, or
# one row of them
_GATHER_ENTRIES = 1 << 17
# every cached index plan together holds at most this many bytes: all the
# plans of a binary n = 14 learn (about 21 MiB) fit, and no sink-sweep plan
# from n = 17 up (37 MiB and more), so large searches keep their peak
_PLAN_BYTES = 1 << 25


class _PlanCache:
    """Index plans by key, least recently used first, kept while all of them
    fit _PLAN_BYTES; a plan larger than that is built on every use. A plan
    is a function of its key alone, so one cache serves every learn in the
    process without changing any result."""

    def __init__(self):
        self.plans = OrderedDict()
        self.nbytes = 0

    def get(self, key, build):
        if key in self.plans:
            self.plans.move_to_end(key)
            return self.plans[key][0]
        plan = build()
        # the bytes of every array a plan holds, or holds a view of, once
        owners = {}
        for part in _arrays(plan):
            while part.base is not None:
                part = part.base
            owners[id(part)] = part.nbytes
        size = sum(owners.values())
        if size <= _PLAN_BYTES:
            while self.nbytes + size > _PLAN_BYTES:
                self.nbytes -= self.plans.popitem(last=False)[1][1]
            self.plans[key] = plan, size
            self.nbytes += size
        return plan


def _arrays(plan):
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, (tuple, list)):
        for part in plan:
            yield from _arrays(part)


_PLANS = _PlanCache()


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


class _BlockPlan(NamedTuple):
    """Where every row of a block shape's sums comes from and goes to.

    Rows are grouped by cell count k; groups holds, per k, (k, the parts
    that give its rows' sums in column order, the first parent row's
    column among all parent rows, and the parent sets' cells). A part is
    (a few subsets' cells in natural order, one row each, and the orders
    that make their rows: each child's family order, then the parent set's
    own order when it is within the cap); there a position picks one cell
    of the first b axes with all of B's cells after it. A small shape
    composes each cell count's parts into one, (its rows, None), with one
    position per tensor cell. A family row's column is in fcols and goes to
    table position fdest plus the block's offset fsel (see count), a parent
    row's column is in pcols and goes to parent set pdest plus B's mask.
    cells holds the cells of each tensor cell's subset, for criteria whose
    cell terms depend on it.
    """

    cells: np.ndarray
    rows: int
    groups: tuple
    fdest: np.ndarray
    fsel: np.ndarray
    fcols: np.ndarray
    pdest: np.ndarray
    pcols: np.ndarray


def _block_plan(n: int, low: tuple[int, ...], bdims: tuple[int, ...],
                cap: int) -> _BlockPlan:
    """The cached plan of blocks (b, B) of n variables: low holds the
    arities of the first b >= 1 variables, bdims those of B; families have
    at most cap + 1 variables, parent sets at most cap."""
    return _PLANS.get(("block", n, low, bdims, cap),
                      lambda: _build_block_plan(n, low, bdims, cap))


def _build_block_plan(n, low, bdims, cap):
    """A block's tensor has axis lengths r + 1 for the first b variables,
    slot r holding the sum over the axis, then B's cells. A cell belongs to
    the subset A of the axes where it sits below the sum slot, joined with
    B, so every cell belongs to exactly one subset, and A's cells in
    increasing position are its count array, axes ascending, each followed
    by B's cells.
    """
    b, s = len(low), len(bdims)
    half = 1 << (n - 1)
    bcells = math.prod(bdims)
    # the cells of each tensor cell's subset, built from the last axis
    cells = np.ones(1, dtype=np.int64)
    for r in reversed(low):
        cells = (np.where(np.arange(r + 1) < r, r, 1)[:, None]
                 * cells).ravel()
    masks = np.arange(1 << b)
    bits = masks[:, None] >> np.arange(b) & 1
    size = bits.sum(axis=1) + s
    count = np.where(bits, low, 1).prod(axis=1) * bcells
    # each arity sequence as the digits 1..d of one base d + 1 integer, d
    # the distinct arities; while the tensor fits _BLOCK_CELLS the key stays
    # below 2^36
    digits = {r: d for d, r in enumerate(sorted(set(low)), 1)}
    key = np.zeros(1 << b, dtype=np.int64)
    for i, r in enumerate(low):
        key = np.where(bits[:, i], key * (len(digits) + 1) + digits[r], key)
    # the subsets within the cap, by cell count, then arity sequence, then
    # mask; each has one row per child, A's then B's, then one for its
    # parent set when that is within the cap
    masks = masks[size <= cap + 1]
    masks = masks[np.lexsort((key[masks], count[masks]))]
    size, parent = size[masks], size[masks] <= cap
    span = size + parent
    start = np.cumsum(span) - span
    row, member = np.nonzero(bits[masks])
    nth = np.arange(len(row)) - np.searchsorted(row, row)
    fcols = np.concatenate((start[row] + nth, (
        (start + size - s)[:, None] + np.arange(s)).ravel()))
    fdest = np.concatenate((member * half + _compress_mask(masks[row], member),
                            np.repeat(masks, s)))
    fsel = np.concatenate((np.zeros_like(row), np.tile(np.arange(2, s + 2),
                                                       len(masks))))
    # the tensor position, in chunks of bcells cells, of each subset's first
    # cell, and per axis the step between positions
    step = np.array([math.prod(r + 1 for r in low[i + 1:]) for i in range(b)],
                    dtype=np.int64)
    first = (1 - bits[masks]) @ (np.array(low, dtype=np.int64) * step)
    # a small shape composes its rows, one position per cell, so one take
    # per cell count gives all their sums
    small = (count[masks] * span).sum() <= _BLOCK_CELLS
    groups = {}
    bounds = np.flatnonzero(np.diff(key[masks])) + 1
    for group, base, own in zip(np.split(masks, bounds),
                                np.split(first, bounds),
                                np.split(parent, bounds)):
        dims = tuple(r for i, r in enumerate(low) if group[0] >> i & 1)
        members = np.nonzero(bits[group])[1].reshape(len(group), -1)
        # each subset's cells in natural order, one row each, in chunks of
        # B's cells
        rows = base[:, None] + step[members] @ np.indices(
            dims, dtype=np.int64).reshape(len(dims), math.prod(dims))
        orders = _orders(dims + bdims, bool(own[0]))
        k = orders.shape[1]
        if small:
            natural = (rows[:, :, None] * bcells + np.arange(bcells)).reshape(
                len(group), k)
            orders = np.take(natural, orders, axis=1).reshape(-1, k)
        groups.setdefault(k, []).append((rows, orders, own[0]))
    plan = []
    npar = 0
    for k in sorted(groups):
        parts = groups[k]
        parents = np.concatenate([rows for rows, _, own in parts if own]
                                 or [np.zeros((0, k // bcells), np.int64)])
        if small:
            parts = [(np.concatenate([rows for _, rows, _ in parts]), None)]
        else:
            # a part within the cap reads its rows from the parent rows
            at = np.cumsum([len(rows) * own for rows, _, own in parts])
            parts = [(parents[end - len(rows):end] if own else rows, orders)
                     for (rows, orders, own), end in zip(parts, at)]
        plan.append((k, parts, npar, parents))
        npar += len(parents)
    return _BlockPlan(cells=(cells * bcells).astype(np.int32)[:, None],
                      rows=int(span.sum()), groups=tuple(plan), fdest=fdest,
                      fsel=fsel, fcols=fcols, pdest=masks[parent],
                      pcols=(start + span - 1)[parent])


def _orders(dims: tuple[int, ...], own: bool) -> np.ndarray:
    """Row i lists the cells of a count array with axis lengths dims in the
    family order of its child i, axis i moved last; with own, one more row
    lists them in natural order."""
    t = len(dims)
    cube = np.arange(math.prod(dims)).reshape(dims)
    orders = np.empty((t + own, cube.size), dtype=np.int64)
    for i in range(t):
        axes = (*range(i), *range(i + 1, t), i)
        orders[i].reshape([dims[a] for a in axes])[...] = cube.transpose(axes)
    if own:
        orders[t] = cube.ravel()
    return orders


def _set_cells(arities: tuple[int, ...]) -> np.ndarray:
    """The cells of every variable subset, indexed by its mask."""
    def build():
        cells = np.ones(1, dtype=np.int64)
        for r in arities:
            cells = np.concatenate((cells, cells * r))
        return cells
    return _PLANS.get(("cells", arities), build)


def _join_plan(n: int, cap: int):
    """The admissible parent-set columns (None: all of them), and per chunk
    of children, (first child, each child's parent sets as masks over all
    variables). A chunk holds at most _GATHER_ENTRIES entries, or one
    child's."""
    half = 1 << (n - 1)
    admissible = None
    columns = np.arange(half)
    if cap < n - 1:
        admissible = columns = np.flatnonzero(_popcounts(n)[:half] <= cap)
    step = max(1, _GATHER_ENTRIES // len(columns))
    chunks = ((c, _expand_mask(columns,
                               np.arange(c, min(c + step, n))[:, None]))
              for c in range(0, n, step))
    if n * len(columns) * 8 > _PLAN_BYTES:
        return admissible, chunks
    return _PLANS.get(("join", n, cap), lambda: (admissible, list(chunks)))


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


def _sweep_plan(n: int):
    """Per chunk of subsets w, one popcount layer after another: w, w
    without each sink s (row s), and the index of w's best parent score for
    s in the flattened n x 2^(n-1) best-parent table."""
    half = 1 << (n - 1)
    popcount = _popcounts(n)
    sinks = np.arange(n)[:, None]

    def chunks():
        for k in range(1, n + 1):
            layer = np.flatnonzero(popcount == k)
            for start in range(0, len(layer), _SWEEP_CHUNK):
                w = layer[start:start + _SWEEP_CHUNK]
                yield (w, w ^ (1 << sinks),
                       sinks * half + _compress_mask(w, sinks))
    # w, and n rows each of rest and index, over every subset
    if (2 * n + 1) * 8 << n > _PLAN_BYTES:
        return chunks()
    return _PLANS.get(("sweep", n), lambda: list(chunks()))


def _best_sinks(best_score: np.ndarray) -> np.ndarray:
    """Best network score of every variable subset w.

    Subsets are swept one popcount layer at a time, so every subset one
    smaller is final before w is scored. A wide layer is scored in chunks,
    whose indices come from the sweep plan of n.
    """
    n = best_score.shape[0]
    flat = best_score.reshape(-1)
    # a sink s outside w meets w + {s}, still -inf in the layer above
    best = np.full(1 << n, -np.inf)
    best[0] = 0.0
    for w, rest, index in _sweep_plan(n):
        total = best[rest]
        total += flat[index]
        best[w] = total.max(axis=0)
        # a chunk built on the fly is freed before the next one is built
        del w, rest, index, total
    return best


def _search(scores: np.ndarray) -> list[tuple[int, int, float]]:
    """(sink, parent mask, local score) of an optimal network, last sink first.

    Ties are broken here, once per variable: the smallest sink whose sum
    (the sweep's own float addition) reaches the subset's best, then the
    parent subset of smallest cardinality, then smallest mask, whose score
    equals the fold's best exactly.
    """
    n = scores.shape[0]
    half = 1 << (n - 1)
    best_score = _best_parents(scores)
    best = _best_sinks(best_score)
    flat = best_score.reshape(-1)
    steps = []
    w = (1 << n) - 1
    while w:
        # best[w] is the largest of these sums, so one of them reaches it
        for s in range(n):
            rest = w ^ 1 << s
            if rest < w and best[rest] + flat[
                    s * half + _compress_mask(rest, s)] == best[w]:
                break
        w = rest
        steps.append((s, w))
    # the parent sets of all sinks at once, a few sinks per pass
    sinks, rest = np.array(steps).T
    candidates = _compress_mask(rest, sinks)
    best = flat[sinks * half + candidates]
    popcount = _popcounts(n)[:half]
    masks = np.arange(half, dtype=np.int32)
    candidates = candidates.astype(np.int32)
    picks = []
    step = max(1, _GATHER_ENTRIES // half)
    for i in range(0, n, step):
        j = slice(i, i + step)
        hit = ((scores[sinks[j]] == best[j, None])
               & (masks & ~candidates[j, None] == 0))
        # argmin takes the first of the fewest parents: the smallest mask
        chosen = np.where(hit, popcount, n).argmin(axis=1)
        picks += [(s, _expand_mask(m, s), score) for s, m, score in zip(
            sinks[j].tolist(), chosen.tolist(), best[j].tolist())]
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
