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
AD-trees (Moore & Lee, JAIR 1998). One plan per block shape gathers the
subsets' counts in groups of one cell count k, the criterion's cell terms
are evaluated on each gathered group with its k, and every family sums its
subset's terms in its own order.

learn_datasets is the one learn path: it learns datasets of one shape
under a batch of score configs. learn_criteria is its one-dataset case,
and learn_exact learn_criteria's one-config case. Counting does not depend
on the criterion, so the batch counts the data once; bic, fnml and qnml
share the maximized log-likelihood and differ only in their penalty, so
configs whose cell terms agree share those terms and their sums. Datasets
of one shape differ only in their counts: a dataset is one more leading
digit of each block's joint index, so one bincount counts them all, the
counts are gathered and their terms summed over the stacked tensor, and the
penalties and joins take every dataset's row count at once. The search
runs on all (dataset, config) tables at once, the tables as its last axis.
Every operation is the one a single config does on a single dataset, so
each result equals its own learn bit for bit. The datasets are learned in
runs whose tables fit _BATCH_BYTES, and whose rows or block tensors, n
times over, fit _BLOCK_CELLS, or one dataset a run; beyond that a
dataset's configs are learned in runs, so large tables do not multiply the
peak memory by the number of configs. A run holds count indexes, not
rows: each dataset is reduced as it is drawn to its prefix index over the
first block's variables and the columns that sets B read (see _index).

The index work of a learn depends on its shape alone (n, the arities and
the cap), not on the data: where each family's cells sit in a block, where
its sums go in the table, which subsets the sink sweep meets. The block
plans, which hold positions only, are built with whole-array steps, and the
last few are kept (_block_plan), so learns of one shape share them. The
family orders, the bulk of the bytes, are built per block shape while its
batches are counted, and the block shapes, the join's chunks and the sink
sweep's chunks are built where they are used: each costs less than the
work it indexes.

The two search stages keep scores only. One search path serves every
stack of tables: both sweeps take the tables as their last axis, and ties
are resolved once, during backtracking, in one array step per variable for
all tables at once (see _search).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dataset import MAX_TABLE_CELLS, Dataset
from .errors import DataError, ResourceLimitError, integer
from .regret import shared_cache
from .scores import ScoreConfig, criterion, not_finite
from .structure import DagStructure, dag_from_masks, enumerate_dags

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
    """Score every admissible (child, parent set) pair: the table that
    learn_datasets builds for one dataset and config (see _score_tables).
    Each entry equals local_score of its family bit for bit."""
    cfgs, max_parents = _checked((cfg,), max_parents)
    shape = _learn_shape(data.arities, max_parents)
    return LocalScoreTable(
        data.n_vars, _score_tables((_index(data, shape),), cfgs, shape)[0, 0],
        max_parents)


def _checked(cfgs, max_parents):
    """The configs as a tuple and the cap as an int or None; any other
    argument is a DataError, raised before any work."""
    cfgs = tuple(cfgs)
    if not cfgs:
        raise DataError("no score configs to learn with")
    for cfg in cfgs:
        if not isinstance(cfg, ScoreConfig):
            raise DataError(f"a score config must be a ScoreConfig, got "
                            f"{cfg!r}")
    if max_parents is not None:
        max_parents = integer(max_parents, "max_parents")
        if max_parents < 0:
            raise DataError("max_parents must be nonnegative")
    return cfgs, max_parents


# a non-finite entry is a DataError, so the operations that make one stay quiet
@np.errstate(invalid="ignore")
def _score_tables(indexed, cfgs, shape: _LearnShape) -> np.ndarray:
    """The local-score table of every config and dataset (a sequence of
    datasets of the shape's arities, each as its _index), stacked as one
    read-only (configs, datasets, n, 2^(n-1)) array, counting each block of
    variable subsets once for all of them.

    A family {c} + P has the cells of the subset T = P + {c}, and every
    criterion's other terms depend on P and the child arity alone (see
    scores.Criterion). The subsets T with |T| <= cap + 1 are counted in the
    blocks of _build_block_shapes: every A within the first b variables,
    joined with one set B of later ones. One bincount of the block's joint
    index (the dataset and the first-b prefix index, times cells(B), plus
    B's index) gives the joint counts of every dataset; appending to each of
    the b axes one slot that holds the sum over that axis gives every A + B
    count array at once, by exact integer sums. Blocks of one shape are
    counted together, as many in one tensor as fit _BLOCK_CELLS; a block's
    datasets are the consecutive rows of the tensor, as the blocks are.

    Configs whose cell terms agree (one cell function and one alpha, see
    scores.Criterion: bic, fnml and qnml all sum N ln N) form a group. A
    batch holds its count tensor and the sums; cell terms exist only per
    gathered chunk. Every block shape, a set B counted alone (b = 0)
    included, is summed by its plan (see _block_plan): one row per family,
    its cells in that family's order. A parent set within the cap reads its
    sum, in natural order, from the row of its last variable's family,
    whose order that is (the empty set has a row of its own). The plan
    groups the subsets by cell count k. Subsets of one arity sequence are
    taken together from the count tensor, every group's cell terms are
    evaluated on their counts with cell count k (the call local_score
    makes), then each row's order is taken from the family orders of the
    subsets' axis lengths (see _orders), built once per block shape, in
    takes of at most _GATHER_ENTRIES entries or one family's cells, and the
    sums of every group are taken in the same numpy calls. A group's family
    sums land in its first config's tables. Penalties are evaluated per
    config over every dataset at once, and each config's join takes the
    family sums, the parent sets' own term sums and the penalties of all
    children and datasets at once, with each dataset's row count (see
    scores.Criterion). Each entry equals local_score of its family under
    its config on its dataset bit for bit.

    A score that is not finite raises the DataError that its dataset and
    config raise alone; of several, the first dataset's, and of its configs
    the first one's.
    """
    arities, cap, shapes, cells = (shape.arities, shape.cap, shape.blocks,
                                   shape.cells)
    n = len(arities)
    scorers = [(cfg, criterion(cfg.criterion),
                shared_cache(cfg.regret_method)) for cfg in cfgs]
    # the groups of configs whose cell terms agree, as config indices
    shared = {}
    for i, (cfg, crit, _) in enumerate(scorers):
        shared.setdefault((crit.cell, cfg.alpha), []).append(i)
    groups = list(shared.values())
    cell_terms = [scorers[group[0]][:2] for group in groups]
    nd = len(indexed)
    sizes = [record.n_rows for record in indexed]
    # a number of rows that no count exceeds
    top = max(sizes)
    # per dataset, against the (blocks, datasets, parent sets) penalties
    n_rows = np.array(sizes)[:, None]
    child_arities = sorted(set(arities))
    half = 1 << (n - 1)
    tables = np.full((len(cfgs), nd, n, half), -np.inf)
    # each group's family sums go to its first config's tables; dataset d's
    # table starts at entry d n 2^(n-1)
    owners = [tables[g[0]].reshape(-1) for g in groups]
    starts = np.arange(nd) * (n * half)
    # per group, dataset and parent set P: the sum of P's cell terms in
    # natural order; per config and dataset, P's penalty per child arity
    parent = np.zeros((len(groups), nd, 2 * half))
    penalty = np.zeros((len(cfgs), nd, len(child_arities), 2 * half))
    errors = {}

    def penalize(totals, out):
        """Write out[i, j], config i's penalties of parent-set totals of
        shape (blocks, datasets, parent sets, cells) and child arity j. A
        dataset's first DataError under a config is kept for the end, and
        its penalties read nan."""
        for i, (cfg, crit, cache) in enumerate(scorers):
            for j, r in enumerate(child_arities):
                try:
                    out[i, j] = crit.penalty(totals, r, n_rows, cfg, cache)
                except DataError:
                    for d in range(nd):
                        try:
                            out[i, j, :, d] = crit.penalty(
                                totals[:, d], r, sizes[d], cfg, cache)
                        except DataError as exc:
                            errors.setdefault((d, i), exc)
                            out[i, j, :, d] = np.nan

    def count(b, bdims, bvars, bmasks, offsets, plan, orders):
        """Count and score a batch of blocks (b, B) whose sets B have the
        arities bdims, given as B's variables ascending, by their plan and
        the family orders of its parts' axis lengths. Block i of dataset d
        is tensor row i nd + d: its joint index is offset by that many
        times the cells of one block, so one bincount counts them all."""
        m = len(bvars)
        low = arities[:b]
        bcells = math.prod(bdims)
        # the prefix, over the first b variables: its leading digit is the
        # dataset
        joint = prefix
        if bdims:
            index = columns[bvars[:, 0] - lowest]
            for j in range(1, len(bdims)):
                index = index * bdims[j] + columns[bvars[:, j] - lowest]
            size = math.prod(low) * bcells
            index += np.arange(0, m * nd * size, nd * size)[:, None]
            index += joint * bcells
            joint = index.reshape(-1)
        cube = _marginals(joint, m * nd, low, bcells)
        # the groups' rows are stacked
        rows_all = len(groups) * m * nd
        sums = np.empty((rows_all, plan.rows))
        pens = np.empty((len(cfgs), len(child_arities), m, nd,
                         len(plan.pdest)))
        start = 0
        for k, parts, first, parents in plan.groups:
            # one take holds at most _GATHER_ENTRIES entries, or one
            # family's cells: a few subsets with all their orders, or one
            # subset with a few of them
            fit = max(1, _GATHER_ENTRIES // (rows_all * k))
            for rows, dims in parts:
                order = orders[dims]
                t = len(order)
                step, width = max(1, fit // t), min(fit, t)
                for row in range(0, len(rows), step):
                    chunk = rows[row:row + step]
                    # a position picks one cell of the first b axes with
                    # all of B's cells after it; every group's cell terms
                    # of the chunk's counts, one group after another, and
                    # one group's not copied
                    counts = np.take(cube, chunk, axis=1)
                    terms = [crit.cell(counts, k, top, cfg)
                             for cfg, crit in cell_terms]
                    part = (terms[0] if len(terms) == 1
                            else np.stack(terms)).reshape(-1, k)
                    end = start + len(chunk) * t
                    # a view: a column per (subset, order), orders last
                    out = sums[:, start:end].reshape(rows_all, len(chunk), t)
                    for o in range(0, t, width):
                        np.take(part, order[o:o + width], axis=1).reshape(
                            rows_all, len(chunk), -1, k).sum(
                                axis=-1, out=out[:, :, o:o + width])
                    start = end
            if len(parents):
                totals = np.take(cube, parents, axis=1).reshape(
                    m, nd, len(parents), k)
                penalize(totals, pens[..., first:first + len(parents)])
        sums = sums.reshape(len(groups), m, nd, -1)
        fdest = (plan.fdest + offsets[:, plan.fsel])[:, None] + starts[:, None]
        for g, flat in enumerate(owners):
            flat[fdest] = sums[g][..., plan.fcols]
        pdest = plan.pdest + bmasks[:, None]
        parent[:, :, pdest] = sums[..., plan.pcols].swapaxes(1, 2)
        penalty[:, :, :, pdest] = pens.transpose(0, 3, 1, 2, 4)

    # the run's prefix index, its leading digit the dataset, and the columns
    # from lowest up, which sets B draw on: each dataset's rows one after
    # another, in one array each
    lowest, reach = shape.lowest, shape.reach
    prefix = np.empty(sum(sizes), dtype=np.int64)
    at = 0
    for d, record in enumerate(indexed):
        np.add(record.prefix, d * math.prod(arities[:reach]),
               out=prefix[at:at + record.n_rows])
        at += record.n_rows
    columns = np.concatenate([record.columns for record in indexed], axis=1)
    for b, bdims, size, bvars, bmasks, offsets in shapes:
        # the shapes come in increasing b, so each extends the prefix, in
        # place, by the variables it adds
        for v in range(reach, b):
            prefix *= arities[v]
            prefix += columns[v - lowest]
        reach = b
        # a batch's tensor and its stacked index stay within the budget
        step = max(1, _BLOCK_CELLS // max(nd * size, at))
        plan = _block_plan(n, arities[:b], bdims, min(cap, b + len(bdims)))
        # the shape's family orders, one table per axis lengths, freed once
        # its batches are done
        orders = {dims: _orders(dims)
                  for _, parts, *_ in plan.groups for _, dims in parts}
        for start in range(0, len(bvars), step):
            batch = slice(start, start + step)
            count(b, bdims, bvars[batch], bmasks[batch], offsets[batch], plan,
                  orders)
        del orders

    rank = np.searchsorted(child_arities, arities)
    admissible, chunks = _join_plan(n, cap)
    for c, sets in chunks:
        rows = slice(c, c + len(sets))
        q = cells[sets]
        for g, group in enumerate(groups):
            sums = tables[group[0], :, rows]
            if admissible is not None:
                sums = sums[..., admissible]
            term_sum = parent[g][:, sets]
            # the first config last, since its tables hold the sums
            for i in reversed(group):
                cfg, crit, _ = scorers[i]
                pens = penalty[i][:, rank[rows, None], sets]
                row = crit.join(sums, term_sum, q, pens, n_rows[:, None], cfg)
                bad = ~np.isfinite(row)
                if bad.any():
                    # each dataset's first child, then parent set
                    for d in np.flatnonzero(bad.any(axis=(1, 2))).tolist():
                        v, j = np.argwhere(bad[d])[0]
                        errors.setdefault((d, i), not_finite(
                            cfg, indexed[d].names[c + v], row[d, v, j]))
                if admissible is None:
                    tables[i, :, rows] = row
                else:
                    tables[i][:, rows, admissible] = row
    if errors:
        raise errors[min(errors)]
    tables.flags.writeable = False
    return tables


class _LearnShape(NamedTuple):
    """The index work of a learn that its arities and cap fix (see
    _learn_shape)."""

    cap: int
    # the block shapes, and the cells of every subset (see
    # _build_block_shapes)
    blocks: tuple
    cells: np.ndarray
    arities: tuple
    # the first block shape's b, the variables a prefix index covers
    reach: int
    # the least b of a block shape with a set B, or n: sets B draw on the
    # columns from lowest up
    lowest: int


class _Indexed(NamedTuple):
    """What _score_tables reads of a dataset (see _index)."""

    prefix: np.ndarray
    columns: np.ndarray
    n_rows: int
    names: tuple


def _learn_shape(arities: tuple[int, ...], max_parents: int | None
                 ) -> _LearnShape:
    """The shape of a learn over variables of these arities. More
    variables than MAX_VARS, or a family within the cap of more cells than
    MAX_TABLE_CELLS, is a ResourceLimitError."""
    n = len(arities)
    if n > MAX_VARS:
        raise ResourceLimitError(
            f"{n} variables exceed the subset search limit of {MAX_VARS}")
    cap = n - 1 if max_parents is None else min(max_parents, n - 1)
    largest = math.prod(sorted(arities, reverse=True)[:cap + 1])
    if largest > MAX_TABLE_CELLS:
        raise ResourceLimitError(
            f"a family with {largest} cells exceeds the dense-table guard of "
            f"{MAX_TABLE_CELLS}")
    blocks, cells = _build_block_shapes(arities, cap)
    # the block shapes come in increasing b, so the first one's b is
    # lowest, or it is the only shape
    lowest = min([b for b, bdims, *_ in blocks if bdims], default=n)
    return _LearnShape(cap, blocks, cells, tuple(arities), blocks[0][0],
                       lowest)


def _index(data: Dataset, shape: _LearnShape) -> _Indexed:
    """What _score_tables reads of a dataset of the shape's arities: each
    row's mixed-radix index over the first reach variables, the columns
    from lowest up as rows of one array, the row count and the names. The
    arrays are copies, so the record holds none of the dataset's rows."""
    arities, reach = shape.arities, shape.reach
    radix = np.array([math.prod(arities[v + 1:reach]) for v in range(reach)],
                     dtype=np.int64)
    return _Indexed(data.rows[:, :reach] @ radix,
                    data.rows[:, shape.lowest:].T.copy(), data.n_rows,
                    data.names)


# a block's marginal tensor holds at most this many cells, and a run of
# datasets this many over n rows or tensor cells (five 5-variable samples
# of 10 000 rows, four 8-variable binary datasets); a batch holds the int64
# tensor and its float64 sums, its cell terms only a gather at a time
_BLOCK_CELLS = 1 << 18
# a block is split while the subsets within the cap fill less than
# 1/_CAPPED_FILL of its marginal tensor. Timed on binary chains, N = 1000,
# qnml, caps 2-4 at n = 16-20: 1/8, 1/16 and 1/32 within noise of each
# other, 1/16 ahead at cap 3-4; 1/128 up to 1.5x slower, and no split on
# fill 2-3x slower
_CAPPED_FILL = 16
# one gather holds at most this many entries, or the least its loop takes:
# one family's cells, or one row of sums or local scores
_GATHER_ENTRIES = 1 << 17
# the tables of one learn_datasets run hold at most this many bytes, or one
# table: all five criteria on one dataset at n <= 14 share one run, and
# from n = 17 up each config is its own run
_BATCH_BYTES = 1 << 23


def _build_block_shapes(arities: tuple[int, ...], cap: int):
    """The blocks of a learn over variables of these arities with at most
    cap parents: (shapes, cells), built on every learn, since they cost
    less than the counts they key, and _BLOCK_CELLS and _CAPPED_FILL may
    change between learns. Per block shape (b, the arities of B), in
    increasing b, shapes holds (b, B's arities, the cells of one block's
    tensor, then per block B's variables ascending, B's mask and the table
    offsets that count adds to its plan's positions). cells holds the cells
    of every variable subset, indexed by its mask.

    The first block is (n, {}). A block is split on variable b - 1 into
    (b - 1, B) and (b - 1, B + {b - 1}) while its marginal tensor exceeds
    _BLOCK_CELLS, or while the subsets within the cap fill less than
    1/_CAPPED_FILL of it; a B larger than cap + 1 is dropped, and one of
    cap + 1 is counted alone (b = 0). Blocks of one shape are counted
    together, so a small cap, which leaves many small blocks, costs few
    numpy calls.
    """
    n = len(arities)
    half = 1 << (n - 1)
    # per b: the marginal tensor width of the first b variables, and per j
    # the cells of their subsets of at most j variables
    widths = [1]
    capped = [[1] * (cap + 2)]
    cells = np.ones(1, dtype=np.int64)
    for r in arities:
        widths.append(widths[-1] * (r + 1))
        cells = np.concatenate((cells, cells * r))
        c = capped[-1]
        capped.append([1] + [c[j] + r * c[j - 1] for j in range(1, cap + 2)])
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
    out = []
    for (b, bdims), group in sorted(shapes.items(),
                                    key=lambda item: item[0][0]):
        bvars = np.array(group, dtype=np.int64).reshape(len(group), -1)
        bmasks = (1 << bvars).sum(axis=1)
        # what a block's plan positions lack: a child of A sees B's bits
        # one place lower, and a child of B sees A's bits where they are
        offsets = np.column_stack(
            (bmasks >> 1,
             bvars * half + _compress_mask(bmasks[:, None], bvars)))
        out.append((b, bdims, widths[b] * math.prod(bdims), bvars, bmasks,
                    offsets))
    return tuple(out), cells


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
    """Where every row of a block shape's sums comes from and goes to: one
    plan for every shape, the first block (no B) and a set B counted alone
    (b = 0) included.

    Rows are grouped by cell count k; groups holds, per k, (k, the parts
    that give its rows' sums in column order, the first parent row's column
    among all parent rows, and the parent sets' cells). A part is (rows,
    dims): the subsets of one arity sequence, as their cells in natural
    order, one row each, and their axis lengths, A's then B's, whose
    _orders make their family rows; there a position picks one cell of the
    first b axes with all of B's cells after it. A family row's column is
    in fcols and goes to table position fdest plus the block's offset fsel
    (see count). A subset within the cap is also a parent set, whose sum is
    its last row's: that column is in pcols and goes to parent set pdest
    plus B's mask. Each gather of a group's rows reads the counts of
    families of k cells, the cell count their cell terms take (see
    scores.Criterion).
    """

    rows: int
    groups: tuple
    fdest: np.ndarray
    fsel: np.ndarray
    fcols: np.ndarray
    pdest: np.ndarray
    pcols: np.ndarray


@lru_cache(maxsize=16)
def _block_plan(n: int, low: tuple[int, ...], bdims: tuple[int, ...],
                cap: int) -> _BlockPlan:
    """The plan of blocks (b, B) of n variables: low holds the arities of
    the first b variables (none for a set B counted alone), bdims those of
    B; families have at most cap + 1 variables, parent sets at most cap.

    A block's tensor has axis lengths r + 1 for the first b variables, slot
    r holding the sum over the axis, then B's cells. A cell belongs to the
    subset A of the axes where it sits below the sum slot, joined with B,
    so every cell belongs to exactly one subset, and A's cells in
    increasing position are its count array, axes ascending, each followed
    by B's cells.

    A plan is a function of its key alone and holds positions only: at
    most 2.1 MiB where measured (binary n = 16-20, 12 ternary variables,
    arities 2-4 at n = 12). So the last 16 plans are kept, the 4 of the
    harness shapes or the 14 of a binary n = 16 learn; a learn of more
    block shapes rebuilds them. The family orders, most of the bytes, are
    built per block shape where they are used (see _score_tables).
    """
    b, s = len(low), len(bdims)
    half = 1 << (n - 1)
    bcells = math.prod(bdims)
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
    # mask; each has one row per child, A's then B's. The last child's
    # family order is the natural order, so its row gives the subset's sum
    # as a parent set too; the empty set has one row, its sum
    masks = masks[size <= cap + 1]
    masks = masks[np.lexsort((key[masks], count[masks]))]
    size, parent = size[masks], size[masks] <= cap
    span = np.maximum(size, 1)
    start = np.cumsum(span) - span
    row, member = np.nonzero(bits[masks])
    nth = np.arange(len(row)) - np.searchsorted(row, row)
    fcols = np.concatenate((start[row] + nth, (
        (start + size - s)[:, None] + np.arange(s)).ravel()))
    fdest = np.concatenate((member * half + _compress_mask(masks[row], member),
                            np.repeat(masks, s)))
    fsel = np.concatenate((np.zeros_like(row), np.tile(np.arange(1, s + 1),
                                                       len(masks))))
    # the tensor position, in chunks of bcells cells, of each subset's first
    # cell, and per axis the step between positions
    step = np.array([math.prod(r + 1 for r in low[i + 1:]) for i in range(b)],
                    dtype=np.int64)
    first = (1 - bits[masks]) @ (np.array(low, dtype=np.int64) * step)
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
        dims += bdims
        groups.setdefault(math.prod(dims), []).append((rows, dims, own[0]))
    plan = []
    npar = 0
    for k in sorted(groups):
        parts = groups[k]
        parents = np.concatenate([rows for rows, _, own in parts if own]
                                 or [np.zeros((0, k // bcells), np.int64)])
        # a part within the cap reads its rows from the parent rows
        at = np.cumsum([len(rows) * own for rows, _, own in parts])
        parts = [(parents[end - len(rows):end] if own else rows, dims)
                 for (rows, dims, own), end in zip(parts, at)]
        plan.append((k, parts, npar, parents))
        npar += len(parents)
    return _BlockPlan(rows=int(span.sum()), groups=tuple(plan), fdest=fdest,
                      fsel=fsel, fcols=fcols, pdest=masks[parent],
                      pcols=(start + span - 1)[parent])


def _orders(dims: tuple[int, ...]) -> np.ndarray:
    """Row i lists the cells of a count array with axis lengths dims in the
    family order of its child i, axis i moved last; the last row is the
    natural order. The empty set has no family, and one row: its cell.
    Built per block shape, for the parts of its plan, and dropped once its
    batches are counted: t cells(T) int64 entries for t variables, 1.5 GiB
    for twelve quaternary ones."""
    t = len(dims)
    cube = np.arange(math.prod(dims)).reshape(dims)
    orders = np.zeros((max(t, 1), cube.size), dtype=np.int64)
    for i in range(t):
        axes = (*range(i), *range(i + 1, t), i)
        orders[i].reshape([dims[a] for a in axes])[...] = cube.transpose(axes)
    return orders


def _join_plan(n: int, cap: int):
    """The admissible parent-set columns (None: all of them), and a
    generator of chunks of children, each (first child, each child's parent
    sets as masks over all variables). A chunk holds at most
    _GATHER_ENTRIES entries, or one child's. Built on every join, whose
    gathers cost more than the plan."""
    half = 1 << (n - 1)
    admissible = None
    columns = np.arange(half)
    if cap < n - 1:
        admissible = columns = np.flatnonzero(_popcounts(n)[:half] <= cap)
    step = max(1, _GATHER_ENTRIES // len(columns))
    chunks = ((c, _expand_mask(columns,
                               np.arange(c, min(c + step, n))[:, None]))
              for c in range(0, n, step))
    return admissible, chunks


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

    scores has shape (rows, 2^k), or (rows, 2^k, tables) for a stack of
    tables of one shape. A max-zeta transform over the subset lattice, all
    children at once: start each candidate set with its own score, then
    fold in the best of each one-smaller subset, one bit at a time. max is
    exact, so every result is bitwise equal to one entry of its row.
    """
    rows, size, *tables = scores.shape
    best = scores.copy()
    for b in range(size.bit_length() - 1):
        # axis 2 pairs every candidate set without bit b (index 0) with the
        # same set plus bit b (index 1)
        v = best.reshape(rows, -1, 2, 1 << b, *tables)
        np.maximum(v[:, :, 0], v[:, :, 1], out=v[:, :, 1])
    return best


def _sweep_plan(n: int):
    """Per chunk of subsets w, one popcount layer after another: w, w
    without each sink s (row s), and the index of w's best parent score for
    s in the flattened n x 2^(n-1) best-parent table. A chunk's n x chunk
    gathers hold at most _GATHER_ENTRIES entries, or one subset's. Each
    chunk is built when the sweep reaches it, so the sweep holds one chunk
    at a time."""
    half = 1 << (n - 1)
    popcount = _popcounts(n)
    sinks = np.arange(n)[:, None]
    step = max(1, _GATHER_ENTRIES // n)
    for k in range(1, n + 1):
        layer = np.flatnonzero(popcount == k)
        for start in range(0, len(layer), step):
            w = layer[start:start + step]
            yield w, w ^ (1 << sinks), sinks * half + _compress_mask(w, sinks)


def _best_sinks(best_score: np.ndarray) -> np.ndarray:
    """Best network score of every variable subset w.

    best_score is a best-parent table of shape (n, 2^(n-1)), and the result
    has shape (2^n,); a stack of such tables along a last axis gives one
    column of results per table. Subsets are swept one popcount layer at a
    time, so every subset one smaller is final before w is scored. A wide
    layer is scored in chunks, whose indices come from the sweep plan of n.
    """
    n, half, *tables = best_score.shape
    flat = best_score.reshape(n * half, *tables)
    # a sink s outside w meets w + {s}, still -inf in the layer above
    best = np.full((1 << n, *tables), -np.inf)
    best[0] = 0.0
    for w, rest, index in _sweep_plan(n):
        total = best.take(rest, axis=0)
        total += flat.take(index, axis=0)
        best[w] = total.max(axis=0)
        # freed before the plan builds the next chunk
        del w, rest, index, total
    return best


def _search(tables: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An optimal network of every local-score table of a (tables, n,
    2^(n-1)) stack, as three (tables, n) arrays in backtracking order, last
    sink first: the sinks, their parent masks over all variables, and their
    local scores.

    Both sweeps run on all tables at once, with the tables as the last
    axis, so each step gathers every table's entries in one call. Ties are
    broken here, once per variable and for all tables in one step: the
    smallest sink whose sum (the sweep's own float addition) reaches the
    subset's best, then the parent subset of smallest cardinality, then
    smallest mask, whose score equals the fold's best exactly.
    """
    count, n, half = tables.shape
    best_score = _best_parents(np.moveaxis(tables, 0, -1))
    best = _best_sinks(best_score)
    fold = best_score.reshape(n * half, count)
    table = np.arange(count)[:, None]
    every = np.arange(n)
    sinks = np.empty((count, n), dtype=np.int64)
    rest = np.empty_like(sinks)
    w = np.full((count, 1), (1 << n) - 1)
    for k in range(n):
        # best[w] is the largest of these sums, so one of them reaches it;
        # argmax takes the first, the smallest sink
        left = w ^ 1 << every
        sums = best[left, table] + fold[
            every * half + _compress_mask(left, every), table]
        reach = (left < w) & (sums == best[w, table])
        sinks[:, k] = reach.argmax(axis=1)
        w = left[table, sinks[:, k, None]]
        rest[:, k] = w[:, 0]
    # the parent sets of every table's sinks at once, a few sinks per pass
    candidates = _compress_mask(rest, sinks)
    scores = fold[sinks * half + candidates, table]
    rows = tables.reshape(-1, half)
    row = (table * n + sinks).ravel()
    wanted = scores.ravel()
    candidates = candidates.astype(np.int32).ravel()
    popcount = _popcounts(n)[:half]
    masks = np.arange(half, dtype=np.int32)
    chosen = np.empty(count * n, dtype=np.int64)
    step = max(1, _GATHER_ENTRIES // half)
    for i in range(0, len(row), step):
        j = slice(i, i + step)
        hit = ((rows[row[j]] == wanted[j, None])
               & (masks & ~candidates[j, None] == 0))
        # argmin takes the first of the fewest parents: the smallest mask
        chosen[j] = np.where(hit, popcount, n).argmin(axis=1)
    return sinks, _expand_mask(chosen.reshape(count, n), sinks), scores


def learn_datasets(datasets, cfgs, max_parents: int | None = None
                   ) -> tuple[tuple[LearnResult, ...], ...]:
    """Per dataset, in order, the results learn_criteria gives it: a
    provably optimal network per config, via the subset DP.

    The datasets must share their arities; their row counts may differ.
    They are learned in runs. A run's datasets are counted in one pass,
    each one more leading digit of every block's joint index, their tables
    are scored together, and one search covers every (dataset, config)
    table. Each result equals that of its dataset and config learned alone,
    bit for bit. A run holds one dataset, or as many as keep their tables
    within _BATCH_BYTES, and n times the sum of their sizes within
    _BLOCK_CELLS, a dataset's size being its rows or the cells of its
    largest block tensor, whichever is more; a dataset whose tables alone
    exceed that is learned in runs of configs, as learn_criteria learns
    large tables.

    datasets may be any iterable. It is consumed one run at a time, and
    each dataset is reduced to the count indexes its learn reads (see
    _index) as it is drawn, and then dropped: from a generator, a learn
    holds one run's count indexes and the one dataset it is indexing, at
    most. A dataset whose arities differ from the first's is a DataError,
    raised before its run is learned, as is an empty iterable. Otherwise
    the error raised is the one learning each dataset alone, in order,
    raises first: the first failing dataset's, and of its configs the
    first failing one's. Every result's elapsed is the call's wall time
    less the time spent drawing datasets.
    """
    start = time.perf_counter()
    cfgs, max_parents = _checked(cfgs, max_parents)
    drawing = 0.0
    networks = []
    run, load, shape = [], 0, None
    source = iter(datasets)
    while True:
        drawn = time.perf_counter()
        data = next(source, None)
        drawing += time.perf_counter() - drawn
        if data is None:
            break
        if not isinstance(data, Dataset):
            raise DataError(f"a dataset must be a Dataset, got {data!r}")
        if shape is None:
            shape = _learn_shape(data.arities, max_parents)
            n = data.n_vars
            # the tables that fit _BATCH_BYTES, or one
            tables = max(1, _BATCH_BYTES // (8 * n << (n - 1)))
            # the cells of one dataset's largest block tensor
            tensor = max(size for _, _, size, *_ in shape.blocks)
        elif data.arities != shape.arities:
            raise DataError(f"datasets of one batch must share their "
                            f"arities: {data.arities} differs from "
                            f"{shape.arities}")
        # its rows, and the sums' gathers, up to n per tensor cell
        cost = n * max(data.n_rows, tensor)
        record = _index(data, shape)
        # the run holds the record alone, so the dataset is freed before
        # the next one is drawn
        del data
        if run and ((len(run) + 1) * len(cfgs) > tables
                    or load + cost > _BLOCK_CELLS):
            networks += _learn_run(run, cfgs, shape, tables)
            run, load = [], 0
        run.append(record)
        load += cost
    if not run:
        raise DataError("no datasets to learn")
    networks += _learn_run(run, cfgs, shape, tables)
    elapsed = time.perf_counter() - start - drawing
    return tuple(tuple(LearnResult(*network, elapsed) for network in learned)
                 for learned in networks)


def _learn_run(run, cfgs, shape, tables):
    """Per dataset of a run (its _index records), per config, (network,
    total, per-variable scores), the configs scored in runs of at most
    `tables` tables. Each distinct network of the run (parent sets and
    names) is built once, through the public DagStructure constructor, so
    equal networks are one object."""
    networks = [[None] * len(cfgs) for _ in run]
    built = {}
    step = max(1, tables // len(run))
    for first in range(0, len(cfgs), step):
        stack = _score_tables(run, cfgs[first:first + step], shape)
        sinks, masks, scores = _search(stack.reshape(-1, *stack.shape[2:]))
        del stack
        # each table's picks by variable
        table = np.arange(len(sinks))[:, None]
        parents, per_var = np.empty_like(masks), np.empty_like(scores)
        parents[table, sinks], per_var[table, sinks] = masks, scores
        # table t is config first + t // len(run) on dataset t % len(run)
        for t, (masks, per) in enumerate(zip(parents.tolist(),
                                             per_var.tolist())):
            i, d = divmod(t, len(run))
            key = tuple(masks), run[d].names
            if key not in built:
                built[key] = dag_from_masks(key[0], run[d].names)
            # a Python sum, left to right: numpy's pairwise sum gives other
            # bits from nine variables up
            networks[d][first + i] = built[key], float(sum(per)), tuple(per)
    return networks


def learn_criteria(data: Dataset, cfgs,
                   max_parents: int | None = None) -> tuple[LearnResult, ...]:
    """A provably optimal network per config, in order, via the subset DP:
    the one-dataset case of learn_datasets.

    The data is counted once for all configs, and configs whose cell terms
    agree (bic, fnml and qnml) share their sums; the search runs on all
    tables at once. Each result equals that of the config learned alone,
    bit for bit, and its elapsed is the whole call's wall time. A batch
    holds every config's table at once, so the configs are learned in runs
    whose tables fit _BATCH_BYTES together, or one config a run: peak
    memory grows with the number of configs only while the tables are
    small. Of several failing configs, the first one's DataError is raised.
    """
    return learn_datasets((data,), cfgs, max_parents)[0]


def learn_exact(data: Dataset, cfg: ScoreConfig,
                max_parents: int | None = None) -> LearnResult:
    """Provably optimal network for the criterion, via the subset DP: the
    one-config case of learn_criteria."""
    return learn_criteria(data, (cfg,), max_parents)[0]


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
