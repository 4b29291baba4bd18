"""Decomposable local scores for structure learning.

Five criteria, BIC, BDeu, fNML, qNML and BDq, are each written as a cell
term, a penalty and one join (see Criterion). The cell term is summed over
the cells of the family {child} + parents and over the cells of the parent
set; the penalty is a function of the parent set's cell totals and the child
arity. A family's cells are the cells of its variable subset, so the
local-score table counts each subset once and reuses each parent set's
terms for every child. Every score is a natural-log quantity and decomposes
over variables, so the network score is the sum of local terms. Parent
configuration counts q_i always use the full arity product, never just the
configurations observed in the data. BDeu and BDq take ln Gamma from _lgam,
a port of the Cephes lgam that scipy.special.gammaln runs, which matches it
bit for bit; their cell terms are read from one table per Dirichlet
parameter, their normalizers memoised per argument.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _xlogx_table, contingency, distinct
from .errors import DataError, real
from .regret import RegretCache, canonical_method, shared_cache
from .structure import DagStructure


@dataclass(frozen=True)
class ScoreConfig:
    """Criterion choice plus its hyperparameters.

    alpha is the Dirichlet hyperparameter of bdeu (its equivalent sample
    size, 1 by default) or bdq (1/2 by default, the Jeffreys prior); None
    gives the default. The other criteria have none and refuse one.
    regret_method selects how fNML and qNML evaluate regret terms.
    """

    criterion: str = "qnml"
    alpha: float | None = None
    regret_method: str = "szp-all-range"

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise DataError(f"unknown criterion {self.criterion!r}; "
                            f"expected one of {', '.join(CRITERIA)}")
        alpha = _CRITERIA[self.criterion].alpha
        if self.alpha is not None:
            if alpha is None:
                raise DataError(f"{self.criterion} takes no alpha")
            alpha = real(self.alpha, "alpha")
            if not (alpha > 0.0 and math.isfinite(alpha)):
                raise DataError("Dirichlet hyperparameters must be positive "
                                "and finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "regret_method",
                           canonical_method(self.regret_method))


@dataclass(frozen=True)
class Criterion:
    """One local score as a cell term, a penalty and one join, shared by
    local_score and the subset-keyed tables (learner.learn_datasets).

    cell(counts, cells, n_rows, cfg) is an elementwise term of the count
    arrays of families of `cells` cells each (a number); the family sums it
    in its own order, child axis last. Its n_rows is a number of rows no
    count exceeds.
    penalty(totals, r, n_rows, cfg, cache) is a term of the parent set's
    cell totals and the child arity r; totals holds parent sets of one cell
    count q, the last axis holding one parent set's totals, and the result
    broadcasts to totals.shape[:-1].
    join(cell_sum, term_sum, q, penalty, n_rows, cfg) gives the score from
    the family's cell sum, the parent set's q (its cell count), term_sum
    (the sum of the parent set's own cell terms in natural order: a parent
    set is itself a variable subset) and the penalty; it works elementwise
    on arrays of families. In penalty and join, n_rows is the number of data
    rows: a number, or an array of one per dataset that broadcasts against
    the other arguments, so a stack of datasets is scored in one call.
    alpha is the criterion's default Dirichlet hyperparameter, None if it
    has none; cell reads no field of the config but its alpha, so two
    configs whose cell and alpha agree have the same cell terms.
    """

    cell: Callable
    penalty: Callable
    join: Callable
    alpha: float | None = None


def _xlogx_cells(counts, cells, n_rows, cfg):
    """N ln N of every cell; the family sums give the log-likelihood."""
    return _xlogx_table(n_rows)[counts]


def _loglik_join(cell_sum, term_sum, q, penalty, n_rows, cfg):
    """Maximized log-likelihood, clamped to <= 0 like counts_loglik, minus
    the penalty: term_sum is the parent set's sum of N ln N over its cells."""
    return np.minimum(cell_sum - term_sum, 0.0) - penalty


def _per_dataset(f, n_rows):
    """f of each dataset's row count, in the shape of n_rows."""
    return np.array([f(n) for n in np.ravel(n_rows).tolist()]).reshape(
        np.shape(n_rows))


def _bic_penalty(totals, r, n_rows, cfg, cache):
    """BIC: (q (r-1) / 2) ln N, with math.log: np.log rounds differently."""
    if np.min(n_rows) < 1:
        raise DataError("BIC needs at least one data row")
    return 0.5 * totals.shape[-1] * (r - 1) * _per_dataset(math.log, n_rows)


def _fnml_penalty(totals, r, n_rows, cfg, cache):
    """Factorized NML: reg(N_j, r) of every parent configuration j, added
    one at a time in j order. reg(0, r) is 0.0, so an unobserved
    configuration adds nothing and leaves the running sum's bits alone."""
    return np.cumsum(cache.get_many(totals, r), axis=-1)[..., -1]


def _qnml_penalty(totals, r, n_rows, cfg, cache):
    """Quotient NML: regret of the collapsed family minus regret of the
    parents.

    Both regret terms are evaluated at the full sample size with cell counts
    taken from the full arity product, which is what makes the score exactly
    invariant under covered-arc reversal.
    """
    q = totals.shape[-1]
    return _per_dataset(lambda n: cache.get(n, q * r) - cache.get(n, q),
                        n_rows)


# Cephes lgam (Moshier, Methods and Programs for Mathematical Functions,
# 1989), the code scipy.special.gammaln runs, for arguments x >= 0, so that
# BDeu and BDq match gammaln bit for bit without importing scipy.special.
# Its logs are math.log, libm's: numpy's SIMD log rounds differently (see
# dataset._xlogx_table). Every Horner step is a multiply, then an add.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
# the denominator's leading coefficient, 1, is implied
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi)


def _lgam_small(x: float) -> float:
    """lgam of 0 <= x < 13: x shifted into [2, 3) by the recurrence, then a
    rational function; x itself if it is not finite."""
    if not math.isfinite(x):
        return x
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        if u == 0.0:
            return math.inf
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x += p - 2.0
    num, den = _LGAM_B[0], x + _LGAM_C[0]
    for b in _LGAM_B[1:]:
        num = num * x + b
    for c in _LGAM_C[1:]:
        den = den * x + c
    return math.log(z) + x * num / den


@np.errstate(over="ignore")
def _lgam(x) -> np.ndarray:
    """ln Gamma of every entry of x >= 0, as scipy.special.gammaln gives it:
    Stirling's series from 13 up, one entry at a time below (at most 13
    entries of a rise table, see _rise_table) and where x is not finite."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    small = ~((x >= 13.0) & (x < math.inf))
    out[small] = [_lgam_small(v) for v in x[small].tolist()]
    big = x[~small]
    log = np.fromiter(map(math.log, big.tolist()), np.float64, len(big))
    q = (big - 0.5) * log - big + _LS2PI
    p = 1.0 / (big * big)
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    # from 1000 up a shorter series, and from 10^8 up none
    short = (7.9365079365079365079365e-4 * p
             - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    out[~small] = np.where(big > 1.0e8, q, q + np.where(
        big >= 1000.0, short, series) / big)
    return out


# per Dirichlet parameter a, lgam(a + k) - lgam(a) at index k, grown on
# demand and never shrunk. Entry 0 is lgam(a) - lgam(a): 0 while lgam(a) is
# finite, nan where it overflows at a tiny a, so that the score is reported
# as not finite
_RISE_TABLES: dict[float, np.ndarray] = {}


def _rise_table(a: float, top: int) -> np.ndarray:
    """The rise table of a, first grown to cover 0..top if it falls short."""
    table = _RISE_TABLES.get(a, np.empty(0))
    if top >= len(table):
        # a + k is the float of the same sum as a + counts
        grown = _lgam(a + np.arange(len(table), top + 1)) - _lgam(a)
        _RISE_TABLES[a] = table = np.concatenate((table, grown))
    return table


def _rises(a: float, counts) -> np.ndarray:
    """lgam(a + counts) - lgam(a) elementwise over the integer counts: one
    take from the rise table of a, first grown to the largest count."""
    return _rise_table(a, int(np.max(counts, initial=0)))[counts]


def _bdeu_cells(counts, cells, n_rows, cfg):
    """BDeu with equivalent sample size cfg.alpha: the a_jk = alpha /
    (q r) cell term, lgam(a_jk + N_jk) - lgam(a_jk), q r being the family's
    `cells`. An unobserved cell contributes exactly 0 while lgam(a_jk) is
    finite."""
    return _rises(cfg.alpha / cells, counts)


def _no_penalty(totals, r, n_rows, cfg, cache):
    return 0.0


def _bdeu_join(cell_sum, term_sum, q, penalty, n_rows, cfg):
    """BDeu's a_j = alpha / q terms of the parent configurations are the
    parent set's own cell terms, whose a_jk is alpha over its q cells."""
    return cell_sum - term_sum


def _bdq_cells(counts, cells, n_rows, cfg):
    """BDq: one symmetric Dirichlet(alpha) cell term of a collapsed
    categorical, alpha = cfg.alpha (1/2 gives the Jeffreys prior),
    lgam(alpha + N_k) - lgam(alpha). An unobserved cell contributes exactly
    0 while lgam(alpha) is finite."""
    return _rises(cfg.alpha, counts)


def _bdq_norm(m, n_rows, alpha: float):
    """The normalizing term of a collapsed marginal over m cells of n_rows
    rows, lgam(m alpha) - lgam(m alpha + n_rows), elementwise over arrays of
    either: evaluated once per distinct pair and memoised."""
    ms, ns = distinct(m), distinct(n_rows)
    grid = np.array([[_norm(ma, k) for k in ns.tolist()]
                     for ma in (ms * alpha).tolist()])
    return grid[np.searchsorted(ms, m), np.searchsorted(ns, n_rows)]


@functools.cache
def _norm(ma: float, n_rows: int) -> float:
    """lgam(ma) - lgam(ma + n_rows) of one m alpha and row count."""
    return float(_lgam(ma) - _lgam(ma + n_rows))


def _bdq_penalty(totals, r, n_rows, cfg, cache):
    """The normalizing term of the collapsed family over q r cells."""
    ma = totals.shape[-1] * r * cfg.alpha
    return _per_dataset(lambda n: _norm(ma, n), n_rows)


def _bdq_join(cell_sum, term_sum, q, penalty, n_rows, cfg):
    """Quotient Bayesian score: joint family marginal over the parent set's
    collapsed marginal, one categorical over its full cell space."""
    return (penalty + cell_sum) - (_bdq_norm(q, n_rows, cfg.alpha)
                                   + term_sum)


_LOGLIK = dict(cell=_xlogx_cells, join=_loglik_join)
_CRITERIA = {
    "bic": Criterion(penalty=_bic_penalty, **_LOGLIK),
    "bdeu": Criterion(_bdeu_cells, _no_penalty, _bdeu_join, 1.0),
    "fnml": Criterion(penalty=_fnml_penalty, **_LOGLIK),
    "qnml": Criterion(penalty=_qnml_penalty, **_LOGLIK),
    "bdq": Criterion(_bdq_cells, _bdq_penalty, _bdq_join, 0.5),
}
CRITERIA = tuple(_CRITERIA)


def criterion(name: str) -> Criterion:
    """The definition of a criterion named in CRITERIA."""
    return _CRITERIA[name]


# a score that is not finite is a DataError, so the operations that make
# one stay quiet
@np.errstate(invalid="ignore")
def local_score(data: Dataset, child: int, parents, cfg: ScoreConfig,
                cache: RegretCache | None = None) -> float:
    """Local score of one (child, parent set) family on the dataset.

    A score that is not finite, e.g. from a gamma function overflowing at a
    tiny Dirichlet hyperparameter, is a DataError.
    """
    if cache is None:
        cache = shared_cache(cfg.regret_method)
    crit = _CRITERIA[cfg.criterion]
    counts = contingency(data, child, parents)
    totals = counts.sum(axis=1)
    n_rows = data.n_rows
    q = len(totals)
    score = float(crit.join(
        crit.cell(counts, counts.size, n_rows, cfg).sum(),
        crit.cell(totals, q, n_rows, cfg).sum(), q,
        crit.penalty(totals, counts.shape[1], n_rows, cfg, cache),
        n_rows, cfg))
    if not math.isfinite(score):
        raise not_finite(cfg, data.names[child], score)
    return score


def not_finite(cfg: ScoreConfig, name: str, score) -> DataError:
    """The error of a local score of variable `name` that is not finite."""
    return DataError(f"{cfg.criterion} local score of {name!r} is {score}, "
                     "not finite")


def per_variable_scores(data: Dataset, g: DagStructure, cfg: ScoreConfig,
                        cache: RegretCache | None = None) -> tuple[float, ...]:
    if data.n_vars != g.n:
        raise DataError("dataset and graph variable counts differ")
    if cache is None:
        cache = shared_cache(cfg.regret_method)
    return tuple(local_score(data, i, g.parents[i], cfg, cache)
                 for i in range(g.n))


def total_score(data: Dataset, g: DagStructure, cfg: ScoreConfig,
                cache: RegretCache | None = None) -> float:
    """Network score: sum of local scores over all variables."""
    return float(sum(per_variable_scores(data, g, cfg, cache)))

