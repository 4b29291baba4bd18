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
configurations observed in the data.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _xlogx_table, contingency
from .errors import DataError, real
from .regret import RegretCache, canonical_method, shared_cache
from .structure import DagStructure


@dataclass(frozen=True)
class ScoreConfig:
    """Criterion choice plus its hyperparameters.

    bdeu_alpha is the BDeu equivalent sample size; bdq_alpha is the
    symmetric Dirichlet parameter of BDq (1/2 gives the Jeffreys prior).
    regret_method selects how fNML and qNML evaluate regret terms.
    """

    criterion: str = "qnml"
    bdeu_alpha: float = 1.0
    bdq_alpha: float = 0.5
    regret_method: str = "szp-all-range"

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise DataError(f"unknown criterion {self.criterion!r}; "
                            f"expected one of {', '.join(CRITERIA)}")
        for name in ("bdeu_alpha", "bdq_alpha"):
            alpha = real(getattr(self, name), name)
            if not (alpha > 0.0 and math.isfinite(alpha)):
                raise DataError("Dirichlet hyperparameters must be positive "
                                "and finite")
        object.__setattr__(self, "regret_method",
                           canonical_method(self.regret_method))


@dataclass(frozen=True)
class Criterion:
    """One local score as a cell term, a penalty and one join, shared by
    local_score and the subset-keyed tables (learner.learn_datasets).

    cell(counts, cells, n_rows, cfg) is an elementwise term of a family's
    count array over `cells` cells (a number, or a pair (sizes, index): the
    distinct cell counts, and per count an index into them that broadcasts
    against counts); the family sums it in its own order, child axis last.
    Its n_rows is a number of rows no count exceeds.
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
    cell_reads names the ScoreConfig field that cell reads, None if it
    reads none: two configs whose cell and that field agree have the same
    cell terms.
    """

    cell: Callable
    penalty: Callable
    join: Callable
    cell_reads: str | None = None


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


def _bdeu_cells(counts, cells, n_rows, cfg):
    """BDeu with equivalent sample size cfg.bdeu_alpha: the a_jk = alpha /
    (q r) cell term; unobserved cells contribute exactly 0. gammaln(a_jk)
    is evaluated once per distinct cell count."""
    # scipy's gammaln, not math.lgamma: the two round differently, and the
    # pinned scores depend on its rounding
    from scipy.special import gammaln
    sizes, index = cells if isinstance(cells, tuple) else ([cells], 0)
    a_jk = cfg.bdeu_alpha / np.asarray(sizes)
    return gammaln(a_jk[index] + counts) - gammaln(a_jk)[index]


def _no_penalty(totals, r, n_rows, cfg, cache):
    return 0.0


def _bdeu_join(cell_sum, term_sum, q, penalty, n_rows, cfg):
    """BDeu's a_j = alpha / q terms of the parent configurations are the
    parent set's own cell terms, whose a_jk is alpha over its q cells."""
    return cell_sum - term_sum


def _bdq_cells(counts, cells, n_rows, cfg):
    """BDq: one symmetric Dirichlet(alpha) cell term of a collapsed
    categorical, alpha = cfg.bdq_alpha (1/2 gives the Jeffreys prior)."""
    from scipy.special import gammaln
    return gammaln(cfg.bdq_alpha + counts) - gammaln(cfg.bdq_alpha)


def _bdq_norm(m, n_rows, alpha: float):
    """The normalizing term of a collapsed marginal over m cells of n_rows
    rows, elementwise over arrays of either."""
    from scipy.special import gammaln
    return gammaln(m * alpha) - gammaln(m * alpha + n_rows)


def _bdq_penalty(totals, r, n_rows, cfg, cache):
    """The normalizing term of the collapsed family over q r cells."""
    return _bdq_norm(totals.shape[-1] * r, n_rows, cfg.bdq_alpha)


def _bdq_join(cell_sum, term_sum, q, penalty, n_rows, cfg):
    """Quotient Bayesian score: joint family marginal over the parent set's
    collapsed marginal, one categorical over its full cell space."""
    return (penalty + cell_sum) - (_bdq_norm(q, n_rows, cfg.bdq_alpha)
                                   + term_sum)


_LOGLIK = dict(cell=_xlogx_cells, join=_loglik_join)
_CRITERIA = {
    "bic": Criterion(penalty=_bic_penalty, **_LOGLIK),
    "bdeu": Criterion(_bdeu_cells, _no_penalty, _bdeu_join, "bdeu_alpha"),
    "fnml": Criterion(penalty=_fnml_penalty, **_LOGLIK),
    "qnml": Criterion(penalty=_qnml_penalty, **_LOGLIK),
    "bdq": Criterion(_bdq_cells, _bdq_penalty, _bdq_join, "bdq_alpha"),
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

