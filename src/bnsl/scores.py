"""Decomposable local scores for structure learning.

Five criteria share the signature local(child | parents, data): BIC, BDeu,
fNML, qNML and BDq. Every score is a natural-log quantity and decomposes
over variables, so the network score is the sum of local terms. Parent
configuration counts q_i always use the full arity product, never just the
configurations observed in the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .dataset import ContingencyTable, Dataset, contingency, counts_loglik
from .errors import DataError
from .regret import RegretCache, canonical_method, shared_cache
from .structure import DagStructure

CRITERIA = ("bic", "bdeu", "fnml", "qnml", "bdq")


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
        if self.bdeu_alpha <= 0.0 or self.bdq_alpha <= 0.0:
            raise DataError("Dirichlet hyperparameters must be positive")
        object.__setattr__(self, "regret_method",
                           canonical_method(self.regret_method))


def _resolve_cache(cfg: ScoreConfig, cache: RegretCache | None) -> RegretCache:
    return cache if cache is not None else shared_cache(cfg.regret_method)


def max_loglik_conditional(table: ContingencyTable) -> float:
    """ln P(child column | parent columns) at the ML parameters; always <= 0."""
    return counts_loglik(table.counts, table.row_totals)


def bic_local(table: ContingencyTable, n_rows: int) -> float:
    """Maximized log-likelihood minus (q (r-1) / 2) ln N."""
    if n_rows < 1:
        raise DataError("BIC needs at least one data row")
    penalty = 0.5 * table.q * (table.r - 1) * math.log(n_rows)
    return max_loglik_conditional(table) - penalty


def bdeu_local(table: ContingencyTable, cfg: ScoreConfig) -> float:
    """BDeu marginal likelihood with equivalent sample size cfg.bdeu_alpha."""
    a_j = cfg.bdeu_alpha / table.q
    a_jk = cfg.bdeu_alpha / (table.q * table.r)
    # unobserved configurations contribute exactly 0 to both sums
    score = float((gammaln(a_jk + table.counts) - gammaln(a_jk)).sum())
    score += float((gammaln(a_j) - gammaln(a_j + table.row_totals)).sum())
    return score


def fnml_local(table: ContingencyTable, cfg: ScoreConfig,
               cache: RegretCache | None = None) -> float:
    """Factorized NML: per observed parent configuration, regret of its slice."""
    cache = _resolve_cache(cfg, cache)
    penalty = 0.0
    for n_j in table.row_totals:
        if n_j > 0:
            penalty += cache.get(int(n_j), table.r)
    return max_loglik_conditional(table) - penalty


def qnml_local(table: ContingencyTable, n_rows: int, cfg: ScoreConfig,
               cache: RegretCache | None = None) -> float:
    """Quotient NML: regret of the collapsed family minus regret of the parents.

    Both regret terms are evaluated at the full sample size with cell counts
    taken from the full arity product, which is what makes the score exactly
    invariant under covered-arc reversal.
    """
    cache = _resolve_cache(cfg, cache)
    penalty = (cache.get(n_rows, table.q * table.r)
               - cache.get(n_rows, table.q))
    return max_loglik_conditional(table) - penalty


def bdq_local(table: ContingencyTable, n_rows: int, cfg: ScoreConfig) -> float:
    """Quotient Bayesian score: joint family marginal over parent-set marginal.

    Each marginal treats the collapsed variable set as one categorical with a
    symmetric Dirichlet(alpha, ..., alpha) prior over its full cell space.
    """
    a = cfg.bdq_alpha
    num = _collapsed_marginal(table.counts.ravel(), table.q * table.r, n_rows, a)
    den = _collapsed_marginal(table.row_totals, table.q, n_rows, a)
    return num - den


def _collapsed_marginal(counts, m: int, n_rows: int, alpha: float) -> float:
    score = gammaln(m * alpha) - gammaln(m * alpha + n_rows)
    score += (gammaln(alpha + counts) - gammaln(alpha)).sum()
    return float(score)


def local_score_from_table(table: ContingencyTable, n_rows: int,
                           cfg: ScoreConfig,
                           cache: RegretCache | None = None) -> float:
    c = cfg.criterion
    if c == "bic":
        return bic_local(table, n_rows)
    if c == "bdeu":
        return bdeu_local(table, cfg)
    if c == "fnml":
        return fnml_local(table, cfg, cache)
    if c == "qnml":
        return qnml_local(table, n_rows, cfg, cache)
    return bdq_local(table, n_rows, cfg)


def local_score(data: Dataset, child: int, parents, cfg: ScoreConfig,
                cache: RegretCache | None = None) -> float:
    """Local score of one (child, parent set) family on the dataset."""
    table = contingency(data, child, parents)
    return local_score_from_table(table, data.n_rows, cfg, cache)


def per_variable_scores(data: Dataset, g: DagStructure, cfg: ScoreConfig,
                        cache: RegretCache | None = None) -> tuple[float, ...]:
    if data.n_vars != g.n:
        raise DataError("dataset and graph variable counts differ")
    cache = _resolve_cache(cfg, cache)
    return tuple(local_score(data, i, g.parents[i], cfg, cache)
                 for i in range(g.n))


def total_score(data: Dataset, g: DagStructure, cfg: ScoreConfig,
                cache: RegretCache | None = None) -> float:
    """Network score: sum of local scores over all variables."""
    return float(sum(per_variable_scores(data, g, cfg, cache)))

