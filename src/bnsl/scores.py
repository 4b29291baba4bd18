"""Decomposable local scores for structure learning.

Five criteria, BIC, BDeu, fNML, qNML and BDq, are each a function of one
family's q x r count array (see dataset.contingency). Every score is a
natural-log quantity and decomposes over variables, so the network score is
the sum of local terms. Parent configuration counts q_i always use the full
arity product, never just the configurations observed in the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _loglik, contingency
from .errors import DataError
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
        for alpha in (self.bdeu_alpha, self.bdq_alpha):
            if not (alpha > 0.0 and math.isfinite(alpha)):
                raise DataError("Dirichlet hyperparameters must be positive "
                                "and finite")
        object.__setattr__(self, "regret_method",
                           canonical_method(self.regret_method))


def bic_local(counts: np.ndarray, n_rows: int, cfg: ScoreConfig,
              cache: RegretCache) -> float:
    """Maximized log-likelihood minus (q (r-1) / 2) ln N."""
    if n_rows < 1:
        raise DataError("BIC needs at least one data row")
    q, r = counts.shape
    penalty = 0.5 * q * (r - 1) * math.log(n_rows)
    return _loglik(counts, counts.sum(axis=1)) - penalty


def bdeu_local(counts: np.ndarray, n_rows: int, cfg: ScoreConfig,
               cache: RegretCache) -> float:
    """BDeu marginal likelihood with equivalent sample size cfg.bdeu_alpha."""
    # scipy's gammaln, not math.lgamma: the two round differently, and the
    # pinned scores depend on its rounding
    from scipy.special import gammaln
    a_j = cfg.bdeu_alpha / counts.shape[0]
    a_jk = cfg.bdeu_alpha / counts.size
    # unobserved configurations contribute exactly 0 to both sums
    score = float((gammaln(a_jk + counts) - gammaln(a_jk)).sum())
    score += float((gammaln(a_j) - gammaln(a_j + counts.sum(axis=1))).sum())
    return score


def fnml_local(counts: np.ndarray, n_rows: int, cfg: ScoreConfig,
               cache: RegretCache) -> float:
    """Factorized NML: per observed parent configuration, regret of its slice."""
    r = counts.shape[1]
    totals = counts.sum(axis=1)
    penalty = 0.0
    for n_j in totals:
        if n_j > 0:
            penalty += cache.get(int(n_j), r)
    return _loglik(counts, totals) - penalty


def qnml_local(counts: np.ndarray, n_rows: int, cfg: ScoreConfig,
               cache: RegretCache) -> float:
    """Quotient NML: regret of the collapsed family minus regret of the parents.

    Both regret terms are evaluated at the full sample size with cell counts
    taken from the full arity product, which is what makes the score exactly
    invariant under covered-arc reversal.
    """
    penalty = (cache.get(n_rows, counts.size)
               - cache.get(n_rows, counts.shape[0]))
    return _loglik(counts, counts.sum(axis=1)) - penalty


def bdq_local(counts: np.ndarray, n_rows: int, cfg: ScoreConfig,
              cache: RegretCache) -> float:
    """Quotient Bayesian score: joint family marginal over parent-set marginal.

    Each marginal treats the collapsed variable set as one categorical with a
    symmetric Dirichlet(alpha, ..., alpha) prior over its full cell space.
    """
    a = cfg.bdq_alpha
    num = _collapsed_marginal(counts.ravel(), counts.size, n_rows, a)
    den = _collapsed_marginal(counts.sum(axis=1), counts.shape[0], n_rows, a)
    return num - den


def _collapsed_marginal(counts, m: int, n_rows: int, alpha: float) -> float:
    from scipy.special import gammaln
    score = gammaln(m * alpha) - gammaln(m * alpha + n_rows)
    score += (gammaln(alpha + counts) - gammaln(alpha)).sum()
    return float(score)


# criterion name -> local score of one family's q x r count array
_LOCAL = {"bic": bic_local, "bdeu": bdeu_local, "fnml": fnml_local,
          "qnml": qnml_local, "bdq": bdq_local}
CRITERIA = tuple(_LOCAL)


def local_score(data: Dataset, child: int, parents, cfg: ScoreConfig,
                cache: RegretCache | None = None) -> float:
    """Local score of one (child, parent set) family on the dataset.

    A score that is not finite, e.g. from a gamma function overflowing at a
    tiny Dirichlet hyperparameter, is a DataError.
    """
    if cache is None:
        cache = shared_cache(cfg.regret_method)
    score = _LOCAL[cfg.criterion](contingency(data, child, parents),
                                  data.n_rows, cfg, cache)
    if not math.isfinite(score):
        raise DataError(f"{cfg.criterion} local score of "
                        f"{data.names[child]!r} is {score}, not finite")
    return score


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

