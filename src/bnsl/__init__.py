"""Bayesian network structure learning with NML-based model selection.

Discrete data only. Scores: BIC, BDeu, factorized NML, quotient NML, and a
quotient Bayesian score. Search is exact (dynamic programming over variable
subsets), so it is limited to small networks but returns provable optima.
"""

from .dataset import (
    Dataset,
    contingency,
    config_index,
    config_indices,
    counts_loglik,
    empirical_cond_entropy,
    load_dataset,
    load_datasets_shared,
    write_dataset,
)
from .errors import DataError, ResourceLimitError
from .learner import (
    LearnResult,
    LocalScoreTable,
    compute_local_scores,
    learn_bruteforce,
    learn_exact,
)
from .model import (
    BayesianNetwork,
    fit_bpp,
    fit_ml,
    fit_snml,
    load_network,
    load_structure,
    log_predict,
    log_predict_rows,
    mean_test_loglik,
    sample,
    save_network,
)
from .regret import (
    RegretCache,
    canonical_method,
    regret,
    regret_bruteforce_oracle,
    regret_exact,
    regret_szp_all_range,
    regret_szp_small_r,
    shared_cache,
)
from .scores import (
    CRITERIA,
    ScoreConfig,
    local_score,
    per_variable_scores,
    total_score,
)
from .structure import (
    Cpdag,
    DagStructure,
    count_tournament_component_dags,
    cpdag_shd,
    enumerate_dags,
    is_covered_arc,
    is_tournament_component_dag,
    nml_bruteforce,
    parameter_count,
    reverse_covered_arc,
    shd,
    to_cpdag,
    topological_order,
)

__version__ = "0.1.0"

__all__ = [
    "BayesianNetwork",
    "CRITERIA",
    "Cpdag",
    "DagStructure",
    "DataError",
    "Dataset",
    "LearnResult",
    "LocalScoreTable",
    "RegretCache",
    "ResourceLimitError",
    "ScoreConfig",
    "canonical_method",
    "compute_local_scores",
    "config_index",
    "config_indices",
    "contingency",
    "count_tournament_component_dags",
    "counts_loglik",
    "cpdag_shd",
    "empirical_cond_entropy",
    "enumerate_dags",
    "fit_bpp",
    "fit_ml",
    "fit_snml",
    "is_covered_arc",
    "is_tournament_component_dag",
    "learn_bruteforce",
    "learn_exact",
    "load_dataset",
    "load_datasets_shared",
    "load_network",
    "load_structure",
    "log_predict",
    "log_predict_rows",
    "mean_test_loglik",
    "nml_bruteforce",
    "parameter_count",
    "per_variable_scores",
    "regret",
    "regret_bruteforce_oracle",
    "regret_exact",
    "regret_szp_all_range",
    "regret_szp_small_r",
    "reverse_covered_arc",
    "sample",
    "save_network",
    "shared_cache",
    "shd",
    "to_cpdag",
    "topological_order",
    "total_score",
    "write_dataset",
    "__version__",
]
