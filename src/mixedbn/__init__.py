"""Bayesian network learning from mixed discrete and continuous data.

The package scores candidate network structures together with per-variable
interval discretizations of the continuous columns, and searches both
jointly: a dynamic program finds optimal thresholds for one variable given
the rest, coordinate ascent cycles that over variables, and greedy hill
climbing interleaves edge edits with re-discretization.
"""

from .dataset import (
    Dataset,
    DiscretizationPolicy,
    InternalError,
    NetworkPolicy,
    ValidationError,
    VariableMeta,
    apply_policy,
    candidate_thresholds,
    discretize_all,
    load_dataset,
    load_schema,
    policy_from_obj,
    policy_to_obj,
    trivial_network_policy,
    validate_network_policy,
)
from .generator import (
    Mechanism,
    load_mechanism,
    mechanism_from_obj,
    mechanism_to_obj,
    random_mechanism,
    sample_dataset,
)
from .graph import (
    CycleError,
    DagStructure,
    empty_structure,
    to_dot,
    validate_dag,
)
from .scoring import (
    PriorSpec,
    ScoreBreakdown,
    continuous_component,
    emission_component,
    interval_count_log_prior,
    network_score,
    policy_log_prior,
)
from .search import (
    InitSpec,
    SearchConfig,
    SearchTrace,
    coordinate_ascent,
    hill_climb_structure,
    initial_policy,
    optimize_variable,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DiscretizationPolicy",
    "InternalError",
    "NetworkPolicy",
    "ValidationError",
    "VariableMeta",
    "apply_policy",
    "candidate_thresholds",
    "discretize_all",
    "load_dataset",
    "load_schema",
    "policy_from_obj",
    "policy_to_obj",
    "trivial_network_policy",
    "validate_network_policy",
    "Mechanism",
    "load_mechanism",
    "mechanism_from_obj",
    "mechanism_to_obj",
    "random_mechanism",
    "sample_dataset",
    "CycleError",
    "DagStructure",
    "empty_structure",
    "to_dot",
    "validate_dag",
    "PriorSpec",
    "ScoreBreakdown",
    "continuous_component",
    "emission_component",
    "interval_count_log_prior",
    "network_score",
    "policy_log_prior",
    "InitSpec",
    "SearchConfig",
    "SearchTrace",
    "coordinate_ascent",
    "hill_climb_structure",
    "initial_policy",
    "optimize_variable",
    "__version__",
]
