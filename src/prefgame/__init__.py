"""Zero-sum preference games: solving, decomposing, and probing them.

The pipeline in one breath: validate pairwise preferences, map them
entrywise into a payoff matrix, solve the induced zero-sum game exactly,
and relate the solution to the tournament structure of the preferences.
On top of that sit certification tools for preference-matching targets
and seeded generators with a Monte Carlo harness for empirical
verification runs.
"""

from .core import (
    GenerationError,
    MappingError,
    PayoffMatrix,
    Policy,
    PreferenceMatrix,
    PrefGameError,
    SolverError,
    TieError,
    ValidationError,
    make_payoff,
    make_policy,
    validate_preferences,
)
from .experiment import MonteCarloSummary, monte_carlo
from .generators import (
    GeneratorConfig,
    mixture_weights,
    random_tournament,
    table_preferences,
)
from .mappings import (
    ConditionReport,
    MappingSpec,
    affine,
    apply_mapping,
    check_conditions,
    eval_mapping,
    identity,
    log_odds,
    mapping_from_dict,
    mapping_to_dict,
    piecewise_constant,
    piecewise_linear,
    power,
    symmetric_extension,
)
from .preference_matching import (
    BTLModel,
    KKTCertificate,
    ProbeReport,
    RatioPayoffSpec,
    btl_family,
    btl_preferences,
    construction_one,
    construction_two,
    degenerate_family,
    kkt_verify,
    make_btl,
    pm_gap,
    pm_policy,
    ratio_payoff,
)
from .social_choice import (
    ConsistencyVerdict,
    Decomposition,
    condorcet_winner,
    consistency_verdict,
    smith_decomposition,
)
from .solver import (
    NashReport,
    UniquenessReport,
    best_response_gap,
    solve_maximin,
    uniqueness_report,
)

__version__ = "0.1.0"

__all__ = [
    "BTLModel",
    "ConditionReport",
    "ConsistencyVerdict",
    "Decomposition",
    "GenerationError",
    "GeneratorConfig",
    "KKTCertificate",
    "MappingError",
    "MappingSpec",
    "MonteCarloSummary",
    "NashReport",
    "PayoffMatrix",
    "Policy",
    "PrefGameError",
    "PreferenceMatrix",
    "ProbeReport",
    "RatioPayoffSpec",
    "SolverError",
    "TieError",
    "UniquenessReport",
    "ValidationError",
    "affine",
    "apply_mapping",
    "best_response_gap",
    "btl_family",
    "btl_preferences",
    "check_conditions",
    "condorcet_winner",
    "consistency_verdict",
    "construction_one",
    "construction_two",
    "degenerate_family",
    "eval_mapping",
    "identity",
    "kkt_verify",
    "log_odds",
    "make_btl",
    "make_payoff",
    "make_policy",
    "mapping_from_dict",
    "mapping_to_dict",
    "mixture_weights",
    "monte_carlo",
    "piecewise_constant",
    "piecewise_linear",
    "pm_gap",
    "pm_policy",
    "power",
    "random_tournament",
    "ratio_payoff",
    "smith_decomposition",
    "solve_maximin",
    "symmetric_extension",
    "table_preferences",
    "uniqueness_report",
    "validate_preferences",
]
