"""Non-contextual autonomy scoring for robot platform families.

The pipeline: ingest a platform-by-feature matrix and an evaluation
config, normalize feature columns, aggregate them into component
performance scores (four weighted normalized sums plus the weighted
product), classify autonomy levels from capability profiles, place each
platform at <level, performance> in autonomy space, and rank platforms
by autonomy distance absolutely and relative to the best system.
"""

from .aggregate import (
    METHODS,
    ScoreTable,
    WeightVector,
    score_table,
    weighted_product,
    weighted_sum,
)
from .errors import (
    ConfigError,
    DegenerateColumnError,
    DimensionError,
    DomainError,
    EmptyColumnError,
    EmptyInputError,
    EncodingError,
    FormatError,
    InadmissibleProfileError,
    InsufficientMethodsError,
    MethodMismatchError,
    MissingValueError,
    NcapError,
    ProductDomainError,
)
from .geometry import (
    DistanceReport,
    NcapCoordinate,
    autonomy_distance,
    coordinate_plot_data,
    distance_report,
    relative_distance,
    select_reference,
)
from .ingest import (
    Direction,
    EvalConfig,
    FeatureMatrix,
    FeatureSpec,
    MissingValuePolicy,
    ResolvedMatrix,
    load_config,
    parse_feature_matrix,
    parse_feature_matrix_text,
    resolve_missing,
)
from .level import AutonomyLevel, CapabilityProfile, classify
from .normalize import (
    NormalizationMethod,
    NormalizedColumn,
    eta_map,
    eta_max,
    eta_sum,
    eta_zsc,
    normalize,
)
from .ranking import AgreementStats, RankTable, consensus_report, kendall_tau, rank_scores, rank_table

__version__ = "0.1.0"

__all__ = [
    "AgreementStats",
    "AutonomyLevel",
    "CapabilityProfile",
    "ConfigError",
    "DegenerateColumnError",
    "DimensionError",
    "Direction",
    "DistanceReport",
    "DomainError",
    "EmptyColumnError",
    "EmptyInputError",
    "EncodingError",
    "EvalConfig",
    "FeatureMatrix",
    "FeatureSpec",
    "FormatError",
    "InadmissibleProfileError",
    "InsufficientMethodsError",
    "METHODS",
    "MethodMismatchError",
    "MissingValueError",
    "MissingValuePolicy",
    "NcapCoordinate",
    "NcapError",
    "NormalizationMethod",
    "NormalizedColumn",
    "ProductDomainError",
    "RankTable",
    "ResolvedMatrix",
    "ScoreTable",
    "WeightVector",
    "autonomy_distance",
    "classify",
    "consensus_report",
    "coordinate_plot_data",
    "distance_report",
    "eta_map",
    "eta_max",
    "eta_sum",
    "eta_zsc",
    "kendall_tau",
    "load_config",
    "normalize",
    "parse_feature_matrix",
    "parse_feature_matrix_text",
    "rank_scores",
    "rank_table",
    "relative_distance",
    "resolve_missing",
    "score_table",
    "select_reference",
    "weighted_product",
    "weighted_sum",
]
