"""Spectral clustering for dynamic stochastic block models.

Simulate static and dynamic SBMs, smooth adjacency snapshots in time (sliding
window or exponential forgetting), cluster with the spectral algorithm on the
smoothed adjacency or its normalized Laplacian, and verify the concentration
theory empirically at desk scale.
"""

from .bounds import (
    DegreeDeviationStats,
    RateCard,
    SmoothingBiasCheck,
    degree_deviation_stats,
    frobenius_diff_sq,
    frobenius_trajectory,
    rate_card,
    smoothing_bias_check,
)
from .dynamics import (
    DeterministicDsbmConfig,
    MarkovDsbmConfig,
    MembershipSequence,
    SnapshotSequence,
    gen_deterministic_sequence,
    gen_markov_sequence,
    load_sequence,
    sample_snapshot_sequence,
    save_sequence,
)
from .errors import (
    DynscError,
    EigenSolverError,
    GenerationError,
    InvalidInputError,
    MemoryBudgetError,
    ZeroDegreeError,
)
from .experiments import ExperimentConfig, RunRecord, run_sweep, summarize
from .metrics import (
    ErrorReport,
    adjusted_rand_index,
    confusion_matrix,
    misclassification_error,
)
from .sbm import (
    AdjacencySnapshot,
    CommunityLabels,
    ConnectivityModel,
    SizeProfile,
    build_probability_matrix,
    effective_sizes,
    expected_degrees,
    load_snapshot,
    normalized_laplacian,
    normalized_laplacian_csr,
    sample_adjacency,
    sample_sbm,
    save_snapshot,
)
from .smoothing import (
    Exponential,
    SmoothingWeights,
    TuningProfile,
    Uniform,
    exp_smooth_update,
    t_min_regime,
    t_min_weight_bound,
    t_min_weights,
    tuning_profile,
    weighted_smooth,
    weighted_smooth_csr,
    weights_of,
)
from .spectral import (
    EigenBasis,
    KMeansResult,
    SpectralClusteringResult,
    kmeans,
    spectral_cluster,
    spectral_norm,
    top_k_eigenpairs,
)

__version__ = "0.1.0"
