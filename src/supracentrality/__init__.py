"""Eigenvector-based joint, marginal, and conditional centralities for
multiplex and temporal networks, with closed-form weak- and strong-coupling
limits as independent cross-checks."""

from .centrality import (
    LayerCentralityMatrix,
    build_authority_matrix,
    build_centrality_matrix,
    build_eigenvector_matrix,
    build_hub_matrix,
    build_pagerank_matrix,
)
from .engine import (
    EigenpairResult,
    NonConvergenceError,
    SupraOperator,
    dominant_eigenpair,
    shifted_power_iteration,
    stride_permutation,
    tableau_from_vector,
)
from .graph import (
    ConstantInputError,
    PreconditionReport,
    aggregate_layers,
    check_preconditions,
    intralayer_degrees,
    k_path_counts,
    pearson,
    strongly_connected,
    total_degrees,
)
from .interlayer import (
    all_to_all,
    block_communities,
    chain_teleport,
    chain_undirected,
    from_triplets,
)
from .limits import (
    CorollaryCheck,
    DegenerateInterlayerEigenvalueError,
    DegenerateLayerEigenvalueError,
    LayerEigendata,
    LimitPreconditionError,
    NotApplicableError,
    ReducibleDominatingSetError,
    StrongLimitResult,
    WeakLimitResult,
    corollary_crosscheck,
    layer_eigendata,
    strong_limit,
    weak_limit,
)
from .sweeps import (
    DegreeCorrelation,
    OmegaGrid,
    RegimeInterval,
    RegimeReport,
    SweepResult,
    correlate_with_degrees,
    detect_regimes,
    log_grid,
    rank_trajectory,
    sweep,
)
from .types import (
    Authority,
    CentralityKind,
    CentralityTableau,
    DanglingPolicy,
    Eigenvector,
    Hub,
    InterlayerMatrix,
    LayerGraph,
    MultiplexNetwork,
    PageRank,
    SupraProblem,
    validate_network,
)
from .versatility import pagerank_versatility

__version__ = "0.1.0"
