"""Eigenvector-based joint, marginal, and conditional centralities for
multiplex and temporal networks, with closed-form weak- and strong-coupling
limits as independent cross-checks.

Each public name is imported from its submodule on first use, so
``import supracentrality`` loads no numpy: the command line
(:mod:`supracentrality.cli`) sets its BLAS thread count before numpy starts.
``_EXPORTS`` is the one list of public names; each submodule's ``__all__``
reads its entry.  The solver defaults are declared in ``engine`` and
``versatility``, PageRank's in ``types.PageRank``; the CLI's flags read them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "centrality": ("LayerCentralityMatrix", "build_centrality_matrix", "pagerank_from_adjacency"),
    "engine": ("EigenpairResult", "NegativeEigenvectorError", "NonConvergenceError",
               "OperatorOverflowError", "SupraOperator", "dominant_eigenpair",
               "shifted_power_iteration", "stride_permutation", "tableau_from_vector"),
    "graph": ("ConstantInputError", "PreconditionReport", "check_preconditions",
              "intralayer_degrees", "pearson", "strongly_connected", "total_degrees"),
    "interlayer": ("all_to_all", "block_communities", "chain_teleport", "chain_undirected",
                   "from_triplets"),
    "limits": ("CorollaryCheck", "DegenerateInterlayerEigenvalueError",
               "DegenerateLayerEigenvalueError", "LayerEigendata", "LimitPreconditionError",
               "NotApplicableError", "ReducibleDominatingSetError", "StrongLimitResult",
               "WeakLimitResult", "corollary_crosscheck", "layer_eigendata", "layer_spectral_radii",
               "strong_limit", "weak_limit"),
    "sweeps": ("DegreeCorrelation", "OmegaGrid", "PreconditionFailure", "RegimeInterval",
               "RegimeReport", "SweepResult", "correlate_with_degrees", "detect_regimes",
               "log_grid", "rank_trajectory", "solve_point", "sweep"),
    "types": ("Authority", "CentralityKind", "CentralityTableau", "DanglingPolicy", "Eigenvector",
              "Hub", "InterlayerMatrix", "LayerGraph", "MultiplexNetwork", "PageRank",
              "SupraProblem", "validate_network"),
    "versatility": ("pagerank_versatility",),
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    # the submodules are package attributes too, imported on first use
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
