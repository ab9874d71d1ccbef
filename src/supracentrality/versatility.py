"""PageRank versatility: a per-node baseline built from the raw supra-adjacency.

Unlike the coupled centrality pipeline, which places per-layer *centrality*
matrices on the block diagonal, versatility treats the whole block matrix
diag(A_1, ..., A_T) + omega * (interlayer x I) as one big ordinary adjacency
matrix, takes its PageRank matrix, and sums the dominant eigenvector's
entries per node.  That block matrix is the Eigenvector-kind coupled
operator at omega, and its PageRank matrix is the one PageRank form of
``centrality.pagerank_from_adjacency`` over it, so nothing of NT x NT size
is stored beyond the operator's block diagonal (save its explicit CSR where
a row sum is out of that function's range).  It reads the same
``SupraProblem`` as every other mode: the network, the interlayer matrix and
the problem's ``PageRank`` kind, whose sigma and dangling policy it applies
to the supra-adjacency.  Its solve defaults to this module's
``DEFAULT_TOL`` and the engine's budget.
"""
from __future__ import annotations

import numpy as np

from . import _EXPORTS
from .centrality import pagerank_from_adjacency
from .engine import (DEFAULT_MAX_ITER, OperatorOverflowError, SupraOperator,
                     shifted_power_iteration)
from .types import Eigenvector, PageRank, SupraProblem, check_omega

__all__ = list(_EXPORTS["versatility"])

DEFAULT_TOL = 1e-12


def pagerank_versatility(
    problem: SupraProblem,
    omega: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Per-node PageRank versatility (length N, sums to 1).

    The supra-adjacency matrix gets the problem kind's dangling policy
    applied at the node-layer level, is turned into the column-stochastic
    PageRank matrix with its teleportation ``sigma``, and its dominant
    eigenvector (normalized to unit 1-norm, so it is a probability over
    node-layer pairs) is summed across each node's layer copies.  Rankings
    are invariant to the normalization choice; magnitudes are on the 1-norm
    scale.  A problem whose kind is not ``PageRank`` raises ValueError, and
    an ``omega`` at which an entry of the supra-adjacency (omega times the
    interlayer matrix, or its sum with a self-loop) is past the float range
    raises ``engine.OperatorOverflowError``.
    """
    if not isinstance(problem.kind, PageRank):
        raise ValueError(f"versatility needs a PageRank kind, got {problem.kind!r}")
    omega = check_omega(omega)
    net = problem.network
    try:
        supra = SupraOperator(SupraProblem(net, Eigenvector(), problem.interlayer), omega)
        finite = bool(np.isfinite(supra.diagonal()).all())
    except OperatorOverflowError:
        finite = False
    if not finite:
        raise OperatorOverflowError(f"the supra-adjacency overflows at omega {omega!r}")
    mat = pagerank_from_adjacency(supra, problem.kind)
    pair = shifted_power_iteration(mat, tol=tol, max_iter=max_iter)
    vec = pair.vector
    total = float(vec.sum())
    if total <= 0:
        raise RuntimeError("supra PageRank vector has no positive mass")
    vec = vec / total
    return vec.reshape(net.n_layers, net.n_nodes).sum(axis=0)
