"""Structural checks and degree statistics.

Strong connectivity doubles as the irreducibility test for nonnegative
matrices (the two are equivalent), which is what the uniqueness
preconditions of the coupled eigenproblem require: the coupling omega times
the interlayer matrix must be strongly connected (at every omega > 0, the
interlayer matrix itself) and the entrywise sum of the layer centrality
matrices must be irreducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import _EXPORTS
from .centrality import LayerCentralityMatrix
from .types import MultiplexNetwork, SupraProblem, check_omega

__all__ = list(_EXPORTS["graph"])


class ConstantInputError(ValueError):
    """Raised when a correlation input has zero variance."""


def _strong_components(matrix) -> tuple[int, np.ndarray]:
    """Number of strong components of the digraph with an edge wherever the
    entry is > 0, and each node's component label; O(N + nnz) when sparse.
    csgraph reads only a CSR matrix's index arrays, so a float64 CSR whose
    stored entries are all > 0 goes as it is, read-only arrays included;
    dense input, or a stored entry <= 0 (PageRank with sigma = 0 stores
    zeros, which csgraph would count as edges), goes through ``> 0``."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not (sparse.issparse(matrix) and matrix.format == "csr"
            and matrix.dtype == np.float64 and matrix.data.min(initial=1.0) > 0):
        matrix = matrix > 0
    return csgraph.connected_components(matrix, directed=True, connection="strong")


def strongly_connected(matrix) -> bool:
    """True iff the digraph with an edge wherever the entry is > 0 is
    strongly connected, by csgraph in O(N + nnz).  A 1x1 (or empty) matrix
    counts."""
    return _strong_components(matrix if sparse.issparse(matrix) else np.asarray(matrix))[0] <= 1


def layer_sum_components(
    layer_matrices: tuple[LayerCentralityMatrix, ...],
) -> tuple[int, np.ndarray]:
    """Strong components (Frobenius normal form blocks) of the entrywise sum
    of the layer matrices.  A PageRank term (c / N) 1 1^T with c > 0 makes
    the sum positive: one component.  A lone matrix is not copied."""
    if any(m.uniformly_positive for m in layer_matrices):
        return 1, np.zeros(layer_matrices[0].n, dtype=np.int32)
    first, *rest = (m.sparse for m in layer_matrices)
    return _strong_components(sum(rest, first))


@dataclass(frozen=True)
class PreconditionReport:
    """Outcome of the uniqueness precondition checks for a coupled problem."""

    interlayer_ok: bool
    layer_sum_ok: bool

    @property
    def both_ok(self) -> bool:
        return self.interlayer_ok and self.layer_sum_ok


def check_preconditions(problem: SupraProblem, omega: float) -> PreconditionReport:
    """Check that the coupling ``omega`` * interlayer is strongly connected
    and the sum of ``problem.layer_matrices`` is irreducible.

    Report-style: callers decide whether to refuse.  When both flags hold,
    the coupled operator at ``omega`` has a unique positive dominant
    eigenvector.  At omega = 0 the coupling of two or more layers is not
    strongly connected: the operator is block diagonal.  Every omega > 0
    gives the same report.  A single layer's 1 x 1 coupling counts.  An
    omega that is not finite and nonnegative raises ValueError.
    """
    return PreconditionReport(
        interlayer_ok=strongly_connected(check_omega(omega) * problem.interlayer.values),
        layer_sum_ok=layer_sum_components(problem.layer_matrices)[0] == 1,
    )


def intralayer_degrees(net: MultiplexNetwork) -> np.ndarray:
    """Out-degree (row sum) of every node in every layer, as an N x T matrix."""
    cols = [np.asarray(layer.csr.sum(axis=1)).ravel() for layer in net.layers]
    return np.column_stack(cols)


def total_degrees(net: MultiplexNetwork) -> np.ndarray:
    """Per-node degree summed across all layers (length N)."""
    return intralayer_degrees(net).sum(axis=1)


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient.

    Raises ConstantInputError when either input has zero variance, fewer
    than two samples included (the coefficient is undefined there).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("inputs must be 1-D with equal length")
    if xa.size < 2:  # one sample has zero variance
        raise ConstantInputError("need at least two samples")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise ConstantInputError("correlation undefined for constant input")
    return float((xc @ yc) / np.sqrt(sx * sy))
