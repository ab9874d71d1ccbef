"""Structural checks and degree statistics.

Strong connectivity doubles as the irreducibility test for nonnegative
matrices (the two are equivalent), which is what the uniqueness
preconditions of the coupled eigenproblem require: the interlayer matrix
must be strongly connected and the entrywise sum of the layer centrality
matrices must be irreducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .centrality import LayerCentralityMatrix
from .types import LayerGraph, MultiplexNetwork, SupraProblem

__all__ = [
    "ConstantInputError",
    "PreconditionReport",
    "strongly_connected",
    "layer_sum_components",
    "layer_sum_irreducible",
    "check_preconditions",
    "intralayer_degrees",
    "total_degrees",
    "k_path_counts",
    "aggregate_layers",
    "pearson",
]


class ConstantInputError(ValueError):
    """Raised when a correlation input has zero variance."""


def _strong_components(matrix) -> tuple[int, np.ndarray]:
    """Number of strong components of the digraph with an edge wherever the
    entry is > 0, and each node's component label; O(N + nnz) when sparse.
    The > 0 matters: csgraph counts stored zeros (PageRank, sigma=0) as edges."""
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return csgraph.connected_components(matrix > 0, directed=True, connection="strong")


# up to this size a dense Boolean closure beats csgraph's per-call overhead;
# its O(n^3 log n) cost loses above it
_CLOSURE_MAX_N = 32


def strongly_connected(matrix) -> bool:
    """True iff the digraph with an edge wherever the entry is > 0 is strongly connected.

    A 1x1 (or empty) matrix counts.  Sparse input, and dense input above 32
    nodes, goes through csgraph, O(N + nnz).  A small dense array
    (interlayer, weak-limit X) is decided by Boolean transitive closure:
    reach = adj | I squared ceil(log2(n - 1)) times covers every path of up
    to n - 1 edges."""
    if sparse.issparse(matrix):
        return _strong_components(matrix)[0] <= 1
    adj = np.asarray(matrix) > 0
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {adj.shape}")
    n = adj.shape[0]
    if n > _CLOSURE_MAX_N:
        return _strong_components(adj)[0] <= 1
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(max(n - 2, 0).bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def layer_sum_components(
    layer_matrices: tuple[LayerCentralityMatrix, ...],
) -> tuple[int, np.ndarray]:
    """Strong components (Frobenius normal form blocks) of the entrywise sum
    of the layer matrices.  A teleport term c u 1^T becomes a hub node h with
    edges i -> h (i in supp(u)) and h -> j (all j), in supp(u)'s component."""
    n = layer_matrices[0].n
    teleported = [m for m in layer_matrices if m.teleport_coeff > 0]
    if any(m.teleport.min() > 0 for m in teleported):  # the sum is positive
        return 1, np.zeros(n, dtype=np.int32)
    total = sum(m.sparse for m in layer_matrices)
    if not teleported:
        return _strong_components(total)
    into_hub = sparse.csr_matrix(sum(m.teleport for m in teleported)[:, None])
    hub = sparse.bmat([[total, into_hub], [sparse.csr_matrix(np.ones((1, n))), None]])
    count, labels = _strong_components(hub)
    return count, labels[:n]


def layer_sum_irreducible(layer_matrices: tuple[LayerCentralityMatrix, ...]) -> bool:
    """True iff the entrywise sum of the layer matrices, PageRank teleport
    terms included, is irreducible."""
    return layer_sum_components(layer_matrices)[0] == 1


@dataclass(frozen=True)
class PreconditionReport:
    """Outcome of the uniqueness precondition checks for a coupled problem."""

    interlayer_ok: bool
    layer_sum_ok: bool

    @property
    def both_ok(self) -> bool:
        return self.interlayer_ok and self.layer_sum_ok


def check_preconditions(problem: SupraProblem) -> PreconditionReport:
    """Check that the interlayer matrix is strongly connected and the sum of
    ``problem.layer_matrices`` is irreducible.

    Report-style: callers decide whether to refuse.  When both flags hold,
    the coupled operator has a unique positive dominant eigenvector for
    every omega > 0.
    """
    return PreconditionReport(
        interlayer_ok=strongly_connected(problem.interlayer.values),
        layer_sum_ok=layer_sum_irreducible(problem.layer_matrices),
    )


def intralayer_degrees(net: MultiplexNetwork) -> np.ndarray:
    """Out-degree (row sum) of every node in every layer, as an N x T matrix."""
    cols = [np.asarray(layer.csr.sum(axis=1)).ravel() for layer in net.layers]
    return np.column_stack(cols)


def total_degrees(net: MultiplexNetwork) -> np.ndarray:
    """Per-node degree summed across all layers (length N)."""
    return intralayer_degrees(net).sum(axis=1)


def k_path_counts(graph: LayerGraph, k: int) -> np.ndarray:
    """Number of length-k paths leaving each node, computed as A^k applied to
    the all-ones vector by k sparse products (A^k is never formed)."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    x = np.ones(graph.n_nodes)
    a = graph.csr
    for _ in range(k):
        x = a @ x
    return x


def aggregate_layers(net: MultiplexNetwork) -> LayerGraph:
    """Entrywise sum of all layer adjacency matrices, as a single layer.

    The layers must pass :func:`validate_network` (an out-of-range index
    raises ``ValueError``).  A sum of zero is not stored, whether it is a
    stored zero weight or weights that cancel.
    """
    total = sum((layer.csr for layer in net.layers), sparse.csr_matrix((net.n_nodes,) * 2)).tocoo()
    return LayerGraph.from_arrays(net.n_nodes, total.row + 1, total.col + 1, total.data)


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
