"""Per-layer centrality matrices.

Each layer's adjacency matrix A is turned into a nonnegative matrix whose
dominant eigenvector defines a centrality: the adjacency itself, the hub
product A A^T, the authority product A^T A, or the column-stochastic
PageRank matrix.  PageRank's uniform teleportation term is kept implicit
(one coefficient) so applying the matrix stays O(edges).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .types import (
    Authority,
    CentralityKind,
    DanglingPolicy,
    Eigenvector,
    Hub,
    LayerGraph,
    PageRank,
)

__all__ = [
    "LayerCentralityMatrix",
    "build_eigenvector_matrix",
    "build_hub_matrix",
    "build_authority_matrix",
    "pagerank_from_adjacency",
    "build_pagerank_matrix",
    "build_centrality_matrix",
    "DENSE_PRODUCT_WARN_NNZ",
]

# Hub/authority products can fill in badly for hub-heavy graphs; warn past this.
DENSE_PRODUCT_WARN_NNZ = 10_000_000


@dataclass(frozen=True, eq=False)
class LayerCentralityMatrix:
    """A nonnegative N x N matrix stored as ``sparse + (teleport_coeff / n) 1 1^T``.

    The uniform rank-one term is only present for PageRank (teleport_coeff
    = 1 - sigma); for the other kinds teleport_coeff is 0, so the term adds
    nothing.  Each uniform entry is computed as ``teleport_coeff * (1.0 / n)``.
    It is an ``engine.Operator``: the eigensolvers take it as it is.
    """

    n: int
    kind: CentralityKind
    sparse: sparse.csr_matrix
    teleport_coeff: float = 0.0

    @property
    def dim(self) -> int:
        return self.n

    @cached_property
    def shift(self) -> float:
        """The one shift rule of every eigensolve: 0 if the uniform term
        makes the matrix positive (so aperiodic), else 0.1 * (1 + max row
        sum), enough to make the shifted spectrum aperiodic."""
        if self.teleport_coeff > 0:
            return 0.0
        return 0.1 * (1.0 + self.max_row_sum())

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product C @ x."""
        return self.sparse @ x + (self.teleport_coeff * float(x.sum())) * (1.0 / self.n)

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product C.T @ x (1 1^T is symmetric)."""
        return self.sparse.T @ x + (self.teleport_coeff * float(x.sum())) * (1.0 / self.n)

    def to_dense(self) -> np.ndarray:
        return self.sparse.toarray() + self.teleport_coeff * (1.0 / self.n)

    def max_row_sum(self) -> float:
        rows = np.asarray(self.sparse.sum(axis=1)).ravel()
        rows = rows + self.teleport_coeff * (1.0 / self.n) * self.n
        return float(rows.max()) if rows.size else 0.0

    def column_sums(self) -> np.ndarray:
        return np.asarray(self.sparse.sum(axis=0)).ravel() + self.teleport_coeff


def build_eigenvector_matrix(graph: LayerGraph) -> LayerCentralityMatrix:
    """The adjacency matrix itself."""
    return LayerCentralityMatrix(n=graph.n_nodes, kind=Eigenvector(), sparse=graph.csr)


def _warn_if_dense(product: sparse.csr_matrix) -> None:
    if product.nnz > DENSE_PRODUCT_WARN_NNZ:
        warnings.warn(
            f"hub/authority product has {product.nnz} stored entries; "
            "expect heavy memory use",
            ResourceWarning,
            stacklevel=3,
        )


def build_hub_matrix(graph: LayerGraph) -> LayerCentralityMatrix:
    """Hub product A A^T (symmetric positive semidefinite)."""
    a = graph.csr
    product = (a @ a.T).tocsr()
    product.sort_indices()
    _warn_if_dense(product)
    return LayerCentralityMatrix(n=graph.n_nodes, kind=Hub(), sparse=product)


def build_authority_matrix(graph: LayerGraph) -> LayerCentralityMatrix:
    """Authority product A^T A (symmetric positive semidefinite)."""
    a = graph.csr
    product = (a.T @ a).tocsr()
    product.sort_indices()
    _warn_if_dense(product)
    return LayerCentralityMatrix(n=graph.n_nodes, kind=Authority(), sparse=product)


def pagerank_from_adjacency(a: sparse.csr_matrix, kind: PageRank) -> LayerCentralityMatrix:
    """Column-stochastic PageRank matrix sigma (D^-1 A')^T + (1-sigma)/N 1 1^T
    of the square adjacency ``a``, with uniform teleportation.

    A' is ``a`` after the dangling policy has added unit self-edges (to
    dangling nodes only, or to every node), and D is the diagonal of A' row
    sums.  ``a`` is not modified.  A row of A' whose sum overflows is first
    divided by its largest weight, which leaves its normalized row as it is
    in exact arithmetic; every other row keeps its bits.
    """
    n = a.shape[0]
    with np.errstate(over="ignore"):  # an overflowing row is rescaled below
        row_sums = np.asarray(a.sum(axis=1)).ravel()
    if kind.dangling is DanglingPolicy.ALL_NODES:
        a = (a + sparse.identity(n, format="csr")).tocsr()
        row_sums = row_sums + 1.0
    else:
        dangling = row_sums == 0
        if dangling.any():
            a = (a + sparse.diags(dangling.astype(float))).tocsr()
            row_sums = row_sums + dangling
    if np.any(row_sums == 0):  # impossible by construction
        raise AssertionError("zero row sum survived the dangling policy")
    overflowed = ~np.isfinite(row_sums)
    if overflowed.any():
        row_max = np.where(overflowed, a.max(axis=1).toarray().ravel(), 1.0)
        a = sparse.csr_matrix(
            (a.data / np.repeat(row_max, np.diff(a.indptr)), a.indices, a.indptr), shape=a.shape
        )
        row_sums = np.where(overflowed, np.asarray(a.sum(axis=1)).ravel(), row_sums)

    # one new data array over a's index arrays, then one transposing copy;
    # the row sums and the data array are freed as soon as they are spent
    scaled = a.data * np.repeat(1.0 / row_sums, np.diff(a.indptr)) * kind.sigma
    del row_sums
    stochastic = sparse.csr_matrix((scaled, a.indices, a.indptr), shape=a.shape).T.tocsr()
    del scaled

    return LayerCentralityMatrix(
        n=n, kind=kind, sparse=stochastic, teleport_coeff=1.0 - kind.sigma
    )


def build_pagerank_matrix(
    graph: LayerGraph,
    sigma: float = 0.85,
    dangling: DanglingPolicy = DanglingPolicy.DANGLING_ONLY,
) -> LayerCentralityMatrix:
    """The layer's PageRank matrix; see :func:`pagerank_from_adjacency`."""
    return pagerank_from_adjacency(graph.csr, PageRank(sigma, dangling))


def build_centrality_matrix(graph: LayerGraph, kind: CentralityKind) -> LayerCentralityMatrix:
    """Build the layer matrix for ``kind`` (dispatch helper)."""
    if isinstance(kind, Eigenvector):
        return build_eigenvector_matrix(graph)
    if isinstance(kind, Hub):
        return build_hub_matrix(graph)
    if isinstance(kind, Authority):
        return build_authority_matrix(graph)
    if isinstance(kind, PageRank):
        return pagerank_from_adjacency(graph.csr, kind)
    raise TypeError(f"unknown centrality kind: {kind!r}")
