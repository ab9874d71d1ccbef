"""Per-layer centrality matrices.

Each layer's adjacency matrix A is turned into a nonnegative matrix whose
dominant eigenvector defines a centrality: the adjacency itself, the hub
product A A^T, the authority product A^T A, or the column-stochastic
PageRank matrix.  PageRank's rank-one teleportation term is kept implicit
(a coefficient plus a teleport vector) so applying the matrix stays
O(edges).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    """A nonnegative N x N matrix stored as ``sparse + coeff * u 1^T``.

    The rank-one term is only present for PageRank (coeff = 1 - sigma,
    u the teleportation distribution); for the other kinds coeff is 0.
    """

    n: int
    kind: CentralityKind
    sparse: sparse.csr_matrix
    teleport_coeff: float = 0.0
    teleport: np.ndarray | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product C @ x."""
        y = self.sparse @ x
        if self.teleport_coeff:
            y = y + (self.teleport_coeff * float(x.sum())) * self.teleport
        return y

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product C.T @ x."""
        y = self.sparse.T @ x
        if self.teleport_coeff:
            y = y + self.teleport_coeff * float(self.teleport @ x)
        return y

    def to_dense(self) -> np.ndarray:
        dense = self.sparse.toarray()
        if self.teleport_coeff:
            dense = dense + self.teleport_coeff * np.outer(self.teleport, np.ones(self.n))
        return dense

    def max_row_sum(self) -> float:
        rows = np.asarray(self.sparse.sum(axis=1)).ravel()
        if self.teleport_coeff:
            rows = rows + self.teleport_coeff * self.teleport * self.n
        return float(rows.max()) if rows.size else 0.0

    def column_sums(self) -> np.ndarray:
        cols = np.asarray(self.sparse.sum(axis=0)).ravel()
        if self.teleport_coeff:
            cols = cols + self.teleport_coeff * float(self.teleport.sum())
        return cols


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


def pagerank_from_adjacency(
    a: sparse.csr_matrix, kind: PageRank, teleport: np.ndarray | None = None
) -> LayerCentralityMatrix:
    """Column-stochastic PageRank matrix sigma (D^-1 A')^T + (1-sigma) u 1^T
    of the square adjacency ``a``.

    A' is ``a`` after the dangling policy has added unit self-edges (to
    dangling nodes only, or to every node), and D is the diagonal of A' row
    sums.  ``teleport`` is an optional biased teleportation distribution; it
    defaults to uniform and is normalized to sum to 1.  ``a`` is not
    modified.
    """
    n = a.shape[0]
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

    # one new data array over a's index arrays, then one transposing copy;
    # the row sums and the data array are freed as soon as they are spent
    scaled = a.data * np.repeat(1.0 / row_sums, np.diff(a.indptr)) * kind.sigma
    del row_sums
    stochastic = sparse.csr_matrix((scaled, a.indices, a.indptr), shape=a.shape).T.tocsr()
    del scaled

    if teleport is None:
        u = np.full(n, 1.0 / n)
    else:
        u = np.array(teleport, dtype=float)
        if u.shape != (n,):
            raise ValueError(f"teleport vector must have length {n}")
        if u.min() < 0 or u.sum() <= 0:
            raise ValueError("teleport vector must be nonnegative with positive sum")
        u = u / u.sum()
    return LayerCentralityMatrix(
        n=n,
        kind=kind,
        sparse=stochastic,
        teleport_coeff=1.0 - kind.sigma,
        teleport=u,
    )


def build_pagerank_matrix(
    graph: LayerGraph,
    sigma: float = 0.85,
    dangling: DanglingPolicy = DanglingPolicy.DANGLING_ONLY,
    teleport: np.ndarray | None = None,
) -> LayerCentralityMatrix:
    """The layer's PageRank matrix; see :func:`pagerank_from_adjacency`."""
    return pagerank_from_adjacency(graph.csr, PageRank(sigma, dangling), teleport)


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
