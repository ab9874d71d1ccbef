"""Per-layer centrality matrices.

Each layer's adjacency matrix A is turned into a nonnegative matrix whose
dominant eigenvector defines a centrality: the adjacency itself, the hub
product A A^T, the authority product A^T A, or the column-stochastic
PageRank matrix.  :func:`build_centrality_matrix` is the one builder.
PageRank's uniform teleportation term is kept implicit (one coefficient) so
applying the matrix stays O(edges); :class:`LayerCentralityMatrix` owns that
storage form, and every entry, block, sum or bound other modules need is
read through its methods.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from . import _EXPORTS
from .types import (
    Authority,
    CentralityKind,
    DanglingPolicy,
    Eigenvector,
    Hub,
    LayerGraph,
    PageRank,
)

__all__ = list(_EXPORTS["centrality"])

# Hub/authority products can fill in badly for hub-heavy graphs; warn past this.
DENSE_PRODUCT_WARN_NNZ = 10_000_000


@dataclass(frozen=True, eq=False)
class LayerCentralityMatrix:
    """A nonnegative N x N matrix stored as ``sparse + (teleport_coeff / n) 1 1^T``.

    The uniform rank-one term is only present for PageRank (teleport_coeff
    = 1 - sigma) and for sums that include PageRank matrices; for the other
    kinds teleport_coeff is 0, so the term adds nothing.  Each uniform entry
    is computed as ``teleport_coeff * (1.0 / n)``.  Only this class reads
    the coefficient; other modules ask it for entries, blocks and sums.
    It is an ``engine.Operator``: the eigensolvers take it as it is.
    """

    n: int
    sparse: sparse.csr_matrix
    teleport_coeff: float = 0.0

    @classmethod
    def weighted_sum(
        cls, mats: tuple[LayerCentralityMatrix, ...], weights
    ) -> LayerCentralityMatrix:
        """sum_t weights[t] * mats[t]; the uniform PageRank terms add up to one
        with coefficient sum_t weights[t] c_t."""
        pairs = tuple(zip(weights, mats))
        return cls(
            n=mats[0].n, sparse=sum(w * m.sparse for w, m in pairs),
            teleport_coeff=sum(w * m.teleport_coeff for w, m in pairs),
        )

    @property
    def dim(self) -> int:
        return self.n

    @property
    def uniformly_positive(self) -> bool:
        """True if the uniform term makes every entry positive (c > 0)."""
        return self.teleport_coeff > 0

    @cached_property
    def shift(self) -> float:
        """The one shift rule of every eigensolve: 0 if the uniform term
        makes the matrix positive (so aperiodic), else 0.1 * (1 + max row
        sum), enough to make the shifted spectrum aperiodic."""
        if self.uniformly_positive:
            return 0.0
        return 0.1 * (1.0 + self.max_row_sum())

    def scaled(self, k: int) -> LayerCentralityMatrix:
        """The matrix times 2**-k."""
        a = self.sparse
        return LayerCentralityMatrix(
            n=self.n, sparse=sparse.csr_matrix((np.ldexp(a.data, -k), a.indices, a.indptr),
                                               shape=a.shape),
            teleport_coeff=math.ldexp(self.teleport_coeff, -k),
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product C @ x."""
        return self.sparse @ x + (self.teleport_coeff * float(x.sum())) * (1.0 / self.n)

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product C.T @ x (1 1^T is symmetric)."""
        return self.sparse.T @ x + (self.teleport_coeff * float(x.sum())) * (1.0 / self.n)

    def to_dense(self) -> np.ndarray:
        return self.sparse.toarray() + self.teleport_coeff * (1.0 / self.n)

    def diagonal(self) -> np.ndarray:
        """The diagonal entries, uniform term included."""
        return self.sparse.diagonal() + self.teleport_coeff * (1.0 / self.n)

    def principal_block(self, nodes: np.ndarray) -> LayerCentralityMatrix:
        """The principal submatrix on the 0-based ``nodes``."""
        # the same uniform entries c / n; a block of every node keeps c exactly
        return LayerCentralityMatrix(n=nodes.size, sparse=self.sparse[nodes][:, nodes],
                                     teleport_coeff=self.teleport_coeff * (nodes.size / self.n))

    def max_row_sum(self) -> float:
        rows = np.asarray(self.sparse.sum(axis=1)).ravel()
        rows = rows + self.teleport_coeff * (1.0 / self.n) * self.n
        return float(rows.max()) if rows.size else 0.0

    def max_abs_entry(self) -> float:
        """Largest |entry| in O(nnz): each stored entry plus the uniform term,
        and that term alone if a structural zero exists (nnz < n^2 in
        duplicate-free CSR, as built layer matrices and their sums are)."""
        term = self.teleport_coeff * (1.0 / self.n)
        # |x + term| peaks at the smallest or the largest stored x, so no
        # nnz-sized temporary is made (every solve reads this)
        data = self.sparse.data
        ends = (data.min(), data.max()) if data.size else ()
        largest = float(max((abs(x + term) for x in ends), default=0.0))
        if self.sparse.nnz < self.n * self.n:
            largest = max(largest, abs(float(term)))
        return largest


def pagerank_from_adjacency(a: sparse.csr_matrix, kind: PageRank) -> LayerCentralityMatrix:
    """Column-stochastic PageRank matrix sigma (D^-1 A')^T + (1-sigma)/N 1 1^T
    of the square adjacency ``a``, with uniform teleportation.

    A' is ``a`` after the dangling policy has added unit self-edges (to
    dangling nodes only, or to every node), and D is the diagonal of A' row
    sums.  ``a`` is not modified.  Each row of A' is first multiplied by
    2**-e, e the binary exponent of its largest weight, which leaves its
    normalized row as it is in exact arithmetic, so a row sum past the
    float range or below its normal range normalizes as well, and a row of
    normal weights keeps its bits.
    """
    n = a.shape[0]
    with np.errstate(over="ignore"):  # only a zero row sum is read
        dangling = np.asarray(a.sum(axis=1)).ravel() == 0
    if kind.dangling is DanglingPolicy.ALL_NODES:
        a = (a + sparse.identity(n, format="csr")).tocsr()
    elif dangling.any():
        a = (a + sparse.diags(dangling.astype(float))).tocsr()

    # one new data array over a's index arrays, then one transposing copy;
    # each temporary is freed as soon as it is spent
    counts = np.diff(a.indptr)
    data = np.ldexp(a.data, np.repeat(-np.frexp(a.max(axis=1).toarray().ravel())[1], counts))
    row_sums = np.asarray(sparse.csr_matrix((data, a.indices, a.indptr), shape=a.shape)
                          .sum(axis=1)).ravel()
    data *= np.repeat(1.0 / row_sums, counts)
    data *= kind.sigma
    del row_sums
    stochastic = sparse.csr_matrix((data, a.indices, a.indptr), shape=a.shape).T.tocsr()
    del data

    return LayerCentralityMatrix(n=n, sparse=stochastic, teleport_coeff=1.0 - kind.sigma)


def build_centrality_matrix(graph: LayerGraph, kind: CentralityKind) -> LayerCentralityMatrix:
    """The layer matrix of ``kind``: the adjacency A itself (Eigenvector),
    the hub product A A^T (Hub) or the authority product A^T A (Authority),
    both symmetric positive semidefinite, or the PageRank matrix (see
    :func:`pagerank_from_adjacency`).  A hub or authority product with more
    than ``DENSE_PRODUCT_WARN_NNZ`` stored entries warns with a
    ``ResourceWarning`` attributed to the caller."""
    a = graph.csr
    if isinstance(kind, Eigenvector):
        return LayerCentralityMatrix(n=graph.n_nodes, sparse=a)
    if isinstance(kind, (Hub, Authority)):
        product = (a @ a.T if isinstance(kind, Hub) else a.T @ a).tocsr()
        product.sort_indices()
        if product.nnz > DENSE_PRODUCT_WARN_NNZ:
            warnings.warn(
                f"hub/authority product has {product.nnz} stored entries; "
                "expect heavy memory use",
                ResourceWarning,
                stacklevel=2,
            )
        return LayerCentralityMatrix(n=graph.n_nodes, sparse=product)
    if isinstance(kind, PageRank):
        return pagerank_from_adjacency(a, kind)
    raise TypeError(f"unknown centrality kind: {kind!r}")
