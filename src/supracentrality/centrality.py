"""Per-layer centrality matrices.

Each layer's adjacency matrix A is turned into a nonnegative matrix whose
dominant eigenvector defines a centrality: the adjacency itself, the hub
product A A^T, the authority product A^T A, or the column-stochastic
PageRank matrix.  :func:`build_centrality_matrix` is the one builder.
PageRank is kept as an operator over A itself, with its uniform
teleportation term as one coefficient, so applying it stays O(edges) and
stores no stochastic copy; :class:`LayerCentralityMatrix` owns both storage
forms, and every entry, block, sum or bound other modules need is read
through its methods.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from .engine import Operator

__all__ = list(_EXPORTS["centrality"])

# Hub/authority products can fill in badly for hub-heavy graphs; warn past this.
DENSE_PRODUCT_WARN_NNZ = 10_000_000
# A PageRank row whose sum d lies outside [1 / _ROW_SUM_LIMIT, _ROW_SUM_LIMIT]
# is normalized in a copy: its factor sigma / d would lose digits on the iterate
_ROW_SUM_LIMIT = 2.0 ** 511


def _row_max(a: sparse.csr_matrix) -> np.ndarray:
    """Each row's largest stored entry, 0 for a row with none."""
    out = np.zeros(a.shape[0])
    rows = np.flatnonzero(np.diff(a.indptr))
    if rows.size:
        out[rows] = np.maximum.reduceat(a.data, a.indptr[rows])
    return out


def _times(a, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """A x (A^T x) for an adjacency A that is a sparse matrix or an operator."""
    if sparse.issparse(a):
        return (a.T if transpose else a) @ x
    return (a.apply_transpose if transpose else a.apply)(x)


def _explicit_pagerank(a: sparse.csr_matrix, factors: np.ndarray,
                       self_weights: np.ndarray) -> sparse.csr_matrix:
    """A^T diag(factors) + diag(self_weights) as one CSR matrix."""
    data = a.data * np.repeat(factors, np.diff(a.indptr))
    out = sparse.csr_matrix((data, a.indices, a.indptr), shape=a.shape).T.tocsr()
    if self_weights.any():
        out = (out + sparse.diags(self_weights, format="csr")).tocsr()
    return out


def _block_diagonal(mats) -> sparse.csr_matrix:
    """The block-diagonal CSR matrix of the square CSR matrices ``mats``,
    equal bit for bit to scipy's ``block_diag`` in CSR format, written
    straight from their ``indptr``, ``indices`` and ``data`` into arrays of
    the result's size: no COO triplets.  Block t's rows and columns are
    offset by the rows before it; the index dtype is scipy's, int32 unless
    the dimension or the entry count is past its range; and, as in scipy's
    COO round trip, ``sum_duplicates`` leaves the indices sorted (a check
    alone where every block's already are) and the sorted-indices flag set."""
    dim = sum(m.shape[0] for m in mats)
    nnz = sum(m.nnz for m in mats)
    index = np.int32 if max(dim, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    row = entry = 0
    for m in mats:
        rows, count = m.shape[0], m.nnz
        np.add(m.indptr[1:], entry, out=indptr[row + 1:row + rows + 1])
        np.add(m.indices[:count], row, out=indices[entry:entry + count])
        data[entry:entry + count] = m.data[:count]
        row, entry = row + rows, entry + count
    out = sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))
    out.sum_duplicates()
    return out


@dataclass(frozen=True, eq=False)
class LayerCentralityMatrix:
    """A nonnegative N x N matrix C in one of two storage forms.

    Explicit: C = ``sparse + (teleport_coeff / n) 1 1^T``.  PageRank
    (``row_factors`` set): C = ``sparse^T diag(row_factors) +
    diag(self_weights) + (teleport_coeff / n) 1 1^T``, an operator over the
    adjacency ``sparse`` as it is, a layer graph's own CSR, with the row
    factors sigma / d and the dangling self-edge weights as two length-N
    vectors.  For the versatility baseline ``sparse`` is the coupled
    operator instead, an ``engine.Operator`` with ``diagonal`` and
    ``row_max``; on that form only the ``engine.Operator`` methods work,
    since ``to_dense``, ``principal_block``, ``weighted_sum`` and
    ``row_max`` read ``sparse`` as a CSR matrix (``row_max`` the explicit
    form's alone).  The uniform rank-one term is only present for PageRank
    (teleport_coeff = 1 - sigma) and for sums that include PageRank
    matrices; each uniform entry is computed as ``teleport_coeff * (1.0 /
    n)``.  Only this class reads the form; other modules ask it for
    entries, blocks and sums, ``weighted_sum`` and ``principal_block``
    give explicit results, and ``block_diagonal`` gives several matrices'
    block diagonal in their shared form, less their uniform terms.  It is
    an ``engine.Operator``: the eigensolvers take it as it is.
    """

    n: int
    sparse: sparse.csr_matrix | Operator
    teleport_coeff: float = 0.0
    row_factors: np.ndarray | None = None
    self_weights: np.ndarray | None = None

    @classmethod
    def weighted_sum(
        cls, mats: tuple[LayerCentralityMatrix, ...], weights
    ) -> LayerCentralityMatrix:
        """sum_t weights[t] * mats[t], explicit; the uniform PageRank terms
        add up to one with coefficient sum_t weights[t] c_t."""
        pairs = tuple(zip(weights, mats))
        return cls(
            n=mats[0].n, sparse=sum(w * m._explicit() for w, m in pairs),
            teleport_coeff=sum(w * m.teleport_coeff for w, m in pairs),
        )

    @classmethod
    def block_diagonal(cls, mats: tuple[LayerCentralityMatrix, ...]) -> LayerCentralityMatrix:
        """diag(mats[0], ..., mats[-1]) without their uniform terms, in the
        form the matrices share (one kind, CSR ``sparse``): the block
        diagonal of their ``sparse`` (:func:`_block_diagonal`) and, for
        PageRank, their stacked row factors and self-edge weights."""
        pagerank = mats[0].row_factors is not None
        return cls(
            n=sum(m.n for m in mats), sparse=_block_diagonal([m.sparse for m in mats]),
            row_factors=np.concatenate([m.row_factors for m in mats]) if pagerank else None,
            self_weights=np.concatenate([m.self_weights for m in mats]) if pagerank else None,
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

    def _explicit(self) -> sparse.csr_matrix:
        """The matrix less its uniform term, as one CSR matrix."""
        if self.row_factors is None:
            return self.sparse
        return _explicit_pagerank(self.sparse, self.row_factors, self.self_weights)

    def scaled(self, k: int) -> LayerCentralityMatrix:
        """The matrix times 2**-k (a PageRank matrix keeps its adjacency)."""
        c = math.ldexp(self.teleport_coeff, -k)
        if self.row_factors is not None:
            return dataclasses.replace(self, teleport_coeff=c,
                                       row_factors=np.ldexp(self.row_factors, -k),
                                       self_weights=np.ldexp(self.self_weights, -k))
        # the data times 2**-k over the same index arrays, still sorted
        a = self.sparse
        out = sparse.csr_matrix((np.ldexp(a.data, -k), a.indices, a.indptr), shape=a.shape)
        out.has_sorted_indices = a.has_sorted_indices
        return LayerCentralityMatrix(n=self.n, sparse=out, teleport_coeff=c)

    def _uniform(self, x: np.ndarray) -> float:
        return (self.teleport_coeff * float(x.sum())) * (1.0 / self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product C @ x (an explicit one with no uniform term
        is one sparse product)."""
        if self.row_factors is None:
            out = self.sparse @ x
        else:  # A^T (s * x) + w * x, the second product in the first one's buffer
            spare = self.row_factors * x
            out = _times(self.sparse, spare, transpose=True)
            out += np.multiply(self.self_weights, x, out=spare)
        if self.teleport_coeff:
            out += self._uniform(x)
        return out

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product C.T @ x (1 1^T is symmetric)."""
        if self.row_factors is None:
            out = self.sparse.T @ x
        else:  # s * (A x) + w * x
            out = _times(self.sparse, x)
            out *= self.row_factors
            out += self.self_weights * x
        if self.teleport_coeff:
            out += self._uniform(x)
        return out

    def to_dense(self) -> np.ndarray:
        return self._explicit().toarray() + self.teleport_coeff * (1.0 / self.n)

    def diagonal(self) -> np.ndarray:
        """The diagonal entries, uniform term included."""
        term = self.teleport_coeff * (1.0 / self.n)
        if self.row_factors is None:
            return self.sparse.diagonal() + term
        return self.row_factors * self.sparse.diagonal() + self.self_weights + term

    def principal_block(self, nodes: np.ndarray) -> LayerCentralityMatrix:
        """The principal submatrix on the 0-based ``nodes``, explicit."""
        block = self.sparse[nodes][:, nodes]
        if self.row_factors is not None:
            block = _explicit_pagerank(block, self.row_factors[nodes], self.self_weights[nodes])
        # the same uniform entries c / n; a block of every node keeps c exactly
        return LayerCentralityMatrix(n=nodes.size, sparse=block,
                                     teleport_coeff=self.teleport_coeff * (nodes.size / self.n))

    def max_row_sum(self) -> float:
        if self.row_factors is None:
            rows = np.asarray(self.sparse.sum(axis=1)).ravel()
            rows = rows + self.teleport_coeff * (1.0 / self.n) * self.n
        else:
            rows = self.apply(np.ones(self.n))
        return float(rows.max()) if rows.size else 0.0

    def row_max(self) -> np.ndarray:
        """Each row's largest entry, of the explicit form (a nonnegative matrix)."""
        if self.row_factors is not None:
            raise TypeError("row_max reads the explicit form, and this is a PageRank operator")
        return _row_max(self.sparse) + self.teleport_coeff * (1.0 / self.n)

    def max_abs_entry(self) -> float:
        """Largest |entry| in O(nnz): each stored entry plus the uniform term,
        and that term alone if a structural zero exists (nnz < n^2 in
        duplicate-free CSR, as built layer matrices and their sums are).  A
        PageRank matrix is nonnegative: its largest entry is s_i times row
        i's largest adjacency entry, or a diagonal entry, plus the term."""
        term = self.teleport_coeff * (1.0 / self.n)
        if self.row_factors is not None:
            a, s = self.sparse, self.row_factors
            rows = _row_max(a) if sparse.issparse(a) else a.row_max()
            largest = max((s * rows).max(initial=0.0),
                          (s * a.diagonal() + self.self_weights).max(initial=0.0))
            return float(largest) + term
        # |x + term| peaks at the smallest or the largest stored x, so no
        # nnz-sized temporary is made (every solve reads this)
        data = self.sparse.data
        ends = (data.min(), data.max()) if data.size else ()
        largest = float(max((abs(x + term) for x in ends), default=0.0))
        if self.sparse.nnz < self.n * self.n:
            largest = max(largest, abs(float(term)))
        return largest


def _normalize_rows(a: sparse.csr_matrix, far: np.ndarray, sums: np.ndarray,
                    loops: np.ndarray):
    """``a`` with each ``far`` row times 2**-e, e the binary exponent of its
    largest entry or self-edge, then divided by its sum (self-edge
    included): the normalized row is as it is in exact arithmetic, and the
    other rows keep their bits.  Returns that matrix and the row sums and
    self-edges that go with it (1 and the normalized self-edge on a far row)."""
    counts = np.diff(a.indptr)
    exponents = np.where(far, np.frexp(np.maximum(_row_max(a), loops))[1], 0)
    data = np.ldexp(a.data, np.repeat(-exponents, counts))
    scaled_loops = np.ldexp(loops, -exponents)
    scaled = sparse.csr_matrix((data, a.indices, a.indptr), shape=a.shape)
    divisors = np.where(far, scaled @ np.ones(a.shape[0]) + scaled_loops, 1.0)
    data /= np.repeat(divisors, counts)  # x / 1 is x
    return (sparse.csr_matrix((data, a.indices, a.indptr), shape=a.shape),
            np.where(far, 1.0, sums), np.where(far, scaled_loops / divisors, loops))


def _with_self_edges(sums: np.ndarray, kind: PageRank):
    """Row sums plus the dangling policy's unit self-edges, and those
    self-edges: on every row, or on each row with no other entry."""
    if kind.dangling is DanglingPolicy.ALL_NODES:
        loops = np.ones(sums.shape)
    else:
        loops = (sums == 0).astype(float)
    return sums + loops, loops


def pagerank_from_adjacency(a, kind: PageRank) -> LayerCentralityMatrix:
    """Column-stochastic PageRank matrix sigma (D^-1 A')^T + (1-sigma)/N 1 1^T
    of the square adjacency ``a``, with uniform teleportation, as the
    operator x -> a^T (s * x) + w * x + (1 - sigma)/N 1^T x over ``a``.

    A' is ``a`` after the dangling policy has added unit self-edges (to
    dangling nodes only, or to every node), D is the diagonal of A' row
    sums, s = sigma / D and w = s times the self-edges.  ``a`` is a CSR
    matrix, held as it is, or an operator with ``dim``, ``apply``,
    ``apply_transpose``, ``diagonal``, ``row_max`` and ``to_csr``
    (versatility's coupled adjacency).  A row whose sum is past 2**511 or
    below 2**-511 (where a factor s would lose digits on the iterate) is
    multiplied by 2**-e, e the binary exponent of its largest weight, and
    normalized in a copy of the data (of an operator's ``to_csr``, then),
    which leaves PageRank as it is in exact arithmetic, and the other rows
    keep their bits.
    """
    ones = np.ones(a.shape[0] if sparse.issparse(a) else a.dim)
    with np.errstate(over="ignore"):  # a row sum past the float range is rescaled
        sums, loops = _with_self_edges(_times(a, ones), kind)
    far = (sums < 1.0 / _ROW_SUM_LIMIT) | (sums > _ROW_SUM_LIMIT)
    if far.any():
        a = a if sparse.issparse(a) else a.to_csr()
        a, sums, loops = _normalize_rows(a, far, sums, loops)
    factors = kind.sigma / sums
    return LayerCentralityMatrix(n=ones.size, sparse=a, teleport_coeff=1.0 - kind.sigma,
                                 row_factors=factors, self_weights=factors * loops)


def build_centrality_matrix(graph: LayerGraph, kind: CentralityKind) -> LayerCentralityMatrix:
    """The layer matrix of ``kind``: the adjacency A itself (Eigenvector),
    the hub product A A^T (Hub) or the authority product A^T A (Authority),
    both symmetric positive semidefinite, or the PageRank matrix (see
    :func:`pagerank_from_adjacency`), an operator over the graph's own CSR.
    A hub or authority product with more than ``DENSE_PRODUCT_WARN_NNZ``
    stored entries warns with a ``ResourceWarning`` attributed to the
    caller."""
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
