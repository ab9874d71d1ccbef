"""Core data model for layer-coupled multiplex networks.

Node and layer indices are 1-based wherever a user sees them (edge lists,
labels, CLI flags, violation reports); array positions are 0-based
internally.  All types are immutable after construction and safe to share
across concurrent computations.  A :class:`LayerGraph` holds its edges in
one read-only CSR matrix, built straight from the sorted parse arrays;
validation and every layer matrix work on it, and the 1-based index
arrays and the tuple view ``entries`` are derived from it when asked for.
A :class:`SupraProblem` holds no coupling strength: it is the family of
coupled operators over every omega, and :func:`check_omega` is the one
rule for an omega, applied where one is read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from . import _EXPORTS

if TYPE_CHECKING:
    from .centrality import LayerCentralityMatrix

__all__ = list(_EXPORTS["types"])


def in_lex_order(*keys: np.ndarray, strict: bool = False) -> bool:
    """Whether the rows of equal-length key arrays (most significant first)
    are in lexicographic order; ``strict`` also rules out repeated rows."""
    *major, last = keys
    ordered = last[:-1] < last[1:] if strict else last[:-1] <= last[1:]
    for key in reversed(major):
        ordered = (key[:-1] < key[1:]) | (key[:-1] == key[1:]) & ordered
    return bool(ordered.all())


@dataclass(frozen=True, eq=False, init=False)
class LayerGraph:
    """One network layer: a weighted directed graph on nodes 1..n_nodes.

    ``csr`` is the layer's only stored copy of its edges: an n_nodes x
    n_nodes CSR matrix with 0-based, sorted indices and read-only arrays,
    whose index dtype depends only on the sizes, so equal layers store
    equal bytes.  ``LayerGraph(n, triples)`` takes (i, j, weight) triples
    and :meth:`from_arrays` 1-based index arrays and weights; both sort the
    edges by (i, j, weight) and build ``csr`` from them.  ``rows`` and
    ``cols`` (int64, 1-based) and ``weights`` (float64, ``csr.data``) are
    views of ``csr`` in that order, and ``entries`` is the edges as a tuple
    of triples, built on first access.  Two layers are equal when their
    node counts and CSR arrays are.  Construction raises ``ValueError`` for
    the first edge, in sorted order, with an index outside 1..n_nodes, and
    ``OverflowError`` for an index beyond int64; a stored duplicate or a
    bad weight is kept, so run :func:`validate_network` on the enclosing
    network to get a violation report before feeding it into numerical code.
    """

    n_nodes: int
    csr: sparse.csr_matrix

    def __init__(self, n_nodes: int, entries):
        triples = [(int(i), int(j), float(w)) for i, j, w in entries]
        self._set_arrays(n_nodes, *(zip(*triples) if triples else ((), (), ())))

    @classmethod
    def from_arrays(cls, n_nodes: int, rows, cols, weights) -> LayerGraph:
        """A layer from 1-based index arrays and weights in any order (copied)."""
        graph = cls.__new__(cls)
        graph._set_arrays(n_nodes, rows, cols, weights)
        return graph

    def _set_arrays(self, n_nodes, rows, cols, weights) -> None:
        n = int(n_nodes)
        rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
        weights = np.array(weights, dtype=np.float64)
        if rows.ndim != 1 or not rows.shape == cols.shape == weights.shape:
            raise ValueError("rows, cols and weights must be 1-D arrays of equal length")
        if not in_lex_order(rows, cols, weights):
            order = np.lexsort((weights, cols, rows))
            rows, cols, weights = rows[order], cols[order], weights[order]
        out_of_range = (np.minimum(rows, cols) < 1) | (np.maximum(rows, cols) > n)
        if out_of_range.any():
            k = int(np.argmax(out_of_range))
            raise ValueError(f"edge ({rows[k]}, {cols[k]}) index out of range")
        index = np.int32 if max(n, rows.size) <= np.iinfo(np.int32).max else np.int64
        indptr = np.searchsorted(rows, np.arange(1, n + 2)).astype(index)
        cols -= 1  # 0-based column indices
        csr = sparse.csr_matrix((weights, cols.astype(index), indptr), shape=(n, n))
        for values in (csr.indptr, csr.indices, csr.data):
            values.setflags(write=False)
        csr.has_sorted_indices = True
        object.__setattr__(self, "n_nodes", n)
        object.__setattr__(self, "csr", csr)

    @property
    def rows(self) -> np.ndarray:
        """The 1-based row index of every stored edge (int64)."""
        return np.repeat(np.arange(1, self.n_nodes + 1, dtype=np.int64), np.diff(self.csr.indptr))

    @property
    def cols(self) -> np.ndarray:
        """The 1-based column index of every stored edge (int64)."""
        return self.csr.indices.astype(np.int64) + 1

    @property
    def weights(self) -> np.ndarray:
        """The weight of every stored edge: ``csr.data``, read-only."""
        return self.csr.data

    @cached_property
    def entries(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as sorted (i, j, weight) tuples of Python numbers."""
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), self.weights.tolist()))

    def __eq__(self, other):
        if not isinstance(other, LayerGraph):
            return NotImplemented
        a, b = self.csr, other.csr
        return self is other or self.n_nodes == other.n_nodes and all(
            map(np.array_equal, (a.indptr, a.indices, a.data), (b.indptr, b.indices, b.data)))

    def __hash__(self):  # equal layers have equal index arrays of one dtype
        return hash((self.n_nodes, self.csr.indptr.tobytes(), self.csr.indices.tobytes()))

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


@dataclass(frozen=True)
class MultiplexNetwork:
    """N nodes shared across T ordered layers.

    Layers may represent relationship types (multiplex) or time steps
    (temporal); the interlayer topology lives in a separate
    :class:`InterlayerMatrix`.
    """

    n_nodes: int
    layers: tuple[LayerGraph, ...]
    node_labels: tuple[str, ...] | None = None
    layer_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.node_labels is not None:
            object.__setattr__(self, "node_labels", tuple(str(s) for s in self.node_labels))
        if self.layer_labels is not None:
            object.__setattr__(self, "layer_labels", tuple(str(s) for s in self.layer_labels))

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def node_label(self, i: int) -> str:
        """Label of 1-based node ``i`` (falls back to the index itself)."""
        if self.node_labels is not None:
            return self.node_labels[i - 1]
        return str(i)

    def layer_label(self, t: int) -> str:
        """Label of 1-based layer ``t`` (falls back to the index itself)."""
        if self.layer_labels is not None:
            return self.layer_labels[t - 1]
        return str(t)


def validate_network(net: MultiplexNetwork) -> list[str]:
    """Return a list of invariant violations; an empty list means valid.

    Reported violations: layer size mismatch, negative, zero or non-finite
    stored weights, duplicate (i, j) pairs, label-count mismatch.  (An
    index out of range cannot be stored: :class:`LayerGraph` refuses it.)
    Edge checks are array masks over each layer's CSR arrays; only
    offending edges are visited, in sorted order, each reported in that
    order.
    """
    problems: list[str] = []
    if net.n_nodes < 1:
        problems.append("network must have at least 1 node")
    if net.n_layers < 1:
        problems.append("network must have at least 1 layer")
    if net.node_labels is not None and len(net.node_labels) != net.n_nodes:
        problems.append(
            f"{len(net.node_labels)} node labels given for {net.n_nodes} nodes"
        )
    if net.layer_labels is not None and len(net.layer_labels) != net.n_layers:
        problems.append(
            f"{len(net.layer_labels)} layer labels given for {net.n_layers} layers"
        )
    for t, layer in enumerate(net.layers, start=1):
        if layer.n_nodes != net.n_nodes:
            problems.append(
                f"layer {t}: has {layer.n_nodes} nodes, network declares {net.n_nodes}"
            )
        indptr, indices, weights = layer.csr.indptr, layer.csr.indices, layer.csr.data
        # sorted by (i, j), so a repeated pair sits next to its first copy in
        # its row; one slot past the end lets every row start be marked
        duplicate = np.zeros(indices.size + 1, dtype=bool)
        duplicate[1:-1] = indices[1:] == indices[:-1]
        duplicate[indptr] = False
        bad = duplicate[:-1] | ~(weights > 0) | np.isinf(weights)
        for k in np.flatnonzero(bad).tolist():
            i = int(np.searchsorted(indptr, k, side="right"))
            j, w = int(indices[k]) + 1, float(weights[k])
            if not math.isfinite(w):
                problems.append(f"layer {t}: edge ({i}, {j}) has non-finite weight {w}")
            elif w < 0:
                problems.append(f"layer {t}: edge ({i}, {j}) has negative weight {w}")
            elif w == 0:
                problems.append(f"layer {t}: edge ({i}, {j}) stores zero weight")
            if duplicate[k]:
                problems.append(f"layer {t}: duplicate edge ({i}, {j})")
    return problems


@dataclass(frozen=True, eq=False)
class InterlayerMatrix:
    """Dense T x T nonnegative matrix of layer-to-layer coupling weights.

    Entry (t, t') is the weight with which layer t couples to layer t';
    asymmetric matrices encode directed coupling.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"interlayer matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("interlayer weights must be finite")
        if arr.size and arr.min() < 0:
            raise ValueError("interlayer weights must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


class DanglingPolicy(Enum):
    """How to repair rows with no out-edges before building a PageRank matrix."""

    DANGLING_ONLY = "only"  # unit self-edge on dangling nodes only
    ALL_NODES = "all"       # unit self-edge on every node


@dataclass(frozen=True)
class Eigenvector:
    """Plain adjacency: the layer matrix is used as-is."""


@dataclass(frozen=True)
class Hub:
    """Hub scores: the layer matrix is A A^T."""


@dataclass(frozen=True)
class Authority:
    """Authority scores: the layer matrix is A^T A."""


@dataclass(frozen=True)
class PageRank:
    """Column-stochastic PageRank matrix with node-teleportation ``sigma``."""

    sigma: float = 0.85
    dangling: DanglingPolicy = DanglingPolicy.DANGLING_ONLY

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError(f"sigma must lie in [0, 1), got {self.sigma}")


CentralityKind = Eigenvector | Hub | Authority | PageRank


def check_omega(omega: float) -> float:
    """``omega`` as a float; ValueError unless it is finite and nonnegative."""
    omega = float(omega)
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if omega < 0:
        raise ValueError(f"omega must be nonnegative, got {omega}")
    return omega


@dataclass(frozen=True, eq=False)
class SupraProblem:
    """A network, a centrality kind and an interlayer matrix: the family of
    coupled operators C(omega) = diag(C_t) + omega * (interlayer x I).

    The coupling strength is not part of the problem: only the coupled
    operator and the precondition check read it, and take it as their own
    argument.  ``layer_matrices`` holds the per-layer centrality matrices
    C_t, built on first access and shared by every operator of the family,
    the precondition checks and both coupling limits.
    """

    network: MultiplexNetwork
    kind: CentralityKind
    interlayer: InterlayerMatrix

    def __post_init__(self):
        if self.interlayer.dim != self.network.n_layers:
            raise ValueError(
                f"interlayer matrix is {self.interlayer.dim}x{self.interlayer.dim} "
                f"but the network has {self.network.n_layers} layers"
            )

    @cached_property
    def layer_matrices(self) -> tuple[LayerCentralityMatrix, ...]:
        """The centrality matrix of every layer, in layer order."""
        from . import centrality  # centrality imports this module

        return tuple(centrality.build_centrality_matrix(g, self.kind) for g in self.network.layers)


@dataclass(frozen=True, eq=False)
class CentralityTableau:
    """Joint centralities W (N x T), from which every other tableau field derives.

    W holds the dominant eigenvector at unit Euclidean norm, reshaped so that
    W[i, t] is the joint centrality of node i+1 in layer t+1.  Construction
    keeps a read-only C-ordered copy of W and raises ValueError unless W is
    2-D, finite and nonnegative with squared entries summing to 1 within
    1e-9.  Marginal layer centralities ``x`` (``mlc``) are column sums,
    marginal node centralities ``x_hat`` (``mnc``) are row sums, and the
    conditionals are Z[i, t] = W[i, t] / x[t] and Z_hat[i, t] = W[i, t] /
    x_hat[i]; each is computed from W on every access, so a tableau holds one
    N x T array.  Layers (nodes) with zero marginal mass yield NaN conditional
    columns (rows) and are listed 1-based in ``zero_mass_layers``
    (``zero_mass_nodes``); this cannot happen when the coupled operator is
    irreducible.
    """

    W: np.ndarray
    lambda_max: float
    omega: float

    def __post_init__(self):
        W = np.array(self.W, dtype=float, order="C")
        if W.ndim != 2:
            raise ValueError(f"joint centralities must form a 2-D array, got shape {W.shape}")
        if not np.isfinite(W).all():
            raise ValueError("joint centralities must be finite")
        if W.min(initial=0.0) < 0:
            raise ValueError("joint centralities must be nonnegative")
        total = float(np.sum(W * W))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"sum of squared joint centralities is {total}, expected 1")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)

    @property
    def n_nodes(self) -> int:
        return self.W.shape[0]

    @property
    def n_layers(self) -> int:
        return self.W.shape[1]

    @property
    def x(self) -> np.ndarray:
        """Marginal layer centralities: the column sums of W."""
        return self.W.sum(axis=0)

    @property
    def x_hat(self) -> np.ndarray:
        """Marginal node centralities: the row sums of W."""
        return self.W.sum(axis=1)

    mlc = x
    mnc = x_hat

    # W >= 0, so a zero marginal is an all-zero slice whose 0/0 is already NaN
    @property
    def Z(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.W / self.x[np.newaxis, :]

    @property
    def Z_hat(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.W / self.x_hat[:, np.newaxis]

    @property
    def zero_mass_layers(self) -> tuple[int, ...]:
        return tuple(int(t + 1) for t in np.flatnonzero(self.x == 0))

    @property
    def zero_mass_nodes(self) -> tuple[int, ...]:
        return tuple(int(i + 1) for i in np.flatnonzero(self.x_hat == 0))
