"""Core data model for layer-coupled multiplex networks.

Node and layer indices are 1-based wherever a user sees them (edge lists,
labels, CLI flags, violation reports); array positions are 0-based
internally.  All types are immutable after construction and safe to share
across concurrent computations.  A :class:`LayerGraph` holds its edges as
sorted, read-only index and weight arrays; parsing, validation,
aggregation and the CSR matrix all work on those arrays, and the tuple
view ``entries`` is built only when asked for.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy import sparse

__all__ = [
    "LayerGraph",
    "MultiplexNetwork",
    "InterlayerMatrix",
    "DanglingPolicy",
    "Eigenvector",
    "Hub",
    "Authority",
    "PageRank",
    "CentralityKind",
    "SupraProblem",
    "CentralityTableau",
    "validate_network",
]


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

    ``rows`` and ``cols`` (int64, 1-based node indices) and ``weights``
    (float64) are read-only arrays in sorted (i, j, weight) order.
    ``LayerGraph(n, triples)`` takes (i, j, weight) triples and
    :meth:`from_arrays` the three arrays; ``entries`` is the edges as a
    tuple of triples, built on first access.  Two layers are equal when
    their node counts and arrays are.  Construction is permissive apart
    from requiring int64 node indices (a larger one raises
    ``OverflowError``); run :func:`validate_network` on the enclosing
    network to get a violation report before feeding it into numerical code.
    """

    n_nodes: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

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
        rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
        weights = np.array(weights, dtype=np.float64)
        if rows.ndim != 1 or not rows.shape == cols.shape == weights.shape:
            raise ValueError("rows, cols and weights must be 1-D arrays of equal length")
        if not in_lex_order(rows, cols, weights):
            order = np.lexsort((weights, cols, rows))
            rows, cols, weights = rows[order], cols[order], weights[order]
        object.__setattr__(self, "n_nodes", int(n_nodes))
        for name, values in (("rows", rows), ("cols", cols), ("weights", weights)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @cached_property
    def entries(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as sorted (i, j, weight) tuples of Python numbers."""
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), self.weights.tolist()))

    def __eq__(self, other):
        if not isinstance(other, LayerGraph):
            return NotImplemented
        return self is other or self.n_nodes == other.n_nodes and all(
            map(np.array_equal, (self.rows, self.cols, self.weights),
                (other.rows, other.cols, other.weights)))

    def __hash__(self):  # equal layers have equal index arrays
        return hash((self.n_nodes, self.rows.tobytes(), self.cols.tobytes()))

    @cached_property
    def csr(self) -> sparse.csr_matrix:
        """Adjacency matrix as CSR.  Requires in-range, duplicate-free entries."""
        n = self.n_nodes
        return sparse.csr_matrix((self.weights, (self.rows - 1, self.cols - 1)), shape=(n, n))

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

    Reported violations: layer size mismatch, index out of range, negative,
    zero or non-finite stored weights, duplicate (i, j) pairs, label-count
    mismatch.  Edge checks are array masks; only offending edges are
    visited, in sorted order, each reported in that order.
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
        rows, cols, weights = layer.rows, layer.cols, layer.weights
        out_of_range = (np.minimum(rows, cols) < 1) | (np.maximum(rows, cols) > net.n_nodes)
        # sorted by (i, j), so a repeated pair sits next to its first copy
        duplicate = np.zeros(rows.size, dtype=bool)
        duplicate[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        bad = out_of_range | duplicate | ~(weights > 0) | np.isinf(weights)
        for k in np.flatnonzero(bad).tolist():
            i, j, w = int(rows[k]), int(cols[k]), float(weights[k])
            if out_of_range[k]:
                problems.append(f"layer {t}: edge ({i}, {j}) index out of range")
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


@dataclass(frozen=True, eq=False)
class SupraProblem:
    """A network, a centrality kind, an interlayer matrix, and a coupling strength.

    Defines the coupled block operator whose dominant eigenvector carries the
    joint centralities.
    """

    network: MultiplexNetwork
    kind: CentralityKind
    interlayer: InterlayerMatrix
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "omega", float(self.omega))
        if self.interlayer.dim != self.network.n_layers:
            raise ValueError(
                f"interlayer matrix is {self.interlayer.dim}x{self.interlayer.dim} "
                f"but the network has {self.network.n_layers} layers"
            )
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        if self.omega < 0:
            raise ValueError(f"omega must be nonnegative, got {self.omega}")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class CentralityTableau:
    """Joint centralities W (N x T) with derived marginals and conditionals.

    W holds the dominant eigenvector at unit Euclidean norm, reshaped so that
    W[i, t] is the joint centrality of node i+1 in layer t+1.  Marginal layer
    centralities ``x`` are column sums, marginal node centralities ``x_hat``
    are row sums, and the conditionals are Z[i, t] = W[i, t] / x[t] and
    Z_hat[i, t] = W[i, t] / x_hat[i].  Layers (nodes) with zero marginal mass
    yield NaN conditional columns (rows) and are listed 1-based in
    ``zero_mass_layers`` (``zero_mass_nodes``); this cannot happen when the
    coupled operator is irreducible.
    """

    W: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    Z: np.ndarray
    Z_hat: np.ndarray
    lambda_max: float
    omega: float
    zero_mass_layers: tuple[int, ...] = ()
    zero_mass_nodes: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("W", "x", "x_hat", "Z", "Z_hat"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n_nodes(self) -> int:
        return self.W.shape[0]

    @property
    def n_layers(self) -> int:
        return self.W.shape[1]

    @property
    def mlc(self) -> np.ndarray:
        """Marginal layer centralities (alias for ``x``)."""
        return self.x

    @property
    def mnc(self) -> np.ndarray:
        """Marginal node centralities (alias for ``x_hat``)."""
        return self.x_hat

    def validate(self, atol: float = 1e-12) -> None:
        """Raise ValueError if any tableau invariant is violated."""
        n, t = self.W.shape
        if self.x.shape != (t,) or self.x_hat.shape != (n,):
            raise ValueError("marginal shapes do not match W")
        if self.Z.shape != (n, t) or self.Z_hat.shape != (n, t):
            raise ValueError("conditional shapes do not match W")
        if self.W.min() < 0:
            raise ValueError("joint centralities must be nonnegative")
        total = float(np.sum(self.W * self.W))
        if abs(total - 1.0) > max(atol, 1e-9):
            raise ValueError(f"sum of squared joint centralities is {total}, expected 1")
        if np.abs(self.W.sum(axis=0) - self.x).max() > atol:
            raise ValueError("marginal layer centralities disagree with column sums")
        if np.abs(self.W.sum(axis=1) - self.x_hat).max() > atol:
            raise ValueError("marginal node centralities disagree with row sums")
        for what, name, cond, axis, zero_mass in (
                ("layer", "Z", self.Z, 0, self.zero_mass_layers),
                ("node", "Z_hat", self.Z_hat, 1, self.zero_mass_nodes)):
            flagged = np.isin(np.arange(1, cond.shape[1 - axis] + 1), zero_mass)
            # an unflagged slice with a NaN sum compares False and passes
            bad = np.where(flagged, ~np.isnan(cond).all(axis=axis),
                           np.abs(cond.sum(axis=axis) - 1.0) > atol)
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"{what} {k + 1} flagged zero-mass but {name} is not NaN"
                                 if flagged[k] else
                                 f"conditional centralities of {what} {k + 1} do not sum to 1")
