"""Core data model for layer-coupled multiplex networks.

Node and layer indices are 1-based wherever a user sees them (edge lists,
labels, CLI flags, violation reports); array positions are 0-based
internally.  All types are immutable after construction and safe to share
across concurrent computations.
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


@dataclass(frozen=True)
class LayerGraph:
    """One network layer: a weighted directed graph on nodes 1..n_nodes.

    ``entries`` holds (i, j, weight) triples with 1-based node indices,
    normalized to sorted row-major order at construction.  Construction is
    permissive; run :func:`validate_network` on the enclosing network to get
    a violation report before feeding it into numerical code.
    """

    n_nodes: int
    entries: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        norm = tuple(sorted((int(i), int(j), float(w)) for i, j, w in self.entries))
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "entries", norm)

    @cached_property
    def csr(self) -> sparse.csr_matrix:
        """Adjacency matrix as CSR.  Requires in-range, duplicate-free entries."""
        n = self.n_nodes
        if not self.entries:
            return sparse.csr_matrix((n, n))
        rows = np.fromiter((e[0] - 1 for e in self.entries), dtype=np.int64)
        cols = np.fromiter((e[1] - 1 for e in self.entries), dtype=np.int64)
        vals = np.fromiter((e[2] for e in self.entries), dtype=np.float64)
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

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
    mismatch.
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
        seen: set[tuple[int, int]] = set()
        for i, j, w in layer.entries:
            if not (1 <= i <= net.n_nodes and 1 <= j <= net.n_nodes):
                problems.append(f"layer {t}: edge ({i}, {j}) index out of range")
            if not math.isfinite(w):
                problems.append(f"layer {t}: edge ({i}, {j}) has non-finite weight {w}")
            elif w < 0:
                problems.append(f"layer {t}: edge ({i}, {j}) has negative weight {w}")
            elif w == 0:
                problems.append(f"layer {t}: edge ({i}, {j}) stores zero weight")
            if (i, j) in seen:
                problems.append(f"layer {t}: duplicate edge ({i}, {j})")
            seen.add((i, j))
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
        zero_l = set(self.zero_mass_layers)
        for tt in range(t):
            col = self.Z[:, tt]
            if tt + 1 in zero_l:
                if not np.all(np.isnan(col)):
                    raise ValueError(f"layer {tt + 1} flagged zero-mass but Z is not NaN")
                continue
            if abs(float(col.sum()) - 1.0) > atol:
                raise ValueError(f"conditional centralities of layer {tt + 1} do not sum to 1")
        zero_n = set(self.zero_mass_nodes)
        for ii in range(n):
            row = self.Z_hat[ii, :]
            if ii + 1 in zero_n:
                if not np.all(np.isnan(row)):
                    raise ValueError(f"node {ii + 1} flagged zero-mass but Z_hat is not NaN")
                continue
            if abs(float(row.sum()) - 1.0) > atol:
                raise ValueError(f"conditional centralities of node {ii + 1} do not sum to 1")
