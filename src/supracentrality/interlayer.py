"""Constructors for the common interlayer-coupling topologies.

All builders return an :class:`InterlayerMatrix`; entry (t, t') couples
layer t to layer t'.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from . import _EXPORTS
from .types import InterlayerMatrix

__all__ = list(_EXPORTS["interlayer"])


def all_to_all(n_layers: int, include_self: bool = True) -> InterlayerMatrix:
    """Every layer pair coupled with weight 1; diagonal is 1 or 0 per ``include_self``."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    values = np.ones((n_layers, n_layers))
    if not include_self:
        np.fill_diagonal(values, 0.0)
    return InterlayerMatrix(values)


def chain_undirected(n_layers: int) -> InterlayerMatrix:
    """Adjacent-in-sequence coupling: weight 1 for |t - t'| = 1, 0 otherwise."""
    if n_layers < 2:
        raise ValueError("an undirected chain needs at least two layers")
    values = np.zeros((n_layers, n_layers))
    idx = np.arange(n_layers - 1)
    values[idx, idx + 1] = 1.0
    values[idx + 1, idx] = 1.0
    return InterlayerMatrix(values)


def chain_teleport(
    n_layers: int, gamma: float, zero_diagonal: bool = False
) -> InterlayerMatrix:
    """Directed time chain with layer teleportation.

    Entry (t, t') is 1 when t' = t + 1 and gamma otherwise, including the
    diagonal; set ``zero_diagonal`` to drop layer self-coupling.  gamma = 0
    is allowed but leaves the chain without paths back in time, so the
    strong-connectivity precondition fails.
    """
    if n_layers < 2:
        raise ValueError("a directed chain needs at least two layers")
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    values = np.full((n_layers, n_layers), float(gamma))
    idx = np.arange(n_layers - 1)
    values[idx, idx + 1] = 1.0
    if zero_diagonal:
        np.fill_diagonal(values, 0.0)
    return InterlayerMatrix(values)


def block_communities(
    n_layers: int,
    block_sizes: tuple[int, ...],
    intra_weight: float,
    inter_weight: float,
) -> InterlayerMatrix:
    """Layer communities: all-to-all coupling inside each block, plus a single
    bridging pair between the boundary layers of consecutive blocks.

    Inside a block every layer pair gets ``intra_weight``; the last layer of
    one block and the first layer of the next get ``inter_weight``.  The
    diagonal is 0.
    """
    sizes = tuple(int(s) for s in block_sizes)
    if any(s < 1 for s in sizes):
        raise ValueError("block sizes must be positive")
    if sum(sizes) != n_layers:
        raise ValueError(f"block sizes {sizes} do not sum to {n_layers}")
    if not (0 <= intra_weight < np.inf and 0 <= inter_weight < np.inf):
        raise ValueError("weights must be finite and nonnegative")
    values = np.zeros((n_layers, n_layers))
    start = 0
    boundaries = []
    for size in sizes:
        stop = start + size
        values[start:stop, start:stop] = intra_weight
        boundaries.append((start, stop - 1))
        start = stop
    np.fill_diagonal(values, 0.0)
    for (_, last), (first, _) in zip(boundaries, boundaries[1:]):
        values[last, first] = inter_weight
        values[first, last] = inter_weight
    return InterlayerMatrix(values)


def from_triplets(
    n_layers: int, triplets: Iterable[tuple[int, int, float]]
) -> InterlayerMatrix:
    """Dense matrix from 1-based (t, t', weight) triplets; unspecified entries are 0.
    Triplets are checked in order: the first bad one raises ValueError."""
    values = np.zeros((n_layers, n_layers))
    seen: set[tuple[int, int]] = set()
    for t, tp, w in triplets:
        t, tp, w = int(t), int(tp), float(w)
        if not (1 <= t <= n_layers and 1 <= tp <= n_layers):
            raise ValueError(f"layer pair ({t}, {tp}) out of range for {n_layers} layers")
        if w < 0:
            raise ValueError(f"negative weight {w} for layer pair ({t}, {tp})")
        if (t, tp) in seen:
            raise ValueError(f"duplicate layer pair ({t}, {tp})")
        seen.add((t, tp))
        values[t - 1, tp - 1] = w
    return InterlayerMatrix(values)
