"""Independent brute-force oracles and seeded instance generators.

Everything here is deliberately separate from the library's code paths:
dense layer matrices are rebuilt from first principles, the coupled matrix
is materialized with numpy.kron, and eigenpairs come from a long dense
power iteration.  Tests compare the library against these routes.
"""
from __future__ import annotations

import numpy as np

from supracentrality import (
    Authority,
    DanglingPolicy,
    Eigenvector,
    Hub,
    InterlayerMatrix,
    LayerGraph,
    MultiplexNetwork,
    PageRank,
    block_communities,
)


def dense_adjacency(graph: LayerGraph) -> np.ndarray:
    a = np.zeros((graph.n_nodes, graph.n_nodes))
    for i, j, w in graph.entries:
        a[i - 1, j - 1] += w
    return a


def dense_pagerank_matrix(
    a: np.ndarray, sigma: float, dangling: DanglingPolicy = DanglingPolicy.DANGLING_ONLY
) -> np.ndarray:
    a = a.copy()
    n = a.shape[0]
    if dangling is DanglingPolicy.ALL_NODES:
        a += np.eye(n)
    else:
        for i in range(n):
            if a[i].sum() == 0:
                a[i, i] = 1.0
    d = a.sum(axis=1)
    transition = a / d[:, None]
    return sigma * transition.T + (1.0 - sigma) / n * np.ones((n, n))


def dense_layer_matrix(graph: LayerGraph, kind) -> np.ndarray:
    a = dense_adjacency(graph)
    if isinstance(kind, Eigenvector):
        return a
    if isinstance(kind, Hub):
        return a @ a.T
    if isinstance(kind, Authority):
        return a.T @ a
    if isinstance(kind, PageRank):
        return dense_pagerank_matrix(a, kind.sigma, kind.dangling)
    raise TypeError(kind)


def dense_supra_matrix(
    net: MultiplexNetwork, kind, interlayer: InterlayerMatrix, omega: float
) -> np.ndarray:
    n, t = net.n_nodes, net.n_layers
    dense = np.zeros((n * t, n * t))
    for s, layer in enumerate(net.layers):
        dense[s * n : (s + 1) * n, s * n : (s + 1) * n] = dense_layer_matrix(layer, kind)
    return dense + omega * np.kron(interlayer.values, np.eye(n))


def dense_dominant_eigenpair(
    matrix: np.ndarray, tol: float = 1e-13, max_iter: int = 2_000_000
) -> tuple[float, np.ndarray]:
    """Long shifted power iteration on a materialized matrix."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    shift = 1.0 + float(np.abs(m).sum(axis=1).max())
    x = np.full(n, 1.0 / np.sqrt(n))
    lam_prev = None
    for _ in range(max_iter):
        y = m @ x + shift * x
        lam_s = float(x @ y)
        resid = float(np.linalg.norm(y - lam_s * x))
        scale = max(abs(lam_s - shift), 1e-300)
        if lam_prev is not None and resid <= tol * scale and abs(lam_s - lam_prev) <= tol * scale:
            break
        x = y / np.linalg.norm(y)
        lam_prev = lam_s
    else:
        raise RuntimeError(f"oracle power iteration stalled, residual {resid:.3e}")
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    return lam_s - shift, x


def dense_symmetric_dominant(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenpair of a symmetric materialized matrix by LAPACK ``eigh``.

    Its vector error is about machine epsilon times the norm over the gap,
    so it stays accurate at near-degenerate points where a power iteration
    would crawl.  The vector's entries sum to a positive number.
    """
    m = np.asarray(matrix, dtype=float)
    if not np.array_equal(m, m.T):
        raise ValueError("matrix must be symmetric")
    values, vectors = np.linalg.eigh(m)
    x = vectors[:, -1]
    return float(values[-1]), x if x.sum() > 0 else -x


def reachability_closure(adj: np.ndarray) -> np.ndarray:
    """Transitive closure by repeated boolean squaring (with reflexivity)."""
    n = adj.shape[0]
    reach = (adj > 0) | np.eye(n, dtype=bool)
    for _ in range(max(n - 1, 0).bit_length()):
        reach = reach | (reach @ reach)
    return reach


def oracle_strongly_connected(adj: np.ndarray) -> bool:
    reach = reachability_closure(np.asarray(adj))
    return bool(reach.all() and reach.T.all())


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def engine_ladder(
    net: MultiplexNetwork,
    kind,
    inter: InterlayerMatrix,
    omegas,
    *,
    tol: float = 1e-7,
    max_iter: int = 300_000,
):
    """Warm-started engine solves along an omega sequence; returns the final
    (eigenpair, tableau).  At extreme coupling strengths the dominant
    eigenvalue cluster splits only at O(1/omega) (or O(omega)), so plain
    power iteration from a cold start cannot resolve the mixing there; the
    documented warm-start contract handles it."""
    from supracentrality import SupraOperator, SupraProblem, dominant_eigenpair, tableau_from_vector

    problem = SupraProblem(network=net, kind=kind, interlayer=inter)
    start = None
    pair = None
    omega = None
    for omega in omegas:
        op = SupraOperator(problem, float(omega))
        pair = dominant_eigenpair(op, tol=tol, max_iter=max_iter, start=start)
        start = pair.vector
    tableau = tableau_from_vector(
        pair.vector, net.n_nodes, net.n_layers, pair.eigenvalue, float(omega)
    )
    return pair, tableau


def ladder_omegas(start_exp: float, stop_exp: float, per_decade: int = 2):
    """Geometric omega ladder between two base-10 exponents (either direction)."""
    count = int(round(abs(stop_exp - start_exp) * per_decade)) + 1
    return np.power(10.0, np.linspace(start_exp, stop_exp, count))


def random_layer(
    rng: np.random.Generator,
    n: int,
    *,
    density: float = 0.5,
    with_cycle: bool = False,
    weight_lo: float = 0.5,
    weight_hi: float = 1.5,
) -> LayerGraph:
    """Random weighted digraph; ``with_cycle`` threads a full cycle through
    the nodes, which makes the layer irreducible."""
    weights: dict[tuple[int, int], float] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < density:
                weights[(i, j)] = float(rng.uniform(weight_lo, weight_hi))
    if with_cycle:
        for i in range(1, n + 1):
            j = i % n + 1
            if n > 1:
                weights.setdefault((i, j), float(rng.uniform(weight_lo, weight_hi)))
    entries = tuple((i, j, w) for (i, j), w in sorted(weights.items()))
    return LayerGraph(n_nodes=n, entries=entries)


def random_interlayer(
    rng: np.random.Generator, t: int, *, density: float = 0.7
) -> InterlayerMatrix:
    """Random nonnegative coupling, forced strongly connected by a layer cycle."""
    values = np.zeros((t, t))
    mask = rng.random((t, t)) < density
    values[mask] = rng.uniform(0.2, 1.2, size=int(mask.sum()))
    for s in range(t):
        values[s, (s + 1) % t] = max(values[s, (s + 1) % t], rng.uniform(0.2, 1.2))
    if t == 1 and values[0, 0] == 0:
        values[0, 0] = 1.0
    return InterlayerMatrix(values)


def random_instance(
    seed: int,
    *,
    kind,
    omega: float = 1.0,
    n_lo: int = 3,
    n_hi: int = 6,
    t_lo: int = 2,
    t_hi: int = 4,
    layer_cycles: bool = True,
    min_gap: float = 0.0,
    min_radius_gap: float = 0.0,
    max_tries: int = 200,
) -> tuple[MultiplexNetwork, InterlayerMatrix]:
    """Seeded random instance with strongly connected interlayer coupling and
    an irreducible layer-matrix sum.

    ``min_gap`` rejects instances whose coupled matrix at the given omega has
    a thin relative gap between the top two eigenvalue magnitudes;
    ``min_radius_gap`` rejects instances whose top two layer spectral radii
    are too close (relative).
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        n = int(rng.integers(n_lo, n_hi + 1))
        t = int(rng.integers(t_lo, t_hi + 1))
        layers = tuple(
            random_layer(rng, n, density=0.5, with_cycle=layer_cycles) for _ in range(t)
        )
        net = MultiplexNetwork(n_nodes=n, layers=layers)
        inter = random_interlayer(rng, t)
        if not oracle_strongly_connected(inter.values):
            continue
        if any(
            not oracle_strongly_connected(dense_layer_matrix(g, kind)) for g in layers
        ):
            continue
        layer_sum = sum(dense_layer_matrix(g, kind) for g in layers)
        if not oracle_strongly_connected(layer_sum):
            continue
        if min_radius_gap > 0 and t > 1:
            radii = np.sort(
                [np.abs(np.linalg.eigvals(dense_layer_matrix(g, kind))).max() for g in layers]
            )[::-1]
            if radii[0] <= 0 or (radii[0] - radii[1]) / radii[0] < min_radius_gap:
                continue
        if min_gap > 0:
            coupled = dense_supra_matrix(net, kind, inter, omega)
            mags = np.sort(np.abs(np.linalg.eigvals(coupled)))[::-1]
            if mags[0] <= 0 or (mags[0] - mags[1]) / mags[0] < min_gap:
                continue
        return net, inter
    raise RuntimeError(f"no viable instance for seed {seed}")


def blocks_instance(seed: int, *, n: int = 30) -> tuple[MultiplexNetwork, InterlayerMatrix]:
    """Six seeded symmetric layers, each a random graph plus a ring, coupled
    in two layer communities of three (intra 1, inter 0.01).

    Layer edge densities run from 0.09 to 0.21, so the layer radii differ and
    a sweep over omega passes through localization, intra-block and
    inter-block mixing, each crossing a near-degenerate eigenvalue pair.
    """
    rng = np.random.default_rng(seed)
    ring = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    layers = []
    for density in np.linspace(0.09, 0.21, 6):
        upper = np.triu(rng.random((n, n)) < density, 1)
        rows, cols = np.nonzero(upper | upper.T | ring | ring.T)
        layers.append(LayerGraph(n, tuple(
            (i + 1, j + 1, 1.0) for i, j in zip(rows.tolist(), cols.tolist()))))
    return MultiplexNetwork(n, tuple(layers)), block_communities(6, (3, 3), 1.0, 0.01)
