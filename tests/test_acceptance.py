"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria with a stated runtime budget assert it.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import sparse

from supracentrality import (
    Authority,
    Eigenvector,
    Hub,
    InterlayerMatrix,
    LayerGraph,
    MultiplexNetwork,
    PageRank,
    SupraOperator,
    SupraProblem,
    build_centrality_matrix,
    check_preconditions,
    detect_regimes,
    dominant_eigenpair,
    log_grid,
    pagerank_versatility,
    strong_limit,
    stride_permutation,
    strongly_connected,
    sweep,
    tableau_from_vector,
    weak_limit,
)
from supracentrality import graph
from supracentrality.interlayer import all_to_all, block_communities, chain_teleport, chain_undirected

from _oracles import (
    cosine,
    dense_adjacency,
    dense_dominant_eigenpair,
    dense_layer_matrix,
    dense_pagerank_matrix,
    dense_supra_matrix,
    engine_ladder,
    ladder_omegas,
    random_instance,
    random_layer,
)

KINDS = (Eigenvector(), PageRank(), Hub(), Authority())


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    stamp = f"({elapsed:5.2f}s)" if budget is None else f"({elapsed:5.2f}s < {budget:g}s)"
    print(f"criterion {num:2d} PASS {stamp}  {description}")


def _problem(net, inter, kind):
    return SupraProblem(network=net, kind=kind, interlayer=inter)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "engine eigenpair matches dense brute-force oracle", budget=10.0):
        rng = np.random.default_rng(2024)
        for case in range(50):
            kind = KINDS[case % len(KINDS)]
            omega = float(10.0 ** rng.uniform(-2.0, 2.0))
            net, inter = random_instance(
                1000 + case, kind=kind, omega=omega, min_gap=5e-3
            )
            op = SupraOperator(_problem(net, inter, kind), omega)
            pair = dominant_eigenpair(op, tol=1e-11)
            lam, vec = dense_dominant_eigenpair(
                dense_supra_matrix(net, kind, inter, omega)
            )
            assert abs(pair.eigenvalue - lam) <= 1e-8 * abs(lam)
            assert cosine(pair.vector, vec) >= 1 - 1e-10


def _with_dominating_layer(seed: int, factor: float = 1.6):
    net, inter = random_instance(seed, kind=Eigenvector(), min_radius_gap=1e-2)
    radii = [
        float(np.abs(np.linalg.eigvals(dense_adjacency(g))).max()) for g in net.layers
    ]
    top = int(np.argmax(radii))
    others = max(r for t, r in enumerate(radii) if t != top)
    scale = factor * others / radii[top]
    boosted = LayerGraph(
        net.n_nodes, tuple((i, j, w * scale) for i, j, w in net.layers[top].entries)
    )
    layers = tuple(
        boosted if t == top else g for t, g in enumerate(net.layers)
    )
    return MultiplexNetwork(net.n_nodes, layers), inter, top + 1


def test_criterion_2_weak_coupling_limit():
    with criterion(2, "engine at omega=1e-6 matches the weak-coupling assembly", budget=10.0):
        kind = Eigenvector()
        for case in range(25):
            net, inter = random_instance(
                2000 + case, kind=kind, min_radius_gap=2e-2
            )
            res = weak_limit(_problem(net, inter, kind))
            op = SupraOperator(_problem(net, inter, kind), 1e-6)
            pair = dominant_eigenpair(op, tol=1e-10)
            assert cosine(pair.vector, res.tableau.W.flatten(order="F")) >= 1 - 1e-4
        # localization: one layer's spectral radius at least 1.5x all others
        for case in range(5):
            net, inter, top = _with_dominating_layer(2500 + case)
            res = weak_limit(_problem(net, inter, kind))
            assert res.dominating_set == (top,)
            op = SupraOperator(_problem(net, inter, kind), 1e-8)
            pair = dominant_eigenpair(op, tol=1e-10)
            assert cosine(pair.vector, res.tableau.W.flatten(order="F")) >= 1 - 1e-4
            w = tableau_from_vector(pair.vector, net.n_nodes, net.n_layers, 1.0, 1e-8).W
            assert float(np.sum(w[:, top - 1] ** 2)) >= 1 - 1e-4


def _strong_instance(seed: int, kind):
    for attempt in range(40):
        net, inter = random_instance(
            seed + 100 * attempt, kind=kind, omega=1.0, min_gap=5e-3
        )
        eigs = np.linalg.eigvals(inter.values)
        mu1 = float(eigs.real.max())
        rest = np.sort(np.abs(eigs))[::-1][1:]
        if rest.size and (mu1 - rest[0]) / mu1 < 5e-2:
            continue
        lam_r, v = dense_dominant_eigenpair(inter.values)
        _, u = dense_dominant_eigenpair(inter.values.T)
        weights = u * v / float(u @ v)
        x_tilde = sum(
            float(w) * dense_layer_matrix(g, kind) for w, g in zip(weights, net.layers)
        )
        mags = np.sort(np.abs(np.linalg.eigvals(x_tilde)))[::-1]
        if mags[0] <= 0 or (mags[0] - mags[1]) / mags[0] < 5e-2:
            continue
        return net, inter
    raise RuntimeError(f"no strong-coupling instance for seed {seed}")


def test_criterion_3_strong_coupling_limit():
    with criterion(3, "engine at omega=1e8 matches the strong-coupling assembly", budget=10.0):
        for case in range(8):
            kind = KINDS[case % len(KINDS)]
            net, inter = _strong_instance(3000 + case, kind)
            limit = strong_limit(_problem(net, inter, kind))
            mu_oracle, _ = dense_dominant_eigenpair(inter.values)
            pair, tab = engine_ladder(
                net, kind, inter, ladder_omegas(0, 8, per_decade=2), tol=1e-7
            )
            omega = 1e8
            assert abs(pair.eigenvalue / omega - limit.mu1) <= 1e-6 * abs(limit.mu1)
            assert abs(pair.eigenvalue / omega - mu_oracle) <= 1e-6 * abs(mu_oracle)
            assert cosine(pair.vector, limit.tableau.W.flatten(order="F")) >= 1 - 1e-6
            spread = np.nanmax(tab.Z, axis=1) - np.nanmin(tab.Z, axis=1)
            assert spread.max() <= 1e-4


def test_criterion_4_chain_eigenvalue_closed_form():
    with criterion(4, "chain coupling: strong-limit mu1 = 2cos(pi/(T+1))", budget=1.0):
        cycle = LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))
        for t in range(2, 13):
            net = MultiplexNetwork(2, (cycle,) * t)
            res = strong_limit(_problem(net, chain_undirected(t), Eigenvector()))
            assert abs(res.mu1 - 2 * math.cos(math.pi / (t + 1))) <= 1e-10
        net6 = MultiplexNetwork(2, (cycle,) * 6)
        res6 = strong_limit(_problem(net6, chain_undirected(6), Eigenvector()))
        assert res6.mu1 == pytest.approx(1.8019377, abs=1e-6)


def test_criterion_5_aggregation_closed_forms():
    with criterion(5, "all-to-all and rank-one aggregation match exactly", budget=1.0):
        kind = Eigenvector()
        net, _ = random_instance(55, kind=kind, t_lo=4, t_hi=4)
        res = strong_limit(_problem(net, all_to_all(4), kind))
        mean = sum(dense_layer_matrix(g, kind) for g in net.layers) / 4.0
        assert np.abs(res.X_tilde - mean).max() <= 1e-12

        w = np.array([1.0, 2.0, 0.5, 1.5])
        w /= np.linalg.norm(w)
        res = strong_limit(
            _problem(net, InterlayerMatrix(np.outer(w, w)), kind)
        )
        expected = sum(
            float(w[t] ** 2) * dense_layer_matrix(g, kind)
            for t, g in enumerate(net.layers)
        )
        assert np.abs(res.X_tilde - expected).max() <= 1e-12


def test_criterion_6_pagerank_no_localization():
    with criterion(6, "PageRank layers: the dominating set is every layer", budget=5.0):
        kind = PageRank()
        for case in range(20):
            net, inter = random_instance(6000 + case, kind=kind)
            res = weak_limit(_problem(net, inter, kind))
            assert np.abs(res.layer_data.spectral_radii - 1.0).max() <= 1e-9
            assert res.dominating_set == tuple(range(1, net.n_layers + 1))


def test_criterion_7_normalization_invariants():
    with criterion(7, "tableau and PageRank normalization invariants"):
        for case in range(8):
            kind = KINDS[case % len(KINDS)]
            net, inter = random_instance(7000 + case, kind=kind, min_gap=5e-3)
            omega = 0.5 + 0.5 * case
            op = SupraOperator(_problem(net, inter, kind), omega)
            pair = dominant_eigenpair(op, tol=1e-11)
            tab = tableau_from_vector(
                pair.vector, net.n_nodes, net.n_layers, pair.eigenvalue, omega
            )
            assert np.abs(tab.Z.sum(axis=0) - 1.0).max() <= 1e-12
            assert np.abs(tab.Z_hat.sum(axis=1) - 1.0).max() <= 1e-12
            assert abs(float(np.sum(tab.W**2)) - 1.0) <= 1e-9
            if isinstance(kind, PageRank):
                for g in net.layers:
                    cols = build_centrality_matrix(g, kind).column_sums()
                    assert np.abs(cols - 1.0).max() <= 1e-12


def test_criterion_8_stride_permutation():
    with criterion(8, "stride permutation conjugates the coupling blocks exactly"):
        rng = np.random.default_rng(88)
        for n in range(1, 6):
            for t in range(1, 6):
                perm = stride_permutation(n, t)
                assert sorted(perm) == list(range(n * t))
                a = rng.integers(0, 7, size=(t, t)).astype(float)
                p = np.zeros((n * t, n * t))
                p[np.arange(n * t), perm] = 1.0
                assert np.array_equal(p @ np.kron(np.eye(n), a) @ p.T, np.kron(a, np.eye(n)))


def test_criterion_9_precondition_checker():
    with criterion(9, "precondition checker agrees with reachability oracle"):
        cycle = LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))
        net = MultiplexNetwork(2, (cycle,) * 4)
        bad = check_preconditions(
            _problem(net, chain_teleport(4, 0.0), Eigenvector()), 1.0
        )
        assert not bad.interlayer_ok
        good = check_preconditions(
            _problem(net, chain_teleport(4, 1e-4), Eigenvector()), 1.0
        )
        assert good.both_ok

        # exhaustive agreement on every loopless digraph with up to 5 nodes
        # (self-loops cannot change strong connectivity): one call each up
        # to n = 4, and the 2**20 digraphs of n = 5 in block-diagonal chunks
        for n in range(1, 6):
            off = [(i, j) for i in range(n) for j in range(n) if i != j]
            total = 1 << len(off)
            codes = np.arange(total, dtype=np.uint32)
            bits = (
                (codes[:, None] >> np.arange(len(off), dtype=np.uint32)[None, :]) & 1
            ).astype(bool)
            adj = np.zeros((total, n, n), dtype=bool)
            rows = np.array([i for i, j in off], dtype=int)
            cols = np.array([j for i, j in off], dtype=int)
            if off:
                adj[:, rows, cols] = bits
            reach = adj | np.eye(n, dtype=bool)
            for _ in range(max(n - 1, 1).bit_length()):
                reach = reach | np.matmul(reach, reach)
            oracle = reach.all(axis=(1, 2))
            if n < 5:
                for k in range(total):
                    assert strongly_connected(adj[k]) == oracle[k]
                continue
            # the strong components of a block-diagonal matrix are its blocks':
            # a digraph is strongly connected iff its block has one label
            chunk = 1 << 16
            for first in range(0, total, chunk):
                block, i, j = np.nonzero(adj[first:first + chunk])
                m = min(chunk, total - first)
                stacked = sparse.csr_matrix(
                    (np.ones(block.size), (block * n + i, block * n + j)), shape=(m * n, m * n)
                )
                labels = graph._strong_components(stacked)[1].reshape(m, n)
                connected = (labels == labels[:, :1]).all(axis=1)
                assert np.array_equal(connected, oracle[first:first + chunk])


def _oracle_sweep_z_sensitivity(net, kind, inter, grid):
    # independent dense sweep: the exact Perron vector of each materialized matrix
    n, t = net.n_nodes, net.n_layers
    z_list = []
    for omega in grid.values:
        vals, vecs = np.linalg.eig(dense_supra_matrix(net, kind, inter, float(omega)))
        x = np.abs(vecs[:, np.argmax(vals.real)].real)
        w = x.reshape(t, n).T
        z_list.append(w / w.sum(axis=0)[None, :])
    return np.array(
        [float(np.linalg.norm(z_list[s + 1] - z_list[s])) for s in range(len(z_list) - 1)]
    )


def test_criterion_10_sweep_regimes():
    with criterion(10, "two-block coupling is bimodal; flat coupling is not", budget=30.0):
        rng = np.random.default_rng(0)
        layers = tuple(
            random_layer(rng, 4, density=0.55, with_cycle=True) for _ in range(6)
        )
        net = MultiplexNetwork(4, layers)
        grid = log_grid(-2, 4, 0.2)
        kind = Eigenvector()

        weak_bridge = sweep(
            SupraProblem(net, kind, block_communities(6, (3, 3), 1.0, 0.01)), grid, tol=1e-9
        )
        assert not weak_bridge.failures
        report = detect_regimes(weak_bridge.z_sensitivity, grid)
        assert len(report.peaks) >= 2
        assert len(report.intervals) == 3

        oracle_sens = _oracle_sweep_z_sensitivity(
            net, kind, block_communities(6, (3, 3), 1.0, 0.01), grid
        )
        assert np.abs(oracle_sens - weak_bridge.z_sensitivity).max() <= 1e-5
        oracle_report = detect_regimes(oracle_sens, grid)
        assert oracle_report.peaks == report.peaks

        flat_bridge = sweep(
            SupraProblem(net, kind, block_communities(6, (3, 3), 1.0, 1.0)), grid, tol=1e-8
        )
        flat_report = detect_regimes(flat_bridge.z_sensitivity, grid)
        assert len(flat_report.peaks) <= len(report.peaks)


def test_criterion_11_versatility_oracle():
    with criterion(11, "versatility matches dense supra-adjacency PageRank", budget=5.0):
        rng = np.random.default_rng(11)
        for case in range(20):
            net, inter = random_instance(
                11_000 + case, kind=Eigenvector(), layer_cycles=False
            )
            omega = float(rng.uniform(0.1, 2.0))
            got = pagerank_versatility(
                SupraProblem(net, PageRank(0.85), inter), omega=omega, tol=1e-13
            )
            n, t = net.n_nodes, net.n_layers
            supra = np.zeros((n * t, n * t))
            for s, layer in enumerate(net.layers):
                supra[s * n : (s + 1) * n, s * n : (s + 1) * n] = dense_adjacency(layer)
            supra += omega * np.kron(inter.values, np.eye(n))
            pr = dense_pagerank_matrix(supra, 0.85)
            _, vec = dense_dominant_eigenpair(pr)
            vec = np.abs(vec)
            vec /= vec.sum()
            expected = vec.reshape(t, n).sum(axis=0)
            assert np.abs(got - expected).max() <= 1e-9
