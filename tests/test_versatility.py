import numpy as np
import pytest

from supracentrality import (
    DanglingPolicy,
    Eigenvector,
    InterlayerMatrix,
    LayerGraph,
    MultiplexNetwork,
    OperatorOverflowError,
    PageRank,
    SupraProblem,
    build_centrality_matrix,
    pagerank_versatility,
)
from supracentrality.engine import shifted_power_iteration
from supracentrality.interlayer import all_to_all, chain_teleport

from _oracles import (
    dense_adjacency,
    dense_dominant_eigenpair,
    dense_pagerank_matrix,
    random_instance,
)


def _dense_versatility(net, inter, omega, sigma, dangling=DanglingPolicy.DANGLING_ONLY):
    n, t = net.n_nodes, net.n_layers
    supra = np.zeros((n * t, n * t))
    for s, layer in enumerate(net.layers):
        supra[s * n : (s + 1) * n, s * n : (s + 1) * n] = dense_adjacency(layer)
    supra += omega * np.kron(inter.values, np.eye(n))
    pr = dense_pagerank_matrix(supra, sigma, dangling)
    _, vec = dense_dominant_eigenpair(pr)
    vec = np.abs(vec)
    vec /= vec.sum()
    return vec.reshape(t, n).sum(axis=0)


def test_single_layer_reduces_to_monolayer_pagerank():
    g = LayerGraph(3, ((1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (1, 3, 2.0)))
    net = MultiplexNetwork(3, (g,))
    inter = InterlayerMatrix(np.array([[1.0]]))
    got = pagerank_versatility(SupraProblem(net, PageRank(0.85), inter), omega=0.0)
    pr = dense_pagerank_matrix(dense_adjacency(g), 0.85)
    _, vec = dense_dominant_eigenpair(pr)
    expected = vec / vec.sum()
    assert np.abs(got - expected).max() <= 1e-10


def test_single_layer_is_the_layer_pagerank_solve_exactly():
    # one PageRank construction: at omega = 0 a one-layer supra matrix is the
    # layer's own, so versatility is the layer's unshifted solve, bit for bit
    g = LayerGraph(4, ((1, 2, 1.0), (2, 3, 2.0), (3, 1, 1.0), (3, 4, 0.5), (1, 3, 3.0)))
    net = MultiplexNetwork(4, (g,))
    got = pagerank_versatility(
        SupraProblem(net, PageRank(), InterlayerMatrix(np.array([[1.0]]))), omega=0.0
    )
    mat = build_centrality_matrix(g, PageRank())
    assert mat.shift == 0.0
    pair = shifted_power_iteration(mat, tol=1e-12)
    assert np.array_equal(got, pair.vector / pair.vector.sum())


def test_duplicated_layers_decouple_at_zero_omega():
    g = LayerGraph(3, ((1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)))
    net = MultiplexNetwork(3, (g, g))
    got = pagerank_versatility(SupraProblem(net, PageRank(0.85), all_to_all(2)), omega=0.0)
    pr = dense_pagerank_matrix(dense_adjacency(g), 0.85)
    _, vec = dense_dominant_eigenpair(pr)
    expected = vec / vec.sum()  # two half-mass copies per node sum back to this
    assert np.abs(got - expected).max() <= 1e-10


def test_matches_dense_oracle_on_random_instances():
    rng = np.random.default_rng(90)
    for seed in range(90, 96):
        net, inter = random_instance(seed, kind=Eigenvector(), layer_cycles=False)
        omega = float(rng.uniform(0.2, 3.0))
        problem = SupraProblem(net, PageRank(0.85), inter)
        got = pagerank_versatility(problem, omega=omega, tol=1e-13)
        expected = _dense_versatility(net, inter, omega, 0.85)
        assert np.abs(got - expected).max() <= 1e-9
        assert got.min() > 0
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_all_nodes_policy_matches_oracle():
    net, inter = random_instance(97, kind=Eigenvector(), layer_cycles=False)
    got = pagerank_versatility(
        SupraProblem(net, PageRank(0.85, DanglingPolicy.ALL_NODES), inter), omega=0.7, tol=1e-13
    )
    expected = _dense_versatility(net, inter, 0.7, 0.85, DanglingPolicy.ALL_NODES)
    assert np.abs(got - expected).max() <= 1e-9


def test_ranking_invariant_to_normalization():
    net, inter = random_instance(98, kind=Eigenvector())
    got = pagerank_versatility(SupraProblem(net, PageRank(0.85), inter), omega=1.0)
    assert np.array_equal(np.argsort(-got), np.argsort(-(got * 17.3)))


def test_parameter_guards():
    net = MultiplexNetwork(2, (LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0))),))
    inter = InterlayerMatrix(np.array([[1.0]]))
    with pytest.raises(ValueError):
        pagerank_versatility(SupraProblem(net, PageRank(1.0), inter), omega=1.0)
    with pytest.raises(ValueError):
        pagerank_versatility(SupraProblem(net, PageRank(0.85), inter), omega=-1.0)
    with pytest.raises(ValueError):
        pagerank_versatility(SupraProblem(net, PageRank(0.85), all_to_all(3)), omega=1.0)
    refused = r"^versatility needs a PageRank kind, got Eigenvector\(\)$"
    with pytest.raises(ValueError, match=refused):
        pagerank_versatility(SupraProblem(net, Eigenvector(), inter), omega=1.0)


def test_coupling_that_overflows_is_refused_before_the_solve():
    cycle = LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))
    problem = SupraProblem(MultiplexNetwork(2, (cycle, cycle)), PageRank(),
                           chain_teleport(2, 1e308))
    with pytest.raises(OperatorOverflowError, match="overflows at omega 10.0"):
        pagerank_versatility(problem, 10.0)
    assert pagerank_versatility(problem, 1.0) == pytest.approx([0.5, 0.5], abs=1e-12)
    # a finite coupling whose sum with a self-loop overflows
    looped = LayerGraph(2, ((1, 1, 1e308), (2, 2, 1.0)))
    problem = SupraProblem(MultiplexNetwork(2, (looped, cycle)), PageRank(),
                           chain_teleport(2, 1e308))
    with pytest.raises(OperatorOverflowError, match="overflows at omega 1.0"):
        pagerank_versatility(problem, 1.0)
