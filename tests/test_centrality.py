import numpy as np
import pytest

from supracentrality import (
    Authority,
    DanglingPolicy,
    Eigenvector,
    Hub,
    LayerCentralityMatrix,
    LayerGraph,
    PageRank,
    build_centrality_matrix,
    centrality,
)

from _oracles import dense_adjacency, dense_layer_matrix, dense_pagerank_matrix, random_layer

TWO_CYCLE = LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))


def test_eigenvector_matrix_is_identity_map():
    m = build_centrality_matrix(TWO_CYCLE, Eigenvector())
    assert np.array_equal(m.to_dense(), [[0, 1], [1, 0]])


def test_eigenvector_matrix_empty_graph():
    m = build_centrality_matrix(LayerGraph(3, ()), Eigenvector())
    assert np.array_equal(m.to_dense(), np.zeros((3, 3)))


def test_eigenvector_matrix_preserves_weights():
    tri = LayerGraph(3, ((1, 2, 1.0), (2, 3, 2.0), (3, 1, 3.0)))
    m = build_centrality_matrix(tri, Eigenvector()).to_dense()
    assert np.array_equal(m, dense_adjacency(tri))
    assert m[2, 0] == 3.0


def test_hub_single_edge():
    m = build_centrality_matrix(LayerGraph(2, ((1, 2, 1.0),)), Hub())
    assert np.array_equal(m.to_dense(), np.diag([1.0, 0.0]))


def test_hub_symmetric_two_cycle_is_identity():
    assert np.array_equal(build_centrality_matrix(TWO_CYCLE, Hub()).to_dense(), np.eye(2))


def test_hub_star():
    star = LayerGraph(3, ((1, 2, 1.0), (1, 3, 1.0)))
    dense = build_centrality_matrix(star, Hub()).to_dense()
    a = dense_adjacency(star)
    assert np.array_equal(dense, a @ a.T)
    assert dense[0, 0] == 2.0 and dense.sum() == 2.0


def test_authority_single_edge():
    m = build_centrality_matrix(LayerGraph(2, ((1, 2, 1.0),)), Authority())
    assert np.array_equal(m.to_dense(), np.diag([0.0, 1.0]))


def test_authority_two_cycle_is_identity():
    assert np.array_equal(build_centrality_matrix(TWO_CYCLE, Authority()).to_dense(), np.eye(2))


def test_authority_shared_target():
    g = LayerGraph(3, ((1, 3, 1.0), (2, 3, 1.0)))
    dense = build_centrality_matrix(g, Authority()).to_dense()
    a = dense_adjacency(g)
    assert np.array_equal(dense, a.T @ a)
    assert dense[2, 2] == 2.0


def test_pagerank_two_cycle_exact():
    m = build_centrality_matrix(TWO_CYCLE, PageRank(sigma=0.85))
    assert np.allclose(m.to_dense(), [[0.075, 0.925], [0.925, 0.075]], atol=1e-15)


def test_pagerank_lonely_node_dangling_only():
    m = build_centrality_matrix(LayerGraph(1, ()), PageRank(sigma=0.85))
    assert np.allclose(m.to_dense(), [[1.0]], atol=1e-15)


def test_pagerank_single_edge_dangling_only():
    m = build_centrality_matrix(LayerGraph(2, ((1, 2, 1.0),)), PageRank(sigma=0.85))
    assert np.allclose(m.to_dense(), [[0.075, 0.075], [0.925, 0.925]], atol=1e-15)
    assert np.allclose(m.to_dense().sum(axis=0), 1.0, atol=1e-12)


def test_pagerank_all_nodes_policy_adds_identity():
    g = LayerGraph(2, ((1, 2, 1.0),))
    m = build_centrality_matrix(g, PageRank(sigma=0.85, dangling=DanglingPolicy.ALL_NODES))
    expected = dense_pagerank_matrix(dense_adjacency(g), 0.85, DanglingPolicy.ALL_NODES)
    assert np.allclose(m.to_dense(), expected, atol=1e-15)


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_pagerank_row_whose_sum_overflows_is_rescaled_and_others_keep_their_bits(policy):
    rest = ((2, 1, 0.3), (2, 3, 0.7), (3, 3, 2.5))
    huge = LayerGraph(3, ((1, 2, 1e308), (1, 3, 1.5e308), *rest))
    tame = LayerGraph(3, ((1, 2, 2.0), (1, 3, 3.0), *rest))
    expected = build_centrality_matrix(tame, PageRank(dangling=policy)).to_dense()
    got = build_centrality_matrix(huge, PageRank(dangling=policy)).to_dense()
    assert np.array_equal(got[:, 1:], expected[:, 1:])  # column j holds row j of D^-1 A'
    # a unit self-edge next to 2.5e308 weighs nothing
    assert np.allclose(got[:, 0], 0.85 * np.array([0.0, 0.4, 0.6]) + 0.05, rtol=1e-15, atol=0)


def test_pagerank_layer_stores_no_copy():
    g = LayerGraph(3, ((1, 2, 1.0), (2, 3, 2.0), (3, 1, 0.5)))
    for policy in DanglingPolicy:
        m = build_centrality_matrix(g, PageRank(dangling=policy))
        assert m.sparse is g.csr
        assert m.row_factors.shape == m.self_weights.shape == (3,)


# a self-loop on node 1, and node 4 dangling with in-edges from 1 and 3
LOOPED = LayerGraph(5, ((1, 1, 2.0), (1, 2, 1.0), (1, 4, 0.5), (2, 3, 3.0), (3, 1, 1.0),
                        (3, 4, 1.5), (5, 2, 0.25)))


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_every_pagerank_method_matches_the_dense_oracle(policy):
    kind = PageRank(sigma=0.7, dangling=policy)
    m = build_centrality_matrix(LOOPED, kind)
    dense = dense_pagerank_matrix(dense_adjacency(LOOPED), kind.sigma, policy)
    close = {"rtol": 1e-14, "atol": 1e-15}
    assert np.allclose(m.to_dense(), dense, **close)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.standard_normal(LOOPED.n_nodes)
        assert np.allclose(m.apply(x), dense @ x, **close)
        assert np.allclose(m.apply_transpose(x), dense.T @ x, **close)
    assert np.allclose(m.diagonal(), np.diag(dense), **close)
    with pytest.raises(TypeError, match="explicit form"):
        m.row_max()
    assert np.allclose(m.principal_block(np.arange(5)).row_max(), dense.max(axis=1), **close)
    assert m.max_row_sum() == pytest.approx(dense.sum(axis=1).max(), rel=1e-14)
    assert m.max_abs_entry() == pytest.approx(dense.max(), rel=1e-14)
    assert m.uniformly_positive and m.shift == 0.0
    nodes = np.array([0, 3, 4])
    block = m.principal_block(nodes)
    assert block.row_factors is None
    assert np.allclose(block.to_dense(), dense[np.ix_(nodes, nodes)], **close)
    scaled = m.scaled(-3)
    assert scaled.sparse is m.sparse
    assert np.array_equal(scaled.apply(np.ones(5)), 8.0 * m.apply(np.ones(5)))
    other = build_centrality_matrix(LOOPED, Eigenvector())
    total = LayerCentralityMatrix.weighted_sum((m, other), (0.5, -2.0))
    assert total.row_factors is None
    assert np.allclose(total.to_dense(), 0.5 * dense - 2.0 * dense_adjacency(LOOPED), **close)


@pytest.mark.parametrize("weight", ["1e-315", "1e308"])
def test_pagerank_rows_outside_the_normal_range_match_the_unit_rows(weight):
    # such rows are normalized in a copy of the data, the rest keep their bits
    unit = LayerGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 1, 1.0), (3, 1, 0.5)))
    extreme = LayerGraph(3, ((1, 2, float(weight)), (1, 3, float(weight)), (2, 1, 1.0),
                             (3, 1, 0.5)))
    got = build_centrality_matrix(extreme, PageRank())
    expected = build_centrality_matrix(unit, PageRank())
    assert got.sparse is not extreme.csr
    assert np.allclose(got.to_dense(), expected.to_dense(), rtol=1e-15, atol=0)
    assert np.array_equal(got.to_dense()[:, 1:], expected.to_dense()[:, 1:])
    x = np.array([0.2, 0.3, 0.5])
    assert np.allclose(got.apply(x), expected.apply(x), rtol=1e-15, atol=0)


def test_pagerank_sigma_guard():
    with pytest.raises(ValueError):
        build_centrality_matrix(TWO_CYCLE, PageRank(sigma=1.0))


def test_pagerank_columns_stochastic_random_graphs():
    rng = np.random.default_rng(7)
    for trial in range(20):
        g = random_layer(rng, int(rng.integers(2, 9)), density=0.4)
        sigma = float(rng.uniform(0.0, 0.99))
        m = build_centrality_matrix(g, PageRank(sigma=sigma))
        assert np.abs(m.to_dense().sum(axis=0) - 1.0).max() <= 1e-12


def test_hub_authority_symmetric_and_psd():
    rng = np.random.default_rng(11)
    for trial in range(20):
        g = random_layer(rng, int(rng.integers(2, 9)), density=0.5)
        for kind in (Hub(), Authority()):
            dense = build_centrality_matrix(g, kind).to_dense()
            assert np.array_equal(dense, dense.T)
            for _ in range(5):
                x = rng.standard_normal(g.n_nodes)
                assert x @ dense @ x >= -1e-12


def test_implicit_apply_matches_dense():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(2, 51))
        g = random_layer(rng, n, density=0.2)
        m = build_centrality_matrix(g, PageRank(sigma=float(rng.uniform(0.1, 0.95))))
        dense = m.to_dense()
        for _ in range(5):
            x = rng.standard_normal(n)
            assert np.abs(m.apply(x) - dense @ x).max() <= 1e-12
            assert np.abs(m.apply_transpose(x) - dense.T @ x).max() <= 1e-12


def test_max_row_sum_matches_dense():
    rng = np.random.default_rng(5)
    g = random_layer(rng, 6, density=0.5)
    m = build_centrality_matrix(g, PageRank(sigma=0.85))
    assert m.max_row_sum() == pytest.approx(m.to_dense().sum(axis=1).max(), abs=1e-12)


KINDS = [Eigenvector(), Hub(), Authority(), PageRank(sigma=0.6)]
KIND_IDS = ["eigenvector", "hub", "authority", "pagerank"]


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_diagonal_and_principal_block_match_dense(kind):
    rng = np.random.default_rng(13)
    g = random_layer(rng, 7, density=0.4)
    m = build_centrality_matrix(g, kind)
    dense = m.to_dense()
    assert np.allclose(dense, dense_layer_matrix(g, kind), rtol=1e-14, atol=1e-15)
    assert np.array_equal(m.diagonal(), np.diag(dense))
    nodes = np.array([0, 2, 3, 6])
    block = m.principal_block(nodes)
    assert block.n == nodes.size
    assert np.allclose(block.to_dense(), dense[np.ix_(nodes, nodes)], rtol=1e-15, atol=0)


@pytest.mark.parametrize("kind", [Hub(), Authority()], ids=["hub", "authority"])
def test_dense_product_warning_names_the_builders_caller(monkeypatch, kind):
    monkeypatch.setattr(centrality, "DENSE_PRODUCT_WARN_NNZ", 1)
    with pytest.warns(ResourceWarning, match="2 stored entries") as record:
        build_centrality_matrix(TWO_CYCLE, kind)
    assert [w.filename for w in record] == [__file__]
