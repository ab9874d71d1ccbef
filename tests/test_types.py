import numpy as np
import pytest

from supracentrality import (
    CentralityTableau,
    InterlayerMatrix,
    LayerGraph,
    MultiplexNetwork,
    PageRank,
    SupraProblem,
    Eigenvector,
    validate_network,
)
from supracentrality.interlayer import chain_undirected


def test_minimal_network_is_valid():
    net = MultiplexNetwork(1, (LayerGraph(1, ()),))
    assert validate_network(net) == []


def test_out_of_range_edge_reported():
    net = MultiplexNetwork(4, (LayerGraph(4, ((1, 5, 1.0),)),))
    report = validate_network(net)
    assert len(report) == 1
    assert "index out of range" in report[0]


def test_negative_weight_reported():
    net = MultiplexNetwork(2, (LayerGraph(2, ((1, 2, -1.0),)),))
    report = validate_network(net)
    assert len(report) == 1
    assert "negative weight" in report[0]


def test_duplicate_layer_size_and_label_violations():
    net = MultiplexNetwork(
        3,
        (LayerGraph(3, ((1, 2, 1.0), (1, 2, 2.0))), LayerGraph(2, ())),
        node_labels=("a", "b"),
    )
    report = validate_network(net)
    assert any("duplicate edge" in r for r in report)
    assert any("nodes" in r and "declares" in r for r in report)
    assert any("node labels" in r for r in report)


def test_entries_normalized_sorted():
    g = LayerGraph(3, ((2, 1, 1.0), (1, 3, 2.0), (1, 2, 1.0)))
    assert g.entries == ((1, 2, 1.0), (1, 3, 2.0), (2, 1, 1.0))


def test_csr_roundtrip():
    g = LayerGraph(3, ((1, 2, 1.5), (3, 1, 2.5)))
    dense = g.to_dense()
    assert dense[0, 1] == 1.5 and dense[2, 0] == 2.5 and dense.sum() == 4.0


def test_interlayer_rejects_negative_and_nonsquare():
    with pytest.raises(ValueError):
        InterlayerMatrix(np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        InterlayerMatrix(np.zeros((2, 3)))


def test_interlayer_values_readonly():
    m = InterlayerMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0


def test_pagerank_sigma_guard():
    with pytest.raises(ValueError):
        PageRank(sigma=1.0)
    with pytest.raises(ValueError):
        PageRank(sigma=-0.1)
    assert PageRank(sigma=0.0).sigma == 0.0


def test_supraproblem_dimension_guard():
    net = MultiplexNetwork(2, (LayerGraph(2, ()),))
    with pytest.raises(ValueError):
        SupraProblem(network=net, kind=Eigenvector(), interlayer=chain_undirected(2), omega=1.0)
    with pytest.raises(ValueError):
        SupraProblem(
            network=net,
            kind=Eigenvector(),
            interlayer=InterlayerMatrix(np.ones((1, 1))),
            omega=-1.0,
        )


def test_tableau_validate_catches_bad_marginals():
    W = np.full((2, 2), 0.5)
    bad = CentralityTableau(
        W=W,
        x=np.array([0.9, 1.0]),
        x_hat=W.sum(axis=1),
        Z=W / W.sum(axis=0),
        Z_hat=W / W.sum(axis=1)[:, None],
        lambda_max=1.0,
        omega=1.0,
    )
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_weight_reported(weight):
    net = MultiplexNetwork(2, (LayerGraph(2, ((1, 2, weight), (2, 1, 1.0))),))
    report = validate_network(net)
    assert len(report) == 1
    assert "non-finite weight" in report[0]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_interlayer_and_omega_reject_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        InterlayerMatrix(np.array([[1.0, value], [1.0, 0.0]]))
    net = MultiplexNetwork(1, (LayerGraph(1, ()),))
    with pytest.raises(ValueError, match="finite"):
        SupraProblem(net, Eigenvector(), InterlayerMatrix(np.ones((1, 1))), omega=value)
