import dataclasses

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
    tableau_from_vector,
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


def test_tableau_holds_only_w_and_derives_the_rest():
    assert [f.name for f in dataclasses.fields(CentralityTableau)] == ["W", "lambda_max", "omega"]
    assert not hasattr(CentralityTableau, "validate")
    W = np.array([[0.6, 0.0], [0.0, 0.8]])
    tab = CentralityTableau(W, lambda_max=2.0, omega=0.5)
    W[0, 0] = 0.0
    assert tab.W[0, 0] == 0.6 and tab.W.flags.c_contiguous
    with pytest.raises(ValueError):
        tab.W[0, 0] = 1.0
    assert tab.x.tolist() == [0.6, 0.8] and tab.mnc.tolist() == [0.6, 0.8]
    assert tab.Z.tolist() == [[1.0, 0.0], [0.0, 1.0]] == tab.Z_hat.tolist()


@pytest.mark.parametrize("W, message", [
    (np.full(4, 0.5), "2-D"),
    (np.array([[0.6, np.inf], [0.8, 0.0]]), "finite"),
    (np.array([[0.6, np.nan], [0.8, 0.0]]), "finite"),
    (np.array([[0.6, -1e-12], [0.8, 0.0]]), "nonnegative"),
    (np.array([[0.6, 0.1], [0.8, 0.0]]), "sum of squared joint centralities"),
    (np.zeros((2, 0)), "sum of squared joint centralities"),
])
def test_tableau_rejects_a_bad_w(W, message):
    with pytest.raises(ValueError, match=message):
        CentralityTableau(W, lambda_max=1.0, omega=1.0)


def test_tableau_from_nan_vector_is_rejected():
    with pytest.raises(ValueError, match="finite"):
        tableau_from_vector(np.array([np.nan, 1.0, 0.5, 0.5]), 2, 2, 1.0, 1.0)


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


def test_validate_network_reports_every_edge_violation_in_sorted_order():
    layer = LayerGraph(3, (
        (3, 3, float("inf")), (1, 4, 2.0), (2, 1, float("nan")), (1, 2, 5.0),
        (3, 1, 0.0), (0, 1, -1.0), (1, 2, 1.0), (2, 3, -2.0), (1, 4, 1.0), (2, 2, 1.0),
    ))
    assert validate_network(MultiplexNetwork(3, (layer,))) == [
        "layer 1: edge (0, 1) index out of range",
        "layer 1: edge (0, 1) has negative weight -1.0",
        "layer 1: duplicate edge (1, 2)",
        "layer 1: edge (1, 4) index out of range",
        "layer 1: edge (1, 4) index out of range",
        "layer 1: duplicate edge (1, 4)",
        "layer 1: edge (2, 1) has non-finite weight nan",
        "layer 1: edge (2, 3) has negative weight -2.0",
        "layer 1: edge (3, 1) stores zero weight",
        "layer 1: edge (3, 3) has non-finite weight inf",
    ]


def test_layer_graph_equality_and_hash_follow_the_arrays():
    a = LayerGraph(3, ((2, 1, 1.0), (1, 3, 2.5)))
    b = LayerGraph.from_arrays(3, np.array([1, 2]), np.array([3, 1]), np.array([2.5, 1.0]))
    assert (a == b) is True and hash(a) == hash(b)
    assert MultiplexNetwork(3, (a,)) == MultiplexNetwork(3, (b,))
    changed = LayerGraph(3, ((2, 1, 1.0), (1, 3, 2.0)))
    assert (a == changed) is False and (a != changed) is True
    assert LayerGraph(4, a.entries) != a
    assert len({a, b, changed}) == 2


def test_layer_graph_arrays_are_sorted_read_only_copies():
    rows = np.array([2, 1])
    g = LayerGraph.from_arrays(2, rows, np.array([1, 2]), np.array([1.0, 3.0]))
    rows[0] = 7
    assert g.rows.tolist() == [1, 2] and g.cols.tolist() == [2, 1]
    assert g.rows.dtype == np.int64 and g.weights.dtype == np.float64
    with pytest.raises(ValueError):
        g.weights[0] = 0.0


def test_layer_graph_rejects_indices_beyond_int64():
    with pytest.raises(OverflowError):
        LayerGraph(3, ((2**70, 1, 1.0),))


def test_entries_of_unsorted_numpy_scalar_triples_are_python_numbers():
    g = LayerGraph(3, [(np.int64(2), np.int32(1), np.float32(0.5)), (1, 3, 2),
                       (np.int64(1), 2, np.float64(1.25)), (1, 2, 0.75)])
    assert g.entries == ((1, 2, 0.75), (1, 2, 1.25), (1, 3, 2.0), (2, 1, 0.5))
    assert {tuple(type(v) for v in e) for e in g.entries} == {(int, int, float)}
    assert LayerGraph(3, ()).entries == ()
