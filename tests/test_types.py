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


def _tableau(n=5, t=3, **flags):
    vector = np.random.default_rng(4).uniform(0.5, 1.5, n * t)
    good = tableau_from_vector(vector, n, t, 1.0, 1.0)
    fields = {name: np.array(getattr(good, name)) for name in ("W", "x", "x_hat", "Z", "Z_hat")}
    return fields, lambda **f: CentralityTableau(lambda_max=1.0, omega=1.0, **{**f, **flags})


@pytest.mark.parametrize("name, index, message", [
    ("Z", (slice(None), 1), "conditional centralities of layer 2 do not sum to 1"),
    ("Z_hat", (3, slice(None)), "conditional centralities of node 4 do not sum to 1"),
])
def test_tableau_validate_names_the_first_bad_conditional(name, index, message):
    fields, build = _tableau()
    fields[name][index] *= 1.5
    fields[name][(slice(None), 2) if name == "Z" else (4, slice(None))] *= 1.5
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(**fields).validate()


def test_tableau_validate_checks_zero_mass_flags():
    fields, build = _tableau(zero_mass_layers=(3,), zero_mass_nodes=(2,))
    with pytest.raises(ValueError, match="^layer 3 flagged zero-mass but Z is not NaN$"):
        build(**fields).validate()
    fields["Z"][:, 2] = np.nan
    with pytest.raises(ValueError, match="^node 2 flagged zero-mass but Z_hat is not NaN$"):
        build(**fields).validate()
    fields["Z_hat"][1, :] = np.nan
    build(**fields).validate()
