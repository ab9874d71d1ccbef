import itertools

import numpy as np
import pytest
from scipy import sparse

from supracentrality import (
    ConstantInputError,
    Eigenvector,
    LayerCentralityMatrix,
    LayerGraph,
    MultiplexNetwork,
    PageRank,
    SupraProblem,
    check_preconditions,
    intralayer_degrees,
    pearson,
    strongly_connected,
    total_degrees,
)
from supracentrality.graph import layer_sum_components
from supracentrality.interlayer import all_to_all, chain_teleport

from _oracles import oracle_strongly_connected

PAW = LayerGraph(
    4,
    tuple(
        (i, j, 1.0)
        for i, j in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1)]
    ),
)


def test_two_cycle_strongly_connected():
    assert strongly_connected(np.array([[0, 1], [1, 0]]))


def test_single_directed_edge_not_strongly_connected():
    assert not strongly_connected(np.array([[0, 1], [0, 0]]))


def test_directed_five_cycle_strongly_connected():
    m = np.zeros((5, 5))
    for i in range(5):
        m[i, (i + 1) % 5] = 1.0
    assert strongly_connected(m)


def test_sparse_input_accepted():
    assert strongly_connected(LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0))).csr)
    assert not strongly_connected(LayerGraph(2, ((1, 2, 1.0),)).csr)
    stored_zero = sparse.csr_matrix(([1.0, 0.0], ([0, 1], [1, 0])), shape=(2, 2))
    assert stored_zero.nnz == 2
    assert not strongly_connected(stored_zero)


def test_strongly_connected_vs_oracle_exhaustive_n_le_3():
    for n in (1, 2, 3):
        off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in itertools.product((0, 1), repeat=len(off_diag)):
            m = np.zeros((n, n))
            for (i, j), b in zip(off_diag, bits):
                m[i, j] = b
            assert strongly_connected(m) == oracle_strongly_connected(m)
            assert strongly_connected(sparse.csr_matrix(m)) == oracle_strongly_connected(m)


def test_layer_sum_stored_zero_is_not_an_edge():
    # a two-cycle whose two entries are stored zeros
    stored_zeros = sparse.csr_matrix((np.zeros(2), [1, 0], [0, 1, 2]), shape=(2, 2))
    mat = LayerCentralityMatrix(n=2, sparse=stored_zeros)
    assert mat.sparse.nnz == 2
    assert not layer_sum_components((mat,))[0] == 1


def test_self_loops_do_not_affect_strong_connectivity():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = (rng.random((4, 4)) < 0.35).astype(float)
        np.fill_diagonal(m, 0.0)
        with_loops = m + np.eye(4)
        assert strongly_connected(m) == strongly_connected(with_loops)


def test_precondition_directed_chain_fails_interlayer():
    net = MultiplexNetwork(2, (LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0))),) * 3)
    problem = SupraProblem(
        network=net, kind=Eigenvector(), interlayer=chain_teleport(3, 0.0)
    )
    report = check_preconditions(problem, 1.0)
    assert not report.interlayer_ok
    assert not report.both_ok


def test_precondition_teleport_chain_passes():
    net = MultiplexNetwork(2, (LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0))),) * 3)
    problem = SupraProblem(
        network=net, kind=Eigenvector(), interlayer=chain_teleport(3, 0.01)
    )
    assert check_preconditions(problem, 1.0).interlayer_ok


def test_precondition_layer_sum_two_cycles():
    net = MultiplexNetwork(
        2, (LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0))), LayerGraph(2, ((1, 2, 2.0), (2, 1, 2.0))))
    )
    problem = SupraProblem(
        network=net, kind=Eigenvector(), interlayer=chain_teleport(2, 0.5)
    )
    assert check_preconditions(problem, 1.0).layer_sum_ok


def test_precondition_pagerank_layer_sum_always_ok():
    # disconnected layers, but the teleportation term makes the sum positive
    net = MultiplexNetwork(3, (LayerGraph(3, ((1, 2, 1.0),)), LayerGraph(3, ())))
    problem = SupraProblem(
        network=net, kind=PageRank(), interlayer=chain_teleport(2, 0.1)
    )
    assert check_preconditions(problem, 1.0).layer_sum_ok


@pytest.mark.parametrize("n_layers, omega, expected", [(1, 0.0, True), (2, 0.0, False),
                                                      (2, 1e-12, True)])
def test_precondition_interlayer_reads_the_coupling_omega_times_interlayer(n_layers, omega,
                                                                           expected):
    # a 1 x 1 coupling counts as strongly connected, even when it is zero
    net = MultiplexNetwork(2, (LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0))),) * n_layers)
    problem = SupraProblem(
        network=net, kind=Eigenvector(), interlayer=all_to_all(n_layers)
    )
    assert check_preconditions(problem, omega).interlayer_ok is expected


def test_intralayer_degrees_examples():
    empty = LayerGraph(3, ())
    triangle = LayerGraph(
        3, tuple((i, j, 1.0) for i, j in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)])
    )
    net = MultiplexNetwork(3, (empty, triangle))
    deg = intralayer_degrees(net)
    assert np.array_equal(deg[:, 0], [0, 0, 0])
    assert np.array_equal(deg[:, 1], [2, 2, 2])


def test_paw_degrees():
    net = MultiplexNetwork(4, (PAW,))
    assert np.array_equal(intralayer_degrees(net)[:, 0], [3, 2, 2, 1])


def test_total_degrees():
    net1 = MultiplexNetwork(4, (PAW,))
    assert np.array_equal(total_degrees(net1), [3, 2, 2, 1])
    net2 = MultiplexNetwork(4, (PAW, PAW))
    assert np.array_equal(total_degrees(net2), [6, 4, 4, 2])
    empty = MultiplexNetwork(3, (LayerGraph(3, ()),))
    assert np.array_equal(total_degrees(empty), [0, 0, 0])


def test_pearson_examples():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_pearson_errors():
    with pytest.raises(ConstantInputError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ConstantInputError):
        pearson([1, 2, 3], [5, 5, 5])
    with pytest.raises(ValueError):
        pearson([1], [2])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
