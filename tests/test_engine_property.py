"""Relabelling and scaling equivariance of the coupled solve.

Renumbering the nodes permutes the rows of the joint centralities W, and
reordering the layers (with the interlayer matrix conjugated to match)
permutes its columns.  For the eigenvector kind, scaling every edge weight
and omega by c > 0 scales the coupled matrix, so lambda scales by c and W
stays the same.  Instances come from ``random_instance`` with the
spectral gap the engine-versus-oracle test asks for, and results are
compared at that test's tolerances.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from supracentrality import (
    Eigenvector,
    InterlayerMatrix,
    LayerGraph,
    MultiplexNetwork,
    PageRank,
    SupraOperator,
    SupraProblem,
    dominant_eigenpair,
    tableau_from_vector,
)

from _oracles import cosine, random_instance

_settings = settings(max_examples=50, derandomize=True, deadline=None)
_kinds = st.sampled_from([Eigenvector(), PageRank()])


def _solve(net, kind, inter, omega):
    problem = SupraProblem(network=net, kind=kind, interlayer=inter, omega=omega)
    pair = dominant_eigenpair(SupraOperator(problem), tol=1e-11)
    return pair.eigenvalue, tableau_from_vector(
        pair.vector, net.n_nodes, net.n_layers, pair.eigenvalue, omega).W


def _assert_same_solution(lam, W, lam_expected, W_expected):
    assert abs(lam - lam_expected) <= 1e-8 * abs(lam_expected)
    assert cosine(W.ravel(), W_expected.ravel()) >= 1 - 1e-10


@_settings
@given(st.integers(0, 10_000), _kinds, st.floats(0.1, 5.0), st.data())
def test_relabelling_nodes_permutes_the_rows_of_w(seed, kind, omega, data):
    net, inter = random_instance(seed, kind=kind, omega=omega, min_gap=5e-3)
    # new node k + 1 is old node perm[k] + 1
    perm = np.array(data.draw(st.permutations(range(net.n_nodes))))
    new_index = np.argsort(perm) + 1
    relabelled = MultiplexNetwork(net.n_nodes, tuple(
        LayerGraph.from_arrays(net.n_nodes, new_index[g.rows - 1], new_index[g.cols - 1],
                               g.weights)
        for g in net.layers))
    lam, W = _solve(net, kind, inter, omega)
    lam_p, W_p = _solve(relabelled, kind, inter, omega)
    _assert_same_solution(lam_p, W_p, lam, W[perm])


@_settings
@given(st.integers(0, 10_000), _kinds, st.floats(0.1, 5.0), st.data())
def test_reordering_layers_permutes_the_columns_of_w(seed, kind, omega, data):
    net, inter = random_instance(seed, kind=kind, omega=omega, min_gap=5e-3)
    # new layer t + 1 is old layer rho[t] + 1
    rho = list(data.draw(st.permutations(range(net.n_layers))))
    reordered = MultiplexNetwork(net.n_nodes, tuple(net.layers[t] for t in rho))
    conjugated = InterlayerMatrix(inter.values[rho][:, rho])
    lam, W = _solve(net, kind, inter, omega)
    lam_r, W_r = _solve(reordered, kind, conjugated, omega)
    _assert_same_solution(lam_r, W_r, lam, W[:, rho])


@_settings
@given(st.integers(0, 10_000), st.floats(0.1, 5.0), st.floats(1e-3, 1e3))
def test_scaling_weights_and_omega_scales_lambda_and_keeps_w(seed, omega, c):
    kind = Eigenvector()
    net, inter = random_instance(seed, kind=kind, omega=omega, min_gap=5e-3)
    scaled = MultiplexNetwork(net.n_nodes, tuple(
        LayerGraph.from_arrays(net.n_nodes, g.rows, g.cols, c * g.weights) for g in net.layers))
    lam, W = _solve(net, kind, inter, omega)
    lam_c, W_c = _solve(scaled, kind, inter, c * omega)
    _assert_same_solution(lam_c, W_c, c * lam, W)
