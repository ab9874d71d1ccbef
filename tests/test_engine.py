from types import SimpleNamespace

import numpy as np
import pytest

from supracentrality import (
    Eigenvector,
    InterlayerMatrix,
    LayerGraph,
    MultiplexNetwork,
    NonConvergenceError,
    OperatorOverflowError,
    PageRank,
    SupraOperator,
    SupraProblem,
    dominant_eigenpair,
    shifted_power_iteration,
    stride_permutation,
    tableau_from_vector,
)
from supracentrality.interlayer import chain_teleport, chain_undirected

from _oracles import (
    blocks_instance,
    cosine,
    dense_dominant_eigenpair,
    dense_supra_matrix,
    random_instance,
)

TWO_CYCLE = LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))


def _problem(net, inter, kind=Eigenvector()):
    return SupraProblem(network=net, kind=kind, interlayer=inter)


def _operator(dim, shift, apply, apply_transpose=None):
    """A stand-in with the four members every eigensolve reads."""
    return SimpleNamespace(dim=dim, shift=shift, apply=apply,
                           apply_transpose=apply_transpose or apply)


def _with_shift(op, shift):
    return _operator(op.dim, shift, op.apply, op.apply_transpose)


def test_apply_decoupled_at_zero_omega():
    net = MultiplexNetwork(2, (TWO_CYCLE, LayerGraph(2, ((1, 2, 2.0),))))
    op = SupraOperator(_problem(net, chain_undirected(2)), 0.0)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    expected = np.array([2.0, 1.0, 8.0, 0.0])  # blockwise C_t x_t
    assert np.allclose(op.apply(x), expected, atol=1e-15)


def test_apply_pure_coupling():
    net = MultiplexNetwork(1, (LayerGraph(1, ()), LayerGraph(1, ())))
    op = SupraOperator(_problem(net, InterlayerMatrix(np.eye(2))), 2.0)
    x = np.ones(2)
    assert np.allclose(op.apply(x), 2.0 * x, atol=1e-15)


def test_apply_two_block_hand_example():
    net = MultiplexNetwork(1, (LayerGraph(1, ((1, 1, 3.0),)), LayerGraph(1, ((1, 1, 5.0),))))
    inter = InterlayerMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    op = SupraOperator(_problem(net, inter), 1.0)
    assert np.allclose(op.apply(np.ones(2)), [4.0, 6.0], atol=1e-15)
    dense = op.to_dense()
    assert np.allclose(dense, [[3.0, 1.0], [1.0, 5.0]], atol=1e-15)


def test_operator_linearity():
    rng = np.random.default_rng(21)
    net, inter = random_instance(21, kind=Eigenvector())
    op = SupraOperator(_problem(net, inter), 0.7)
    for _ in range(10):
        x = rng.standard_normal(op.dim)
        y = rng.standard_normal(op.dim)
        a, b = rng.standard_normal(2)
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


@pytest.mark.parametrize("kind", [Eigenvector(), PageRank()])
def test_apply_matches_densified(kind):
    rng = np.random.default_rng(33)
    net, inter = random_instance(33, kind=kind, n_hi=5, t_hi=4)
    assert net.n_nodes * net.n_layers <= 60
    op = SupraOperator(_problem(net, inter, kind=kind), 1.3)
    dense = op.to_dense()
    for _ in range(20):
        x = rng.standard_normal(op.dim)
        assert np.abs(op.apply(x) - dense @ x).max() <= 1e-10
        assert np.abs(op.apply_transpose(x) - dense.T @ x).max() <= 1e-10


def test_single_layer_two_cycle_with_explicit_shift():
    net = MultiplexNetwork(2, (TWO_CYCLE,))
    op = SupraOperator(_problem(net, InterlayerMatrix(np.zeros((1, 1)))), 0.0)
    pair = dominant_eigenpair(_with_shift(op, 0.5))
    assert pair.eigenvalue == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(pair.vector, np.full(2, 1 / np.sqrt(2)), atol=1e-9)


def test_two_row_operator_starts_from_a_dense_eig_on_either_side():
    # A + 1000 I with A = [[0, 0.5], [1, 0.5]]: eigenvalues 1001 and 999.5,
    # right vector (1, 2) / sqrt(5), left vector (1, 1) / sqrt(2)
    net = MultiplexNetwork(2, (LayerGraph(2, ((1, 2, 0.5), (2, 1, 1.0), (2, 2, 0.5))),))
    op = SupraOperator(_problem(net, InterlayerMatrix(np.eye(1))), 1000.0)
    for side, vector in (("right", [1.0, 2.0]), ("left", [1.0, 1.0])):
        pair = dominant_eigenpair(op, side, tol=1e-12)
        assert pair.iterations <= 10
        assert pair.eigenvalue == pytest.approx(1001.0, rel=1e-12)
        assert np.allclose(pair.vector, vector / np.linalg.norm(vector), rtol=0, atol=1e-12)


def test_pagerank_layers_eigenvalue_near_one_at_tiny_omega():
    net, inter = random_instance(5, kind=PageRank())
    op = SupraOperator(_problem(net, inter, kind=PageRank()), 1e-9)
    pair = dominant_eigenpair(op, tol=1e-8)
    assert pair.eigenvalue == pytest.approx(1.0, abs=1e-6)


def test_engine_matches_dense_oracle():
    for seed in range(36, 44):
        kind = Eigenvector() if seed % 2 else PageRank()
        net, inter = random_instance(seed, kind=kind, min_gap=5e-3)
        omega = float(np.random.default_rng(seed).uniform(0.1, 5.0))
        op = SupraOperator(_problem(net, inter, kind=kind), omega)
        pair = dominant_eigenpair(op, tol=1e-11)
        lam_oracle, vec_oracle = dense_dominant_eigenpair(
            dense_supra_matrix(net, kind, inter, omega)
        )
        assert abs(pair.eigenvalue - lam_oracle) <= 1e-8 * abs(lam_oracle)
        assert cosine(pair.vector, vec_oracle) >= 1 - 1e-10


def test_left_right_eigenvalues_agree():
    net, inter = random_instance(77, kind=Eigenvector(), min_gap=5e-3)
    op = SupraOperator(_problem(net, inter), 0.9)
    tol = 1e-11
    right = dominant_eigenpair(op, "right", tol=tol)
    left = dominant_eigenpair(op, "left", tol=tol)
    assert abs(right.eigenvalue - left.eigenvalue) <= 2 * tol * abs(right.eigenvalue)


def test_converged_vector_positive_when_preconditions_hold():
    for seed in (101, 102, 103):
        net, inter = random_instance(seed, kind=Eigenvector(), min_gap=5e-3)
        op = SupraOperator(_problem(net, inter), 1.1)
        pair = dominant_eigenpair(op, tol=1e-11)
        assert pair.vector.min() > 0
        assert pair.residual <= 1e-11 * abs(pair.eigenvalue)


def _periodic_three_cycle_operator():
    # weighted directed 3-cycle: three eigenvalues of equal magnitude
    cyc = LayerGraph(3, ((1, 2, 2.0), (2, 3, 1.0), (3, 1, 1.0)))
    net = MultiplexNetwork(3, (cyc,))
    return SupraOperator(_problem(net, InterlayerMatrix(np.zeros((1, 1)))), 0.0)


def test_nonconvergence_on_periodic_operator_without_shift():
    op = _with_shift(_periodic_three_cycle_operator(), 0.0)
    with pytest.raises(NonConvergenceError) as err:
        shifted_power_iteration(op, max_iter=500)
    assert err.value.iterations == 500


def test_dominant_eigenpair_solves_periodic_operator_without_shift():
    op = _periodic_three_cycle_operator()
    pair = dominant_eigenpair(_with_shift(op, 0.0), max_iter=500)
    vals, vecs = np.linalg.eig(op.to_dense())
    perron = vecs[:, np.argmax(vals.real)].real
    perron *= np.sign(perron.sum())
    assert abs(pair.eigenvalue - 2.0 ** (1.0 / 3.0)) <= 1e-12
    assert np.allclose(pair.vector, perron, rtol=0, atol=1e-10)
    assert np.allclose(pair.vector, [0.7024, 0.4425, 0.5575], rtol=0, atol=1e-4)
    assert pair.iterations < 500


def test_warm_start_is_accepted():
    net, inter = random_instance(55, kind=Eigenvector(), min_gap=5e-3)
    op1 = SupraOperator(_problem(net, inter), 1.0)
    base = dominant_eigenpair(op1)
    op2 = SupraOperator(_problem(net, inter), 1.05)
    warm = dominant_eigenpair(op2, start=base.vector)
    cold = dominant_eigenpair(op2)
    assert warm.iterations <= cold.iterations
    assert cosine(warm.vector, cold.vector) >= 1 - 1e-9


def test_tableau_uniform_vector():
    v = np.full(4, 0.5)
    tab = tableau_from_vector(v, 2, 2, 1.0, 1.0)
    assert np.allclose(tab.Z, 0.5, atol=1e-15)
    assert np.allclose(tab.Z_hat, 0.5, atol=1e-15)
    assert np.allclose(tab.x, [1.0, 1.0], atol=1e-15)


def test_tableau_localized_vector():
    v = np.array([0.6, 0.8, 0.0, 0.0])
    tab = tableau_from_vector(v, 2, 2, 2.0, 0.0)
    assert tab.zero_mass_layers == (2,)
    assert np.allclose(tab.x, [1.4, 0.0], atol=1e-15)
    assert np.allclose(tab.Z_hat[:, 0], [1.0, 1.0], atol=1e-15)
    assert np.all(np.isnan(tab.Z[:, 1]))
    # a node with no mass in any layer: its conditional row is NaN (0/0)
    tab = tableau_from_vector(np.array([0.6, 0.0, 0.8, 0.0]), 2, 2, 2.0, 0.0)
    assert tab.zero_mass_layers == () and tab.zero_mass_nodes == (2,)
    assert np.allclose(tab.x_hat, [1.4, 0.0], atol=1e-15)
    assert np.allclose(tab.Z[0, :], [1.0, 1.0], atol=1e-15)
    assert np.all(np.isnan(tab.Z_hat[1, :]))


def test_tableau_from_coupled_eigenvector():
    net = MultiplexNetwork(1, (LayerGraph(1, ((1, 1, 3.0),)), LayerGraph(1, ((1, 1, 5.0),))))
    inter = InterlayerMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    op = SupraOperator(_problem(net, inter), 1.0)
    pair = dominant_eigenpair(op, tol=1e-12)
    assert pair.eigenvalue == pytest.approx(4 + np.sqrt(2), abs=1e-9)
    tab = tableau_from_vector(pair.vector, 1, 2, pair.eigenvalue, 1.0)
    # eigenvector of [[3,1],[1,5]] is proportional to (1, 1 + sqrt(2))
    ratio = tab.W[0, 1] / tab.W[0, 0]
    assert ratio == pytest.approx(1 + np.sqrt(2), abs=1e-8)
    assert np.allclose(tab.Z, 1.0, atol=1e-12)


def test_tableau_rejects_bad_input():
    with pytest.raises(ValueError):
        tableau_from_vector(np.array([0.5, -0.5]), 1, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        tableau_from_vector(np.zeros(4), 2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        tableau_from_vector(np.ones(3), 2, 2, 1.0, 1.0)


def test_stride_identity_cases():
    assert np.array_equal(stride_permutation(1, 5), np.arange(5))
    assert np.array_equal(stride_permutation(5, 1), np.arange(5))


def test_stride_two_by_two():
    # 1-based map 1->1, 2->3, 3->2, 4->4
    assert np.array_equal(stride_permutation(2, 2), [0, 2, 1, 3])


def _permutation_matrix(perm):
    p = np.zeros((perm.size, perm.size))
    p[np.arange(perm.size), perm] = 1.0
    return p


def test_stride_conjugation_identity():
    rng = np.random.default_rng(17)
    for n in range(1, 6):
        for t in range(1, 6):
            perm = stride_permutation(n, t)
            assert sorted(perm) == list(range(n * t))
            a = rng.integers(0, 5, size=(t, t)).astype(float)
            p = _permutation_matrix(perm)
            lhs = p @ np.kron(np.eye(n), a) @ p.T
            rhs = np.kron(a, np.eye(n))
            assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
def test_tol_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol"):
        shifted_power_iteration(_operator(2, 0.0, lambda x: x), tol=tol)


def test_non_finite_iterate_fails_on_first_iteration():
    with pytest.raises(NonConvergenceError) as err:
        shifted_power_iteration(_operator(3, 0.5, lambda x: np.full_like(x, np.nan)))
    assert err.value.iterations == 1


def test_with_omega_matches_a_fresh_operator_and_shares_blocks():
    net, inter = random_instance(61, kind=PageRank())
    base = SupraOperator(_problem(net, inter, kind=PageRank()), 0.5)
    moved = base.with_omega(3.0)
    fresh = SupraOperator(_problem(net, inter, kind=PageRank()), 3.0)
    assert moved._block_diag is base._block_diag
    # the moved operator shares the problem, so reading its layer matrices builds none
    assert moved.problem is base.problem
    assert moved.problem.layer_matrices is base.layers
    assert moved.shift == fresh.shift and base.omega == 0.5 and moved.omega == 3.0
    x = np.random.default_rng(61).standard_normal(base.dim)
    assert np.array_equal(moved.apply(x), fresh.apply(x))
    assert np.array_equal(moved.apply_transpose(x), fresh.apply_transpose(x))
    with pytest.raises(ValueError, match="finite"):
        base.with_omega(float("nan"))


def test_arpack_stops_at_the_callers_tol():
    # at omega = 1e4 the top two eigenvalues are about 2e-4 apart, relative;
    # with ARPACK run to machine precision both counts were 83
    net, inter = blocks_instance(0)
    op = SupraOperator(_problem(net, inter), 1e4)
    loose = dominant_eigenpair(op, tol=1e-6)
    tight = dominant_eigenpair(op, tol=1e-10)
    assert loose.iterations < tight.iterations  # 33 and 53 matvecs


def _scaled(net, factor):
    return MultiplexNetwork(net.n_nodes, tuple(
        LayerGraph(g.n_nodes, tuple((i, j, w * factor) for i, j, w in g.entries))
        for g in net.layers))


def test_huge_weights_solve_to_the_unscaled_vector():
    # C(omega) scaled by 1e100 has the same eigenvector; dim * r**2 stays finite
    net, inter = random_instance(23, kind=Eigenvector(), min_gap=5e-3)
    pair = dominant_eigenpair(SupraOperator(_problem(net, inter), 1.5))
    huge = dominant_eigenpair(SupraOperator(_problem(_scaled(net, 1e100), inter), 1.5e100))
    assert huge.eigenvalue == pytest.approx(1e100 * pair.eigenvalue, rel=1e-9)
    assert np.allclose(huge.vector, pair.vector, rtol=0, atol=1e-9)


def test_operator_whose_scale_overflows_is_refused():
    net = MultiplexNetwork(2, (LayerGraph(2, ((1, 1, 1e308), (2, 2, 1.0))),))
    with pytest.raises(OperatorOverflowError, match="at every omega, from its layer matrices"):
        SupraOperator(_problem(net, InterlayerMatrix(np.eye(1))), 1.0)
    # at omega = 0, r = 1.1e153 (the shift adds a tenth) and 2 * r**2 is finite
    base = SupraOperator(_problem(_scaled(net, 1e-155), InterlayerMatrix(np.eye(1))), 0.0)
    with pytest.raises(OperatorOverflowError, match="omega 1e\\+155"):
        base.with_omega(1e155)
    # interlayer sums past the float range, with no RuntimeWarning on the way
    cycle = LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))
    with pytest.raises(OperatorOverflowError, match="at omega 1.0:"):
        SupraOperator(_problem(MultiplexNetwork(2, (cycle, cycle)), chain_teleport(2, 1e308)), 1.0)
