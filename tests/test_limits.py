import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from supracentrality import (
    DegenerateInterlayerEigenvalueError,
    DegenerateLayerEigenvalueError,
    Eigenvector,
    InterlayerMatrix,
    LayerGraph,
    LimitPreconditionError,
    MultiplexNetwork,
    NonConvergenceError,
    NotApplicableError,
    PageRank,
    SupraOperator,
    SupraProblem,
    corollary_crosscheck,
    dominant_eigenpair,
    layer_eigendata,
    layer_spectral_radii,
    log_grid,
    strong_limit,
    sweep,
    tableau_from_vector,
    weak_limit,
)
from supracentrality import limits
from supracentrality.centrality import LayerCentralityMatrix, build_centrality_matrix
from supracentrality.interlayer import all_to_all, chain_undirected

from _oracles import (
    cosine,
    dense_dominant_eigenpair,
    dense_layer_matrix,
    random_instance,
)

TRIANGLE = LayerGraph(
    3, tuple((i, j, 1.0) for i, j in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)])
)
PAW = LayerGraph(
    4,
    tuple(
        (i, j, 1.0)
        for i, j in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1)]
    ),
)


def _problem(net, inter, kind=Eigenvector()):
    return SupraProblem(network=net, kind=kind, interlayer=inter)


def _layers(net, kind=Eigenvector()):
    """A problem whose layer matrices the per-layer routines read."""
    return _problem(net, all_to_all(net.n_layers), kind)


def test_layer_eigendata_pagerank_radii_are_one():
    net, _ = random_instance(42, kind=PageRank())
    data = layer_eigendata(_layers(net, PageRank()))
    assert np.abs(data.spectral_radii - 1.0).max() <= 1e-10
    assert data.dominating.tolist() == list(range(net.n_layers))


def test_layer_eigendata_triangle():
    net = MultiplexNetwork(3, (TRIANGLE,))
    data = layer_eigendata(_layers(net))
    assert data.spectral_radii[0] == pytest.approx(2.0, abs=1e-10)
    assert np.abs(data.right[0] - 1 / math.sqrt(3)).max() <= 1e-9


def test_layer_eigendata_paw():
    net = MultiplexNetwork(4, (PAW,))
    data = layer_eigendata(_layers(net))
    assert data.spectral_radii[0] == pytest.approx(2.170086486626034, abs=1e-9)


def test_layer_eigendata_flags_reducible_layer():
    lonely = LayerGraph(3, ((1, 2, 1.0), (2, 1, 1.0)))  # node 3 isolated
    net = MultiplexNetwork(3, (TRIANGLE, lonely))
    data = layer_eigendata(_layers(net))
    # the reducible layer's radius is its largest block radius; it does not
    # dominate, so its vectors are not computed
    assert data.spectral_radii == pytest.approx([2.0, 1.0], abs=1e-10)
    assert data.dominating.tolist() == [0]
    assert data.right.shape == data.left.shape == (1, 3)


def _undirected(n, edges):
    return LayerGraph(n, tuple((a, b, 1.0) for i, j in edges for a, b in ((i, j), (j, i))))


@pytest.mark.parametrize(
    "layer, radius",
    [
        # single-node blocks: two self-loops, block radii 1 and 1 (and 0)
        (LayerGraph(3, ((1, 1, 1.0), (2, 2, 1.0), (3, 1, 0.5))), 1.0),
        # two disjoint triangles: two blocks of radius 2, each from a block solve
        (_undirected(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]), 2.0),
    ],
    ids=["tied_single_node_blocks", "tied_triangle_blocks"],
)
def test_layer_gap_guard_rejects_repeated_dominant_eigenvalue(layer, radius):
    net = MultiplexNetwork(layer.n_nodes, (layer,))
    with pytest.raises(DegenerateLayerEigenvalueError, match="layer 1"):
        layer_eigendata(_layers(net))
    # the radius alone needs no gap: the largest block radius
    assert layer_spectral_radii(_layers(net))[0] == pytest.approx(radius, abs=1e-10)


def test_layer_gap_guard_accepts_bipartite_path(monkeypatch):
    # spectrum symmetric about 0: only the shift separates +sqrt(3) from -sqrt(3)
    path = _undirected(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    net = MultiplexNetwork(5, (path,))
    data = layer_eigendata(_layers(net))
    assert data.spectral_radii[0] == pytest.approx(math.sqrt(3.0), abs=1e-10)
    assert layer_spectral_radii(_layers(net))[0] == pytest.approx(math.sqrt(3.0), abs=1e-10)

    def stalled(*args, **kwargs):
        raise NonConvergenceError(100_000, 1.0)

    monkeypatch.setattr(limits, "shifted_power_iteration", stalled)
    with pytest.raises(NonConvergenceError, match=r"\(layer 1\)$"):
        layer_spectral_radii(_layers(net))


def test_layer_gap_guard_rejects_dag_layer_before_iterating(monkeypatch):
    # every block is one node with a zero diagonal: eigenvalue 0, twice
    net = MultiplexNetwork(2, (LayerGraph(2, ((1, 2, 1.0),)),))
    monkeypatch.setattr(limits, "SOLVE_MAX_ITER", 1)
    with pytest.raises(DegenerateLayerEigenvalueError, match="layer 1"):
        layer_eigendata(_layers(net))


# a weighted directed 4-cycle (radius 3) beside two 2-cycles (radius 1, tied)
CYCLE_3 = LayerGraph(4, ((1, 2, 3.0), (2, 3, 3.0), (3, 4, 3.0), (4, 1, 3.0)))
TWO_TWO_CYCLES = LayerGraph(4, ((1, 2, 1.0), (2, 1, 1.0), (3, 4, 1.0), (4, 3, 1.0)))


def _recorded_solves(monkeypatch) -> list:
    seen = []
    solve = limits.shifted_power_iteration

    def recording(op, *args, **kwargs):
        seen.append(op)
        return solve(op, *args, **kwargs)

    monkeypatch.setattr(limits, "shifted_power_iteration", recording)
    return seen


def test_weak_limit_accepts_a_tied_layer_that_does_not_dominate():
    net = MultiplexNetwork(4, (CYCLE_3, TWO_TWO_CYCLES))
    res = weak_limit(_problem(net, all_to_all(2)))
    assert res.dominating_set == (1,)
    assert res.layer_data.spectral_radii == pytest.approx([3.0, 1.0], abs=1e-10)
    assert res.tableau.mlc[1] == 0.0
    # the limit is what the coupled solve approaches: ||W(omega) - W_weak|| is 0.5 omega
    swept = sweep(SupraProblem(net, Eigenvector(), all_to_all(2)), log_grid(-6, -2, 1),
                  tol=1e-12)
    assert not swept.failures
    for omega, tableau in zip(swept.grid.values, swept.tableaus):
        assert np.linalg.norm(tableau.W - res.tableau.W) <= omega


def test_weak_limit_never_solves_a_nilpotent_layer_that_does_not_dominate(monkeypatch):
    dag = LayerGraph(4, ((1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.0)))
    problem = _problem(MultiplexNetwork(4, (CYCLE_3, dag)), all_to_all(2))
    seen = _recorded_solves(monkeypatch)
    res = weak_limit(problem)
    assert res.dominating_set == (1,)
    assert res.layer_data.spectral_radii[1] == 0.0
    # the cycle layer's right and left solves, nothing on the DAG layer
    cycle = problem.layer_matrices[0]
    assert len(seen) == 2 and all(op is cycle for op in seen)


def test_layer_gap_guard_rejects_a_tied_layer_that_dominates():
    cycle = LayerGraph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0)))
    problem = _problem(MultiplexNetwork(4, (cycle, TWO_TWO_CYCLES)), all_to_all(2))
    assert layer_spectral_radii(problem) == pytest.approx([1.0, 1.0], abs=1e-10)
    with pytest.raises(DegenerateLayerEigenvalueError, match="layer 2"):
        layer_eigendata(problem)
    with pytest.raises(DegenerateLayerEigenvalueError, match="layer 2"):
        weak_limit(problem)


def test_weak_limit_pagerank_dominating_set_is_everything():
    for seed in (3, 4, 5):
        net, inter = random_instance(seed, kind=PageRank())
        res = weak_limit(_problem(net, inter, kind=PageRank()))
        assert res.dominating_set == tuple(range(1, net.n_layers + 1))
        # X = diag(S)^-1 A~ diag(S) for column-stochastic layers, so its
        # dominant eigenvalue equals the interlayer one
        lam_inter, _ = dense_dominant_eigenpair(inter.values)
        assert res.lambda1 == pytest.approx(lam_inter, rel=1e-8)
        assert res.alpha.min() > 0 and res.beta.min() > 0
        assert np.linalg.norm(res.alpha) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(res.beta) == pytest.approx(1.0, abs=1e-12)


def test_weak_limit_x_matches_dense_oracle_formula():
    net, inter = random_instance(8, kind=PageRank())
    res = weak_limit(_problem(net, inter, kind=PageRank()))
    t = net.n_layers
    rights, lefts = [], []
    for g in net.layers:
        dense = dense_layer_matrix(g, PageRank())
        _, v = dense_dominant_eigenpair(dense)
        _, u = dense_dominant_eigenpair(dense.T)
        rights.append(v)
        lefts.append(u)
    expected = np.zeros((t, t))
    for a in range(t):
        for b in range(t):
            expected[a, b] = (
                inter.values[a, b] * (lefts[a] @ rights[b]) / (lefts[a] @ rights[a])
            )
    assert np.abs(res.X - expected).max() <= 1e-8


def test_weak_limit_symmetric_identical_layers_gives_interlayer_matrix():
    net = MultiplexNetwork(4, (PAW, PAW))
    inter = InterlayerMatrix(np.array([[0.0, 0.7], [0.7, 0.0]]))
    res = weak_limit(_problem(net, inter))
    assert res.dominating_set == (1, 2)
    assert np.abs(res.X - inter.values).max() <= 1e-12


@pytest.mark.parametrize("delta, dominating", [(1e-12, (1, 2)), (1e-6, (2,))])
def test_weak_limit_ties_radii_within_the_one_relative_tolerance(delta, dominating):
    # radii 1 and 1 + delta: a gap of 1e-12 is round-off at REL_TOL_DOMINATING, 1e-6 is not
    weights = (1.0, 1.0 + delta)
    net = MultiplexNetwork(2, tuple(LayerGraph(2, ((1, 2, w), (2, 1, w))) for w in weights))
    res = weak_limit(_problem(net, all_to_all(2)))
    assert res.dominating_set == dominating
    assert limits.dominating_layers(res.layer_data.spectral_radii).tolist() == [
        t - 1 for t in dominating]


def test_weak_limit_localization_onto_dominating_layer():
    lonely = LayerGraph(3, ((1, 2, 1.0), (2, 1, 1.0)))
    net = MultiplexNetwork(3, (TRIANGLE, lonely))
    inter = all_to_all(2)
    res = weak_limit(_problem(net, inter))
    assert res.dominating_set == (1,)
    assert res.tableau.zero_mass_layers == (2,)
    assert np.allclose(res.tableau.W[:, 0], 1 / math.sqrt(3), atol=1e-9)

    op = SupraOperator(_problem(net, inter), 1e-8)
    pair = dominant_eigenpair(op, tol=1e-12)
    tab = tableau_from_vector(pair.vector, 3, 2, pair.eigenvalue, 1e-8)
    assert cosine(tab.W.flatten(), res.tableau.W.flatten()) >= 1 - 1e-8
    assert float(np.sum(tab.W[:, 0] ** 2)) >= 1 - 1e-8


def test_weak_limit_matches_engine_at_small_omega():
    for seed in (60, 61, 62):
        net, inter = random_instance(seed, kind=Eigenvector(), min_radius_gap=2e-2)
        res = weak_limit(_problem(net, inter))
        op = SupraOperator(_problem(net, inter), 1e-6)
        pair = dominant_eigenpair(op, tol=1e-11)
        assert cosine(pair.vector, res.tableau.W.flatten(order="F")) >= 1 - 1e-4


def test_strong_limit_all_to_all_is_layer_mean():
    net, _ = random_instance(12, kind=Eigenvector())
    inter = all_to_all(net.n_layers)
    res = strong_limit(_problem(net, inter))
    mean = sum(dense_layer_matrix(g, Eigenvector()) for g in net.layers) / net.n_layers
    assert np.abs(res.X_tilde - mean).max() <= 1e-12
    assert res.mu1 == pytest.approx(net.n_layers, rel=1e-10)
    assert np.abs(res.v_tilde - 1 / math.sqrt(net.n_layers)).max() <= 1e-10


def test_strong_limit_rank_one_weights():
    net, _ = random_instance(13, kind=Eigenvector(), t_lo=3, t_hi=3)
    w = np.array([2.0, 1.0, 2.0])
    w = w / np.linalg.norm(w)
    inter = InterlayerMatrix(np.outer(w, w))
    res = strong_limit(_problem(net, inter))
    expected = sum(
        float(w[t] ** 2) * dense_layer_matrix(g, Eigenvector())
        for t, g in enumerate(net.layers)
    )
    assert np.abs(res.X_tilde - expected).max() <= 1e-10
    assert res.mu1 == pytest.approx(1.0, abs=1e-10)


def test_strong_limit_chain_weights_are_sine_squared():
    net, _ = random_instance(14, kind=Eigenvector(), t_lo=4, t_hi=4)
    t = net.n_layers
    res = strong_limit(_problem(net, chain_undirected(t)))
    s = np.sin(np.pi * np.arange(1, t + 1) / (t + 1)) ** 2
    weights = s / s.sum()
    expected = sum(
        float(weights[k]) * dense_layer_matrix(g, Eigenvector())
        for k, g in enumerate(net.layers)
    )
    assert np.abs(res.X_tilde - expected).max() <= 1e-8
    assert res.mu1 == pytest.approx(2 * math.cos(math.pi / (t + 1)), abs=1e-10)


def test_strong_limit_tableau_is_separable():
    net, inter = random_instance(15, kind=Eigenvector())
    res = strong_limit(_problem(net, inter))
    outer = np.outer(res.alpha_tilde, res.v_tilde)
    assert np.abs(res.tableau.W - outer / np.linalg.norm(outer)).max() <= 1e-12
    # conditional node centralities constant across layers
    spread = np.nanmax(res.tableau.Z, axis=1) - np.nanmin(res.tableau.Z, axis=1)
    assert spread.max() <= 1e-10


def test_strong_limit_degenerate_interlayer_rejected():
    net, _ = random_instance(16, kind=Eigenvector(), t_lo=2, t_hi=2)
    with pytest.raises(DegenerateInterlayerEigenvalueError):
        strong_limit(_problem(net, InterlayerMatrix(np.eye(2))))


def test_corollary_chain():
    net, _ = random_instance(17, kind=Eigenvector(), t_lo=4, t_hi=4)
    check = corollary_crosscheck(_problem(net, chain_undirected(net.n_layers)))
    assert check.shape == "chain"
    assert check.mu1_discrepancy <= 1e-10
    assert check.x_max_discrepancy <= 1e-8


def test_corollary_all_to_all():
    net, _ = random_instance(18, kind=Eigenvector(), t_lo=4, t_hi=4)
    check = corollary_crosscheck(_problem(net, all_to_all(4)))
    assert check.shape == "all_to_all"
    assert check.mu1_closed_form == 4.0
    assert check.mu1_discrepancy <= 1e-9
    assert check.x_max_discrepancy <= 1e-12


def test_corollary_rank_one_requires_unit_norm():
    net, _ = random_instance(19, kind=Eigenvector(), t_lo=2, t_hi=2)
    w = np.array([2.0, 1.0])
    with pytest.raises(NotApplicableError):
        corollary_crosscheck(_problem(net, InterlayerMatrix(np.outer(w, w))))
    w = w / np.linalg.norm(w)
    check = corollary_crosscheck(_problem(net, InterlayerMatrix(np.outer(w, w))))
    assert check.shape == "rank_one"
    assert check.mu1_discrepancy <= 1e-10
    assert check.x_max_discrepancy <= 1e-10


def test_corollary_not_applicable_for_generic_coupling():
    net, _ = random_instance(20, kind=Eigenvector(), t_lo=2, t_hi=2)
    with pytest.raises(NotApplicableError):
        corollary_crosscheck(_problem(net, InterlayerMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))))


@pytest.mark.parametrize("max_iter", [limits.SOLVE_MAX_ITER, 1],
                         ids=["default_budget", "max_iter_1"])
def test_strong_limit_rejects_degenerate_aggregate_before_iterating(max_iter, monkeypatch):
    # the aggregate of one DAG layer is nilpotent: eigenvalue 0, twice
    net = MultiplexNetwork(2, (LayerGraph(2, ((1, 2, 1.0),)),))
    problem = _problem(net, all_to_all(1))
    monkeypatch.setattr(limits, "SOLVE_MAX_ITER", max_iter)
    with pytest.raises(LimitPreconditionError) as err:
        strong_limit(problem)
    assert str(err.value) == (
        "strong-limit aggregate: dominant eigenvalue 0 is not well separated "
        "(second magnitude 0)"
    )
    with pytest.raises(DegenerateLayerEigenvalueError) as err:
        weak_limit(problem)
    assert str(err.value) == (
        "layer 1: dominant eigenvalue 0 is not well separated (second magnitude 0)"
    )


def _ring(n, step):
    return LayerGraph(n, tuple((i, (i - 1 + step) % n + 1, 1.0) for i in range(1, n + 1)))


def test_strong_limit_and_corollary_memory_is_linear_in_n():
    # one dense 5000 x 5000 float array alone would take 200 MB
    n = 5000
    problem = _problem(MultiplexNetwork(n, (_ring(n, 1), _ring(n, 2))), chain_undirected(2))
    tracemalloc.start()
    try:
        res = strong_limit(problem)
        check = corollary_crosscheck(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert res.x_eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert check.shape == "chain" and check.x_max_discrepancy <= 1e-12


SHAPES = {
    "chain": chain_undirected(3),
    "all_to_all": all_to_all(3),
    "rank_one": InterlayerMatrix(np.outer([2.0, 1.0, 2.0], [2.0, 1.0, 2.0]) / 9.0),
}


@pytest.mark.parametrize("kind", [Eigenvector(), PageRank()], ids=["eigenvector", "pagerank"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_corollary_x_discrepancy_matches_dense_difference(kind, shape):
    net, _ = random_instance(21, kind=kind, t_lo=3, t_hi=3)
    problem = _problem(net, SHAPES[shape], kind=kind)
    res = strong_limit(problem)
    check = corollary_crosscheck(problem)
    assert check.shape == shape
    dense = np.abs(res.X_tilde - sum(
        float(w) * dense_layer_matrix(g, kind)
        for w, g in zip(check.weights_closed_form, net.layers)
    )).max()
    assert abs(check.x_max_discrepancy - dense) <= 1e-13 * np.abs(res.X_tilde).max()


@pytest.mark.parametrize("kind", [Eigenvector(), PageRank(sigma=0.2)], ids=["eigenvector", "pagerank"])
@pytest.mark.parametrize("seed", range(6))
def test_max_abs_entry_of_signed_weighted_sum_matches_dense(kind, seed):
    # signed weights: stored entries and rank-one terms can cancel, so the
    # largest |entry| may sit at a structural zero of the sparse part
    net, _ = random_instance(30 + seed, kind=kind, t_lo=3, t_hi=3)
    weights = np.random.default_rng(seed).uniform(-1.0, 1.0, net.n_layers)
    mats = tuple(build_centrality_matrix(g, kind) for g in net.layers)
    dense = sum(float(w) * dense_layer_matrix(g, kind) for w, g in zip(weights, net.layers))
    got = LayerCentralityMatrix.weighted_sum(mats, weights).max_abs_entry()
    assert got == pytest.approx(np.abs(dense).max(), rel=1e-13)


def test_max_abs_entry_reads_rank_one_term_at_structural_zeros():
    # uniform term 0.8 / 2 = 0.4: stored -0.5 + 0.4 = -0.1, structural zeros 0.4
    mat = LayerCentralityMatrix(
        n=2, sparse=sparse.csr_matrix(np.array([[-0.5, 0.0], [0.0, 0.0]])), teleport_coeff=0.8,
    )
    assert mat.max_abs_entry() == np.abs(mat.to_dense()).max() == 0.4
