import math
import tracemalloc

import numpy as np
import pytest

from supracentrality import (
    Eigenvector,
    InterlayerMatrix,
    LayerGraph,
    MultiplexNetwork,
    OmegaGrid,
    PageRank,
    correlate_with_degrees,
    detect_regimes,
    log_grid,
    pearson,
    rank_trajectory,
    strong_limit,
    SupraOperator,
    SupraProblem,
    check_preconditions,
    dominant_eigenpair,
    sweep,
    weak_limit,
)
from supracentrality.interlayer import all_to_all, block_communities
from supracentrality.sweeps import MAX_GRID_POINTS, _prominent_peaks

from _oracles import (
    blocks_instance,
    cosine,
    dense_supra_matrix,
    dense_symmetric_dominant,
    engine_ladder,
    ladder_omegas,
    random_instance,
    random_layer,
)

TRIANGLE = LayerGraph(
    3, tuple((i, j, 1.0) for i, j in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)])
)


def test_log_grid_reference():
    grid = log_grid(-2, 4, 0.2)
    assert len(grid) == 31
    assert grid.values[0] == pytest.approx(0.01, rel=1e-12)
    assert grid.values[-1] == pytest.approx(10_000, rel=1e-12)


def _loop_grid_exponents(exp_lo, exp_hi, step):
    # the open-ended loop log_grid counted its points with before
    exponents, k = [], 0
    while exp_lo + k * step <= exp_hi + 1e-12:
        exponents.append(exp_lo + k * step)
        k += 1
    return np.power(10.0, np.array(exponents))


@pytest.mark.parametrize("bounds", [(-2, 4, 0.2), (0, 1, 0.1), (-1, 1, 0.3), (0, 3, 1 / 3),
                                    (0.1, 0.7, 0.2), (0, 10_000 * 1e-3 - 1e-3, 1e-3)])
def test_log_grid_counts_its_points_as_the_loop_did(bounds):
    assert np.array_equal(log_grid(*bounds).values, _loop_grid_exponents(*bounds))


@pytest.mark.parametrize("bounds", [(0, 1, 1e-17), (0, 1e9, 1e-3), (0, 10_000 * 1e-3, 1e-3),
                                    (1e15, 1e15, 1e-10)])
def test_log_grid_refuses_too_many_points_at_once(bounds):
    with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
        log_grid(*bounds)


def test_log_grid_single_point_and_errors():
    assert np.allclose(log_grid(0, 0, 1).values, [1.0])
    with pytest.raises(ValueError):
        log_grid(1, 0, 1)
    with pytest.raises(ValueError):
        log_grid(0, 1, -0.5)


def test_single_point_sweep_has_no_sensitivities():
    net, inter = random_instance(40, kind=Eigenvector())
    res = sweep(SupraProblem(net, Eigenvector(), inter), log_grid(0, 0, 1))
    assert res.w_sensitivity.size == 0 and res.z_sensitivity.size == 0
    assert len(res.tableaus) == 1 and res.tableaus[0] is not None


def test_sweep_reports_the_preconditions_of_its_problem():
    passing = random_instance(40, kind=Eigenvector())
    # no edge 1 -> 2 in any layer: the layer sum is reducible
    failing = (MultiplexNetwork(2, (LayerGraph(2, ((2, 2, 0.5),)), LayerGraph(2, ((2, 1, 2.0),)),
                                    LayerGraph(2, ((1, 1, 2.0), (2, 2, 2.0))))),
               all_to_all(3, include_self=True))
    for (net, inter), holds in ((passing, True), (failing, False)):
        result = sweep(SupraProblem(net, Eigenvector(), inter), log_grid(-3, 0, 1))
        assert result.preconditions == check_preconditions(result.problem, result.grid.values[0])
        assert result.preconditions.both_ok is holds


def test_single_layer_sweep_is_flat():
    net = MultiplexNetwork(3, (TRIANGLE,))
    inter = InterlayerMatrix(np.array([[1.0]]))
    res = sweep(SupraProblem(net, Eigenvector(), inter), log_grid(-1, 2, 0.5), tol=1e-12)
    w0 = res.tableaus[0].W
    for tab in res.tableaus[1:]:
        assert np.abs(tab.W - w0).max() <= 1e-10
    assert np.nanmax(res.w_sensitivity) <= 1e-10
    assert np.nanmax(res.z_sensitivity) <= 1e-10


def test_sweep_holds_one_n_by_t_array_per_grid_point():
    # each layer a circulant: a ring plus chords of a layer-specific length and weight
    n, t = 3000, 3
    ring = np.arange(1, n + 1)
    layers = []
    for k in range(t):
        rows = np.concatenate([ring, ring % n + 1, ring, (ring + k + 1) % n + 1])
        cols = np.concatenate([ring % n + 1, ring, (ring + k + 1) % n + 1, ring])
        weights = np.repeat([1.0, 1.0, k + 1.0, k + 1.0], n)
        layers.append(LayerGraph.from_arrays(n, rows, cols, weights))
    net, grid = MultiplexNetwork(n, tuple(layers)), log_grid(-1, 1, 0.3)
    sweep(SupraProblem(net, Eigenvector(), all_to_all(t)), grid)  # builds the layers' cached CSR
    tracemalloc.start()
    try:
        result = sweep(SupraProblem(net, Eigenvector(), all_to_all(t)), grid)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not result.failures
    w_bytes = len(grid) * result.tableaus[0].W.nbytes
    # the margin covers the objects around the arrays and the two series
    assert held <= 1.5 * w_bytes + 64 * 1024, (held, w_bytes)


def test_warm_and_cold_sweeps_agree():
    # the warm-started sweep against a cold solve at each grid point
    net, inter = random_instance(41, kind=Eigenvector(), min_gap=5e-3)
    grid = log_grid(-2, 2, 0.5)
    warm = sweep(SupraProblem(net, Eigenvector(), inter), grid, tol=1e-11)
    assert not warm.failures
    for tab, omega in zip(warm.tableaus, grid.values):
        problem = SupraProblem(network=net, kind=Eigenvector(), interlayer=inter)
        cold = dominant_eigenpair(SupraOperator(problem, omega), tol=1e-11)
        assert cosine(tab.W.flatten(order="F"), cold.vector) >= 1 - 1e-8


def test_sweep_is_deterministic():
    net, inter = random_instance(42, kind=Eigenvector())
    grid = log_grid(-1, 1, 0.5)
    first = sweep(SupraProblem(net, Eigenvector(), inter), grid)
    second = sweep(SupraProblem(net, Eigenvector(), inter), grid)
    assert np.array_equal(first.w_sensitivity, second.w_sensitivity)
    assert np.array_equal(first.z_sensitivity, second.z_sensitivity)
    for a, b in zip(first.tableaus, second.tableaus):
        assert np.array_equal(a.W, b.W)


def test_detect_regimes_monotone_series():
    grid = log_grid(0, 2, 0.25)
    series = np.linspace(1.0, 2.0, len(grid) - 1)
    report = detect_regimes(series, grid)
    assert report.peaks == ()
    assert len(report.intervals) == 1
    assert report.intervals[0].first == 0 and report.intervals[0].last == len(grid) - 1


def test_detect_regimes_two_peaks():
    grid = log_grid(0, 2, 0.1)
    series = np.zeros(len(grid) - 1)
    series[5] = 1.0
    series[15] = 0.8
    report = detect_regimes(series, grid)
    assert report.peaks == (5, 15)
    assert len(report.intervals) == 3
    assert [(iv.first, iv.last) for iv in report.intervals] == [
        (0, 5),
        (6, 15),
        (16, len(grid) - 1),
    ]


def test_detect_regimes_tiles_grid():
    rng = np.random.default_rng(4)
    grid = log_grid(0, 3, 0.1)
    for _ in range(20):
        series = rng.random(len(grid) - 1)
        report = detect_regimes(series, grid)
        covered = []
        for iv in report.intervals:
            covered.extend(range(iv.first, iv.last + 1))
        assert covered == list(range(len(grid)))


def test_detect_regimes_prominence_floor_filters_wiggle():
    grid = log_grid(0, 2, 0.1)
    series = np.full(len(grid) - 1, 1.0)
    series[7] = 1.001  # 0.1% bump, below the 1% floor
    report = detect_regimes(series, grid)
    assert report.peaks == ()


@pytest.mark.parametrize(
    "series, peaks",
    [
        ([0, 1, 1, 1, 0], (2,)),  # a flat top reports its middle
        ([0, 1, 1, 0], (1,)),  # and the left middle of an even one
        ([0, 2, 1, 1], (1,)),
        ([0, 1, 2, 2], ()),  # a flat top touching the end is no peak
        ([0, 0, 0, 0], ()),
        ([1, 0, 1], ()),  # nor is an endpoint
    ],
)
def test_prominent_peaks_local_maxima(series, peaks):
    assert _prominent_peaks([float(v) for v in series], 0.0) == peaks


def test_detect_regimes_keeps_peak_whose_prominence_equals_the_floor():
    grid = log_grid(0, 0.5, 0.1)
    # prominence of index 1 is 1 - 0.5 = 0.5, exactly 0.25 of the maximum 2
    series = np.array([0.0, 1.0, 0.5, 2.0, 0.0])
    assert detect_regimes(series, grid, prominence_fraction=0.25).peaks == (1, 3)
    assert detect_regimes(series, grid, prominence_fraction=0.2501).peaks == (3,)


def test_detect_regimes_rejects_short_series():
    grid = log_grid(0, 1, 0.5)
    with pytest.raises(ValueError):
        detect_regimes(np.array([1.0, 2.0]), grid)


def test_two_block_instance_is_bimodal_and_flattens():
    rng = np.random.default_rng(0)
    layers = tuple(random_layer(rng, 4, density=0.55, with_cycle=True) for _ in range(6))
    net = MultiplexNetwork(4, layers)
    grid = log_grid(-2, 4, 0.2)
    weak_bridge = sweep(
        SupraProblem(net, Eigenvector(), block_communities(6, (3, 3), 1.0, 0.01)), grid,
        tol=1e-8
    )
    report = detect_regimes(weak_bridge.z_sensitivity, grid)
    assert len(report.peaks) >= 2
    strong_bridge = sweep(
        SupraProblem(net, Eigenvector(), block_communities(6, (3, 3), 1.0, 1.0)), grid,
        tol=1e-8
    )
    report_flat = detect_regimes(strong_bridge.z_sensitivity, grid)
    assert len(report_flat.peaks) <= len(report.peaks)


def test_rank_trajectory_single_node():
    net = MultiplexNetwork(1, (LayerGraph(1, ((1, 1, 1.0),)),) * 2)
    res = sweep(SupraProblem(net, Eigenvector(), all_to_all(2)), log_grid(0, 1, 0.5))
    ranks = rank_trajectory(res, 1)
    assert np.array_equal(ranks, np.ones_like(ranks))


def test_rank_trajectory_dominant_node_and_ties():
    # node 1 has the largest centrality in every layer; nodes 2 and 3 tie
    star = LayerGraph(
        3, tuple((i, j, 1.0) for i, j in [(1, 2), (2, 1), (1, 3), (3, 1)])
    )
    net = MultiplexNetwork(3, (star, star))
    res = sweep(SupraProblem(net, Eigenvector(), all_to_all(2)), log_grid(0, 0.5, 0.5))
    assert np.array_equal(rank_trajectory(res, 1), np.ones((2, 2), dtype=int))
    assert np.array_equal(rank_trajectory(res, 2), np.full((2, 2), 2))
    assert np.array_equal(rank_trajectory(res, 3), np.full((2, 2), 3))


def test_rank_trajectory_node_out_of_range():
    net, inter = random_instance(44, kind=Eigenvector())
    res = sweep(SupraProblem(net, Eigenvector(), inter), log_grid(0, 0, 1))
    with pytest.raises(ValueError):
        rank_trajectory(res, net.n_nodes + 1)


def test_correlation_flags_constant_degrees():
    net = MultiplexNetwork(3, (TRIANGLE,))
    inter = InterlayerMatrix(np.array([[1.0]]))
    res = sweep(SupraProblem(net, Eigenvector(), inter), log_grid(0, 0, 1))
    rows = correlate_with_degrees(res)
    assert rows[0].intralayer_constant
    assert math.isnan(rows[0].intralayer_vs_conditional)


def test_star_layers_total_degree_correlation_is_one_in_strong_limit():
    star = LayerGraph(
        4,
        tuple((i, j, 1.0) for i, j in [(1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1)]),
    )
    net = MultiplexNetwork(4, (star, star, star))
    problem = SupraProblem(
        network=net, kind=Eigenvector(), interlayer=all_to_all(3)
    )
    res = strong_limit(problem)
    totals = np.array([6.0, 2.0, 2.0, 2.0])
    z_sum = res.tableau.Z.sum(axis=1)
    assert pearson(totals, z_sum) == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(z_sum) == np.argmax(totals)


def test_pagerank_small_omega_correlation_matches_weak_limit():
    net, inter = random_instance(46, kind=PageRank())
    problem = SupraProblem(network=net, kind=PageRank(), interlayer=inter)
    weak = weak_limit(problem)
    # engine at omega = 1e-6 via a descending warm-start ladder
    _, tab = engine_ladder(
        net, PageRank(), inter, ladder_omegas(-2, -6, per_decade=2), tol=1e-8
    )
    from supracentrality import intralayer_degrees

    deg = intralayer_degrees(net).flatten(order="F")
    r_engine = pearson(deg, tab.Z.flatten(order="F"))
    r_limit = pearson(deg, weak.tableau.Z.flatten(order="F"))
    assert r_engine == pytest.approx(r_limit, abs=1e-3)


def test_grid_rejects_non_finite_values():
    nan, inf = float("nan"), float("inf")
    # without the check these exponents would grow the grid without end
    for lo, hi, step in [(nan, 1.0, 0.5), (0.0, inf, 1.0), (0.0, 1.0, nan)]:
        with pytest.raises(ValueError, match="finite"):
            log_grid(lo, hi, step)
    with pytest.raises(ValueError, match="finite"):
        OmegaGrid(np.array([1.0, nan]))


@pytest.mark.parametrize("seed", [1, 3])
def test_sweep_matches_the_dense_oracle_at_near_degenerate_points(seed):
    # vector error scales with residual over gap, and the relative gap of the
    # two-community instance falls to about 2e-4; the largest error measured
    # on seeds 0-4 is 3.4e-11 (2.2e-12 with ARPACK run to machine precision)
    net, inter = blocks_instance(seed)
    grid = log_grid(-2, 4, 0.2)
    result = sweep(SupraProblem(net, Eigenvector(), inter), grid)
    assert not result.failures
    for omega, tab in zip(grid.values, result.tableaus):
        _, vector = dense_symmetric_dominant(dense_supra_matrix(net, Eigenvector(), inter, omega))
        W = vector.reshape(net.n_layers, net.n_nodes).T
        assert np.abs(tab.W - W).max() <= 1e-9, omega
