"""Every eigensolve's operator owns its shift, and every shift follows one rule.

The rule is ``LayerCentralityMatrix.shift``: 0 for a matrix with the
positive uniform PageRank term (positive, so primitive), else
0.1 * (1 + max row sum).  The coupled operator takes the largest of its
layers' shifts.
"""
import numpy as np
import pytest

from supracentrality import (
    Authority,
    Eigenvector,
    Hub,
    LayerGraph,
    MultiplexNetwork,
    PageRank,
    SupraOperator,
    SupraProblem,
    dominant_eigenpair,
    layer_eigendata,
    strong_limit,
)
from supracentrality import limits
from supracentrality.interlayer import all_to_all

from _oracles import random_instance

KINDS = [Eigenvector(), Hub(), Authority(), PageRank()]
KIND_IDS = ["eigenvector", "hub", "authority", "pagerank"]


def _rule(mat) -> float:
    return 0.0 if mat.teleport_coeff > 0 else 0.1 * (1.0 + mat.max_row_sum())


def _problem(net, inter, kind):
    return SupraProblem(network=net, kind=kind, interlayer=inter)


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_layer_and_coupled_shifts_follow_the_rule(kind):
    net, inter = random_instance(12, kind=kind)
    op = SupraOperator(_problem(net, inter, kind), 1.0)
    for mat in op.layers:
        assert mat.dim == mat.n
        assert mat.shift == _rule(mat)
        if mat.shift == 0.0:
            assert mat.to_dense().min() > 0  # positive, so aperiodic unshifted
    assert op.shift == max(m.shift for m in op.layers)
    if isinstance(kind, PageRank):
        assert op.shift == 0.0
    else:  # bit-equal: rounding 0.1 * (1 + r) is monotone in r
        assert op.shift == 0.1 * (1.0 + max(m.max_row_sum() for m in op.layers)) > 0
    assert op.with_omega(7.0).shift == op.shift


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_strong_limit_aggregate_shift_follows_the_rule(kind):
    net, inter = random_instance(13, kind=kind)
    aggregate = strong_limit(_problem(net, inter, kind)).aggregate
    assert aggregate.shift == _rule(aggregate)
    assert (aggregate.shift == 0.0) == isinstance(kind, PageRank)


def _recording(monkeypatch) -> list:
    seen = []
    solve = limits.shifted_power_iteration

    def recording(op, *args, **kwargs):
        seen.append(op)
        return solve(op, *args, **kwargs)

    monkeypatch.setattr(limits, "shifted_power_iteration", recording)
    return seen


def test_block_radii_sub_blocks_and_whole_layers_pass_their_own_shift(monkeypatch):
    # two undirected triangles (radii 2 and 4) joined by one edge: two 3-node
    # strong components, each solved as its own sub-matrix, then the layer
    edges = [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (4, 5, 2.0), (4, 6, 2.0), (5, 6, 2.0)]
    entries = [(i, j, w) for i, j, w in edges] + [(j, i, w) for i, j, w in edges]
    layer = LayerGraph(6, tuple(sorted(entries + [(3, 4, 1.0)])))
    problem = _problem(MultiplexNetwork(6, (layer,)), all_to_all(1), Eigenvector())
    seen = _recording(monkeypatch)
    data = layer_eigendata(problem)
    assert data.spectral_radii[0] == pytest.approx(4.0, abs=1e-10)
    assert [op.dim for op in seen] == [3, 3, 6, 6]
    assert seen[2] is seen[3] is problem.layer_matrices[0]
    for op in seen:
        assert op.shift == _rule(op) > 0
    assert sorted(op.shift for op in seen[:2]) == [0.1 * (1.0 + 2.0), 0.1 * (1.0 + 4.0)]


def test_pagerank_block_solve_is_unshifted(monkeypatch):
    net, inter = random_instance(15, kind=PageRank())
    problem = _problem(net, inter, PageRank())
    seen = _recording(monkeypatch)
    limits.layer_spectral_radii(problem)
    # one block per PageRank layer: the whole matrix, with the uniform term
    assert [op.dim for op in seen] == [net.n_nodes] * net.n_layers
    assert all(op.shift == 0.0 and op.teleport_coeff > 0 for op in seen)


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_dominant_eigenpair_of_a_layer_matrix_matches_layer_eigendata(kind):
    tol = limits.SOLVE_TOL  # layer_eigendata's stopping rule
    net, inter = random_instance(14, kind=kind)
    problem = _problem(net, inter, kind)
    data = layer_eigendata(problem)
    pairs = [dominant_eigenpair(mat, tol=tol) for mat in problem.layer_matrices]
    for t, pair in enumerate(pairs):
        radius = data.spectral_radii[t]
        assert abs(pair.eigenvalue - radius) <= tol * radius
    for a, t in enumerate(data.dominating):
        # a vector's error is its residual over the gap: 9e-13 measured
        assert np.abs(pairs[t].vector - data.right[a]).max() <= 10 * tol
