"""Every eigensolve is free of the problem's scale.

Multiplying every layer weight by 2**j multiplies an eigenvector layer's
matrix, and with omega times 2**j the coupled operator, by 2**j exactly,
and leaves a PageRank layer's matrix as it is.  The coupled solve and both
coupling limits must then return the unscaled vectors, with the eigenvalue
times 2**j (eigenvector) or unchanged (PageRank), for j anywhere in
[-1000, 1000]; pytest's filterwarnings turns a RuntimeWarning on the way
into a failure.  Each layer holds a directed cycle through every node, so
every layer and the layer sum are irreducible.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supracentrality import (
    Eigenvector,
    LayerGraph,
    MultiplexNetwork,
    PageRank,
    SupraOperator,
    SupraProblem,
    dominant_eigenpair,
    strong_limit,
    weak_limit,
)
from supracentrality.interlayer import all_to_all

_WEIGHT = st.sampled_from([0.5, 1.0, 2.0])


@st.composite
def _instances(draw):
    n = draw(st.integers(2, 4))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        edges = {(i, i % n + 1): draw(_WEIGHT) for i in range(1, n + 1)}
        for i, j in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=4)):
            edges.setdefault((i, j), draw(_WEIGHT))
        layers.append(sorted((i, j, w) for (i, j), w in edges.items()))
    kind = draw(st.sampled_from([Eigenvector(), PageRank()]))
    return n, layers, kind, draw(_WEIGHT)


def _solves(n, layers, kind, omega, scale):
    net = MultiplexNetwork(n, tuple(LayerGraph(n, tuple((i, j, w * scale) for i, j, w in layer))
                                    for layer in layers))
    problem = SupraProblem(net, kind, all_to_all(len(layers), include_self=True))
    pair = dominant_eigenpair(SupraOperator(problem, omega), tol=1e-12)
    weak, strong = weak_limit(problem), strong_limit(problem)
    return ((pair.vector, pair.eigenvalue), (weak.tableau.W, weak.tableau.lambda_max),
            (strong.tableau.W, strong.x_eigenvalue))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(instance=_instances(), j=st.integers(-1000, 1000))
def test_weights_times_a_power_of_two_solve_to_the_unscaled_vectors(instance, j):
    n, layers, kind, omega = instance
    factor = 2.0 ** j if isinstance(kind, Eigenvector) else 1.0
    unit = _solves(n, layers, kind, omega, 1.0)
    scaled = _solves(n, layers, kind, omega * factor, 2.0 ** j)
    for (vector, value), (vector_j, value_j) in zip(unit, scaled):
        assert np.allclose(vector_j, vector, rtol=0, atol=1e-9)
        assert value_j == pytest.approx(value * factor, rel=1e-9)
