"""The coupled tableau converges to the closed-form coupling limits.

The paper's expansions are first order in omega (weak coupling) and in
1/omega (strong coupling), so the distance ||W(omega) - W_limit||_F shrinks
strictly, by about a factor 10 per decade: from omega = 1e-1 down to 1e-6
towards the weak limit, and from 1e1 up to 1e5 towards the strong limit.
Strong-coupling factors must lie in [0.05, 0.2] at every decade.

A weak-coupling decade is first order once omega is below the gap that
separates the limit's eigenvalue from the rest of the layer spectra.  For
the eigenvector kind that is at most the gap between the two largest layer
spectral radii: ``random_instance(94, kind=Eigenvector(), min_radius_gap=1e-2)``
has a radius gap of 0.064, and its distance shrank by 0.305 in the decade
from omega = 0.1 and by 0.100-0.117 in each decade after it.  Every PageRank
layer has radius 1 and every other eigenvalue of modulus at most sigma
(Haveliwala and Kamvar 2003), so the gap is 1 - sigma.  Weak-coupling factors
must lie in [0.05, 0.2] for every decade that starts at or below that gap.

Solves run at tol=1e-12, far below the smallest distance measured (about
1e-7).
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from supracentrality import (
    Eigenvector,
    PageRank,
    SupraProblem,
    layer_spectral_radii,
    log_grid,
    strong_limit,
    sweep,
    weak_limit,
)

from _oracles import random_instance

_settings = settings(max_examples=12, derandomize=True, deadline=None)
_kinds = st.sampled_from([Eigenvector(), PageRank()])


def _distances(net, kind, inter, grid, W_limit) -> np.ndarray:
    result = sweep(net, kind, inter, grid, tol=1e-12)
    assert not result.failures
    return np.array([np.linalg.norm(tab.W - W_limit) for tab in result.tableaus])


def _factors(distances: np.ndarray) -> np.ndarray:
    factors = distances[1:] / distances[:-1]
    assert np.all(factors < 1.0), factors
    return factors


def _first_order(factors: np.ndarray) -> bool:
    return bool(np.all((0.05 <= factors) & (factors <= 0.2)))


@_settings
@given(st.integers(0, 10_000), _kinds)
def test_tableau_converges_to_both_limits_at_first_order(seed, kind):
    if isinstance(kind, Eigenvector):
        net, inter = random_instance(seed, kind=kind, min_radius_gap=1e-2)
    else:
        net, inter = random_instance(seed, kind=kind)
    problem = SupraProblem(network=net, kind=kind, interlayer=inter, omega=1.0)
    if isinstance(kind, Eigenvector):
        top, second = np.sort(layer_spectral_radii(problem))[:-3:-1]
        gap = top - second
    else:
        gap = 1.0 - kind.sigma

    weak_grid = log_grid(-6, -1, 1)
    weak = _factors(_distances(net, kind, inter, weak_grid, weak_limit(problem).tableau.W)[::-1])
    starts = weak_grid.values[::-1][:-1]  # omega = 1e-1, ..., 1e-5
    assert _first_order(weak[starts <= gap]), (weak, gap)

    strong_grid = log_grid(1, 5, 1)
    strong = _factors(_distances(net, kind, inter, strong_grid, strong_limit(problem).tableau.W))
    assert _first_order(strong), strong
