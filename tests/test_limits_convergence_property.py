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

The eigenvalue expands the same way: lambda(omega) = lambda0 + omega lambda1
+ O(omega^2) towards the weak limit (lambda0 the largest layer radius,
lambda1 the dominant eigenvalue of the weak limit's X), and lambda(omega) /
omega = mu1 + O(1/omega) towards the strong limit.  So for omega = 10^-k
and 10^k, k = 1..5, the terms |(lambda(omega) - lambda0) / omega - lambda1|
and |lambda(omega) / omega - mu1| shrink strictly (0.03 to 1.2 at k = 1 on the
eigenvector instances, about 10 times smaller per decade).  For PageRank
lambda(omega) = 1 + omega mu1 holds exactly (every layer is column
stochastic), so the strong term is exactly 1 / omega, and the weak term is
the eigenvalue's solver error divided by omega, which grows as omega
shrinks; it is bounded by an absolute floor instead.

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
# |(lambda(omega) - 1) / omega - lambda1| for PageRank at omega = 1e-1..1e-5:
# 2.6e-8 at most measured (an eigenvalue error of 2.6e-13, over omega)
PAGERANK_WEAK_FLOOR = 1e-7
_kinds = st.sampled_from([Eigenvector(), PageRank()])


def _tableaus(net, kind, inter, grid) -> list:
    result = sweep(SupraProblem(net, kind, inter), grid, tol=1e-12)
    assert not result.failures
    return result.tableaus


def _distances(tableaus, W_limit) -> np.ndarray:
    return np.array([np.linalg.norm(tab.W - W_limit) for tab in tableaus])


def _factors(distances: np.ndarray) -> np.ndarray:
    factors = distances[1:] / distances[:-1]
    assert np.all(factors < 1.0), factors
    return factors


def _shrinks(terms: np.ndarray) -> bool:
    return bool(np.all(terms[1:] < terms[:-1]))


def _first_order(factors: np.ndarray) -> bool:
    return bool(np.all((0.05 <= factors) & (factors <= 0.2)))


@_settings
@given(st.integers(0, 10_000), _kinds)
def test_tableau_converges_to_both_limits_at_first_order(seed, kind):
    if isinstance(kind, Eigenvector):
        net, inter = random_instance(seed, kind=kind, min_radius_gap=1e-2)
    else:
        net, inter = random_instance(seed, kind=kind)
    problem = SupraProblem(network=net, kind=kind, interlayer=inter)
    if isinstance(kind, Eigenvector):
        top, second = np.sort(layer_spectral_radii(problem))[:-3:-1]
        gap = top - second
    else:
        gap = 1.0 - kind.sigma

    weak_grid = log_grid(-6, -1, 1)
    weak_omegas = weak_grid.values[::-1]  # omega = 1e-1, ..., 1e-6
    weak_limit_ = weak_limit(problem)
    tableaus = _tableaus(net, kind, inter, weak_grid)[::-1]
    weak = _factors(_distances(tableaus, weak_limit_.tableau.W))
    assert _first_order(weak[weak_omegas[:-1] <= gap]), (weak, gap)
    lam = np.array([tab.lambda_max for tab in tableaus])[:5]
    weak_term = np.abs((lam - weak_limit_.tableau.lambda_max) / weak_omegas[:5]
                       - weak_limit_.lambda1)
    if isinstance(kind, Eigenvector):
        assert _shrinks(weak_term), weak_term
    else:
        assert np.all(weak_term <= PAGERANK_WEAK_FLOOR), weak_term

    strong_grid = log_grid(1, 5, 1)
    strong_limit_ = strong_limit(problem)
    tableaus = _tableaus(net, kind, inter, strong_grid)
    strong = _factors(_distances(tableaus, strong_limit_.tableau.W))
    assert _first_order(strong), strong
    lam = np.array([tab.lambda_max for tab in tableaus])
    strong_term = np.abs(lam / strong_grid.values - strong_limit_.mu1)
    assert _shrinks(strong_term), strong_term
