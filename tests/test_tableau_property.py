"""The tableau's derived fields against their formulas on random nonnegative
vectors, some with all-zero layer or node slices, and its CSV round trip."""
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from supracentrality import LayerGraph, MultiplexNetwork, tableau_from_vector
from supracentrality.fileio import read_tableau_csv, write_tableau_csv

# entries stay far above the underflow range, so a slice is zero in W exactly
# when it is zero in the vector
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@st.composite
def _vectors(draw):
    """(vector, N, T, zero layers, zero nodes) with the zero slices 1-based."""
    n, t = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    v = np.array(draw(st.lists(_ENTRY, min_size=n * t, max_size=n * t)))
    blocks = v.reshape(t, n)  # a view: block t holds layer t+1
    for layer in draw(st.sets(st.integers(0, t - 1), max_size=t - 1)):
        blocks[layer, :] = 0.0
    for node in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        blocks[:, node] = 0.0
    if not v.any():
        v[draw(st.integers(0, n * t - 1))] = draw(st.floats(1e-3, 1e3))
    zero_layers = tuple(k + 1 for k in range(t) if not blocks[k, :].any())
    zero_nodes = tuple(i + 1 for i in range(n) if not blocks[:, i].any())
    return v, n, t, zero_layers, zero_nodes


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_vectors())
def test_derived_fields_follow_from_w(case):
    v, n, t, zero_layers, zero_nodes = case
    tab = tableau_from_vector(v, n, t, 1.0, 0.5)
    W = (v / np.linalg.norm(v)).reshape(t, n).T.copy()
    assert np.array_equal(tab.W, W) and tab.W.flags.c_contiguous
    x, x_hat = W.sum(axis=0), W.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        Z, Z_hat = W / x[np.newaxis, :], W / x_hat[:, np.newaxis]
    assert np.array_equal(tab.x, x) and np.array_equal(tab.mlc, x)
    assert np.array_equal(tab.x_hat, x_hat) and np.array_equal(tab.mnc, x_hat)
    assert np.array_equal(tab.Z, Z, equal_nan=True)
    assert np.array_equal(tab.Z_hat, Z_hat, equal_nan=True)
    assert tab.zero_mass_layers == zero_layers and tab.zero_mass_nodes == zero_nodes
    layers = np.isin(np.arange(1, t + 1), zero_layers)
    nodes = np.isin(np.arange(1, n + 1), zero_nodes)
    assert np.isnan(tab.Z[:, layers]).all() and np.isnan(tab.Z_hat[nodes, :]).all()
    assert np.abs(tab.Z[:, ~layers].sum(axis=0) - 1.0).max(initial=0.0) <= 1e-12
    assert np.abs(tab.Z_hat[~nodes, :].sum(axis=1) - 1.0).max(initial=0.0) <= 1e-12


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_vectors())
def test_tableau_csv_round_trip_is_exact(case):
    v, n, t, _, _ = case
    tab = tableau_from_vector(v, n, t, 1.0, 0.5)
    net = MultiplexNetwork(n, tuple(LayerGraph(n, ()) for _ in range(t)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "joint.csv")
        write_tableau_csv(tab, net, path)
        _, _, W = read_tableau_csv(path)
    assert W.shape == (n, t) and np.array_equal(W, tab.W)
