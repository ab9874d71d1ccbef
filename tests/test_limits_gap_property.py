"""The layer gap guard of layer_eigendata against the dense spectrum.

Each layer is a random block-triangular nonnegative matrix with its nodes
shuffled.  Every diagonal block is a single node (its diagonal entry is its
radius, 0 meaning no self-loop), a complete block r/k J (eigenvalues r and
0) or a directed k-cycle of weight r (eigenvalues r times the k-th roots of
unity), so the eigenvalues inside a block are well apart and the block
radii are exactly tied or at least a third apart.  The guard must reject a
layer exactly when the second largest magnitude of the shifted dense
spectrum reaches (1 - LAYER_GAP_FLOOR) times the largest.

At most two blocks attain the largest radius.  Three tied blocks joined in
a chain form a Jordan block of size 3, whose eigenvalue a dense solver
returns only to about machine epsilon ** (1/3), far above LAYER_GAP_FLOOR,
so the dense reference would wrongly accept them.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supracentrality import (
    DegenerateLayerEigenvalueError,
    Eigenvector,
    LayerGraph,
    MultiplexNetwork,
    SupraProblem,
    layer_eigendata,
)
from supracentrality.engine import default_shift
from supracentrality.interlayer import all_to_all
from supracentrality.limits import LAYER_GAP_FLOOR

_radius = st.sampled_from([1.0, 2.0, 3.0])
_block = st.one_of(
    st.tuples(st.just("node"), st.just(1), st.sampled_from([0.0, 1.0, 2.0, 3.0])),
    st.tuples(st.just("complete"), st.integers(2, 3), _radius),
    st.tuples(st.just("cycle"), st.integers(2, 4), _radius),
)


def _layer_matrix(blocks, couplings, perm) -> np.ndarray:
    n = sum(size for _, size, _ in blocks)
    m = np.zeros((n, n))
    start = 0
    starts = []
    for shape, size, r in blocks:
        idx = np.arange(start, start + size)
        if shape == "node":
            m[start, start] = r
        elif shape == "complete":
            m[np.ix_(idx, idx)] = r / size
        else:
            m[idx, np.roll(idx, -1)] = r
        starts.append(start)
        start += size
    # edges only from an earlier block to a later one keep m block triangular
    for a, b, w in couplings:
        lo, hi = sorted((a % len(blocks), b % len(blocks)))
        if lo != hi:
            m[starts[lo], starts[hi] + blocks[hi][1] - 1] = w
    p = np.asarray(perm)[:n].argsort()
    return m[np.ix_(p, p)]


def _top_tied_at_most_twice(blocks) -> bool:
    radii = [r for _, _, r in blocks]
    return radii.count(max(radii)) <= 2


def _dense_rejects(m: np.ndarray) -> bool:
    shift = default_shift(float(m.sum(axis=1).max()))
    mags = np.sort(np.abs(np.linalg.eigvals(m + shift * np.eye(m.shape[0]))))
    return bool(mags[-2] >= (1.0 - LAYER_GAP_FLOOR) * mags[-1])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(_block, min_size=1, max_size=4).filter(_top_tied_at_most_twice),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([0.5, 1.0])),
             max_size=5),
    st.permutations(range(16)),
)
def test_layer_gap_guard_matches_dense_spectrum(blocks, couplings, perm):
    m = _layer_matrix(blocks, couplings, perm)
    n = m.shape[0]
    if n < 2:
        return
    rows, cols = np.nonzero(m)
    layer = LayerGraph(n, tuple((int(i) + 1, int(j) + 1, float(m[i, j])) for i, j in zip(rows, cols)))
    problem = SupraProblem(MultiplexNetwork(n, (layer,)), Eigenvector(), all_to_all(1), 1.0)
    if _dense_rejects(m):
        with pytest.raises(DegenerateLayerEigenvalueError, match="layer 1"):
            layer_eigendata(problem)
    else:
        data = layer_eigendata(problem)
        assert data.spectral_radii[0] == pytest.approx(np.abs(np.linalg.eigvals(m)).max(),
                                                       abs=1e-9)
