import math

import numpy as np
import pytest

from supracentrality import (
    all_to_all,
    block_communities,
    chain_teleport,
    chain_undirected,
    from_triplets,
    strongly_connected,
)

from _oracles import dense_dominant_eigenpair


def test_all_to_all_examples():
    assert np.array_equal(all_to_all(1).values, [[1.0]])
    assert np.array_equal(all_to_all(3).values, np.ones((3, 3)))
    assert np.array_equal(all_to_all(3, include_self=False).values, np.ones((3, 3)) - np.eye(3))


def test_all_to_all_dominant_eigenpair_uniform():
    for t in (2, 4, 7):
        lam, vec = dense_dominant_eigenpair(all_to_all(t).values)
        assert lam == pytest.approx(t, abs=1e-10)
        assert np.abs(vec - 1.0 / math.sqrt(t)).max() <= 1e-10


def test_chain_examples():
    assert np.array_equal(chain_undirected(2).values, [[0, 1], [1, 0]])
    lam3, _ = dense_dominant_eigenpair(chain_undirected(3).values)
    assert lam3 == pytest.approx(math.sqrt(2), abs=1e-10)
    with pytest.raises(ValueError):
        chain_undirected(1)


def test_chain_dominant_eigenvalue_closed_form():
    for t in range(2, 13):
        lam, _ = dense_dominant_eigenpair(chain_undirected(t).values)
        assert lam == pytest.approx(2 * math.cos(math.pi / (t + 1)), abs=1e-10)
    lam6, _ = dense_dominant_eigenpair(chain_undirected(6).values)
    assert lam6 == pytest.approx(1.8019377358048383, abs=1e-10)


def test_chain_teleport_literal_form():
    m = chain_teleport(2, 0.5)
    assert np.array_equal(m.values, [[0.5, 1.0], [0.5, 0.5]])


def test_chain_teleport_connectivity():
    for t in (2, 3, 5):
        assert strongly_connected(chain_teleport(t, 0.01).values)
    assert not strongly_connected(chain_teleport(3, 0.0).values)


def test_chain_teleport_zero_diagonal_flag():
    m = chain_teleport(3, 0.25, zero_diagonal=True)
    assert np.all(np.diag(m.values) == 0.0)
    assert m.values[2, 0] == 0.25 and m.values[0, 1] == 1.0


def test_block_communities_pedagogical_pattern():
    m = block_communities(6, (3, 3), 1.0, 0.01).values
    assert m[2, 3] == 0.01 and m[3, 2] == 0.01
    # all-to-all inside each block, nothing else across
    assert m[0, 1] == 1.0 and m[0, 2] == 1.0 and m[3, 5] == 1.0
    assert m[0, 3] == 0.0 and m[1, 4] == 0.0 and m[2, 4] == 0.0
    assert np.all(np.diag(m) == 0.0)
    assert np.array_equal(m, m.T)


def test_block_communities_degenerate_single_block():
    m = block_communities(4, (4,), 1.0, 0.5)
    assert np.array_equal(m.values, all_to_all(4, include_self=False).values)


def test_block_communities_equal_weights_matches_flat_coupling():
    m = block_communities(6, (3, 3), 1.0, 1.0).values
    assert m[2, 3] == 1.0 and m[3, 2] == 1.0


def test_block_communities_guards():
    with pytest.raises(ValueError):
        block_communities(5, (3, 3), 1.0, 1.0)
    # a NaN intra weight on 1-layer blocks lands only on the zeroed diagonal
    for intra, inter in [(-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0)]:
        with pytest.raises(ValueError, match="^weights must be finite and nonnegative$"):
            block_communities(2, (1, 1), intra, inter)


def test_from_triplets():
    assert np.array_equal(from_triplets(2, []).values, np.zeros((2, 2)))
    m = from_triplets(2, [(1, 2, 1.0), (2, 1, 1.0)])
    assert np.array_equal(m.values, chain_undirected(2).values)


def test_from_triplets_errors():
    with pytest.raises(ValueError):
        from_triplets(2, [(1, 2, 1.0), (1, 2, 2.0)])
    with pytest.raises(ValueError):
        from_triplets(2, [(1, 3, 1.0)])
    with pytest.raises(ValueError):
        from_triplets(2, [(1, 2, -1.0)])


def test_builders_entries_nonnegative():
    builders = [
        all_to_all(4).values,
        chain_undirected(5).values,
        chain_teleport(4, 0.1).values,
        block_communities(5, (2, 3), 0.7, 0.2).values,
    ]
    for values in builders:
        assert values.min() >= 0
        assert values.shape[0] == values.shape[1]
