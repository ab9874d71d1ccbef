"""Closed-form weak- and strong-coupling limits of the coupled eigenproblem.

As the coupling strength tends to 0+ the layers decouple: the dominant
eigenvector concentrates on the set of layers whose centrality matrices
share the largest spectral radius, mixed by the dominant eigenpair of a
small auxiliary matrix X built from the interlayer weights and the layers'
left/right eigenvectors.  As the coupling tends to infinity the layers
aggregate: the eigenvector becomes separable, node weights solving the
dominant eigenproblem of an aggregate matrix that averages the layer
matrices with weights from the interlayer matrix's own dominant eigenpair.

Both solvers are independent of the iterative engine's path through the
full coupled operator, so they double as cross-checks for it.  N x N
matrices (each layer, the aggregate) go through one gap-guarded power
iteration, ``_perron_pairs``; T x T ones (interlayer, X) through one dense
``eig``, ``_dense_perron``.  No dense N x N array is built unless
``StrongLimitResult.X_tilde`` is read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .centrality import LayerCentralityMatrix
from .engine import (
    NonConvergenceError,
    _fix_sign,
    default_shift,
    shifted_power_iteration,
    tableau_from_vector,
)
from .graph import layer_sum_components, strongly_connected
from .interlayer import all_to_all, chain_undirected
from .types import CentralityTableau, SupraProblem

__all__ = [
    "LimitPreconditionError",
    "DegenerateLayerEigenvalueError",
    "DegenerateInterlayerEigenvalueError",
    "ReducibleDominatingSetError",
    "NotApplicableError",
    "LayerEigendata",
    "WeakLimitResult",
    "StrongLimitResult",
    "CorollaryCheck",
    "layer_eigendata",
    "layer_spectral_radii",
    "weak_limit",
    "strong_limit",
    "corollary_crosscheck",
]

# Relative eigen-gap below which a dominant eigenvalue is treated as degenerate.
LAYER_GAP_FLOOR = 1e-6
INTERLAYER_GAP_FLOOR = 1e-8
DENSE_CLAMP = 1e-12  # dense Perron vector entries in (-DENSE_CLAMP, 0) become 0


class LimitPreconditionError(RuntimeError):
    """A uniqueness precondition of a coupling limit fails: the limit is not defined."""


class DegenerateLayerEigenvalueError(LimitPreconditionError):
    """The dominant eigenvalue of a layer (``where`` = "layer t") or of the
    strong-limit aggregate is (numerically) not simple."""

    def __init__(self, where: str, radius: float, second: float):
        self.where = where
        super().__init__(
            f"{where}: dominant eigenvalue {radius:.6g} is not well separated "
            f"(second magnitude {second:.6g})"
        )


class DegenerateInterlayerEigenvalueError(LimitPreconditionError):
    """The interlayer matrix's dominant eigenvalue is not simple."""


class ReducibleDominatingSetError(LimitPreconditionError):
    """The interlayer matrix restricted to the dominating layers is not
    strongly connected, so the limit mixing weights are not unique."""


class NotApplicableError(ValueError):
    """The interlayer matrix matches none of the closed-form special shapes."""


@dataclass(frozen=True, eq=False)
class LayerEigendata:
    """Per-layer dominant eigendata: spectral radius and unit right/left vectors.

    ``right[t]`` and ``left[t]`` are the 0-indexed layer t+1 vectors;
    ``irreducible[t]`` flags whether that layer's centrality matrix is
    irreducible (vectors of non-irreducible layers need not be unique or
    positive).
    """

    spectral_radii: np.ndarray   # (T,)
    right: np.ndarray            # (T, N)
    left: np.ndarray             # (T, N)
    irreducible: tuple[bool, ...]

    @property
    def n_layers(self) -> int:
        return self.spectral_radii.shape[0]


@dataclass(frozen=True, eq=False)
class WeakLimitResult:
    """Zero-coupling limit: dominating layers, mixing weights, limiting tableau.

    ``dominating_set`` holds 1-based layer indices; ``alpha``/``beta`` are the
    right/left mixing weights over that set (unit Euclidean norm); ``lambda1``
    is the first-order eigenvalue correction (the dominant eigenvalue of the
    auxiliary matrix X).  The tableau's lambda_max is the zero-coupling
    eigenvalue itself, i.e. the largest layer spectral radius.
    """

    dominating_set: tuple[int, ...]
    lambda1: float
    alpha: np.ndarray
    beta: np.ndarray
    X: np.ndarray
    tableau: CentralityTableau
    layer_data: LayerEigendata


@dataclass(frozen=True, eq=False)
class StrongLimitResult:
    """Infinite-coupling limit: layer aggregation.

    ``mu1`` with ``v_tilde``/``u_tilde`` is the dominant eigendata of the
    interlayer matrix; ``aggregate`` is the node matrix X_tilde (weighted
    entrywise sum of the layer matrices, dense only through the ``X_tilde``
    property); ``alpha_tilde``/``beta_tilde`` are its dominant right/left
    eigenvectors and ``x_eigenvalue`` its computed dominant eigenvalue.  The
    two eigenvalues coincide only after the 1/omega rescaling of the coupled
    operator, so both are reported.  The limiting joint centralities are
    separable: W[i, t] is proportional to alpha_tilde[i] * v_tilde[t].
    """

    mu1: float
    v_tilde: np.ndarray
    u_tilde: np.ndarray
    aggregate: LayerCentralityMatrix
    alpha_tilde: np.ndarray
    beta_tilde: np.ndarray
    x_eigenvalue: float
    tableau: CentralityTableau

    @property
    def X_tilde(self) -> np.ndarray:
        """The aggregate as a dense N x N array (built on every access)."""
        return self.aggregate.to_dense()


def _block_radii(mat, count: int, labels: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Spectral radius of each strong component block of a layer: a single
    node's diagonal entry, else one shifted power iteration on the block."""
    rank_one = mat.teleport_coeff * mat.teleport if mat.teleport_coeff else 0.0
    diagonal = mat.sparse.diagonal() + rank_one
    sizes = np.bincount(labels, minlength=count)
    radii = np.zeros(count)
    radii[labels] = diagonal  # exact for single-node blocks, overwritten below
    order = np.argsort(labels, kind="stable")
    for block, end in zip(np.flatnonzero(sizes > 1), np.cumsum(sizes)[sizes > 1]):
        nodes = order[end - sizes[block]:end]
        sub = replace(mat, n=nodes.size, sparse=mat.sparse[nodes][:, nodes],
                      teleport=None if mat.teleport is None else mat.teleport[nodes])
        radii[block] = shifted_power_iteration(
            sub.apply, sub.n, shift=default_shift(sub.max_row_sum()), tol=tol, max_iter=max_iter
        ).eigenvalue
    return radii


def _perron_pairs(mat: LayerCentralityMatrix, where: str, tol: float, max_iter: int):
    """Whether ``mat`` is irreducible, and its right and left dominant
    eigenpairs by shifted power iteration.

    A reducible ``mat`` whose two largest strong component radii (plus the
    shift) lie within LAYER_GAP_FLOOR raises DegenerateLayerEigenvalueError
    before any iteration on the whole matrix (Perron-Frobenius and Rothblum
    1975).  Errors name ``where``.
    """
    count, labels = layer_sum_components((mat,))
    shift = default_shift(mat.max_row_sum())
    try:
        if count > 1:
            second, top = np.sort(_block_radii(mat, count, labels, tol, max_iter))[-2:]
            if second + shift >= (1.0 - LAYER_GAP_FLOOR) * (top + shift):
                raise DegenerateLayerEigenvalueError(where, top, second)
        right, left = [shifted_power_iteration(f, mat.n, shift=shift, tol=tol, max_iter=max_iter)
                       for f in (mat.apply, mat.apply_transpose)]
    except NonConvergenceError as err:
        context = f"{where}: {err.context}" if err.context else where
        raise NonConvergenceError(err.iterations, err.residual, context) from err
    return count == 1, right, left


def _dense_perron(a: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Spectrum of the small dense matrix ``a``, its eigenvalue of largest
    real part (the Perron root when ``a`` is nonnegative), and that
    eigenvalue's sign-fixed unit right and left eigenvectors."""
    eigs, left, right = scipy.linalg.eig(a, left=True)
    k = int(np.argmax(eigs.real))
    return (eigs, float(eigs[k].real),
            _fix_sign(right[:, k].real, DENSE_CLAMP), _fix_sign(left[:, k].real, DENSE_CLAMP))


def _weighted_sum(mats: tuple[LayerCentralityMatrix, ...], weights) -> LayerCentralityMatrix:
    """sum_t weights[t] * mats[t], the PageRank teleport terms folded into
    one rank-one term (coefficient 1, vector sum_t weights[t] c_t u_t)."""
    pairs = tuple(zip(weights, mats))
    teleports = [w * m.teleport_coeff * m.teleport for w, m in pairs if m.teleport_coeff]
    return LayerCentralityMatrix(
        n=mats[0].n, kind=mats[0].kind, sparse=sum(w * m.sparse for w, m in pairs),
        teleport_coeff=1.0 if teleports else 0.0, teleport=sum(teleports) if teleports else None,
    )


def _max_abs_entry(mat: LayerCentralityMatrix) -> float:
    """Largest |entry| of ``mat`` in O(nnz + N): every stored entry plus its
    row's rank-one term, and that term alone in rows with a structural zero.
    Needs duplicate-free CSR, as built layer matrices and their sums are."""
    row_term = mat.teleport_coeff * mat.teleport if mat.teleport_coeff else np.zeros(mat.n)
    counts = np.diff(mat.sparse.indptr)
    stored = np.abs(mat.sparse.data + np.repeat(row_term, counts))
    return float(max(stored.max(initial=0.0), np.abs(row_term[counts < mat.n]).max(initial=0.0)))


def layer_eigendata(
    problem: SupraProblem,
    *,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> LayerEigendata:
    """Dominant right/left eigenpair of every matrix in ``problem.layer_matrices``.

    Each layer goes through ``_perron_pairs``, the structural gap guard and
    the shifted power iteration that accepts the coupled engine's solves.
    Non-irreducible layers are flagged rather than rejected.  Near-degeneracy
    inside one irreducible block is not caught: it shows up as slow
    convergence.
    """
    solved = [
        _perron_pairs(mat, f"layer {t}", tol, max_iter)
        for t, mat in enumerate(problem.layer_matrices, start=1)
    ]
    return LayerEigendata(
        spectral_radii=np.array([right.eigenvalue for _, right, _ in solved]),
        right=np.array([right.vector for _, right, _ in solved]),
        left=np.array([left.vector for _, _, left in solved]),
        irreducible=tuple(flag for flag, _, _ in solved),
    )


def layer_spectral_radii(problem: SupraProblem) -> np.ndarray:
    """Spectral radius of every matrix in ``problem.layer_matrices``: the
    largest of its strong component block radii (the gap guard's block
    solves), with no left iteration and no gap required, so a tied dominant
    eigenvalue is no error."""
    radii = []
    for t, mat in enumerate(problem.layer_matrices, start=1):
        try:
            radii.append(_block_radii(mat, *layer_sum_components((mat,)), 1e-12, 100_000).max())
        except NonConvergenceError as err:
            context = f"layer {t}: {err.context}" if err.context else f"layer {t}"
            raise NonConvergenceError(err.iterations, err.residual, context) from err
    return np.array(radii)


def check_rel_tol_dominating(rel_tol_dominating: float) -> None:
    """Raise ValueError unless the dominating-set tolerance is finite and in [0, 1)."""
    if not 0.0 <= rel_tol_dominating < 1.0:
        raise ValueError(
            f"rel_tol_dominating must be finite and in [0, 1), got {rel_tol_dominating}"
        )


def weak_limit(
    problem: SupraProblem,
    rel_tol_dominating: float = 1e-9,
    *,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> WeakLimitResult:
    """Limit of the dominant eigenvector as the coupling strength tends to 0+.

    The dominating set collects the layers whose spectral radius is within
    ``rel_tol_dominating`` (relative) of the maximum; radii are exact ties
    mathematically, so the tolerance only absorbs solver round-off.  The
    mixing weights alpha (right) and beta (left) solve the dominant
    eigenproblem of X[a, b] = interlayer[ta, tb] * <u_ta, v_tb> / <u_ta, v_ta>
    over the dominating layers.  With a single dominating layer this reduces
    to localization: the limit vector is that layer's eigenvector.
    """
    check_rel_tol_dominating(rel_tol_dominating)
    net = problem.network
    data = layer_eigendata(problem, tol=tol, max_iter=max_iter)
    radii = data.spectral_radii
    lam0 = float(radii.max())
    dominating = np.flatnonzero(radii >= (1.0 - rel_tol_dominating) * lam0)
    tset = tuple(int(t) + 1 for t in dominating)

    atil = problem.interlayer.values
    m = len(dominating)
    X = np.zeros((m, m))
    for a, ta in enumerate(dominating):
        u_a = data.left[ta]
        denom = float(u_a @ data.right[ta])
        if denom <= 0:
            raise DegenerateLayerEigenvalueError(f"layer {int(ta) + 1}", radii[ta], radii[ta])
        for b, tb in enumerate(dominating):
            X[a, b] = atil[ta, tb] * float(u_a @ data.right[tb]) / denom
    if not strongly_connected(X):
        raise ReducibleDominatingSetError(
            f"interlayer coupling restricted to the dominating layers {tset} "
            "is not strongly connected; the limit mixing weights are not unique"
        )

    _, lambda1, alpha, beta = _dense_perron(X)

    W = np.zeros((net.n_nodes, net.n_layers))
    for a, ta in enumerate(dominating):
        W[:, ta] = alpha[a] * data.right[ta]
    vector = W.flatten(order="F")
    tableau = tableau_from_vector(vector, net.n_nodes, net.n_layers, lam0, 0.0)
    return WeakLimitResult(
        dominating_set=tset,
        lambda1=lambda1,
        alpha=alpha,
        beta=beta,
        X=X,
        tableau=tableau,
        layer_data=data,
    )


def _interlayer_weights(atil: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Dominant eigenvalue mu1 (required simple) and right/left eigenvectors
    of the interlayer matrix, and the aggregation weights u_t v_t / <u, v>."""
    eigs, mu1, v, u = _dense_perron(atil)
    near = np.abs(eigs - mu1) <= INTERLAYER_GAP_FLOOR * max(abs(mu1), 1.0)
    if int(near.sum()) > 1:
        raise DegenerateInterlayerEigenvalueError(
            f"top interlayer eigenvalue {mu1:.6g} has multiplicity "
            f"{int(near.sum())} within relative tolerance {INTERLAYER_GAP_FLOOR}"
        )
    denom = float(u @ v)
    if denom <= 0:
        raise DegenerateInterlayerEigenvalueError(
            "left/right interlayer eigenvectors are orthogonal; limit undefined"
        )
    return mu1, v, u, u * v / denom


def strong_limit(
    problem: SupraProblem,
    *,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> StrongLimitResult:
    """Limit of the dominant eigenvector as the coupling strength tends to infinity.

    After rescaling by 1/omega the coupled operator tends to the interlayer
    coupling alone, whose dominant eigenvalue mu1 (required simple, from one
    dense ``eig``) the rescaled eigenvalue approaches.  Node weights
    alpha_tilde solve the dominant eigenproblem of the aggregate matrix
    X_tilde = sum_t layer_t * v_tilde[t] * u_tilde[t] / <u_tilde, v_tilde>,
    a LayerCentralityMatrix that passes a layer's gap guard (the error names
    the strong-limit aggregate).  Its own dominant eigenvalue is reported
    alongside mu1: the two live on different scales of the original problem.
    """
    net = problem.network
    mu1, v_tilde, u_tilde, weights = _interlayer_weights(problem.interlayer.values)
    aggregate = _weighted_sum(problem.layer_matrices, weights)
    _, res_r, res_l = _perron_pairs(aggregate, "strong-limit aggregate", tol, max_iter)

    vector = np.outer(res_r.vector, v_tilde).flatten(order="F")
    tableau = tableau_from_vector(vector, net.n_nodes, net.n_layers, mu1, float("inf"))
    return StrongLimitResult(
        mu1=mu1,
        v_tilde=v_tilde,
        u_tilde=u_tilde,
        aggregate=aggregate,
        alpha_tilde=res_r.vector,
        beta_tilde=res_l.vector,
        x_eigenvalue=res_r.eigenvalue,
        tableau=tableau,
    )


@dataclass(frozen=True, eq=False)
class CorollaryCheck:
    """Comparison of the general strong-coupling path against a closed form.

    ``shape`` names the detected interlayer pattern (chain, all_to_all, or
    rank_one).  ``mu1_closed_form`` for the all-ones matrix is its dimension;
    the check reports the discrepancy instead of hard-coding assumptions
    into the solver.
    """

    shape: str
    mu1_computed: float
    mu1_closed_form: float
    mu1_discrepancy: float
    x_max_discrepancy: float
    weights_closed_form: np.ndarray


def _detect_shape(atil: np.ndarray) -> tuple[str, np.ndarray | None]:
    dim = atil.shape[0]
    if dim >= 2 and np.array_equal(atil, chain_undirected(dim).values):
        return "chain", None
    if np.array_equal(atil, all_to_all(dim).values):
        return "all_to_all", None
    if np.allclose(atil, atil.T, atol=1e-12):
        diag = np.diag(atil)
        if diag.min() >= 0:
            w = np.sqrt(diag)
            if np.allclose(np.outer(w, w), atil, atol=1e-12):
                if abs(float(w @ w) - 1.0) <= 1e-9:
                    return "rank_one", w
                raise NotApplicableError(
                    "rank-one coupling detected, but its generating vector is not "
                    "unit-norm; the closed form assumes a unit vector"
                )
    raise NotApplicableError("interlayer matrix matches no special closed-form shape")


def corollary_crosscheck(problem: SupraProblem) -> CorollaryCheck:
    """Evaluate the applicable closed form and compare with the general path.

    Chain coupling: dominant eigenvalue 2 cos(pi / (T + 1)) and aggregation
    weights proportional to sin^2(pi t / (T + 1)).  All-ones coupling: the
    aggregate matrix is the plain layer mean.  Unit-norm rank-one coupling
    w w^T: eigenvalue 1 and weights w_t^2.  Raises NotApplicableError for
    any other interlayer matrix, before anything is solved.  The general
    path is the strong limit's interlayer eigensolve; the aggregate itself
    is never solved.  ``x_max_discrepancy`` is the largest |entry| of
    sum_t (w_t - w'_t) * layer_t (general minus closed-form weights), read
    off the stored entries and rank-one terms in O(nnz + N).
    """
    atil = problem.interlayer.values
    dim = atil.shape[0]
    shape, w = _detect_shape(atil)
    mu1, _, _, weights_general = _interlayer_weights(atil)

    t_idx = np.arange(1, dim + 1)
    if shape == "chain":
        mu_formula = 2.0 * math.cos(math.pi / (dim + 1))
        s = np.sin(math.pi * t_idx / (dim + 1)) ** 2
        weights = s / s.sum()
    elif shape == "all_to_all":
        mu_formula = float(dim)
        weights = np.full(dim, 1.0 / dim)
    else:
        mu_formula = 1.0
        weights = w * w

    difference = _weighted_sum(problem.layer_matrices, weights_general - weights)
    return CorollaryCheck(
        shape=shape,
        mu1_computed=mu1,
        mu1_closed_form=mu_formula,
        mu1_discrepancy=abs(mu1 - mu_formula),
        x_max_discrepancy=_max_abs_entry(difference),
        weights_closed_form=weights,
    )
