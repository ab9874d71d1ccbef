"""Closed-form weak- and strong-coupling limits of the coupled eigenproblem.

As the coupling strength tends to 0+ the layers decouple: the dominant
eigenvector concentrates on the set of layers whose centrality matrices
share the largest spectral radius, mixed by the dominant eigenpair of a
small auxiliary matrix X built from the interlayer weights and the layers'
left/right eigenvectors.  As the coupling tends to infinity the layers
aggregate: the eigenvector becomes separable, node weights solving the
dominant eigenproblem of an aggregate matrix that averages the layer
matrices with weights from the interlayer matrix's own dominant eigenpair.

Every function here takes the problem alone, with no coupling strength
and no tolerance: the limits are the two ends of its family, and the
dominating set ties radii at one rule, ``REL_TOL_DOMINATING``.  Both
solvers are independent of the iterative engine's path through the full
coupled operator, so they double as cross-checks for it.  Each N x N
matrix (a layer, the aggregate) is solved once per side, through one power
iteration, ``_solve``, at one fixed rule (``SOLVE_TOL``, ``SOLVE_MAX_ITER``):
``_radius`` gives every layer's spectral radius, and only the matrices
whose vectors are read (the dominating layers, the aggregate) go on to the
gap guard and the left solve, ``_perron_pairs``.  T x T matrices
(interlayer, X) go through one dense ``eig``, ``engine.dense_perron``.  No
dense N x N array is built unless ``StrongLimitResult.X_tilde`` is read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .centrality import LayerCentralityMatrix
from .engine import (DEFAULT_MAX_ITER, EigenpairResult, NonConvergenceError, dense_perron,
                     shifted_power_iteration, tableau_from_vector)
from .graph import layer_sum_components, strongly_connected
from .interlayer import all_to_all, chain_undirected
from .types import CentralityTableau, SupraProblem

__all__ = list(_EXPORTS["limits"])

# Relative eigen-gap below which a dominant eigenvalue is treated as degenerate.
LAYER_GAP_FLOOR = 1e-6
INTERLAYER_GAP_FLOOR = 1e-8
# The one tie rule of the dominating set: radii this close (relative) to the largest.
REL_TOL_DOMINATING = 1e-9
# Stopping rule of every N x N power iteration in this module.
SOLVE_TOL = 1e-12
SOLVE_MAX_ITER = DEFAULT_MAX_ITER


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
    """Every layer's spectral radius, and the dominating layers' unit
    right/left dominant eigenvectors.

    ``dominating`` holds the 0-based dominating layers, ascending;
    ``right[a]`` and ``left[a]`` are the vectors of layer ``dominating[a]``.
    """

    spectral_radii: np.ndarray   # (T,)
    dominating: np.ndarray       # (m,)
    right: np.ndarray            # (m, N)
    left: np.ndarray             # (m, N)


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


def _solve(mat, where: str, side: str = "right"):
    """The module's one N x N eigensolve: a shifted power iteration at
    ``SOLVE_TOL`` and ``SOLVE_MAX_ITER`` whose NonConvergenceError names
    ``where``."""
    try:
        return shifted_power_iteration(mat, side, tol=SOLVE_TOL, max_iter=SOLVE_MAX_ITER)
    except NonConvergenceError as err:
        context = f"{where}: {err.context}" if err.context else where
        raise NonConvergenceError(err.iterations, err.residual, context) from err


def _radius(mat: LayerCentralityMatrix, where: str):
    """Spectral radius of ``mat`` and what computing it left behind.

    An irreducible ``mat`` takes one right solve on the matrix itself: its
    eigenvalue and its pair are returned, with blocks None.  A reducible
    one takes the largest of its strong component block radii (a single
    node's diagonal entry, else one solve on the block): returned with the
    block radii and right None.
    """
    count, labels = layer_sum_components((mat,))
    if count == 1:
        right = _solve(mat, where)
        return right.eigenvalue, right, None
    sizes = np.bincount(labels, minlength=count)
    blocks = np.zeros(count)
    blocks[labels] = mat.diagonal()  # exact for single-node blocks, overwritten below
    order = np.argsort(labels, kind="stable")
    for block, end in zip(np.flatnonzero(sizes > 1), np.cumsum(sizes)[sizes > 1]):
        sub = mat.principal_block(order[end - sizes[block]:end])
        blocks[block] = _solve(sub, where).eigenvalue
    return float(blocks.max()), None, blocks


def _perron_pairs(mat: LayerCentralityMatrix, where: str,
                  radius) -> tuple[EigenpairResult, EigenpairResult]:
    """Right and left dominant eigenpairs of ``mat``, whose ``_radius`` is ``radius``.

    A reducible ``mat`` whose two largest strong component radii (plus the
    shift) lie within LAYER_GAP_FLOOR raises DegenerateLayerEigenvalueError
    before any iteration on the whole matrix (Perron-Frobenius and Rothblum
    1975).  Errors name ``where``.
    """
    _, right, blocks = radius
    if blocks is not None:
        second, top = np.sort(blocks)[-2:]
        if second + mat.shift >= (1.0 - LAYER_GAP_FLOOR) * (top + mat.shift):
            raise DegenerateLayerEigenvalueError(where, top, second)
        right = _solve(mat, where)
    return right, _solve(mat, where, "left")


def layer_eigendata(problem: SupraProblem) -> LayerEigendata:
    """Spectral radius of every matrix in ``problem.layer_matrices``, and the
    dominant right/left eigenpair of each dominating layer.

    Every layer goes through ``_radius``.  Only the layers that
    ``dominating_layers`` picks go on through ``_perron_pairs``: the
    structural gap guard and the shifted power iteration that accepts the
    coupled engine's solves.  A dominating layer's reported radius is its
    right pair's eigenvalue.  Near-degeneracy inside one irreducible block
    is not caught: it shows up as slow convergence.
    """
    mats = problem.layer_matrices
    radii = [_radius(mat, f"layer {t}") for t, mat in enumerate(mats, start=1)]
    spectral_radii = np.array([value for value, _, _ in radii])
    dominating = dominating_layers(spectral_radii)
    pairs = [_perron_pairs(mats[t], f"layer {t + 1}", radii[t]) for t in dominating]
    spectral_radii[dominating] = [right.eigenvalue for right, _ in pairs]
    return LayerEigendata(
        spectral_radii=spectral_radii,
        dominating=dominating,
        right=np.array([right.vector for right, _ in pairs]),
        left=np.array([left.vector for _, left in pairs]),
    )


def layer_spectral_radii(problem: SupraProblem) -> np.ndarray:
    """Spectral radius of every matrix in ``problem.layer_matrices``: the
    ``_radius`` pass alone, with no left iteration and no gap required, so a
    tied dominant eigenvalue is no error."""
    return np.array([_radius(mat, f"layer {t}")[0]
                     for t, mat in enumerate(problem.layer_matrices, start=1)])


def dominating_layers(radii: np.ndarray) -> np.ndarray:
    """0-based indices, ascending, of the layers whose spectral radius is
    within ``REL_TOL_DOMINATING`` (relative) of the largest."""
    return np.flatnonzero(radii >= (1.0 - REL_TOL_DOMINATING) * radii.max())


def weak_limit(problem: SupraProblem) -> WeakLimitResult:
    """Limit of the dominant eigenvector as the coupling strength tends to 0+.

    The dominating set collects the layers whose spectral radius is within
    ``REL_TOL_DOMINATING`` (relative) of the maximum; radii are exact ties
    mathematically, so the tolerance only absorbs the round-off of solves at
    ``SOLVE_TOL``.  The mixing weights alpha (right) and beta (left) solve
    the dominant eigenproblem of X[a, b] = interlayer[ta, tb] * <u_ta, v_tb>
    / <u_ta, v_ta> over the dominating layers.  With a single dominating
    layer this reduces to localization: the limit vector is that layer's
    eigenvector.
    """
    net = problem.network
    data = layer_eigendata(problem)
    radii = data.spectral_radii
    lam0 = float(radii.max())
    dominating = data.dominating
    tset = tuple(int(t) + 1 for t in dominating)

    atil = problem.interlayer.values
    m = len(dominating)
    X = np.zeros((m, m))
    for a, ta in enumerate(dominating):
        u_a = data.left[a]
        denom = float(u_a @ data.right[a])
        if denom <= 0:
            raise DegenerateLayerEigenvalueError(f"layer {int(ta) + 1}", radii[ta], radii[ta])
        for b, tb in enumerate(dominating):
            X[a, b] = atil[ta, tb] * float(u_a @ data.right[b]) / denom
    if not strongly_connected(X):
        raise ReducibleDominatingSetError(
            f"interlayer coupling restricted to the dominating layers {tset} "
            "is not strongly connected; the limit mixing weights are not unique"
        )

    _, lambda1, alpha, beta = dense_perron(X)

    W = np.zeros((net.n_nodes, net.n_layers))
    W[:, dominating] = data.right.T * alpha
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
    eigs, mu1, v, u = dense_perron(atil)
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


def strong_limit(problem: SupraProblem) -> StrongLimitResult:
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
    aggregate = LayerCentralityMatrix.weighted_sum(problem.layer_matrices, weights)
    where = "strong-limit aggregate"
    res_r, res_l = _perron_pairs(aggregate, where, _radius(aggregate, where))

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

    difference = LayerCentralityMatrix.weighted_sum(
        problem.layer_matrices, weights_general - weights
    )
    return CorollaryCheck(
        shape=shape,
        mu1_computed=mu1,
        mu1_closed_form=mu_formula,
        mu1_discrepancy=abs(mu1 - mu_formula),
        x_max_discrepancy=difference.max_abs_entry(),
        weights_closed_form=weights,
    )
