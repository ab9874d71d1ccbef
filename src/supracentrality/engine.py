"""Matrix-free coupled operator, and every dominant eigensolve.

The coupled operator on length-N*T vectors is

    block t of (C x) = C_t @ x_t + omega * sum_t' interlayer[t, t'] * x_t'

i.e. the block matrix with the layer centrality matrices on the diagonal and
omega-scaled identity couplings off the diagonal.  A :class:`SupraOperator`
is one problem at one omega, and ``with_omega`` moves it along the
problem's family.  It is applied blockwise and never materialized.
Vectors are ordered node-major within layer: entry N*(t-1) + i holds node
i of layer t (both 1-based).

Every solver takes an :class:`Operator` (a :class:`SupraOperator`, or one
``LayerCentralityMatrix``), which owns its shift c >= 0 by the one rule of
``LayerCentralityMatrix.shift``.  Power iteration runs on C + c*I, which is
aperiodic when c > 0, and reports the eigenvalue with the shift removed.
ARPACK, or one dense ``eig`` below dimension 3, finds the dominant
eigenvector that power iteration then accepts; the T x T matrices of the
coupling limits take the dense ``eig``, :func:`dense_perron`, alone.
``DEFAULT_TOL`` and ``DEFAULT_MAX_ITER`` are the one declaration of the
solvers' default stopping rule (relative tolerance and matvec budget).
"""
from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import Literal, Protocol

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

from . import _EXPORTS
from .types import CentralityTableau, SupraProblem, check_omega

__all__ = list(_EXPORTS["engine"])


class NonConvergenceError(RuntimeError):
    """An eigensolver did not meet its tolerance within the iteration budget.

    Typical causes: a periodic operator iterated without a shift, a
    near-degenerate dominant eigenvalue pair, or a tolerance that is too
    tight for the spectral gap.
    """

    def __init__(self, iterations: int, residual: float, context: str = ""):
        self.iterations = iterations
        self.residual = residual
        self.context = context
        detail = f" ({context})" if context else ""
        super().__init__(
            f"no convergence after {iterations} iterations, residual {residual:.3e}{detail}"
        )


class NegativeEigenvectorError(NonConvergenceError):
    """The solve met its tolerance at a vector with materially negative
    entries, which no Perron vector of a nonnegative operator has.  The
    dominant eigenvalue is then not simple, as when the uniqueness
    preconditions fail, so the solver found no unique joint centrality.
    """

    def __init__(self, iterations: int, residual: float):
        super().__init__(iterations, residual, "eigenvector has materially negative entries")


class OperatorOverflowError(ValueError):
    """The coupled operator's products could overflow: with r the largest
    absolute row or column sum of C(omega) + cI, ``dim * r**2``, which
    bounds the squared norm of the product with a unit vector, is not finite.
    """


# entries of a unit eigenvector below -_NEGATIVE_FLOOR are material
_NEGATIVE_FLOOR = 1e-9
# ARPACK stops at tol / _ARPACK_TOL_RATIO, so the acceptance power iteration
# at tol takes few steps; ratios of 10 and 1 moved W by 6.8e-11 and 2.6e-9
_ARPACK_TOL_RATIO = 100
DENSE_CLAMP = 1e-12  # dense Perron vector entries in (-DENSE_CLAMP, 0) become 0
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class EigenpairResult:
    """Converged dominant eigenpair: unit-norm vector, eigenvalue, and diagnostics."""

    eigenvalue: float
    vector: np.ndarray
    iterations: int
    residual: float


def _fix_sign(x: np.ndarray, tol: float) -> np.ndarray:
    out = np.array(x)
    peak = int(np.argmax(np.abs(out)))
    if out[peak] < 0:
        out = -out
    out[(out > -tol) & (out < 0)] = 0.0
    nrm = float(np.linalg.norm(out))
    if nrm > 0:
        out /= nrm
    return out


def _check_budget(tol: float, max_iter: int) -> None:
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def _unit_start(dim: int, start: np.ndarray | None) -> np.ndarray:
    """``start`` scaled to unit norm, or the uniform unit vector."""
    if start is None:
        return np.full(dim, 1.0 / np.sqrt(dim))
    x = np.array(start, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"start vector must have length {dim}")
    nrm = float(np.linalg.norm(x))
    if nrm == 0:
        raise ValueError("start vector must be nonzero")
    return x / nrm


class Operator(Protocol):
    """What every eigensolve reads: a square nonnegative operator and its shift."""

    dim: int
    shift: float

    def apply(self, x: np.ndarray) -> np.ndarray: ...
    def apply_transpose(self, x: np.ndarray) -> np.ndarray: ...


def _matvec(op: Operator, side: str):
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return op.apply if side == "right" else op.apply_transpose


def shifted_power_iteration(
    op: Operator,
    side: Literal["right", "left"] = "right",
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: np.ndarray | None = None,
) -> EigenpairResult:
    """Dominant right or left eigenpair of ``op`` by power iteration.

    Iterates x -> C x + c x, with C the operator (its transpose for the left
    pair) and c = ``op.shift``, from the (positive) all-ones direction
    unless ``start`` is given.  Converged when the residual and the change
    in the Rayleigh quotient both fall below tol relative to the eigenvalue;
    the reported eigenvalue has the shift subtracted.  After convergence the
    vector's sign is fixed so its largest-magnitude entry is positive and
    entries in (-tol, 0) are clamped to 0.

    Raises NonConvergenceError after ``max_iter`` iterations, or as soon as
    an iterate is not finite.
    """
    matvec = _matvec(op, side)
    shift = op.shift
    _check_budget(tol, max_iter)
    x = _unit_start(op.dim, start)
    lam_prev = None
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        y = matvec(x)
        if shift:
            y = y + shift * x
        lam_shifted = float(x @ y)
        residual = float(np.linalg.norm(y - lam_shifted * x))
        lam = lam_shifted - shift
        scale = max(abs(lam), 1e-300)
        if (
            lam_prev is not None
            and residual <= tol * scale
            and abs(lam_shifted - lam_prev) <= tol * scale
        ):
            return EigenpairResult(
                eigenvalue=lam,
                vector=_fix_sign(x, tol),
                iterations=iteration,
                residual=residual,
            )
        norm_y = float(np.linalg.norm(y))
        if not math.isfinite(norm_y):
            raise NonConvergenceError(iteration, residual, "iterate is not finite")
        if norm_y == 0:
            raise NonConvergenceError(iteration, residual, "iterate collapsed to zero")
        x = y / norm_y
        lam_prev = lam_shifted
    context = "the stopping rule compares two iterates, and the budget allows one"
    raise NonConvergenceError(max_iter, residual, context if max_iter == 1 else "")


class SupraOperator:
    """The coupled operator of one problem at coupling strength ``omega``,
    applied blockwise.

    ``apply``/``apply_transpose``/``to_dense`` are the unshifted operator;
    only the eigensolver adds ``shift``, the largest of the layer matrices'
    shifts: where every layer is positive (PageRank) the coupled operator
    has a positive diagonal and needs none.  Construction and ``with_omega``
    raise ValueError for an ``omega`` that is not finite and nonnegative,
    and :class:`OperatorOverflowError` for an operator whose products could
    overflow, before any of them is computed.
    """

    def __init__(self, problem: SupraProblem, omega: float):
        self.omega = check_omega(omega)
        self.problem = problem
        self.layers = problem.layer_matrices
        self.interlayer = problem.interlayer.values
        # a sum past the float range is refused by _check_scale, not warned about
        with np.errstate(over="ignore"):
            self.shift = max(m.shift for m in self.layers)
            # largest row or column sum of each C_t and of A~ (all are nonnegative)
            self._layer_sums = np.array(
                [max(m.max_row_sum(), float(m.column_sums().max(initial=0.0)))
                 for m in self.layers]
            )
            self._coupling_sums = np.maximum(self.interlayer.sum(axis=0),
                                             self.interlayer.sum(axis=1))
        self._check_scale()

        # one block-diagonal sparse matrix for all layers keeps apply() at a
        # single matvec instead of a Python loop over layers; the uniform
        # PageRank terms stay as their coefficients, so each product adds them
        # as T scaled block sums instead of T dense N x N blocks
        self._block_diag = sparse.block_diag([m.sparse for m in self.layers], format="csr")
        coeffs = np.array([m.teleport_coeff for m in self.layers])
        self._tele_coeffs = coeffs if coeffs.any() else None  # None: no PageRank term

    def _check_scale(self) -> None:
        """Raise :class:`OperatorOverflowError` unless ``dim * r**2`` is
        finite, r bounding |((C + cI) x)_i| for a unit x on either side."""
        with np.errstate(over="ignore"):
            sums = self._layer_sums + self.omega * self._coupling_sums
        scale = float(sums.max()) + self.shift
        if not math.isfinite(self.dim * scale * scale):
            layer_scale = float(self._layer_sums.max()) + self.shift
            layers_alone = not math.isfinite(self.dim * layer_scale * layer_scale)
            where = ("at every omega, from its layer matrices alone" if layers_alone
                     else f"at omega {self.omega!r}")
            raise OperatorOverflowError(
                f"the coupled operator overflows {where}: its largest absolute "
                f"row or column sum {scale:.6g} squared, times dimension {self.dim}, is not finite"
            )

    def with_omega(self, omega: float) -> SupraOperator:
        """The same operator at coupling strength ``omega``, sharing the
        problem and the layer blocks, so a sweep builds them once."""
        out = copy.copy(self)
        out.omega = check_omega(omega)
        out._check_scale()
        return out

    @property
    def n_nodes(self) -> int:
        return self.problem.network.n_nodes

    @property
    def n_layers(self) -> int:
        return self.problem.network.n_layers

    @property
    def dim(self) -> int:
        return self.n_nodes * self.n_layers

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Blockwise product: C_t x_t + omega * sum_t' A~[t,t'] x_t'."""
        return self._product(x, self._block_diag, self.interlayer)

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """Product with the transposed operator."""
        return self._product(x, self._block_diag.T, self.interlayer.T)

    def _product(self, x: np.ndarray, block_diag, interlayer: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got {x.shape}")
        blocks = x.reshape(self.n_layers, self.n_nodes)
        out = (block_diag @ x).reshape(blocks.shape)
        if self._tele_coeffs is not None:  # the PageRank term (c_t / N) 1 1^T is symmetric
            out += ((self._tele_coeffs * blocks.sum(axis=1)) * (1.0 / self.n_nodes))[:, None]
        if self.omega:
            out += self.omega * (interlayer @ blocks)
        return out.ravel()

    def to_dense(self) -> np.ndarray:
        """Materialize the operator (tests and small problems only)."""
        n, t = self.n_nodes, self.n_layers
        dense = np.zeros((n * t, n * t))
        for tt, mat in enumerate(self.layers):
            dense[tt * n : (tt + 1) * n, tt * n : (tt + 1) * n] = mat.to_dense()
        if self.omega:
            dense += self.omega * np.kron(self.interlayer, np.eye(n))
        return dense


class _BudgetSpent(Exception):
    pass


def dominant_eigenpair(
    op: Operator,
    side: Literal["right", "left"] = "right",
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: np.ndarray | None = None,
) -> EigenpairResult:
    """Dominant right or left eigenpair of the operator ``op``.

    ARPACK (``eigs`` with k=1, which="LR" and tolerance ``tol / 100``)
    finds the eigenvector of ``op`` (or its transpose for the left pair)
    from ``start``, or from the uniform vector; below dimension 3
    :func:`dense_perron` finds it, one matvec per column.
    :func:`shifted_power_iteration` then accepts it at ``tol``, and its
    residual and stopping rule are the reported ones.  ``iterations``
    counts the matvecs of both steps, which share ``max_iter``.  When
    ARPACK fails, power iteration runs alone from ``start``.  Warm starts:
    pass the previous solution as ``start`` when sweeping over coupling
    strengths.  A vector that is not nonnegative (an entry below -1e-9)
    raises :class:`NegativeEigenvectorError`, a :class:`NonConvergenceError`.
    """
    matvec = _matvec(op, side)
    _check_budget(tol, max_iter)
    dim = op.dim
    v0 = _unit_start(dim, start)
    spent = 0

    def counted(x: np.ndarray) -> np.ndarray:
        nonlocal spent
        if spent == max_iter:
            raise _BudgetSpent
        spent += 1
        return matvec(x)

    try:
        if dim >= 3:
            _, vecs = eigs(
                LinearOperator((dim, dim), matvec=counted, dtype=float),
                k=1, which="LR", v0=v0, tol=tol / _ARPACK_TOL_RATIO,
            )
            start = _fix_sign(vecs[:, 0].real, tol)
        else:
            dense = np.column_stack([counted(e) for e in np.eye(dim)])
            if np.isfinite(dense).all():  # else power iteration stops at once
                start = dense_perron(dense)[2]
    except (ArpackError, _BudgetSpent):
        pass
    if spent == max_iter:
        raise NonConvergenceError(spent, math.inf, "budget spent before power iteration")
    try:
        pair = shifted_power_iteration(op, side, tol=tol, max_iter=max_iter - spent, start=start)
    except NonConvergenceError as err:
        raise NonConvergenceError(err.iterations + spent, err.residual, err.context) from err
    if pair.vector.min(initial=0.0) < -_NEGATIVE_FLOOR:
        raise NegativeEigenvectorError(pair.iterations + spent, pair.residual)
    return dataclasses.replace(pair, iterations=pair.iterations + spent)


def dense_perron(a: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Spectrum of the small dense matrix ``a``, its eigenvalue of largest
    real part (the Perron root when ``a`` is nonnegative), and that
    eigenvalue's sign-fixed unit right and left eigenvectors."""
    values, left, right = scipy.linalg.eig(a, left=True)
    k = int(np.argmax(values.real))
    return (values, float(values[k].real),
            _fix_sign(right[:, k].real, DENSE_CLAMP), _fix_sign(left[:, k].real, DENSE_CLAMP))


def tableau_from_vector(
    vector: np.ndarray,
    n_nodes: int,
    n_layers: int,
    lambda_max: float,
    omega: float,
) -> CentralityTableau:
    """Reshape a unit nonnegative eigenvector into the centrality tableau.

    Entries in (-1e-9, 0) are clamped to 0 and the vector is scaled to unit
    norm; entry N*(t-1)+i then becomes W[i-1, t-1].  The tableau derives its
    marginals, conditionals and zero-mass flags from W and rejects a W that
    is not finite.
    """
    v = np.asarray(vector, dtype=float)
    if v.shape != (n_nodes * n_layers,):
        raise ValueError(f"expected a vector of length {n_nodes * n_layers}, got {v.shape}")
    if float(v.min(initial=0.0)) < -_NEGATIVE_FLOOR:
        raise ValueError("eigenvector has materially negative entries")
    v = np.where(v < 0, 0.0, v)
    nrm = float(np.linalg.norm(v))
    if nrm == 0:
        raise ValueError("eigenvector is zero")
    v = v / nrm
    return CentralityTableau(
        W=v.reshape(n_layers, n_nodes).T, lambda_max=float(lambda_max), omega=float(omega)
    )


def stride_permutation(n_nodes: int, n_layers: int) -> np.ndarray:
    """Index map of the permutation between node-major and layer-major order.

    Returns a 0-based array ``perm`` with (P x)[k] = x[perm[k]]; in 1-based
    terms the permutation matrix has its k-th row's 1 in column
    ceil(k / N) + T * ((k - 1) mod N).  Conjugating the layer-major coupling
    block I (x) A~ with P yields the node-major block A~ (x) I.
    """
    if n_nodes < 1 or n_layers < 1:
        raise ValueError("need at least one node and one layer")
    return np.arange(n_nodes * n_layers, dtype=np.int64).reshape(n_nodes, n_layers).T.ravel()
