"""Matrix-free coupled operator and its dominant eigenpair.

The coupled operator on length-N*T vectors is

    block t of (C x) = C_t @ x_t + omega * sum_t' interlayer[t, t'] * x_t'

i.e. the block matrix with the layer centrality matrices on the diagonal and
omega-scaled identity couplings off the diagonal.  It is applied blockwise
and never materialized.  Vectors are ordered node-major within layer: entry
N*(t-1) + i holds node i of layer t (both 1-based).

The dominant eigenvector comes from ARPACK's implicitly restarted Arnoldi
method (Perron root = eigenvalue of largest real part) and is accepted by
power iteration on the shifted operator C + c*I.  Any c > 0 makes the
spectrum aperiodic (bipartite-like layers would otherwise cycle) without
changing eigenvectors; the reported eigenvalue has the shift removed.
"""
from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

from .types import CentralityTableau, SupraProblem

__all__ = [
    "NonConvergenceError",
    "EigenpairResult",
    "default_shift",
    "SupraOperator",
    "shifted_power_iteration",
    "dominant_eigenpair",
    "tableau_from_vector",
    "stride_permutation",
]


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


@dataclass(frozen=True, eq=False)
class EigenpairResult:
    """Converged dominant eigenpair: unit-norm vector, eigenvalue, and diagnostics."""

    eigenvalue: float
    vector: np.ndarray
    iterations: int
    residual: float


def default_shift(max_row_sum: float) -> float:
    """The power-iteration shift 0.1 * (1 + max row sum) of a nonnegative operator.

    Large enough to make the shifted spectrum aperiodic, small enough not to
    slow convergence.  Callers sum the rows themselves: the summation order
    sets the last bit, and with it every digit the solver writes.
    """
    return 0.1 * (1.0 + max_row_sum)


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


def shifted_power_iteration(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    *,
    shift: float = 0.0,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    start: np.ndarray | None = None,
) -> EigenpairResult:
    """Dominant eigenpair of the operator behind ``matvec`` by power iteration.

    Iterates x -> matvec(x) + shift*x from the (positive) all-ones direction
    unless ``start`` is given.  Converged when the residual and the change in
    the Rayleigh quotient both fall below tol relative to the eigenvalue;
    the reported eigenvalue has the shift subtracted.  After convergence the
    vector's sign is fixed so its largest-magnitude entry is positive and
    entries in (-tol, 0) are clamped to 0.

    Raises NonConvergenceError after ``max_iter`` iterations, or as soon as
    an iterate is not finite.
    """
    _check_budget(tol, max_iter)
    x = _unit_start(dim, start)
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
    raise NonConvergenceError(max_iter, residual)


class SupraOperator:
    """The coupled operator for one problem, applied blockwise.

    ``shift`` defaults to :func:`default_shift` of the largest row sum over
    the diagonal layer blocks; pass shift=0.0 to iterate the raw operator.
    ``apply``/``apply_transpose``/``to_dense`` are the unshifted operator;
    only the eigensolver adds the shift.
    """

    def __init__(
        self,
        problem: SupraProblem,
        shift: float | None = None,
    ):
        self.problem = problem
        self.layers = problem.layer_matrices
        self.interlayer = problem.interlayer.values
        self.omega = problem.omega
        if shift is None:
            shift = default_shift(max(m.max_row_sum() for m in self.layers))
        if shift < 0:
            raise ValueError(f"shift must be nonnegative, got {shift}")
        self.shift = float(shift)

        # one block-diagonal sparse matrix for all layers keeps apply() at a
        # single matvec instead of a Python loop over layers
        self._block_diag = sparse.block_diag(
            [m.sparse for m in self.layers], format="csr"
        )
        n = self.n_nodes
        self._tele_coeffs = np.array([m.teleport_coeff for m in self.layers])
        self._has_teleport = bool(np.any(self._tele_coeffs > 0))
        if self._has_teleport:
            self._tele_vectors = np.vstack(
                [
                    m.teleport if m.teleport is not None else np.zeros(n)
                    for m in self.layers
                ]
            )
        else:
            self._tele_vectors = None

    def with_omega(self, omega: float) -> SupraOperator:
        """The same operator at coupling strength ``omega``, sharing the
        layer blocks and the shift, so a sweep builds them once."""
        out = copy.copy(self)
        out.problem = self.problem.with_omega(omega)
        out.omega = out.problem.omega
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

    def _blocks(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got {x.shape}")
        return x.reshape(self.n_layers, self.n_nodes)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Blockwise product: C_t x_t + omega * sum_t' A~[t,t'] x_t'."""
        x = np.asarray(x, dtype=float)
        blocks = self._blocks(x)
        out = (self._block_diag @ x).reshape(blocks.shape)
        if self._has_teleport:
            out += (self._tele_coeffs * blocks.sum(axis=1))[:, None] * self._tele_vectors
        if self.omega:
            out += self.omega * (self.interlayer @ blocks)
        return out.ravel()

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """Product with the transposed operator."""
        x = np.asarray(x, dtype=float)
        blocks = self._blocks(x)
        out = (self._block_diag.T @ x).reshape(blocks.shape)
        if self._has_teleport:
            dots = np.einsum("tn,tn->t", self._tele_vectors, blocks)
            out += (self._tele_coeffs * dots)[:, None]
        if self.omega:
            out += self.omega * (self.interlayer.T @ blocks)
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
    op: SupraOperator,
    side: Literal["right", "left"] = "right",
    *,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    start: np.ndarray | None = None,
) -> EigenpairResult:
    """Dominant right or left eigenpair of the coupled operator.

    ARPACK (``eigs`` with k=1, which="LR", machine-precision tolerance)
    finds the eigenvector of ``op`` (or its transpose for the left pair)
    from ``start``, or from the uniform vector; power iteration on the
    operator shifted by ``op.shift`` then accepts it, and its residual and
    stopping rule are the reported ones.  The eigenvalue has the shift
    removed.  ``iterations`` counts the matvecs of both steps, which share
    ``max_iter``.  When ARPACK fails (for instance does not converge within
    its own limits), or the operator is too small for it (dim < 3), power
    iteration runs alone from ``start``.  Warm starts: pass the previous
    solution as ``start`` when sweeping over coupling strengths.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    _check_budget(tol, max_iter)
    matvec = op.apply if side == "right" else op.apply_transpose
    dim = op.dim
    v0 = _unit_start(dim, start)
    spent = 0
    if dim >= 3:
        def counted(x: np.ndarray) -> np.ndarray:
            nonlocal spent
            if spent == max_iter:
                raise _BudgetSpent
            spent += 1
            return matvec(x)

        try:
            _, vecs = eigs(
                LinearOperator((dim, dim), matvec=counted, dtype=float),
                k=1, which="LR", v0=v0, tol=0.0,
            )
            start = _fix_sign(vecs[:, 0].real, tol)
        except (ArpackError, _BudgetSpent):
            pass
        if spent == max_iter:
            raise NonConvergenceError(spent, math.inf, "iteration budget spent in ARPACK")
    try:
        pair = shifted_power_iteration(
            matvec, dim, shift=op.shift, tol=tol, max_iter=max_iter - spent, start=start
        )
    except NonConvergenceError as err:
        raise NonConvergenceError(err.iterations + spent, err.residual, err.context) from err
    return dataclasses.replace(pair, iterations=pair.iterations + spent)


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
    if float(v.min(initial=0.0)) < -1e-9:
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
    k = np.arange(1, n_nodes * n_layers + 1, dtype=np.int64)
    l = (k + n_nodes - 1) // n_nodes + n_layers * ((k - 1) % n_nodes)
    return l - 1
