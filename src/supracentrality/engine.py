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
``LayerCentralityMatrix.shift``.  Every solve runs on its operator times
2**-k, by the one scaling rule of :func:`scale_operator`, and reports the
eigenvalue and residual times 2**k.  Power iteration runs on C + c*I, which
is aperiodic when c > 0, and reports the eigenvalue with the shift removed.
ARPACK, or one dense ``eig`` below dimension 3, finds the dominant
eigenvector that power iteration then accepts; the T x T matrices of the
coupling limits take the dense ``eig``, :func:`dense_perron`, alone.
``DEFAULT_TOL`` and ``DEFAULT_MAX_ITER`` are the one declaration of the
solvers' default stopping rule (relative tolerance and matvec budget).
"""
from __future__ import annotations

import copy
import dataclasses
import inspect
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
    """A value the solve must report is past the float range: the dominant
    eigenvalue, which the solve finds as lambda times 2**k, or an entry of
    omega times the interlayer matrix.
    """


# entries of a unit eigenvector below -_NEGATIVE_FLOOR are material
_NEGATIVE_FLOOR = 1e-9
# ARPACK stops at tol / _ARPACK_TOL_RATIO, so the acceptance power iteration
# at tol takes few steps; ratios of 10 and 1 moved W by 6.8e-11 and 2.6e-9
_ARPACK_TOL_RATIO = 100
DENSE_CLAMP = 1e-12  # dense Perron vector entries in (-DENSE_CLAMP, 0) become 0
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
# ARPACK asks for a random vector when its Krylov space breaks down (an
# operator of 3 rows does on every solve); scipy from 1.15 on draws it from
# OS entropy unless given a seed, older releases from their own fixed seed
_ARPACK_SEED = {"rng": 0} if "rng" in inspect.signature(eigs).parameters else {}
# operators whose largest entry is below 2**UNIT_SCALE_FLOOR run scaled
UNIT_SCALE_FLOOR = -4
_EPS = 2.0 ** -52  # float64 machine epsilon


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
    """What every eigensolve reads: a square nonnegative operator, its shift,
    its largest absolute entry and ``scaled(k)``, the operator times 2**-k,
    for the scaling rule."""

    dim: int
    shift: float

    def apply(self, x: np.ndarray) -> np.ndarray: ...
    def apply_transpose(self, x: np.ndarray) -> np.ndarray: ...
    def max_abs_entry(self) -> float: ...
    def scaled(self, k: int) -> Operator: ...


def _matvec(op: Operator, side: str):
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return op.apply if side == "right" else op.apply_transpose


def _scale_exponent(largest: float, dim: int) -> int:
    """k of the scaling rule for a ``dim``-dimensional operator whose largest
    absolute entry is ``largest``: 0 where 2**UNIT_SCALE_FLOOR <= largest and
    dim * (2 * dim * largest)**2 is finite (2 * dim * largest bounds a row
    sum plus the shift), so an operator at unit scale keeps its bits, and
    otherwise the k that puts largest * 2**-k in [1, 2).  A zero operator
    takes 0."""
    if largest == 0:
        return 0
    k = math.frexp(largest)[1] - 1
    bound = 2.0 * dim * largest
    return 0 if k >= UNIT_SCALE_FLOOR and math.isfinite(dim * bound * bound) else k


def scale_operator(op: Operator) -> tuple[Operator, int]:
    """``op`` times 2**-k, and k: the one scaling rule of every eigensolve
    (``op`` itself where k = 0).  IEEE 754 multiplies by 2**k exactly while
    the result stays normal, so the scaled operator has the same
    eigenvectors and its eigenvalues are 2**-k times the operator's.  Its
    shift follows the shift rule at the new scale, and once its largest
    entry lies in [1, 2) no row sum can overflow."""
    k = _scale_exponent(op.max_abs_entry(), op.dim)
    return (op.scaled(k) if k else op), k


def unscaled(value: float, k: int) -> float:
    """``value`` times 2**k, inf past the float range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, k))


def unscaled_pair(pair: EigenpairResult, k: int) -> EigenpairResult:
    """``pair``, found on an operator times 2**-k, as the operator's own:
    eigenvalue and residual times 2**k.  Raises :class:`OperatorOverflowError`
    for an eigenvalue past the float range."""
    lam = unscaled(pair.eigenvalue, k)
    if not math.isfinite(lam):
        raise OperatorOverflowError(
            f"the dominant eigenvalue, {pair.eigenvalue!r} times 2**{k}, is past the float range")
    return dataclasses.replace(pair, eigenvalue=lam, residual=unscaled(pair.residual, k))


def shifted_power_iteration(
    op: Operator,
    side: Literal["right", "left"] = "right",
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: np.ndarray | None = None,
) -> EigenpairResult:
    """Dominant right or left eigenpair of ``op`` by power iteration.

    Iterates x -> C x + c x, with C the operator times 2**-k of
    :func:`scale_operator` (its transpose for the left pair) and c its
    shift, from the (positive) all-ones direction unless ``start`` is given.
    Converged when the residual and the change in the Rayleigh quotient
    both fall below tol relative to the eigenvalue; the reported eigenvalue
    has the shift subtracted, and it and the residual are times 2**k.
    Where the shift is so much larger than the eigenvalue that subtracting
    it leaves no digit to tol, the eigenvalue is read from C x alone, and
    the vector is accepted only if its residual at C meets tol.
    After convergence the vector's sign is fixed so its largest-magnitude
    entry is positive and entries in (-tol, 0) are clamped to 0.

    Raises NonConvergenceError after ``max_iter`` iterations, or as soon as
    an iterate is not finite, and :class:`OperatorOverflowError` for an
    eigenvalue past the float range.
    """
    _check_budget(tol, max_iter)
    return _power_iteration(*scale_operator(op), side, tol, max_iter, start)


def _power_iteration(op: Operator, k: int, side: str, tol: float, max_iter: int,
                     start: np.ndarray | None) -> EigenpairResult:
    """:func:`shifted_power_iteration` on ``op``, the operator times 2**-k."""
    matvec = _matvec(op, side)
    shift = op.shift
    x = _unit_start(op.dim, start)
    lam_prev = None
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        z = matvec(x)
        y = z + shift * x if shift else z
        lam_shifted = float(x @ y)
        residual = float(np.linalg.norm(y - lam_shifted * x))
        lam = lam_shifted - shift
        scale = max(abs(lam), 1e-300)
        if (
            lam_prev is not None
            and residual <= tol * scale
            and abs(lam_shifted - lam_prev) <= tol * scale
        ):
            if tol * abs(lam) < _EPS * shift:  # lam_shifted - shift rounds lam away
                # BLAS nrm2 neither underflows nor overflows at any scale
                lam = float(x @ z)
                residual = float(scipy.linalg.norm(z - lam * x))
                if residual > tol * lam:
                    context = "the shift swamps the eigenvalue, and C x misses tol"
                    break
            return unscaled_pair(EigenpairResult(eigenvalue=lam, vector=_fix_sign(x, tol),
                                                 iterations=iteration, residual=residual), k)
        norm_y = float(np.linalg.norm(y))
        if not math.isfinite(norm_y) or norm_y == 0:
            context = "iterate collapsed to zero" if norm_y == 0 else "iterate is not finite"
            break
        x = y / norm_y
        lam_prev = lam_shifted
    else:
        context = "the stopping rule compares two iterates, and the budget allows one"
        context = context if max_iter == 1 else ""
    raise NonConvergenceError(iteration, unscaled(residual, k), context)


def _block_diagonal(mats) -> sparse.csr_matrix:
    """The block-diagonal CSR matrix of the square CSR matrices ``mats``,
    equal bit for bit to scipy's ``block_diag`` in CSR format, written
    straight from their ``indptr``, ``indices`` and ``data`` into arrays of
    the result's size: no COO triplets.  Block t's rows and columns are
    offset by the rows before it; the index dtype is scipy's, int32 unless
    the dimension or the entry count is past its range; and, as in scipy's
    COO round trip, ``sum_duplicates`` leaves the indices sorted (a check
    alone where every block's already are) and the sorted-indices flag set."""
    dim = sum(m.shape[0] for m in mats)
    nnz = sum(m.nnz for m in mats)
    index = np.int32 if max(dim, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    row = entry = 0
    for m in mats:
        rows, count = m.shape[0], m.nnz
        np.add(m.indptr[1:], entry, out=indptr[row + 1:row + rows + 1])
        np.add(m.indices[:count], row, out=indices[entry:entry + count])
        data[entry:entry + count] = m.data[:count]
        row, entry = row + rows, entry + count
    out = sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))
    out.sum_duplicates()
    return out


class SupraOperator:
    """The coupled operator of one problem at coupling strength ``omega``,
    applied blockwise.

    ``apply``/``apply_transpose``/``to_dense`` are the unshifted operator;
    only the eigensolver adds ``shift``, the largest of the layer matrices'
    shifts: where every layer is positive (PageRank) the coupled operator
    has a positive diagonal and needs none.  Every solve runs on the
    operator times 2**-k (:func:`scale_operator`), whose layer matrices and
    coupling take the same factor.  Construction and ``with_omega`` raise
    ValueError for an ``omega`` that is not finite and nonnegative, and
    :class:`OperatorOverflowError` for one at which an entry of omega times
    the interlayer matrix is past the float range.
    """

    def __init__(self, problem: SupraProblem, omega: float):
        self.problem = problem
        self.interlayer = problem.interlayer.values
        # the products read A~ times 2**-j, whose largest entry lies in [1, 2),
        # so A~ x cannot overflow, and omega times 2**j (_weight) for omega
        self._j = math.frexp(self.interlayer.max(initial=0.0))[1] - 1
        self._coupling = np.ldexp(self.interlayer, -self._j)
        self._set_layers(problem.layer_matrices)
        self._set_omega(omega)

    def _set_layers(self, layers, block_diag: sparse.csr_matrix | None = None) -> None:
        """Take ``layers``; ``block_diag`` is their matrices' block diagonal
        where it is already built."""
        self.layers = layers
        self._layer_entry = max(m.max_abs_entry() for m in layers)
        # one block-diagonal sparse matrix for all layers keeps apply() at a
        # single matvec instead of a Python loop over layers; it is copied once
        # from the layers' CSR arrays (_block_diagonal), and with_omega and
        # scaled share it or its index arrays
        if block_diag is None:
            block_diag = _block_diagonal([m.sparse for m in layers])
        self._block_diag = block_diag
        # a PageRank layer is A_t^T diag(s_t) + diag(w_t) over its graph's CSR
        # (the layers share one kind): the products take the stacked s and w
        pagerank = layers[0].row_factors is not None
        self._row_factors = np.concatenate([m.row_factors for m in layers]) if pagerank else None
        self._self_weights = np.concatenate([m.self_weights for m in layers]) if pagerank else None
        # the uniform PageRank terms stay as their coefficients, so each product
        # adds them as T scaled block sums instead of T dense N x N blocks
        coeffs = np.array([m.teleport_coeff for m in layers])
        self._tele_coeffs = coeffs if coeffs.any() else None  # None: no PageRank term

    def _set_omega(self, omega: float) -> None:
        self.omega = check_omega(omega)
        if not math.isfinite(self.omega * float(self.interlayer.max(initial=0.0))):
            raise OperatorOverflowError(
                f"an entry of omega times the interlayer matrix is past the float range "
                f"at omega {self.omega!r}")
        self._weight = math.ldexp(self.omega, self._j)

    def with_omega(self, omega: float) -> SupraOperator:
        """The same operator at coupling strength ``omega``, sharing the
        problem and the layer blocks, so a sweep builds them once."""
        out = copy.copy(self)
        out._set_omega(omega)
        return out

    def scaled(self, k: int) -> SupraOperator:
        """The operator times 2**-k: its layer matrices and coupling times 2**-k.
        Scaled PageRank layers keep their adjacencies, and so the block
        diagonal; explicit layers take its data times 2**-k, which shares its
        index arrays."""
        out = copy.copy(self)
        layers = tuple(m.scaled(k) for m in self.layers)
        block_diag = self._block_diag
        if any(s.sparse is not m.sparse for s, m in zip(layers, self.layers)):
            block_diag = sparse.csr_matrix(
                (np.ldexp(block_diag.data, -k), block_diag.indices, block_diag.indptr),
                shape=block_diag.shape)
            block_diag.has_sorted_indices = self._block_diag.has_sorted_indices
        out._set_layers(layers, block_diag)
        out._weight = math.ldexp(self._weight, -k)
        return out

    @property
    def shift(self) -> float:
        return max(m.shift for m in self.layers)

    def max_abs_entry(self) -> float:
        """The largest absolute entry of the layer matrices and of omega
        times the interlayer matrix."""
        return max(self._layer_entry, self._weight * float(self._coupling.max(initial=0.0)))

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
        return self._product(x, transpose=False)

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """Product with the transposed operator."""
        return self._product(x, transpose=True)

    def _product(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """C x or C^T x with at most two length-NT temporaries: the result
        and one spare buffer."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got {x.shape}")
        blocks = x.reshape(self.n_layers, self.n_nodes)
        block_diag, spare = self._block_diag, None
        if self._row_factors is None:
            out = (block_diag.T if transpose else block_diag) @ x
        elif transpose:  # C_t^T x_t = s_t * (A_t x_t) + w_t * x_t
            out = block_diag @ x
            out *= self._row_factors
            spare = self._self_weights * x
            out += spare
        else:  # C_t x_t = A_t^T (s_t * x_t) + w_t * x_t
            spare = self._row_factors * x
            out = block_diag.T @ spare
            out += np.multiply(self._self_weights, x, out=spare)
        out = out.reshape(blocks.shape)
        if self._tele_coeffs is not None:  # the PageRank term (c_t / N) 1 1^T is symmetric
            out += ((self._tele_coeffs * blocks.sum(axis=1)) * (1.0 / self.n_nodes))[:, None]
        if self._weight:
            coupling = self._coupling.T if transpose else self._coupling
            spare = np.matmul(coupling, blocks,
                              out=None if spare is None else spare.reshape(blocks.shape))
            spare *= self._weight
            out += spare
        return out.ravel()

    def diagonal(self) -> np.ndarray:
        """The diagonal: each layer matrix's plus omega * A~[t, t] (inf past
        the float range)."""
        with np.errstate(over="ignore"):
            return np.concatenate([m.diagonal() + self._weight * c
                                   for m, c in zip(self.layers, np.diag(self._coupling))])

    def row_max(self) -> np.ndarray:
        """Each row's largest entry (the operator is nonnegative)."""
        coupling = self._weight * self._coupling  # omega * A~
        rows = np.concatenate([np.maximum(m.row_max(), coupling[t].max(initial=0.0))
                               for t, m in enumerate(self.layers)])
        return np.maximum(rows, self.diagonal())

    def to_csr(self) -> sparse.csr_matrix:
        """The operator as one CSR matrix, where its layer matrices are their
        ``sparse`` alone (no row factors and no uniform term: the Eigenvector
        kind)."""
        if self._row_factors is not None or self._tele_coeffs is not None:
            raise TypeError("a PageRank layer matrix is not its CSR matrix alone")
        if not self._weight:
            return self._block_diag
        return self._block_diag + sparse.kron(self._weight * self._coupling,
                                              sparse.identity(self.n_nodes), format="csr")

    def to_dense(self) -> np.ndarray:
        """Materialize the operator (tests and small problems only)."""
        n, t = self.n_nodes, self.n_layers
        dense = np.zeros((n * t, n * t))
        for tt, mat in enumerate(self.layers):
            dense[tt * n : (tt + 1) * n, tt * n : (tt + 1) * n] = mat.to_dense()
        if self._weight:
            dense += self._weight * np.kron(self._coupling, np.eye(n))
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
    Both steps run on ``op`` times 2**-k (:func:`scale_operator`).
    """
    _check_budget(tol, max_iter)
    op, k = scale_operator(op)
    matvec = _matvec(op, side)
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
                k=1, which="LR", v0=v0, tol=tol / _ARPACK_TOL_RATIO, **_ARPACK_SEED,
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
        pair = _power_iteration(op, k, side, tol, max_iter - spent, start)
    except NonConvergenceError as err:
        raise NonConvergenceError(err.iterations + spent, err.residual, err.context) from err
    if pair.vector.min(initial=0.0) < -_NEGATIVE_FLOOR:
        raise NegativeEigenvectorError(pair.iterations + spent, pair.residual)
    return dataclasses.replace(pair, iterations=pair.iterations + spent)


def dense_perron(a: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Spectrum of the small dense matrix ``a``, its eigenvalue of largest
    real part (the Perron root when ``a`` is nonnegative), and that
    eigenvalue's sign-fixed unit right and left eigenvectors.

    ``eig`` runs on ``a`` times 2**-k, k by the scaling rule of
    :func:`scale_operator` read on |a|, and the eigenvalues are scaled
    back: ``eig`` loses the eigenvalues of entries near the float maximum,
    and a power of two scales exactly (but for entries below 2**-1022 times
    the largest).
    """
    k = _scale_exponent(float(np.abs(a).max(initial=0.0)), len(a))
    values, left, right = scipy.linalg.eig(np.ldexp(a, -k), left=True)
    # two factors, since 2.0 ** k alone overflows at k = 1024
    values = values * math.ldexp(1.0, k // 2) * math.ldexp(1.0, k - k // 2)
    top = int(np.argmax(values.real))
    return (values, float(values[top].real), _fix_sign(right[:, top].real, DENSE_CLAMP),
            _fix_sign(left[:, top].real, DENSE_CLAMP))


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
