"""Coupling-strength sweeps: sensitivity curves, regimes, ranks, correlations.

A sweep runs :func:`solve_point`, the one coupled solve, on one problem
across an increasing grid of coupling strengths (at most
``MAX_GRID_POINTS``), moving one operator along the grid and
warm-starting each solve from the previous eigenvector.  The stepwise
Frobenius changes of the joint and conditional centralities trace out how
sensitive the rankings are to the coupling strength; peaks in those curves
separate qualitatively stable regimes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .engine import (DEFAULT_MAX_ITER, DEFAULT_TOL, EigenpairResult, NegativeEigenvectorError,
                     NonConvergenceError, SupraOperator, dominant_eigenpair, tableau_from_vector)
from .graph import (ConstantInputError, PreconditionReport, check_preconditions,
                    intralayer_degrees, pearson, total_degrees)
from .limits import dominating_layers, layer_spectral_radii
from .types import CentralityTableau, SupraProblem

__all__ = list(_EXPORTS["sweeps"])

# log_grid refuses a grid of more points than this
MAX_GRID_POINTS = 10_000
# detect_regimes keeps a peak at least this fraction of the series maximum high
PROMINENCE_FRACTION = 0.01


@dataclass(frozen=True, eq=False)
class OmegaGrid:
    """Strictly increasing positive coupling strengths."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("grid must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must be finite")
        if arr.min() <= 0:
            raise ValueError("grid values must be positive")
        if arr.size > 1 and np.any(np.diff(arr) <= 0):
            raise ValueError("grid values must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


def log_grid(exp_lo: float, exp_hi: float, step: float) -> OmegaGrid:
    """Grid 10**(exp_lo + k*step) for k = 0, 1, ... while the exponent stays
    at or below exp_hi (a tiny slack absorbs float accumulation).  A
    ``MAX_GRID_POINTS + 1``-th point raises ValueError."""
    if not all(math.isfinite(v) for v in (exp_lo, exp_hi, step)):
        raise ValueError(f"grid bounds and step must be finite, got {exp_lo}, {exp_hi}, {step}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if exp_lo > exp_hi:
        raise ValueError(f"empty grid: exp_lo {exp_lo} exceeds exp_hi {exp_hi}")
    exps: list[float] = []
    while exp_lo + len(exps) * step <= exp_hi + 1e-12:
        if len(exps) == MAX_GRID_POINTS:
            raise ValueError(f"grid {exp_lo},{exp_hi},{step} has more than "
                             f"{MAX_GRID_POINTS} points")
        exps.append(exp_lo + len(exps) * step)
    return OmegaGrid(np.power(10.0, np.array(exps)))


class PreconditionFailure(RuntimeError):
    """A solver failure that the failed uniqueness preconditions explain."""


def solve_point(op: SupraOperator, report: PreconditionReport, *, tol: float, max_iter: int,
                start: np.ndarray | None = None) -> tuple[EigenpairResult, CentralityTableau]:
    """Dominant eigenpair of the coupled operator ``op`` and its tableau.

    Where ``report``, the problem's precondition report, fails, a solver
    vector with materially negative entries raises :class:`PreconditionFailure`
    instead of :class:`~supracentrality.engine.NegativeEigenvectorError`.
    """
    try:
        pair = dominant_eigenpair(op, tol=tol, max_iter=max_iter, start=start)
    except NegativeEigenvectorError as err:
        if report.both_ok:
            raise
        raise PreconditionFailure(f"{err}; uniqueness preconditions not satisfied") from err
    tableau = tableau_from_vector(pair.vector, op.n_nodes, op.n_layers, pair.eigenvalue, op.omega)
    return pair, tableau


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Tableaus along a grid plus the stepwise sensitivity series.

    ``w_sensitivity[s]`` and ``z_sensitivity[s]`` are the Frobenius norms of
    the change in W and Z between grid points s and s+1 (length one less
    than the grid); NaN where either endpoint failed to converge.
    ``failures`` records (grid index, message) for failed points,
    whose tableau slots hold None.  ``problem`` is the swept problem;
    every grid point used its ``layer_matrices``, and ``preconditions`` is
    its precondition report at any positive coupling strength.
    """

    grid: OmegaGrid
    tableaus: tuple[CentralityTableau | None, ...]
    w_sensitivity: np.ndarray
    z_sensitivity: np.ndarray
    failures: tuple[tuple[int, str], ...]
    problem: SupraProblem
    preconditions: PreconditionReport


def sweep(
    problem: SupraProblem,
    grid: OmegaGrid,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SweepResult:
    """Run :func:`solve_point` on ``problem`` at every grid point, in
    increasing order.

    Each solve starts from the previous point's eigenvector (the warm
    start), which saves matvecs where the dominant eigenvalue cluster is
    nearly degenerate (strong coupling).  A failed point is recorded and
    the sweep continues; the next solve falls back to the default start.
    A largest grid value at which an entry of omega times the interlayer
    matrix is past the float range raises
    :class:`~supracentrality.engine.OperatorOverflowError` before the first
    solve.
    """
    base = SupraOperator(problem, grid.values[0])
    base.with_omega(grid.values[-1])  # an overflowing grid fails before any solve
    report = check_preconditions(problem, base.omega)
    w_sens, z_sens = np.full((2, len(grid) - 1), np.nan)
    tableaus: list[CentralityTableau | None] = []
    failures: list[tuple[int, str]] = []
    start = None
    previous = None  # W and Z of the previous point, None after a failed one
    for s, omega in enumerate(grid.values):
        op = base.with_omega(omega)
        try:
            pair, tab = solve_point(op, report, tol=tol, max_iter=max_iter, start=start)
        except (NonConvergenceError, PreconditionFailure) as err:
            failures.append((s, str(err)))
            tableaus.append(None)
            start = previous = None
            continue
        tableaus.append(tab)
        Z = tab.Z
        if previous is not None:
            w_sens[s - 1] = float(np.linalg.norm(tab.W - previous[0]))
            z_sens[s - 1] = float(np.linalg.norm(Z - previous[1]))
        previous = tab.W, Z
        start = pair.vector
    return SweepResult(
        grid=grid,
        tableaus=tuple(tableaus),
        w_sensitivity=w_sens,
        z_sensitivity=z_sens,
        failures=tuple(failures),
        problem=problem,
        preconditions=report,
    )


@dataclass(frozen=True)
class RegimeInterval:
    """A maximal run of grid points between two sensitivity peaks (inclusive indices)."""

    first: int
    last: int
    omega_lo: float
    omega_hi: float


@dataclass(frozen=True, eq=False)
class RegimeReport:
    """Peak positions (sensitivity-series indices) and the grid intervals they separate."""

    peaks: tuple[int, ...]
    intervals: tuple[RegimeInterval, ...]


def check_prominence_fraction(prominence_fraction: float) -> None:
    """Raise ValueError unless the peak prominence fraction is finite and nonnegative."""
    if not 0.0 <= prominence_fraction < math.inf:
        raise ValueError(
            f"prominence_fraction must be finite and nonnegative, got {prominence_fraction}"
        )


def _prominent_peaks(x: list[float], floor: float) -> tuple[int, ...]:
    """Indices of the local maxima of ``x`` whose prominence is at least
    ``floor``, in increasing order (the rule of SciPy's ``find_peaks`` with
    ``prominence=floor``; the tests hold the two equal)."""
    last = len(x) - 1
    peaks = []
    i = 1
    while i < last:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < last and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                peaks.append((i + ahead - 1) // 2)
                i = ahead
        i += 1

    def base(peak: int, side: range) -> float:
        low = x[peak]
        for k in side:
            if x[k] > x[peak]:
                break
            low = min(low, x[k])
        return low

    return tuple(
        p for p in peaks
        if floor <= x[p] - max(base(p, range(p, -1, -1)), base(p, range(p, last + 1)))
    )


def detect_regimes(
    sensitivity: np.ndarray,
    grid: OmegaGrid,
    prominence_fraction: float = PROMINENCE_FRACTION,
) -> RegimeReport:
    """Partition the grid at the prominent local maxima of a sensitivity series.

    A peak at series index s marks the transition between grid points s and
    s+1; the intervals tile the grid exactly.  NaN entries (failed sweep
    points) are treated as zero for peak finding.

    A local maximum is an interior point whose left neighbour is strictly
    lower and whose first different value to the right is strictly lower;
    a flat top reports its middle index (the left one of two).  Its
    prominence is its height minus the higher of the two lowest values
    reached walking left and walking right while values stay at or below
    that height.  A peak is kept when its prominence is at least
    ``prominence_fraction`` times the series maximum, which keeps
    float-level wiggle from fabricating regimes.  This is the rule of
    SciPy's ``find_peaks`` with ``prominence=`` that floor.
    """
    check_prominence_fraction(prominence_fraction)
    series = np.asarray(sensitivity, dtype=float)
    if series.ndim != 1 or series.size < 3:
        raise ValueError("sensitivity series must be 1-D with at least 3 points")
    if series.size != len(grid) - 1:
        raise ValueError("sensitivity series must have one entry per grid step")
    clean = np.where(np.isfinite(series), series, 0.0)
    peak_idx: tuple[int, ...] = ()
    top = float(clean.max())
    if top > 0:
        peak_idx = _prominent_peaks(clean.tolist(), prominence_fraction * top)

    omegas = grid.values
    intervals = []
    first = 0
    for p in peak_idx:
        intervals.append(RegimeInterval(first, p, float(omegas[first]), float(omegas[p])))
        first = p + 1
    intervals.append(
        RegimeInterval(first, len(grid) - 1, float(omegas[first]), float(omegas[-1]))
    )
    return RegimeReport(peaks=peak_idx, intervals=tuple(intervals))


def check_in_range(what: str, index: int, count: int) -> None:
    """Raise ValueError unless the 1-based ``index`` lies in 1..count."""
    if not 1 <= index <= count:
        raise ValueError(f"{what} {index} out of range 1..{count}")


def rank_trajectory(result: SweepResult, node: int) -> np.ndarray:
    """Per-grid-point, per-layer rank of one node's conditional centrality.

    Rank 1 is the largest conditional centrality within the layer; ties go
    to the lower node index.  ``node`` is 1-based.  Rows for failed grid
    points are 0.
    """
    n = result.problem.network.n_nodes
    check_in_range("node", node, n)
    t_count = result.problem.network.n_layers
    out = np.zeros((len(result.grid), t_count), dtype=int)
    order_tiebreak = np.arange(n)
    for s, tab in enumerate(result.tableaus):
        if tab is None:
            continue
        Z = tab.Z
        for t in range(t_count):
            col = Z[:, t]
            order = np.lexsort((order_tiebreak, -col))
            ranks = np.empty(n, dtype=int)
            ranks[order] = np.arange(1, n + 1)
            out[s, t] = ranks[node - 1]
    return out


@dataclass(frozen=True, eq=False)
class DegreeCorrelation:
    """Pearson correlations between degrees and conditional centralities at one
    grid point; a NaN value with its flag set means the correlation was
    undefined (constant input)."""

    omega: float
    intralayer_vs_conditional: float
    total_vs_conditional_sum: float
    reference_vs_conditional_sum: float
    intralayer_constant: bool = False
    total_constant: bool = False
    reference_constant: bool = False


def _safe_pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    try:
        return pearson(x, y), False
    except ConstantInputError:
        return float("nan"), True


def reference_layer_by_spectral_radius(problem: SupraProblem) -> int:
    """1-based index of the layer whose centrality matrix has the largest
    spectral radius; radii tie as in the weak limit's dominating set, and a
    tie goes to the lowest index."""
    return int(dominating_layers(layer_spectral_radii(problem))[0]) + 1


def correlate_with_degrees(
    result: SweepResult, reference_layer: int | None = None
) -> tuple[DegreeCorrelation, ...]:
    """Degree/centrality correlations at every grid point.

    Three series per point: (a) intralayer degrees against conditional
    centralities over all node-layer pairs (flattened layer-major);
    (b) total degrees against the per-node sum of conditional centralities;
    (c) one reference layer's degrees against that same sum.  The reference
    defaults to the layer whose matrix in ``result.problem.layer_matrices``
    has the largest spectral radius.  Failed grid points yield all-NaN rows.
    """
    net = result.problem.network
    if reference_layer is None:
        reference_layer = reference_layer_by_spectral_radius(result.problem)
    check_in_range("reference layer", reference_layer, net.n_layers)
    degrees = intralayer_degrees(net)
    deg_flat = degrees.flatten(order="F")
    totals = total_degrees(net)
    ref = degrees[:, reference_layer - 1]

    rows = []
    for s, tab in enumerate(result.tableaus):
        omega = float(result.grid.values[s])
        if tab is None:
            rows.append(
                DegreeCorrelation(omega, float("nan"), float("nan"), float("nan"))
            )
            continue
        Z = tab.Z
        z_flat = Z.flatten(order="F")
        z_sum = Z.sum(axis=1)
        r_a, f_a = _safe_pearson(deg_flat, z_flat)
        r_b, f_b = _safe_pearson(totals, z_sum)
        r_c, f_c = _safe_pearson(ref, z_sum)
        rows.append(
            DegreeCorrelation(
                omega,
                r_a,
                r_b,
                r_c,
                intralayer_constant=f_a,
                total_constant=f_b,
                reference_constant=f_c,
            )
        )
    return tuple(rows)
