"""Seeded workload generators, CLI command lists and output checks.

Each workload writes its input files from a seed (the same seed gives
byte-identical files), names the ``supracentrality`` CLI commands a user
would run on them, and checks every output those commands write.  A check
returns a list of problems; an empty list means the output is correct.

Sizes are chosen so that one pass of a workload's commands takes a few
seconds on a 2-core machine, which lets one benchmark run take several
samples.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SOLVER_TOL = 1e-10
N_LAYERS = 6  # sweep-blocks and the PageRank network
LIMITS_LAYERS = 4
SWEEP_GRID = "-2,4,0.2"  # 31 omega points
DANGLING_SHARE = 0.05  # share of nodes with no out-edges in a pagerank layer


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m supracentrality <argv>``.

    ``name`` keys the per-command metrics (``cli.<name>_s``); ``outputs``
    are the files the command writes; ``check(stdout, stderr)`` returns
    the problems found in what it wrote.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[str, str], list[str]]
    grid_points: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, str], "Inputs"]


@dataclass
class Inputs:
    """Generated input files plus the commands to run on them."""

    # one entry per network file, as setup_child.py takes it:
    # [path, node count, kind name, sigma or None]
    networks: list[list]
    commands: list[Command] = field(default_factory=list)
    # facts about the generated networks, recorded with each result
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------- generators


def _unique_pairs(rng, n: int, count: int, *, directed: bool) -> np.ndarray:
    """About ``count`` distinct off-diagonal (i, j) pairs, 0-based, sorted."""
    draw = int(count * 1.1) + 16
    i = rng.integers(0, n, size=draw)
    j = rng.integers(0, n, size=draw)
    keep = i != j
    i, j = i[keep], j[keep]
    if not directed:
        i, j = np.minimum(i, j), np.maximum(i, j)
    keys = np.unique(i.astype(np.int64) * n + j)[:count]
    return np.stack([keys // n, keys % n], axis=1)


def _ring(n: int, *, directed: bool) -> np.ndarray:
    i = np.arange(n)
    j = (i + 1) % n
    if not directed:
        return np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)
    return np.stack([i, j], axis=1)


def _merge(*pair_sets: np.ndarray, n: int) -> np.ndarray:
    pairs = np.concatenate(pair_sets)
    keys = np.unique(pairs[:, 0].astype(np.int64) * n + pairs[:, 1])
    return np.stack([keys // n, keys % n], axis=1)


def _write_edges(path: str, layers: list[np.ndarray]) -> int:
    """Write ``layer i j`` lines (1-based, unit weight); returns the line count."""
    lines = 0
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# layer node_i node_j\n")
        for t, pairs in enumerate(layers, start=1):
            prefix = f"{t} "
            body = "\n".join(prefix + f"{a} {b}" for a, b in (pairs + 1).tolist())
            fh.write(body + "\n")
            lines += len(pairs)
    return lines


def generate_sweep_blocks(seed: int, workdir: str, *, n: int = 200,
                          entries: int = 2000) -> Inputs:
    """Symmetric random layers plus a ring, coupled in two layer communities.

    Layer densities differ (0.6x to 1.4x the mean), so the layers' spectral
    radii differ and the sweep passes through localization, intra-block
    mixing and inter-block mixing: the two-peak structure of the paper's
    two-community instance.
    """
    rng = np.random.default_rng([seed, 1])
    t = N_LAYERS
    scale = np.linspace(0.6, 1.4, t)
    layers = []
    for s in scale:
        undirected = _unique_pairs(rng, n, int(entries * s / 2) - n, directed=False)
        pairs = _merge(undirected, _ring(n, directed=False), n=n)
        layers.append(np.concatenate([pairs, pairs[:, ::-1]]))
    network = os.path.join(workdir, "sweep.edges")
    lines = _write_edges(network, layers)
    kind = ("--kind", "eigenvector")
    inter = "blocks:sizes=3,3;intra=1;inter=0.01"
    points = _grid_points(SWEEP_GRID)
    out = os.path.join(workdir, "sweep.csv")
    cmd = Command(
        "sweep",
        ("sweep", "--network", network, *kind, "--interlayer", inter,
         "--grid", SWEEP_GRID, "--tol", repr(SOLVER_TOL), "--out", out),
        (out,),
        lambda so, se: check_sweep(out, so, se, points, n, t),
        grid_points=points,
    )
    return Inputs([[network, n, "eigenvector", None]], [cmd],
                  {"n_nodes": n, "n_layers": t, "edge_lines": lines,
                   "interlayer": inter, "grid": SWEEP_GRID, "grid_points": points})


def generate_limits_authority(seed: int, workdir: str, *, n: int = 1500,
                              edges: int = 10500) -> Inputs:
    """Directed random layers plus a directed ring, authority kind, chain coupling.

    The ring gives every node an in-neighbour, so no authority row is empty,
    and the random edges tie the co-citation graph together.
    """
    rng = np.random.default_rng([seed, 2])
    t = LIMITS_LAYERS
    layers = [
        _merge(_unique_pairs(rng, n, edges - n, directed=True), _ring(n, directed=True), n=n)
        for _ in range(t)
    ]
    network = os.path.join(workdir, "limits.edges")
    lines = _write_edges(network, layers)
    kind = ("--kind", "authority")
    base = ("--network", network, *kind, "--interlayer", "chain")
    weak = os.path.join(workdir, "limit_weak.json")
    strong = os.path.join(workdir, "limit_strong.json")
    cmds = [
        Command("check", ("check", *base), (), check_precondition_report),
        Command("limit_weak", ("limit", "--which", "weak", *base, "--out", weak), (weak,),
                lambda so, se: check_limit(weak, "weak")),
        Command("limit_strong", ("limit", "--which", "strong", *base, "--out", strong),
                (strong,), lambda so, se: check_limit(strong, "strong")),
    ]
    return Inputs([[network, n, "authority", None]], cmds,
                  {"n_nodes": n, "n_layers": t, "edge_lines": lines, "interlayer": "chain"})


def generate_pagerank_temporal(seed: int, workdir: str, *, n: int = 6000,
                               edges: int = 30000) -> Inputs:
    """Directed temporal layers with dangling nodes, PageRank kind, teleport chain.

    In every layer a random 5% of the nodes get no out-edges (dangling), so
    the dangling policy is exercised; the rest have at least one.
    """
    rng = np.random.default_rng([seed, 3])
    sigma, omega, gamma = 0.85, 1.0, 0.01
    inter = f"teleport:{gamma}"
    layers = []
    for _ in range(N_LAYERS):
        pairs = _unique_pairs(rng, n, edges, directed=True)
        is_dangling = rng.random(n) < DANGLING_SHARE
        pairs = pairs[~is_dangling[pairs[:, 0]]]
        # every non-dangling node links somewhere
        src = np.flatnonzero(~is_dangling)
        dst = (src + 1 + rng.integers(0, n - 1, size=src.size)) % n
        layers.append(_merge(pairs, np.stack([src, dst], axis=1), n=n))
    network = os.path.join(workdir, "pagerank.edges")
    lines = _write_edges(network, layers)
    kind = ("--kind", "pagerank", "--sigma", repr(sigma))
    base = ("--network", network, "--nodes", str(n), "--interlayer", inter,
            "--omega", repr(omega), "--tol", repr(SOLVER_TOL))
    joint = os.path.join(workdir, "joint.csv")
    summary = os.path.join(workdir, "summary.json")
    vers = os.path.join(workdir, "versatility.csv")
    cmds = [
        Command("centrality", ("centrality", *base, *kind, "--out", joint, "--summary", summary),
                (joint, summary),
                lambda so, se: check_centrality(joint, summary, layers, n, sigma, omega, gamma)),
        Command("versatility", ("versatility", *base, "--sigma", repr(sigma), "--out", vers),
                (vers,), lambda so, se: check_versatility(vers, n)),
    ]
    return Inputs([[network, n, "pagerank", sigma]], cmds,
                  {"n_nodes": n, "n_layers": N_LAYERS, "edge_lines": lines, "interlayer": inter,
                   "sigma": sigma, "omega": omega,
                   "dangling_node_layers": int(sum(n - len(np.unique(p[:, 0])) for p in layers))})


def _grid_points(spec: str) -> int:
    lo, hi, step = (float(v) for v in spec.split(","))
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def generate_limits_pagerank(seed: int, workdir: str, *, limits_n: int = 1500,
                             limits_edges: int = 10500, pagerank_n: int = 6000,
                             pagerank_edges: int = 30000) -> Inputs:
    """The single-coupling uses of the paper, one network each, in one run.

    The authority network goes through ``check`` and both closed-form limits
    (the dense N x N allocations, no coupled solve); the PageRank network
    through ``centrality`` and ``versatility`` (parse, validate and write,
    one large cold solve).  They share a workload so that, for the same
    total benchmark time, each run measures both for twice as long as two
    separate workloads could: on a shared 2-core host the run-to-run spread
    of the timings needs that.
    """
    limits = generate_limits_authority(seed, workdir, n=limits_n, edges=limits_edges)
    pagerank = generate_pagerank_temporal(seed, workdir, n=pagerank_n, edges=pagerank_edges)
    return Inputs(limits.networks + pagerank.networks, limits.commands + pagerank.commands,
                  {"edge_lines": limits.facts["edge_lines"] + pagerank.facts["edge_lines"],
                   "limits": limits.facts, "pagerank": pagerank.facts})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-blocks",
                 "two-community blocks coupling swept over 31 omegas: many small "
                 "warm-started solves and operator rebuilds",
                 generate_sweep_blocks),
        Workload("limits-pagerank",
                 "authority layers through check and both closed-form limits (dense N x N, "
                 "no coupled solve), then a large PageRank network: parse, write, one cold solve",
                 generate_limits_pagerank),
    )
}


# -------------------------------------------------------------------- checks


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def check_sweep(path: str, stdout: str, stderr: str, points: int, n: int, t: int) -> list[str]:
    """31 finite rows, lambda_max nondecreasing, at least two z-sensitivity peaks."""
    problems = []
    header, rows = _read_csv(path)
    width = 4 + t + n
    if len(header) != width:
        problems.append(f"sweep csv has {len(header)} columns, expected {width}")
    if len(rows) != points:
        problems.append(f"sweep csv has {len(rows)} rows, expected {points}")
    if problems:
        return problems
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as err:
        return [f"sweep csv has a non-numeric field: {err}"]
    if data.shape != (points, width):
        return [f"sweep csv is ragged: shape {data.shape}"]
    body = np.delete(data, [2, 3], axis=1)
    if not np.all(np.isfinite(body)) or not np.all(np.isfinite(data[1:, 2:4])):
        problems.append("sweep csv has non-finite values")
    lam = data[:, 1]
    # nondecreasing up to the solver's relative tolerance on each eigenvalue
    drops = lam[:-1] - lam[1:] - 10 * SOLVER_TOL * np.abs(lam[:-1])
    if np.any(drops > 0):
        problems.append(f"lambda_max decreases at grid index {int(np.argmax(drops > 0)) + 1}")
    peaks = None
    for line in stdout.splitlines():
        if line.startswith("z-sensitivity peaks:"):
            peaks = int(line.split(":")[1].split(",")[0])
    if peaks is None:
        problems.append("sweep printed no z-sensitivity peak count")
    elif peaks < 2:
        problems.append(f"sweep found {peaks} z-sensitivity peaks, expected at least 2")
    return problems


def check_precondition_report(stdout: str, stderr: str) -> list[str]:
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return ["check printed no JSON report"]
    if report != {"interlayer_ok": True, "layer_sum_ok": True}:
        return [f"check report is {report}, expected both flags true"]
    return []


def check_limit(path: str, which: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as err:
        return [f"limit {which} json unreadable: {err}"]
    problems = []
    if payload.get("which") != which:
        problems.append(f"limit json says which={payload.get('which')!r}")
    cc = payload.get("corollary_check") or {}
    if cc.get("shape") != "chain":
        problems.append(f"corollary check shape is {cc.get('shape')!r}, expected 'chain'")
    for key in ("mu1_discrepancy", "x_max_discrepancy"):
        value = cc.get(key)
        if not isinstance(value, (int, float)) or not value <= 1e-9:
            problems.append(f"corollary {key} = {value!r} exceeds 1e-9")
    if which == "weak" and not payload.get("dominating_set"):
        problems.append("weak limit has an empty dominating set")
    alpha = np.array(payload.get("alpha") or [], dtype=float)
    if alpha.size == 0 or not abs(float(np.linalg.norm(alpha)) - 1.0) <= 1e-9:
        problems.append(f"limit {which} alpha is not unit norm")
    return problems


def _pagerank_supra(layers: list[np.ndarray], n: int, sigma: float, omega: float,
                    gamma: float):
    """Matvec of the coupled PageRank operator, built from the generator's own
    edge arrays (not from the package): column-stochastic layer blocks with
    self-loops on dangling nodes, uniform teleportation, and the directed
    teleport chain (1 on t -> t+1, gamma elsewhere) scaled by omega."""
    from scipy import sparse

    t = len(layers)
    blocks = []
    for pairs in layers:
        a = sparse.csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
        out = np.asarray(a.sum(axis=1)).ravel()
        a = a + sparse.diags((out == 0).astype(float))
        out[out == 0] = 1.0
        blocks.append((sigma * (sparse.diags(1.0 / out) @ a).T).tocsr())
    diag = sparse.block_diag(blocks, format="csr")
    inter = np.full((t, t), gamma)
    inter[np.arange(t - 1), np.arange(1, t)] = 1.0

    def apply(x: np.ndarray) -> np.ndarray:
        xb = x.reshape(t, n)
        y = (diag @ x).reshape(t, n)
        y += ((1.0 - sigma) / n) * xb.sum(axis=1)[:, None]
        y += omega * (inter @ xb)
        return y.ravel()

    return apply


def check_centrality(joint: str, summary: str, layers: list[np.ndarray], n: int,
                     sigma: float, omega: float, gamma: float) -> list[str]:
    """Summary residual <= tol * lambda, and an independent residual of the
    joint centralities read back from the CSV."""
    from supracentrality import fileio

    try:
        with open(summary, encoding="utf-8") as fh:
            info = json.load(fh)
        lam, residual = float(info["lambda_max"]), float(info["residual"])
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"summary json unreadable: {err}"]
    problems = []
    if not residual <= SOLVER_TOL * abs(lam):
        problems.append(f"summary residual {residual:.3e} exceeds tol*lambda")
    try:
        _, layer_labels, W = fileio.read_tableau_csv(joint)
    except (OSError, ValueError, StopIteration) as err:
        return problems + [f"joint csv unreadable: {err}"]
    t = len(layers)
    if W.shape != (n, t) or len(layer_labels) != t:
        return problems + [f"joint csv has shape {W.shape}, expected {(n, t)}"]
    if not np.all(np.isfinite(W)) or W.min() < 0:
        return problems + ["joint csv has negative or non-finite values"]
    v = W.T.ravel()
    apply = _pagerank_supra(layers, n, sigma, omega, gamma)
    indep = float(np.linalg.norm(apply(v) - lam * v))
    # the written vector is the converged iterate after sign fixing,
    # renormalisation and 17-digit rounding, so allow 10x the solver tolerance
    if not indep <= 10 * SOLVER_TOL * abs(lam):
        problems.append(f"independent residual {indep:.3e} exceeds 10*tol*lambda")
    return problems


def check_versatility(path: str, n: int) -> list[str]:
    header, rows = _read_csv(path)
    if header != ["node", "versatility"] or len(rows) != n:
        return [f"versatility csv has header {header[:2]} and {len(rows)} rows, expected {n}"]
    try:
        values = np.array([float(r[1]) for r in rows])
    except (ValueError, IndexError) as err:
        return [f"versatility csv has a bad row: {err}"]
    problems = []
    if not np.all(np.isfinite(values)) or values.min() < 0:
        problems.append("versatility has negative or non-finite values")
    if not abs(float(values.sum()) - 1.0) <= 1e-9:
        problems.append(f"versatility sums to {values.sum()!r}, not 1")
    return problems
