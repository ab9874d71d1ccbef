"""Command-line frontend.

Exit codes: 0 success, 1 usage error, 2 validation or precondition failure
(unparsable or non-finite input, a coupled operator whose scale overflows,
a coupling limit whose uniqueness precondition fails, or a solver vector
that is not nonnegative where the uniqueness preconditions fail), 3
eigensolver failure (non-convergence, or such a vector where they hold).
``centrality``, ``sweep``, ``correlate`` and ``trajectory`` warn when the
preconditions fail; the last three warn once per failed grid point too.
Usage errors include a ``blocks:`` interlayer spec with a repeated or
unknown field and a ``--grid`` of more than ``sweeps.MAX_GRID_POINTS``
points, refused before any solve.
Every subcommand reads its inputs into one ``SupraProblem`` (``versatility``'s
kind is ``PageRank`` with its ``--sigma`` and the default dangling policy),
so a bad ``--sigma`` is reported before a bad ``--interlayer`` by all of them.
All subcommands are deterministic: repeat runs with the same inputs produce
byte-identical output files.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless the variable
is already set, so the CLI runs OpenBLAS on one thread: the second thread
only spins during sparse matvecs and small vector calls, and a threaded
reduction makes the last bits of the output depend on the core count.  A
value the user set wins.  Importing the library (``import supracentrality``
or any other submodule) leaves the environment alone.  With the OpenBLAS
that numpy's and scipy's wheels ship, output files are byte-identical across
repeat runs and across core counts; other BLAS builds are untested.

:func:`main`, which the ``supracentrality`` script and ``python -m
supracentrality`` run, calls :func:`gc.freeze` before the command: the
objects the imports made move to the permanent generation, so neither a
collection during the run nor those at interpreter exit traverse them again,
while what the command makes is still collected.
Importing this module or calling :func:`dispatch` leaves the garbage
collector alone.  The collector does no arithmetic, so outputs are unchanged.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# One BLAS thread (see the module docstring for why).  OpenBLAS reads the
# variable once, when numpy or scipy loads it, so this comes before the first
# import that loads numpy; importing the package itself loads none.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import fileio
from .engine import (DEFAULT_MAX_ITER, DEFAULT_TOL, NonConvergenceError, OperatorOverflowError,
                     SupraOperator)
from .graph import check_preconditions
from .interlayer import all_to_all, block_communities, chain_teleport, chain_undirected
from .limits import (LimitPreconditionError, NotApplicableError, corollary_crosscheck,
                     strong_limit, weak_limit)
from .sweeps import (
    PROMINENCE_FRACTION,
    PreconditionFailure,
    check_in_range,
    check_prominence_fraction,
    correlate_with_degrees,
    detect_regimes,
    log_grid,
    rank_trajectory,
    solve_point,
    sweep,
)
from .types import (
    Authority,
    DanglingPolicy,
    Eigenvector,
    Hub,
    InterlayerMatrix,
    PageRank,
    SupraProblem,
)
from .versatility import DEFAULT_TOL as VERSATILITY_TOL, pagerank_versatility

__all__ = ["dispatch", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _build_kind(args):
    if args.kind == "pagerank":
        return PageRank(sigma=args.sigma, dangling=DanglingPolicy(args.dangling))
    return {"eigenvector": Eigenvector, "hub": Hub, "authority": Authority}[args.kind]()


def _load_problem(args) -> SupraProblem:
    """The coupled problem of the inputs, for every command.  The network,
    the centrality kind and the interlayer matrix are built in that order,
    so the first bad input is the one reported."""
    net = fileio.load_multiplex(
        args.network,
        node_labels_path=args.node_labels,
        layer_labels_path=args.layer_labels,
        n_nodes=args.nodes,
    )
    kind = _build_kind(args)
    return SupraProblem(net, kind, _build_interlayer(args.interlayer, net.n_layers))


def _build_interlayer(spec: str, n_layers: int) -> InterlayerMatrix:
    """Parse an --interlayer spec:
    alltoall | chain | teleport:<gamma> | blocks:<spec> | file:<path>."""
    try:
        if spec == "alltoall":
            return all_to_all(n_layers, include_self=True)
        if spec == "chain":
            return chain_undirected(n_layers)
        if spec.startswith("teleport:"):
            return chain_teleport(n_layers, float(spec.split(":", 1)[1]))
        if spec.startswith("blocks:"):
            return _parse_blocks(spec.split(":", 1)[1], n_layers)
        if spec.startswith("file:"):
            return fileio.load_interlayer(spec.split(":", 1)[1], n_layers)
    except fileio.ParseError:
        raise
    except ValueError as err:
        raise ValueError(f"bad interlayer spec {spec!r}: {err}") from err
    raise ValueError(f"unknown interlayer spec {spec!r}")


def _parse_blocks(body: str, n_layers: int) -> InterlayerMatrix:
    """Parse ``sizes=3,3;intra=1;inter=0.01``: each field exactly once, and
    a repeated or unknown field raises ValueError naming it."""
    names = ("sizes", "intra", "inter")
    fields = {}
    for item in body.split(";"):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"bad blocks field {item!r}")
        if key not in names:
            raise ValueError(f"unknown blocks field {key!r}")
        if key in fields:
            raise ValueError(f"repeated blocks field {key!r}")
        fields[key] = value.strip()
    missing = set(names) - fields.keys()
    if missing:
        raise ValueError(f"blocks spec missing {sorted(missing)}")
    sizes = tuple(int(s) for s in fields["sizes"].split(","))
    return block_communities(n_layers, sizes, float(fields["intra"]), float(fields["inter"]))


def _parse_grid(spec: str):
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"--grid expects 'lo,hi,step', got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
        return log_grid(lo, hi, step)
    except ValueError as err:
        raise ValueError(f"bad grid {spec!r}: {err}") from err


def _warn(report, failures=()) -> None:
    """Warn on stderr of failed uniqueness preconditions, then of each failed grid point."""
    if not report.both_ok:
        print("warning: uniqueness preconditions not satisfied (interlayer_ok="
              f"{report.interlayer_ok}, layer_sum_ok={report.layer_sum_ok}); computing anyway",
              file=sys.stderr)
    for index, message in failures:
        print(f"warning: grid point {index + 1} failed: {message}", file=sys.stderr)


def _cmd_check(args) -> int:
    # every omega > 0 gives the same report
    report = check_preconditions(_load_problem(args), 1.0)
    print(
        json.dumps(
            {"interlayer_ok": report.interlayer_ok, "layer_sum_ok": report.layer_sum_ok}
        )
    )
    return EXIT_OK if report.both_ok else EXIT_VALIDATION


def _cmd_centrality(args) -> int:
    problem = _load_problem(args)
    op = SupraOperator(problem, args.omega)
    report = check_preconditions(problem, op.omega)
    _warn(report)
    pair, tableau = solve_point(op, report, tol=args.tol, max_iter=args.max_iter)
    fileio.write_tableau_csv(tableau, problem.network, args.out)
    if args.summary:
        fileio.write_summary_json(args.summary, tableau, pair, report)
    return EXIT_OK


def _run_sweep(args):
    problem = _load_problem(args)
    net = problem.network
    grid = _parse_grid(args.grid)
    # trajectory's node and correlate's layer fail here, not after every solve
    if "node" in args:
        check_in_range("node", args.node, net.n_nodes)
    if getattr(args, "reference_layer", None) is not None:
        check_in_range("reference layer", args.reference_layer, net.n_layers)
    result = sweep(problem, grid, tol=args.tol, max_iter=args.max_iter)
    _warn(result.preconditions, result.failures)
    return result


def _cmd_sweep(args) -> int:
    check_prominence_fraction(args.prominence)
    result = _run_sweep(args)
    fileio.write_sweep_csv(result, args.out)
    if len(result.grid) >= 4:
        report = detect_regimes(result.z_sensitivity, result.grid, args.prominence)
        print(f"z-sensitivity peaks: {len(report.peaks)}, regimes: {len(report.intervals)}")
        for k, interval in enumerate(report.intervals, start=1):
            print(
                f"regime {k}: omega in "
                f"[{fileio.fmt(interval.omega_lo)}, {fileio.fmt(interval.omega_hi)}]"
            )
    return EXIT_OK


def _cmd_limit(args) -> int:
    problem = _load_problem(args)
    if args.which == "weak":
        res = weak_limit(problem)
        payload = {
            "which": "weak",
            "dominating_set": list(res.dominating_set),
            "lambda_max_at_zero": res.tableau.lambda_max,
            "lambda1": res.lambda1,
            "alpha": [float(v) for v in res.alpha],
            "beta": [float(v) for v in res.beta],
        }
    else:
        res = strong_limit(problem)
        payload = {
            "which": "strong",
            "mu1": res.mu1,
            "x_eigenvalue": res.x_eigenvalue,
            "v_tilde": [float(v) for v in res.v_tilde],
            "u_tilde": [float(v) for v in res.u_tilde],
            "alpha": [float(v) for v in res.alpha_tilde],
            "beta": [float(v) for v in res.beta_tilde],
        }
    payload["mnc"] = [float(v) for v in res.tableau.mnc]
    payload["mlc"] = [float(v) for v in res.tableau.mlc]
    try:
        check = corollary_crosscheck(problem)
        payload["corollary_check"] = {
            "shape": check.shape,
            "mu1_computed": check.mu1_computed,
            "mu1_closed_form": check.mu1_closed_form,
            "mu1_discrepancy": check.mu1_discrepancy,
            "x_max_discrepancy": check.x_max_discrepancy,
        }
    except NotApplicableError:
        payload["corollary_check"] = None
    fileio.write_json(args.out, payload)
    return EXIT_OK


def _cmd_correlate(args) -> int:
    rows = correlate_with_degrees(_run_sweep(args), reference_layer=args.reference_layer)
    columns = ("omega", "intralayer_vs_conditional", "total_vs_conditional_sum",
               "reference_vs_conditional_sum")
    fileio.write_csv(
        args.out,
        ["omega", "r_intralayer", "r_total", "r_reference"],
        ([fileio.fmt(getattr(row, c)) for c in columns] for row in rows),
    )
    return EXIT_OK


def _cmd_trajectory(args) -> int:
    result = _run_sweep(args)
    net = result.problem.network
    ranks = rank_trajectory(result, args.node)
    fileio.write_csv(
        args.out,
        ["omega"] + [f"rank_{net.layer_label(t)}" for t in range(1, net.n_layers + 1)],
        ([fileio.fmt(omega)] + [str(r) for r in ranks[s]]
         for s, omega in enumerate(result.grid.values)),
    )
    return EXIT_OK


def _cmd_versatility(args) -> int:
    problem = _load_problem(args)
    values = pagerank_versatility(problem, args.omega, tol=args.tol, max_iter=args.max_iter)
    fileio.write_csv(
        args.out,
        ["node", "versatility"],
        ([problem.network.node_label(i), fileio.fmt(v)] for i, v in enumerate(values, start=1)),
    )
    return EXIT_OK


def _add_kind_flags(parser) -> None:
    parser.add_argument(
        "--kind",
        choices=["eigenvector", "hub", "authority", "pagerank"],
        required=True,
        help="per-layer centrality matrix",
    )
    parser.add_argument("--sigma", type=float, default=PageRank.sigma,
                        help="PageRank teleportation")
    parser.add_argument("--dangling", choices=[policy.value for policy in DanglingPolicy],
                        default=PageRank.dangling.value,
                        help="self-edge policy for dangling nodes (PageRank)")


def _add_solver_flags(parser, tol: float = DEFAULT_TOL) -> None:
    parser.add_argument("--tol", type=float, default=tol, help="residual tolerance")
    parser.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, help="iteration budget")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--network", required=True, help="multiplex edge-list file")
    common.add_argument("--node-labels", help="node label file (index<TAB>label)")
    common.add_argument("--layer-labels", help="layer label file (index<TAB>label)")
    common.add_argument("--nodes", type=int, help="override the inferred node count")
    common.add_argument(
        "--interlayer",
        required=True,
        help="alltoall | chain | teleport:<gamma> | blocks:<spec> | file:<path>",
    )

    parser = argparse.ArgumentParser(
        prog="supracentrality",
        description="Joint, marginal, and conditional centralities for "
        "multiplex and temporal networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="run the uniqueness precondition report")
    _add_kind_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("centrality", parents=[common], help="solve at one coupling strength")
    _add_kind_flags(p)
    p.add_argument("--omega", type=float, required=True, help="interlayer coupling strength")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="joint-centrality CSV")
    p.add_argument("--summary", help="summary JSON")
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("sweep", parents=[common], help="sweep a log-grid of coupling strengths")
    _add_kind_flags(p)
    p.add_argument("--grid", required=True, help="lo,hi,step (base-10 exponents)")
    p.add_argument("--prominence", type=float, default=PROMINENCE_FRACTION,
                   help="peak prominence floor")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="sweep CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("limit", parents=[common], help="closed-form coupling limits")
    p.add_argument("--which", choices=["weak", "strong"], required=True)
    _add_kind_flags(p)
    p.add_argument("--out", required=True, help="limit JSON")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("correlate", parents=[common], help="degree correlations along a sweep")
    _add_kind_flags(p)
    p.add_argument("--grid", required=True)
    p.add_argument("--reference-layer", type=int)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("trajectory", parents=[common], help="per-layer rank trajectory of one node")
    p.add_argument("--node", type=int, required=True, help="1-based node index")
    _add_kind_flags(p)
    p.add_argument("--grid", required=True)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("versatility", parents=[common], help="PageRank versatility baseline")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--sigma", type=float, default=PageRank.sigma)
    _add_solver_flags(p, tol=VERSATILITY_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_versatility, kind="pagerank", dangling=PageRank.dangling.value)

    return parser


def _merge_grid_values(argv):
    # argparse mistakes a leading negative exponent in "--grid -2,4,0.2" for
    # an option; fold the value into the flag token
    merged, tokens = [], iter(argv)
    for token in tokens:
        if token == "--grid":
            token = next((f"--grid={value}" for value in tokens), token)
        merged.append(token)
    return merged


def dispatch(argv) -> int:
    """Parse arguments, run the selected subcommand, map errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_grid_values(list(argv)))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (fileio.ParseError, fileio.ValidationError, LimitPreconditionError,
            OperatorOverflowError, PreconditionFailure, OSError) as err:
        code, error = EXIT_VALIDATION, err
    except NonConvergenceError as err:
        code, error = EXIT_NO_CONVERGENCE, err
    except ValueError as err:  # bad flag values and specs are usage errors
        code, error = EXIT_USAGE, err
    print(f"error: {error}", file=sys.stderr)
    return code


def main() -> None:
    # the process runs one command: the import-time heap outlives it, so no
    # collection, during the run or at exit, need traverse it again
    gc.freeze()
    sys.exit(dispatch(sys.argv[1:]))
