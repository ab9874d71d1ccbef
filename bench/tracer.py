"""In-process traced run of a workload's CLI commands.

Drives ``supracentrality.cli.dispatch(argv)`` with the same arguments as
the untraced child processes and records spans by wrapping public
functions where their callers look them up.  Spans (name, start, end,
parent, counts) stay in memory and are written out at the end.

Two modes, each run in a fresh process:

* ``time``: alternates untraced and traced rounds of all commands until
  the time budget is spent, and reports per-layer times and counts as the
  median over traced rounds, plus the tracing overhead.
* ``alloc``: one round with ``tracemalloc`` switched on only inside the
  spans that report an allocation peak, with ``reset_peak()`` per span.
  Times are never taken from this mode: tracemalloc slows allocation-heavy
  code several-fold.

A wrapper whose target no longer exists is skipped and the metrics that
depend on it are reported as missing; the untraced runs never use the
wrappers.

    python3 bench/tracer.py time|alloc SPEC.json OUT.json SECONDS
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import statistics
import sys
import time
import tracemalloc

PKG = "supracentrality"
MB = 1024.0 * 1024.0

# (span name, module that defines the target, attribute, modules whose
# global the callers look up; "*" means every package module holding the
# same object, alloc: whether the span reports an allocation peak)
WRAPS = [
    ("fileio.load_multiplex", "fileio", "load_multiplex", ("fileio",), False),
    ("types.validate_network", "types", "validate_network", ("fileio",), False),
    ("fileio.write", "fileio", "write_tableau_csv", ("fileio",), False),
    ("fileio.write", "fileio", "write_summary_json", ("fileio",), False),
    ("fileio.write", "fileio", "write_sweep_csv", ("fileio",), False),
    ("centrality.build", "centrality", "build_centrality_matrix", "*", False),
    ("graph.check_preconditions", "graph", "check_preconditions", "*", True),
    ("engine.operator_build", "engine", "SupraOperator", "*", False),
    ("engine.solve", "engine", "dominant_eigenpair", "*", False),
    ("engine.tableau", "engine", "tableau_from_vector", "*", False),
    ("sweeps.sweep", "sweeps", "sweep", ("cli",), False),
    ("sweeps.detect_regimes", "sweeps", "detect_regimes", ("cli",), False),
    ("limits.layer_eigendata", "limits", "layer_eigendata", "*", True),
    ("limits.weak_limit", "limits", "weak_limit", ("cli",), True),
    ("limits.strong_limit", "limits", "strong_limit", ("cli", "limits"), True),
    ("limits.corollary_crosscheck", "limits", "corollary_crosscheck", ("cli",), True),
    ("limits.power", "engine", "shifted_power_iteration", ("limits",), False),
    ("versatility.pagerank_versatility", "versatility", "pagerank_versatility", ("cli",), True),
    ("versatility.power", "engine", "shifted_power_iteration", ("versatility",), False),
]

COMMANDS = ("sweep", "check", "limit_weak", "limit_strong", "centrality", "versatility")
# commands whose CLI path reaches a span that reports an allocation peak
ALLOC_COMMANDS = ("check", "limit_weak", "limit_strong", "versatility")

# per-layer metric -> (unit, span names it needs)
LAYER_METRICS = {
    "cli.import_s": ("s", ()),
    **{f"cli.{c}_s": ("s", ()) for c in COMMANDS},
    **{f"cli.{c}_rss_mb": ("MB", ()) for c in COMMANDS},
    "fileio.load_multiplex_s": ("s", ("fileio.load_multiplex",)),
    "fileio.edge_lines": ("count", ()),
    "types.validate_network_s": ("s", ("types.validate_network",)),
    "fileio.write_s": ("s", ("fileio.write",)),
    "fileio.bytes_written": ("B", ("fileio.write",)),
    "centrality.build_s": ("s", ("centrality.build",)),
    "centrality.stored_entries": ("count", ("centrality.build",)),
    "graph.check_preconditions_s": ("s", ("graph.check_preconditions",)),
    "graph.alloc_mb": ("MB", ("graph.check_preconditions",)),
    "engine.solve_s": ("s", ("engine.solve",)),
    "engine.solves": ("count", ("engine.solve",)),
    "engine.iterations": ("count", ("engine.solve",)),
    "engine.iterations_max": ("count", ("engine.solve",)),
    "engine.us_per_iteration": ("us", ("engine.solve",)),
    "engine.matvec_bytes_computed": ("B", ("engine.solve",)),
    "engine.operator_build_s": ("s", ("engine.operator_build",)),
    "engine.operator_builds": ("count", ("engine.operator_build",)),
    "engine.tableau_s": ("s", ("engine.tableau",)),
    "sweeps.sweep_s": ("s", ("sweeps.sweep",)),
    "sweeps.self_s": ("s", ("sweeps.sweep",)),
    "sweeps.detect_regimes_s": ("s", ("sweeps.detect_regimes",)),
    "sweeps.points": ("count", ("sweeps.sweep",)),
    "sweeps.failed_points": ("count", ("sweeps.sweep",)),
    "limits.layer_eigendata_s": ("s", ("limits.layer_eigendata",)),
    "limits.weak_limit_s": ("s", ("limits.weak_limit",)),
    "limits.strong_limit_s": ("s", ("limits.strong_limit",)),
    "limits.strong_limit_calls": ("count", ("limits.strong_limit",)),
    "limits.corollary_crosscheck_s": ("s", ("limits.corollary_crosscheck",)),
    "limits.iterations": ("count", ("limits.power",)),
    "limits.alloc_mb": ("MB", ("limits.layer_eigendata", "limits.weak_limit",
                               "limits.strong_limit", "limits.corollary_crosscheck")),
    "versatility.pagerank_versatility_s": ("s", ("versatility.pagerank_versatility",)),
    "versatility.iterations": ("count", ("versatility.power",)),
    "versatility.alloc_mb": ("MB", ("versatility.pagerank_versatility",)),
    "trace.overhead_s": ("s", ()),
}


class Tracer:
    """Span recorder.  In alloc mode each span also records the tracemalloc
    peak above its entry level; tracemalloc runs only inside spans."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._peaks: list[list[int]] = []  # [current at entry, peak so far]

    def span(self, name: str, fn, args, kwargs):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        if self.alloc:
            self._enter_alloc()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if self.alloc:
                record["alloc_bytes"] = self._exit_alloc()
        try:
            _count(record, name, args, result)
        except (AttributeError, TypeError) as err:  # a public result changed shape
            record["count_error"] = str(err)
        return result

    def _enter_alloc(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([current, current])

    def _exit_alloc(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        entry, inner = self._peaks.pop()
        peak = max(peak, inner)
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        else:
            tracemalloc.stop()
        return peak - entry


def _count(record: dict, name: str, args, result) -> None:
    """Counts taken at the span boundary from public results and array sizes."""
    if name in ("engine.solve", "limits.power", "versatility.power"):
        record["iterations"] = int(result.iterations)
    if name == "engine.solve" and args:
        op = args[0]
        csr = sum(m.sparse.data.nbytes + m.sparse.indices.nbytes + m.sparse.indptr.nbytes
                  for m in op.layers)
        # computed, not measured: the layer CSR arrays plus the input and
        # output vectors, once per matvec
        record["matvec_bytes"] = (csr + 2 * 8 * op.dim) * int(result.iterations)
    elif name == "centrality.build":
        record["nnz"] = int(result.sparse.nnz)
    elif name == "sweeps.sweep":
        record["points"] = len(result.grid)
        record["failed_points"] = len(result.failures)
    elif name == "fileio.write":
        record["bytes"] = sum(os.path.getsize(a) for a in args
                              if isinstance(a, (str, os.PathLike)) and os.path.isfile(a))


def install(tracer: Tracer, alloc_only: bool) -> tuple[list, set[str]]:
    """Patch the wrappers in; returns (undo list, span names whose target is gone)."""
    modules = {}
    for name in ("cli", "fileio", "types", "centrality", "graph", "engine", "sweeps",
                 "limits", "versatility"):
        try:
            modules[name] = importlib.import_module(f"{PKG}.{name}")
        except ModuleNotFoundError:
            pass
    undo, failed, installed = [], set(), set()
    for span, home, attr, callers, alloc in WRAPS:
        if alloc_only and not alloc:
            continue
        target = getattr(modules.get(home), attr, None)
        names = list(modules) if callers == "*" else [m for m in callers if m in modules]
        holders = [modules[m] for m in names if getattr(modules[m], attr, None) is target]
        if target is None or not holders:
            failed.add(span)
            continue
        installed.add(span)
        wrapper = _make_wrapper(tracer, span, target)
        for mod in holders:
            undo.append((mod, attr, target))
            setattr(mod, attr, wrapper)
    # a span is missing only when every wrap that feeds it is gone
    return undo, failed - installed


def _make_wrapper(tracer: Tracer, span: str, target):
    def wrapper(*args, **kwargs):
        return tracer.span(span, target, args, kwargs)

    return wrapper


def uninstall(undo: list) -> None:
    for mod, attr, target in reversed(undo):
        setattr(mod, attr, target)


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_round(dispatch, commands: list[dict], tracer: Tracer | None) -> dict:
    """Dispatch every command once; returns per-command seconds, exit codes,
    captured output and output hashes."""
    out = {"seconds": {}, "exit": {}, "stdout": {}, "stderr": {}, "hashes": {}}
    for cmd in commands:
        so, se = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            t0 = time.perf_counter()
            if tracer is None:
                code = dispatch(cmd["argv"])
            else:
                code = tracer.span(f"cli.{cmd['name']}", dispatch, (cmd["argv"],), {})
            out["seconds"][cmd["name"]] = time.perf_counter() - t0
        out["exit"][cmd["name"]] = code
        out["stdout"][cmd["name"]] = so.getvalue()
        out["stderr"][cmd["name"]] = se.getvalue()
        for path in cmd["outputs"]:
            if os.path.isfile(path):
                out["hashes"][path] = sha256(path)
    return out


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` that are not nested inside another span of that name."""
    picked = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p is None:
            picked.append(s)
    return picked


def round_metrics(spans: list[dict]) -> dict:
    """Per-layer times and counts of one traced round."""

    def total(name, key=None):
        chosen = _outermost(spans, name)
        if key is None:
            return sum(s["end"] - s["start"] for s in chosen)
        return sum(s.get(key, 0) for s in chosen)

    solves = _outermost(spans, "engine.solve")
    builds = _outermost(spans, "centrality.build")
    sweeps_ = _outermost(spans, "sweeps.sweep")
    index = {id(s): k for k, s in enumerate(spans)}
    sweep_ids = {index[id(s)] for s in sweeps_}
    child_time = sum(s["end"] - s["start"] for s in spans if s["parent"] in sweep_ids)
    iterations = total("engine.solve", "iterations")
    solve_s = total("engine.solve")
    m = {f"cli.{c}_s": total(f"cli.{c}") for c in COMMANDS}
    m.update({
        "fileio.load_multiplex_s": total("fileio.load_multiplex"),
        "types.validate_network_s": total("types.validate_network"),
        "fileio.write_s": total("fileio.write"),
        "fileio.bytes_written": total("fileio.write", "bytes"),
        "centrality.build_s": total("centrality.build"),
        # one matrix set: the first build of each layer in the round
        "centrality.stored_entries": _first_set_nnz(spans, builds),
        "graph.check_preconditions_s": total("graph.check_preconditions"),
        "engine.solve_s": solve_s,
        "engine.solves": len(solves),
        "engine.iterations": iterations,
        "engine.iterations_max": max((s["iterations"] for s in solves), default=0),
        "engine.us_per_iteration": 1e6 * solve_s / iterations if iterations else 0.0,
        "engine.matvec_bytes_computed": total("engine.solve", "matvec_bytes"),
        "engine.operator_build_s": total("engine.operator_build"),
        "engine.operator_builds": len(_outermost(spans, "engine.operator_build")),
        "engine.tableau_s": total("engine.tableau"),
        "sweeps.sweep_s": total("sweeps.sweep"),
        "sweeps.self_s": total("sweeps.sweep") - child_time,
        "sweeps.detect_regimes_s": total("sweeps.detect_regimes"),
        "sweeps.points": total("sweeps.sweep", "points"),
        "sweeps.failed_points": total("sweeps.sweep", "failed_points"),
        "limits.layer_eigendata_s": total("limits.layer_eigendata"),
        "limits.weak_limit_s": total("limits.weak_limit"),
        "limits.strong_limit_s": total("limits.strong_limit"),
        "limits.strong_limit_calls": len([s for s in spans if s["name"] == "limits.strong_limit"]),
        "limits.corollary_crosscheck_s": total("limits.corollary_crosscheck"),
        "limits.iterations": total("limits.power", "iterations"),
        "versatility.pagerank_versatility_s": total("versatility.pagerank_versatility"),
        "versatility.iterations": total("versatility.power", "iterations"),
    })
    return m


def _first_set_nnz(spans: list[dict], builds: list[dict]) -> int:
    """Stored entries of the matrices built by the first command that builds any."""
    if not builds:
        return 0
    first_cmd = _root(spans, builds[0])
    return sum(s.get("nnz", 0) for s in builds if _root(spans, s) is first_cmd)


def _root(spans: list[dict], span: dict) -> dict:
    while span["parent"] is not None:
        span = spans[span["parent"]]
    return span


def alloc_metrics(spans: list[dict]) -> dict:
    def peak(*names):
        values = [s["alloc_bytes"] for s in spans if s["name"] in names]
        return max(values, default=0) / MB

    return {
        "graph.alloc_mb": peak("graph.check_preconditions"),
        "limits.alloc_mb": peak("limits.layer_eigendata", "limits.weak_limit",
                                "limits.strong_limit", "limits.corollary_crosscheck"),
        "versatility.alloc_mb": peak("versatility.pagerank_versatility"),
    }


def main(argv: list[str]) -> int:
    mode, spec_path, out_path, budget = argv[0], argv[1], argv[2], float(argv[3])
    with open(spec_path, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    t0 = time.perf_counter()
    from supracentrality import cli

    import_s = time.perf_counter() - t0
    result = {"mode": mode, "import_s": import_s, "rounds": []}
    if mode == "alloc":
        tracer = Tracer(alloc=True)
        undo, missing = install(tracer, alloc_only=True)
        try:
            # no span around dispatch: tracemalloc must stay off in parsing
            rnd = run_round(cli.dispatch, [c for c in commands if c["name"] in ALLOC_COMMANDS],
                            None)
        finally:
            uninstall(undo)
        rnd["spans"] = tracer.spans
        result["rounds"].append(rnd)
        result["metrics"] = alloc_metrics(tracer.spans)
        result["missing"] = sorted(missing)
    else:
        start = time.perf_counter()
        missing: set[str] = set()
        while not result["rounds"] or time.perf_counter() - start < budget:
            plain = run_round(cli.dispatch, commands, None)
            tracer = Tracer()
            undo, missing = install(tracer, alloc_only=False)
            try:
                traced = run_round(cli.dispatch, commands, tracer)
            finally:
                uninstall(undo)
            traced["metrics"] = round_metrics(tracer.spans)
            traced["spans"] = tracer.spans
            traced["untraced"] = plain
            result["rounds"].append(traced)
        result["missing"] = sorted(missing)
        per_round = [r["metrics"] for r in result["rounds"]]
        # counts repeat exactly, so the low median keeps them whole numbers
        result["metrics"] = {
            k: (statistics.median if LAYER_METRICS[k][0] in ("s", "us") else
                statistics.median_low)(m[k] for m in per_round)
            for k in per_round[0]
        }
        traced_total = statistics.median(sum(r["seconds"].values()) for r in result["rounds"])
        plain_total = statistics.median(
            sum(r["untraced"]["seconds"].values()) for r in result["rounds"])
        result["metrics"]["trace.overhead_s"] = traced_total - plain_total
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
