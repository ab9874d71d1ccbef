"""Benchmark of the supracentrality CLI on seeded, generated workloads.

Run from the root of a source checkout (the package is taken from ./src):

    python3 bench/run.py --workload sweep-blocks --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every CLI command runs as a fresh child process, one at
a time, and the child's own wall time, CPU time and peak RSS are read with
``os.wait4``.  Passes over the workload's commands repeat while the next
one is expected to end within ``--seconds`` (at least three passes), and
``wall_s`` and ``cpu_s`` are means over passes and ``peak_rss_mb`` the
median.  ``setup_s`` is the median wall time of three children, one in
each of the first passes, that import the package, parse the workload's
networks and build their layer matrices.

With ``--trace 1`` one plain pass of child processes gives each command's
peak RSS, and ``tracer.py`` runs the same commands in-process with spans
around the package's public functions for the per-layer metrics.

Every output is checked for correctness and hashed; a failed check, a
nonzero exit, a failed sweep point or an output whose hash differs between
runs of the same code counts as a failed operation.  An operation is one
CLI command or one sweep grid point; ``failed_frac`` (failed over
attempted) is printed by name, and the result carries it as ``failed`` and
``attempted``.  The warm-up and set-up children are not operations: if one
of them fails the run stops with an error and prints no result.  A
per-layer metric whose wrapped function is gone reads ``null`` and is
listed as missing.  The last line of standard
output is the result as one JSON object; a detail line before it and a
file under .bench_work/results/ record the seed, the machine, the input and
output hashes and every sample.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
SETUP_SAMPLES = 3
WARMUP_ARGV = [sys.executable, "-c", "import supracentrality.cli"]
# every child must end before this many seconds into the run
RUN_DEADLINE_S = 165.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Times are means over passes: a long workload fits only three passes in a
# run, and on a shared 2-core host the mean of three moved about two thirds
# as much from run to run as their median did.
STATISTIC = {"wall_s": statistics.mean, "cpu_s": statistics.mean,
             "peak_rss_mb": statistics.median, "setup_s": statistics.median}


@dataclass(frozen=True)
class ChildRun:
    """One finished child process and what ``os.wait4`` said about it."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


class Run:
    """State of one benchmark run: environment, deadline and operation tally."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.t0 = time.perf_counter()
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                        if os.environ.get("PYTHONPATH") else "")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}

    def child(self, argv: list[str], tag: str) -> ChildRun:
        """Run one child to completion; times are the child's own."""
        out_path = os.path.join(self.workdir, f"{tag}.stdout")
        err_path = os.path.join(self.workdir, f"{tag}.stderr")
        timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.t0))
        with open(out_path, "w") as so, open(err_path, "w") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as so, open(err_path) as se:
            stdout, stderr = so.read(), se.read()
        return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, stdout, stderr)

    def record(self, label: str, problems: list[str], operations: int = 1,
               failures: int | None = None) -> None:
        """Tally ``operations`` attempts; failures default to one per problem
        list that is not empty."""
        self.attempted += operations
        if failures is None:
            failures = 1 if problems else 0
        self.failed += min(failures, operations)
        self.problems += [f"{label}: {p}" for p in problems]

    def check_hashes(self, hashes: dict[str, str]) -> list[str]:
        """Problems for each output whose hash differs from an earlier run of
        the same command; the first hash of each output is kept."""
        problems = []
        for path, digest in hashes.items():
            name = os.path.relpath(path, self.workdir)
            if digest != self.hashes.setdefault(name, digest):
                problems.append(f"{name} differs from its first run")
        return problems


def grid_failures(stderr: str) -> int:
    return sum(1 for line in stderr.splitlines()
               if line.startswith("warning: grid point") and "failed" in line)


def run_command(run: Run, cmd: workloads.Command, tag: str) -> ChildRun:
    """One CLI child: checked, hashed and tallied (checks run after the child ends)."""
    res = run.child([sys.executable, "-m", "supracentrality", *cmd.argv], tag)
    judge(run, cmd, res.code, res.stdout, res.stderr, tag)
    return res


def judge(run: Run, cmd: workloads.Command, code: int, stdout: str, stderr: str,
          tag: str, hashes: dict[str, str] | None = None) -> None:
    """Tally one command run.  Without ``hashes`` the output files on disk are
    checked and hashed; with them (in-process rounds) only their hashes are
    compared, since equal bytes were already checked."""
    problems = [f"exit code {code}: {stderr.strip()[-300:]}"] if code != 0 else []
    if hashes is None:
        hashes = {p: tracer.sha256(p) for p in cmd.outputs if os.path.isfile(p)}
        if code == 0:
            problems += cmd.check(stdout, stderr)
    bad_points = grid_failures(stderr)
    if bad_points:
        problems.append(f"{bad_points} grid points failed")
    run.record(tag, problems + run.check_hashes(hashes))
    if cmd.grid_points:
        run.record(tag, [], operations=cmd.grid_points, failures=bad_points)


def setup_sample(run: Run, inputs: workloads.Inputs, tag: str) -> float:
    """Wall time of one set-up child; a failed set-up stops the run."""
    argv = [sys.executable, os.path.join(HERE, "setup_child.py"), json.dumps(inputs.networks)]
    res = run.child(argv, tag)
    if res.code != 0:
        raise RuntimeError(f"set-up exited {res.code}: {res.stderr.strip()[-300:]}")
    if json.loads(res.stdout)["stored_entries"] <= 0:
        raise RuntimeError("set-up built empty layer matrices")
    return res.wall


def end_to_end(run: Run, inputs: workloads.Inputs, seconds: float) -> tuple[dict, dict, dict]:
    # untimed warm-up: fills the page cache and writes the bytecode caches
    warmup = run.child(WARMUP_ARGV, "warmup")
    if warmup.code != 0:
        raise RuntimeError(f"importing the package failed: {warmup.stderr.strip()[-300:]}")
    passes = []
    start = time.perf_counter()
    # a pass starts only when a pass (without set-up) is expected to end in time,
    # so a run lasts about --seconds whatever the pass length
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(p["pass_s"] for p in passes)
            <= seconds):
        # set-up is sampled inside the first passes so it sees the same machine state
        setup = (setup_sample(run, inputs, f"pass{len(passes)}-setup")
                 if len(passes) < SETUP_SAMPLES else None)
        pass_start = time.perf_counter()
        results = [run_command(run, cmd, f"pass{len(passes)}-{cmd.name}")
                   for cmd in inputs.commands]
        passes.append({
            "pass_s": time.perf_counter() - pass_start,
            "setup_s": setup,
            "wall_s": sum(r.wall for r in results),
            "cpu_s": sum(r.cpu for r in results),
            "peak_rss_mb": max(r.rss_mb for r in results),
            "commands": {c.name: {"wall_s": r.wall, "cpu_s": r.cpu, "rss_mb": r.rss_mb}
                         for c, r in zip(inputs.commands, results)},
        })
    metrics = {name: (STATISTIC[name]([p[name] for p in passes if p[name] is not None]), unit)
               for name, unit in END_TO_END.items()}
    summary = {"passes": len(passes), "setup_samples": SETUP_SAMPLES,
               "statistic": {name: f"{STATISTIC[name].__name__} over "
                             + ("set-up samples" if name == "setup_s" else "passes")
                             for name in END_TO_END}}
    return metrics, summary, {"passes": passes}


def traced(run: Run, inputs: workloads.Inputs, seconds: float) -> tuple[dict, dict, dict]:
    start = time.perf_counter()
    plain = {cmd.name: run_command(run, cmd, f"plain-{cmd.name}") for cmd in inputs.commands}
    spec = os.path.join(run.workdir, "trace_spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"commands": [{"name": c.name, "argv": list(c.argv), "outputs": list(c.outputs)}
                                for c in inputs.commands]}, fh)

    def tracer_child(mode: str, budget: float) -> dict:
        out = os.path.join(run.workdir, f"trace_{mode}.json")
        res = run.child([sys.executable, os.path.join(HERE, "tracer.py"), mode, spec, out,
                         repr(budget)], f"trace-{mode}")
        if res.code != 0:
            raise RuntimeError(f"tracer {mode} failed: {res.stderr.strip()[-500:]}")
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        for k, rnd in enumerate(data["rounds"]):
            for r, label in ((rnd, "traced"), (rnd.get("untraced"), "untraced")):
                if r is None:
                    continue
                for cmd in inputs.commands:
                    if cmd.name not in r["exit"]:
                        continue
                    judge(run, cmd, r["exit"][cmd.name], r["stdout"][cmd.name],
                          r["stderr"][cmd.name], f"{mode}{k}-{label}-{cmd.name}",
                          {p: r["hashes"].get(p, "missing") for p in cmd.outputs})
        return data

    alloc = tracer_child("alloc", 0.0)
    timing = tracer_child("time", max(0.0, seconds - (time.perf_counter() - start)))
    missing = set(alloc["missing"]) | set(timing["missing"])
    values = {**timing["metrics"], **alloc["metrics"]}
    values["cli.import_s"] = statistics.median([alloc["import_s"], timing["import_s"]])
    values["fileio.edge_lines"] = inputs.facts["edge_lines"]
    for name in tracer.COMMANDS:
        values[f"cli.{name}_rss_mb"] = plain[name].rss_mb if name in plain else 0.0
    metrics, gone = layer_metrics(values, missing)
    summary = {"rounds": len(timing["rounds"]), "statistic": "median over traced rounds",
               "missing_metrics": gone, "missing_spans": sorted(missing),
               "spans_file": os.path.relpath(os.path.join(run.workdir, "trace_time.json"),
                                             run.root)}
    return metrics, summary, {"plain": {c: vars(r) for c, r in plain.items()}}


def layer_metrics(values: dict, missing: set[str]) -> tuple[dict, list[str]]:
    """Every per-layer metric as (value, unit), and the names of those whose
    spans are all missing.  A missing metric's value is None, never 0, so it
    cannot read as a gain; a metric of a layer the workload does not run
    reads 0."""
    metrics, gone = {}, []
    for name, (unit, spans) in tracer.LAYER_METRICS.items():
        if spans and all(s in missing for s in spans):
            gone.append(name)
            metrics[name] = (None, unit)
        else:
            metrics[name] = (values.get(name, 0), unit)
    return metrics, gone


def machine_facts(root: str) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "supracentrality", "__init__.py")):
        print("error: run from a source checkout: src/supracentrality is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    workdir = os.path.join(root, ".bench_work", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = Run(root, workdir)
    inputs = workloads.WORKLOADS[args.workload].generate(args.seed, workdir)
    input_hashes = {os.path.basename(net[0]): tracer.sha256(net[0]) for net in inputs.networks}

    if args.trace:
        metrics, summary, samples = traced(run, inputs, args.seconds)
    else:
        metrics, summary, samples = end_to_end(run, inputs, args.seconds)

    failed_frac = run.failed / run.attempted
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "inputs": inputs.facts, "input_sha256": input_hashes,
        "output_sha256": run.hashes, "failed_frac": failed_frac, **summary,
        "problems": run.problems[:50], "machine": machine_facts(root),
    }
    results = os.path.join(root, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**detail, "metrics": metrics, "samples": samples}, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {'missing' if value is None else value} {unit}")
    print(f"failed_frac = {failed_frac} frac ({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    if summary.get("missing_metrics"):
        print("missing (wrapped function gone, value null): "
              + ", ".join(summary["missing_metrics"]))
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    # inputs and outputs are large and regenerated from the seed; keep the results
    for name in os.listdir(workdir):
        if not name.startswith("trace_time"):
            os.remove(os.path.join(workdir, name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
