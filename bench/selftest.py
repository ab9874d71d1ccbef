"""Self-test of the benchmark at tiny sizes (about a minute).

Run from the root of a source checkout:

    python3 bench/selftest.py

Checks that the generators are deterministic in the seed, that every
output check accepts a correct output and rejects a corrupted one (so the
checks are not vacuous), that a changed output hash counts as a failure,
that the traced run reports a vanished wrapper target as missing instead of
crashing, and that both modes of run.py emit exactly the metrics named in
BENCHMARK.json with their units.
"""
from __future__ import annotations

import contextlib
import filecmp
import functools
import io
import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sweep-blocks": {"n": 40, "entries": 400},
    "limits-pagerank": {"limits_n": 80, "limits_edges": 560,
                        "pagerank_n": 300, "pagerank_edges": 1500},
}
SEED = 7_000_001
WORK = os.path.join(ROOT, ".bench_work", "selftest")


def generate(name: str, seed: int, workdir: str) -> workloads.Inputs:
    os.makedirs(workdir, exist_ok=True)
    return workloads.WORKLOADS[name].generate(seed, workdir, **TINY[name])


def dispatch(cmd: workloads.Command) -> tuple[int, str, str]:
    from supracentrality import cli

    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        code = cli.dispatch(list(cmd.argv))
    return code, so.getvalue(), se.getvalue()


def rejects(cmd: workloads.Command, stdout: str, stderr: str, path: str, corrupt) -> None:
    """Corrupt one output file, assert the check flags it, then restore it."""
    backup = path + ".orig"
    shutil.copyfile(path, backup)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(corrupt(text))
        problems = cmd.check(stdout, stderr)
        assert problems, f"{cmd.name}: check accepted a corrupted {os.path.basename(path)}"
    finally:
        shutil.move(backup, path)


def truncate(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-2])


def edit_csv(row: int, col: int, fn):
    def corrupt(text: str) -> str:
        lines = text.splitlines()
        fields = lines[row].split(",")
        fields[col] = repr(fn(float(fields[col])))
        lines[row] = ",".join(fields)
        return "\n".join(lines) + "\n"

    return corrupt


def edit_json(fn):
    def corrupt(text: str) -> str:
        payload = json.loads(text)
        fn(payload)
        return json.dumps(payload)

    return corrupt


def test_generators_are_seeded() -> None:
    for name in TINY:
        a = generate(name, SEED, os.path.join(WORK, "gen-a"))
        b = generate(name, SEED, os.path.join(WORK, "gen-b"))
        c = generate(name, SEED + 1, os.path.join(WORK, "gen-c"))
        for na, nb, nc in zip(a.networks, b.networks, c.networks):
            assert filecmp.cmp(na[0], nb[0], shallow=False), f"{name}: seed not reproducible"
            assert not filecmp.cmp(na[0], nc[0], shallow=False), f"{name}: seed ignored"


def test_checks_reject_corruption() -> None:
    outs = {}
    for name in TINY:
        inputs = generate(name, SEED, os.path.join(WORK, name))
        for cmd in inputs.commands:
            code, so, se = dispatch(cmd)
            assert code == 0, f"{cmd.name} exited {code}: {se}"
            assert cmd.check(so, se) == [], f"{cmd.name}: {cmd.check(so, se)}"
            outs[cmd.name] = (cmd, so, se)

    cmd, so, se = outs["sweep"]
    csv_path = cmd.outputs[0]
    rejects(cmd, so, se, csv_path, truncate)
    rejects(cmd, so, se, csv_path, edit_csv(5, 1, lambda lam: lam * 0.5))  # lambda drops
    rejects(cmd, so, se, csv_path, edit_csv(3, 6, lambda v: float("nan")))
    assert cmd.check(so.replace("peaks: 2", "peaks: 1").replace("peaks: 3", "peaks: 1"), se)

    cmd, so, se = outs["check"]
    assert cmd.check(so.replace('"layer_sum_ok": true', '"layer_sum_ok": false'), se)
    assert cmd.check("", se)

    for which in ("limit_weak", "limit_strong"):
        cmd, so, se = outs[which]
        path = cmd.outputs[0]
        rejects(cmd, so, se, path, truncate)
        rejects(cmd, so, se, path, edit_json(
            lambda p: p["corollary_check"].update(mu1_discrepancy=1e-6)))
        rejects(cmd, so, se, path, edit_json(
            lambda p: p["corollary_check"].update(x_max_discrepancy=1e-6)))
        rejects(cmd, so, se, path, edit_json(lambda p: p["corollary_check"].update(shape="x")))
        rejects(cmd, so, se, path, edit_json(
            lambda p: p.update(alpha=[1.1 * a for a in p["alpha"]])))
    cmd, so, se = outs["limit_weak"]
    rejects(cmd, so, se, cmd.outputs[0], edit_json(lambda p: p.update(dominating_set=[])))

    cmd, so, se = outs["centrality"]
    joint, summary = cmd.outputs
    rejects(cmd, so, se, joint, truncate)
    rejects(cmd, so, se, joint, edit_csv(4, 2, lambda v: v * (1 + 1e-6)))  # perturbed eigenvector
    rejects(cmd, so, se, summary, edit_json(lambda p: p.update(residual=p["lambda_max"] * 1e-8)))
    rejects(cmd, so, se, summary, edit_json(lambda p: p.update(lambda_max=p["lambda_max"] * 1.001)))

    cmd, so, se = outs["versatility"]
    path = cmd.outputs[0]
    rejects(cmd, so, se, path, truncate)
    rejects(cmd, so, se, path, edit_csv(3, 1, lambda v: -v))
    rejects(cmd, so, se, path, edit_csv(3, 1, lambda v: v + 1e-6))


def test_hash_change_is_a_failure() -> None:
    r = run.Run(ROOT, WORK)
    out = os.path.join(WORK, "out.csv")
    cmd = workloads.Command("c", (), (), lambda so, se: [])
    run.judge(r, cmd, 0, "", "", "a", {out: "1" * 64})
    run.judge(r, cmd, 0, "", "", "b", {out: "1" * 64})
    assert r.failed == 0 and r.attempted == 2
    run.judge(r, cmd, 0, "", "", "c", {out: "2" * 64})
    assert r.failed == 1 and r.attempted == 3


def test_missing_wrap_target_is_reported() -> None:
    from supracentrality import limits

    saved = limits.shifted_power_iteration
    del limits.shifted_power_iteration
    try:
        undo, missing = tracer.install(tracer.Tracer(), alloc_only=False)
        tracer.uninstall(undo)
    finally:
        limits.shifted_power_iteration = saved
    assert missing == {"limits.power"}, missing
    metrics, gone = run.layer_metrics({"limits.iterations": 0}, missing)
    assert gone == ["limits.iterations"], gone
    assert metrics["limits.iterations"] == (None, "count")
    assert all(v is not None for k, (v, _) in metrics.items() if k != "limits.iterations")


def test_run_emits_named_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    saved_passes, saved = run.MIN_PASSES, dict(workloads.WORKLOADS)
    run.MIN_PASSES = 1
    try:
        for name, sizes in TINY.items():
            w = saved[name]
            workloads.WORKLOADS[name] = workloads.Workload(
                w.name, w.why, functools.partial(w.generate, **sizes))
            for trace in (0, 1):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", name, "--seed", str(SEED),
                                     "--seconds", "0", "--trace", str(trace)])
                result = json.loads(out.getvalue().splitlines()[-1])
                assert code == 0
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                assert result["correct"] and result["failed"] == 0, out.getvalue()
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert got == expected[trace], (name, trace, set(got) ^ set(expected[trace]))
                for key, metric in result["metrics"].items():
                    assert isinstance(metric["value"], (int, float)), key
                    assert np.isfinite(metric["value"]), key
                if trace == 0:
                    assert all(result["metrics"][k]["value"] > 0 for k in expected[0])
    finally:
        run.MIN_PASSES = saved_passes
        workloads.WORKLOADS.update(saved)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    tests = [test_generators_are_seeded, test_checks_reject_corruption,
             test_hash_change_is_a_failure, test_missing_wrap_target_is_reported,
             test_run_emits_named_metrics]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
