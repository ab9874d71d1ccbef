"""The in-process tracer of ``bench/tracer.py`` still finds every function it wraps.

The tracer patches wrappers onto library functions where their callers look
them up.  A call that moves to another function or module leaves its
metric at zero without any error, so this drives one traced round of the
commands the benchmark runs and checks that every wrapped span fired.
"""
import pathlib
import types

import numpy as np

from supracentrality.cli import dispatch

from _oracles import random_layer

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    # executed from its source text, so nothing is written next to it
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_records_every_wrapped_span(tmp_path):
    tracer = _load_tracer()
    rng = np.random.default_rng(0)
    net = tmp_path / "net.edges"
    net.write_text(
        "".join(f"{t} {i} {j} {w!r}\n" for t in (1, 2, 3)
                for i, j, w in random_layer(rng, 4, density=0.55, with_cycle=True).entries),
        encoding="utf-8",
    )
    base = ["--network", str(net), "--interlayer", "chain"]
    kind = ["--kind", "eigenvector"]
    out = {name: str(tmp_path / name) for name in ("sweep.csv", "weak.json", "strong.json",
                                                   "joint.csv", "summary.json", "vers.csv")}
    commands = [
        {"name": "sweep", "outputs": [out["sweep.csv"]],
         "argv": ["sweep", *base, *kind, "--grid", "-1,1,0.5", "--out", out["sweep.csv"]]},
        {"name": "check", "outputs": [], "argv": ["check", *base, *kind]},
        {"name": "limit_weak", "outputs": [out["weak.json"]],
         "argv": ["limit", "--which", "weak", *base, *kind, "--out", out["weak.json"]]},
        {"name": "limit_strong", "outputs": [out["strong.json"]],
         "argv": ["limit", "--which", "strong", *base, *kind, "--out", out["strong.json"]]},
        {"name": "centrality", "outputs": [out["joint.csv"], out["summary.json"]],
         "argv": ["centrality", *base, *kind, "--omega", "1", "--out", out["joint.csv"],
                  "--summary", out["summary.json"]]},
        {"name": "versatility", "outputs": [out["vers.csv"]],
         "argv": ["versatility", *base, "--omega", "1", "--out", out["vers.csv"]]},
    ]
    recorder = tracer.Tracer()
    undo, missing = tracer.install(recorder, alloc_only=False)
    try:
        result = tracer.run_round(dispatch, commands, recorder)
    finally:
        tracer.uninstall(undo)
    assert result["exit"] == {c["name"]: 0 for c in commands}, result["stderr"]
    assert missing == set()
    recorded = {span["name"] for span in recorder.spans}
    assert {name for name, *_ in tracer.WRAPS} <= recorded
    assert [span for span in recorder.spans if "count_error" in span] == []
    assert tracer.round_metrics(recorder.spans)["sweeps.points"] == 5
