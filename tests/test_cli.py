import csv
import gc
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from supracentrality import (
    Eigenvector,
    OmegaGrid,
    PageRank,
    SupraProblem,
    correlate_with_degrees,
    log_grid,
    rank_trajectory,
    sweep,
)
from supracentrality import cli, engine, sweeps, versatility
from supracentrality.cli import dispatch
from supracentrality.fileio import load_multiplex, read_tableau_csv
from supracentrality.interlayer import all_to_all, chain_undirected

from _oracles import random_layer


@pytest.fixture
def two_cycle_net(tmp_path):
    path = tmp_path / "net.edges"
    lines = []
    for t in (1, 2):
        lines += [f"{t} 1 2 1.0", f"{t} 2 1 1.0"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def six_layer_net(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "net6.edges"
    lines = []
    for t in range(1, 7):
        layer = random_layer(rng, 4, density=0.55, with_cycle=True)
        for i, j, w in layer.entries:
            lines.append(f"{t} {i} {j} {w!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_check_passes_and_fails(two_cycle_net):
    ok = dispatch(
        ["check", "--network", str(two_cycle_net), "--kind", "eigenvector",
         "--interlayer", "alltoall"]
    )
    assert ok == 0
    bad = dispatch(
        ["check", "--network", str(two_cycle_net), "--kind", "eigenvector",
         "--interlayer", "teleport:0"]
    )
    assert bad == 2


def test_usage_errors(two_cycle_net, tmp_path):
    out = tmp_path / "x.csv"
    assert dispatch([]) == 1
    assert dispatch(["centrality", "--network", str(two_cycle_net)]) == 1
    code = dispatch(
        ["centrality", "--network", str(two_cycle_net), "--kind", "pagerank",
         "--sigma", "1.0", "--interlayer", "alltoall", "--omega", "1",
         "--out", str(out)]
    )
    assert code == 1
    code = dispatch(
        ["centrality", "--network", str(two_cycle_net), "--kind", "eigenvector",
         "--interlayer", "nonsense", "--omega", "1", "--out", str(out)]
    )
    assert code == 1
    code = dispatch(
        ["check", "--network", str(two_cycle_net), "--kind", "eigenvector",
         "--interlayer", "blocks:sizes=1,1;intra=nan;inter=1"]
    )
    assert code == 1


@pytest.mark.parametrize("command", [["centrality", "--kind", "pagerank"], ["versatility"]])
def test_bad_sigma_is_reported_before_a_bad_interlayer(two_cycle_net, tmp_path, capsys, command):
    code = dispatch(
        [*command, "--network", str(two_cycle_net), "--sigma", "1.0",
         "--interlayer", "nonsense", "--omega", "1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: sigma must lie in [0, 1), got 1.0\n"


@pytest.mark.parametrize("extra, field", [
    ("intra=5", "repeated blocks field 'intra'"),
    ("sizes=2,4", "repeated blocks field 'sizes'"),
    ("bogus=7", "unknown blocks field 'bogus'"),
])
def test_blocks_spec_refuses_a_repeated_or_unknown_field(six_layer_net, capsys, extra, field):
    code = dispatch(
        ["check", "--network", str(six_layer_net), "--kind", "eigenvector",
         "--interlayer", f"blocks:sizes=3,3;intra=1;inter=0.01;{extra}"]
    )
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert field in captured.err


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 1 2 1.0\n1 1 2 1.0\n", encoding="utf-8")
    code = dispatch(
        ["check", "--network", str(bad), "--kind", "eigenvector",
         "--interlayer", "alltoall"]
    )
    assert code == 2


def test_nonconvergence_exit_code(two_cycle_net, tmp_path):
    out = tmp_path / "joint.csv"
    code = dispatch(
        ["centrality", "--network", str(two_cycle_net), "--kind", "eigenvector",
         "--interlayer", "alltoall", "--omega", "1", "--max-iter", "1",
         "--out", str(out)]
    )
    assert code == 3


def test_centrality_outputs_and_determinism(two_cycle_net, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    summary = tmp_path / "s.json"
    argv = [
        "centrality", "--network", str(two_cycle_net), "--kind", "eigenvector",
        "--interlayer", "alltoall", "--omega", "0.5", "--summary", str(summary),
    ]
    assert dispatch(argv + ["--out", str(out1)]) == 0
    assert dispatch(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(summary.read_text(encoding="utf-8"))
    assert payload["omega"] == 0.5
    assert payload["preconditions"]["interlayer_ok"] is True


def test_interlayer_file_spec(two_cycle_net, tmp_path):
    inter = tmp_path / "inter.tsv"
    inter.write_text("1 2 1.0\n2 1 1.0\n", encoding="utf-8")
    out = tmp_path / "joint.csv"
    code = dispatch(
        ["centrality", "--network", str(two_cycle_net), "--kind", "eigenvector",
         "--interlayer", f"file:{inter}", "--omega", "1", "--out", str(out)]
    )
    assert code == 0


def test_sweep_csv_and_regime_report(six_layer_net, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = dispatch(
        ["sweep", "--network", str(six_layer_net), "--kind", "eigenvector",
         "--interlayer", "blocks:sizes=3,3;intra=1;inter=0.01",
         "--grid", "-2,4,0.2", "--tol", "1e-8", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 32
    printed = capsys.readouterr().out
    assert "regimes" in printed


def test_limit_strong_chain_reports_mu1(six_layer_net, tmp_path):
    out = tmp_path / "limit.json"
    code = dispatch(
        ["limit", "--which", "strong", "--network", str(six_layer_net),
         "--kind", "eigenvector", "--interlayer", "chain", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["mu1"] == pytest.approx(2 * math.cos(math.pi / 7), abs=1e-9)
    assert payload["mu1"] == pytest.approx(1.8019377, abs=1e-6)
    assert payload["corollary_check"]["shape"] == "chain"
    assert payload["corollary_check"]["mu1_discrepancy"] <= 1e-10


def test_limit_weak_json(six_layer_net, tmp_path):
    out = tmp_path / "weak.json"
    code = dispatch(
        ["limit", "--which", "weak", "--network", str(six_layer_net),
         "--kind", "pagerank", "--interlayer", "alltoall", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["dominating_set"] == [1, 2, 3, 4, 5, 6]
    assert len(payload["alpha"]) == 6


def test_limit_weak_accepts_a_tied_layer_that_does_not_dominate(tmp_path):
    # layer 1: a directed 4-cycle of weight 3 (radius 3); layer 2: two
    # 2-cycles (radius 1, twice), whose tie the weak limit never reads
    net = tmp_path / "tied.edges"
    net.write_text("1 1 2 3\n1 2 3 3\n1 3 4 3\n1 4 1 3\n"
                   "2 1 2 1\n2 2 1 1\n2 3 4 1\n2 4 3 1\n", encoding="utf-8")
    base = ["--network", str(net), "--kind", "eigenvector", "--interlayer", "alltoall"]
    assert dispatch(["check", *base]) == 0
    out = tmp_path / "weak.json"
    assert dispatch(["limit", "--which", "weak", *base, "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["dominating_set"] == [1]
    assert payload["mlc"][1] == 0.0


def test_limit_weak_refuses_dominating_layers_the_chain_does_not_connect(tmp_path, capsys):
    # layers 1 and 3 (radius 1) dominate layer 2 (radius 0.5), and the chain
    # couples each of them only through layer 2
    net = tmp_path / "split.edges"
    net.write_text("1 1 2\n1 2 1\n2 1 2 0.5\n2 2 1 0.5\n3 1 2\n3 2 1\n", encoding="utf-8")
    base = ["--network", str(net), "--kind", "eigenvector", "--interlayer", "chain"]
    assert dispatch(["check", *base]) == 0
    capsys.readouterr()
    out = tmp_path / "weak.json"
    assert dispatch(["limit", "--which", "weak", *base, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: interlayer coupling restricted to the dominating layers (1, 3) is not "
        "strongly connected; the limit mixing weights are not unique\n")
    assert not out.exists()


def test_limit_strong_names_an_interlayer_eigenvalue_near_the_float_maximum(tmp_path, capsys):
    # teleport:1e308 on two layers has the double root 1e308 (to 1e-8); the
    # dense eig must not lose it
    net = tmp_path / "cycle.edges"
    net.write_text("1 1 2\n1 2 1\n2 1 2\n2 2 1\n", encoding="utf-8")
    out = tmp_path / "strong.json"
    assert dispatch(["limit", "--which", "strong", "--network", str(net), "--kind", "eigenvector",
                     "--interlayer", "teleport:1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: top interlayer eigenvalue 1e+308 has multiplicity 2 within relative "
        "tolerance 1e-08\n")
    assert not out.exists()


def test_correlate_and_trajectory(six_layer_net, tmp_path):
    corr = tmp_path / "corr.csv"
    code = dispatch(
        ["correlate", "--network", str(six_layer_net), "--kind", "eigenvector",
         "--interlayer", "alltoall", "--grid", "-1,1,0.5", "--out", str(corr)]
    )
    assert code == 0
    lines = corr.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "omega,r_intralayer,r_total,r_reference"
    assert len(lines) == 6

    traj = tmp_path / "traj.csv"
    code = dispatch(
        ["trajectory", "--node", "2", "--network", str(six_layer_net),
         "--kind", "eigenvector", "--interlayer", "alltoall",
         "--grid", "-1,1,0.5", "--out", str(traj)]
    )
    assert code == 0
    lines = traj.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    ranks = [int(v) for v in lines[1].split(",")[1:]]
    assert all(1 <= r <= 4 for r in ranks)


def test_correlate_default_reference_layer_skips_a_dag_layer(tmp_path):
    # layer 1 is the DAG 1 -> 2 (radius 0, a repeated eigenvalue), layer 2 a 2-cycle
    net = tmp_path / "dag.edges"
    net.write_text("1 1 2 1\n2 1 2 1\n2 2 1 1\n", encoding="utf-8")
    base = ["correlate", "--network", str(net), "--kind", "eigenvector",
            "--interlayer", "alltoall", "--grid", "-1,1,1"]
    default, layer2 = tmp_path / "default.csv", tmp_path / "layer2.csv"
    assert dispatch([*base, "--out", str(default)]) == 0
    assert dispatch([*base, "--reference-layer", "2", "--out", str(layer2)]) == 0
    assert default.read_bytes() == layer2.read_bytes()


def test_correlate_default_reference_layer_of_pagerank_layers_is_layer_1(six_layer_net,
                                                                          tmp_path):
    # every PageRank layer has spectral radius 1; the computed radii differ
    # only by round-off, which used to make layer 5 the default here
    base = ["correlate", "--network", str(six_layer_net), "--kind", "pagerank",
            "--interlayer", "alltoall", "--grid", "-1,1,1"]
    default, layer1 = tmp_path / "default.csv", tmp_path / "layer1.csv"
    assert dispatch([*base, "--out", str(default)]) == 0
    assert dispatch([*base, "--reference-layer", "1", "--out", str(layer1)]) == 0
    assert default.read_bytes() == layer1.read_bytes()


def test_correlate_on_one_node_writes_nan_correlations(tmp_path):
    # one node: every series has fewer than two samples or none that vary
    net = tmp_path / "one.edges"
    net.write_text("1 1 1 1\n2 1 1 2\n", encoding="utf-8")
    base = ["correlate", "--network", str(net), "--kind", "eigenvector",
            "--interlayer", "alltoall", "--grid", "-1,1,1"]
    for extra in ([], ["--reference-layer", "1"]):
        out = tmp_path / "corr.csv"
        assert dispatch([*base, *extra, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == 3
        assert all(row[1:] == ["nan", "nan", "nan"] for row in rows)


@pytest.mark.parametrize(
    "command",
    [["limit", "--which", "weak"], ["limit", "--which", "strong"],
     ["correlate", "--grid", "-1,1,1"]],
    ids=["limit_weak", "limit_strong", "correlate"],
)
def test_each_layer_matrix_is_built_once_per_command(six_layer_net, tmp_path, monkeypatch,
                                                     command):
    from supracentrality import centrality

    original = centrality.build_centrality_matrix
    built = []

    def counted(graph, kind):
        built.append(graph)
        return original(graph, kind)

    # patch every module binding of the name, not only the defining module
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "supracentrality" and \
                getattr(module, "build_centrality_matrix", None) is original:
            monkeypatch.setattr(module, "build_centrality_matrix", counted)
    code = dispatch(
        [*command, "--network", str(six_layer_net), "--kind", "eigenvector",
         "--interlayer", "chain", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    assert len(built) == 6 and len(set(map(id, built))) == 6


def test_versatility_output(six_layer_net, tmp_path):
    out = tmp_path / "vers.csv"
    code = dispatch(
        ["versatility", "--network", str(six_layer_net), "--interlayer", "alltoall",
         "--omega", "1.0", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "node,versatility"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 4
    assert sum(values) == pytest.approx(1.0, abs=1e-9)


def test_help_exits_zero():
    assert dispatch(["--help"]) == 0
    assert dispatch(["centrality", "--help"]) == 0


def test_sweep_output_is_byte_identical(six_layer_net, tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    argv = [
        "sweep", "--network", str(six_layer_net), "--kind", "eigenvector",
        "--interlayer", "chain", "--grid", "-1,1,0.5",
    ]
    assert dispatch(argv + ["--out", str(out1)]) == 0
    assert dispatch(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _write_two_layer_net(tmp_path):
    # layer 2 has the larger spectral radius, so it alone dominates at weak coupling
    path = tmp_path / "net2.edges"
    path.write_text("1 1 2 1.0\n1 2 1 1.0\n2 1 2 2.0\n2 2 1 2.0\n", encoding="utf-8")
    return path


def test_non_finite_inputs_are_rejected(tmp_path, capsys):
    # the solver used to spend its whole budget on these and exit 3
    bad = tmp_path / "nan.edges"
    bad.write_text("1 1 2 1.0\n1 2 1 1.0\n2 1 2 1.0\n2 2 1 nan\n", encoding="utf-8")
    out = tmp_path / "joint.csv"
    argv = ["centrality", "--kind", "eigenvector", "--interlayer", "alltoall",
            "--out", str(out)]
    assert dispatch(argv + ["--network", str(bad), "--omega", "1"]) == 2
    assert f"{bad}:4: non-finite weight 'nan'" in capsys.readouterr().err
    good = _write_two_layer_net(tmp_path)
    for omega in ("nan", "inf"):
        assert dispatch(argv + ["--network", str(good), "--omega", omega]) == 1
        assert "omega must be finite" in capsys.readouterr().err
    assert dispatch(argv + ["--network", str(good), "--omega", "1", "--tol", "nan"]) == 1
    inter = tmp_path / "inter.tsv"
    inter.write_text("1 2 1.0\n2 1 nan\n", encoding="utf-8")
    argv = ["centrality", "--kind", "eigenvector", "--network", str(good),
            "--interlayer", f"file:{inter}", "--omega", "1", "--out", str(out)]
    assert dispatch(argv) == 2
    assert f"{inter}:2: non-finite weight 'nan'" in capsys.readouterr().err


def test_a_node_count_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 2**58 nodes: an 8-byte index per node is 2 EiB, which malloc refuses at once
    net = tmp_path / "cycle.edges"
    net.write_text("1 1 2\n1 2 1\n", encoding="utf-8")
    assert dispatch(["check", "--network", str(net), "--kind", "eigenvector",
                     "--interlayer", "alltoall", "--nodes", str(2 ** 58)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ")
    assert err.count("\n") == 1


def test_non_finite_limit_and_sweep_flags_are_usage_errors(six_layer_net, tmp_path, capsys):
    base = ["--network", str(six_layer_net), "--kind", "eigenvector", "--interlayer",
            "alltoall"]
    # the dominating-set tie rule is a library constant, not a flag
    code = dispatch(["limit", "--which", "weak", "--rel-tol-dominating", "nan",
                     "--out", str(tmp_path / "weak.json")] + base)
    assert code == 1
    assert "unrecognized arguments: --rel-tol-dominating nan" in capsys.readouterr().err
    code = dispatch(["sweep", "--grid", "-1,1,0.5", "--prominence", "nan",
                     "--out", str(tmp_path / "sweep.csv")] + base)
    assert code == 1
    assert "prominence_fraction must be finite" in capsys.readouterr().err


def test_bad_limit_and_sweep_flags_stop_before_any_solve(six_layer_net, tmp_path, capsys,
                                                         monkeypatch):
    from supracentrality import cli

    sweeps_run = []
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: sweeps_run.append(args))
    base = ["--network", str(six_layer_net), "--kind", "eigenvector", "--interlayer",
            "alltoall"]
    out = tmp_path / "sweep.csv"
    # three grid points never reach regime detection, five points would solve first
    for grid in ("-1,0,0.5", "-1,1,0.5"):
        assert dispatch(["sweep", "--grid", grid, "--prominence", "nan",
                         "--out", str(out)] + base) == 1
        assert "prominence_fraction must be finite" in capsys.readouterr().err
        assert not out.exists()
    # four nodes and six layers: the index checks need only the loaded network
    out = tmp_path / "indexed.csv"
    for flags, message in ((["trajectory", "--node", "0"], "node 0 out of range 1..4"),
                           (["trajectory", "--node", "5"], "node 5 out of range 1..4"),
                           (["correlate", "--reference-layer", "7"],
                            "reference layer 7 out of range 1..6"),
                           (["correlate", "--reference-layer", "0"],
                            "reference layer 0 out of range 1..6")):
        assert dispatch(flags + ["--grid", "-1,1,0.5", "--out", str(out)] + base) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert sweeps_run == []


_IMPORT_BUDGET_CHILD = """
import json, sys
import supracentrality
loaded = {"package": (0, [m for m in ("numpy",) if m in sys.modules])}
import supracentrality.cli
heavy = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate")
loaded["import"] = (0, [m for m in heavy if m in sys.modules])
net, out = sys.argv[1], sys.argv[2]
base = ["--network", net, "--interlayer", "alltoall"]
kind = ["--kind", "eigenvector"]
grid = ["--grid", "-1,1,0.5"]
commands = {
    "check": ["check", *kind],
    "centrality": ["centrality", *kind, "--omega", "1", "--out", out + "/c.csv"],
    "sweep": ["sweep", *kind, *grid, "--out", out + "/s.csv"],
    "limit_weak": ["limit", "--which", "weak", *kind, "--out", out + "/w.json"],
    "limit_strong": ["limit", "--which", "strong", *kind, "--out", out + "/l.json"],
    "correlate": ["correlate", *kind, *grid, "--out", out + "/r.csv"],
    "trajectory": ["trajectory", "--node", "2", *kind, *grid, "--out", out + "/t.csv"],
    "versatility": ["versatility", "--omega", "1", "--out", out + "/v.csv"],
}
for name, argv in commands.items():
    code = supracentrality.cli.dispatch(argv + base)
    loaded[name] = (code, [m for m in heavy if m in sys.modules])
print(json.dumps(loaded))
"""


def _child_env(**overrides):
    """This environment with the package on PYTHONPATH and no
    OPENBLAS_NUM_THREADS (importing the CLI here set it), plus overrides."""
    import supracentrality

    src = os.path.dirname(os.path.dirname(supracentrality.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def test_package_import_leaves_scipy_signal_unloaded(six_layer_net, tmp_path):
    # scipy.signal pulls in scipy.stats, scipy.optimize and scipy.interpolate,
    # which once cost more than a whole sweep; no command needs any of them.
    # The package itself loads no numpy, so the CLI can pin BLAS threads first.
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUDGET_CHILD, str(six_layer_net), str(tmp_path)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    # five grid points, so the sweep reaches regime detection
    assert "regimes" in proc.stdout
    assert loaded == {name: [0, []] for name in loaded}


_DEFERRAL_CHILD = """
import json, sys, types
import numpy
before = set(sys.modules)
from supracentrality import cli
deferred = [f"numpy.{n}" for n in cli._DEFERRED_NUMPY if f"numpy.{n}" not in before]
code = cli.dispatch(sys.argv[1:])

def loaded(name):
    # a deferred module turns into a plain module when it loads, and only
    # then can its submodules load
    return (type(sys.modules[name]) is types.ModuleType
            or any(m.startswith(name + ".") for m in sys.modules))

after_command = [m for m in deferred if loaded(m)]
markers = [m for m in ("numpy.f2py.f2py2e", "numpy.testing._private.utils") if m in sys.modules]
numpy.testing.assert_allclose(1.0, 1.0)
print(json.dumps([code, deferred, after_command, markers, loaded("numpy.testing")]))
"""

_DEFERRAL_COMMANDS = {
    "check": ["check", "--kind", "eigenvector"],
    "centrality": ["centrality", "--kind", "eigenvector", "--omega", "1", "--out", "{out}/c.csv",
                   "--summary", "{out}/c.json"],
    "sweep": ["sweep", "--kind", "eigenvector", "--grid", "-1,1,0.5", "--out", "{out}/s.csv"],
    "correlate": ["correlate", "--kind", "eigenvector", "--grid", "-1,1,0.5",
                  "--out", "{out}/r.csv"],
    "trajectory": ["trajectory", "--node", "2", "--kind", "eigenvector", "--grid", "-1,1,0.5",
                   "--out", "{out}/t.csv"],
    "limit_weak": ["limit", "--which", "weak", "--kind", "eigenvector", "--out", "{out}/w.json"],
    "limit_strong": ["limit", "--which", "strong", "--kind", "eigenvector",
                     "--out", "{out}/l.json"],
    "versatility": ["versatility", "--omega", "1", "--out", "{out}/v.csv"],
}


@pytest.mark.parametrize("command", list(_DEFERRAL_COMMANDS))
def test_cli_defers_numpy_packages_no_command_reads(six_layer_net, tmp_path, command):
    # numpy.f2py and numpy.testing are registered unloaded by the CLI import
    # and stay so through a whole command; the first access still loads them
    argv = [a.format(out=tmp_path) for a in _DEFERRAL_COMMANDS[command]]
    proc = subprocess.run(
        [sys.executable, "-c", _DEFERRAL_CHILD, *argv, "--network", str(six_layer_net),
         "--interlayer", "alltoall"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, deferred, after_command, markers, testing_loaded = json.loads(
        proc.stdout.splitlines()[-1])
    assert code == 0
    assert {"numpy.f2py", "numpy.testing"} <= set(deferred)
    assert after_command == []
    assert markers == []
    assert testing_loaded


def test_library_import_defers_no_numpy_package():
    # only the CLI registers deferred modules; the library leaves numpy as is
    code = ("import json, sys, types; import supracentrality.fileio; "
            "names = ('f2py', 'testing', 'polynomial', 'ctypeslib'); "
            "print(json.dumps([n for n in names if type(sys.modules.get("
            "'numpy.' + n, types)) is not types.ModuleType]))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


_PARSE_AND_BUILD_CHILD = """
import json, sys
from supracentrality import fileio
from supracentrality.centrality import build_centrality_matrix
from supracentrality.types import Authority, Eigenvector, Hub, PageRank
net = fileio.load_multiplex(sys.argv[1])
for kind in (Eigenvector(), Hub(), Authority(), PageRank()):
    for layer in net.layers:
        build_centrality_matrix(layer, kind)
solvers = ("scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.linalg",
           "supracentrality.engine")
print(json.dumps([net.n_layers, [m for m in solvers if m in sys.modules]]))
"""


def test_parsing_and_building_layer_matrices_load_no_solver(six_layer_net):
    # every command starts by parsing and building C_t; that stage needs only
    # numpy and scipy.sparse, not ARPACK, csgraph or dense linear algebra
    proc = subprocess.run(
        [sys.executable, "-c", _PARSE_AND_BUILD_CHILD, str(six_layer_net)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [6, []]


@pytest.mark.parametrize("preset, expected", [({}, "None 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 2")])
def test_cli_import_pins_one_blas_thread_unless_set(preset, expected):
    # using the library (a submodule reached as a package attribute, which
    # loads numpy) leaves the environment alone; the CLI sets one thread
    # unless the user chose a count
    code = ("import os, supracentrality; supracentrality.engine.SupraOperator; "
            "before = os.environ.get('OPENBLAS_NUM_THREADS'); "
            "import supracentrality.cli; print(before, os.environ['OPENBLAS_NUM_THREADS'])")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(**preset),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


_MAIN_CHILD = """
import gc, json, sys
from supracentrality import cli
imported = gc.get_freeze_count()
try:
    cli.main()
except SystemExit as exc:
    print(json.dumps([exc.code, imported, gc.get_freeze_count() > 0]))
"""


@pytest.mark.parametrize("interlayer, code", [("alltoall", 0), ("bogus", 1)])
def test_main_freezes_the_import_time_heap(two_cycle_net, interlayer, code):
    # the entry point of both the script and -m freezes what the imports
    # made, whether the command succeeds or fails; importing the CLI does not
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_CHILD, "check", "--network", str(two_cycle_net),
         "--kind", "eigenvector", "--interlayer", interlayer],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [code, 0, True]


def test_dispatch_leaves_the_garbage_collector_alone(two_cycle_net):
    before = gc.get_freeze_count(), gc.isenabled()
    assert dispatch(["check", "--network", str(two_cycle_net), "--kind", "eigenvector",
                     "--interlayer", "alltoall"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def _write_random_directed_layers(path, n, n_layers, edges, seed):
    """About ``edges`` distinct off-diagonal unit-weight edges per layer."""
    rng = np.random.default_rng(seed)
    lines = []
    for t in range(1, n_layers + 1):
        i = rng.integers(1, n + 1, size=edges)
        j = rng.integers(1, n + 1, size=edges)
        keys = np.unique((i * (n + 1) + j)[i != j])
        lines += [f"{t} {k // (n + 1)} {k % (n + 1)}" for k in keys.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs os.sched_setaffinity and at least two allowed CPUs")
def test_output_bytes_do_not_depend_on_core_count(tmp_path):
    # with a threaded OpenBLAS the last bits of versatility.csv differed
    # between one CPU and two on this network
    net = tmp_path / "pagerank.edges"
    _write_random_directed_layers(net, n=2000, n_layers=6, edges=10000, seed=5)
    cpus = os.sched_getaffinity(0)
    outputs = []
    for allowed in ({min(cpus)}, cpus):
        out = tmp_path / f"versatility_{len(allowed)}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "supracentrality", "versatility", "--network", str(net),
             "--nodes", "2000", "--interlayer", "teleport:0.01", "--omega", "1",
             "--sigma", "0.85", "--out", str(out)],
            env=_child_env(), capture_output=True, text=True, timeout=120,
            preexec_fn=lambda allowed=allowed: os.sched_setaffinity(0, allowed),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_versatility_honours_solver_flags(six_layer_net, tmp_path):
    argv = ["versatility", "--network", str(six_layer_net), "--interlayer", "alltoall",
            "--omega", "1", "--out", str(tmp_path / "v.csv")]
    assert dispatch(argv + ["--max-iter", "1"]) == 3
    assert dispatch(argv + ["--tol", "nan"]) == 1


def test_one_iteration_budget_names_the_two_iterate_stopping_rule(two_cycle_net, tmp_path,
                                                                   capsys):
    # power iteration stops on two iterates' Rayleigh quotients, so a budget of
    # one cannot converge even where the start vector is exact (residual 0)
    code = dispatch(["versatility", "--network", str(two_cycle_net), "--interlayer", "alltoall",
                     "--omega", "1", "--max-iter", "1", "--out", str(tmp_path / "v.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "no convergence after 1 iterations, residual 0.000e+00" in err
    assert "the stopping rule compares two iterates" in err


def test_limit_preconditions_exit_2(tmp_path, capsys):
    identity = tmp_path / "identity.tsv"
    identity.write_text("1 1 1\n2 2 1\n", encoding="utf-8")
    code = dispatch(
        ["limit", "--which", "strong", "--network", str(_write_two_layer_net(tmp_path)),
         "--kind", "eigenvector", "--interlayer", f"file:{identity}",
         "--out", str(tmp_path / "limit.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_limit_weak_skips_strong_solve_without_special_shape(tmp_path, monkeypatch):
    from supracentrality import limits

    def no_strong_solve(*args, **kwargs):
        raise AssertionError("strong limit solved for a weak-limit command")

    monkeypatch.setattr(limits, "strong_limit", no_strong_solve)
    identity = tmp_path / "identity.tsv"
    identity.write_text("1 1 1\n2 2 1\n", encoding="utf-8")
    out = tmp_path / "weak.json"
    code = dispatch(
        ["limit", "--which", "weak", "--network", str(_write_two_layer_net(tmp_path)),
         "--kind", "eigenvector", "--interlayer", f"file:{identity}", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["dominating_set"] == [2]
    assert payload["corollary_check"] is None


def test_limit_weak_corollary_check_skips_strong_solve(six_layer_net, tmp_path, monkeypatch):
    from supracentrality import limits

    def no_strong_solve(*args, **kwargs):
        raise AssertionError("strong limit solved for a weak-limit command")

    monkeypatch.setattr(limits, "strong_limit", no_strong_solve)
    out = tmp_path / "weak.json"
    code = dispatch(
        ["limit", "--which", "weak", "--network", str(six_layer_net),
         "--kind", "eigenvector", "--interlayer", "chain", "--out", str(out)]
    )
    assert code == 0
    check = json.loads(out.read_text(encoding="utf-8"))["corollary_check"]
    assert check["shape"] == "chain"
    assert check["mu1_discrepancy"] <= 1e-10 and check["x_max_discrepancy"] <= 1e-12


def test_limit_strong_degenerate_aggregate_exits_2(tmp_path, capsys):
    # a nilpotent aggregate used to spend the whole iteration budget and exit 3
    dag = tmp_path / "dag.edges"
    dag.write_text("1 1 2 1\n", encoding="utf-8")
    code = dispatch(
        ["limit", "--which", "strong", "--network", str(dag), "--kind", "eigenvector",
         "--interlayer", "alltoall", "--out", str(tmp_path / "limit.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: strong-limit aggregate: ") and err.count("\n") == 1


def test_csv_outputs_quote_labels_with_commas_and_quotes(six_layer_net, tmp_path):
    node_labels = [f'Smith, J. "{i}"' for i in range(1, 5)]
    layer_labels = [f'layer "{t}", x' for t in range(1, 7)]
    nodes = tmp_path / "nodes.tsv"
    nodes.write_text("".join(f"{i}\t{s}\n" for i, s in enumerate(node_labels, 1)), "utf-8")
    layers = tmp_path / "layers.tsv"
    layers.write_text("".join(f"{t}\t{s}\n" for t, s in enumerate(layer_labels, 1)), "utf-8")
    base = ["--network", str(six_layer_net), "--node-labels", str(nodes),
            "--layer-labels", str(layers), "--interlayer", "alltoall"]
    kind = ["--kind", "eigenvector"]
    grid = ["--grid", "-1,1,0.5"]
    commands = {
        "centrality": (["centrality", *kind, "--omega", "1"], 1 + 6),
        "sweep": (["sweep", *kind, *grid], 4 + 6 + 4),
        "correlate": (["correlate", *kind, *grid], 4),
        "trajectory": (["trajectory", "--node", "2", *kind, *grid], 1 + 6),
        "versatility": (["versatility", "--omega", "1"], 2),
    }
    rows = {}
    for name, (argv, width) in commands.items():
        out = tmp_path / f"{name}.csv"
        assert dispatch(argv + base + ["--out", str(out)]) == 0, name
        with open(out, encoding="utf-8", newline="") as fh:
            rows[name] = list(csv.reader(fh))
        assert {len(row) for row in rows[name]} == {width}, name
    assert rows["centrality"][0][1:] == layer_labels
    assert [row[0] for row in rows["centrality"][1:]] == node_labels
    assert rows["sweep"][0][-4:] == [f"mnc_{s}" for s in node_labels]
    assert rows["trajectory"][0][1:] == [f"rank_{s}" for s in layer_labels]
    assert [row[0] for row in rows["versatility"][1:]] == node_labels


def test_undecodable_input_names_file_and_line(tmp_path, capsys):
    good = _write_two_layer_net(tmp_path)
    edges = tmp_path / "bad.edges"
    edges.write_bytes(b"1 1 2\n1 2 \xff1\n")
    labels = tmp_path / "labels.tsv"
    labels.write_bytes(b"1\tA\n2\tB\xe9\n")
    inter = tmp_path / "inter.tsv"
    inter.write_bytes(b"# caf\xc3\n1 2 1.0\n")
    base = ["check", "--kind", "eigenvector"]
    cases = [
        (["--network", str(edges), "--interlayer", "alltoall"], f"{edges}:2:", "0xff"),
        (["--network", str(good), "--node-labels", str(labels), "--interlayer", "alltoall"],
         f"{labels}:2:", "0xe9"),
        (["--network", str(good), "--interlayer", f"file:{inter}"], f"{inter}:1:", "0xc3"),
    ]
    for argv, where, byte in cases:
        assert dispatch(base + argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {where} not valid UTF-8 (byte {byte})\n"


@pytest.mark.parametrize("line", ["1 1 99999999999999999999", "99999999999999999999 1 2"])
@pytest.mark.parametrize("nodes", [[], ["--nodes", "3"]])
def test_index_beyond_int64_is_a_parse_error(tmp_path, capsys, line, nodes):
    # Python's int takes these fields, but no int64 index array can hold them
    path = tmp_path / "huge.edges"
    path.write_text(f"1 2 1\n{line}\n", encoding="utf-8")
    argv = ["check", "--network", str(path), "--interlayer", "alltoall",
            "--kind", "eigenvector", *nodes]
    assert dispatch(argv) == 2
    assert f"{path}:2: index above the int64 limit" in capsys.readouterr().err


@pytest.fixture
def signed_vector_net(tmp_path):
    # the layer sum is reducible (no edge 1 -> 2), and at omega = 0.001 the
    # solver's dominant vector has materially negative entries
    path = tmp_path / "signed.edges"
    path.write_text("1 2 2 0.5\n2 2 1 2.0\n3 1 1 2.0\n3 2 2 2.0\n", encoding="utf-8")
    return path


def test_centrality_signed_vector_is_a_solver_failure(signed_vector_net, two_cycle_net,
                                                      tmp_path, capsys, monkeypatch):
    out = tmp_path / "joint.csv"
    argv = ["--kind", "eigenvector", "--interlayer", "alltoall", "--omega", "0.001",
            "--out", str(out)]
    assert dispatch(["centrality", "--network", str(signed_vector_net), *argv]) == 2
    err = capsys.readouterr().err
    assert "eigenvector has materially negative entries" in err
    assert err.endswith("; uniqueness preconditions not satisfied\n")
    assert err.count("error:") == 1 and not out.exists()

    # where the preconditions hold, the same failure is the solver's alone
    def signed(*args, **kwargs):
        raise sweeps.NegativeEigenvectorError(7, 1e-12)

    monkeypatch.setattr(sweeps, "dominant_eigenpair", signed)
    assert dispatch(["centrality", "--network", str(two_cycle_net), *argv]) == 3
    assert capsys.readouterr().err == (
        "error: no convergence after 7 iterations, residual 1.000e-12 "
        "(eigenvector has materially negative entries)\n")


def test_sweep_records_a_signed_vector_as_a_failed_point(signed_vector_net, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--network", str(signed_vector_net), "--kind", "eigenvector",
            "--interlayer", "alltoall", "--grid=-3,0,1", "--out", str(out)]
    assert dispatch(argv) == 0
    assert "warning: grid point 1 failed: no convergence after" in capsys.readouterr().err
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows[0] == ["0.001"] + ["nan"] * 8
    assert all(math.isfinite(float(row[1])) for row in rows[1:])


@pytest.mark.parametrize("command", [["sweep"], ["correlate"], ["trajectory", "--node", "2"]])
def test_sweep_family_warns_like_centrality_and_names_the_preconditions(signed_vector_net,
                                                                       tmp_path, capsys,
                                                                       command):
    argv = [*command, "--network", str(signed_vector_net), "--kind", "eigenvector",
            "--interlayer", "alltoall", "--grid=-3,0,1", "--out", str(tmp_path / "out.csv")]
    assert dispatch(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    # the precondition warning comes once, before the failed point it explains
    assert len(lines) == 2
    assert lines[0] == ("warning: uniqueness preconditions not satisfied (interlayer_ok=True, "
                        "layer_sum_ok=False); computing anyway")
    assert lines[1].startswith("warning: grid point 1 failed: no convergence after")
    assert lines[1].endswith("(eigenvector has materially negative entries); "
                             "uniqueness preconditions not satisfied")


def test_centrality_is_a_one_point_sweep_bit_for_bit(six_layer_net, tmp_path):
    out = tmp_path / "joint.csv"
    assert dispatch(["centrality", "--network", str(six_layer_net), "--kind", "eigenvector",
                     "--interlayer", "chain", "--omega", "0.3", "--out", str(out)]) == 0
    result = sweep(
        SupraProblem(load_multiplex(six_layer_net), Eigenvector(), chain_undirected(6)),
        OmegaGrid([0.3]),
    )
    np.testing.assert_array_equal(read_tableau_csv(out)[2], result.tableaus[0].W)


def test_centrality_at_omega_zero_fails_the_interlayer_precondition(tmp_path, capsys):
    # omega * interlayer = 0 leaves the operator block diagonal: its dominant
    # eigenvector (0, 0, 1, 1) / sqrt(2) lives on layer 2 alone and is not positive
    net = tmp_path / "net.edges"
    net.write_text("1 1 2 1\n1 2 1 1\n2 1 2 2\n2 2 1 2\n", encoding="utf-8")
    out, summary = tmp_path / "joint.csv", tmp_path / "run.json"
    assert dispatch(["centrality", "--network", str(net), "--kind", "eigenvector",
                     "--interlayer", "alltoall", "--omega", "0", "--out", str(out),
                     "--summary", str(summary)]) == 0
    assert capsys.readouterr().err == (
        "warning: uniqueness preconditions not satisfied (interlayer_ok=False, "
        "layer_sum_ok=True); computing anyway\n")
    assert json.loads(summary.read_text(encoding="utf-8"))["preconditions"] == {
        "interlayer_ok": False, "layer_sum_ok": True}


@pytest.mark.parametrize("nodes", ["2", "3"])
def test_strongly_coupled_small_operator_takes_a_handful_of_matvecs(tmp_path, nodes):
    # C = A + 1000 I: eigenvalues 1001 and 999.5 (and 1000 for an isolated
    # third node), a ratio power iteration alone crawls through; below
    # dimension 3 a dense eig finds the vector that it then accepts
    net = tmp_path / "net.edges"
    net.write_text("1 1 2 0.5\n1 2 1 1.0\n1 2 2 0.5\n", encoding="utf-8")
    out, summary = tmp_path / "joint.csv", tmp_path / "run.json"
    assert dispatch(["centrality", "--network", str(net), "--nodes", nodes, "--kind",
                     "eigenvector", "--interlayer", "alltoall", "--omega", "1000",
                     "--out", str(out), "--summary", str(summary)]) == 0
    payload = json.loads(summary.read_text(encoding="utf-8"))
    assert payload["iterations"] <= 10
    assert payload["lambda_max"] == pytest.approx(1001.0, rel=1e-12)
    with open(out, encoding="utf-8", newline="") as fh:
        joint = [float(row[1]) for row in list(csv.reader(fh))[1:]]
    assert np.allclose(joint[:2], np.array([1.0, 2.0]) / math.sqrt(5.0), rtol=0, atol=1e-12)


def test_signed_vector_at_omega_zero_is_a_precondition_failure(tmp_path, capsys):
    # at sigma = 0 every layer matrix is the uniform 1/2 J; at omega = 0 the
    # solver's unit vector of the tied eigenspace has materially negative entries
    net = tmp_path / "net.edges"
    net.write_text("1 1 2\n1 2 1\n2 1 2\n", encoding="utf-8")
    assert dispatch(["centrality", "--network", str(net), "--kind", "pagerank", "--sigma", "0",
                     "--interlayer", "chain", "--omega", "0",
                     "--out", str(tmp_path / "joint.csv")]) == 2
    assert capsys.readouterr().err.endswith("; uniqueness preconditions not satisfied\n")


def _reparsed(path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        return np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])


def test_sweep_trajectory_and_correlate_csvs_reparse_exactly(signed_vector_net, tmp_path):
    argv = ["--network", str(signed_vector_net), "--kind", "eigenvector",
            "--interlayer", "alltoall", "--grid=-3,0,0.5"]
    paths = {name: tmp_path / f"{name}.csv" for name in ("sweep", "trajectory", "correlate")}
    assert dispatch(["sweep", *argv, "--out", str(paths["sweep"])]) == 0
    assert dispatch(["trajectory", "--node", "2", *argv,
                     "--out", str(paths["trajectory"])]) == 0
    assert dispatch(["correlate", *argv, "--out", str(paths["correlate"])]) == 0

    net = load_multiplex(signed_vector_net)
    result = sweep(SupraProblem(net, Eigenvector(), all_to_all(3, include_self=True)),
                   log_grid(-3, 0, 0.5))
    assert result.failures  # so nan rows are part of the round trip
    nan_row = [math.nan] * (net.n_layers + net.n_nodes)
    expected = {"sweep": [], "trajectory": [], "correlate": []}
    for s, (omega, tab) in enumerate(zip(result.grid.values, result.tableaus)):
        w_s, z_s = (result.w_sensitivity[s - 1], result.z_sensitivity[s - 1]) if s else (
            math.nan, math.nan)
        values = [tab.lambda_max, *tab.mlc, *tab.mnc] if tab else [math.nan, *nan_row]
        expected["sweep"].append([omega, values[0], w_s, z_s, *values[1:]])
    for omega, ranks in zip(result.grid.values, rank_trajectory(result, 2)):
        expected["trajectory"].append([omega, *ranks])
    for row in correlate_with_degrees(result):
        expected["correlate"].append([row.omega, row.intralayer_vs_conditional,
                                      row.total_vs_conditional_sum,
                                      row.reference_vs_conditional_sum])
    for name, path in paths.items():
        # exact equality, nan matching nan
        np.testing.assert_array_equal(_reparsed(path), np.array(expected[name]), err_msg=name)


def test_operator_whose_scale_overflows_exits_2_before_any_solve(tmp_path, capsys,
                                                                  monkeypatch):
    # pytest turns a RuntimeWarning into an error, so none may be raised on the way
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(sweeps, "dominant_eigenpair", no_solve)
    out = tmp_path / "out.csv"
    # interlayer weights past the float range once omega multiplies them:
    # centrality's coupling and versatility's supra-adjacency are refused with
    # one line each, and a sweep refuses its largest omega before the first
    # grid point's solve
    cycle = tmp_path / "cycle.edges"
    cycle.write_text("1 1 2\n1 2 1\n2 1 2\n2 2 1\n", encoding="utf-8")
    argv = ["--network", str(cycle), "--interlayer", "teleport:1e308", "--out", str(out)]
    eigenvector = ["--kind", "eigenvector"]
    ours = "error: an entry of omega times the interlayer matrix is past the float range at omega"
    for command, message in ((["centrality", *eigenvector, "--omega", "10"], f"{ours} 10.0"),
                             (["sweep", *eigenvector, "--grid", "0,1,1"], f"{ours} 10.0"),
                             (["versatility", "--omega", "10"],
                              "error: the supra-adjacency overflows at omega 10.0")):
        assert dispatch(command + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
        assert not out.exists()
    assert dispatch(["versatility", "--omega", "1"] + argv) == 0


def test_weights_near_the_float_range_solve_and_only_the_eigenvalue_overflows(tmp_path,
                                                                             capsys):
    # each solve runs at 2**-k; pytest turns a RuntimeWarning into an error
    def joint(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return np.array([[float(v) for v in r[1:]] for r in list(csv.reader(fh))[1:]])

    huge = tmp_path / "huge.edges"
    out = tmp_path / "out.csv"
    summary = tmp_path / "summary.json"
    argv = ["centrality", "--network", str(huge), "--kind", "eigenvector", "--interlayer",
            "alltoall", "--out", str(out), "--summary", str(summary)]
    huge.write_text("1 1 1 1e308\n1 2 2 1.0\n", encoding="utf-8")
    assert dispatch([*argv, "--omega", "1"]) == 0
    assert np.array_equal(joint(out), [[1.0], [0.0]])
    assert json.loads(summary.read_text())["lambda_max"] == 1e308
    # 2e308 is past the float range: one error line (after the warnings of a
    # reducible layer), and no file
    out.unlink()
    assert dispatch([*argv, "--omega", "1e308"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: the dominant eigenvalue, ")
    assert errors[0].endswith(" times 2**1023, is past the float range")
    assert not out.exists()
    # a row sum past the float range: the star 1 <-> 2, 1 <-> 3 of weight 1e308
    # has lambda sqrt(2) * 1e308 (the coupling adds 1) and W (sqrt(2), 1, 1) / 2
    huge.write_text("1 1 2 1e308\n1 1 3 1e308\n1 2 1 1e308\n1 3 1 1e308\n", encoding="utf-8")
    assert dispatch([*argv, "--omega", "1"]) == 0
    assert json.loads(summary.read_text())["lambda_max"] == pytest.approx(
        math.sqrt(2.0) * 1e308, rel=1e-12)
    assert np.allclose(joint(out)[:, 0], [0.5 ** 0.5, 0.5, 0.5], rtol=0, atol=1e-12)
    # the star 1 -> 2, 1 -> 3 of weight 1e308 with unit edges back: lambda =
    # sqrt(2e308) + 1 lies 1e153 times below the shift, and at every scale
    # either the products or the residual leave the float range, so no vector
    # is accepted: one error line, and no file
    out.unlink()
    huge.write_text("1 1 2 1e308\n1 1 3 1e308\n1 2 1 1\n1 3 1 1\n", encoding="utf-8")
    assert dispatch([*argv, "--omega", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no convergence after ")
    assert err.endswith("(the shift swamps the eigenvalue, and C x misses tol)\n")
    assert err.count("\n") == 1
    assert not out.exists()
    # a sweep up to omega = 1e308 on the two-cycle: lambda = 1 + omega at every point
    huge.write_text("1 1 2\n1 2 1\n", encoding="utf-8")
    sweep_csv = tmp_path / "sweep.csv"
    assert dispatch(["sweep", "--network", str(huge), "--kind", "eigenvector", "--interlayer",
                     "alltoall", "--grid", "0,308,154", "--out", str(sweep_csv)]) == 0
    assert capsys.readouterr().err == ""
    assert _reparsed(sweep_csv)[:, 1] == pytest.approx([2.0, 1e154, 1e308], rel=1e-12)


@pytest.mark.parametrize("w", ["1e30", "1e100", "1e200"])
def test_an_eigenvalue_far_below_the_shift_is_read_from_the_product_alone(tmp_path, w):
    # the star 1 -> 2, 1 -> 3 of weight w with unit edges back (and the unit
    # coupling of one layer) has lambda = sqrt(2 w) + 1 and W proportional to
    # (1, 1 / sqrt(2 w), 1 / sqrt(2 w)); the shift 0.1 * (1 + 2 w) rounds
    # lambda away when it is subtracted, so lambda is read from C x
    net = tmp_path / "star.edges"
    net.write_text(f"1 1 2 {w}\n1 1 3 {w}\n1 2 1 1\n1 3 1 1\n", encoding="utf-8")
    out, summary = tmp_path / "joint.csv", tmp_path / "summary.json"
    assert dispatch(["centrality", "--network", str(net), "--kind", "eigenvector",
                     "--interlayer", "alltoall", "--omega", "1", "--out", str(out),
                     "--summary", str(summary)]) == 0
    root = math.sqrt(2.0 * float(w))
    assert json.loads(summary.read_text())["lambda_max"] == pytest.approx(root + 1.0, rel=1e-12)
    expected = np.array([1.0, 1.0 / root, 1.0 / root])
    assert np.allclose(_reparsed(out)[:, 1], expected / np.linalg.norm(expected),
                       rtol=1e-12, atol=0)


# two layers on three nodes: a 3-cycle with a chord, and a path both ways
_WITNESS = "1 1 2 {s}\n1 2 3 {s}\n1 3 1 {s}\n1 1 3 {s}\n2 1 2 {s}\n2 2 1 {s}\n2 2 3 {s}\n2 3 2 {s}\n"


def _witness_run(tmp_path, capsys, s: str) -> dict:
    """Every command on the witness file with weights s at omega s (a sweep
    over 10**(e-2), ..., 10**(e+2), e = log10 s), each exiting 0 with
    nothing on standard error, and what each writes, parsed."""
    net = tmp_path / f"witness_{s}.edges"
    net.write_text(_WITNESS.format(s=s), encoding="utf-8")
    e = round(math.log10(float(s)))
    base = ["--network", str(net), "--interlayer", "alltoall"]
    eigenvector = [*base, "--kind", "eigenvector"]
    out = {name: tmp_path / f"{name}_{s}" for name in
           ("joint", "summary", "sweep", "weak", "strong", "versatility")}
    for argv in (["centrality", *eigenvector, "--omega", s, "--out", str(out["joint"]),
                  "--summary", str(out["summary"])],
                 ["sweep", *eigenvector, f"--grid={e - 2},{e + 2},1", "--out", str(out["sweep"])],
                 ["limit", "--which", "weak", *eigenvector, "--out", str(out["weak"])],
                 ["limit", "--which", "strong", *eigenvector, "--out", str(out["strong"])],
                 ["versatility", *base, "--omega", s, "--out", str(out["versatility"])]):
        assert dispatch(argv) == 0, argv[0]
        assert capsys.readouterr().err == "", argv[0]
    parsed = {name: json.loads(out[name].read_text()) for name in ("summary", "weak", "strong")}
    parsed.update((name, _reparsed(out[name])) for name in ("joint", "sweep", "versatility"))
    return parsed


@pytest.mark.parametrize("s", ["1e-5", "1e-8", "1e-10", "1e-150", "1e-290", "1e160", "1e300"])
def test_witness_scaled_by_s_gives_the_unit_answer_times_s(tmp_path, capsys, s):
    # every weight and omega times s: lambda times s, every vector unchanged
    unit, scaled = _witness_run(tmp_path, capsys, "1"), _witness_run(tmp_path, capsys, s)
    factor = float(s)
    close = {"rtol": 0, "atol": 1e-9}
    assert np.allclose(scaled["joint"], unit["joint"], **close)
    assert np.allclose(scaled["versatility"], unit["versatility"], **close)
    assert scaled["summary"]["lambda_max"] == pytest.approx(
        factor * unit["summary"]["lambda_max"], rel=1e-9)
    # sweep columns: omega, lambda_max, two sensitivities, then the marginals
    assert np.allclose(scaled["sweep"][:, :2] / factor, unit["sweep"][:, :2], rtol=1e-9, atol=0)
    assert np.allclose(scaled["sweep"][:, 2:], unit["sweep"][:, 2:], equal_nan=True, **close)
    for which, scaled_keys in (("weak", ("lambda_max_at_zero",)), ("strong", ("x_eigenvalue",))):
        for key, value in unit[which].items():
            if key in scaled_keys:
                assert scaled[which][key] == pytest.approx(factor * value, rel=1e-9), key
            elif isinstance(value, list):
                assert np.allclose(scaled[which][key], value, **close), key
            elif isinstance(value, float):
                assert scaled[which][key] == pytest.approx(value, rel=1e-9), key


def test_pagerank_subnormal_weights_rank_as_unit_weights(tmp_path):
    # PageRank divides each row by its sum: a row of weights 1e-315, whose sum
    # is subnormal, is first scaled by a power of two, so every file is the unit one
    written = []
    for s in ("1", "1e-315"):
        net = tmp_path / f"pagerank_{s}.edges"
        net.write_text(_WITNESS.format(s=s), encoding="utf-8")
        base = ["--network", str(net), "--kind", "pagerank", "--interlayer", "alltoall"]
        files = [tmp_path / f"{name}_{s}" for name in ("joint", "weak", "strong")]
        assert dispatch(["centrality", *base, "--omega", "1", "--out", str(files[0])]) == 0
        for which, path in zip(("weak", "strong"), files[1:]):
            assert dispatch(["limit", "--which", which, *base, "--out", str(path)]) == 0
        written.append([path.read_bytes() for path in files])
    assert written[0] == written[1]


@pytest.mark.parametrize("argv, merged", [
    (["--grid", "-2,4,0.2", "--out", "x"], ["--grid=-2,4,0.2", "--out", "x"]),
    (["--out", "x", "--grid"], ["--out", "x", "--grid"]),
    (["--grid", "-1,0,1", "--grid", "0,1,1"], ["--grid=-1,0,1", "--grid=0,1,1"]),
    (["--grid=-2,4,0.2", "--out", "x"], ["--grid=-2,4,0.2", "--out", "x"]),
])
def test_a_bare_grid_flag_takes_the_next_token_as_its_value(argv, merged):
    assert cli._merge_grid_values(argv) == merged


def test_pagerank_row_whose_sum_overflows_ranks_as_the_unscaled_row(tmp_path):
    # PageRank does not change when a row is scaled; in process, so a
    # RuntimeWarning on the way fails the test
    joint = []
    for name, weight in (("scaled", "1e308"), ("unscaled", "1")):
        net = tmp_path / f"{name}.edges"
        net.write_text(f"1 1 2 {weight}\n1 1 3 {weight}\n1 2 1 1\n1 3 1 1\n", encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        assert dispatch(["centrality", "--network", str(net), "--kind", "pagerank",
                         "--interlayer", "alltoall", "--omega", "1", "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        joint.append((rows[0], [r[0] for r in rows[1:]],
                      np.array([[float(v) for v in r[1:]] for r in rows[1:]])))
    (header, nodes, scaled), (header_u, nodes_u, unscaled) = joint
    assert (header, nodes) == (header_u, nodes_u)
    assert np.abs(scaled - unscaled).max() <= 1e-12


def test_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    inputs = ["--network", "net.edges", "--interlayer", "chain"]
    base = [*inputs, "--kind", "eigenvector", "--out", "out"]
    limit = parser.parse_args(["limit", "--which", "weak", *base])
    sweep_args = parser.parse_args(["sweep", "--grid=0,1,1", *base])
    assert sweep_args.prominence == inspect.signature(
        sweeps.detect_regimes).parameters["prominence_fraction"].default
    solved = {
        "centrality": (["--omega", "1", *base], engine.dominant_eigenpair),
        "sweep": (["--grid=0,1,1", *base], sweeps.sweep),
        "correlate": (["--grid=0,1,1", *base], sweeps.sweep),
        "trajectory": (["--grid=0,1,1", "--node", "1", *base], sweeps.sweep),
        "versatility": (["--omega", "1", *inputs, "--out", "out"],
                        versatility.pagerank_versatility),
    }
    for command, (argv, solver) in solved.items():
        args = parser.parse_args([command, *argv])
        defaults = inspect.signature(solver).parameters
        assert args.tol == defaults["tol"].default, command
        assert args.max_iter == defaults["max_iter"].default, command
    pagerank = PageRank()
    for args in [parser.parse_args(["check", *inputs, "--kind", "eigenvector"]), limit,
                 *(parser.parse_args([command, *argv]) for command, (argv, _) in solved.items())]:
        assert (args.sigma, args.dangling) == (pagerank.sigma, pagerank.dangling.value)
