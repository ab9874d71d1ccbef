import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from supracentrality.cli import dispatch

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


def test_non_finite_limit_and_sweep_flags_are_usage_errors(six_layer_net, tmp_path, capsys):
    base = ["--network", str(six_layer_net), "--kind", "eigenvector", "--interlayer",
            "alltoall"]
    code = dispatch(["limit", "--which", "weak", "--rel-tol-dominating", "nan",
                     "--out", str(tmp_path / "weak.json")] + base)
    assert code == 1
    assert "rel_tol_dominating must be finite" in capsys.readouterr().err
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
    out = tmp_path / "limit.json"
    for which in ("weak", "strong"):
        for value in ("nan", "5", "-0.5"):
            assert dispatch(["limit", "--which", which, "--rel-tol-dominating", value,
                             "--out", str(out)] + base) == 1
            assert "rel_tol_dominating must be finite" in capsys.readouterr().err
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
