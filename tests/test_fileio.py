import json
import tracemalloc

import numpy as np
import pytest

from supracentrality import (
    Authority,
    Eigenvector,
    Hub,
    LayerGraph,
    MultiplexNetwork,
    PageRank,
    SupraOperator,
    SupraProblem,
    build_centrality_matrix,
    check_preconditions,
    dominant_eigenpair,
    log_grid,
    sweep,
    tableau_from_vector,
)
from supracentrality import fileio
from supracentrality.fileio import (
    ParseError,
    ValidationError,
    load_interlayer,
    load_labels,
    load_multiplex,
    read_tableau_csv,
    write_summary_json,
    write_sweep_csv,
    write_tableau_csv,
)
from supracentrality.interlayer import all_to_all, chain_undirected

from _oracles import random_instance, random_layer


def test_load_symmetric_pair(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("# comment\n1 1 2 1.0\n1 2 1 1.0\n", encoding="utf-8")
    net = load_multiplex(path)
    assert net.n_nodes == 2 and net.n_layers == 1
    assert net.layers[0].entries == ((1, 2, 1.0), (2, 1, 1.0))


def test_load_default_weight(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("1 1 2\n", encoding="utf-8")
    net = load_multiplex(path)
    assert net.layers[0].entries == ((1, 2, 1.0),)


def test_load_duplicate_edge_rejected(tmp_path):
    path = tmp_path / "net.edges"
    for text, lineno, message in [
        ("1 1 2 1.0\n1 1 2 1.0\n", 2, "duplicate edge (1, 1, 2) (first seen on line 1)"),
        # the first error in the file is reported, a repeat or a bad line
        ("1 1 2\n1 2 1\n1 1 2\n1 2 2\n1 x 1\n", 3,
         "duplicate edge (1, 1, 2) (first seen on line 1)"),
        ("1 1 2\n1 2 1\n1 x 1\n1 2 2\n1 1 2\n", 3, "bad integer field in '1 x 1'"),
        ("1 1 1\n2 1 2\n1 1 3\n2 1 2\n1 1 1\n2 1 2\n", 4,
         "duplicate edge (2, 1, 2) (first seen on line 2)"),
        # an ordered file whose repeat is the line right after its first
        ("1 1 2\n1 2 1\n2 1 1\n2 1 2\n2 1 2\n3 1 1\n", 5,
         "duplicate edge (2, 1, 2) (first seen on line 4)"),
    ]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_multiplex(path)
        assert err.value.lineno == lineno
        assert str(err.value) == f"{path}:{lineno}: {message}"


def test_load_bad_field_reports_line(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("1 1 2 1.0\n1 x 2 1.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_multiplex(path)
    assert err.value.lineno == 2


def test_load_validation_failure(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("1 1 2 -1.0\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_multiplex(path)


def test_load_noncontiguous_layers_reindexed(tmp_path, caplog):
    path = tmp_path / "net.edges"
    path.write_text("1 1 2 1.0\n5 2 1 1.0\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        net = load_multiplex(path)
    assert net.n_layers == 2
    assert any("re-indexed" in rec.message for rec in caplog.records)


def test_load_nodes_override(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("1 1 2 1.0\n1 2 1 1.0\n", encoding="utf-8")
    net = load_multiplex(path, n_nodes=5)
    assert net.n_nodes == 5
    with pytest.raises(ValidationError):
        load_multiplex(path, n_nodes=1)


def test_load_out_of_range_names_the_first_edge(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("1 1 2 1.0\n1 2 1 1.0\n2 1 3 1.0\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_multiplex(path, n_nodes=1)
    assert err.value.violations == ["layer 1: edge (1, 2) index out of range"]
    assert str(err.value) == "invalid network:\n  layer 1: edge (1, 2) index out of range"


def test_load_labels(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("1\tParis CDG\n3\tZürich\n", encoding="utf-8")
    labels = load_labels(path, 3)
    assert labels == ("Paris CDG", "2", "Zürich")
    bad = tmp_path / "bad.tsv"
    bad.write_text("7\tX\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_labels(bad, 3)
    bad.write_text("1\tA\n# note\n1\tB\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_labels(bad, 3)
    assert str(err.value) == f"{bad}:3: duplicate index 1 (first seen on line 1)"


def test_load_interlayer_triplets(tmp_path):
    path = tmp_path / "inter.tsv"
    path.write_text("1 2 1.0\n2 1 1.0\n", encoding="utf-8")
    m = load_interlayer(path, 2)
    assert np.array_equal(m.values, chain_undirected(2).values)
    dup = tmp_path / "dup.tsv"
    dup.write_text("1 2 1.0\n1 2 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_interlayer(dup, 2)


@pytest.mark.parametrize("name, text, lineno, message", [
    ("dup.tsv", "1 2 1.0\n# note\n2 1 1.0\n1 2 2.0\n", 4, "duplicate layer pair (1, 2)"),
    ("oor.tsv", "1 2 1.0\n\n3 1 1.0\n", 3, "layer pair (3, 1) out of range for 2 layers"),
    ("neg.tsv", "2 1 -1.0\n1 2 1.0\n", 1, "negative weight -1.0 for layer pair (2, 1)"),
])
def test_load_interlayer_reports_the_line_of_a_bad_triplet(tmp_path, name, text, lineno, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_interlayer(path, 2)
    assert str(err.value) == f"{path}:{lineno}: {message}"
    assert err.value.lineno == lineno


def test_network_roundtrip_via_files(tmp_path):
    rng = np.random.default_rng(31)
    for trial in range(5):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(1, 4))
        layers = tuple(random_layer(rng, n, density=0.4) for _ in range(t))
        net = MultiplexNetwork(n, layers)
        path = tmp_path / f"net{trial}.edges"
        lines = []
        for lt, layer in enumerate(net.layers, start=1):
            for i, j, w in layer.entries:
                lines.append(f"{lt} {i} {j} {w!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_multiplex(path, n_nodes=n)
        assert loaded.n_nodes == net.n_nodes and loaded.n_layers == net.n_layers
        for a, b in zip(loaded.layers, net.layers):
            assert a.entries == b.entries


def _tiny_solution():
    net = MultiplexNetwork(
        2,
        (LayerGraph(2, ((1, 2, 1.0), (2, 1, 1.0))),) * 2,
        node_labels=("alpha, the first", "béta"),
        layer_labels=("ground", "étage"),
    )
    problem = SupraProblem(
        network=net, kind=Eigenvector(), interlayer=all_to_all(2)
    )
    op = SupraOperator(problem, 0.5)
    pair = dominant_eigenpair(op)
    tab = tableau_from_vector(pair.vector, 2, 2, pair.eigenvalue, 0.5)
    return net, problem, pair, tab


def test_tableau_csv_roundtrip_with_unicode_labels(tmp_path):
    net, _, _, tab = _tiny_solution()
    path = tmp_path / "joint.csv"
    write_tableau_csv(tab, net, path)
    node_labels, layer_labels, w = read_tableau_csv(path)
    assert node_labels == ["alpha, the first", "béta"]
    assert layer_labels == ["ground", "étage"]
    assert np.array_equal(w, tab.W)  # 17 significant digits reparse exactly


def test_single_cell_tableau_has_two_lines(tmp_path):
    net = MultiplexNetwork(1, (LayerGraph(1, ((1, 1, 1.0),)),))
    problem = SupraProblem(
        network=net, kind=Eigenvector(), interlayer=all_to_all(1)
    )
    pair = dominant_eigenpair(SupraOperator(problem, 1.0))
    tab = tableau_from_vector(pair.vector, 1, 1, pair.eigenvalue, 1.0)
    path = tmp_path / "one.csv"
    write_tableau_csv(tab, net, path)
    assert path.read_text(encoding="utf-8").count("\n") == 2


def test_summary_json_fields(tmp_path):
    net, problem, pair, tab = _tiny_solution()
    report = check_preconditions(problem, 0.5)
    path = tmp_path / "summary.json"
    write_summary_json(path, tab, pair, report)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert list(payload) == [
        "omega",
        "lambda_max",
        "iterations",
        "residual",
        "mnc",
        "mlc",
        "preconditions",
    ]
    assert payload["omega"] == 0.5
    assert payload["lambda_max"] == pytest.approx(2.0, abs=1e-9)
    assert len(payload["mnc"]) == 2 and len(payload["mlc"]) == 2
    assert payload["preconditions"] == {"interlayer_ok": True, "layer_sum_ok": True}


def test_sweep_csv_shape(tmp_path):
    net, inter = random_instance(50, kind=Eigenvector())
    grid = log_grid(-2, 4, 0.2)
    result = sweep(SupraProblem(net, Eigenvector(), inter), grid)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 32  # header + 31 grid points
    header = lines[0].split(",")
    assert header[:4] == ["omega", "lambda_max", "w_sensitivity", "z_sensitivity"]
    assert len(header) == 4 + net.n_layers + net.n_nodes
    first = lines[1].split(",")
    assert first[2] == "nan" and first[3] == "nan"
    # every numeric field reparses
    for line in lines[1:]:
        [float(v) for v in line.split(",")]


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_load_non_finite_weight_reports_line(tmp_path, weight):
    path = tmp_path / "net.edges"
    path.write_text(f"1 1 2 1.0\n1 2 1 {weight}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_multiplex(path)
    assert err.value.lineno == 2
    assert "non-finite weight" in str(err.value)


def test_clean_files_skip_the_line_scan(tmp_path, monkeypatch):
    def no_scan(path):
        raise AssertionError(f"{path} fell back to the line scan")

    monkeypatch.setattr(fileio, "_scan_edges", no_scan)
    path = tmp_path / "net.edges"
    path.write_bytes(b"# layers 2 and 7\r\n  2\t3 +1 0.5 \r\n\r\n7 1 2 1e-1\r\n \t# indented\r\n"
                     b" 2 1 3 2.\r\n# last line, no newline")
    net = load_multiplex(path)
    assert net.n_nodes == 3 and net.n_layers == 2
    assert net.layers[0].entries == ((1, 3, 2.0), (3, 1, 0.5))
    assert net.layers[1].entries == ((1, 2, 0.1),)


def _write_random_edges(path, n, m, layers=1, seed=5):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(np.unique(rng.integers(0, layers * n * n, size=int(m * 1.1))))[:m]
    t, i, j = keys // (n * n) + 1, keys // n % n + 1, keys % n + 1
    w = rng.uniform(0.1, 2.0, size=m)
    path.write_text("".join(f"{a} {b} {c} {d!r}\n" for a, b, c, d in
                            zip(t.tolist(), i.tolist(), j.tolist(), w.tolist())))


def test_load_multiplex_memory_is_linear_in_stored_edges(tmp_path):
    # 100k edges are 2.4 MB as arrays; the bound leaves room for the file
    # bytes and numpy's parse, not for a Python tuple per edge
    path = tmp_path / "big.edges"
    _write_random_edges(path, 20_000, 100_000)
    for parse in (fileio._parse_edges_whole, lambda path: None):  # whole file, line scan
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_parse_edges_whole", parse)
            tracemalloc.start()
            try:
                net = load_multiplex(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 16 * 2**20, (parse, peak)
        assert net.layers[0].rows.size == 100_000


def test_loading_and_building_matrices_makes_no_edge_tuples(tmp_path):
    path = tmp_path / "net.edges"
    _write_random_edges(path, 30, 400, layers=3)
    for parse in (fileio._parse_edges_whole, lambda path: None):  # whole file, line scan
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_parse_edges_whole", parse)
            net = load_multiplex(path, n_nodes=30)
        for kind in (Eigenvector(), Hub(), Authority(), PageRank()):
            for layer in net.layers:
                build_centrality_matrix(layer, kind)
        assert net.n_layers == 3 and sum(layer.rows.size for layer in net.layers) == 400
        assert not any("entries" in vars(layer) for layer in net.layers)


def test_loaded_network_holds_one_edge_copy(tmp_path):
    # the layers' CSR arrays are the only per-edge data a loaded network and
    # its eigenvector layer matrices keep; index columns beside them would
    # take the total past twice the CSR bytes
    path = tmp_path / "net.edges"
    _write_random_edges(path, 20_000, 90_000, layers=3)

    def load():
        net = load_multiplex(path)
        problem = SupraProblem(net, Eigenvector(), all_to_all(net.n_layers))
        return net, problem.layer_matrices

    load()  # first-use imports and caches are not edge data
    tracemalloc.start()
    try:
        net, matrices = load()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    csr_bytes = sum(a.nbytes for layer in net.layers
                    for a in (layer.csr.indptr, layer.csr.indices, layer.csr.data))
    assert all(m.sparse is layer.csr for m, layer in zip(matrices, net.layers))
    assert current <= 1.25 * csr_bytes, (current, csr_bytes)


def test_ordered_and_shuffled_files_parse_the_same(tmp_path):
    parse, parsed = fileio._parse_edges_whole, []

    def recorded(path):
        parsed.append(parse(path))
        return parsed[-1]

    # one layer too: scipy itself copies a layer's slice of a much longer column
    for layers in (1, 3):
        ordered, shuffled = (tmp_path / f"{name}{layers}.edges" for name in ("ordered", "shuffled"))
        _write_random_edges(shuffled, 30, 400, layers=layers)
        lines = sorted(shuffled.read_text().splitlines(keepends=True),
                       key=lambda line: tuple(map(int, line.split()[:3])))
        ordered.write_text("".join(lines))
        nets = {}
        for path in (ordered, shuffled):
            with pytest.MonkeyPatch.context() as patch:
                if path == ordered:  # an ordered file is not sorted again
                    patch.setattr(np, "lexsort", None)
                patch.setattr(fileio, "_parse_edges_whole", recorded)
                nets[path] = load_multiplex(path, n_nodes=30)
            # no layer keeps the parse's buffer alive: its CSR arrays are its own
            assert not any(np.shares_memory(a, column) for layer in nets[path].layers
                           for a in (layer.csr.indptr, layer.csr.indices, layer.csr.data)
                           for column in parsed[-1])
        assert nets[ordered] == nets[shuffled]
        for layer in nets[ordered].layers:
            assert all(a.flags.c_contiguous for a in (layer.rows, layer.cols, layer.weights))
