"""File ingestion and result emission.

Edge lists are whitespace-separated text with 1-based indices:

    layer node_i node_j [weight]      # weight defaults to 1.0

Full-line comments start with '#'.  Layer indices need not be contiguous;
they are densely re-indexed in sorted order and the mapping is logged.
Edge lists are parsed whole with numpy or, if that cannot prove a file
clean, line by line into typed columns; both share one sort and duplicate
test, and only the scan raises :class:`ParseError`, at the first bad line.
Interlayer triplet files use columns ``t t_prime weight`` with the same
conventions; weights must be finite.  Label files are ``index<TAB>label``
lines.  Every input file is UTF-8: a byte that does not decode is a
:class:`ParseError` naming its line.  Every output goes through
:func:`fmt` (17 significant digits, so every value re-parses exactly),
:func:`write_csv` and :func:`write_json`.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
import warnings
from array import array
from typing import TYPE_CHECKING

import numpy as np

from .interlayer import from_triplets
from .types import (CentralityTableau, InterlayerMatrix, LayerGraph, MultiplexNetwork,
                    in_lex_order, validate_network)

if TYPE_CHECKING:  # the solver modules, which parsing and writing never call
    from .engine import EigenpairResult
    from .graph import PreconditionReport
    from .sweeps import SweepResult

__all__ = [
    "ParseError",
    "ValidationError",
    "load_multiplex",
    "load_labels",
    "load_interlayer",
    "write_tableau_csv",
    "read_tableau_csv",
    "write_summary_json",
    "write_sweep_csv",
    "write_csv",
    "write_json",
    "fmt",
]

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, path, lineno: int, message: str):
        self.path = str(path)
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}")


class ValidationError(ValueError):
    """A parsed network violates structural invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid network:\n  " + "\n  ".join(self.violations))


def fmt(value: float) -> str:
    """A number as text with 17 significant digits, which re-parses exactly."""
    return format(float(value), ".17g")


def write_csv(path, header: list[str], rows) -> None:
    """CSV through ``csv.writer``: fields holding commas or quotes are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload: dict) -> None:
    """JSON with two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# what the surrogateescape handler decodes each undecodable byte to
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _data_lines(path):
    # surrogateescape keeps a bad byte in its line, so the error names the line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            bad = _ESCAPED_BYTE.search(raw)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                raise ParseError(path, lineno, f"not valid UTF-8 (byte {byte:#04x})")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def load_labels(path, count: int) -> tuple[str, ...]:
    """Read ``index<TAB>label`` lines, one per index; unlisted ones keep their number."""
    labels = [str(i) for i in range(1, count + 1)]
    seen: dict[int, int] = {}
    for lineno, line in _data_lines(path):
        idx_str, sep, label = line.partition("\t")
        if not sep:
            raise ParseError(path, lineno, "expected 'index<TAB>label'")
        try:
            idx = int(idx_str)
        except ValueError:
            raise ParseError(path, lineno, f"bad index {idx_str!r}") from None
        if not 1 <= idx <= count:
            raise ParseError(path, lineno, f"index {idx} out of range 1..{count}")
        if idx in seen:
            message = f"duplicate index {idx} (first seen on line {seen[idx]})"
            raise ParseError(path, lineno, message)
        seen[idx] = lineno
        labels[idx - 1] = label
    return tuple(labels)


def _sorted_edges(path, layer, i, j, w, lines=None):
    """The edge columns stably sorted by (layer, i, j): the one sort and
    repeated-key test of both parse paths.  Columns already in strict order
    are returned as they are, views included: ``LayerGraph.from_arrays``
    copies each layer's slice, so no layer keeps the parse's buffer alive.
    A repeated key gives None, or, with ``lines``, a ParseError at the
    earliest line that repeats a key; its first line sorts right before it."""
    if in_lex_order(layer, i, j, strict=True):
        return layer, i, j, w
    order = np.lexsort((j, i, layer))
    layer, i, j = layer[order], i[order], j[order]
    if in_lex_order(layer, i, j, strict=True):
        return layer, i, j, w[order]
    if lines is None:
        return None
    lines = lines[order]
    repeats = 1 + np.flatnonzero((np.diff(layer) == 0) & (np.diff(i) == 0) & (np.diff(j) == 0))
    k = repeats[np.argmin(lines[repeats])]
    key = (int(layer[k]), int(i[k]), int(j[k]))
    message = f"duplicate edge {key} (first seen on line {lines[k - 1]})"
    raise ParseError(path, int(lines[k]), message)


def _scan_edges(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Line-by-line parse: flat (layer, i, j, weight) arrays sorted by (layer, i, j).

    This is the reference reading of an edge list and the only source of
    :class:`ParseError` for it.  Each line is checked, then appended to typed
    columns that :func:`_sorted_edges` sorts and tests for repeated keys.  The
    first error in the file is raised: a repeat above a bad line wins.
    """
    keys, weights = array("q"), array("d")  # layer, i, j and line number of each edge
    try:
        for lineno, line in _data_lines(path):
            parts = line.split()
            if len(parts) not in (3, 4):
                raise ParseError(path, lineno, f"expected 3 or 4 columns, got {len(parts)}")
            try:
                layer, i, j = map(int, parts[:3])
            except ValueError:
                raise ParseError(path, lineno, f"bad integer field in {line!r}") from None
            weight = 1.0
            if len(parts) == 4:
                try:
                    weight = float(parts[3])
                except ValueError:
                    raise ParseError(path, lineno, f"bad weight {parts[3]!r}") from None
                if not math.isfinite(weight):
                    raise ParseError(path, lineno, f"non-finite weight {parts[3]!r}")
            if layer < 1 or i < 1 or j < 1:
                raise ParseError(path, lineno, "indices must be 1-based positive integers")
            if max(layer, i, j) >= 2**63:
                raise ParseError(path, lineno, f"index above the int64 limit {2**63 - 1}")
            keys.extend((layer, i, j, lineno))
            weights.append(weight)
    except ParseError as err:
        error = err
    else:
        error = None if weights else ParseError(path, 0, "file contains no edges")
    layer, i, j, lines = np.asarray(keys).reshape(-1, 4).T
    edges = _sorted_edges(path, layer, i, j, np.asarray(weights), lines)  # a repeat comes first
    if error:
        raise error
    return edges


# bytes a clean edge list holds outside its comment lines
_EDGE_BYTES = b"0123456789+-.eE \t\n"
_COMMENT = re.compile(rb"#[^\r\n]*")
_FIRST_LINE = re.compile(rb"\S[^\n]*")


def _strip_comment_lines(data: bytes) -> bytes | None:
    """``data`` without its full-line comments (spaces or tabs, '#', then up
    to a CR or LF), or None where a '#' follows data on its line."""
    kept, pos = [], 0
    for comment in _COMMENT.finditer(data):
        start = data.rfind(b"\n", 0, comment.start()) + 1
        if data[start:comment.start()].strip(b" \t"):
            return None
        kept.append(data[pos:start])
        pos = comment.end()
    kept.append(data[pos:])
    return b"".join(kept)


def _parse_edges_whole(path):
    """Whole-file numpy parse with the result of :func:`_scan_edges`, or
    None where the file is not provably clean.

    It accepts a strict subset of what the line scan accepts: valid UTF-8,
    only number bytes outside full-line comments, LF or CRLF line ends (a
    lone CR also ends a line, so it is not let through), one column count
    (3 or 4) throughout, integer fields numpy reads as int64 (Python's
    ``int`` takes each of them), positive indices, finite weights and no
    duplicate (layer, i, j) key.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    body = _strip_comment_lines(data.replace(b"\r\n", b"\n"))
    if body is None or body.translate(None, _EDGE_BYTES):
        return None
    first = _FIRST_LINE.search(body)
    columns = len(first.group().split()) if first else 0
    del data, first  # the match refers to the file bytes too; body goes after loadtxt
    if columns not in (3, 4):
        return None
    fields = [("layer", np.int64), ("i", np.int64), ("j", np.int64), ("w", np.float64)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.BytesIO(body), dtype=fields[:columns], comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    del body
    layer, i, j = rows["layer"], rows["i"], rows["j"]
    w = rows["w"] if columns == 4 else np.ones(rows.size)
    if min(layer.min(), i.min(), j.min()) < 1 or not np.isfinite(w).all():
        return None
    return _sorted_edges(path, layer, i, j, w)


def load_multiplex(
    path,
    *,
    node_labels_path=None,
    layer_labels_path=None,
    n_nodes: int | None = None,
) -> MultiplexNetwork:
    """Parse a multiplex edge-list file into a validated network.

    The file is parsed whole with numpy; a file that parse cannot prove
    clean is read again line by line into typed columns, which reports the
    first bad line, a repeated (layer, i, j) key included, by number.  Both
    paths share one sort and duplicate test.  The node count is the largest
    node index seen unless ``n_nodes`` overrides it.  Structural violations
    raise :class:`ValidationError`; an index above ``n_nodes`` stops the
    load at the first such edge of the first layer that has one.  The layer
    re-index mapping is logged when layers are not 1..T.
    """
    parsed = _parse_edges_whole(path)
    layer, i, j, w = parsed if parsed is not None else _scan_edges(path)
    starts = np.flatnonzero(np.diff(layer, prepend=0))
    layer_ids = layer[starts].tolist()
    if layer_ids != list(range(1, len(layer_ids) + 1)):
        mapping = {old: new for new, old in enumerate(layer_ids, start=1)}
        log.warning("re-indexed non-contiguous layers: %s", mapping)
    count = n_nodes if n_nodes is not None else int(max(i.max(), j.max()))

    node_labels = load_labels(node_labels_path, count) if node_labels_path else None
    layer_labels = (
        load_labels(layer_labels_path, len(layer_ids)) if layer_labels_path else None
    )
    per_layer = zip(*(np.split(a, starts[1:]) for a in (i, j, w)))
    layers = []
    for t, arrays in enumerate(per_layer, start=1):
        try:
            layers.append(LayerGraph.from_arrays(count, *arrays))
        except ValueError as err:  # the first edge out of range
            raise ValidationError([f"layer {t}: {err}"]) from None
    net = MultiplexNetwork(
        n_nodes=count, layers=tuple(layers), node_labels=node_labels, layer_labels=layer_labels
    )
    violations = validate_network(net)
    if violations:
        raise ValidationError(violations)
    return net


def load_interlayer(path, n_layers: int) -> InterlayerMatrix:
    """Parse a ``t t_prime weight`` triplet file into an interlayer matrix;
    ``from_triplets`` checks each triplet as it is read, so errors name its line."""
    lineno = 0

    def triplets():
        nonlocal lineno
        for lineno, line in _data_lines(path):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(path, lineno, f"expected 3 columns, got {len(parts)}")
            try:
                t, t_prime, weight = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError(path, lineno, f"bad field in {line!r}") from None
            if not math.isfinite(weight):
                raise ParseError(path, lineno, f"non-finite weight {parts[2]!r}")
            yield t, t_prime, weight

    try:
        return from_triplets(n_layers, triplets())
    except ParseError:
        raise
    except ValueError as err:
        raise ParseError(path, lineno, str(err)) from err


def write_tableau_csv(tableau: CentralityTableau, net: MultiplexNetwork, path) -> None:
    """Joint-centrality CSV: header ``node,<layer labels>``, one row per node."""
    write_csv(
        path,
        ["node"] + [net.layer_label(t) for t in range(1, net.n_layers + 1)],
        ([net.node_label(i)] + [fmt(v) for v in tableau.W[i - 1, :]]
         for i in range(1, net.n_nodes + 1)),
    )


def read_tableau_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Inverse of :func:`write_tableau_csv`: (node labels, layer labels, W)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        layer_labels = header[1:]
        node_labels = []
        rows = []
        for row in reader:
            node_labels.append(row[0])
            rows.append([float(v) for v in row[1:]])
    return node_labels, layer_labels, np.array(rows)


def write_summary_json(
    path,
    tableau: CentralityTableau,
    eigenpair: EigenpairResult,
    preconditions: PreconditionReport,
) -> None:
    """Run summary with the fixed field set used by downstream tooling."""
    payload = {
        "omega": tableau.omega,
        "lambda_max": tableau.lambda_max,
        "iterations": eigenpair.iterations,
        "residual": eigenpair.residual,
        "mnc": [float(v) for v in tableau.mnc],
        "mlc": [float(v) for v in tableau.mlc],
        "preconditions": {
            "interlayer_ok": preconditions.interlayer_ok,
            "layer_sum_ok": preconditions.layer_sum_ok,
        },
    }
    write_json(path, payload)


def write_sweep_csv(result: SweepResult, path) -> None:
    """One row per coupling strength: omega, eigenvalue, both sensitivities,
    then the T marginal layer centralities and N marginal node centralities.

    The first row's sensitivities (no previous point) and any failed points
    are written as nan.
    """
    net = result.problem.network
    header = ["omega", "lambda_max", "w_sensitivity", "z_sensitivity"]
    header += [f"mlc_{net.layer_label(t)}" for t in range(1, net.n_layers + 1)]
    header += [f"mnc_{net.node_label(i)}" for i in range(1, net.n_nodes + 1)]

    def rows():
        for s, (omega, tab) in enumerate(zip(result.grid.values, result.tableaus)):
            w_s = result.w_sensitivity[s - 1] if s >= 1 else math.nan
            z_s = result.z_sensitivity[s - 1] if s >= 1 else math.nan
            if tab is None:
                values = [omega, math.nan, w_s, z_s] + [math.nan] * (net.n_layers + net.n_nodes)
            else:
                values = [omega, tab.lambda_max, w_s, z_s, *tab.mlc, *tab.mnc]
            yield [fmt(v) for v in values]

    write_csv(path, header, rows())
