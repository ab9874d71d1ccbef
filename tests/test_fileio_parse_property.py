"""The whole-file parse of load_multiplex against the line scan: on
generated edge files both give the same network or the same error."""
import contextlib
import logging
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from supracentrality import fileio
from supracentrality.fileio import load_multiplex

_CLEAN = {
    "layer": ["1", "2", "3", "5", "9", "+3"],
    "index": ["1", "2", "3", "4", "+2", "007"],
    "weight": ["1.0", "0.5", "2", "1e-3", "+.25", "3.", "1E2", "0.1", "7e-320"],
}
_DEFECTS = {
    "layer": ["0", "1_0", "-2"],
    "index": ["0", "-1", "1_000", "\u0663", "1.0", "x", "99999999999999999999"],
    "weight": ["nan", "inf", "-inf", "1e309", "1_0.5", "1,5", "w", "0", "-1.5"],
}


@st.composite
def _edge_files(draw):
    """Edge-list bytes: comment, blank and edge lines with padded whitespace,
    then up to three defects that the line scan may or may not accept."""
    columns = draw(st.sampled_from([3, 4, 4]))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    pad = st.sampled_from(["", " ", "\t", " \t "])
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["comment", "blank"]))
        if kind == "comment":
            note = draw(st.sampled_from(["layer i j w", "Zürich", "1 2"]))
            lines.append([draw(pad) + "# " + note])
        elif kind == "blank":
            lines.append([draw(pad)])
        else:
            fields = ["layer", "index", "index", "weight"][:columns]
            lines.append([draw(st.sampled_from(_CLEAN[f])) for f in fields])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        if not lines:
            break
        tokens = lines[draw(st.integers(0, len(lines) - 1))]
        defect = draw(st.sampled_from(["token", "token", "inline", "columns", "cr", "space"]))
        if defect == "token" and len(tokens) >= 3:
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(st.sampled_from(_DEFECTS[["layer", "index", "index", "weight"][k]]))
        elif defect == "inline":
            tokens[-1] += draw(st.sampled_from([" # note", "#"]))
        elif defect == "columns":
            tokens.append(draw(st.sampled_from(_CLEAN["weight"])))
        elif defect == "cr":
            tokens[-1] += "\r"
        elif defect == "space":  # whitespace to str.split, but not a line end
            tokens[0] += draw(st.sampled_from(["\x0b", "\x0c", "\x1c", "\xa0", "\x85",
                                               "\u2028", "\u3000"]))
    text = ""
    for tokens in lines:
        seps = [draw(st.sampled_from([" ", "  ", "\t"])) for _ in tokens[1:]]
        body = tokens[0] + "".join(sep + tok for sep, tok in zip(seps, tokens[1:]))
        text += (draw(pad) + body + draw(pad) if len(tokens) > 1 else body) + newline
    return text.encode("utf-8")


def _outcome(path, n_nodes, whole: bool):
    """What loading gives, with the whole-file parse on or off: the network
    or the error, and the log lines."""
    records = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append(record.getMessage())
    logger = logging.getLogger(fileio.__name__)
    logger.addHandler(handler)
    line_scan_only = mock.patch.object(fileio, "_parse_edges_whole", lambda path: None)
    try:
        with contextlib.nullcontext() if whole else line_scan_only:
            net = load_multiplex(path, n_nodes=n_nodes)
        result = ("ok", net, [repr(layer.entries) for layer in net.layers])
    except Exception as err:  # compared by type and message
        result = (type(err), str(err))
    finally:
        logger.removeHandler(handler)
    return result, records


def _assert_same_as_line_scan(data: bytes, n_nodes=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.edges")
        with open(path, "wb") as fh:
            fh.write(data)
        assert _outcome(path, n_nodes, whole=True) == _outcome(path, n_nodes, whole=False)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_edge_files(), st.sampled_from([None, None, 3, 6]))
@example(b" \t# indented\n1 1 2\n", None)  # comment lines
@example(b"1 1 2\r\n# crlf\r\n1 2 1\r\n", None)
@example(b"1 1 2\n1 2 1 # inline\n", None)
@example(b"1 1 2\n# last line, no newline", None)
@example(b"1 1 2\n# note\r1 2 1\n", None)  # a lone CR ends the comment's line
def test_whole_file_parse_matches_line_scan(data, n_nodes):
    _assert_same_as_line_scan(data, n_nodes)


def test_whole_file_parse_matches_line_scan_on_undecodable_bytes():
    _assert_same_as_line_scan(b"1 1 2\n1 2 \xff1\n")
    _assert_same_as_line_scan(b"# caf\xe9\n1 1 2\n")
