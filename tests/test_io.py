import io
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import resist_sketch as rs
from conftest import weighted_graphs
from resist_sketch.io import _load_arrays, _load_lines


def test_single_edge_file():
    g = rs.load_graph(io.StringIO("2 1\n0 1 1.0"))
    assert g.n == 2
    assert list(g.edges) == [(0, 1, 1.0)]


def test_triangle_file():
    g = rs.load_graph(io.StringIO("3 3\n0 1 1\n1 2 1\n0 2 1"))
    assert g.n == 3 and g.m == 3
    assert g.weights().tolist() == [1.0, 1.0, 1.0]


def test_comments_and_blank_lines_skipped():
    text = "# a triangle\n\n3 3\n0 1 1\n# middle\n1 2 1\n\n0 2 1\n"
    assert rs.load_graph(io.StringIO(text)).m == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("3\n0 1 1", "header"),
        ("2 1\n0 0 1.0", "self-loop"),
        ("2 1\n0 1", "edge line"),
        ("2 1\n0 1 -3", "weight"),
        ("2 1\n0 1 0", "weight"),
        ("2 1\n0 1 nan", "weight"),
        ("2 1\n0 2 1.0", "out of range"),
        ("2 1\n0 x 1.0", "vertex id"),
        ("2 1\n1.5 0 1.0", "vertex id"),
        ("1 0", "vertex count"),
        ("3 2\n0 1 1", "announced"),
        ("2 1\n0 1 1\n1 0 2", "more than"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(rs.GraphParseError) as exc:
        rs.load_graph(io.StringIO(text))
    assert fragment in str(exc.value)


def test_error_names_line_number():
    with pytest.raises(rs.GraphParseError, match="line 4"):
        rs.load_graph(io.StringIO("# hi\n3 3\n0 1 1\n0 0 1\n1 2 1"))


def test_load_from_path(tmp_path):
    target = tmp_path / "g.txt"
    target.write_text("2 1\n0 1 2.5\n", encoding="utf-8")
    assert rs.load_graph(target).edges[0] == (0, 1, 2.5)
    assert rs.load_graph(str(target)).edges[0] == (0, 1, 2.5)


def test_load_from_bytes_stream():
    g = rs.load_graph(io.BytesIO(b"2 1\n0 1 1.0\n"))
    assert g.m == 1


@given(weighted_graphs())
@settings(max_examples=60, deadline=None)
def test_round_trip_exact(g):
    buffer = io.StringIO()
    rs.save_graph(g, buffer)
    back = rs.load_graph(io.StringIO(buffer.getvalue()))
    assert back.n == g.n
    assert back.m == g.m
    assert back.edges == g.edges


def _outcome(load, text):
    """The graph a loader returns, or the message and line of its GraphParseError."""
    try:
        return load(text)
    except rs.GraphParseError as exc:
        return str(exc), exc.line


def _load_text(text):
    return rs.load_graph(io.StringIO(text))


#: line breaks of str.splitlines other than \n and \r\n
_BREAKS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_TOKENS = ["1.0", "1e3", "+1", "1_0", "0x10", "nan", "inf", "-2", "99999999999999999999"]


@st.composite
def edge_files(draw):
    """An edge-list file of a valid graph, laid out freely, then mutated at most once."""
    g = draw(weighted_graphs())
    rows = [[str(g.n), str(g.m)]] + [[str(u), str(v), repr(w)] for u, v, w in g.edges]
    kind = draw(
        st.sampled_from(["none", "token", "comment", "width", "count", "break"])
    )
    at = draw(st.integers(1, len(rows) - 1))
    if kind == "token":
        rows[at][draw(st.integers(0, 2))] = draw(st.sampled_from(_TOKENS))
    elif kind == "comment":
        rows[at].append("# c")
    elif kind == "width":
        rows[at] = rows[at][:2] if draw(st.booleans()) else rows[at] + ["1"]
    elif kind == "count":
        if draw(st.booleans()):
            rows.insert(at, ["0", "1", "1.0"])
        else:
            del rows[at]
    blank, comment = ["", " ", "\t"], ["# note", " # indented"]
    # comments after the header send the file down the per-line path, so only some have them
    commented = draw(st.booleans())
    lines = []
    for i, row in enumerate(rows):
        fillers = blank + comment if commented or i == 0 else blank
        lines += draw(st.lists(st.sampled_from(fillers), max_size=2))
        line = draw(st.sampled_from([" ", "\t", " \t "])).join(row)
        if kind == "break" and i == at:
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + draw(st.sampled_from(_BREAKS)) + line[cut:]
        lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@given(edge_files())
@settings(max_examples=300, deadline=None)
@example("2 1\n0 1\x0c2\n")
@example("2 1\n0 1 2 # c\n")
@example("# c\r3 1\n2 1\n0 1 2\n")
def test_loader_agrees_with_reference_parser(text):
    assert _outcome(_load_text, text) == _outcome(_load_lines, text)


def test_loader_agrees_on_every_blank_and_control_character():
    # every character str.split, str.strip or str.splitlines treats specially,
    # placed in each position of a one-edge file
    chars = [
        chr(c)
        for c in range(0x3001)
        if chr(c).isspace() or unicodedata.category(chr(c)) in ("Cc", "Zl", "Zp")
    ] + ["\u0663", "\uff11", "#"]
    templates = [
        "{c}2 1\n0 1 2\n", "2{c}1\n0 1 2\n", "2 1{c}\n0 1 2\n", "2 1\n{c}0 1 2\n",
        "2 1\n0{c}1 2\n", "2 1\n0 1{c}2\n", "2 1\n0 1 2{c}\n", "2 1\n0 1 2{c}",
        "2 1\n0 1 2{c}5\n", "2 1\n0 1 2\n{c}\n", "3 1\n{c}\n0 1 2\n", "3 1\n0 1{c}\n1 2 5\n",
    ]
    for c in chars:
        for template in templates:
            text = template.format(c=c)
            assert _outcome(_load_text, text) == _outcome(_load_lines, text), repr(text)


@given(weighted_graphs())
@settings(max_examples=60, deadline=None)
def test_array_path_reads_saved_files(g):
    # files save_graph writes never fall back to the per-line parser
    buffer = io.StringIO()
    rs.save_graph(g, buffer)
    loaded = _load_arrays(buffer.getvalue())
    assert loaded == g
    assert loaded.edges == g.edges


def test_vector_round_trip(tmp_path):
    x = np.array([1.5, -2.25, 1e-17, 3.141592653589793])
    target = tmp_path / "b.txt"
    rs.save_vector(x, target)
    np.testing.assert_array_equal(rs.load_vector(target), x)


def test_vector_rejects_garbage():
    with pytest.raises(rs.GraphParseError, match="line 2"):
        rs.load_vector(io.StringIO("1.0\nzap\n"))
    with pytest.raises(rs.GraphParseError):
        rs.load_vector(io.StringIO("1.0 2.0\n"))
