"""Reading and writing the edge-list and vector file formats.

Edge-list files are UTF-8 text: a header line ``n m``, then m lines
``u v w`` with 0-based integer vertex ids and a decimal weight. Vector files
hold one decimal number per line. Lines starting with ``#`` are comments and
blank lines are ignored in both formats. Weights are written with ``repr`` so
a save/load round trip is bit-exact.

An edge list is read in one C-level pass: np.loadtxt parses the lines after
the header into endpoint and weight arrays, which become the graph's storage
as they are. The per-line parser, ``_load_lines``, defines the grammar; the
fast pass declines every file it might read differently (see
``_load_arrays``), and the per-line parser then returns the same graph or
raises the same GraphParseError, line number included. The grammar is the
same either way.
"""

from __future__ import annotations

import io as _io
import math
import warnings
from pathlib import Path
from typing import IO

import numpy as np

from .errors import GraphParseError
from .graphs import WeightedGraph


def _read_text(source: str | Path | IO) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _content_lines(text: str):
    """Yield (1-based line number, stripped line), skipping comments and blanks."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphParseError(f"{what} is not an integer: {token!r}", lineno) from None


def _parse_weight(token: str, lineno: int) -> float:
    try:
        w = float(token)
    except ValueError:
        raise GraphParseError(f"weight is not a number: {token!r}", lineno) from None
    if not (math.isfinite(w) and w > 0.0):
        raise GraphParseError(f"weight must be finite and positive, got {token}", lineno)
    return w


def load_graph(source: str | Path | IO) -> WeightedGraph:
    """Parse an edge-list file into a WeightedGraph, edges in file order.

    Raises GraphParseError naming the offending line on any malformed line,
    non-positive weight, self-loop, out-of-range vertex id, or edge-count
    mismatch with the header.
    """
    text = _read_text(source)
    g = _load_arrays(text)
    return _load_lines(text) if g is None else g


#: line breaks of str.splitlines that np.loadtxt does not break at; a lone \r is one too
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_EDGE_ROW = np.dtype([("u", "i8"), ("v", "i8"), ("w", "f8")])


def _load_arrays(text: str) -> WeightedGraph | None:
    """The graph from one np.loadtxt pass over the edge lines, or None to defer.

    Defers to _load_lines, the grammar's reference, on anything it might read
    differently: another line break than \\n or \\r\\n, a ``#`` after the
    header, a bad header, a token or line loadtxt refuses or warns about, a
    row count other than m, or an edge the graph refuses. Whatever it
    returns, _load_lines returns too.
    """
    if any(c in text for c in _OTHER_BREAKS) or text.count("\r") != text.count("\r\n"):
        return None
    start = 0
    while True:
        end = text.find("\n", start)
        header = text[start : None if end < 0 else end].strip()
        if header and not header.startswith("#"):
            break
        if end < 0:
            return None
        start = end + 1
    body = "" if end < 0 else text[end + 1 :]
    if "#" in body:
        return None
    try:
        n, m = _parse_header(header, None)
        with warnings.catch_warnings():
            # numpy before 2.0 reads "1.0" into an int field, with a DeprecationWarning
            warnings.simplefilter("error")
            rows = np.loadtxt(_io.StringIO(body), dtype=_EDGE_ROW, ndmin=1, comments=None)
        if rows.size != m:
            return None
        return WeightedGraph._from_arrays(n, rows["u"], rows["v"], rows["w"])
    except (ValueError, OverflowError, Warning):  # GraphParseError is a ValueError
        return None


def _parse_header(header: str, lineno: int | None) -> tuple[int, int]:
    tokens = header.split()
    if len(tokens) != 2:
        raise GraphParseError(f"header must be 'n m', got {header!r}", lineno)
    n = _parse_int(tokens[0], "vertex count", lineno)
    m = _parse_int(tokens[1], "edge count", lineno)
    if n < 2:
        raise GraphParseError(f"vertex count must be >= 2, got {n}", lineno)
    if m < 0:
        raise GraphParseError(f"edge count must be >= 0, got {m}", lineno)
    return n, m


def _load_lines(text: str) -> WeightedGraph:
    """The grammar's reference: parse line by line, raising on the first bad line."""
    lines = _content_lines(text)
    try:
        header_lineno, header = next(lines)
    except StopIteration:
        raise GraphParseError("empty file: expected a 'n m' header line") from None
    n, m = _parse_header(header, header_lineno)

    edges = []
    for lineno, line in lines:
        if len(edges) == m:
            raise GraphParseError(f"more than the {m} edges announced in the header", lineno)
        tokens = line.split()
        if len(tokens) != 3:
            raise GraphParseError(f"edge line must be 'u v w', got {line!r}", lineno)
        u = _parse_int(tokens[0], "vertex id", lineno)
        v = _parse_int(tokens[1], "vertex id", lineno)
        w = _parse_weight(tokens[2], lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex id out of range for n={n}: ({u}, {v})", lineno)
        edges.append((u, v, w))
    if len(edges) != m:
        raise GraphParseError(f"header announced {m} edges but file has {len(edges)}")
    return WeightedGraph(n, tuple(edges))


def save_graph(g: WeightedGraph, target: str | Path | IO) -> None:
    """Write ``g`` in the edge-list format; load_graph(save_graph(g)) == g."""
    out = _io.StringIO()
    out.write(f"{g.n} {g.m}\n")
    for u, v, w in g.edges:
        out.write(f"{u} {v} {w!r}\n")
    _write_text(out.getvalue(), target)


def load_vector(source: str | Path | IO) -> np.ndarray:
    """Parse a vector file: one decimal number per line."""
    values = []
    for lineno, line in _content_lines(_read_text(source)):
        if len(line.split()) != 1:
            raise GraphParseError(f"vector line must hold one number, got {line!r}", lineno)
        try:
            values.append(float(line))
        except ValueError:
            raise GraphParseError(f"not a number: {line!r}", lineno) from None
    return np.array(values, dtype=float)


def save_vector(x: np.ndarray, target: str | Path | IO) -> None:
    """Write a vector, one ``repr`` per line."""
    _write_text("".join(f"{float(v)!r}\n" for v in np.asarray(x).ravel()), target)


def _write_text(text: str, target: str | Path | IO) -> None:
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)
