"""hMETIS-compatible hypergraph file I/O.

The ``.hgr`` format used by hMETIS/KaHyPar/PaToH-adjacent tooling:

* header: ``<num_hyperedges> <num_nodes> [fmt]`` where ``fmt`` is
  ``1`` (hyperedge weights), ``10`` (node weights) or ``11`` (both);
* one line per hyperedge: ``[weight] pin pin ...`` with 1-based pins;
* with node weights, ``num_nodes`` further lines of one weight each;
* ``%``-prefixed lines are comments.

Partition files hold one 0-based part id per line.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.hypergraph import Hypergraph
from ..core.partition import Partition
from ..errors import InvalidHypergraphError, InvalidPartitionError

__all__ = ["write_hgr", "read_hgr", "parse_hgr", "hgr_content_lines",
           "write_partition", "read_partition"]


def _has_nondefault(arr: np.ndarray) -> bool:
    return bool(np.any(arr != 1.0))


def write_hgr(graph: Hypergraph, path: str | Path) -> None:
    """Write a hypergraph in hMETIS format (weights included only when
    not all 1)."""
    edge_w = _has_nondefault(graph.edge_weights)
    node_w = _has_nondefault(graph.node_weights)
    fmt = ""
    if edge_w and node_w:
        fmt = " 11"
    elif node_w:
        fmt = " 10"
    elif edge_w:
        fmt = " 1"
    out = io.StringIO()
    out.write(f"{graph.num_edges} {graph.n}{fmt}\n")
    for j, e in enumerate(graph.edges):
        pins = " ".join(str(v + 1) for v in e)
        if edge_w:
            w = graph.edge_weights[j]
            wtxt = str(int(w)) if float(w).is_integer() else str(float(w))
            out.write(f"{wtxt} {pins}\n")
        else:
            out.write(pins + "\n")
    if node_w:
        for w in graph.node_weights:
            wtxt = str(int(w)) if float(w).is_integer() else str(float(w))
            out.write(wtxt + "\n")
    Path(path).write_text(out.getvalue())


def hgr_content_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(physical line no, stripped line)`` of every line of hMETIS
    *text* that is neither blank nor a ``%`` comment, after a leading
    UTF-8 BOM; the first one is the header."""
    if text.startswith("\ufeff"):
        text = text[1:]
    for no, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if ln and not ln.startswith("%"):
            yield no, ln


def parse_hgr(text: str, name: str = "") -> Hypergraph:
    """Parse hMETIS ``.hgr`` *text* (tolerant of real-world files).

    Accepted beyond the strict format: ``%`` comment lines (anywhere),
    CRLF line endings, a UTF-8 BOM, leading/trailing whitespace, tab
    separators, and blank lines (anywhere, including between content
    lines — some exporters emit them).  Every malformed construct
    raises :class:`InvalidHypergraphError` with the offending 1-based
    physical line number — never a bare ``ValueError`` traceback, which
    matters because the serving layer accepts ``.hgr`` uploads from
    untrusted clients.
    """
    lines = list(hgr_content_lines(text))
    if not lines:
        raise InvalidHypergraphError("empty hgr file")

    def _int(tok: str, what: str, no: int) -> int:
        try:
            return int(tok)
        except ValueError:
            raise InvalidHypergraphError(
                f"line {no}: {what} {tok!r} is not an integer") from None

    def _weight(tok: str, what: str, no: int) -> float:
        try:
            w = float(tok)
        except ValueError:
            raise InvalidHypergraphError(
                f"line {no}: {what} {tok!r} is not a number") from None
        if not w >= 0 or w != w or w == float("inf"):
            raise InvalidHypergraphError(
                f"line {no}: {what} must be finite and nonnegative, "
                f"got {tok!r}")
        return w

    hno, htxt = lines[0]
    header = htxt.split()
    if len(header) not in (2, 3):
        raise InvalidHypergraphError(f"line {hno}: bad header: {htxt!r}")
    m = _int(header[0], "hyperedge count", hno)
    n = _int(header[1], "node count", hno)
    if m < 0 or n < 0:
        raise InvalidHypergraphError(
            f"line {hno}: negative counts in header: {htxt!r}")
    fmt = header[2] if len(header) == 3 else "0"
    if fmt not in ("0", "00", "1", "01", "10", "11"):
        raise InvalidHypergraphError(
            f"line {hno}: unknown fmt code {fmt!r} (expected 1, 10 or 11)")
    edge_w = fmt in ("1", "01", "11")
    node_w = fmt in ("10", "11")
    expected = 1 + m + (n if node_w else 0)
    if len(lines) < expected:
        raise InvalidHypergraphError(
            f"truncated hgr file: header promises {m} hyperedge line(s)"
            + (f" and {n} node-weight line(s)" if node_w else "")
            + f", found {len(lines) - 1} content line(s)")
    if len(lines) > expected:
        no, extra = lines[expected]
        raise InvalidHypergraphError(
            f"line {no}: trailing content after the last expected line: "
            f"{extra!r}")
    edges = []
    weights = []
    for j in range(m):
        no, ln = lines[1 + j]
        parts = ln.split()
        if edge_w:
            weights.append(_weight(parts[0], "hyperedge weight", no))
            parts = parts[1:]
        pins = [_int(x, "pin", no) - 1 for x in parts]
        if any(not 0 <= v < n for v in pins):
            raise InvalidHypergraphError(f"line {no}: pin out of range "
                                         f"1..{n}")
        edges.append(tuple(pins))
    node_weights = None
    if node_w:
        node_weights = [_weight(lines[1 + m + i][1], "node weight",
                                lines[1 + m + i][0])
                        for i in range(n)]
    return Hypergraph(n, edges,
                      node_weights=node_weights,
                      edge_weights=weights if edge_w else None,
                      name=name)


def read_hgr(path: str | Path, name: str = "") -> Hypergraph:
    """Read an hMETIS ``.hgr`` file (see :func:`parse_hgr` for dialect)."""
    return parse_hgr(Path(path).read_text(),
                     name=name or Path(path).stem)


def write_partition(partition: Partition, path: str | Path) -> None:
    """Write one 0-based part id per line."""
    Path(path).write_text(
        "\n".join(str(int(p)) for p in partition.labels) + "\n")


def read_partition(path: str | Path, k: int | None = None) -> Partition:
    """Read a partition file; ``k`` defaults to ``max(label) + 1``."""
    labels = []
    for no, tok in enumerate(Path(path).read_text().split(), start=1):
        try:
            labels.append(int(tok))
        except ValueError:
            raise InvalidPartitionError(
                f"partition entry {no}: {tok!r} is not an integer") from None
    if any(v < 0 for v in labels):
        raise InvalidPartitionError("partition labels must be >= 0")
    arr = np.asarray(labels, dtype=np.int64)
    if k is None:
        k = int(arr.max()) + 1 if arr.size else 1
    return Partition(arr, k)
