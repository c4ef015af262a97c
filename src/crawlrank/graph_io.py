"""Partitioned edge-list files and modulo partitioning.

A graph lives on disk as one text file per worker. The file holds two
header lines, the count of vertices this worker owns and the count of
its out-edges, followed by one "<source> <dest>" row per edge.
``partition_graph`` gives a vertex to worker ``id % workers`` and puts
each edge in the partition of its source; destinations can point
anywhere. This module reads and writes the text. What a set of
partitions means, which worker owns each row and whether the headers
cover the vertices, is judged by the engine that runs it (``bsp.run``).

The format is deliberately rigid (ASCII digits without leading zeros,
single spaces, LF line endings, a trailing newline, no blank lines) so
that emitting and re-parsing a partition is byte-exact in both directions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice


class FormatError(ValueError):
    """A partition file does not match the expected text format."""


@dataclass
class GraphPartition:
    """One worker's share of a graph: the count of vertices it owns and
    their out-edges as two columns, row ``i`` being the edge
    ``sources[i] -> dests[i]``, which is what its file holds. Its worker
    index is its position in the partition list."""

    vertex_count: int
    sources: list[int] = field(default_factory=list)
    dests: list[int] = field(default_factory=list)

    @property
    def edges(self) -> list[tuple[int, int]]:  # the rows as pairs, built on each read
        return list(zip(self.sources, self.dests, strict=True))


@dataclass
class EdgeList:
    """A whole graph: every vertex id, plus (source, dest) pairs."""

    vertex_ids: set[int] = field(default_factory=set)
    edges: list[tuple[int, int]] = field(default_factory=list)


def assign_worker(vertex_id: int, workers: int) -> int:
    """Owning worker of a vertex: the vertex id modulo the worker count."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if vertex_id < 0:
        raise ValueError("vertex ids must be >= 0")
    return vertex_id % workers


def partition_path(base: str, worker_index: int) -> str:
    """File name for one worker's partition, 1-based suffix."""
    return f"{base}_{worker_index + 1}"


def _parse_int(token: str, line_no: int, what: str) -> int:
    # Plain ASCII digits without a leading zero, so the value emits back as the token.
    if not (token.isdigit() and token.isascii()) or (token[0] == "0" and token != "0"):
        raise FormatError(
            f"line {line_no}: {what} must be a non-negative integer in plain digits, "
            f"got {token!r}"
        )
    try:
        return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise FormatError(f"line {line_no}: {what} has too many digits ({len(token)})") from None


# A count or vertex id: ASCII digits without a leading zero, as _parse_int accepts.
_NUMBER = re.compile(r"0|[1-9][0-9]*")
# The start of the first row that is not "<source> <dest>"; the end of the text is no row.
_BAD_ROW = re.compile(r"^(?!(?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*)$)(?!\Z)", re.M)


def parse_partition(text: str) -> GraphPartition:
    """Parse one partition file's text.

    Raises FormatError for malformed text: bad headers, bad rows, a
    header/body mismatch, duplicate rows or a missing final newline.
    Error messages carry the 1-based line number of the first bad line.

    Valid text is checked and converted a whole column at a time; text
    that fails any check is parsed again line by line, which raises the
    first error in file order.
    """
    partition = _parse_columns(text)
    if partition is None:
        partition = _parse_lines(text)
    return partition


def _parse_columns(text: str) -> GraphPartition | None:
    """``parse_partition`` of valid text, a column at a time; None when any check fails."""
    head = text.split("\n", 2)
    if len(head) != 3 or text[-1] != "\n":
        return None
    vertex_text, edge_text, rows = head
    if not (_NUMBER.fullmatch(vertex_text) and _NUMBER.fullmatch(edge_text)):
        return None
    try:  # int() refuses more digits than sys.get_int_max_str_digits() allows
        vertex_count, edge_count = int(vertex_text), int(edge_text)
        if rows.count("\n") != edge_count or _BAD_ROW.search(rows):
            return None
        tokens = rows.split()
        # One int per distinct id, shared by every row that names it.
        number = {token: int(token) for token in set(tokens)}
    except ValueError:
        return None
    sources = list(map(number.__getitem__, islice(tokens, 0, None, 2)))
    dests = list(map(number.__getitem__, islice(tokens, 1, None, 2)))
    del tokens  # the strings go before the duplicate check's pairs arrive
    if len(set(zip(sources, dests))) != edge_count:
        return None
    return GraphPartition(vertex_count, sources, dests)


def _parse_lines(text: str) -> GraphPartition:
    """``parse_partition`` one line at a time, stopping at the first bad line."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise FormatError(f"line {len(lines)}: file must end with a newline")
    lines.pop()
    if len(lines) < 2:
        raise FormatError("line 1: missing header lines (vertex count, edge count)")
    vertex_count = _parse_int(lines[0], 1, "vertex count")
    edge_count = _parse_int(lines[1], 2, "edge count")
    body = len(lines) - 2
    if body != edge_count:
        raise FormatError(f"line 2: header declares {edge_count} edges but {body} rows follow")
    sources, dests = [], []
    seen: set[tuple[int, int]] = set()
    for line_no, row in enumerate(lines[2:], start=3):
        fields = row.split(" ")
        if len(fields) != 2:
            raise FormatError(f"line {line_no}: expected '<source> <dest>', got {row!r}")
        src = _parse_int(fields[0], line_no, "source")
        dst = _parse_int(fields[1], line_no, "dest")
        pair = (src, dst)
        if pair in seen:
            raise FormatError(f"line {line_no}: duplicate edge {src} {dst}")
        seen.add(pair)
        sources.append(src)
        dests.append(dst)
    return GraphPartition(vertex_count, sources, dests)


def emit_partition(partition: GraphPartition) -> str:
    """Render a partition back to its text form.

    Inverse of parse_partition: parse(emit(p)) == p, and emit(parse(t))
    reproduces t byte for byte.
    """
    rows = zip(partition.sources, partition.dests, strict=True)
    pieces = [f"{partition.vertex_count}\n{len(partition.sources)}\n"]
    pieces.extend(f"{src} {dst}\n" for src, dst in rows)
    return "".join(pieces)


def partition_graph(graph: EdgeList, workers: int) -> list[GraphPartition]:
    """Split a whole graph into one partition per worker.

    Edges are deduplicated and sorted, then routed by source ownership.
    Every vertex id is counted toward its owner's header, including
    vertices with no out-edges.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    parts = [GraphPartition(0) for _ in range(workers)]
    for vid in graph.vertex_ids:
        parts[assign_worker(vid, workers)].vertex_count += 1
    for src, dst in sorted(set(graph.edges)):
        part = parts[src % workers]
        part.sources.append(src)
        part.dests.append(dst)
    return parts


def make_edge_list(edges, isolated=()) -> EdgeList:
    """Build an EdgeList whose vertex set covers every edge endpoint."""
    edges = list(edges)
    return EdgeList(set(isolated).union(*edges), edges)
