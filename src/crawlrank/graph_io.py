"""Partitioned edge-list files and modulo partitioning.

A graph lives on disk as one text file per worker. The file holds two
header lines, the count of vertices this worker owns and the count of
its out-edges, followed by one "<source> <dest>" row per edge. A vertex
exists only as the end of an edge row, so ``partition_graph`` takes a
graph as its edges alone. It gives a vertex to worker ``id % workers``
and puts each edge in the partition of its source; destinations can
point anywhere. This module writes the text and reads it back, the rows a
bounded chunk at a time. What a set of partitions means, which worker
owns each row and whether the headers cover the vertices, is judged by
the engine that runs it (``bsp.run``).

The format is deliberately rigid (ASCII digits without leading zeros,
single spaces, LF line endings, a trailing newline, no blank lines) so
that emitting and re-parsing a partition is byte-exact in both directions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import lt


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


_CHUNK = 4096  # characters of rows parsed at a time, stretched to the end of a row
# The start of the first row that is not "<source> <dest>"; the end of the text is no row.
_BAD_ROW = re.compile(r"^(?!(?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*)$)(?!\Z)", re.M)


def parse_partition(text: str) -> GraphPartition:
    """Parse one partition file's text.

    Raises FormatError for malformed text: a missing final newline, bad
    headers, a header/body mismatch, bad rows or duplicate rows, naming
    the 1-based line of the first fault (a missing final newline first).
    The rows are read a chunk at a time, with one ``int()`` per id no
    earlier row named, shared by every row that names it. Rows in
    strictly ascending (source, dest) order, as ``partition_graph``
    writes them, hold no duplicate; from the first row out of that order
    on, a set of the rows read so far finds the first duplicate.
    """
    body = text.count("\n") - 2  # the rows, once the text ends with a newline
    if text[-1:] not in ("", "\n"):
        raise FormatError(f"line {body + 3}: file must end with a newline")
    if body < 0:
        raise FormatError("line 1: missing header lines (vertex count, edge count)")
    first = text.index("\n")
    start = text.index("\n", first + 1) + 1
    vertex_count = _parse_int(text[:first], 1, "vertex count")
    edge_count = _parse_int(text[first + 1 : start - 1], 2, "edge count")
    if edge_count != body:
        raise FormatError(f"line 2: header declares {edge_count} edges but {body} rows follow")
    part = GraphPartition(vertex_count)
    number: dict[str, int] = {}  # one int per distinct id
    seen: set[tuple[int, int]] | None = None  # the rows read, once one is out of order
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end]
        bad = _BAD_ROW.search(chunk)
        fault = chunk.count("\n", 0, bad.start()) if bad else None  # the chunk's bad row
        tokens = chunk[: bad.start() if bad else None].split()
        fresh = [token for token in dict.fromkeys(tokens) if token not in number]
        try:  # in order of first use; update() keeps what it took before int() fails
            number.update(zip(fresh, map(int, fresh)))
        except ValueError:  # more digits than int() takes: that row is the first fault
            fault = next(i for i, token in enumerate(tokens) if token not in number) // 2
            del tokens[2 * fault :]
        sources = list(map(number.__getitem__, tokens[::2]))
        dests = list(map(number.__getitem__, tokens[1::2]))
        rows = list(zip(sources, dests))
        last = (part.sources[-1], part.dests[-1]) if part.sources else (-1, -1)
        if seen is None and not all(map(lt, [last, *rows], rows)):
            seen = set(zip(part.sources, part.dests))
        if seen is not None:
            for line_no, pair in enumerate(rows, len(part.sources) + 3):
                if pair in seen:
                    raise FormatError(f"line {line_no}: duplicate edge {pair[0]} {pair[1]}")
                seen.add(pair)
        part.sources += sources
        part.dests += dests
        if fault is not None:  # the first fault of the text; the checks below raise it
            line_no = len(part.sources) + 3
            row = chunk.split("\n")[fault]
            fields = row.split(" ")
            if len(fields) == 2:
                _parse_int(fields[0], line_no, "source")
                _parse_int(fields[1], line_no, "dest")
            raise FormatError(f"line {line_no}: expected '<source> <dest>', got {row!r}")
        start = end
    return part


def emit_partition(partition: GraphPartition) -> str:
    """Render a partition back to its text form.

    Inverse of parse_partition: parse(emit(p)) == p, and emit(parse(t))
    reproduces t byte for byte.
    """
    rows = zip(partition.sources, partition.dests, strict=True)
    pieces = [f"{partition.vertex_count}\n{len(partition.sources)}\n"]
    pieces.extend(f"{src} {dst}\n" for src, dst in rows)
    return "".join(pieces)


def partition_graph(edges, workers: int) -> list[GraphPartition]:
    """Split a graph, given as any iterable of (source, dest) edges, into
    one partition per worker.

    The vertices are the edges' endpoints. Edges are deduplicated and
    sorted, then routed by source ownership; every endpoint, sinks
    included, counts toward its owner's header. Only files that parse
    and run are written: an endpoint that is not an int >= 0 (a bool
    emits as "True") raises ValueError naming the first edge that holds
    one, before anything is sorted.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    edges = list(edges)
    for edge in edges:
        for vid in edge:
            if type(vid) is not int or vid < 0:
                raise ValueError(f"edge {edge!r} names {vid!r}, which is not an int >= 0")
    edges = sorted(set(edges))
    parts = [GraphPartition(0) for _ in range(workers)]
    for vid in set().union(*edges):
        parts[vid % workers].vertex_count += 1
    for src, dst in edges:
        part = parts[src % workers]
        part.sources.append(src)
        part.dests.append(dst)
    return parts


def make_edge_list(edges) -> EdgeList:
    """The graph that ``partition_graph(edges, workers)`` writes, as an
    EdgeList whose vertex set is the edges' endpoints."""
    edges = list(edges)
    return EdgeList(set().union(*edges), edges)
