"""Traced run of one crawlrank command, and the per-layer figures it gives.

As a script it runs one command in-process through ``crawlrank.cli.main``
with spans around the public functions of each layer, then writes the
spans and counters as JSON:

    python3 perfbench/tracer.py SPANS.json -- pipeline --seed ... --rounds 3

``crawlrank`` must be importable (the benchmark puts ``src`` on
PYTHONPATH). A span is ``[name, start, end, parent]``: start and end are
process CPU seconds (``time.process_time``, all threads), parent is the
index of the enclosing span on the same thread or -1. Per-superstep spans
come from the engine's public ``trace`` callback: engine set-up runs from
entering ``run`` to ``superstep: 0``, superstep n from ``superstep: n`` to
the next line. Spans stay in memory until the command returns.

``layer_metrics`` turns the files of several traced passes into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from pathlib import Path

# Metric name -> span names whose durations it sums.
SPAN_TIMES = {
    "cli.corpus_load_s": ("cli.corpus_load",),
    "cli.crawl_s": ("cli.crawl",),
    "cli.build_graph_s": ("cli.build_graph",),
    "cli.pagerank_s": ("cli.pagerank",),
    "pipeline.seed_stages_s": (
        "pipeline.split_input",
        "pipeline.map_swap",
        "pipeline.combine",
        "pipeline.partition",
    ),
    "pipeline.reduce_fetch_s": ("pipeline.reduce_fetch",),
    "pipeline.extract_links_s": ("pipeline.extract_links",),
    "store.extract_fields_s": ("store.extract_fields",),
    "store.put_s": ("store.put",),
    "store.open_s": ("store.open",),
    "store.export_edge_list_s": ("store.export_edge_list",),
    "hashing.fnv1a_s": ("hashing.fnv1a",),
    "graph_io.partition_graph_s": ("graph_io.partition_graph",),
    "graph_io.emit_s": ("graph_io.emit_partition",),
    "graph_io.parse_s": ("graph_io.parse_partition",),
    "bsp.run_s": ("bsp.run",),
    "bsp.setup_s": ("bsp.setup",),
    "pagerank.write_values_s": ("pagerank.write_values",),
}
# Counter name -> unit.
COUNTS = {
    "pipeline.seed_lines": "count",
    "pipeline.links_extracted": "count",
    "fetchers.fetch_calls": "count",
    "fetchers.fetch_bytes": "bytes",
    "store.put_calls": "count",
    "store.put_inserted": "count",
    "hashing.bytes_hashed": "bytes",
    "graph_io.edges": "count",
    "bsp.supersteps": "count",
    "bsp.messages": "count",
}


class Tracer:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._lock = threading.Lock()
        self._local = threading.local()

    def open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, time.process_time(), None, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.process_time()
        self._local.stack.pop()

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, func, note=None):
        """``func`` with a span around each call; ``note(result, *args)`` may count."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if note is not None:
                note(result, *args)
            return result

        return traced

    def add_span(self, name: str, start: float, end: float, parent: int) -> None:
        with self._lock:
            self.spans.append([name, start, end, parent])


def _engine_run(tracer: Tracer, run):
    """Wrap ``bsp.run``: a span for the run, spans per superstep from its trace lines."""

    @functools.wraps(run)
    def traced_run(partitions, program, config, trace=None):
        index = tracer.open("bsp.run")
        marks: list[float] = []

        def on_line(line: str) -> None:
            marks.append(time.process_time())
            if trace is not None:
                trace(line)

        try:
            report = run(partitions, program, config, trace=on_line)
        finally:
            tracer.close(index)
        start = tracer.spans[index][1]
        tracer.add_span("bsp.setup", start, marks[0], index)
        for begin, end in zip(marks, marks[1:]):
            tracer.add_span("bsp.superstep", begin, end, index)
        edges = sum(len(part.edges) for part in partitions)
        steps = report.supersteps_executed
        tracer.count("bsp.supersteps", steps)
        # Every vertex with out-edges sends along each of them in every
        # superstep but the last, in which all vertices vote to halt.
        tracer.count("bsp.messages", edges * max(steps - 1, 0))
        return report

    return traced_run


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer offers, where the callers look them up."""
    from crawlrank import bsp, cli, fetchers, graph_io, hashing, pagerank, pipeline, store

    def patch(modules, attr, name, note=None):
        wrapped = tracer.wrap(name, getattr(modules[0], attr), note)
        for module in modules:
            setattr(module, attr, wrapped)

    mock = fetchers.MockFetcher
    mock.from_path = staticmethod(tracer.wrap("cli.corpus_load", mock.from_path))
    mock.fetch = tracer.wrap(
        "fetchers.fetch",
        mock.fetch,
        lambda result, *a: (
            tracer.count("fetchers.fetch_calls", 1),
            tracer.count("fetchers.fetch_bytes", len(result.body)),
        ),
    )
    patch([cli], "do_crawl", "cli.crawl")
    patch([cli], "do_build_graph", "cli.build_graph")
    patch([cli], "do_pagerank", "cli.pagerank")
    patch(
        [pipeline],
        "split_input",
        "pipeline.split_input",
        lambda splits, *a: tracer.count("pipeline.seed_lines", sum(len(s.lines) for s in splits)),
    )
    for attr in ("map_swap", "combine", "partition", "reduce_fetch"):
        patch([pipeline], attr, f"pipeline.{attr}")
    patch(
        [pipeline],
        "extract_links",
        "pipeline.extract_links",
        lambda links, *a: tracer.count("pipeline.links_extracted", len(links)),
    )
    patch([pipeline, store], "extract_fields", "store.extract_fields")
    patch(
        [hashing, pipeline, store],
        "fnv1a_64",
        "hashing.fnv1a",
        lambda _h, data: tracer.count("hashing.bytes_hashed", len(data)),
    )

    page_store = store.PageStore
    init = page_store.__init__

    @functools.wraps(init)
    def traced_init(self, directory):
        existing = (Path(directory) / "meta.jsonl").exists()
        index = tracer.open("store.open" if existing else "store.create")
        try:
            init(self, directory)
        finally:
            tracer.close(index)

    page_store.__init__ = traced_init
    page_store.put = tracer.wrap(
        "store.put",
        page_store.put,
        lambda result, *a: (
            tracer.count("store.put_calls", 1),
            tracer.count("store.put_inserted", int(result[1])),
        ),
    )
    page_store.export_edge_list = tracer.wrap("store.export_edge_list", page_store.export_edge_list)

    patch([graph_io, cli], "partition_graph", "graph_io.partition_graph")
    patch([graph_io], "emit_partition", "graph_io.emit_partition")
    patch(
        [graph_io, cli],
        "parse_partition",
        "graph_io.parse_partition",
        lambda part, *a: tracer.count("graph_io.edges", len(part.edges)),
    )
    patch([pagerank, cli], "write_values", "pagerank.write_values")
    traced_run = _engine_run(tracer, bsp.run)
    bsp.run = traced_run
    pagerank.run = traced_run


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the trace files of several passes of one workload.

    Each time and count is the median over passes of that pass's total.
    Superstep times are pooled over passes and reported as their median
    and 90th percentile; at the full input size the benchmark traces
    enough passes that at least ten supersteps lie beyond that percentile.
    """
    per_pass: list[dict[str, float]] = []
    supersteps: list[float] = []
    for trace in traces:
        spans = trace["spans"]
        totals: dict[str, float] = {}
        for metric, names in SPAN_TIMES.items():
            totals[metric] = sum(end - start for name, start, end, _ in spans if name in names)
        totals["store.put_hash_s"] = sum(
            end - start
            for name, start, end, parent in spans
            if name == "hashing.fnv1a" and parent >= 0 and spans[parent][0] == "store.put"
        )
        totals["store.put_write_s"] = totals["store.put_s"] - totals["store.put_hash_s"]
        totals.update(trace["counts"])
        per_pass.append(totals)
        supersteps.extend(end - start for name, start, end, _ in spans if name == "bsp.superstep")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["bsp.superstep_s.p50"] = statistics.median(supersteps)
    metrics["bsp.superstep_s.p90"] = statistics.quantiles(supersteps, n=10)[8]
    return metrics


def main(argv: list[str]) -> int:
    out_path, separator, *command = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <crawlrank arguments>")
    from crawlrank import cli

    tracer = Tracer()
    install(tracer)
    try:
        status = cli.main(command)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
