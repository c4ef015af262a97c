"""Command line front end: crawl, build-graph, pagerank, pipeline.

Each subcommand is a batch step; ``pipeline`` chains all three. The
store directory can come from CRAWLRANK_STORE_DIR when ``--store`` is
not given. The crawl modules (``pipeline``, ``store``, ``fetchers``) are
imported by the steps that use them, so ``pagerank`` loads only the rank
half. ``pagerank`` checks that every partition file exists, then hands
the engine ``PartitionFiles``, which parses each file only when the
engine reads it, so the run holds one file at a time. The set's
ownership and vertex counts are left to the engine, whose errors exit 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from . import graph_io
from .bsp import MAX_SUPERSTEPS
from .graph_io import parse_partition, partition_graph, partition_path
from .pagerank import PageRankParams, rank, run_pagerank, write_values

if TYPE_CHECKING:
    from .store import PageStore

ENV_STORE_DIR = "CRAWLRANK_STORE_DIR"


class CliError(Exception):
    """A user-facing problem with arguments or input files."""


_parse_again = parse_partition  # the parser as imported, for PartitionFiles' later reads


class PartitionFiles(Sequence):
    """One graph's partition files as a read-only sequence: item ``w`` is
    file ``w`` read and parsed when it is read. Nothing is kept between
    reads, so ``bsp.run``, which reads each item once and keeps none,
    holds one file's text and columns at a time.

    A file's first read is the command's parse step. It calls this
    module's ``parse_partition``, looked up at that moment, so a wrapper
    put there (``perfbench/tracer.py`` puts one) sees each file parsed
    once. A later read, which only an inspection after the run makes,
    parses the file again with the parser this module imported. A
    format fault, a byte that is not ASCII among them, raises FormatError
    naming the file and the line.
    """

    def __init__(self, paths):
        self.paths = list(paths)
        self._read: set[int] = set()

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, worker: int) -> graph_io.GraphPartition:
        worker = range(len(self.paths))[worker]  # IndexError past the end ends iteration
        parse = _parse_again if worker in self._read else parse_partition
        self._read.add(worker)
        path = self.paths[worker]
        try:
            return parse(path.read_text(encoding="ascii"))
        except UnicodeDecodeError as err:  # err.object is the file's bytes
            line = err.object.count(b"\n", 0, err.start) + 1
            byte = f"0x{err.object[err.start]:02x}"
            raise graph_io.FormatError(f"{path}: line {line}: byte {byte} is not ASCII") from None
        except graph_io.FormatError as err:
            raise graph_io.FormatError(f"{path}: {err}") from None


def _make_fetcher(args: argparse.Namespace):
    from .fetchers import HttpFetcher, MockFetcher

    if args.fetcher == "http":
        return HttpFetcher(timeout=args.http_timeout)
    if not args.corpus:
        raise CliError("the mock fetcher needs --corpus (a directory or json manifest)")
    corpus = Path(args.corpus)
    if not corpus.exists():
        raise CliError(f"corpus not found: {corpus}")
    return MockFetcher.from_path(corpus)


def do_crawl(args: argparse.Namespace):
    """Crawl seeds into the store; returns (run summary, the open store)."""
    from .pipeline import PipelineConfig, run_pipeline
    from .store import PageStore

    seed = Path(args.seed)
    if not seed.is_file():
        raise CliError(f"seed file not found: {seed}")
    fetcher = _make_fetcher(args)
    store = PageStore(args.store)
    pipeline_config = PipelineConfig(
        split_size=args.split_size,
        reducers=args.reducers,
        fetch_lanes=args.fetch_lanes,
        rounds=args.rounds,
        per_host_delay=args.per_host_delay,
        dump_dir=Path(args.dump_dir) if args.dump_dir else None,
    )
    return run_pipeline(seed.read_bytes(), pipeline_config, fetcher, store), store


def do_build_graph(args: argparse.Namespace, store: PageStore | None = None):
    """Export the store's link graph; returns (whole_path, partition_paths).

    Opens ``args.store``, which must be a directory, unless an open
    store is given.
    """
    if store is None:
        from .store import PageStore

        if not Path(args.store).is_dir():
            raise CliError(f"store not found: {args.store}")
        store = PageStore(args.store)
    stored = store.export_edge_list()
    if not stored.vertex_ids:
        print("warning: store is empty, writing an empty graph", file=sys.stderr)
    parts = partition_graph(stored.edges, args.workers)
    # The store's edges are sorted and distinct, so they are the whole file's rows.
    whole = graph_io.GraphPartition(
        sum(part.vertex_count for part in parts),
        [source for source, _dest in stored.edges],
        [dest for _source, dest in stored.edges],
    )
    # The partition format names a vertex only through an edge row.
    unlinked = len(stored.vertex_ids) - whole.vertex_count
    if unlinked:
        print(
            f"warning: {unlinked} stored pages have no stored link and are left out of the graph",
            file=sys.stderr,
        )
    whole_path = Path(args.graph)
    whole_path.parent.mkdir(parents=True, exist_ok=True)
    whole_path.write_text(graph_io.emit_partition(whole), encoding="ascii")
    part_paths = []
    for worker, part in enumerate(parts):
        path = Path(partition_path(args.graph, worker))
        path.write_text(graph_io.emit_partition(part), encoding="ascii")
        part_paths.append(path)
    return whole_path, part_paths


def do_pagerank(args: argparse.Namespace, trace=print):
    """Rank a partitioned graph; returns (RunReport, ranked list)."""
    paths = [Path(partition_path(args.graph, worker)) for worker in range(args.workers)]
    for path in paths:
        if not path.is_file():
            raise CliError(f"missing partition file: {path}")
    params = PageRankParams(damping=args.damping, eps=args.eps)
    report = run_pagerank(
        PartitionFiles(paths), params, max_supersteps=args.max_supersteps, trace=trace
    )
    if not report.halted_naturally:
        print(
            f"warning: no convergence within {args.max_supersteps} supersteps",
            file=sys.stderr,
        )
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    for worker in range(args.workers):
        owned = {
            vid: value
            for vid, value in report.final_values.items()
            if vid % args.workers == worker
        }
        write_values(partition_path(args.out, worker), owned)
    write_values(out_path, report.final_values)
    return report, rank(report.final_values)


def _print_crawl(summary) -> None:
    for round_number, stats in enumerate(summary.rounds, start=1):
        print(
            f"round {round_number}: seeds={stats.seed_lines} "
            f"fetched={stats.fetched} stored={stats.stored_new} errors={stats.errors}"
        )
    print(
        f"pages={summary.pages_fetched} errors={summary.errors} "
        f"bytes={summary.bytes_fetched}"
    )


def _print_graph(whole_path, part_paths) -> None:
    print(f"graph: {whole_path}")
    for path in part_paths:
        print(f"partition: {path}")


def cmd_crawl(args: argparse.Namespace) -> int:
    summary, _store = do_crawl(args)
    _print_crawl(summary)
    return 0


def cmd_build_graph(args: argparse.Namespace) -> int:
    _print_graph(*do_build_graph(args))
    return 0


def cmd_pagerank(args: argparse.Namespace) -> int:
    report, ranked = do_pagerank(args)
    print(f"supersteps: {report.supersteps_executed}")
    print(f"result: {args.out}")
    for position, (vid, value) in enumerate(ranked[:10], start=1):
        print(f"{position}. vertex {vid}: {value:.15g}")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    summary, store = do_crawl(args)
    _print_crawl(summary)
    _print_graph(*do_build_graph(args, store))
    del store  # ranking reads only the graph files
    return cmd_pagerank(args)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError("must be finite and >= 0")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return value


def _damping_value(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must be strictly between 0 and 1")
    return value


def _add_crawl_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", required=True, help="seed file, one url per line")
    sub.add_argument("--corpus", default="", help="mock corpus: directory or json manifest")
    sub.add_argument("--fetcher", choices=("mock", "http"), default="mock")
    sub.add_argument("--reducers", type=_positive_int, default=3)
    sub.add_argument("--fetch-lanes", type=_positive_int, default=16)
    sub.add_argument("--rounds", type=_positive_int, default=1)
    sub.add_argument("--split-size", type=_positive_int, default=1024)
    sub.add_argument("--per-host-delay", type=_nonnegative_float, default=0.0)
    sub.add_argument("--dump-dir", default="", help="write per-stage outputs here")
    sub.add_argument("--http-timeout", type=_positive_float, default=10.0)


def _add_graph_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", default="./webgraph", help="graph file base path")
    sub.add_argument("--workers", type=_positive_int, default=4)


def _add_rank_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default="./ranks", help="result file base path")
    sub.add_argument("--eps", type=_nonnegative_float, default=PageRankParams.eps)
    sub.add_argument("--damping", type=_damping_value, default=PageRankParams.damping)
    sub.add_argument("--max-supersteps", type=_positive_int, default=MAX_SUPERSTEPS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crawlrank",
        description="Crawl pages into a store, export the link graph, rank it.",
    )
    default_store = os.environ.get(ENV_STORE_DIR, "./store")
    subparsers = parser.add_subparsers(dest="command", required=True)

    crawl = subparsers.add_parser("crawl", help="fetch seed urls into the page store")
    crawl.add_argument("--store", default=default_store)
    _add_crawl_args(crawl)
    crawl.set_defaults(func=cmd_crawl)

    build = subparsers.add_parser(
        "build-graph", help="export the stored link graph as partition files"
    )
    build.add_argument("--store", default=default_store)
    _add_graph_args(build)
    build.set_defaults(func=cmd_build_graph)

    pagerank = subparsers.add_parser("pagerank", help="rank a partitioned graph")
    _add_graph_args(pagerank)
    _add_rank_args(pagerank)
    pagerank.set_defaults(func=cmd_pagerank)

    whole = subparsers.add_parser("pipeline", help="crawl, build the graph, rank it")
    whole.add_argument("--store", default=default_store)
    _add_crawl_args(whole)
    _add_graph_args(whole)
    _add_rank_args(whole)
    whole.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        # The graph, engine and config errors are ValueError subclasses.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
