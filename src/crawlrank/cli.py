"""Command line front end: crawl, build-graph, pagerank, pipeline.

Each subcommand is a batch step; ``pipeline`` chains all three. The
store directory and fetcher choice can come from CRAWLRANK_STORE_DIR
and CRAWLRANK_FETCHER when the flags are not given.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import graph_io
from .bsp import ConfigurationError
from .fetchers import HttpFetcher, MockFetcher
from .graph_io import (
    ConsistencyError,
    FormatError,
    OwnershipError,
    parse_partition,
    partition_graph,
    partition_path,
)
from .pagerank import PageRankParams, rank, run_pagerank, write_values
from .pipeline import PipelineConfig, run_pipeline
from .store import PageStore

ENV_STORE_DIR = "CRAWLRANK_STORE_DIR"
ENV_FETCHER = "CRAWLRANK_FETCHER"


class CliError(Exception):
    """A user-facing problem with arguments or input files."""


@dataclass
class CliConfig:
    """Validated settings one subcommand runs with."""

    seed_path: str = ""
    store_dir: str = "./store"
    corpus_path: str = ""
    fetcher_kind: str = "mock"
    reducers: int = 3
    fetch_lanes: int = 16
    rounds: int = 1
    split_size: int = 1024
    per_host_delay: float = 0.0
    dump_dir: str = ""
    graph_path: str = "./webgraph"
    out_path: str = "./ranks"
    workers: int = 4
    eps: float = 1e-6
    damping: float = 0.85
    max_supersteps: int = 1000
    http_timeout: float = 10.0

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.reducers < 1:
            raise ValueError("reducers must be >= 1")
        if self.fetch_lanes < 1:
            raise ValueError("fetch lanes must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.split_size < 1:
            raise ValueError("split size must be >= 1")
        if self.max_supersteps < 1:
            raise ValueError("max supersteps must be >= 1")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must be strictly between 0 and 1")
        if self.fetcher_kind not in ("mock", "http"):
            raise ValueError(f"unknown fetcher {self.fetcher_kind!r}")


def _make_fetcher(cfg: CliConfig):
    if cfg.fetcher_kind == "http":
        return HttpFetcher(timeout=cfg.http_timeout)
    if not cfg.corpus_path:
        raise CliError("the mock fetcher needs --corpus (a directory or json manifest)")
    corpus = Path(cfg.corpus_path)
    if not corpus.exists():
        raise CliError(f"corpus not found: {corpus}")
    return MockFetcher.from_path(corpus)


def do_crawl(cfg: CliConfig):
    """Crawl seeds into the store; returns (run summary, the open store)."""
    seed = Path(cfg.seed_path)
    if not seed.is_file():
        raise CliError(f"seed file not found: {seed}")
    fetcher = _make_fetcher(cfg)
    store = PageStore(cfg.store_dir)
    pipeline_config = PipelineConfig(
        split_size=cfg.split_size,
        reducers=cfg.reducers,
        fetch_lanes=cfg.fetch_lanes,
        rounds=cfg.rounds,
        per_host_delay=cfg.per_host_delay,
        dump_dir=Path(cfg.dump_dir) if cfg.dump_dir else None,
    )
    return run_pipeline(seed.read_bytes(), pipeline_config, fetcher, store), store


def do_build_graph(cfg: CliConfig, store: PageStore | None = None):
    """Export the store's link graph; returns (whole_path, partition_paths).

    Opens ``cfg.store_dir`` unless an open store is given.
    """
    if store is None:
        store = PageStore(cfg.store_dir)
    graph = store.export_edge_list()
    if not graph.vertex_ids:
        print("warning: store is empty, writing an empty graph", file=sys.stderr)
    whole = graph_io.partition_graph(graph, 1)[0]
    whole_path = Path(cfg.graph_path)
    whole_path.parent.mkdir(parents=True, exist_ok=True)
    whole_path.write_text(graph_io.emit_partition(whole), encoding="ascii")
    part_paths = []
    for part in partition_graph(graph, cfg.workers):
        path = Path(partition_path(cfg.graph_path, part.worker_index))
        path.write_text(graph_io.emit_partition(part), encoding="ascii")
        part_paths.append(path)
    return whole_path, part_paths


def do_pagerank(cfg: CliConfig, trace=print):
    """Rank a partitioned graph; returns (RunReport, ranked list)."""
    partitions = []
    for worker in range(cfg.workers):
        path = Path(partition_path(cfg.graph_path, worker))
        if not path.is_file():
            raise CliError(f"missing partition file: {path}")
        partitions.append(
            parse_partition(path.read_text(encoding="ascii"), worker, cfg.workers)
        )
    params = PageRankParams(damping=cfg.damping, eps=cfg.eps)
    report = run_pagerank(
        partitions,
        cfg.workers,
        params,
        max_supersteps=cfg.max_supersteps,
        trace=trace,
    )
    if not report.halted_naturally:
        print(
            f"warning: no convergence within {cfg.max_supersteps} supersteps",
            file=sys.stderr,
        )
    out_path = Path(cfg.out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    for worker in range(cfg.workers):
        owned = {
            vid: value
            for vid, value in report.final_values.items()
            if vid % cfg.workers == worker
        }
        write_values(partition_path(cfg.out_path, worker), owned)
    write_values(out_path, report.final_values)
    return report, rank(report.final_values)


def _print_crawl(summary) -> None:
    for stats in summary.rounds:
        print(
            f"round {stats.round_index}: seeds={stats.seed_lines} "
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


def cmd_crawl(cfg: CliConfig) -> int:
    summary, _store = do_crawl(cfg)
    _print_crawl(summary)
    return 0


def cmd_build_graph(cfg: CliConfig) -> int:
    _print_graph(*do_build_graph(cfg))
    return 0


def cmd_pagerank(cfg: CliConfig) -> int:
    report, ranked = do_pagerank(cfg)
    print(f"supersteps: {report.supersteps_executed}")
    print(f"result: {cfg.out_path}")
    for position, (vid, value) in enumerate(ranked[:10], start=1):
        print(f"{position}. vertex {vid}: {value:.15g}")
    return 0


def cmd_pipeline(cfg: CliConfig) -> int:
    summary, store = do_crawl(cfg)
    _print_crawl(summary)
    _print_graph(*do_build_graph(cfg, store))
    del store  # ranking reads only the graph files
    return cmd_pagerank(cfg)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _damping_value(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must be strictly between 0 and 1")
    return value


def _add_crawl_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", required=True, help="seed file, one url per line")
    sub.add_argument("--corpus", default="", help="mock corpus: directory or json manifest")
    sub.add_argument(
        "--fetcher",
        choices=("mock", "http"),
        default=os.environ.get(ENV_FETCHER, "mock"),
    )
    sub.add_argument("--reducers", type=_positive_int, default=3)
    sub.add_argument("--fetch-lanes", type=_positive_int, default=16)
    sub.add_argument("--rounds", type=_positive_int, default=1)
    sub.add_argument("--split-size", type=_positive_int, default=1024)
    sub.add_argument("--per-host-delay", type=_nonnegative_float, default=0.0)
    sub.add_argument("--dump-dir", default="", help="write per-stage outputs here")
    sub.add_argument("--http-timeout", type=_nonnegative_float, default=10.0)


def _add_graph_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", default="./webgraph", help="graph file base path")
    sub.add_argument("--workers", type=_positive_int, default=4)


def _add_rank_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default="./ranks", help="result file base path")
    sub.add_argument("--eps", type=_nonnegative_float, default=1e-6)
    sub.add_argument("--damping", type=_damping_value, default=0.85)
    sub.add_argument("--max-supersteps", type=_positive_int, default=1000)


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


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    values = vars(args)
    mapping = {
        "seed_path": "seed",
        "store_dir": "store",
        "corpus_path": "corpus",
        "fetcher_kind": "fetcher",
        "reducers": "reducers",
        "fetch_lanes": "fetch_lanes",
        "rounds": "rounds",
        "split_size": "split_size",
        "per_host_delay": "per_host_delay",
        "dump_dir": "dump_dir",
        "graph_path": "graph",
        "out_path": "out",
        "workers": "workers",
        "eps": "eps",
        "damping": "damping",
        "max_supersteps": "max_supersteps",
        "http_timeout": "http_timeout",
    }
    kwargs = {
        field: values[arg_name] for field, arg_name in mapping.items() if arg_name in values
    }
    return CliConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return args.func(config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OwnershipError, ConsistencyError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
