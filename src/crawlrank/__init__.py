"""Desk-scale web crawling and link ranking.

Two halves share one data model. The crawl half runs seed urls through
fixed stages (split, swap, combine, host-hash bucket, fetch) into a page
store. The rank half exports the stored link graph as partitioned
edge-list files and runs a vertex-centric bulk-synchronous engine over
them; the stock program computes damped link ranks with an aggregator
deciding convergence. Everything is deterministic for a fixed input,
regardless of worker or lane counts.

Only the rank half loads with the package: the engine (``bsp``), the
partition files (``graph_io``) and the rank program (``pagerank``). The
crawl half's names, those of ``fetchers``, ``hashing``, ``pipeline`` and
``store``, load on first use (PEP 562), so a rank run never pays for the
crawl's modules and the standard library modules they pull in.
"""

from importlib import import_module as _import_module

from .bsp import (
    ConfigurationError,
    ConsistencyError,
    OwnershipError,
    ProgramError,
    RunReport,
    VertexContext,
    run,
)
from .graph_io import (
    EdgeList,
    FormatError,
    GraphPartition,
    emit_partition,
    make_edge_list,
    parse_partition,
    partition_graph,
    partition_path,
)
from .pagerank import (
    PageRankParams,
    PageRankProgram,
    pagerank_compute,
    power_iteration_oracle,
    rank,
    run_pagerank,
    write_values,
)

__version__ = "0.1.0"

# The crawl half's public names, by defining module; each loads on first use.
_LAZY_MODULES = {
    "fetchers": ("FetchResult", "HttpFetcher", "MockFetcher"),
    "hashing": ("fnv1a_64", "fnv1a_64_many"),
    "pipeline": (
        "CrawlSummary",
        "KeyValuePair",
        "LineError",
        "PipelineConfig",
        "RoundStats",
        "SeedSplit",
        "combine",
        "extract_fields",
        "extract_links",
        "host_of",
        "map_swap",
        "partition",
        "reduce_fetch",
        "run_pipeline",
        "split_input",
    ),
    "store": ("FetchedPage", "PageRecord", "PageStore", "canonical_url"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}
__all__ = sorted({*(name for name in globals() if name[0] != "_"), *_LAZY_MODULES, *_LAZY_NAMES})


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name, name)
    if module not in _LAZY_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
