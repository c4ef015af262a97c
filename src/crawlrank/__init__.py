"""Desk-scale web crawling and link ranking.

Two halves share one data model. The crawl half runs seed urls through
fixed stages (split, swap, combine, host-hash bucket, fetch) into a page
store. The rank half exports the stored link graph as partitioned
edge-list files and runs a vertex-centric bulk-synchronous engine over
them; the stock program computes damped link ranks with an aggregator
deciding convergence. Everything is deterministic for a fixed input,
regardless of worker or lane counts.
"""

from .bsp import (
    ConfigurationError,
    EngineConfig,
    ProgramError,
    RunReport,
    VertexContext,
    run,
)
from .fetchers import FetchResult, HttpFetcher, MockFetcher
from .graph_io import (
    ConsistencyError,
    EdgeList,
    FormatError,
    GraphPartition,
    OwnershipError,
    assign_worker,
    emit_partition,
    make_edge_list,
    parse_partition,
    partition_graph,
    partition_path,
)
from .hashing import fnv1a_64, fnv1a_64_many
from .pagerank import (
    PageRankParams,
    PageRankProgram,
    pagerank_compute,
    power_iteration_oracle,
    rank,
    run_pagerank,
    write_values,
)
from .pipeline import (
    CrawlSummary,
    KeyValuePair,
    LineError,
    PipelineConfig,
    RoundStats,
    SeedSplit,
    combine,
    extract_fields,
    extract_links,
    host_of,
    map_swap,
    partition,
    reduce_fetch,
    run_pipeline,
    split_input,
)
from .store import FetchedPage, PageRecord, PageStore, canonical_url

__version__ = "0.1.0"
