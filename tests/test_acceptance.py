"""System-level acceptance checks.

Each test is one item of the release checklist and ends by printing a
single PASS line (visible with -s), so a full run reads as a checklist.
Tolerances are pinned in the assertions themselves: value agreement
between the engine and the independent power iteration is exact (bitwise)
where stated, convergence comparisons allow 1e-9, and mass conservation
allows a relative 1e-9.
"""

import json
import math
import random
import time

import pytest

from crawlrank import (
    PageRankParams,
    PageRankProgram,
    PageStore,
    emit_partition,
    parse_partition,
    partition_graph,
    power_iteration_oracle,
    rank,
    run,
)
from crawlrank.cli import build_parser, do_build_graph, do_crawl, do_pagerank
from crawlrank.graph_io import make_edge_list
from crawlrank.pipeline import PipelineConfig, host_of, partition, run_pipeline
from crawlrank.fetchers import MockFetcher
from crawlrank.store import decode_page
from helpers import (
    PerVertexRank,
    RecordingProgram,
    big_graph,
    cycle_graph,
    from_rows,
    random_dangling_graph,
    random_no_dangling_graph,
    reference_crawl,
    seed_with_duplicates,
    small_site,
    store_files,
    wide_corpus,
)


def _report(label):
    print(f"acceptance [{label}]: PASS")


@pytest.fixture(scope="module")
def graph_corpus():
    """Twenty deterministic no-dangling graphs plus the worked 3-vertex one."""
    graphs = [make_edge_list([(0, 1), (0, 2), (1, 2), (2, 0)])]
    for seed in range(100, 120):
        graphs.append(random_no_dangling_graph(random.Random(seed)))
    return graphs


@pytest.fixture(scope="module")
def crawl_scale_graph():
    return big_graph()


def engine_report(graph, workers, params=None, max_supersteps=1000, trace=None):
    return run(partition_graph(graph.edges, workers), PageRankProgram(params), max_supersteps, trace=trace)


def test_engine_matches_power_iteration(graph_corpus):
    started = time.perf_counter()
    frozen = PageRankParams(eps=0.0)
    for graph in graph_corpus:
        for k in (1, 5, 20):
            report = engine_report(graph, 1, frozen, max_supersteps=k + 1)
            oracle = power_iteration_oracle(graph, frozen, max_iters=k)
            assert report.final_values == oracle  # bitwise equality after k updates

        converged = engine_report(graph, 1)
        oracle = power_iteration_oracle(graph)
        assert converged.halted_naturally
        assert converged.final_values == oracle
        for vid, value in converged.final_values.items():
            assert abs(value - oracle[vid]) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s"
    _report("engine matches independent power iteration")


def test_crawl_scale_graph_converges_in_budget(crawl_scale_graph):
    trace_lines = []
    started = time.perf_counter()
    report = engine_report(crawl_scale_graph, 4, max_supersteps=1000, trace=trace_lines.append)
    elapsed = time.perf_counter() - started
    assert report.halted_naturally
    assert report.supersteps_executed <= 200
    assert elapsed < 10.0, f"{elapsed:.2f}s for {report.supersteps_executed} supersteps"
    supersteps = [line for line in trace_lines if line.startswith("superstep: ")]
    assert supersteps == [f"superstep: {i}" for i in range(report.supersteps_executed)]
    assert trace_lines[-1].startswith("elapsed: ")
    _report(
        f"4039-vertex/88234-edge graph converged in "
        f"{report.supersteps_executed} supersteps, {elapsed:.2f}s"
    )


def test_cycles_hold_exactly_one():
    for k in (1, 2, 3, 10):
        report = engine_report(cycle_graph(k), workers=1 if k == 1 else 2)
        assert report.halted_naturally
        assert report.supersteps_executed <= 3  # halted by superstep 3
        for value in report.final_values.values():
            assert value == 1.0  # exact, no tolerance
    _report("cycle graphs hold exactly 1.0 and halt by superstep 3")


def test_mass_conservation(graph_corpus, crawl_scale_graph):
    for graph in [*graph_corpus, cycle_graph(5), crawl_scale_graph]:
        n = len(graph.vertex_ids)
        recorder = RecordingProgram(PerVertexRank())
        report = run(partition_graph(graph.edges, 1), recorder)
        assert report.halted_naturally
        for superstep, values in sorted(recorder.values.items()):
            assert len(values) == n
            total = math.fsum(values.values())
            assert abs(total - n) <= 1e-9 * n, f"superstep {superstep}: sum {total} != {n}"
    _report("value mass conserved within 1e-9 relative on no-dangling graphs")


def test_worker_count_invariance(graph_corpus, crawl_scale_graph):
    star = make_edge_list([(1, 0), (2, 0), (3, 0)])
    for graph in [*graph_corpus, star, crawl_scale_graph]:
        single = engine_report(graph, 1)
        parallel = engine_report(graph, 4)
        assert single.final_values == parallel.final_values  # bitwise
        assert single.supersteps_executed == parallel.supersteps_executed
        assert single.halted_naturally and parallel.halted_naturally
    _report("1-worker and 4-worker runs agree bit for bit")


def _synthetic_large_partition():
    """Worker 2 of 4: 1010 owned vertices, 21037 out-edges, deterministic."""
    edges = [(2, 20)]
    seen = {(2, 20)}
    k = 0
    while len(edges) < 21037:
        src = 2 + 4 * (k % 1010)
        dst = (src * 7 + len(edges) * 11) % 4040
        k += 1
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        edges.append((src, dst))
    return from_rows(1010, edges)


def test_partition_format_round_trips():
    from helpers import random_partition

    rng = random.Random(42)
    for _ in range(100):
        part = random_partition(rng)
        text = emit_partition(part)
        assert parse_partition(text) == part
        assert emit_partition(parse_partition(text)) == text

    large = _synthetic_large_partition()
    text = emit_partition(large)
    lines = text.split("\n")
    assert lines[0] == "1010"
    assert lines[1] == "21037"
    assert lines[2] == "2 20"
    parsed = parse_partition(text)
    assert parsed == large
    assert parsed.vertex_count == 1010
    assert len(parsed.sources) == len(parsed.dests) == 21037
    assert emit_partition(parsed) == text
    _report("partition files round-trip byte-exactly, including 1010/21037 scale")


def test_staged_crawl_matches_reference(tmp_path):
    corpus, urls = wide_corpus()
    assert len(urls) == 100
    seeds = seed_with_duplicates(urls, duplicates=25)  # 20% duplicate lines
    config = PipelineConfig(split_size=512, reducers=3, fetch_lanes=8, rounds=2)

    started = time.perf_counter()
    store_a = PageStore(tmp_path / "store-a")
    summary = run_pipeline(seeds, config, MockFetcher(corpus), store_a)
    store_b = PageStore(tmp_path / "store-b")
    run_pipeline(seeds, config, MockFetcher(corpus), store_b)
    expected = reference_crawl(seeds, corpus, rounds=2)
    elapsed = time.perf_counter() - started

    # staged crawl stores exactly the pages the single-lane reference does
    assert {record.url for record in store_a.records()} == set(expected)
    assert len(store_a) == 100
    assert summary.errors == 0
    for record in store_a.records():
        assert store_a.raw_body(record.id) == expected[record.url]
        assert record.content == decode_page(expected[record.url])

    # duplicates crossed split boundaries yet every page stored exactly once
    split_of_first = {}
    from crawlrank.pipeline import split_input

    for index, split in enumerate(split_input(seeds, config.split_size)):
        for _offset, line in split.lines:
            split_of_first.setdefault(line, set()).add(index)
    assert any(len(indices) > 1 for indices in split_of_first.values())

    # same host, same bucket, for every reducer count
    for reducers in (1, 2, 3, 7):
        host_bucket = {}
        for url in urls:
            bucket = partition(url, reducers)
            assert host_bucket.setdefault(host_of(url), bucket) == bucket

    # two independent runs leave byte-identical stores: meta.jsonl, whose
    # lines hold no content, and one raw file per record
    snapshot = store_files(tmp_path / "store-a")
    assert snapshot == store_files(tmp_path / "store-b")
    assert set(snapshot) == {"meta.jsonl", *(f"raw/{n}" for n in range(1, 101))}
    assert not any("content" in json.loads(line) for line in snapshot["meta.jsonl"].splitlines())

    assert elapsed < 2.0, f"crawl equivalence took {elapsed:.2f}s"
    _report(f"staged crawl matches the single-lane reference ({elapsed:.2f}s)")


def test_end_to_end_top_page_matches_oracle(tmp_path, write_corpus, capsys):
    corpus, seeds = small_site()
    seed_path = tmp_path / "seeds.txt"
    seed_path.write_bytes(seeds)
    corpus_dir = write_corpus(corpus)
    args = build_parser().parse_args([
        "pipeline",
        "--seed", str(seed_path),
        "--store", str(tmp_path / "store"),
        "--corpus", str(corpus_dir),
        "--rounds", "2",
        "--graph", str(tmp_path / "webgraph"),
        "--out", str(tmp_path / "ranks"),
        "--workers", "4",
    ])
    do_crawl(args)
    do_build_graph(args)
    _unused, ranked = do_pagerank(args)

    whole = parse_partition((tmp_path / "webgraph").read_text())
    oracle = power_iteration_oracle(make_edge_list(whole.edges))
    assert rank(oracle)[0][0] == ranked[0][0]

    store = PageStore(tmp_path / "store")
    assert ranked[0][0] == store.id_of("http://a.test/x")  # the twice-linked page
    _report("end-to-end crawl+rank picks the same top page as the oracle")


def test_dangling_vertices_are_safe():
    graphs = [make_edge_list([(1, 0), (2, 0), (3, 0)])]
    for seed in (200, 201, 202):
        graphs.append(random_dangling_graph(random.Random(seed)))
    for graph in graphs:
        out_degree = {vid: 0 for vid in graph.vertex_ids}
        for src, _dst in graph.edges:
            out_degree[src] += 1
        assert any(degree == 0 for degree in out_degree.values())

        report = engine_report(graph, 4)
        assert report.halted_naturally
        assert all(math.isfinite(value) for value in report.final_values.values())
        assert report.final_values == power_iteration_oracle(graph)
    _report("graphs with dangling vertices rank cleanly, no division by zero")
