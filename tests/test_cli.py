import json
import os
import subprocess
import sys

import pytest

from crawlrank import PageStore, make_edge_list, parse_partition, power_iteration_oracle
from crawlrank.bsp import MAX_SUPERSTEPS
from crawlrank.cli import build_parser, main
from crawlrank.pagerank import PageRankParams, format_values
from helpers import html_page, small_site


def crawl_args(tmp_path, corpus_dir, extra=()):
    return [
        "--seed", str(tmp_path / "seeds.txt"),
        "--store", str(tmp_path / "store"),
        "--corpus", str(corpus_dir),
        *extra,
    ]


def write_seeds(tmp_path, seeds: bytes):
    (tmp_path / "seeds.txt").write_bytes(seeds)


def test_no_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_rejected_flag_values_exit_2():
    for argv in (
        ["crawl", "--seed", "s", "--rounds", "0"],
        ["pagerank", "--workers", "0"],
        ["pagerank", "--damping", "1.0"],
        ["pagerank", "--max-supersteps", "0"],
        ["crawl", "--seed", "s", "--fetcher", "carrier-pigeon"],
        ["crawl", "--seed", "s", "--fetcher", "http", "--http-timeout", "0"],
        ["crawl", "--seed", "s", "--per-host-delay", "nan"],
        ["pagerank", "--eps", "inf"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    assert build_parser().parse_args(["pagerank"]).workers == 4


def test_crawl_reports_pages_and_errors(tmp_path, capsys, write_corpus):
    corpus, seeds = small_site()
    write_seeds(tmp_path, seeds)
    corpus_dir = write_corpus(corpus)
    assert main(["crawl", *crawl_args(tmp_path, corpus_dir, ["--rounds", "2"])]) == 0
    out = capsys.readouterr().out
    assert "round 1: seeds=2 fetched=2 stored=2 errors=0" in out
    assert "round 2: seeds=1 fetched=1 stored=1 errors=0" in out
    assert "pages=3 errors=0" in out
    assert len(PageStore(tmp_path / "store")) == 3


def test_crawl_missing_seed_fails_cleanly(tmp_path, capsys, write_corpus):
    corpus_dir = write_corpus({})
    assert main(["crawl", *crawl_args(tmp_path, corpus_dir)]) == 1
    assert "error:" in capsys.readouterr().err


def test_crawl_mock_without_corpus_fails_cleanly(tmp_path, capsys):
    write_seeds(tmp_path, b"http://a.test/\n")
    argv = ["crawl", "--seed", str(tmp_path / "seeds.txt"), "--store", str(tmp_path / "s")]
    assert main(argv) == 1
    assert "corpus" in capsys.readouterr().err


def test_a_corpus_manifest_that_is_not_a_url_map_fails_cleanly(tmp_path, capsys):
    write_seeds(tmp_path, b"http://a.test/\n")
    (tmp_path / "a.html").write_bytes(b"a")
    manifest = tmp_path / "corpus.json"
    for text in ("[]", '{"http://a.test/": 5}', '{"http://a.test/": "a.html", "b": null}'):
        manifest.write_text(text)
        assert main(["crawl", *crawl_args(tmp_path, manifest)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: corpus manifest {manifest} is not a json object of url to file"
    assert not (tmp_path / "store").exists()


def test_flag_defaults_are_the_library_defaults():
    # the parser repeats them as literals, since it must not import the crawl half
    from crawlrank.fetchers import HttpFetcher
    from crawlrank.pipeline import PipelineConfig

    pipeline, params = PipelineConfig(), PageRankParams()
    crawl, rank, whole = (
        build_parser().parse_args(argv)
        for argv in (["crawl", "--seed", "s"], ["pagerank"], ["pipeline", "--seed", "s"])
    )
    for args in (crawl, whole):
        for name in ("split_size", "reducers", "fetch_lanes", "rounds", "per_host_delay"):
            assert getattr(args, name) == getattr(pipeline, name), name
        assert (args.dump_dir or None) == pipeline.dump_dir
        assert args.http_timeout == HttpFetcher().timeout
    for args in (rank, whole):
        assert (args.damping, args.eps) == (params.damping, params.eps)
        assert args.max_supersteps == MAX_SUPERSTEPS


def test_build_graph_on_empty_store_warns(tmp_path, capsys):
    (tmp_path / "store").mkdir()
    graph_base = tmp_path / "webgraph"
    argv = [
        "build-graph",
        "--store", str(tmp_path / "store"),
        "--graph", str(graph_base),
        "--workers", "2",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "empty" in captured.err
    assert graph_base.read_text() == "0\n0\n"
    assert (tmp_path / "webgraph_1").read_text() == "0\n0\n"
    assert (tmp_path / "webgraph_2").read_text() == "0\n0\n"


def test_build_graph_on_a_missing_store_fails_and_creates_nothing(tmp_path, capsys):
    store_dir = tmp_path / "typo"
    argv = ["build-graph", "--store", str(store_dir), "--graph", str(tmp_path / "out" / "webgraph")]
    assert main(argv) == 1
    assert f"error: store not found: {store_dir}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "corpus, seeds, rounds, unlinked, vertices",
    [
        # two unrelated seeds; a's only link points outside the corpus
        (
            {
                "http://a.test/": html_page("A", ["http://b.test/"]),
                "http://c.test/": html_page("C", []),
            },
            b"http://a.test/\nhttp://c.test/\n",
            "1",
            2,
            0,
        ),
        # x links only to a missing page, next to a two-page cycle
        (
            {
                "http://a.test/x": html_page("X", ["http://a.test/missing"]),
                "http://b.test/": html_page("B", ["http://b.test/z"]),
                "http://b.test/z": html_page("Z", ["http://b.test/"]),
            },
            b"http://a.test/x\nhttp://b.test/\n",
            "2",
            1,
            2,
        ),
    ],
    ids=["unrelated-seeds", "link-to-missing-page"],
)
def test_pipeline_leaves_out_pages_without_links(
    tmp_path, capsys, write_corpus, corpus, seeds, rounds, unlinked, vertices
):
    write_seeds(tmp_path, seeds)
    argv = [
        "pipeline",
        *crawl_args(tmp_path, write_corpus(corpus), ["--rounds", rounds]),
        "--graph", str(tmp_path / "webgraph"),
        "--out", str(tmp_path / "ranks"),
        "--workers", "2",
    ]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert (
        f"warning: {unlinked} stored pages have no stored link and are left out of the graph"
        in err
    )
    whole = parse_partition((tmp_path / "webgraph").read_text())
    assert whole.vertex_count == vertices
    oracle = power_iteration_oracle(make_edge_list(whole.edges))
    assert (tmp_path / "ranks").read_text() == format_values(oracle)


def test_pagerank_missing_partition_fails_cleanly(tmp_path, capsys):
    argv = ["pagerank", "--graph", str(tmp_path / "nope"), "--out", str(tmp_path / "r")]
    assert main(argv) == 1
    assert "missing partition" in capsys.readouterr().err


def run_full_pipeline(tmp_path, write_corpus, extra=()):
    corpus, seeds = small_site()
    write_seeds(tmp_path, seeds)
    corpus_dir = write_corpus(corpus)
    argv = [
        "pipeline",
        *crawl_args(tmp_path, corpus_dir, ["--rounds", "2"]),
        "--graph", str(tmp_path / "webgraph"),
        "--out", str(tmp_path / "ranks"),
        "--workers", "4",
    ]
    return main(argv + list(extra))


def test_pipeline_end_to_end(tmp_path, capsys, write_corpus):
    assert run_full_pipeline(tmp_path, write_corpus) == 0
    out = capsys.readouterr().out
    assert "pages=3 errors=0" in out
    assert "superstep: 0" in out
    assert "elapsed: " in out

    store = PageStore(tmp_path / "store")
    x_id = store.id_of("http://a.test/x")
    y_id = store.id_of("http://a.test/y")
    b_id = store.id_of("http://b.test/")
    assert sorted([x_id, y_id, b_id]) == [1, 2, 3]

    # whole-graph file carries the exact link structure of the site
    expected_edges = sorted([(x_id, y_id), (y_id, x_id), (b_id, x_id)])
    expected_text = "3\n3\n" + "".join(f"{s} {d}\n" for s, d in expected_edges)
    assert (tmp_path / "webgraph").read_text() == expected_text

    # each worker file parses and the union covers all three vertices
    total_vertices = 0
    for worker in range(4):
        text = (tmp_path / f"webgraph_{worker + 1}").read_text()
        part = parse_partition(text)
        total_vertices += part.vertex_count
    assert total_vertices == 3

    # the twice-linked page ranks first
    first_line = (tmp_path / "ranks").read_text().splitlines()[0]
    assert first_line.startswith("1\t")
    assert f"1. vertex {x_id}:" in out


def test_pipeline_result_files_merge_and_split(tmp_path, capsys, write_corpus):
    assert run_full_pipeline(tmp_path, write_corpus) == 0
    merged = {}
    for line in (tmp_path / "ranks").read_text().splitlines():
        vid, value = line.split("\t")
        merged[int(vid)] = value
    per_worker = {}
    for worker in range(4):
        for line in (tmp_path / f"ranks_{worker + 1}").read_text().splitlines():
            vid, value = line.split("\t")
            assert int(vid) % 4 == worker
            per_worker[int(vid)] = value
    assert per_worker == merged
    assert sorted(merged) == [1, 2, 3]


def test_pipeline_rerun_reproduces_outputs_byte_for_byte(tmp_path, capsys, write_corpus):
    assert run_full_pipeline(tmp_path, write_corpus) == 0
    snapshot = {
        name: (tmp_path / name).read_bytes()
        for name in ["webgraph", "webgraph_1", "webgraph_2", "webgraph_3", "webgraph_4", "ranks"]
    }
    snapshot["meta"] = (tmp_path / "store" / "meta.jsonl").read_bytes()
    assert run_full_pipeline(tmp_path, write_corpus) == 0
    for name, content in snapshot.items():
        path = tmp_path / ("store/meta.jsonl" if name == "meta" else name)
        assert path.read_bytes() == content, name


def test_pagerank_warns_when_capped(tmp_path, capsys, write_corpus):
    assert run_full_pipeline(tmp_path, write_corpus) == 0
    capsys.readouterr()
    argv = [
        "pagerank",
        "--graph", str(tmp_path / "webgraph"),
        "--out", str(tmp_path / "ranks2"),
        "--workers", "4",
        "--max-supersteps", "1",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "no convergence" in captured.err
    assert "supersteps: 1" in captured.out


def test_single_worker_graph_equals_whole_file(tmp_path, capsys, write_corpus):
    assert run_full_pipeline(tmp_path, write_corpus, ["--workers", "1"]) == 0
    assert (tmp_path / "webgraph").read_bytes() == (tmp_path / "webgraph_1").read_bytes()


def test_store_dir_env_override(tmp_path, capsys, write_corpus, monkeypatch):
    corpus, seeds = small_site()
    write_seeds(tmp_path, seeds)
    corpus_dir = write_corpus(corpus)
    env_store = tmp_path / "env-store"
    monkeypatch.setenv("CRAWLRANK_STORE_DIR", str(env_store))
    argv = [
        "crawl",
        "--seed", str(tmp_path / "seeds.txt"),
        "--corpus", str(corpus_dir),
    ]
    assert main(argv) == 0
    assert len(PageStore(env_store)) == 2


def test_the_http_fetcher_needs_no_corpus(tmp_path, capsys):
    # --fetcher is the only way to choose the fetcher
    write_seeds(tmp_path, b"http://a.test/\n")
    argv = [
        "crawl",
        "--seed", str(tmp_path / "seeds.txt"),
        "--store", str(tmp_path / "store"),
        "--fetcher", "http",
    ]
    # the http fetcher needs no corpus; the fetch itself fails offline
    assert main(argv) == 0
    assert "errors=1" in capsys.readouterr().out


def test_a_meta_line_that_is_not_a_record_fails_cleanly(tmp_path):
    store = PageStore(tmp_path / "store")
    store.put("http://a.test/", b"a")
    store.put("http://a.test/b", b"b")  # raw/2 is there: only the line can be at fault
    meta_path = tmp_path / "store" / "meta.jsonl"
    first, second = meta_path.read_bytes().splitlines(keepends=True)
    argv = [
        sys.executable, "-m", "crawlrank", "build-graph",
        "--store", str(tmp_path / "store"),
        "--graph", str(tmp_path / "webgraph"),
    ]
    lines = [b"{}", b"5", b"null", b"[1,2]", b'{"id": 2}']
    # whole records with a field of the wrong json type
    lines += [
        json.dumps({**json.loads(second), name: value}).encode()
        for name, value in [("url", []), ("out_links", 5), ("comment_count", "x")]
    ]
    cases = [(first + line + b"\n", 2) for line in lines]
    # json true equals 1, but it is not an id
    cases.append((json.dumps({**json.loads(first), "id": True}).encode() + b"\n" + second, 1))
    for meta, line_no in cases:
        meta_path.write_bytes(meta)
        result = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: meta.jsonl line {line_no}: ")
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
        assert meta_path.read_bytes() == meta
    assert not (tmp_path / "webgraph").exists()


def write_cycle_graph(tmp_path, workers):
    """Partition files of the six-page cycle 1 -> 2 -> ... -> 6 -> 1, as
    ``build-graph --workers <workers>`` writes them."""
    store = PageStore(tmp_path / "store")
    for i in range(1, 7):
        store.put(f"http://a.test/{i}", b"p", out_links=[f"http://a.test/{i % 6 + 1}"])
    argv = ["build-graph", "--store", str(tmp_path / "store"), "--graph", str(tmp_path / "webgraph")]
    assert main([*argv, "--workers", str(workers)]) == 0


def rank_fails(tmp_path, capsys, workers) -> str:
    """The one error line of ``pagerank --workers <workers>``, which must exit 1."""
    capsys.readouterr()
    argv = [
        "pagerank",
        "--graph", str(tmp_path / "webgraph"),
        "--out", str(tmp_path / "ranks"),
        "--workers", str(workers),
    ]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert not (tmp_path / "ranks").exists()
    return line


def test_pagerank_refuses_partitions_written_for_another_worker_count(tmp_path, capsys):
    write_cycle_graph(tmp_path, 4)
    # webgraph_1 holds worker 0 of 4's rows, from vertex 4, which worker 1 of 3 owns
    assert rank_fails(tmp_path, capsys, 3) == (
        "error: edge (4, 5) in partition 0: source is owned by worker 1"
    )
    # every row of webgraph_1 and _2 has a source that worker 0 or 1 of 2 owns,
    # but the two headers cannot cover the vertices those rows name
    assert rank_fails(tmp_path, capsys, 2) == (
        "error: partition 0 declares 1 vertices but its edges identify 3 "
        "(destination vertex 2 has no declared home)"
    )


def test_pagerank_refuses_a_vertex_count_below_the_sources(tmp_path, capsys):
    # well-formed text naming two distinct sources, 0 and 2, under a header of 1
    (tmp_path / "webgraph_1").write_text("1\n2\n0 2\n2 0\n")
    assert rank_fails(tmp_path, capsys, 1) == (
        "error: partition 0 declares 1 vertices but its edges identify 2"
    )


def test_pagerank_reports_a_fault_of_the_text_before_a_foreign_source(tmp_path, capsys):
    # webgraph_1's row belongs to worker 1 of 3, and webgraph_3's dest is not a number
    for number, text in ((1, "1\n1\n1 0\n"), (2, "1\n1\n1 0\n"), (3, "1\n1\n2 x\n")):
        (tmp_path / f"webgraph_{number}").write_text(text)
    assert rank_fails(tmp_path, capsys, 3) == (
        f"error: {tmp_path / 'webgraph_3'}: line 3: "
        "dest must be a non-negative integer in plain digits, got 'x'"
    )


def test_pagerank_names_the_file_and_line_of_a_byte_that_is_not_ascii(tmp_path, capsys):
    (tmp_path / "webgraph_1").write_text("1\n1\n0 0\n")
    (tmp_path / "webgraph_2").write_bytes(b"1\n2\n1 1\n1 \xff\n")
    assert rank_fails(tmp_path, capsys, 2) == (
        f"error: {tmp_path / 'webgraph_2'}: line 4: byte 0xff is not ASCII"
    )


def test_pagerank_reports_a_missing_file_before_parsing_any(tmp_path, capsys):
    (tmp_path / "webgraph_1").write_text("1\n1\n0 x\n")
    assert rank_fails(tmp_path, capsys, 2) == (
        f"error: missing partition file: {tmp_path / 'webgraph_2'}"
    )


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "crawlrank", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "crawl" in result.stdout
    assert "pagerank" in result.stdout
