import html
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crawlrank import (
    KeyValuePair,
    MockFetcher,
    PageStore,
    PipelineConfig,
    SeedSplit,
    canonical_url,
    combine,
    extract_fields,
    extract_links,
    fnv1a_64,
    host_of,
    map_swap,
    partition,
    reduce_fetch,
    run_pipeline,
    split_input,
)
from helpers import html_page, reference_crawl, small_site

A_COM_HASH = 1079864132778930279  # fnv1a_64(b"a.com")


def pairs(*items):
    return [KeyValuePair(key, value) for key, value in items]


# -- split_input -------------------------------------------------------------


def test_split_empty_input():
    assert split_input(b"", 64) == []
    assert split_input(b"\n\n\n", 64) == []


def test_split_single_line():
    splits = split_input(b"http://a.com/x\n", 64)
    assert len(splits) == 1
    assert splits[0].split_index == 0
    assert splits[0].byte_offset == 0
    assert splits[0].lines == [(0, "http://a.com/x")]


def test_split_cut_moves_straddling_line_forward():
    # two 40-byte lines; the nominal cut at byte 64 falls inside line two,
    # so line two moves wholly into the next split, starting at offset 41
    data = b"A" * 40 + b"\n" + b"B" * 40 + b"\n"
    splits = split_input(data, 64)
    assert [s.split_index for s in splits] == [0, 1]
    assert splits[0].lines == [(0, "A" * 40)]
    assert splits[1].byte_offset == 41
    assert splits[1].lines == [(41, "B" * 40)]


def test_split_line_longer_than_split_size_stays_whole():
    # the 200-byte line swallows three nominal cuts; the short line after
    # it falls inside the same final grid cell, so one split holds both
    data = b"X" * 200 + b"\n" + b"Y" * 10 + b"\n"
    splits = split_input(data, 64)
    assert len(splits) == 1
    assert splits[0].lines == [(0, "X" * 200), (201, "Y" * 10)]
    assert splits[0].split_index == 0

    # push the short line past the next cut and it starts its own split
    data = b"X" * 200 + b"\n" + b"Y" * 60 + b"\n"
    splits = split_input(data, 64)
    assert [s.byte_offset for s in splits] == [0, 201]
    assert [s.split_index for s in splits] == [0, 1]  # renumbered, no gaps


def test_split_blank_lines_count_toward_offsets():
    data = b"\n\nhttp://a.com/\n"
    splits = split_input(data, 1024)
    assert splits == [SeedSplit(0, 2, [(2, "http://a.com/")])]


def test_split_missing_final_newline():
    splits = split_input(b"http://a.com/x", 64)
    assert splits[0].lines == [(0, "http://a.com/x")]


def test_split_rejects_bad_size():
    with pytest.raises(ValueError):
        split_input(b"x\n", 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="abc ", min_size=0, max_size=8), max_size=12),
    st.integers(1, 32),
)
def test_split_is_lossless_and_ordered(texts, split_size):
    data = "".join(f"{t}\n" for t in texts).encode("utf-8")
    splits = split_input(data, split_size)
    collected = [line for split in splits for line in split.lines]
    # every non-blank line appears exactly once, in file order, at its offset
    expected = []
    offset = 0
    for t in texts:
        if t.strip():
            expected.append((offset, t.strip()))
        offset += len(t.encode("utf-8")) + 1
    assert collected == expected
    assert [s.split_index for s in splits] == list(range(len(splits)))
    for split in splits:
        assert split.byte_offset == split.lines[0][0]


# -- map_swap / combine ------------------------------------------------------


def test_map_swap_swaps_key_and_value():
    split = SeedSplit(0, 0, [(0, "http://a.com/x"), (15, "http://b.com/y")])
    swapped, errors = map_swap(split)
    assert swapped == pairs(("http://a.com/x", 0), ("http://b.com/y", 15))
    assert errors == []


def test_map_swap_reports_bad_lines_with_offsets():
    split = SeedSplit(0, 0, [(0, "http://a.com/x"), (15, "not a url"), (25, "ftp://a.com/z")])
    swapped, errors = map_swap(split)
    assert swapped == pairs(("http://a.com/x", 0))
    assert [e.offset for e in errors] == [15, 25]
    assert all(e.reason for e in errors)


def test_combine_keeps_smallest_offset_and_sorts():
    mixed = pairs(("http://b.com/", 30), ("http://a.com/", 10), ("http://b.com/", 5))
    assert combine(mixed) == pairs(("http://a.com/", 10), ("http://b.com/", 5))
    assert combine([]) == []


# -- host bucketing ----------------------------------------------------------


def test_host_of_examples():
    assert host_of("http://WWW.Example.COM/path") == "www.example.com"
    assert host_of("https://user:pw@Site.org:8443/x") == "site.org"
    assert host_of("http://a.com") == "a.com"
    with pytest.raises(ValueError):
        host_of("nohost")


def test_partition_is_host_hash_mod_reducers():
    assert fnv1a_64(b"a.com") == A_COM_HASH
    for reducers in (1, 2, 3, 7):
        expected = A_COM_HASH % reducers
        assert partition("http://a.com/x", reducers) == expected
        assert partition("http://A.com:80/other?q=1", reducers) == expected
    with pytest.raises(ValueError):
        partition("http://a.com/x", 0)


def test_same_host_always_copartitioned():
    urls = [f"http://h{i % 5}.test/p{i}" for i in range(40)]
    for reducers in (1, 2, 3, 7):
        by_host = {}
        for url in urls:
            bucket = partition(url, reducers)
            host = host_of(url)
            assert by_host.setdefault(host, bucket) == bucket


# -- reduce_fetch ------------------------------------------------------------


def test_reduce_fetch_results_sorted_and_complete():
    corpus = {f"http://h{i}.test/": f"body{i}".encode() for i in range(5)}
    bucket = pairs(*((url, i) for i, url in enumerate(sorted(corpus, reverse=True))))
    results = reduce_fetch(bucket, MockFetcher(corpus), fetch_lanes=4)
    assert [r.url for r in results] == sorted(corpus)
    assert all(r.ok for r in results)
    assert results[0].body == corpus[results[0].url]


def test_reduce_fetch_failures_are_recorded_not_raised():
    fetcher = MockFetcher({"http://a.test/ok": b"fine"})
    bucket = pairs(("http://a.test/ok", 0), ("http://a.test/missing", 1))
    results = reduce_fetch(bucket, fetcher)
    by_url = {r.url: r for r in results}
    assert by_url["http://a.test/ok"].ok
    assert not by_url["http://a.test/missing"].ok
    assert by_url["http://a.test/missing"].reason == "not in corpus"
    assert by_url["http://a.test/missing"].body == b""


def test_reduce_fetch_empty_body_is_an_error():
    fetcher = MockFetcher({"http://a.test/empty": b""})
    (result,) = reduce_fetch(pairs(("http://a.test/empty", 0)), fetcher)
    assert not result.ok
    assert result.reason == "empty body"


def test_reduce_fetch_deduplicates_within_bucket():
    fetcher = MockFetcher({"http://a.test/x": b"b"})
    bucket = pairs(("http://a.test/x", 0), ("http://a.test/x", 50))
    results = reduce_fetch(bucket, fetcher)
    assert len(results) == 1
    assert len(fetcher.request_log) == 1


def test_reduce_fetch_single_host_requests_are_spaced():
    corpus = {f"http://one.test/{i}": b"x" for i in range(4)}
    fetcher = MockFetcher(corpus)
    reduce_fetch(pairs(*((u, 0) for u in corpus)), fetcher, fetch_lanes=4, per_host_delay=0.02)
    stamps = [t for _url, t in fetcher.request_log]
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    assert len(gaps) == 3
    assert all(gap >= 0.019 for gap in gaps)


def test_reduce_fetch_hosts_run_concurrently():
    corpus = {f"http://h{h}.test/{i}": b"x" for h in range(2) for i in range(3)}
    fetcher = MockFetcher(corpus)
    started = time.perf_counter()
    reduce_fetch(pairs(*((u, 0) for u in corpus)), fetcher, fetch_lanes=2, per_host_delay=0.05)
    elapsed = time.perf_counter() - started
    # sequential would sleep 4 * 0.05; concurrent sleeps about 2 * 0.05
    assert elapsed < 0.19
    for host in ("h0.test", "h1.test"):
        stamps = [t for url, t in fetcher.request_log if host in url]
        assert all(b - a >= 0.049 for a, b in zip(stamps, stamps[1:]))


def test_reduce_fetch_wraps_raising_fetcher():
    class Exploding:
        def fetch(self, url):
            raise RuntimeError("boom")

    (result,) = reduce_fetch(pairs(("http://a.test/x", 0)), Exploding())
    assert not result.ok
    assert "boom" in result.reason


# -- extract_fields ----------------------------------------------------------


SPORTS_PAGE = """<html>
<head>
<title>广东大胜双杀北京 易建联16+12刘晓宇立功10分3助_新浪体育_新浪网</title>
<meta name="keywords" content="广东大胜双杀北京 易建联16+12刘晓宇立功10分3助,北京,广东,易建联" />
<meta name="media" content="新浪体育" />
<meta name="comment" content="ty:6-12-6977153" />
</head>
<body><p>正文</p></body>
</html>"""


def test_extract_fields_from_article_page():
    title, keywords, media, comments, hrefs = extract_fields(SPORTS_PAGE.encode("utf-8"))
    assert title == "广东大胜双杀北京 易建联16+12刘晓宇立功10分3助_新浪体育_新浪网"
    assert "北京,广东,易建联" in keywords
    assert media == "新浪体育"
    assert comments == 0  # "ty:6-12-6977153" is not a plain number
    assert hrefs == []


def test_extract_fields_gb18030_fallback():
    title, *_rest = extract_fields(SPORTS_PAGE.encode("gb18030"))
    assert title == "广东大胜双杀北京 易建联16+12刘晓宇立功10分3助_新浪体育_新浪网"


def test_extract_fields_numeric_comment_meta():
    body = b'<html><head><meta name="comments" content=" 123 "></head></html>'
    assert extract_fields(body) == ("", "", "", 123, [])


def test_extract_fields_best_effort_on_garbage():
    assert extract_fields(b"") == ("", "", "", 0, [])
    assert extract_fields(b"\x00\xff\xfe not html at all") == ("", "", "", 0, [])
    title, *_rest = extract_fields(b"<html><title> spaced </title></html>")
    assert title == "spaced"
    # an unclosed title still yields its text instead of raising
    assert extract_fields(b"<title>Only A Title")[0] == "Only A Title"


def test_extract_fields_first_title_wins():
    body = b"<title>first</title><title>second</title>"
    assert extract_fields(body)[0] == "first"


def test_extract_fields_collects_each_anchors_first_href_in_the_same_pass():
    body = (
        b'<title>T</title><a href="/one" href="/ignored">1</a><a>none</a>'
        b'<A HREF="/two"/><a href="" href="/three">3</a><link href="/not-an-anchor">'
    )
    assert extract_fields(body) == ("T", "", "", 0, ["/one", "/two", "/three"])


# -- extract_links -----------------------------------------------------------


def test_extract_links_resolves_and_filters():
    body = b"""<html><body>
      <a href="/rel">rel</a>
      <a href="http://other.test/abs">abs</a>
      <a href="mailto:x@y.z">mail</a>
      <a href="javascript:void(0)">js</a>
      <a href="#frag">frag</a>
      <a>no href</a>
      <a href="https://b.test/x&#10;http://c.test/y">a line break</a>
      <a href="https://b.test/p&#9;q">a tab</a>
      <a href="/sp #f">a space before the fragment</a>
    </body></html>"""
    links = extract_links(extract_fields(body)[4], "http://base.test/dir/page")
    assert links == [
        "http://base.test/rel",
        "http://other.test/abs",
        "http://base.test/dir/page",
    ]


def test_extract_links_first_occurrence_wins():
    body = b'<a href="http://a.test/1"></a><a href="http://a.test/2"></a><a href="http://a.test/1"></a>'
    links = extract_links(extract_fields(body)[4], "http://a.test/")
    assert links == ["http://a.test/1", "http://a.test/2"]


def test_extract_links_survives_garbage():
    assert extract_links(extract_fields(b"\x00\x01binary junk")[4], "http://a.test/") == []
    assert extract_links(extract_fields(b"<a href='broken")[4], "http://a.test/") == []


# Path and host characters include tab, CR, LF and the LF charref "&#10;",
# which the body below writes unescaped.
_URL_CHARS = st.lists(
    st.sampled_from(list("/?#&=aZ.%\\ ") + ["\t", "\r", "\n", "&#10;"]), max_size=12
).map("".join)
_HREFS = st.one_of(
    st.text(max_size=24),
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["", "http://", "https://", "HTTP://", "//", "ftp://", "mailto:", "javascript:"]),
            st.one_of(
                st.sampled_from(["a.test", "A.Test", "[::1]", "[fe80::1]", "u:pw@h.test", "", "a.\ntest"]),
                st.text(alphabet="aZ.-:@[]%09 \t\r\n", max_size=12),
            ),
            st.sampled_from(["", ":", ":0", ":80", ":443", ":65535", ":65536", ":99999", ":-1", ":x"]),
            _URL_CHARS,
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_HREFS, max_size=8))
@example(["https://b.test/x&#10;http://c.test/y", "https://b.test/p\tq", "a #frag", "b\x85#"])
def test_extracted_links_pass_the_url_rule(hrefs):
    body = "".join(
        f'<a href="{html.escape(href).replace("&amp;#10;", "&#10;")}">x</a>' for href in hrefs
    )
    hrefs_seen = extract_fields(body.encode("utf-8"))[4]
    for link in extract_links(hrefs_seen, "http://base.test/dir/page"):
        pairs_out, errors = map_swap(SeedSplit(0, 0, [(0, link)]))
        assert errors == [] and pairs_out == pairs((link, 0))
        canon = canonical_url(link)
        assert canonical_url(canon) == canon
        assert host_of(link) == host_of(canon)
        # written as a next-round seed line, the link reads back as itself
        (split,) = split_input((link + "\n").encode("utf-8"))
        assert split.lines == [(0, link)]


# -- run_pipeline ------------------------------------------------------------


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(rounds=0)
    with pytest.raises(ValueError):
        PipelineConfig(split_size=0)
    with pytest.raises(ValueError):
        PipelineConfig(reducers=0)
    with pytest.raises(ValueError):
        PipelineConfig(fetch_lanes=0)
    with pytest.raises(ValueError):
        PipelineConfig(per_host_delay=-1.0)


def test_pipeline_single_round_fetches_only_seeds(tmp_path):
    corpus, seeds = small_site()
    store = PageStore(tmp_path / "store")
    summary = run_pipeline(seeds, PipelineConfig(rounds=1), MockFetcher(corpus), store)
    assert summary.pages_fetched == 2
    assert summary.errors == 0
    assert len(store) == 2
    assert "http://a.test/y" not in store


def test_pipeline_second_round_follows_links(tmp_path):
    corpus, seeds = small_site()
    store = PageStore(tmp_path / "store")
    summary = run_pipeline(seeds, PipelineConfig(rounds=2), MockFetcher(corpus), store)
    assert summary.pages_fetched == 3
    assert len(store) == 3
    assert "http://a.test/y" in store
    assert [r.fetched for r in summary.rounds] == [2, 1]
    assert summary.bytes_fetched == sum(len(b) for b in corpus.values())


def test_pipeline_counts_invalid_lines_and_failures(tmp_path):
    corpus, _seeds = small_site()
    seeds = b"http://a.test/x\nnot a url\nhttp://missing.test/\n"
    store = PageStore(tmp_path / "store")
    summary = run_pipeline(seeds, PipelineConfig(), MockFetcher(corpus), store)
    assert summary.pages_fetched == 1
    assert [e.line for e in summary.invalid_lines] == ["not a url"]
    assert [url for url, _reason in summary.fetch_errors] == ["http://missing.test/"]
    assert summary.errors == 2
    assert sum(r.errors for r in summary.rounds) == summary.errors


def test_pipeline_drops_links_the_url_rule_rejects(tmp_path):
    page = html_page("A", ["http://a.test:99999/", "http://:80/q", "http://a.test/ok"])
    corpus = {"http://a.test/": page, "http://a.test/ok": html_page("OK", [])}
    store = PageStore(tmp_path / "store")
    summary = run_pipeline(b"http://a.test/\n", PipelineConfig(rounds=2), MockFetcher(corpus), store)
    assert summary.errors == 0
    assert summary.invalid_lines == []
    assert summary.pages_fetched == 2
    assert store.get(store.id_of("http://a.test/")).out_links == ["http://a.test/ok"]


GB_PAGE = '<html><head><title>标题</title></head><body><a href="/路径">链接</a></body></html>'
UTF8_PAGE = (
    '<html><head><title>新闻 "一"</title><meta name="comments" content="7"></head>'
    '<body><a href="/路径#p">链接</a><a href="http://b.test/x">b</a></body></html>'
)
# The meta.jsonl line UTF8_PAGE has always been stored as.
UTF8_META_LINE = (
    '{"id": 2, "url": "http://b.test/u", "title": "新闻 \\"一\\"", "keywords": "", "media": "", '
    '"comment_count": 7, "content": "<html><head><title>新闻 \\"一\\"</title><meta name=\\"comments\\" '
    'content=\\"7\\"></head><body><a href=\\"/路径#p\\">链接</a><a href=\\"http://b.test/x\\">b</a></body>'
    '</html>", "content_hash": 12701713856530241125, "out_links": ["http://b.test/路径", "http://b.test/x"]}'
)


def test_pipeline_decodes_fields_links_and_content_alike(tmp_path):
    gb_body = GB_PAGE.encode("gb18030")
    with pytest.raises(UnicodeDecodeError):
        gb_body.decode("utf-8")
    corpus = {"http://a.test/": gb_body, "http://b.test/u": UTF8_PAGE.encode("utf-8")}
    store = PageStore(tmp_path / "store")
    run_pipeline(b"http://a.test/\nhttp://b.test/u\n", PipelineConfig(), MockFetcher(corpus), store)
    record = store.get(store.id_of("http://a.test/"))
    assert record.title == "标题"
    assert record.content == GB_PAGE
    assert record.out_links == ["http://a.test/路径"]
    assert store.raw_body(record.id) == gb_body
    meta_lines = (tmp_path / "store" / "meta.jsonl").read_text(encoding="utf-8").splitlines()
    assert meta_lines[1] == UTF8_META_LINE


def test_pipeline_empty_seed_is_fine(tmp_path):
    store = PageStore(tmp_path / "store")
    summary = run_pipeline(b"", PipelineConfig(), MockFetcher({}), store)
    assert summary.pages_fetched == 0
    assert summary.errors == 0
    assert len(store) == 0


def test_pipeline_failed_url_not_retried_across_rounds(tmp_path):
    gone = "http://gone.test/"
    corpus = {"http://a.test/x": html_page("X", [gone])}
    store = PageStore(tmp_path / "store")
    fetcher = MockFetcher(corpus)
    seeds = f"http://a.test/x\n{gone}\n".encode()
    summary = run_pipeline(seeds, PipelineConfig(rounds=3), fetcher, store)
    assert [url for url, _ in fetcher.request_log].count(gone) == 1
    assert summary.errors == 1


def test_pipeline_rerun_on_same_store_is_idempotent(tmp_path):
    corpus, seeds = small_site()
    store_dir = tmp_path / "store"
    config = PipelineConfig(rounds=2)
    run_pipeline(seeds, config, MockFetcher(corpus), PageStore(store_dir))
    before = (store_dir / "meta.jsonl").read_bytes()
    summary = run_pipeline(seeds, config, MockFetcher(corpus), PageStore(store_dir))
    assert (store_dir / "meta.jsonl").read_bytes() == before
    # seeds are re-fetched on request, but nothing new is stored and the
    # already-stored discovery (a.test/y) is not fetched a second time
    assert summary.pages_fetched == 2
    assert sum(r.stored_new for r in summary.rounds) == 0


def test_pipeline_matches_reference_crawler(tmp_path):
    corpus, seeds = small_site()
    store = PageStore(tmp_path / "store")
    run_pipeline(seeds, PipelineConfig(rounds=2, split_size=16), MockFetcher(corpus), store)
    expected = reference_crawl(seeds, corpus, rounds=2)
    assert {record.url for record in store.records()} == set(expected)
    for record in store.records():
        assert store.raw_body(record.id) == expected[record.url]


def test_pipeline_stage_dumps_are_key_sorted(tmp_path):
    corpus, seeds = small_site()
    dump_dir = tmp_path / "stages"
    store = PageStore(tmp_path / "store")
    config = PipelineConfig(rounds=1, dump_dir=dump_dir)
    run_pipeline(seeds, config, MockFetcher(corpus), store)
    map_dump = (dump_dir / "round1_map.tsv").read_text().splitlines()
    assert map_dump == sorted(map_dump)
    assert any(line.startswith("http://a.test/x\t") for line in map_dump)
    combine_dump = (dump_dir / "round1_combine.tsv").read_text().splitlines()
    assert combine_dump == sorted(combine_dump)
    bucket_files = sorted(p.name for p in dump_dir.glob("round1_bucket*.tsv"))
    assert bucket_files == ["round1_bucket0.tsv", "round1_bucket1.tsv", "round1_bucket2.tsv"]


def test_pipeline_respects_canonical_dedup(tmp_path):
    corpus = {
        "http://a.test/x": html_page("X", []),
        "http://A.test:80/x": html_page("X variant", []),
    }
    seeds = b"http://a.test/x\nhttp://A.test:80/x\n"
    store = PageStore(tmp_path / "store")
    summary = run_pipeline(seeds, PipelineConfig(), MockFetcher(corpus), store)
    # both raw urls fetch (they differ as strings) but only one page stores
    assert summary.pages_fetched == 2
    assert len(store) == 1
