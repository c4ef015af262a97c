import gc
import html
import math
import random
import shutil
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from crawlrank import (
    FetchResult,
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
from crawlrank.hashing import _CHUNK_BYTES
from helpers import (
    EXTRACTION_EXAMPLES,
    EXTRACTION_FIELDS,
    html_page,
    reference_crawl,
    reference_extract_fields,
    seed_with_duplicates,
    small_site,
    whole_run_digests,
    wide_corpus,
)

A_COM_HASH = 1079864132778930279  # fnv1a_64(b"a.com")


def pairs(*items):
    return [KeyValuePair(key, value) for key, value in items]


# -- split_input -------------------------------------------------------------


def test_split_empty_input():
    assert split_input(b"", 64) == []
    assert split_input(b"\n\n\n", 64) == []


def test_split_single_line():
    splits = split_input(b"http://a.com/x\n", 64)
    assert splits == [SeedSplit([(0, "http://a.com/x")])]


def test_split_cut_moves_straddling_line_forward():
    # two 40-byte lines; the nominal cut at byte 64 falls inside line two,
    # so line two moves wholly into the next split, starting at offset 41
    data = b"A" * 40 + b"\n" + b"B" * 40 + b"\n"
    splits = split_input(data, 64)
    assert splits == [SeedSplit([(0, "A" * 40)]), SeedSplit([(41, "B" * 40)])]


def test_split_line_longer_than_split_size_stays_whole():
    # the 200-byte line swallows three nominal cuts; the short line after
    # it falls inside the same final grid cell, so one split holds both
    data = b"X" * 200 + b"\n" + b"Y" * 10 + b"\n"
    splits = split_input(data, 64)
    assert splits == [SeedSplit([(0, "X" * 200), (201, "Y" * 10)])]

    # push the short line past the next cut and it starts its own split;
    # the empty grid cells between the two leave no empty split
    data = b"X" * 200 + b"\n" + b"Y" * 60 + b"\n"
    splits = split_input(data, 64)
    assert splits == [SeedSplit([(0, "X" * 200)]), SeedSplit([(201, "Y" * 60)])]


def test_split_blank_lines_count_toward_offsets():
    data = b"\n\nhttp://a.com/\n"
    splits = split_input(data, 1024)
    assert splits == [SeedSplit([(2, "http://a.com/")])]


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
    assert all(split.lines for split in splits)


# -- map_swap / combine ------------------------------------------------------


def test_map_swap_swaps_key_and_value():
    split = SeedSplit([(0, "http://a.com/x"), (15, "http://b.com/y")])
    swapped, errors = map_swap(split)
    assert swapped == pairs(("http://a.com/x", 0), ("http://b.com/y", 15))
    assert errors == []


def test_map_swap_reports_bad_lines_with_offsets():
    split = SeedSplit([(0, "http://a.com/x"), (15, "not a url"), (25, "ftp://a.com/z")])
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
    assert host_of("http://[FE80::1%25Eth0]:8080/") == "fe80::1%25Eth0"
    # only ASCII letters are lowercased, the same on every interpreter
    assert host_of("http://\U00010570.TEST/") == "\U00010570.test"
    assert host_of("http://É.test/") == "É.test"
    with pytest.raises(ValueError):
        host_of("nohost")


def test_partition_is_a_range_of_the_host_hash():
    assert fnv1a_64(b"a.com") == A_COM_HASH
    for reducers, expected in [(1, 0), (7, 0), (64, 3), (1000, 58)]:
        assert partition("http://a.com/x", reducers) == expected == A_COM_HASH * reducers >> 64
        assert partition("http://A.com:80/other?q=1", reducers) == expected
    # every hash of bucket b comes before every hash of bucket b + 1
    urls = [f"http://h{i}.test/" for i in range(300)]
    urls.sort(key=lambda url: fnv1a_64(host_of(url).encode()))
    for reducers in (1, 2, 3, 7, 64):
        buckets = [partition(url, reducers) for url in urls]
        assert buckets == sorted(buckets)
        assert set(buckets) <= set(range(reducers))
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


class ThreadLog(MockFetcher):
    """A MockFetcher that records the thread of each fetch."""

    def __init__(self, corpus, waits):
        super().__init__(corpus)
        self.waits = waits
        self.threads = set()

    def fetch(self, url):
        self.threads.add(threading.get_ident())
        return super().fetch(url)


def test_reduce_fetch_results_sorted_and_complete():
    corpus = {f"http://h{i}.test/{p}": f"body{i}{p}".encode() for i in range(5) for p in "zba"}
    bucket = pairs(*((url, i) for i, url in enumerate(sorted(corpus, reverse=True))))
    # (host hash, host, url) order, the order the store keeps
    order = sorted(corpus, key=lambda url: (fnv1a_64(host_of(url).encode()), host_of(url), url))
    for waits in (False, True):  # in the calling thread, then on lanes
        fetcher = ThreadLog(corpus, waits)
        results = reduce_fetch(bucket, fetcher, fetch_lanes=4)
        assert [r.url for r in results] == order != sorted(corpus)
        assert all(r.ok for r in results)
        assert results[0].body == corpus[results[0].url]
        assert (threading.get_ident() in fetcher.threads) is not waits


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


def test_reduce_fetch_runs_lanes_only_for_a_fetcher_that_waits():
    bucket = pairs(("http://h0.test/x", 0), ("http://h1.test/x", 1))

    class Waiting:  # no waits attribute, so it is taken to wait
        def __init__(self):
            self.both_in_flight = threading.Barrier(2, timeout=5)

        def fetch(self, url):
            self.both_in_flight.wait()  # passes only once the other host's fetch runs too
            return FetchResult.success(url, b"x")

    assert all(r.ok for r in reduce_fetch(bucket, Waiting(), fetch_lanes=2))
    # no lanes for a fetcher that never waits with no delay to overlap, nor
    # for one lane or one host, whatever the fetcher
    corpus = {pair.key: b"x" for pair in bucket}
    for waits, lanes, urls in ((False, 2, bucket), (True, 1, bucket), (True, 2, bucket[:1])):
        fetcher = ThreadLog(corpus, waits)
        assert all(r.ok for r in reduce_fetch(urls, fetcher, fetch_lanes=lanes))
        assert fetcher.threads == {threading.get_ident()}


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
    # a title start tag inside the open title neither restarts nor closes it,
    # and an anchor inside the title is still read
    body = b'<title>a<title>b<a href="/in-title">c</title>d'
    assert extract_fields(body) == ("abc", "", "", 0, ["/in-title"])


def test_extract_fields_collects_each_anchors_first_href_in_the_same_pass():
    body = (
        b'<title>T</title><a href="/one" href="/ignored">1</a><a>none</a>'
        b'<A HREF="/two"/><a href="" href="/three">3</a><link href="/not-an-anchor">'
    )
    assert extract_fields(body) == ("T", "", "", 0, ["/one", "/two", "/three"])


@pytest.mark.parametrize(
    "unreadable",
    [
        "<![x[ y ]]>",  # html.parser raises on an unknown marked section
        "<![ y ]]>",  # and on one without a name
        '<meta name="comments" content="²">',  # int() raises on a superscript digit
        '<meta name="comments" content="٣">',  # int() reads an Arabic-Indic digit as 3
        '<meta name="comments" content="' + "9" * 5000 + '">',  # past int()'s digit limit
    ],
)
def test_extract_fields_reads_on_past_what_html_parser_or_int_cannot_read(unreadable):
    body = f'{unreadable}<title>T</title><meta name="keywords" content="k"><a href="/after">x</a>'
    assert extract_fields(body.encode("utf-8")) == ("T", "k", "", 0, ["/after"])


_TEXT = st.lists(
    st.sampled_from(
        ["word", " ", "\n", "é", "&amp;", "&amp", "&lt", "&#65;", "&#x42", "&#1;", "&notit;"]
        + ["&", "<", "< 2", ">", '"', "'", "=", "/", "-", "]"]
    ),
    max_size=5,
).map("".join)
_TAG_NAMES = st.sampled_from(
    ["a", "A", "meta", "Meta", "title", "TITLE", "script", "Style", "p", "img", "b", "é"]
)
_ATTRIBUTE_NAMES = st.sampled_from(["href", "HREF", "name", "Name", "content", "CONTENT", "alt"])
_ATTRIBUTE_VALUES = st.one_of(
    st.sampled_from(
        ["", "/x", "/a b", "keywords", "Media", "comments", "comment_count", "12", " 7 ", "007"]
        + ["x&amp;y", "&#10;", "<a href=/v>", "<title>", "-->", "</script>"]
    ),
    _TEXT,
)


def _attribute(name: str, value: str, form: str) -> str:
    if form == "double":
        return f'{name}="{value.replace(chr(34), "")}"'
    if form == "single":
        return f"{name}='{value.replace(chr(39), '')}'"
    if form == "bare":
        return f"{name}={value}"
    return name


_ATTRIBUTES = st.builds(
    _attribute,
    _ATTRIBUTE_NAMES,
    _ATTRIBUTE_VALUES,
    st.sampled_from(["double", "single", "bare", "none"]),
)
_GAPS = st.sampled_from([" ", "  ", "\n", "\t", "/", " / ", ""])
_START_TAGS = st.builds(
    lambda name, attributes, close: f"<{name}{''.join(attributes)}{close}",
    _TAG_NAMES,
    st.lists(st.builds(str.__add__, _GAPS, _ATTRIBUTES), max_size=3),
    st.sampled_from([">", "/>", " />", "\n>", ""]),
)


def _pieces(*parts):
    """Strings joined from one draw of each part; a list part is sampled."""
    strategies = [st.sampled_from(part) if isinstance(part, list) else part for part in parts]
    return st.tuples(*strategies).map("".join)


_END_TAGS = _pieces(["</"], _TAG_NAMES, [">", " >", "\n>", " x>", "/>", ""])
_COMMENTS = _pieces(["<!--"], _TEXT, ["-->", "-- >", "--!>", "->", ""])
_DECLARATIONS = _pieces(
    ["<!DOCTYPE html", "<!doctype", "<!", "<!x", "<![CDATA[", "<![cdata[", "<![if !IE", "<![endif"]
    + ["<?xml", "<?"],
    _TEXT,
    [">", "]]>", "] ]>", "]>", "?>", ""],
)
_RAW_TEXT = _pieces(
    ["<script>", "<SCRIPT>", "<style>"],
    st.one_of(_TEXT, _START_TAGS),
    ["</script>", "</SCRIPT >", "</style>", "</ſcript>", "</title>", ""],
)
_TITLES = _pieces(["<title>"], _TEXT, ["</title>"])
_PAGES = st.lists(
    st.one_of(_TEXT, _START_TAGS, _END_TAGS, _COMMENTS, _DECLARATIONS, _RAW_TEXT, _TITLES),
    max_size=10,
).map("".join)


def test_extract_fields_gives_the_pinned_example_fields():
    # Pinned, not read from this interpreter's html.parser, which may
    # change between Python releases.
    assert len(EXTRACTION_FIELDS) == len(EXTRACTION_EXAMPLES)
    for page, expected in zip(EXTRACTION_EXAMPLES, EXTRACTION_FIELDS):
        assert extract_fields(page.encode("utf-8")) == expected, page


def _with_examples(test):
    for page in reversed(EXTRACTION_EXAMPLES):
        test = example(page)(test)
    return test


@_with_examples
@settings(max_examples=400, deadline=None)
@given(_PAGES)
def test_extract_fields_matches_html_parser(page):
    """extract_fields reads a page as helpers.reference_extract_fields does,
    with html.parser, wherever html.parser and int() can read it.

    Pages are drawn from a grammar of comments, declarations, marked
    sections, processing instructions, script and style text, start tags
    with double-quoted, single-quoted, bare, valueless and repeated
    attributes, end tags, entity and character references with and
    without ";", stray "<" and "&", titles holding tags, repeated titles,
    and constructs cut off by the end of the page. A comment meta of
    non-ASCII digits, which int() reads and extract_fields counts as 0, is
    a deliberate difference the grammar does not draw.
    """
    body = page.encode("utf-8")
    try:
        expected = reference_extract_fields(body)
    except (AssertionError, ValueError):  # html.parser or int() cannot read it
        reject()
    assert extract_fields(body) == expected


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
      <a href="/p&#9;q">a tab in a relative href</a>
      <a href="/p&#13;q">a CR in a relative href</a>
      <a href="\x01https://b.test/c">a leading control, another scheme</a>
      <a href="\x01http://b.test/c">a leading control, the same scheme</a>
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


def test_extract_links_keeps_one_canonical_link_per_page():
    hrefs = ["HTTP://A.Test:80/x#top", "http://u@a.test/x", "/x#f", "http://a.test/x?"]
    hrefs.append("HTTPS://B.test:443")
    links = extract_links(hrefs, "http://a.test/dir/page#frag")
    assert links == ["http://a.test/x", "https://b.test"]
    # an empty href or a bare fragment names the base page, without its fragment
    assert extract_links(["", "#top"], "http://A.test/page#frag") == ["http://a.test/page"]


def test_extract_links_survives_garbage():
    assert extract_links(extract_fields(b"\x00\x01binary junk")[4], "http://a.test/") == []
    assert extract_links(extract_fields(b"<a href='broken")[4], "http://a.test/") == []


# Path and host characters include tab, CR, LF, a C0 control and the LF
# charref "&#10;", which the body below writes unescaped.
_URL_CHARS = st.lists(
    st.sampled_from(list("/?#&=aZ.%\\ ") + ["\t", "\r", "\n", "\x01", "&#10;"]), max_size=12
).map("".join)
_HREFS = st.one_of(
    st.text(max_size=24),
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(
                ["", "http://", "https://", "HTTP://", "//", "ftp://", "mailto:", "javascript:"]
                + ["\x01http://", "\x01https://"]
            ),
            st.one_of(
                st.sampled_from(["a.test", "A.Test", "[::1]", "[fe80::1]", "u:pw@h.test", "", "a.\ntest"]),
                st.text(alphabet="aZ.-:@[]%09 \t\r\n\x01", max_size=12),
            ),
            st.sampled_from(["", ":", ":0", ":80", ":443", ":65535", ":65536", ":99999", ":-1", ":x"]),
            _URL_CHARS,
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_HREFS, max_size=8))
@example(["https://b.test/x&#10;http://c.test/y", "https://b.test/p\tq", "a #frag", "b\x85#"])
@example(["http:// :"])
@example(["\x01https://b.test/x", "\x01http://b.test/x", "/p\tq"])
def test_extracted_links_pass_the_url_rule(hrefs):
    body = "".join(
        f'<a href="{html.escape(href).replace("&amp;#10;", "&#10;")}">x</a>' for href in hrefs
    )
    hrefs_seen = extract_fields(body.encode("utf-8"))[4]
    for link in extract_links(hrefs_seen, "http://base.test/dir/page"):
        assert canonical_url(link) == link
        pairs_out, errors = map_swap(SeedSplit([(0, link)]))
        assert errors == [] and pairs_out == pairs((link, 0))
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
    for delay in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            PipelineConfig(per_host_delay=delay)
    # reduce_fetch checks its own arguments, before any fetch
    fetcher = MockFetcher({"http://a.test/": html_page("A", [])})
    bucket = pairs(("http://a.test/", 0), ("http://a.test/x", 1))
    for lanes, delay in ((0, 0.0), (1, -1.0), (1, math.nan), (1, math.inf)):
        with pytest.raises(ValueError):
            reduce_fetch(bucket, fetcher, lanes, delay)
    assert fetcher.request_log == []


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
# The meta.jsonl line UTF8_PAGE is stored as, after its id; its content is
# read from its raw file.
UTF8_META_LINE = (
    '"url": "http://b.test/u", "title": "新闻 \\"一\\"", "keywords": "", "media": "", '
    '"comment_count": 7, "content_hash": 12701713856530241125, '
    '"out_links": ["http://b.test/路径", "http://b.test/x"]}'
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
    utf8_id = store.id_of("http://b.test/u")
    assert meta_lines[utf8_id - 1] == f'{{"id": {utf8_id}, {UTF8_META_LINE}'
    assert store.get(utf8_id).content == UTF8_PAGE


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


def test_pipeline_fetches_no_url_twice(tmp_path):
    # Buckets split urls by host, so no url sits in two buckets of a
    # round, and the next round's seeds leave out every attempted url.
    corpus, urls = wide_corpus()
    seeds = seed_with_duplicates(urls[::3])
    for split_size in (16, 64, 1024):
        for reducers in (1, 3, 7):
            fetcher = MockFetcher(corpus)
            store = PageStore(tmp_path / f"store_{split_size}_{reducers}")
            config = PipelineConfig(rounds=4, split_size=split_size, reducers=reducers)
            summary = run_pipeline(seeds, config, fetcher, store)
            requested = [url for url, _ in fetcher.request_log]
            assert len(requested) == len(set(requested)) == summary.pages_fetched
            assert len(store) == len(requested)


def test_pipeline_rerun_on_same_store_is_idempotent(tmp_path):
    corpus, seeds = small_site()
    store_dir = tmp_path / "store"
    config = PipelineConfig(rounds=2)
    run_pipeline(seeds, config, MockFetcher(corpus), PageStore(store_dir))
    before = (store_dir / "meta.jsonl").read_bytes()
    summary = run_pipeline(seeds, config, MockFetcher(corpus), PageStore(store_dir))
    assert (store_dir / "meta.jsonl").read_bytes() == before
    # seeds are re-fetched on request, but nothing new is stored and the
    # already-stored discovery (a.test/y) is served from the store
    assert summary.pages_fetched == 2
    assert [(r.fetched, r.from_store) for r in summary.rounds] == [(2, 0), (0, 1)]
    assert sum(r.stored_new for r in summary.rounds) == 0


def test_pipeline_rerun_over_a_store_cut_to_any_whole_prefix_gives_the_clean_run(tmp_path):
    # The redirect d.test/old -> b.test/new shares its target's bucket and
    # comes first in the store order at 1, 2 and 3 buckets (host hash order
    # d, b, c, a), so b.test/new is stored with the redirect's body, which
    # links c.test/x, and a.test/y, which only b.test/new's own body links,
    # is reached neither by the clean run nor by any rerun.
    redirected = {
        "http://c.test/seed": html_page("Seed", ["http://d.test/old", "http://b.test/new"]),
        "http://d.test/old": html_page("Old", ["http://c.test/x"]),
        "http://b.test/new": html_page("New", ["http://a.test/y"]),
        "http://c.test/x": html_page("X", []),
        "http://a.test/y": html_page("Y", []),
    }
    hosts = ["d.test", "b.test", "c.test", "a.test"]
    assert sorted(hosts, key=lambda host: fnv1a_64(host.encode())) == hosts
    for reducers in (1, 2, 3):
        assert partition("http://d.test/", reducers) == partition("http://b.test/", reducers)
    moves = {"http://d.test/old": "http://b.test/new"}
    corpus, urls = wide_corpus()
    wide_seeds = "".join(f"{url}\n" for url in urls[::25]).encode()
    # (seeds, corpus, reducers, pages the clean run stores)
    inputs = [(b"http://c.test/seed\n", redirected, reducers, 3) for reducers in (1, 2, 3)]
    inputs.append((wide_seeds, corpus, 3, 36))  # 4, 10 and 22 pages in the three rounds
    for number, (seeds, pages_by_url, reducers, pages) in enumerate(inputs):

        def digests(root):
            config = PipelineConfig(reducers=reducers, rounds=3, dump_dir=root / "dump")
            return whole_run_digests(root, seeds, config, RedirectingFetcher(pages_by_url, moves))

        clean_store = tmp_path / f"clean{number}" / "store"
        clean = digests(clean_store.parent)
        lines = (clean_store / "meta.jsonl").read_bytes().splitlines(keepends=True)
        assert len(lines) == pages
        for kept in range(len(lines)):
            # the state a crash leaves: a whole prefix, which a reopen keeps
            root = tmp_path / f"input{number}_kept{kept}"
            shutil.copytree(clean_store, root / "store")
            (root / "store" / "meta.jsonl").write_bytes(b"".join(lines[:kept]))
            assert digests(root) == clean, (number, kept)


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
    fetcher = MockFetcher(corpus)
    summary = run_pipeline(seeds, PipelineConfig(), fetcher, store)
    # two spellings of one page: one request, under the canonical url, and one record
    assert [url for url, _ in fetcher.request_log] == ["http://a.test/x"]
    assert summary.pages_fetched == 1
    assert [record.url for record in store.records()] == ["http://a.test/x"]


class RecordingFetcher(MockFetcher):
    """A mock fetcher that also keeps every FetchResult it returns."""

    def __init__(self, corpus):
        super().__init__(corpus)
        self.results = []

    def fetch(self, url):
        result = super().fetch(url)
        self.results.append(result)
        return result


def test_pipeline_requests_each_page_once_however_spelled(tmp_path):
    page = html_page("A", ["http://a.test/y", "http://A.TEST:80/y#f"])
    corpus = {"http://a.test/": page, "http://a.test/y": html_page("Y", [])}
    # the two spellings of the root land in different splits
    seeds = b"http://a.test/\nhttp://A.test/\nhttp://A.test:99999/\n"
    fetcher = RecordingFetcher(corpus)
    store = PageStore(tmp_path / "store")
    summary = run_pipeline(seeds, PipelineConfig(rounds=2, split_size=16), fetcher, store)
    requested = [url for url, _ in fetcher.request_log]
    assert requested == ["http://a.test/", "http://a.test/y"]
    assert [result.url for result in fetcher.results] == requested
    assert [(r.fetched, r.stored_new) for r in summary.rounds] == [(1, 1), (1, 1)]
    # an invalid seed line is reported as written
    assert [error.line for error in summary.invalid_lines] == ["http://A.test:99999/"]
    assert summary.fetch_errors == []
    expected = reference_crawl(seeds, corpus, rounds=2)
    assert {record.url: store.raw_body(record.id) for record in store.records()} == expected
    assert store.get(store.id_of("http://a.test/")).out_links == ["http://a.test/y"]


class RedirectingFetcher(MockFetcher):
    """A mock fetcher whose results for the urls in ``moves`` claim to
    come from another url after a redirect."""

    def __init__(self, corpus, moves):
        super().__init__(corpus)
        self.moves = moves

    def fetch(self, url):
        result = super().fetch(url)
        if url in self.moves:
            return FetchResult.success(url, result.body, self.moves[url])
        return result


def test_pipeline_stores_a_redirected_page_under_its_final_url(tmp_path):
    corpus = {
        "http://a.test/old": html_page("Old", ["http://b.test/moved/"]),
        "http://a.test/bad": html_page("Bad", ["http://a.test/old"]),
        "http://b.test/moved/": html_page("Moved", []),
    }
    moves = {
        "http://a.test/old": "http://B.test:80/moved/#f",
        # the url rule rejects this final url, so the page keeps the one asked for
        "http://a.test/bad": "http://b.test:99999/p",
    }
    fetcher = RedirectingFetcher(corpus, moves)
    store = PageStore(tmp_path / "store")
    seeds = b"http://a.test/old\nhttp://a.test/bad\n"
    summary = run_pipeline(seeds, PipelineConfig(rounds=2), fetcher, store)
    assert [(record.id, record.url, record.out_links) for record in store.records()] == [
        (1, "http://a.test/bad", ["http://a.test/old"]),
        (2, "http://b.test/moved/", ["http://b.test/moved/"]),
    ]
    # the final url counts as attempted, so its own link is not fetched again
    assert [url for url, _ in fetcher.request_log] == ["http://a.test/bad", "http://a.test/old"]
    assert [(r.fetched, r.stored_new) for r in summary.rounds] == [(2, 2), (0, 0)]


def test_pipeline_requests_a_seeded_redirect_target_too(tmp_path):
    # a redirect's target is known only after the fetch, so a seed that
    # redirects to another seed of its round costs two requests; each url is
    # still requested once per run, and the page is stored once
    new = html_page("New", ["http://a.test/old", "http://a.test/new"])
    corpus = {"http://a.test/old": new, "http://a.test/new": new}
    fetcher = RedirectingFetcher(corpus, {"http://a.test/old": "http://a.test/new"})
    store = PageStore(tmp_path / "store")
    seeds = b"http://a.test/old\nhttp://a.test/new\n"
    summary = run_pipeline(seeds, PipelineConfig(rounds=2), fetcher, store)
    assert [url for url, _ in fetcher.request_log] == ["http://a.test/new", "http://a.test/old"]
    assert [(record.id, record.url) for record in store.records()] == [(1, "http://a.test/new")]
    assert store.raw_body(1) == new
    assert [(r.fetched, r.stored_new) for r in summary.rounds] == [(2, 1), (0, 0)]


def test_pipeline_output_does_not_depend_on_the_bucket_count(tmp_path):
    # two redirects to a page of another host that is named too: a.test/old
    # to b.test/new among the seeds, and d.test/old to a.test/moved among the
    # links of round 1. Of each pair the one first in the store order is
    # stored, and its record gives the links of both fetches, so a.test/z,
    # which only a.test/moved's own body links, is never reached, at every
    # bucket count
    corpus = {
        "http://a.test/": html_page(
            "A", ["http://b.test/", "http://d.test/old", "http://a.test/moved"]
        ),
        "http://a.test/old": html_page("Old", ["http://d.test/"]),
        "http://a.test/moved": html_page("Moved", ["http://a.test/z"]),
        "http://a.test/z": html_page("Z", ["http://a.test/"]),
        "http://b.test/": html_page("B", ["http://a.test/", "http://e.test/"]),
        "http://b.test/new": html_page("New", ["http://c.test/y"]),
        "http://c.test/x": html_page("CX", ["http://a.test/", "http://c.test/y"]),
        "http://c.test/y": html_page("CY", ["http://b.test/new", "http://d.test/"]),
        "http://d.test/": html_page("D", ["http://a.test/", "http://c.test/x"]),
        "http://d.test/old": html_page("Old too", ["http://e.test/"]),
        "http://e.test/": html_page("E", ["http://d.test/", "http://b.test/"]),
    }
    moves = {"http://a.test/old": "http://b.test/new", "http://d.test/old": "http://a.test/moved"}
    seeds = b"http://c.test/x\nhttp://a.test/\nhttp://a.test/old\nhttp://b.test/new\n"
    digests = []
    for reducers in range(1, 9):
        root = tmp_path / f"reducers{reducers}"
        config = PipelineConfig(split_size=32, reducers=reducers, rounds=3)
        digests.append(whole_run_digests(root, seeds, config, RedirectingFetcher(corpus, moves)))
    assert digests == [digests[0]] * 8
    store = PageStore(tmp_path / "reducers1" / "store")
    assert len(store) == 8
    assert "http://a.test/z" not in store
    assert store.raw_body(store.id_of("http://b.test/new")) == corpus["http://b.test/new"]
    assert store.raw_body(store.id_of("http://a.test/moved")) == corpus["http://d.test/old"]


def test_pipeline_output_does_not_depend_on_the_seed_order(tmp_path):
    # a round's store order follows which urls its seed file lists, never
    # their order, so seed order, duplicates and split size change no byte
    corpus, urls = wide_corpus()
    seeds = urls[::9]
    shuffled = random.Random(29).sample(seeds, len(seeds))
    orders = {
        "file": "".join(f"{url}\n" for url in seeds).encode(),
        "reversed": "".join(f"{url}\n" for url in reversed(seeds)).encode(),
        "shuffled": seed_with_duplicates(shuffled),
    }
    digests = []
    for split_size in (16, PipelineConfig().split_size):
        for name, seed_bytes in orders.items():
            config = PipelineConfig(split_size=split_size, rounds=3)
            root = tmp_path / f"{name}{split_size}"
            digests.append(whole_run_digests(root, seed_bytes, config, MockFetcher(corpus)))
    assert digests == [digests[0]] * 6
    assert len(PageStore(tmp_path / "file16" / "store")) == 77  # 12, 25 and 40 a round


def test_pipeline_reports_fetch_errors_under_canonical_urls(tmp_path):
    corpus = {"http://a.test/": html_page("A", ["HTTP://Gone.test:80/x#f"])}
    fetcher = RecordingFetcher(corpus)
    store = PageStore(tmp_path / "store")
    seeds = b"http://A.test:80/#top\nhttp://Gone.TEST/x\n"
    summary = run_pipeline(seeds, PipelineConfig(rounds=2), fetcher, store)
    # the failed page, linked again in another spelling, is not asked for twice
    requested = sorted(result.url for result in fetcher.results)
    assert requested == ["http://a.test/", "http://gone.test/x"]
    assert summary.fetch_errors == [("http://gone.test/x", "not in corpus")]
    assert [record.url for record in store.records()] == ["http://a.test/"]


def test_pipeline_holds_one_buckets_bodies_at_a_time(tmp_path):
    # three hosts, one to a bucket, each with 3 MB of bodies; every page
    # links to one page, spelled one of two ways
    hosts = ["a.test", "c.test", "d.test"]
    assert sorted(partition(f"http://{host}/", 3) for host in hosts) == [0, 1, 2]
    pages_per_host, page_bytes = 100, 30_000
    shared = "http://a.test/shared"
    spellings = [shared, "HTTP://A.test:80/shared#top"]

    class FreshFetcher:  # allocates each body anew, as a network fetch does
        def fetch(self, url):
            href = spellings[int(url.rpartition("/")[2]) % 2]
            return FetchResult.success(url, html_page(url, [href]).ljust(page_bytes))

    seeds = "".join(f"http://{host}/{i}\n" for host in hosts for i in range(pages_per_host))
    store = PageStore(tmp_path / "store")
    gc.collect()  # empties CPython's free lists, which would otherwise follow what ran before
    tracemalloc.start()
    try:
        run_pipeline(seeds.encode(), PipelineConfig(reducers=3), FreshFetcher(), store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(store) == len(hosts) * pages_per_host
    # one bucket's bodies and one hash block, not the last bucket's bodies too
    assert peak < pages_per_host * page_bytes + _CHUNK_BYTES + 500_000
    # a link that many pages share is one str in all of them, however spelled
    assert len({id(links[0]) for links in store._out_links}) == 1
    assert store._out_links[0] == [shared]
