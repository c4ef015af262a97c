import json
import os
import re
import shutil
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crawlrank import FetchedPage, PageRecord, PageStore, canonical_url, fnv1a_64, make_edge_list
from crawlrank import store as store_module
from helpers import MISTYPED_FIELDS, UNENCODABLE_FIELDS, reference_canonical_url, store_files


def test_canonical_url_rules():
    assert canonical_url("http://A.com:80/x#top") == "http://a.com/x"
    assert canonical_url("https://A.Test:443/p?q=1#frag") == "https://a.test/p?q=1"
    assert canonical_url("http://user:pw@Host.com/secret") == "http://host.com/secret"
    assert canonical_url("http://a.com:8080/x") == "http://a.com:8080/x"
    assert canonical_url("http://a.com/UPPER/Path") == "http://a.com/UPPER/Path"
    assert canonical_url("http://a.com") == "http://a.com"


def test_canonical_url_rejections():
    for bad in ("ftp://a.com/x", "mailto:x@y.z", "not a url", "http:///nohost", "http://a.com:bad/x", ""):
        with pytest.raises(ValueError):
            canonical_url(bad)
    # urlsplit deletes tab, CR and LF and strips leading controls, and a
    # seed line cannot carry a line break or end whitespace, so none of
    # these may pass as some other url
    for bad in (
        "http://a.test/x\ty",
        "http://a.test/x\ry",
        "http://a.test/x\nhttp://c.test/y",
        "http://a.\ntest/",
        "\x01https://b.test/x",
        "\x00http://a.test/",
        "http://a.test/x\x1f",
        "http://a\x0b.test/",
        "http://a.test/\x7f",
        "http://a.test/x ",
        " http://a.test/x",
        "http://a.test/x\n",
    ):
        with pytest.raises(ValueError, match="control character|whitespace"):
            canonical_url(bad)
    # a host with whitespace: "http:// :" would canonicalize to "http:// ",
    # which the rule itself rejects
    for bad in ("http:// :", "http://a b.test/", "http://a.test :8080/x", "http://\xa0:/"):
        with pytest.raises(ValueError, match="host holds whitespace"):
            canonical_url(bad)
    # a canonical form that the rule rejects or reads as another url
    for bad in ("http://a.test/sp #f", "http://a.test/x?q #f", "http://[::1][Z.@[%%[[."):
        with pytest.raises(ValueError, match="canonical form|brackets"):
            canonical_url(bad)
    # urlsplit drops the "x" on some Python releases and rejects it on others
    with pytest.raises(ValueError, match="brackets"):
        canonical_url("http://[::1]x/")


# Pieces of authorities where urlsplit's readings differ, and of paths.
_AUTHORITIES = st.lists(
    st.sampled_from(
        ["a.test", "A.Test", "[", "]", "::1", "fe80::1", "%25Eth0", "v1.x", "1.2.3.4", "@", "u:pw@"]
        + [":", ":80", ":443", ":x", " ", "é", "%", ".", "\\"]
    ),
    min_size=1,
    max_size=6,
).map("".join)
_PATHS = st.lists(
    st.sampled_from(["/", "x", "?", "q", " ", "\t", "\xa0", "%", "[", "]", "@"]), max_size=5
).map("".join)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(["http://", "https://", "HTTP://", "ftp://", ""]),
    st.one_of(_AUTHORITIES, st.text(max_size=12)),
    _PATHS,
    st.sampled_from(["", "#", "#f", " #f"]),
)
@example("http://", "a.test", "/sp ", "#f")
@example("http://", "[::1][Z.@[%%[[.", "", "")
def test_canonical_url_is_its_own_canonical_form(scheme, authority, path, fragment):
    url = scheme + authority + path + fragment
    try:
        canon = canonical_url(url)
    except ValueError:
        with pytest.raises(ValueError):
            reference_canonical_url(url)  # the urlsplit route rejects it too
        return
    assert canon == reference_canonical_url(url)
    assert canonical_url(canon) == canon


_PRINTABLE = "".join(map(chr, range(0x21, 0x7F)))
_PATH_CHARS = _PRINTABLE.replace("#", "").replace("?", "")
# Urls in store.CANONICAL's alphabet, and with the characters next to it.
_FAST_URLS = st.builds(
    "{}://{}{}{}".format,
    st.sampled_from(["http", "https", "HTTP", "ftp"]),
    st.text(alphabet="az09.-", min_size=1, max_size=8) | st.text(alphabet="az.AZ_:@[]%", max_size=8),
    st.just("") | st.text(alphabet=_PATH_CHARS).map("/{}".format),
    st.just("") | st.text(alphabet=_PRINTABLE + " \t\x7f\x85\xa0é", max_size=8).map("?{}".format),
)


@settings(max_examples=500, deadline=None)
@given(_FAST_URLS)
@example("http://a.test?q")
@example("http://a.test//x")
@example("http://a.test/./x")
@example("https://-/%7e\\x?/?@[]")
def test_a_url_the_fast_pattern_takes_is_its_own_canonical_form(url):
    if store_module.CANONICAL.fullmatch(url):
        assert store_module._canonical_form(url) == url
        assert canonical_url(url) is url


def test_put_assigns_dense_ids_and_dedupes(tmp_path):
    store = PageStore(tmp_path / "store")
    assert store.put("http://a.com/x", b"one") == (1, True)
    assert store.put("http://A.com:80/x#top", b"ignored") == (1, False)
    assert store.put("http://a.com/y", b"two") == (2, True)
    assert store.put("http://b.com/", b"three") == (3, True)
    assert len(store) == 3
    assert store.get(1).content == "one"
    assert store.raw_body(1) == b"one"
    assert "http://A.com:80/x" in store
    assert "http://a.com/z" not in store
    assert "::junk::" not in store


def test_duplicate_put_changes_nothing_on_disk(tmp_path):
    store = PageStore(tmp_path / "store")
    store.put("http://a.com/x", b"one")
    before = (tmp_path / "store" / "meta.jsonl").read_bytes()
    store.put("http://a.com/x", b"different body")
    assert (tmp_path / "store" / "meta.jsonl").read_bytes() == before
    assert store.raw_body(1) == b"one"



def test_put_many_matches_a_sequence_of_puts(tmp_path):
    pages = [
        FetchedPage("http://a.com/x", b"one", title="One", out_links=["http://a.com/y"]),
        FetchedPage("http://b.com/", "《体育》".encode("utf-8"), "t", "k", "m", 3),
        FetchedPage("http://A.com:80/x#top", b"in-batch duplicate"),
        FetchedPage("http://stored.com/", b"already stored"),
        FetchedPage("http://a.com/y", b""),
    ]
    one_by_one, batched = PageStore(tmp_path / "puts"), PageStore(tmp_path / "batch")
    for store in (one_by_one, batched):
        assert store.put("http://stored.com/", b"first") == (1, True)
    expected = [one_by_one.put(**page._asdict()) for page in pages]
    assert expected == [(2, True), (3, True), (2, False), (1, False), (4, True)]
    assert batched.put_many(pages) == expected
    assert store_files(tmp_path / "batch") == store_files(tmp_path / "puts")
    assert batched.records() == one_by_one.records()
    assert batched.get(2).content_hash == fnv1a_64(b"one")
    assert batched.put_many([]) == []
    assert batched.put("http://c.com/", b"next") == (5, True)


def test_put_many_with_a_bad_url_writes_nothing(tmp_path):
    store = PageStore(tmp_path / "store")
    store.put("http://a.com/x", b"one")
    before = store_files(tmp_path / "store")
    with pytest.raises(ValueError):
        store.put_many([FetchedPage("http://a.com/new", b"two"), FetchedPage("ftp://a.com/x", b"3")])
    assert store_files(tmp_path / "store") == before
    assert len(store) == 1
    # nor does a page with a field a reopen would refuse (a str is no list of
    # links), or with a body that is not bytes
    bad_fields = [(name, value) for name, value in MISTYPED_FIELDS if name in FetchedPage._fields]
    bad_fields += [("body", "text body"), ("body", None)]
    for name, value in [*bad_fields, ("out_links", "http://b.com/"), ("out_links", (5,))]:
        bad = FetchedPage("http://a.com/bad", b"3")._replace(**{name: value})
        named = "url is not a str" if name == "url" else f"page http://a.com/bad: field {name} is not"
        with pytest.raises(ValueError, match=named):
            store.put_many([FetchedPage("http://a.com/new", b"two"), bad])
        assert store_files(tmp_path / "store") == before
        assert len(store) == 1
    # nor a page with text UTF-8 cannot encode, which json.dumps lets through
    for name, value in UNENCODABLE_FIELDS:
        bad = FetchedPage("http://a.com/bad", b"3")._replace(**{name: value})
        named = f"page {re.escape(bad.url)}: field {name} holds text UTF-8 cannot encode"
        with pytest.raises(ValueError, match=named):
            store.put_many([FetchedPage("http://a.com/new", b"two"), bad])
        assert store_files(tmp_path / "store") == before
        assert len(store) == 1
    assert store.put("http://a.com/new", b"two", out_links=("http://a.com/x",)) == (2, True)
    assert PageStore(tmp_path / "store").get(2).out_links == ["http://a.com/x"]


def test_rejected_url_writes_nothing(tmp_path):
    store = PageStore(tmp_path / "store")
    with pytest.raises(ValueError):
        store.put("ftp://a.com/x", b"body")
    assert len(store) == 0
    assert not (tmp_path / "store" / "meta.jsonl").exists()


def test_reopen_restores_records_and_id_sequence(tmp_path):
    directory = tmp_path / "store"
    store = PageStore(directory)
    store.put("http://a.com/x", "《体育》".encode("utf-8"), title="《体育》", keywords="a,b")
    # json.dumps leaves U+2028 and U+0085 raw; they must not split a record
    store.put("http://a.com/y", "two\u2028\x85".encode("utf-8"), out_links=["http://a.com/x"])

    reopened = PageStore(directory)
    assert len(reopened) == 2
    assert reopened.records() == store.records()
    assert reopened.get(1).title == "《体育》"
    assert reopened.get(2).out_links == ["http://a.com/x"]
    assert reopened.put("http://a.com/x", b"again") == (1, False)
    assert reopened.put("http://a.com/z", b"three") == (3, True)
    assert sorted(os.listdir(directory)) == ["meta.jsonl", "raw"]
    assert sorted(os.listdir(directory / "raw")) == ["1", "2", "3"]


def test_every_crash_state_reopens_to_its_longest_whole_prefix(tmp_path):
    # Nothing is fsynced, so a stop during put_many(batch) can leave any
    # prefix of its writes (each page's raw file, then its line) with the
    # last line torn at any byte, or a raw file lost or emptied while every
    # later write persisted (ALICE, Pillai et al., OSDI 2014).
    first = [FetchedPage("http://a.com/1", b"one", title="one", out_links=["http://a.com/2"])]
    # multi-byte utf-8 and raw U+2028, so some cuts split a character
    batch = [
        FetchedPage(
            f"http://a.com/{n}",
            f"《{n}》 page".encode("utf-8"),
            title=f"《{n}》\u2028",
            out_links=["http://a.com/1", f"http://a.com/{n + 1}"],
        )
        for n in (2, 3, 4)
    ]
    store = PageStore(tmp_path / "clean")
    store.put_many(first)
    store.put_many(batch)
    clean, records = store_files(tmp_path / "clean"), store.records()
    lines = clean["meta.jsonl"].splitlines(keepends=True)
    files = {"meta.jsonl": lines[0], "raw/1": clean["raw/1"]}
    states = [(files, 1)]  # (files, records a reopen keeps)
    for n in (2, 3, 4):
        files = {**files, f"raw/{n}": clean[f"raw/{n}"]}
        states += [({**files, "meta.jsonl": files["meta.jsonl"] + lines[n - 1][:cut]}, n - 1)
                   for cut in range(len(lines[n - 1]))]
        files = {**files, "meta.jsonl": files["meta.jsonl"] + lines[n - 1]}
    states.append((files, 4))
    for n in (1, 2, 3, 4):
        lost = {name: data for name, data in clean.items() if name != f"raw/{n}"}
        states += [(lost, n - 1), ({**clean, f"raw/{n}": b""}, n - 1)]
    assert len(states) == sum(map(len, lines[1:])) + 10
    for number, (files, kept) in enumerate(states):
        directory = tmp_path / str(number)
        (directory / "raw").mkdir(parents=True)
        for name, data in files.items():
            (directory / name).write_bytes(data)
        reopened = PageStore(directory)
        survivors = reopened.records()
        assert survivors == records[:kept]
        assert [record.id for record in survivors] == list(range(1, kept + 1))
        assert all(fnv1a_64(reopened.raw_body(r.id)) == r.content_hash for r in survivors)
        assert sorted(os.listdir(directory / "raw"), key=int) == [str(n) for n in range(1, kept + 1)]
        assert reopened.put_many(first) == [(1, kept < 1)]
        assert reopened.put_many(batch) == [(n, n > kept) for n in (2, 3, 4)]
        assert store_files(directory) == clean


def test_a_whole_store_opens_without_a_write(tmp_path):
    directory = tmp_path / "store"
    store = PageStore(directory)
    # an empty body leaves an empty raw file, which its record's hash shows whole
    store.put_many([FetchedPage("http://a.com/1", b"one"), FetchedPage("http://a.com/2", b"")])
    store.put("http://a.com/3", b"three")
    paths = [directory / "meta.jsonl", directory / "raw", *(directory / "raw").iterdir()]
    for path in paths:
        os.utime(path, ns=(10**9, 10**9))
    before = store_files(directory)
    assert PageStore(directory).records() == store.records()
    assert store_files(directory) == before
    assert [path.stat().st_mtime_ns for path in paths] == [10**9] * len(paths)


def test_torn_meta_tail_is_recovered_at_every_cut(tmp_path):
    # A store written by an older version also holds NEXT_ID, which may
    # count the torn record; it is ignored and left as it is.
    source = tmp_path / "source"
    store = PageStore(source)
    store.put("http://a.com/1", b"one", title="one", out_links=["http://a.com/2"])
    store.put("http://a.com/2", "《二》\u2028".encode("utf-8"), title="《二》", out_links=["http://a.com/1"])
    meta = (source / "meta.jsonl").read_bytes()
    last = meta.rindex(b"\n", 0, len(meta) - 1) + 1
    kept = store.records()[:1]
    for cut in range(len(meta) - last):  # bytes of the last record kept
        directory = tmp_path / f"cut-{cut}"
        shutil.copytree(source, directory)
        (directory / "meta.jsonl").write_bytes(meta[: last + cut])
        (directory / "NEXT_ID").write_text("3", encoding="ascii")
        PageStore(directory)  # the first open repairs the files for good
        reopened = PageStore(directory)
        assert reopened.records() == kept
        assert os.listdir(directory / "raw") == ["1"]
        assert reopened.put("http://a.com/3", b"three", title="three") == (2, True)
        assert PageStore(directory).records() == [*kept, reopened.get(2)]
        assert sorted(os.listdir(directory / "raw")) == ["1", "2"]
        assert (directory / "NEXT_ID").read_text(encoding="ascii") == "3"


def test_a_bucket_cut_short_keeps_whole_records_and_reuses_the_ids(tmp_path):
    source = tmp_path / "source"
    store = PageStore(source)
    store.put("http://a.com/1", b"one")
    bucket = [FetchedPage(f"http://a.com/{n}", f"page {n}".encode(), title=str(n)) for n in (2, 3, 4)]
    store.put_many(bucket)
    lines = (source / "meta.jsonl").read_bytes().splitlines(keepends=True)
    # Every raw file of the bucket is on disk, and the bucket's lines
    # reach meta.jsonl only in part: none of them, or the first one whole
    # and the second one torn.
    for kept, meta in ((1, lines[0]), (2, b"".join(lines[:2]) + lines[2][:20])):
        directory = tmp_path / f"kept-{kept}"
        shutil.copytree(source, directory)
        (directory / "meta.jsonl").write_bytes(meta)
        reopened = PageStore(directory)
        assert reopened.records() == store.records()[:kept]
        assert sorted(os.listdir(directory / "raw"), key=int) == [str(n) for n in range(1, kept + 1)]
        assert reopened.put_many(bucket) == [(n, n > kept) for n in (2, 3, 4)]
        assert PageStore(directory).records() == store.records()
        assert store_files(directory) == store_files(source)


def test_a_lost_tail_gives_dense_ids(tmp_path):
    # Nothing is fsynced, so an older version's NEXT_ID write could reach
    # the disk while the append before it did not.
    directory = tmp_path / "store"
    store = PageStore(directory)
    for n in (1, 2, 3):
        store.put(f"http://a.com/{n}", f"page {n}".encode())
    lines = (directory / "meta.jsonl").read_bytes().splitlines(keepends=True)
    (directory / "meta.jsonl").write_bytes(b"".join(lines[:2]))
    (directory / "NEXT_ID").write_text("4", encoding="ascii")
    reopened = PageStore(directory)
    assert [record.id for record in reopened.records()] == [1, 2]
    assert reopened.put("http://a.com/new", b"new") == (3, True)
    assert sorted(os.listdir(directory / "raw")) == ["1", "2", "3"]
    assert reopened.raw_body(3) == b"new"


def test_an_empty_next_id_does_not_block_opening(tmp_path):
    # write_text truncates before it writes, so a stop in between leaves
    # an older version's NEXT_ID empty.
    directory = tmp_path / "store"
    store = PageStore(directory)
    store.put("http://a.com/1", b"one")
    store.put("http://a.com/2", b"two")
    (directory / "NEXT_ID").write_bytes(b"")
    reopened = PageStore(directory)
    assert reopened.records() == store.records()
    assert reopened.put("http://a.com/3", b"three") == (3, True)


def test_a_store_in_the_former_format_opens_as_it_was(tmp_path):
    # Older versions also wrote each record's decoded content into its
    # meta.jsonl line, before content_hash, and kept NEXT_ID.
    directory = tmp_path / "store"
    store = PageStore(directory)
    store.put("http://a.com/1", "《体育》\u2028".encode("utf-8"), title="one", out_links=["http://a.com/2"])
    store.put("http://a.com/2", "标题".encode("gb18030"), comment_count=3)
    store.put("http://a.com/3", b"bad \xff utf-8 \x80")
    expected = store.records()
    lines = []
    for line in (directory / "meta.jsonl").read_bytes().splitlines():
        record = json.loads(line)
        content = store_module.decode_page(store.raw_body(record["id"]))
        tail = {name: record.pop(name) for name in ("content_hash", "out_links")}
        lines.append(json.dumps({**record, "content": content, **tail}, ensure_ascii=False) + "\n")
    (directory / "meta.jsonl").write_text("".join(lines), encoding="utf-8")
    (directory / "NEXT_ID").write_text("4", encoding="ascii")
    reopened = PageStore(directory)
    assert reopened.records() == expected
    assert [record.content for record in expected] == ["《体育》\u2028", "标题", "bad \ufffd utf-8 \ufffd"]
    assert reopened.put("http://a.com/1", b"again") == (1, False)
    assert reopened.put("http://a.com/4", b"four") == (4, True)
    assert sorted(os.listdir(directory / "raw")) == ["1", "2", "3", "4"]
    assert (directory / "NEXT_ID").read_text(encoding="ascii") == "4"


def test_get_and_records_read_back_the_meta_line_as_written(tmp_path):
    # A hand-written line in the former format: its content key is
    # ignored, and content is decoded from raw/1.
    directory = tmp_path / "store"
    (directory / "raw").mkdir(parents=True)
    (directory / "raw" / "1").write_bytes(b"<p>raw body</p>")
    line = {
        "id": 1,
        "url": "http://a.com/x",
        "title": "T",
        "keywords": "k",
        "media": "m",
        "comment_count": 2,
        "content": "not what decode_page gives for raw/1 \u2028",
        "content_hash": 7,
        "out_links": ["http://a.com/y"],
    }
    (directory / "meta.jsonl").write_text(json.dumps(line, ensure_ascii=False) + "\n", encoding="utf-8")
    store = PageStore(directory)
    assert store.put("http://a.com/y", b"two") == (2, True)
    expected = PageRecord(**{**line, "content": "<p>raw body</p>"})
    assert store.get(1) == expected
    assert store.records() == [expected, store.get(2)]
    assert store.get(2).content == "two"
    assert store.get(3) is None


def test_the_store_keeps_no_page_content_in_memory(tmp_path, monkeypatch):
    # The pure-Python FNV-1a allocates an int per byte, which takes
    # minutes under tracemalloc for a 2 MB body; the hash is not what
    # this test measures.
    monkeypatch.setattr(store_module, "fnv1a_64_many", lambda bodies: [0] * len(bodies))
    directory = tmp_path / "store"
    size = 2 * 1024 * 1024
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = PageStore(directory)
        # non-ASCII, so the decoded content takes two bytes a character
        pages = [FetchedPage("http://a.com/big", "《体育》".encode("utf-8") * (size // 12), out_links=["http://a.com/"])]
        assert store.put_many(pages) == [(1, True)]
        del pages
        after_put = tracemalloc.get_traced_memory()[0] - before
        before = tracemalloc.get_traced_memory()[0]
        reopened = PageStore(directory)
        after_reopen = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert after_put < size // 20
    assert after_reopen < size // 20
    assert len(store.get(1).content) == len(reopened.get(1).content) == size // 12 * 4


def retyped(line: bytes, name: str, value) -> bytes:
    """A meta.jsonl line with one field set to ``value``."""
    return json.dumps({**json.loads(line), name: value}).encode() + b"\n"


def test_a_bad_record_that_is_not_a_torn_tail_still_raises(tmp_path):
    directory = tmp_path / "store"
    store = PageStore(directory)
    store.put("http://a.com/1", b"one")
    store.put("http://a.com/2", b"two")
    first, second = (directory / "meta.jsonl").read_bytes().splitlines(keepends=True)
    for meta in (
        first[:-5] + b"\n" + second,
        first + second[:-5] + b"\n",
        # records out of id order are no crash state either
        second + first,
        first + first,
        # nor is valid json that is not an object holding every field
        *(first + line + b"\n" for line in (b"{}", b"5", b"null", b"[1,2]", b'{"id": 2}')),
        # nor a record with a field of the wrong json type; true loads as 1
        *(first + retyped(second, name, value) for name, value in MISTYPED_FIELDS),
        *(first + retyped(second, name, value) for name, value in UNENCODABLE_FIELDS),
        retyped(first, "id", True) + second,
    ):
        (directory / "meta.jsonl").write_bytes(meta)
        with pytest.raises(ValueError):
            PageStore(directory)
        assert (directory / "meta.jsonl").read_bytes() == meta


def test_meta_is_one_json_record_per_line(tmp_path):
    store = PageStore(tmp_path / "store")
    store.put("http://a.com/x", b"<p>hi</p>", title="Hi", comment_count=4)
    lines = (tmp_path / "store" / "meta.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["id"] == 1
    assert record["url"] == "http://a.com/x"
    assert record["title"] == "Hi"
    assert record["comment_count"] == 4
    assert record["content_hash"] == fnv1a_64(b"<p>hi</p>")
    # content is not a field of the line: it is decoded from raw/1 on read
    assert list(record) == [
        "id", "url", "title", "keywords", "media", "comment_count", "content_hash", "out_links"
    ]
    assert store.get(1).content == "<p>hi</p>"


def test_content_hash_golden_values(tmp_path):
    assert fnv1a_64(b"") == 14695981039346656037
    assert fnv1a_64(b"a.com") == 1079864132778930279
    store = PageStore(tmp_path / "store")
    store.put("http://a.com/", b"a.com")
    assert store.get(1).content_hash == 1079864132778930279


def test_export_skips_links_to_unstored_pages(tmp_path):
    store = PageStore(tmp_path / "store")
    store.put("http://a.com/1", b"x", out_links=["http://a.com/2", "http://other.com/gone"])
    store.put("http://a.com/2", b"y", out_links=["http://a.com/1"])
    graph = store.export_edge_list()
    assert graph.vertex_ids == {1, 2}
    assert graph.edges == [(1, 2), (2, 1)]


def test_export_keeps_self_links_and_collapses_duplicates(tmp_path):
    store = PageStore(tmp_path / "store")
    store.put(
        "http://a.com/1",
        b"x",
        out_links=["http://a.com/1", "http://a.com/2", "http://A.com:80/2#f"],
    )
    store.put("http://a.com/2", b"y")
    graph = store.export_edge_list()
    assert graph.edges == [(1, 1), (1, 2)]


def test_export_includes_linkless_pages_as_vertices(tmp_path):
    store = PageStore(tmp_path / "store")
    store.put("http://a.com/1", b"x")
    store.put("http://a.com/2", b"y", out_links=["bogus://nope"])
    graph = store.export_edge_list()
    assert graph.vertex_ids == {1, 2}
    assert graph.edges == []


def test_export_matches_make_edge_list_shape(tmp_path):
    store = PageStore(tmp_path / "store")
    store.put("http://a.com/1", b"x", out_links=["http://a.com/2"])
    store.put("http://a.com/2", b"y", out_links=["http://a.com/1"])
    assert store.export_edge_list() == make_edge_list([(1, 2), (2, 1)])
