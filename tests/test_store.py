import json

import pytest

from crawlrank import PageStore, canonical_url, fnv1a_64, make_edge_list


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
    # urlsplit deletes tab, CR and LF, and a seed line cannot carry a line
    # break or end whitespace, so none of these may pass as some other url
    for bad in (
        "http://a.test/x\ty",
        "http://a.test/x\ry",
        "http://a.test/x\nhttp://c.test/y",
        "http://a.\ntest/",
        "http://a.test/x ",
        " http://a.test/x",
        "http://a.test/x\n",
    ):
        with pytest.raises(ValueError, match="tab or line break|whitespace"):
            canonical_url(bad)


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
    assert (directory / "NEXT_ID").read_text() == "4"


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
    assert record["content"] == "<p>hi</p>"
    assert record["content_hash"] == fnv1a_64(b"<p>hi</p>")


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
