"""Crawled pages on disk, with url dedup and edge-list export.

A store is a directory: ``meta.jsonl`` holds one json record per page
in id order and ``raw/<id>`` keeps the exact fetched bytes, which are
the page's only copy; a record's ``content`` is decoded from them on
read. Ids are dense from 1, so the next id is the record count plus one.
A url identifies a page only after canonicalization, so
"http://A.com:80/x#top" and "http://a.com/x" are the same page.

A store is its longest prefix of whole records: reopening keeps each
record while its line ends in a newline and its raw file is there, and
not empty unless the body it hashed was. From the first record that
fails, the rest of ``meta.jsonl`` and every raw file of a higher id are
removed, so a put cut short, or a raw file lost or emptied, costs that
record and the ones after it, and their ids are handed out again. A
``content`` key in a record and a ``NEXT_ID`` file, which older versions
wrote, are ignored. A whole line that is not the next record, with each
field of its json type, raises ValueError naming the line; nothing changes.
"""

from __future__ import annotations

import ipaddress
import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence
from urllib.parse import urlsplit, urlunsplit

from .graph_io import EdgeList
from .hashing import fnv1a_64, fnv1a_64_many

_DEFAULT_PORTS = {"http": 80, "https": 443}
# C0 controls and DEL. urlsplit deletes tab, CR and LF anywhere and strips
# the others from the front, so a url holding one would pass as another.
URL_CONTROL_CHARS = frozenset(map(chr, [*range(0x20), 0x7F]))
# An authority whose only brackets enclose the host: [userinfo@][literal][:port]
_IP_LITERAL = re.compile(r"(?:[^\[\]]*@)?\[([^\[\]@]*)\](?::[^\[\]@]*)?")
_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")
# The content hash of an empty body, the one body an empty raw file holds whole.
_EMPTY_BODY_HASH = fnv1a_64(b"")


def canonical_url(url: str) -> str:
    """Canonical form of an absolute http(s) url; the crawl's only url rule.

    A url passes when it is http or https, names a host without
    whitespace, and has no port or a port in 0-65535; brackets may only
    enclose an IPv6 host, as urlsplit reads others differently across
    Python releases. It must fit on one seed line as it is: no control
    character anywhere (urlsplit would silently delete or strip some) and
    no whitespace at either end (split_input strips it). Anything else
    raises ValueError with the reason. The canonical form lowercases the
    host's ASCII letters (str.lower would follow the interpreter's Unicode
    tables) but not an IPv6 zone id, drops credentials, a default port and
    the fragment, and keeps path and query. It must pass the rule and be
    its own canonical form.
    """
    canon = _canonical_form(url)
    try:
        if canon == url or _canonical_form(canon) == canon:
            return canon
    except ValueError:
        pass
    raise ValueError(f"url's canonical form {canon!r} is not canonical: {url!r}")


def _canonical_form(url: str) -> str:
    if not isinstance(url, str):
        raise ValueError(f"url is not a str: {url!r}")
    if not URL_CONTROL_CHARS.isdisjoint(url):
        raise ValueError(f"url holds a control character: {url!r}")
    if url != url.strip():
        raise ValueError(f"url has whitespace at an end: {url!r}")
    parts = urlsplit(url)  # raises ValueError on a malformed IPv6 literal
    if parts.scheme not in _DEFAULT_PORTS:
        raise ValueError(f"not an http(s) url: {url!r}")
    if "[" in parts.netloc or "]" in parts.netloc:
        literal = _IP_LITERAL.fullmatch(parts.netloc)
        try:
            ipaddress.IPv6Address(literal[1] if literal else "")
        except ValueError:
            raise ValueError(f"url brackets must enclose an IPv6 host alone: {url!r}") from None
    host = parts.netloc.rpartition("@")[2]
    # the host as written; an IPv6 literal keeps its brackets
    host = host[: host.index("]") + 1] if host[:1] == "[" else host.partition(":")[0]
    if not host:
        raise ValueError(f"url has no host: {url!r}")
    if any(map(str.isspace, host)):
        raise ValueError(f"url host holds whitespace: {url!r}")
    port = parts.port  # raises ValueError on a malformed or out-of-range port
    address, percent, zone = host.partition("%")
    address = address.lower() if address.isascii() else address.translate(_ASCII_LOWER)
    host = address + percent + zone
    netloc = host if port is None or port == _DEFAULT_PORTS[parts.scheme] else f"{host}:{port}"
    return urlunsplit((parts.scheme, netloc, parts.path, parts.query, ""))


# The fields a meta.jsonl line holds, all but content, which is raw/<id>,
# with the json type of each; out_links is a list of strings.
_FIELDS = {
    "id": int,
    "url": str,
    "title": str,
    "keywords": str,
    "media": str,
    "comment_count": int,
    "content_hash": int,
    "out_links": list,
}


@dataclass
class PageRecord:
    """Everything the store keeps about one page. Each ``_FIELDS`` entry must
    have its json type, out_links a list of str, and each str must be one
    UTF-8 can encode (no lone surrogate), else ValueError names the field;
    a store builds every record it writes or reopens through this."""

    id: int
    url: str
    title: str
    keywords: str
    media: str
    comment_count: int
    content_hash: int
    out_links: list[str]
    content: str = ""

    def __post_init__(self):
        for name, kind in _FIELDS.items():
            value = getattr(self, name)
            # type(), not isinstance(): json's true and false load as bools, which are ints
            if type(value) is not kind or kind is list and any(type(v) is not str for v in value):
                expected = "a list of str" if kind is list else kind.__name__
                raise ValueError(f"field {name} is not {expected}")
            texts = (value,) if kind is str else value if kind is list else ()
            if not all(map(str.isascii, texts)):
                try:
                    for text in texts:
                        text.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"field {name} holds text UTF-8 cannot encode") from None


class FetchedPage(NamedTuple):
    """A page to store: what ``PageStore.put`` takes, as one value."""

    url: str
    body: bytes
    title: str = ""
    keywords: str = ""
    media: str = ""
    comment_count: int = 0
    out_links: Sequence[str] = ()


def decode_page(body: bytes) -> str:
    """Text of a fetched page: utf-8, else gb18030, else utf-8 with U+FFFD.

    The one decode policy for a page's fields, links and record content.
    """
    for codec in ("utf-8", "gb18030"):
        try:
            return body.decode(codec)
        except UnicodeDecodeError:
            continue
    return body.decode("utf-8", errors="replace")


def _record_to_json(record: PageRecord) -> str:
    payload = {name: getattr(record, name) for name in _FIELDS}
    return json.dumps(payload, ensure_ascii=False)


def _record_from_json(line: bytes) -> PageRecord:
    raw = json.loads(line)
    if not isinstance(raw, dict) or not raw.keys() >= _FIELDS.keys():
        raise ValueError(f"not an object holding the fields {', '.join(_FIELDS)}")
    return PageRecord(**{name: raw[name] for name in _FIELDS})


class PageStore:
    """Directory-backed store of crawled pages.

    All mutation happens under one lock; the crawl stores each bucket's
    pages with one put_many call. In memory the store keeps only what the
    crawl and the graph export read: the url -> id index and, at position
    ``id - 1``, each page's out links and the byte offset of its
    ``meta.jsonl`` line. ``get`` and ``records`` parse records back from
    that line and decode content from ``raw/<id>``. Reopening a directory
    keeps its longest prefix of whole records, as the module describes,
    and writes nothing when that prefix is the whole store.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / "raw").mkdir(exist_ok=True)
        self._meta_path = self.directory / "meta.jsonl"
        self._lock = threading.Lock()
        self._offsets: list[int] = []
        self._out_links: list[list[str]] = []
        self._id_by_url: dict[str, int] = {}
        if self._meta_path.exists():
            self._load()

    def _load(self) -> None:
        raw = self.directory / "raw"
        with os.scandir(raw) as entries:
            sizes = {entry.name: entry.stat().st_size for entry in entries}
        offset = 0
        # Line by line, so the file is never held whole. Records end only at
        # b"\n": json.dumps leaves U+2028 and U+0085 raw in strings.
        with self._meta_path.open("rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break
                page_id = len(self._offsets) + 1
                try:
                    record = _record_from_json(line)
                    if record.id != page_id:
                        raise ValueError(f"holds record {record.id} where {page_id} belongs")
                except ValueError as exc:
                    raise ValueError(f"meta.jsonl line {page_id}: {exc}") from None
                size = sizes.get(str(page_id))
                if size is None or (not size and record.content_hash != _EMPTY_BODY_HASH):
                    break
                self._index(record, offset)
                offset += len(line)
            end = handle.seek(0, os.SEEK_END)
        if offset < end:
            os.truncate(self._meta_path, offset)
        for name in sizes:
            if name.isdecimal() and int(name) > len(self._offsets):
                (raw / name).unlink()

    def _index(self, record: PageRecord, offset: int) -> None:
        self._offsets.append(offset)
        self._out_links.append(record.out_links)
        self._id_by_url[record.url] = record.id

    def put(self, url: str, body: bytes, **fields) -> tuple[int, bool]:
        """Store one page: ``put_many`` of ``FetchedPage(url, body, **fields)``."""
        return self.put_many([FetchedPage(url, body, **fields)])[0]

    def put_many(self, pages: Sequence[FetchedPage]) -> list[tuple[int, bool]]:
        """Store each page unless its canonical url is already present.

        Returns (page_id, inserted) per page; ids go out in input order. A
        url already stored, or earlier in the batch, gets the existing id
        with inserted False and changes nothing, so re-crawling over the
        same store is idempotent. A url canonical_url rejects, or a new
        page whose body is not bytes or whose PageRecord refuses a field,
        raises ValueError naming the page before anything is written; a
        tuple of out_links is stored as a list. The new bodies are hashed
        together, then ``meta.jsonl`` is opened once: each new page, in id
        order, gets its raw bytes and then its line. A call that stores
        nothing new touches no file.
        """
        canons = [canonical_url(page.url) for page in pages]
        with self._lock:
            results: list[tuple[int, bool]] = []
            new_ids: dict[str, int] = {}
            new_pages: list[tuple[PageRecord, bytes]] = []
            for canon, page in zip(canons, pages):
                page_id = self._id_by_url.get(canon) or new_ids.get(canon)
                if page_id is not None:
                    results.append((page_id, False))
                    continue
                if not isinstance(page.body, (bytes, bytearray)):
                    raise ValueError(f"page {page.url}: field body is not bytes")
                page_id = new_ids[canon] = len(self._offsets) + len(new_pages) + 1
                links = page.out_links
                links = list(links) if type(links) in (list, tuple) else links
                try:
                    record = PageRecord(
                        page_id, canon, page.title, page.keywords, page.media,
                        page.comment_count, 0, links,  # hashed below with the batch
                    )
                except ValueError as exc:
                    raise ValueError(f"page {page.url}: {exc}") from None
                new_pages.append((record, page.body))
                results.append((page_id, True))
            if not new_pages:
                return results
            hashes = fnv1a_64_many([body for _record, body in new_pages])
            with self._meta_path.open("ab") as handle:
                offset = handle.tell()
                for (record, body), content_hash in zip(new_pages, hashes):
                    record.content_hash = content_hash
                    line = (_record_to_json(record) + "\n").encode("utf-8")
                    (self.directory / "raw" / str(record.id)).write_bytes(body)
                    handle.write(line)
                    self._index(record, offset)
                    offset += len(line)
            return results

    def __len__(self) -> int:
        return len(self._offsets)

    def __contains__(self, url: str) -> bool:
        return self.id_of(url) is not None

    def get(self, page_id: int) -> PageRecord | None:
        """The stored record, content decoded from ``raw/<id>``; None for an unknown id."""
        with self._lock:
            if not 1 <= page_id <= len(self._offsets):
                return None
            return self._read([self._offsets[page_id - 1]])[0]

    def id_of(self, url: str) -> int | None:
        try:
            canon = canonical_url(url)
        except ValueError:
            return None
        return self._id_by_url.get(canon)

    def out_links(self, url: str) -> list[str] | None:
        """The stored page's out links, read from memory: the store's own
        list, not to be changed. None for a url not stored."""
        page_id = self.id_of(url)
        return None if page_id is None else self._out_links[page_id - 1]

    def records(self) -> list[PageRecord]:
        """All records in id order, read back as ``get`` reads them."""
        with self._lock:
            return self._read(self._offsets)

    def _read(self, offsets: list[int]) -> list[PageRecord]:
        if not offsets:
            return []
        with self._meta_path.open("rb") as handle:
            records = []
            for offset in offsets:
                handle.seek(offset)
                record = _record_from_json(handle.readline())
                record.content = decode_page(self.raw_body(record.id))
                records.append(record)
            return records

    def raw_body(self, page_id: int) -> bytes:
        return (self.directory / "raw" / str(page_id)).read_bytes()

    def export_edge_list(self) -> EdgeList:
        """Link graph between stored pages.

        Every stored id is a vertex. An out-link becomes an edge only if
        its canonical target is stored too; links to unfetched pages
        vanish rather than create dangling ids. Self-links survive,
        duplicates collapse.
        """
        vertex_ids = set(range(1, len(self._offsets) + 1))
        edges: set[tuple[int, int]] = set()
        # Pages share most of their links; resolve each distinct string once.
        resolved: dict[str, int | None] = {}
        for page_id, out_links in enumerate(self._out_links, 1):
            for link in out_links:
                if link not in resolved:
                    resolved[link] = self.id_of(link)
                target_id = resolved[link]
                if target_id is not None:
                    edges.add((page_id, target_id))
        return EdgeList(vertex_ids, sorted(edges))
