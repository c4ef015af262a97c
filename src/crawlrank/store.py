"""Crawled pages on disk, with url dedup and edge-list export.

A store is a directory: ``meta.jsonl`` holds one json record per page
in insertion order, ``raw/<id>`` keeps the exact fetched bytes, and
``NEXT_ID`` records the next id to hand out as a recovery aid. Ids are
dense and start at 1. A url identifies a page only after
canonicalization, so "http://A.com:80/x#top" and "http://a.com/x" are
the same page.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit, urlunsplit

from .graph_io import EdgeList
from .hashing import fnv1a_64

_DEFAULT_PORTS = {"http": 80, "https": 443}
_URL_DELETED_CHARS = frozenset("\t\r\n")


def canonical_url(url: str) -> str:
    """Canonical form of an absolute http(s) url; the crawl's only url rule.

    A url passes when it is http or https, names a host, and has no port
    or a port in 0-65535. It must also fit on one seed line as it is: no
    tab, CR or LF anywhere (urlsplit would silently delete them) and no
    whitespace at either end (split_input strips it). Anything else raises
    ValueError with the reason. The canonical form lowercases the host,
    drops credentials, a default port and the fragment; path and query
    stay untouched.
    """
    if not _URL_DELETED_CHARS.isdisjoint(url):
        raise ValueError(f"url holds a tab or line break: {url!r}")
    if url != url.strip():
        raise ValueError(f"url has whitespace at an end: {url!r}")
    parts = urlsplit(url)  # raises ValueError on a malformed IPv6 literal
    if parts.scheme not in _DEFAULT_PORTS:
        raise ValueError(f"not an http(s) url: {url!r}")
    host = parts.hostname
    if not host:
        raise ValueError(f"url has no host: {url!r}")
    port = parts.port  # raises ValueError on a malformed or out-of-range port
    if ":" in host:  # an IPv6 literal keeps its brackets
        host = f"[{host}]"
    netloc = host if port is None or port == _DEFAULT_PORTS[parts.scheme] else f"{host}:{port}"
    return urlunsplit((parts.scheme, netloc, parts.path, parts.query, ""))


@dataclass
class PageRecord:
    """Everything the store keeps about one page."""

    id: int
    url: str
    title: str = ""
    keywords: str = ""
    media: str = ""
    comment_count: int = 0
    content: str = ""
    content_hash: int = 0
    out_links: list[str] = field(default_factory=list)


_FIELD_ORDER = (
    "id",
    "url",
    "title",
    "keywords",
    "media",
    "comment_count",
    "content",
    "content_hash",
    "out_links",
)


def decode_page(body: bytes) -> str:
    """Text of a fetched page: utf-8, else gb18030, else utf-8 with U+FFFD.

    The one decode policy for a page's fields, links and stored content.
    """
    for codec in ("utf-8", "gb18030"):
        try:
            return body.decode(codec)
        except UnicodeDecodeError:
            continue
    return body.decode("utf-8", errors="replace")


def _record_to_json(record: PageRecord) -> str:
    payload = {name: getattr(record, name) for name in _FIELD_ORDER}
    return json.dumps(payload, ensure_ascii=False)


class PageStore:
    """Directory-backed store of crawled pages.

    Safe for concurrent put calls from fetch lanes; all mutation happens
    under one lock. Reopening a directory restores every record and
    continues the id sequence.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / "raw").mkdir(exist_ok=True)
        self._meta_path = self.directory / "meta.jsonl"
        self._next_id_path = self.directory / "NEXT_ID"
        self._lock = threading.Lock()
        self._records: dict[int, PageRecord] = {}
        self._id_by_url: dict[str, int] = {}
        self._next_id = 1
        if self._meta_path.exists():
            self._load()

    def _load(self) -> None:
        # Line by line, so the file's text is never held whole. Records end
        # only at "\n": json.dumps leaves U+2028 and U+0085 raw in strings.
        with self._meta_path.open(encoding="utf-8") as handle:
            for line in handle:
                if line == "\n":
                    continue
                raw = json.loads(line)
                record = PageRecord(**{name: raw[name] for name in _FIELD_ORDER})
                self._records[record.id] = record
                self._id_by_url[record.url] = record.id
        if self._records:
            self._next_id = max(self._records) + 1
        if self._next_id_path.exists():
            recorded = int(self._next_id_path.read_text(encoding="ascii").strip())
            self._next_id = max(self._next_id, recorded)

    def put(
        self,
        url: str,
        body: bytes,
        *,
        title: str = "",
        keywords: str = "",
        media: str = "",
        comment_count: int = 0,
        out_links=(),
    ) -> tuple[int, bool]:
        """Store a page unless its canonical url is already present.

        Returns (page_id, inserted). A duplicate url returns the existing
        id with inserted False and changes nothing, so re-crawling over
        the same store is idempotent. An uncanonicalizable url raises
        ValueError before anything is written.
        """
        canon = canonical_url(url)
        with self._lock:
            existing = self._id_by_url.get(canon)
            if existing is not None:
                return existing, False
            page_id = self._next_id
            record = PageRecord(
                id=page_id,
                url=canon,
                title=title,
                keywords=keywords,
                media=media,
                comment_count=int(comment_count),
                content=decode_page(body),
                content_hash=fnv1a_64(body),
                out_links=list(out_links),
            )
            (self.directory / "raw" / str(page_id)).write_bytes(body)
            with self._meta_path.open("a", encoding="utf-8") as handle:
                handle.write(_record_to_json(record) + "\n")
            self._next_id_path.write_text(str(page_id + 1), encoding="ascii")
            self._records[page_id] = record
            self._id_by_url[canon] = page_id
            self._next_id = page_id + 1
            return page_id, True

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, url: str) -> bool:
        return self.id_of(url) is not None

    def get(self, page_id: int) -> PageRecord | None:
        return self._records.get(page_id)

    def id_of(self, url: str) -> int | None:
        try:
            canon = canonical_url(url)
        except ValueError:
            return None
        return self._id_by_url.get(canon)

    def records(self) -> list[PageRecord]:
        """All records in id order."""
        return [self._records[page_id] for page_id in sorted(self._records)]

    def raw_body(self, page_id: int) -> bytes:
        return (self.directory / "raw" / str(page_id)).read_bytes()

    def export_edge_list(self) -> EdgeList:
        """Link graph between stored pages.

        Every stored id is a vertex. An out-link becomes an edge only if
        its canonical target is stored too; links to unfetched pages
        vanish rather than create dangling ids. Self-links survive,
        duplicates collapse.
        """
        vertex_ids = set(self._records)
        edges: set[tuple[int, int]] = set()
        for record in self._records.values():
            for link in record.out_links:
                try:
                    target = canonical_url(link)
                except ValueError:
                    continue
                target_id = self._id_by_url.get(target)
                if target_id is not None:
                    edges.add((record.id, target_id))
        return EdgeList(vertex_ids, sorted(edges))
