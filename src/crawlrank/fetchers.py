"""Fetchers the crawl stages call to retrieve page bodies.

A fetcher is anything with ``fetch(url) -> FetchResult``. The mock
fetcher serves a fixed corpus, from a dict or read from a corpus
directory or manifest file by file as each url is fetched, and is what
tests and offline runs use; the HTTP fetcher does real network requests
with a minimal robots.txt check and a bound on body size. Fetch failures
are values, not exceptions: a bad url must never take down the stage
that asked for it.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Protocol
from urllib.parse import quote, unquote, urljoin, urlsplit

from .store import canonical_url

if TYPE_CHECKING:
    from urllib.robotparser import RobotFileParser

# Largest body HttpFetcher accepts; a longer one is a failed fetch.
MAX_BODY_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class FetchResult:
    """Outcome of one fetch: a success exactly when the body is non-empty,
    else ``reason`` says what failed.

    ``final_url`` is where the body came from after any redirects, and
    defaults to the requested ``url``.
    """

    url: str
    body: bytes = b""
    reason: str = ""
    final_url: str = ""

    def __post_init__(self):
        if not self.final_url:
            object.__setattr__(self, "final_url", self.url)

    @property
    def ok(self) -> bool:
        return bool(self.body)

    @classmethod
    def success(cls, url: str, body: bytes, final_url: str = "") -> "FetchResult":
        if not body:
            # An empty body carries nothing to store or parse, so it is
            # reported as a failure rather than a hollow success.
            return cls.failure(url, "empty body")
        return cls(url, body, final_url=final_url)

    @classmethod
    def failure(cls, url: str, reason: str) -> "FetchResult":
        return cls(url, reason=reason)


class Fetcher(Protocol):
    """Anything with ``fetch(url) -> FetchResult``.

    A fetcher whose fetch never blocks on a wait worth overlapping, such
    as a read from memory or a local disk, may set ``waits = False``; the
    crawl then runs its fetches in the calling thread. A fetcher without
    the attribute is taken to wait, and gets fetch lanes.
    """

    def fetch(self, url: str) -> FetchResult: ...


class MockFetcher:
    """Serves a fixed url -> body corpus: the mapping it is given, not a copy.

    The same url always yields the same body, which keeps whole crawl
    runs reproducible. Every fetch call is appended to ``request_log``
    as ``(url, monotonic_time)`` so tests can check pacing. A fetch is a
    dict lookup or a local file read that never waits, hence ``waits``.
    """

    waits = False

    def __init__(self, corpus: Mapping[str, bytes]):
        self.corpus = corpus
        self.request_log: list[tuple[str, float]] = []

    def fetch(self, url: str) -> FetchResult:
        self.request_log.append((url, time.monotonic()))
        body = self.corpus.get(url)
        if body is None:
            return FetchResult.failure(url, "not in corpus")
        return FetchResult.success(url, body)

    @classmethod
    def from_path(cls, path) -> "MockFetcher":
        """Serve a corpus directory of files named quote(url, safe=''), or a
        json manifest mapping each url to a body file relative to it.

        Each body is read when its url is fetched. Raises ValueError for a
        manifest that is not a json object of str to str, and
        FileNotFoundError when a file it lists is missing.
        """
        path = os.fspath(path)
        if os.path.isdir(path):
            with os.scandir(path) as entries:
                files = {unquote(entry.name): entry.path for entry in entries if entry.is_file()}
        else:
            with open(path, encoding="utf-8") as manifest:
                mapping = json.load(manifest)
            if type(mapping) is not dict or any(type(rel) is not str for rel in mapping.values()):
                raise ValueError(f"corpus manifest {path} is not a json object of url to file")
            folder = os.path.dirname(path)
            files = {url: os.path.join(folder, rel) for url, rel in mapping.items()}
            for file in files.values():
                if not os.path.isfile(file):
                    raise FileNotFoundError(f"corpus file not found: {file}")
        return cls(_CorpusFiles(files))

    @staticmethod
    def corpus_filename(url: str) -> str:
        """File name a corpus directory uses for a url."""
        return quote(url, safe="")


class _CorpusFiles(Mapping[str, bytes]):
    """url -> body, each body read from its file when it is looked up."""

    def __init__(self, files: dict[str, str]):
        self._files = files

    def __getitem__(self, url: str) -> bytes:
        with open(self._files[url], "rb") as file:
            return file.read()

    def __iter__(self) -> Iterator[str]:
        return iter(self._files)

    def __len__(self) -> int:
        return len(self._files)


class HttpFetcher:
    """Real network fetcher with per-host robots.txt Disallow checks.

    Any transport problem, timeout, refused connection, HTTP error
    status, or a body longer than ``MAX_BODY_BYTES``, becomes a
    failed result for that url alone. Of a longer robots.txt only
    the whole lines within ``MAX_BODY_BYTES`` are read. ``timeout`` bounds
    each socket operation and the whole fetch, robots.txt read included:
    once it has passed no request opens and no read starts, so a fetch
    ends within about twice ``timeout``. DNS resolution is not bounded.
    A redirect hop is requested in its canonical form, and followed only
    where that host's robots.txt allows it; ``final_url`` is the url the
    body came from. A hop that ``canonical_url`` refuses, a ``file:`` one
    included, is never requested, and fails the fetch, or leaves a
    robots.txt unread (allow-all), as does any other robots.txt redirect
    that is not followed. The network modules (``urllib.request`` pulls in
    ``http.client``, ``ssl`` and ``email``) load on the first fetch, so
    commands that never fetch over HTTP do not pay for them.
    """

    user_agent = "crawlrank/0.1"

    def __init__(self, timeout: float = 10.0):
        if not 0 < timeout < math.inf:  # also false for nan
            raise ValueError("timeout must be finite and positive")
        self.timeout = timeout
        self._robots: dict[str, RobotFileParser] = {}

    def fetch(self, url: str) -> FetchResult:
        deadline = time.monotonic() + self.timeout
        try:
            if not self._allowed(url, deadline):
                raise _Disallowed
            body, final_url = self._get(url, deadline, lambda hop: self._allowed(hop, deadline))
            if len(body) > MAX_BODY_BYTES:
                return FetchResult.failure(url, f"body longer than {MAX_BODY_BYTES} bytes")
            return FetchResult.success(url, body, final_url)
        except _Disallowed:
            return FetchResult.failure(url, "disallowed by robots.txt")
        except Exception as exc:  # noqa: BLE001 - any transport failure is a per-url result
            return FetchResult.failure(url, f"{type(exc).__name__}: {exc}")

    def _get(self, url: str, deadline: float, may_follow=None) -> tuple[bytes, str]:
        """Up to ``MAX_BODY_BYTES + 1`` bytes of the body at url, and its final url.
        A redirect to a url that ``canonical_url`` refuses raises ValueError,
        and one to a url that ``may_follow`` refuses raises _Disallowed."""
        import urllib.request

        def refuse_unless_canonical(hop: str, fp) -> str:
            try:
                return canonical_url(hop)
            except ValueError as err:
                fp.close()
                raise ValueError(f"redirect refused by canonical_url: {err}") from None

        class Redirects(urllib.request.HTTPRedirectHandler):
            def http_error_302(self, req, fp, code, msg, headers):
                # The url rule reads the hop before urllib's own scheme check,
                # which refuses a file: hop with an HTTPError of the 3xx status.
                hop = headers.get("location", headers.get("uri"))
                if hop is not None:
                    refuse_unless_canonical(urljoin(req.full_url, hop), fp)
                return super().http_error_302(req, fp, code, msg, headers)

            http_error_301 = http_error_303 = http_error_307 = http_error_308 = http_error_302

            def redirect_request(self, req, fp, code, msg, headers, newurl):
                # the hop is checked and requested in its canonical form
                newurl = refuse_unless_canonical(newurl, fp)
                if may_follow is not None and not may_follow(newurl):
                    fp.close()
                    raise _Disallowed
                return super().redirect_request(req, fp, code, msg, headers, newurl)

        request = urllib.request.Request(url, headers={"User-Agent": self.user_agent})
        opener = urllib.request.build_opener(Redirects)
        with opener.open(request, timeout=self._seconds_left(deadline)) as response:
            body = bytearray()
            while len(body) <= MAX_BODY_BYTES:
                self._seconds_left(deadline)
                chunk = response.read1(MAX_BODY_BYTES + 1 - len(body))
                if not chunk:
                    break
                body += chunk
            return bytes(body), response.geturl()

    def _seconds_left(self, deadline: float) -> float:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"fetch passed its {self.timeout} s deadline")
        return left

    def _allowed(self, url: str, deadline: float) -> bool:
        import urllib.error
        import urllib.robotparser

        parts = urlsplit(url)
        origin = f"{parts.scheme}://{parts.netloc}"
        parser = self._robots.get(origin)
        if parser is None:
            parser = urllib.robotparser.RobotFileParser(f"{origin}/robots.txt")
            # RobotFileParser.read() opens the url with no timeout; this is
            # read() within the fetch's deadline and with the same status policy.
            try:
                data, _final_url = self._get(parser.url, deadline)
                if len(data) > MAX_BODY_BYTES:
                    # Parse the whole lines before the cap only: a line it
                    # cuts could read as a shorter, broader rule.
                    data = data[:MAX_BODY_BYTES]
                    data = data[: max(data.rfind(b"\n"), data.rfind(b"\r")) + 1]
                # A byte that is not UTF-8 spoils its own line only; every rule
                # that still parses applies (RFC 9309 section 2.2).
                parser.parse(data.decode("utf-8", errors="replace").splitlines())
            except urllib.error.HTTPError as err:
                err.close()
                if err.code in (401, 403):
                    parser.disallow_all = True
                elif 300 <= err.code < 500:  # a redirect not followed leaves it unread
                    parser.allow_all = True
            except Exception:  # noqa: BLE001 - unreadable robots means no policy
                parser.allow_all = True
            self._robots[origin] = parser
        return parser.can_fetch(self.user_agent, url)


class _Disallowed(Exception):
    """robots.txt forbids the url, or a redirect hop, that a fetch asked for."""
