import ast
import http.server
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import pytest

import crawlrank
from crawlrank import (
    FetchResult,
    HttpFetcher,
    MockFetcher,
    PageStore,
    PipelineConfig,
    fetchers,
    run_pipeline,
)
from helpers import store_files


class QuietHandler(http.server.BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def answered_robots(self) -> bool:
        """Answer a robots.txt request with 404, which allows every path."""
        if self.path != "/robots.txt":
            return False
        self.send_error(404)
        return True


@contextmanager
def loopback_server(handler):
    """Serves ``handler`` on a loopback port; yields the base url."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    # shutdown() waits out one poll interval, 0.5 s by default
    serving = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    serving.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        serving.join(timeout=5)
    assert not serving.is_alive()


def test_fetch_result_body_nonempty_iff_success():
    ok = FetchResult.success("http://a.test/", b"body")
    assert ok.ok and ok.body == b"body" and ok.reason == ""

    empty = FetchResult.success("http://a.test/", b"")
    assert not empty.ok and empty.body == b""
    assert empty.reason == "empty body"

    failed = FetchResult.failure("http://a.test/", "nope")
    assert not failed.ok and failed.body == b"" and failed.reason == "nope"
    # success is the body, whatever else the result carries
    assert FetchResult("http://a.test/", b"x", "stale reason").ok
    assert not FetchResult("http://a.test/").ok

    assert ok.final_url == failed.final_url == "http://a.test/"
    moved = FetchResult.success("http://a.test/", b"body", "http://a.test/new")
    assert moved.url == "http://a.test/" and moved.final_url == "http://a.test/new"


def test_mock_fetcher_serves_and_logs():
    corpus = {"http://a.test/": b"hello"}
    fetcher = MockFetcher(corpus)
    assert fetcher.corpus is corpus
    assert fetcher.fetch("http://a.test/").body == b"hello"
    assert not fetcher.fetch("http://b.test/").ok
    assert [url for url, _t in fetcher.request_log] == ["http://a.test/", "http://b.test/"]


def test_mock_fetcher_is_stable_across_calls():
    fetcher = MockFetcher({"http://a.test/": b"same"})
    assert fetcher.fetch("http://a.test/").body == fetcher.fetch("http://a.test/").body


def test_mock_fetcher_from_dir(tmp_path, write_corpus):
    corpus = {"http://a.test/x?q=1": b"one", "http://b.test/": b"two"}
    directory = write_corpus(corpus)
    fetcher = MockFetcher.from_path(directory)
    for url, body in corpus.items():
        assert fetcher.fetch(url).body == body
    assert fetcher.fetch("http://c.test/").reason == "not in corpus"
    # a body is read when its url is fetched, not when the corpus loads
    (directory / MockFetcher.corpus_filename("http://b.test/")).write_bytes(b"later")
    assert fetcher.fetch("http://b.test/").body == b"later"


def test_mock_fetcher_from_manifest(tmp_path):
    (tmp_path / "page1.html").write_bytes(b"<p>1</p>")
    (tmp_path / "page2.html").write_bytes(b"<p>2</p>")
    manifest = tmp_path / "corpus.json"
    manifest.write_text(
        json.dumps({"http://a.test/1": "page1.html", "http://a.test/2": "page2.html"})
    )
    fetcher = MockFetcher.from_path(manifest)
    assert fetcher.fetch("http://a.test/1").body == b"<p>1</p>"
    assert fetcher.fetch("http://a.test/2").body == b"<p>2</p>"
    assert not fetcher.fetch("http://a.test/3").ok
    # a listed file that is missing fails the load, not the fetch
    manifest.write_text(json.dumps({"http://a.test/1": "page1.html", "http://a.test/3": "page3.html"}))
    with pytest.raises(FileNotFoundError, match="page3.html"):
        MockFetcher.from_path(manifest)
    # so does a manifest that is not a json object of url to file name
    for text in ("[]", '"page1.html"', '{"http://a.test/1": 5}', '{"http://a.test/1": null}'):
        manifest.write_text(text)
        with pytest.raises(ValueError, match="is not a json object of url to file"):
            MockFetcher.from_path(manifest)


def test_http_fetcher_validation_and_offline_failure():
    # a nan or infinite timeout would fail every fetch in socket.settimeout
    for timeout in (0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="timeout"):
            HttpFetcher(timeout=timeout)
    fetcher = HttpFetcher(timeout=0.2)
    # unresolvable host: must come back as a result, not an exception
    result = fetcher.fetch("http://no-such-host.invalid/")
    assert not result.ok
    assert result.reason


def test_http_fetcher_robots_read_obeys_the_timeout():
    # a loopback listener that completes the handshake and never answers
    listener = socket.create_server(("127.0.0.1", 0))
    url = f"http://127.0.0.1:{listener.getsockname()[1]}/page"
    results = []
    worker = threading.Thread(
        target=lambda: results.append(HttpFetcher(timeout=0.3).fetch(url)), daemon=True
    )
    try:
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive(), "robots.txt read hung past the fetch timeout"
    finally:
        listener.close()
    (result,) = results
    assert not result.ok


def test_http_fetcher_deadline_bounds_a_dripping_body():
    # each read returns one byte within the socket timeout, so only the
    # fetch's own deadline can end it
    body = b"twelve bytes"

    class Handler(QuietHandler):
        def do_GET(self):
            if self.answered_robots():
                return
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            try:
                for byte in body:
                    self.wfile.write(bytes([byte]))
                    self.wfile.flush()
                    time.sleep(0.4)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the fetcher gave up on its deadline and closed the socket

    with loopback_server(Handler) as base:
        started = time.monotonic()
        result = HttpFetcher(timeout=1.0).fetch(base + "/drip")
        elapsed = time.monotonic() - started
    assert not result.ok
    assert result.reason == "TimeoutError: fetch passed its 1.0 s deadline"
    assert elapsed < 3.0


def test_http_fetcher_bounds_the_body(monkeypatch):
    monkeypatch.setattr(fetchers, "MAX_BODY_BYTES", 1000)
    bodies = {"/at-cap": b"a" * 1000, "/over-cap": b"b" * 1001, "/unsized": b"c" * 5000}

    class Handler(QuietHandler):
        def do_GET(self):
            if self.answered_robots():
                return
            body = bodies[self.path]
            self.send_response(200)
            if self.path != "/unsized":  # without a length the body ends at close
                self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    with loopback_server(Handler) as base:
        fetcher = HttpFetcher(timeout=5)
        results = {path: fetcher.fetch(base + path) for path in bodies}
    assert results["/at-cap"].ok and results["/at-cap"].body == bodies["/at-cap"]
    for path in ("/over-cap", "/unsized"):
        assert not results[path].ok
        assert results[path].reason == "body longer than 1000 bytes"


def test_http_fetcher_bounds_the_robots_read(monkeypatch):
    monkeypatch.setattr(fetchers, "MAX_BODY_BYTES", 1000)
    head = "User-agent: *\nDisallow: /private\n"
    # the cap falls inside the last rule, after "Disallow: /pa"
    padding = "#" * (1000 - len(head) - len("Disallow: /pa") - 1) + "\n"
    robots = f"{head}{padding}Disallow: /page-archive\nDisallow: /\n".encode()
    assert robots[:1000].endswith(b"\nDisallow: /pa")
    requested = []

    class Handler(QuietHandler):
        def do_GET(self):
            requested.append(self.path)
            body = robots if self.path == "/robots.txt" else b"page"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    with loopback_server(Handler) as base:
        fetcher = HttpFetcher(timeout=5)
        private, page = fetcher.fetch(base + "/private"), fetcher.fetch(base + "/page")
    # a whole line before the cap still holds; "Disallow: /" past the cap
    # and the rule the cap cuts, which would read as "Disallow: /pa", do not
    assert private.reason == "disallowed by robots.txt"
    assert page.ok and page.body == b"page"
    assert requested == ["/robots.txt", "/page"]


def test_robots_rules_hold_around_a_byte_that_is_not_utf8():
    # RFC 9309 section 2.2: a line that does not parse spoils only itself
    robots = "User-agent: *\n# café\nDisallow: /private\n".encode("latin-1")

    class Handler(QuietHandler):
        def do_GET(self):
            body = robots if self.path == "/robots.txt" else b"page"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    with loopback_server(Handler) as base:
        fetcher = HttpFetcher(timeout=5)
        private, page = fetcher.fetch(base + "/private"), fetcher.fetch(base + "/page")
    assert private.reason == "disallowed by robots.txt"
    assert page.ok and page.body == b"page"


def test_an_unreadable_robots_txt_allows_every_page_and_is_read_once():
    requested = []

    class Handler(QuietHandler):
        def do_GET(self):
            requested.append(self.path)
            if self.path == "/robots.txt":
                return  # closes the connection without a response
            self.send_response(200)
            self.send_header("Content-Length", "4")
            self.end_headers()
            self.wfile.write(b"page")

    with loopback_server(Handler) as base:
        fetcher = HttpFetcher(timeout=5)
        results = [fetcher.fetch(base + path) for path in ("/a", "/b")]
    assert [(result.ok, result.body) for result in results] == [(True, b"page")] * 2
    assert requested == ["/robots.txt", "/a", "/b"]


def redirecting_server(redirects, robots_for_host):
    """A handler that answers each path of ``redirects`` with a 302 to its
    Location, serves ``robots_for_host(host)`` as robots.txt (None: 404)
    and a page at every other path. It logs each request as (host, path)."""

    class Handler(QuietHandler):
        requested: list[tuple[str, str]] = []

        def do_GET(self):
            host = self.headers["Host"].rpartition(":")[0]
            self.requested.append((host, self.path))
            robots = robots_for_host(host)
            if self.path == "/robots.txt" and robots is None:
                self.send_error(404)
                return
            if self.path in redirects:
                self.send_response(302)
                self.send_header("Location", redirects[self.path])
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            body = robots.encode() if self.path == "/robots.txt" else b"page"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    return Handler


DISALLOW_PRIVATE = "User-agent: *\nDisallow: /private\n"


def test_a_redirect_to_a_disallowed_page_is_not_followed():
    handler = redirecting_server({"/old": "/private"}, lambda host: DISALLOW_PRIVATE)
    with loopback_server(handler) as base:
        result = HttpFetcher(timeout=5).fetch(f"{base}/old")
    assert not result.ok and result.reason == "disallowed by robots.txt"
    assert [path for _host, path in handler.requested] == ["/robots.txt", "/old"]


def test_a_redirect_that_canonical_url_refuses_is_not_followed(monkeypatch):
    opened = []

    def open_elsewhere(_handler, request):
        opened.append(request.full_url)
        raise urllib.error.URLError("no such server")

    monkeypatch.setattr(urllib.request.FTPHandler, "ftp_open", open_elsewhere)
    monkeypatch.setattr(urllib.request.FileHandler, "file_open", open_elsewhere)
    # urllib itself follows an ftp: hop but refuses a file: one
    for origin in ("ftp://127.0.0.1:1", "file://"):
        # a page hop fails the fetch, and the hop's robots.txt is never asked for
        handler = redirecting_server({"/old": f"{origin}/x"}, lambda host: "")
        with loopback_server(handler) as base:
            fetcher = HttpFetcher(timeout=5)
            result = fetcher.fetch(f"{base}/old")
        assert not result.ok
        assert result.reason.startswith("ValueError: redirect refused by canonical_url: not an http")
        assert [path for _host, path in handler.requested] == ["/robots.txt", "/old"]
        assert list(fetcher._robots) == [base]
        # a robots.txt hop leaves that robots.txt unread, which allows all
        handler = redirecting_server(
            {"/robots.txt": f"{origin}/robots.txt"}, lambda host: DISALLOW_PRIVATE
        )
        with loopback_server(handler) as base:
            fetcher = HttpFetcher(timeout=5)
            result = fetcher.fetch(f"{base}/private")
        assert result.ok and result.final_url == f"{base}/private"
        assert [path for _host, path in handler.requested] == ["/robots.txt", "/private"]
        assert list(fetcher._robots) == [base]
    assert opened == []


def test_a_redirect_to_another_host_reads_that_hosts_robots():
    # one server under two host names, and only "localhost" disallows /private
    redirects = {}
    handler = redirecting_server(
        redirects, lambda host: DISALLOW_PRIVATE if host == "localhost" else None
    )
    with loopback_server(handler) as base:
        other = base.replace("127.0.0.1", "localhost")
        redirects.update({"/away": f"{other}/private", "/home": "/private"})
        fetcher = HttpFetcher(timeout=5)
        away, home = fetcher.fetch(f"{base}/away"), fetcher.fetch(f"{base}/home")
    assert not away.ok and away.reason == "disallowed by robots.txt"
    assert home.ok and home.final_url == f"{base}/private"
    assert handler.requested == [
        ("127.0.0.1", "/robots.txt"),
        ("127.0.0.1", "/away"),
        ("localhost", "/robots.txt"),
        ("127.0.0.1", "/home"),
        ("127.0.0.1", "/private"),
    ]


def test_a_redirect_hop_is_requested_and_robots_checked_in_its_canonical_form(monkeypatch):
    resolved = []
    getaddrinfo = socket.getaddrinfo

    def resolve_localhost_only(host, *args, **kwargs):
        # as the system resolver does, in any case, but without a lookup elsewhere
        resolved.append(host)
        if host.lower() != "localhost":
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
        return getaddrinfo(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", resolve_localhost_only)
    for spelling in ("LOCALHOST", "user@localhost"):
        redirects = {}
        handler = redirecting_server(redirects, lambda host: None)
        with loopback_server(handler) as base:
            origin = base.replace("127.0.0.1", "localhost")
            redirects["/a"] = base.replace("127.0.0.1", spelling) + "/b"
            fetcher = HttpFetcher(timeout=5)
            result = fetcher.fetch(f"{origin}/a")
        assert result.ok and result.final_url == f"{origin}/b", spelling
        assert handler.requested == [
            ("localhost", "/robots.txt"),
            ("localhost", "/a"),
            ("localhost", "/b"),
        ]
        assert list(fetcher._robots) == [origin]
    assert set(resolved) == {"localhost"}


def test_redirected_page_links_resolve_against_the_final_url(tmp_path):
    class Handler(QuietHandler):
        def do_GET(self):
            if self.answered_robots():
                return
            if self.path == "/old":
                self.send_response(302)
                self.send_header("Location", "/dir/new")
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            body = b'<a href="z">z</a>'
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    with loopback_server(Handler) as base:
        fetcher = HttpFetcher(timeout=5)
        result = fetcher.fetch(f"{base}/old")
        store = PageStore(tmp_path / "store")
        run_pipeline(f"{base}/old\n".encode(), PipelineConfig(), fetcher, store)
    assert result.ok and result.url == f"{base}/old" and result.final_url == f"{base}/dir/new"
    # the page is stored under the url it came from, and its links are
    # read relative to that url
    (record,) = store.records()
    assert record.url == f"{base}/dir/new"
    assert record.out_links == [f"{base}/dir/z"]


def test_a_redirected_page_is_stored_once_under_its_final_url(tmp_path):
    requested = []

    class Handler(QuietHandler):
        def do_GET(self):
            requested.append(self.path)
            if self.answered_robots():
                return
            if self.path == "/old":
                self.send_response(302)
                self.send_header("Location", "/new")
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            body = b'<a href="new">itself</a>'
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    store_dir = tmp_path / "store"
    with loopback_server(Handler) as base:
        config = PipelineConfig(rounds=2)
        seed = f"{base}/old\n".encode()
        summary = run_pipeline(seed, config, HttpFetcher(timeout=5), PageStore(store_dir))
        (record,) = PageStore(store_dir).records()
        assert record.url == f"{base}/new" and record.out_links == [f"{base}/new"]
        # the link to /new names a page this run already fetched
        assert [stats.fetched for stats in summary.rounds] == [1, 0]
        assert requested == ["/robots.txt", "/old", "/new"]
        before = store_files(store_dir)
        # a re-crawl requests /old again and stores nothing new
        again = run_pipeline(seed, config, HttpFetcher(timeout=5), PageStore(store_dir))
    assert [stats.stored_new for stats in again.rounds] == [0, 0]
    assert store_files(store_dir) == before



def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this checkout."""
    src = str(Path(crawlrank.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _modules_loaded_by_importing_the_cli(names: set[str]) -> str:
    return _fresh_python(f"import sys, crawlrank.cli; print(sorted({names!r} & set(sys.modules)))")


def test_importing_the_cli_leaves_the_network_modules_unloaded():
    # urllib.request drags in http.client, ssl and email; only an HTTP
    # fetch needs them, so rank runs and mock crawls must not load them.
    assert _modules_loaded_by_importing_the_cli({"urllib.request", "http.client", "ssl"}) == "[]\n"


def test_importing_the_cli_leaves_html_parser_unloaded():
    # pages are read by pipeline's own tokenizer, not by html.parser
    assert _modules_loaded_by_importing_the_cli({"html.parser", "_markupbase"}) == "[]\n"


def test_the_package_imports_only_the_standard_library():
    # numpy or scipy may be installed beside the package, so importing one
    # by mistake would pass every other test
    outside = []
    for path in sorted(Path(crawlrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.partition(".")[0] for name in names}
            outside += [f"{path.name}: {name}" for name in sorted(top - sys.stdlib_module_names)]
    assert outside == []


def test_every_imported_name_is_used():
    # no linter runs here, so an import that a removal left behind would stay;
    # __init__.py imports names to export them
    unused = []
    for path in sorted(Path(crawlrank.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_a_mock_crawl_starts_no_thread():
    # a mock fetch never waits, so the crawl fetches in the calling thread
    # and never loads concurrent.futures
    code = """
import sys, tempfile, threading
from crawlrank import MockFetcher, PageStore, PipelineConfig, run_pipeline

corpus = {f"http://h{h}.test/{p}": b"<p>page</p>" for h in range(6) for p in range(3)}
fetcher = MockFetcher(corpus)
threads = []
fetch = fetcher.fetch
def counting(url):
    threads.append(threading.active_count())
    return fetch(url)
fetcher.fetch = counting
seeds = "".join(f"{url}\\n" for url in corpus).encode()
with tempfile.TemporaryDirectory() as tmp:
    summary = run_pipeline(seeds, PipelineConfig(), fetcher, PageStore(tmp + "/store"))
print(summary.pages_fetched, len(threads), max(threads), "concurrent.futures" in sys.modules)
"""
    assert _fresh_python(code) == "18 18 1 False\n"


def test_importing_the_cli_leaves_the_crawl_half_unloaded():
    # a rank run needs the engine, the partition files and the rank
    # program only; the crawl modules load when a crawl step runs
    crawl = {"crawlrank.pipeline", "crawlrank.store", "crawlrank.fetchers", "crawlrank.hashing"}
    assert _modules_loaded_by_importing_the_cli(crawl) == "[]\n"


# Every public name of the package before its crawl half loaded lazily, by defining module.
EXPORTED = {
    "bsp": (
        "ConfigurationError",
        "ConsistencyError",
        "OwnershipError",
        "ProgramError",
        "RunReport",
        "VertexContext",
        "run",
    ),
    "fetchers": ("FetchResult", "HttpFetcher", "MockFetcher"),
    "graph_io": (
        "EdgeList",
        "FormatError",
        "GraphPartition",
        "emit_partition",
        "make_edge_list",
        "parse_partition",
        "partition_graph",
        "partition_path",
    ),
    "hashing": ("fnv1a_64", "fnv1a_64_many"),
    "pagerank": (
        "PageRankParams",
        "PageRankProgram",
        "pagerank_compute",
        "power_iteration_oracle",
        "rank",
        "run_pagerank",
        "write_values",
    ),
    "pipeline": (
        "CrawlSummary",
        "KeyValuePair",
        "LineError",
        "PipelineConfig",
        "RoundStats",
        "SeedSplit",
        "combine",
        "extract_fields",
        "extract_links",
        "host_of",
        "map_swap",
        "partition",
        "reduce_fetch",
        "run_pipeline",
        "split_input",
    ),
    "store": ("FetchedPage", "PageRecord", "PageStore", "canonical_url"),
}


def test_every_exported_name_is_its_defining_modules_object():
    # in a new interpreter, so each crawl name is looked up before its module loads
    code = f"""
import importlib, crawlrank
wrong = []
for module, names in {EXPORTED!r}.items():
    for name in names:
        found = getattr(crawlrank, name)
        if found is not getattr(importlib.import_module("crawlrank." + module), name):
            wrong.append(name)
starred = {{}}
exec("from crawlrank import *", starred)
wrong += [name for name in crawlrank.__all__ if starred[name] is not getattr(crawlrank, name)]
print(wrong)
"""
    assert _fresh_python(code) == "[]\n"
    names = {name for names in EXPORTED.values() for name in names}
    assert set(crawlrank.__all__) == names | set(EXPORTED)
    assert set(crawlrank.__all__) <= set(dir(crawlrank))
    with pytest.raises(AttributeError, match="no_such_name"):
        crawlrank.no_such_name
