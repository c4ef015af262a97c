"""Shared test utilities: graph builders, corpora, a reference crawler."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import random
import tempfile
import tracemalloc
from html.parser import HTMLParser
from pathlib import Path

from crawlrank import (
    EdgeList,
    GraphPartition,
    PageRankParams,
    PageRankProgram,
    PageStore,
    canonical_url,
    emit_partition,
    extract_links,
    fnv1a_64_many,
    make_edge_list,
    pagerank_compute,
    parse_partition,
    partition_graph,
    partition_path,
    run,
    run_pipeline,
)
from crawlrank.cli import PartitionFiles
from crawlrank.cli import main as crawlrank_main
from crawlrank.graph_io import FormatError, _parse_int
from crawlrank.hashing import _CHUNK_BYTES, _LANE_BYTES
from crawlrank.store import decode_page


def store_files(directory) -> dict[str, bytes]:
    """Every file under a store directory, by its path inside it."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def cycle_graph(k: int) -> EdgeList:
    return make_edge_list([(i, (i + 1) % k) for i in range(k)])


def random_no_dangling_graph(rng: random.Random, max_vertices: int = 30, max_extra: int = 80) -> EdgeList:
    """Random graph where every vertex has at least one out-edge."""
    n = rng.randrange(2, max_vertices + 1)
    edges = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(rng.randrange(max_extra + 1)):
        edges.add((rng.randrange(n), rng.randrange(n)))
    return make_edge_list(sorted(edges))


def random_dangling_graph(rng: random.Random, max_vertices: int = 30) -> EdgeList:
    """Random graph guaranteed to contain at least one vertex with no out-edges."""
    n = rng.randrange(3, max_vertices + 1)
    sink = n - 1
    edges = {(i, (i + 1) % (n - 1)) for i in range(n - 1)}
    edges.add((0, sink))
    for _ in range(rng.randrange(40)):
        edges.add((rng.randrange(n - 1), rng.randrange(n)))
    return make_edge_list(sorted(edges))


def mixed_rank_graph(rng: random.Random, max_vertices: int = 40) -> EdgeList:
    """Random graph holding vertices without out-edges, vertices without
    in-edges and a vertex linking only to itself; every vertex is on an edge."""
    n = rng.randrange(6, max_vertices + 1)
    ids = list(range(n))
    rng.shuffle(ids)
    third = n // 3
    dangling, sources, (loop, *rest) = ids[:third], ids[third : 2 * third], ids[2 * third :]
    edges = {(loop, loop)}
    for src in sources:
        edges.update((src, rng.choice([loop, *rest, *dangling])) for _ in range(rng.randrange(1, 5)))
    for src in rest:
        edges.update((src, rng.choice([loop, *rest, *dangling])) for _ in range(rng.randrange(1, 6)))
    for dst in dangling:
        edges.add((rng.choice(rest), dst))
    return make_edge_list(sorted(edges))


def big_graph(n: int = 4039, m: int = 88234, seed: int = 20260823) -> EdgeList:
    """Deterministic dense-ish graph at the scale of a real crawl snapshot."""
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < m:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return make_edge_list(sorted(edges))


def random_partition(rng: random.Random) -> GraphPartition:
    """A random well-formed partition: one worker's share of a graph."""
    workers = rng.randrange(1, 6)
    worker = rng.randrange(workers)
    wanted = rng.randrange(0, 40)
    edges: set[tuple[int, int]] = set()
    while len(edges) < wanted:
        src = worker + workers * rng.randrange(50)
        edges.add((src, rng.randrange(200)))
    edge_rows = list(edges)
    rng.shuffle(edge_rows)
    sources = {src for src, _ in edge_rows}
    vertex_count = len(sources) + rng.randrange(0, 4)
    return from_rows(vertex_count, edge_rows)


def from_rows(vertex_count: int, rows) -> GraphPartition:
    """A partition holding ``rows``, (source, dest) pairs, in their order."""
    return GraphPartition(vertex_count, [src for src, _ in rows], [dst for _, dst in rows])


def reference_parse_partition(text: str) -> GraphPartition:
    """parse_partition one line at a time, stopping at the first bad line;
    the reference for crawlrank.parse_partition, which reads its rows a
    chunk at a time and must raise the same error for the same text."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise FormatError(f"line {len(lines)}: file must end with a newline")
    lines.pop()
    if len(lines) < 2:
        raise FormatError("line 1: missing header lines (vertex count, edge count)")
    vertex_count = _parse_int(lines[0], 1, "vertex count")
    edge_count = _parse_int(lines[1], 2, "edge count")
    body = len(lines) - 2
    if body != edge_count:
        raise FormatError(f"line 2: header declares {edge_count} edges but {body} rows follow")
    sources, dests = [], []
    seen: set[tuple[int, int]] = set()
    for line_no, row in enumerate(lines[2:], start=3):
        fields = row.split(" ")
        if len(fields) != 2:
            raise FormatError(f"line {line_no}: expected '<source> <dest>', got {row!r}")
        src = _parse_int(fields[0], line_no, "source")
        dst = _parse_int(fields[1], line_no, "dest")
        pair = (src, dst)
        if pair in seen:
            raise FormatError(f"line {line_no}: duplicate edge {src} {dst}")
        seen.add(pair)
        sources.append(src)
        dests.append(dst)
    return GraphPartition(vertex_count, sources, dests)


class PerVertexRank:
    """``pagerank_compute`` as a per-vertex program: the engine calls
    ``compute`` once per vertex with its message list."""

    aggregator_slots = 1

    def __init__(self, params=None):
        self.params = params if params is not None else PageRankParams()

    def compute(self, ctx, messages):
        pagerank_compute(ctx, messages, self.params)


class SendOnce:
    """A whole-superstep program: in superstep 0 each vertex sends its
    entry of ``sends`` (None sends nothing); superstep 1 keeps the totals
    the engine folded from those payloads, then every vertex halts."""

    def __init__(self, sends):
        self.sends = sends
        self.totals = None

    def compute(self, ctx, messages):
        raise AssertionError("the per-vertex compute ran")

    def compute_superstep(self, superstep, totals, values, degrees, published):
        if superstep == 0:
            return values, self.sends, [0.0] * len(published)
        self.totals = totals
        return None


def fold_totals(graph: EdgeList, sends: dict, workers: int) -> tuple[list[str], list[str]]:
    """The totals the engine folds from one superstep of ``sends`` (vertex
    id -> payload, None or absent for no send), and the left fold from
    0.0 over each vertex's senders in ascending id order that skips
    silent ones; both as ``float.hex`` strings in ascending id order."""
    ids = sorted(graph.vertex_ids)
    program = SendOnce([sends.get(vid) for vid in ids])
    run(partition_graph(graph.edges, workers), program)
    senders: dict[int, list[int]] = {vid: [] for vid in ids}
    for src, dst in sorted(set(graph.edges)):
        senders[dst].append(src)
    expected = []
    for vid in ids:
        total = 0.0
        for src in senders[vid]:
            if sends.get(src) is not None:
                total += sends[src]
        expected.append(total.hex())
    return [total.hex() for total in program.totals], expected


# Peak bytes per edge that tracemalloc may trace while a partition set is
# parsed and the engine is set up (``traced_bytes_per_edge``). Each file
# parsed when the engine reads it, rows turned into out-edge tuples in
# place and in-neighbours built as those tuples go, measures 49 on Python
# 3.10 to 3.13, as one file or as four. Every file parsed before set-up,
# which then held rows, out-edge tuples and in-neighbours at once,
# measured 68 as one file and 74 as four; splitting a whole file at once,
# 223 as one file and 77 as four; an int per id token and a tuple per
# edge, 166.
BYTES_PER_EDGE_BOUND = 60


def traced_bytes_per_edge(workers: int = 4) -> tuple[float, list[GraphPartition]]:
    """Peak bytes tracemalloc traces per edge while the rank engine reads
    the ``workers`` partition files of ``big_graph(2000, 20000)`` as
    ``crawlrank pagerank`` hands them over, each parsed when the engine
    reads it, and runs one superstep on them; and the partitions parsed
    again after tracing. The graph has ten edges per vertex, about the
    density of the benchmark's R-MAT graph; its files are written before
    tracing starts."""
    graph = big_graph(n=2000, m=20_000)
    with tempfile.TemporaryDirectory() as directory:
        base = str(Path(directory) / "web")
        paths = [Path(partition_path(base, worker)) for worker in range(workers)]
        for path, part in zip(paths, partition_graph(graph.edges, workers)):
            path.write_text(emit_partition(part), encoding="ascii")
        gc.collect()  # empties CPython's free lists, which would otherwise follow what ran before
        tracemalloc.start()
        try:
            run(PartitionFiles(paths), PageRankProgram(), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        parts = [parse_partition(path.read_text(encoding="ascii")) for path in paths]
    return peak / len(graph.edges), parts


# Bound on the traced peak of fnv1a_64_many beyond its bodies, in transposed
# blocks of _CHUNK_BYTES (``traced_hash_blocks``). Letting each block go
# before the next is built measures 1.07; two blocks alive at once, 2.05.
HASH_BLOCKS_BOUND = 1.25


def traced_hash_blocks() -> float:
    """Peak bytes tracemalloc traces while ``fnv1a_64_many`` hashes 200
    seeded bodies that span between two and three transposed blocks, in
    blocks of ``_CHUNK_BYTES``; the bodies are made before tracing starts."""
    rng = random.Random(7)
    lanes = 200
    rows = _CHUNK_BYTES // (_LANE_BYTES * lanes)
    bodies = [rng.randbytes(rng.randrange(2 * rows, 3 * rows)) for _ in range(lanes)]
    gc.collect()  # empties CPython's free lists, which would otherwise follow what ran before
    tracemalloc.start()
    try:
        fnv1a_64_many(bodies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / _CHUNK_BYTES


def shares_id_objects(part: GraphPartition) -> bool:
    """Whether every occurrence of a vertex id in ``part`` is one int object."""
    first: dict[int, int] = {}
    return all(first.setdefault(vid, vid) is vid for vid in part.sources + part.dests)


class RecordingProgram:
    """Wraps a per-vertex program and snapshots every value it writes."""

    def __init__(self, inner):
        self.inner = inner
        self.aggregator_slots = inner.aggregator_slots
        self.values: dict[int, dict[int, float]] = {}

    def compute(self, ctx, messages):
        self.inner.compute(ctx, messages)
        self.values.setdefault(ctx.superstep_index, {})[ctx.vertex_id] = ctx.value


class ReferencePageParser(HTMLParser):
    """One pass over a page: the first title, a few named metas, and the
    first href of each anchor."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.title_parts: list[str] = []
        self.keywords = ""
        self.media = ""
        self.comment_count = 0
        self.hrefs: list[str] = []
        self._in_title = False
        self._title_done = False

    def handle_starttag(self, tag, attrs):
        # HTMLParser lowercases tag and attribute names.
        if tag == "a":
            href = next((value for name, value in attrs if name == "href" and value), None)
            if href is not None:
                self.hrefs.append(href)
        elif tag == "title":
            self._in_title = not self._title_done
        elif tag == "meta":
            attr_map = {name: (value or "") for name, value in attrs}
            name = attr_map.get("name", "").lower()
            content = attr_map.get("content", "")
            if name == "keywords" and not self.keywords:
                self.keywords = content
            elif name in ("media", "mediaid", "source") and not self.media:
                self.media = content
            elif name in ("comment", "comments", "comment_count", "commentcount"):
                if content.strip().isdigit():
                    self.comment_count = int(content.strip())

    def handle_endtag(self, tag):
        if tag == "title" and self._in_title:
            self._in_title = False
            self._title_done = True

    def handle_data(self, data):
        if self._in_title:
            self.title_parts.append(data)


def reference_extract_fields(body: bytes) -> tuple[str, str, str, int, list[str]]:
    """extract_fields as html.parser reads the page; the reference for
    crawlrank.extract_fields.

    It raises what html.parser or int() raise on a page they cannot read
    (a ``<![x[`` section, a comment meta of ``²``), so a test can tell
    such a page apart; extract_fields reads those pages to the end.
    """
    parser = ReferencePageParser()
    parser.feed(decode_page(body))
    parser.close()
    title = "".join(parser.title_parts).strip()
    return title, parser.keywords, parser.media, parser.comment_count, parser.hrefs


# One page per construct the tokenizer must read as html.parser does. The
# differential test in test_pipeline.py starts from them, and
# scripts/parity_versions.py checks them on each interpreter.
EXTRACTION_EXAMPLES = [
    '<title>T</title><!-- <a href="/in-comment"> --><a href="/after">x</a>',
    "<script>var s = '<a href=\"/in-script\">';</script><a href=\"/after\">x</a>",
    '<STYLE>a[href="<a href=/in-style>"] {}</style ><a href="/after">x</a>',
    '<img alt=\'<a href="/in-value">\' title="<title>"><a href="/after">x</a>',
    "<a href='broken",
    "<title>Only A Title",
    '<!DOCTYPE html><!bogus <a href="/in-bogus"><a href="/after">x</a>',
    '<title>T<![CDATA[ <a href="/in-cdata"> ]]><![if !IE]>x<![endif]></title>'
    '<![if IE]><a href="/if"><![endif]><a href="/after">',
    '<?xml version="1.0"?><?pi <a href="/in-pi"><a href="/after">',
    "<META NAME=\"Keywords\" CONTENT='k1, k2'><meta name=media content=bare>"
    '<meta name="comments" content="12" content=" 7 "><meta name=comments content=x>',
    '<a href href="" HREF=/third>x</a><a\nhref\n=\n"/new\nline"\n>y</a><a href=/self/>',
    "<title>A &amp; B &lt C &#65;&#x42; &notanentity; &amp</title>"
    '<a href="/p?a=1&amp;b=2&copy=3&#1;">',
    "<title>1 < 2 & 3 <= 4</title><a href=&#1;><a href='&#10;'>",
    "<title>a<b>b</b><!-- c --><script>d&amp;</script>e</title><title>second</title>",
    "<title/>later<title>ignored</title>",
    '<title>x<a\x00 href="/junk">&amp; <b&amp;\x00y</title><p\x00 <a href="/after-junk">',
    "<title>a<title/>b</title><title>c</title>",
    "<title>a</title x>b</title/><title>c</title>",
    "<title>T<![CDATA[ &amp; > x</title>",
    "<title><a href=\"&amp;>\" x='</title>",
    '<script>a</script><a href="/between"><script>b</script><script/><a href="/after">',
    "<title>T<script>x&amp;</ſcript>y</title>",
    '<title>T</title><a href="/x"><!-- <a href="/in-open-comment">',
    '<title>T<script>var x = "</title>";</script></title><a href="/after',
]

# reference_extract_fields of each EXTRACTION_EXAMPLES page, in order, as
# Python 3.11.7's html.parser reads it. extract_fields is held to these
# on every interpreter, also where a newer html.parser reads a page
# differently.
EXTRACTION_FIELDS = [
    ('T', '', '', 0, ['/after']),
    ('', '', '', 0, ['/after']),
    ('', '', '', 0, ['/after']),
    ('', '', '', 0, ['/after']),
    ('', '', '', 0, []),
    ('Only A Title', '', '', 0, []),
    ('', '', '', 0, ['/after']),
    ('Tx', '', '', 0, ['/if', '/after']),
    ('', '', '', 0, ['/after']),
    ('', 'k1, k2', 'bare', 7, []),
    ('', '', '', 0, ['/third', '/new\nline', '/self/']),
    ('A & B < C AB ¬anentity; &', '', '', 0, ['/p?a=1&b=2©=3']),
    ('1 < 2 & 3 <= 4', '', '', 0, ['\n']),
    ('abd&amp;e', '', '', 0, []),
    ('', '', '', 0, []),
    ('x<a\x00 href="/junk">& <b&amp;\x00y', '', '', 0, ['/after-junk']),
    ('a', '', '', 0, []),
    ('a', '', '', 0, []),
    ('T<![CDATA[ & > x', '', '', 0, []),
    ('<a href="&>" x=\'', '', '', 0, []),
    ('', '', '', 0, ['/between', '/after']),
    ('Tx&amp;</ſcript>', '', '', 0, []),
    ('T', '', '', 0, ['/x']),
    ('Tvar x = "</title>";', '', '', 0, []),
]


# (url, canonical_url(url)), or (url, None) where the rule rejects the
# url. scripts/parity_versions.py checks them on each interpreter, whose
# urlsplit may read brackets differently; tier-1 runs it on its own.
URL_EXAMPLES = [
    ("http://A.Test:80/x#top", "http://a.test/x"),
    ("https://A.test:443/p?q=1#frag", "https://a.test/p?q=1"),
    ("HTTP://a.test/UPPER/Path", "http://a.test/UPPER/Path"),
    ("http://a.test", "http://a.test"),
    ("http://user:pw@Host.test/secret", "http://host.test/secret"),
    ("http://u@a.test:8080/", "http://a.test:8080/"),
    ("http://a.test:443/", "http://a.test:443/"),
    ("https://a.test:80/", "https://a.test:80/"),
    ("http://a.test:/x", "http://a.test/x"),
    ("http://a.test/x?", "http://a.test/x"),
    ("http://a.test/x?#", "http://a.test/x"),
    ("http://a.test/x?q#f", "http://a.test/x?q"),
    ("http://[::1]/", "http://[::1]/"),
    ("http://[FE80::1%25Eth0]:80/", "http://[fe80::1%25Eth0]/"),
    ("http://u:pw@[::ffff:1.2.3.4]:8080/x", "http://[::ffff:1.2.3.4]:8080/x"),
    # only ASCII letters are lowercased: str.lower follows the interpreter's Unicode tables
    ("http://\U00010570.TEST/", "http://\U00010570.test/"),
    ("http://É.test/", "http://É.test/"),
    ("http://a.test/sp #f", None),
    ("http://a.test/x?q #f", None),
    ("http://[::1][Z.@[%%[[.", None),
    ("http://[::1]x/", None),
    ("http://[::1]]/", None),
    ("http://[::1]@a.test/", None),
    ("http://[u]@a.test/", None),
    ("http://[a.test]/", None),
    ("http://[v1.x]/", None),
    ("http://[1.2.3.4]/", None),
    ("http://[::zz]/", None),
    ("http://a.test:65536/", None),
    ("http://a.test:8_0/", None),
    ("http://:80/", None),
    ("ftp://a.test/", None),
    ("http://a.test/x\ty", None),
]


# (field, value) pairs that give a whole meta.jsonl record a field of the
# wrong json type; opening a store must refuse each one.
MISTYPED_FIELDS = [
    ("url", []),
    ("out_links", 5),
    ("comment_count", "x"),
    ("id", 2.0),
    ("title", None),
    ("keywords", 1),
    ("media", ["m"]),
    ("comment_count", True),
    ("content_hash", 1.5),
    ("out_links", ["http://a.test/", 5]),
]

# A text field per case holding a lone surrogate, which UTF-8 cannot encode.
UNENCODABLE_FIELDS = [
    ("url", "http://a.test/\udc80"),
    ("title", "x\udc80"),
    ("keywords", "\ud800"),
    ("media", "m\udfff"),
    ("out_links", ["http://a.test/", "http://b.test/\udc80"]),
]


def html_page(title: str, links: list[str], extra_head: str = "") -> bytes:
    anchors = "".join(f'<a href="{u}">{u}</a>\n' for u in links)
    return (
        f"<html><head><title>{title}</title>{extra_head}</head>"
        f"<body>{anchors}</body></html>"
    ).encode("utf-8")


def small_site() -> tuple[dict[str, bytes], bytes]:
    """Three pages on two hosts; the x page is the best linked."""
    corpus = {
        "http://a.test/x": html_page("Page X", ["http://a.test/y"]),
        "http://a.test/y": html_page("Page Y", ["http://a.test/x"]),
        "http://b.test/": html_page("Page B", ["http://a.test/x"]),
    }
    seeds = b"http://a.test/x\nhttp://b.test/\n"
    return corpus, seeds


def wide_corpus(hosts: int = 10, pages_per_host: int = 10) -> tuple[dict[str, bytes], list[str]]:
    """A 100-page corpus across 10 hosts with deterministic cross links."""
    urls = [
        f"http://host{h}.test/page{p}"
        for h in range(hosts)
        for p in range(pages_per_host)
    ]
    rng = random.Random(7)
    corpus = {}
    for i, url in enumerate(urls):
        links = [urls[(i * 7 + 3) % len(urls)], urls[(i * 13 + 1) % len(urls)]]
        if rng.random() < 0.5:
            links.append(urls[rng.randrange(len(urls))])
        corpus[url] = html_page(f"Page {i}", links)
    return corpus, urls


def seed_with_duplicates(urls: list[str], duplicates: int = 25) -> bytes:
    """Seed bytes listing every url once, then `duplicates` repeats.

    The repeats sit at the end of the file, far from their originals, so
    with a small split size they land in different splits than the first
    occurrences.
    """
    lines = list(urls)
    lines.extend(urls[(i * 37) % len(urls)] for i in range(duplicates))
    return "".join(f"{u}\n" for u in lines).encode("utf-8")


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: its relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def whole_run_digests(root: Path, seed_bytes: bytes, config, fetcher) -> dict[str, str]:
    """Crawl into ``root/store`` (kept if it is there), build the graph for
    4 workers under ``root/graph`` and rank it into ``root/ranks``, each
    step as ``crawlrank pipeline`` runs it; the tree_digest of each tree,
    by the names store, graph and ranks, and of ``config.dump_dir`` by
    the name dump when it is set."""
    run_pipeline(seed_bytes, config, fetcher, PageStore(root / "store"))
    graph, ranks = root / "graph" / "webgraph", root / "ranks" / "ranks"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["build-graph", "--store", str(root / "store"), "--graph", str(graph)],
            ["pagerank", "--graph", str(graph), "--out", str(ranks)],
        ):
            if crawlrank_main([*argv, "--workers", "4"]):
                raise RuntimeError(f"crawlrank {argv[0]} failed")
    digests = {name: tree_digest(root / name) for name in ("store", "graph", "ranks")}
    if config.dump_dir is not None:
        digests["dump"] = tree_digest(Path(config.dump_dir))
    return digests


def reference_crawl(seed_bytes: bytes, corpus: dict[str, bytes], rounds: int) -> dict[str, bytes]:
    """Single-lane crawl with the same url, dedup and round rules.

    No splits, no buckets, no threads: just a loop over canonical urls.
    Returns the mapping of canonical url -> body that a store would end
    up with.
    """
    stored: dict[str, bytes] = {}
    attempted: set[str] = set()
    frontier = [line.strip() for line in seed_bytes.decode("utf-8").split("\n") if line.strip()]
    for _ in range(rounds):
        discovered: list[str] = []
        for line in frontier:
            try:
                url = canonical_url(line)
            except ValueError:
                continue
            if url in attempted:
                continue
            attempted.add(url)
            body = corpus.get(url)
            if body:
                stored[url] = body
                discovered.extend(extract_links(reference_extract_fields(body)[4], url))
        frontier = [link for link in dict.fromkeys(discovered) if link not in attempted]
    return stored
