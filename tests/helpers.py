"""Shared test utilities: graph builders, corpora, a reference crawler."""

from __future__ import annotations

import random
from urllib.parse import urlsplit

from crawlrank import EdgeList, GraphPartition, canonical_url, extract_fields, extract_links, make_edge_list


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


def big_graph(n: int = 4039, m: int = 88234, seed: int = 20260823) -> EdgeList:
    """Deterministic dense-ish graph at the scale of a real crawl snapshot."""
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < m:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return make_edge_list(sorted(edges))


def random_partition(rng: random.Random) -> tuple[GraphPartition, int]:
    """A random well-formed partition plus its worker count."""
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
    return GraphPartition(worker, vertex_count, len(edge_rows), edge_rows), workers


class RecordingProgram:
    """Wraps a vertex program and snapshots every value it writes."""

    def __init__(self, inner):
        self.inner = inner
        self.values: dict[int, dict[int, float]] = {}

    def compute(self, ctx, messages):
        self.inner.compute(ctx, messages)
        self.values.setdefault(ctx.superstep_index, {})[ctx.vertex_id] = ctx.value


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


def _valid_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
        host = parts.hostname
        parts.port
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(host)


def reference_crawl(seed_bytes: bytes, corpus: dict[str, bytes], rounds: int) -> dict[str, bytes]:
    """Single-lane crawl with the same url, dedup and round rules.

    No splits, no buckets, no threads: just a loop. Returns the mapping
    of canonical url -> body that a store would end up with.
    """
    stored: dict[str, bytes] = {}
    attempted: set[str] = set()
    frontier = [
        line.strip()
        for line in seed_bytes.decode("utf-8").split("\n")
        if line.strip()
    ]
    for _ in range(rounds):
        discovered: list[str] = []
        for url in frontier:
            if url in attempted or not _valid_url(url):
                continue
            attempted.add(url)
            body = corpus.get(url)
            if not body:
                continue
            canon = canonical_url(url)
            if canon not in stored:
                stored[canon] = body
            discovered.extend(extract_links(extract_fields(body)[4], url))
        frontier = []
        seen: set[str] = set()
        for link in discovered:
            if link in seen or link in attempted:
                continue
            try:
                if canonical_url(link) in stored:
                    continue
            except ValueError:
                pass
            seen.add(link)
            frontier.append(link)
    return stored
