"""Seeded input generators for the benchmark's workloads.

Everything here is the benchmark's own code: it writes the mock corpus,
the seed lists and the partition files in the formats the README of the
package documents, without calling the program. The same seed gives the
same bytes.

Both generators keep every page and every graph vertex on at least one
edge. A stored page or a declared vertex without any edge makes
``crawlrank pagerank`` exit 1 (see the FOUND line about
``edge_list_from_partitions`` in CHANGES.md), so an input with one would
measure an error path instead of the job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from urllib.parse import quote

# Input scales. "full" is the default and the one measured; "tiny" keeps
# the benchmark's own tests fast.
SIZES = {
    "full": dict(
        hosts=20, pages_per_host=50, mean_bytes=10_000, rmat_scale=13, rmat_edges=55_000
    ),
    "tiny": dict(hosts=3, pages_per_host=8, mean_bytes=1_500, rmat_scale=6, rmat_edges=150),
}

# Links drawn per page on top of the navigation links, as a fixed
# multiset dealt out by the seed so every seed gives the same edge count.
EXTRA_LINKS = (2, 3, 4, 5, 6, 7, 8, 10, 12, 15)
CROSS_HOST_SHARE = 0.1
SECTIONS_PER_HOST = 10
HUBS_PER_HOST = 5
RMAT_QUADRANTS = (0.57, 0.19, 0.19, 0.05)
DANGLING_SHARE = 0.2

_WORDS = (
    "crawl rank page link graph vertex edge store fetch host seed round "
    "superstep message damping value index search engine network server "
    "document title keyword media comment archive record offset bucket "
    "reducer worker partition barrier aggregate converge résumé café naïve "
    "日本 数据 网页 搜索"
).split()


@dataclass
class Corpus:
    """A generated site set: bodies, each page's link targets, host roots."""

    pages: dict[str, bytes]
    links: dict[str, list[str]]
    roots: list[str]


def _page_sizes(rng: random.Random, count: int, mean_bytes: int) -> list[int]:
    """Log-normal page sizes (sigma 1) at stratified quantiles.

    Stratifying fixes the multiset of sizes, so the total byte count, which
    sets the hashing cost, is the same for every seed; the seed only
    decides which page gets which size.
    """
    normal = NormalDist()
    raw = [math.exp(normal.inv_cdf((i + 0.5) / count)) for i in range(count)]
    scale = mean_bytes * count / sum(raw)
    sizes = [max(600, int(r * scale)) for r in raw]
    rng.shuffle(sizes)
    return sizes


def _filler_pool(rng: random.Random, length: int) -> str:
    """Running text with inline markup about every 400 characters."""
    parts: list[str] = []
    total = 0
    while total < length:
        words = rng.choices(_WORDS, k=60)
        words[rng.randrange(60)] = f"<b>{rng.choice(_WORDS)}</b>"
        piece = " ".join(words) + " "
        parts.append(piece)
        total += len(piece)
    return "".join(parts)


def _weighted_sample(rng: random.Random, items: list[tuple[str, float]], count: int) -> list[str]:
    """``count`` distinct items drawn with probability proportional to weight.

    Efraimidis-Spirakis keys: one random number per item, so the work does
    not depend on the seed, unlike drawing with rejection of repeats.
    """
    keyed = sorted(items, key=lambda item: rng.random() ** (1.0 / item[1]), reverse=True)
    return [item for item, _weight in keyed[:count]]


def make_corpus(seed: int, hosts: int, pages_per_host: int, mean_bytes: int) -> Corpus:
    """Generate the mock web.

    Every host has a root page that links to its section pages, and every
    other page is linked from one section, so a three-round crawl from the
    roots reaches every page. On top of that each page carries a dealt
    number of extra links: nine in ten stay on the host and favour its
    first pages by a Zipf weight, one in ten goes to one of the first
    HUBS_PER_HOST pages of another host. Every page links to at least one
    other page and every link resolves inside the corpus.
    """
    rng = random.Random(f"corpus-{seed}")
    host_names = [f"site{h:02d}-{rng.randrange(16**4):04x}.test" for h in range(hosts)]
    site_urls: list[list[str]] = []
    for host in host_names:
        urls = [f"http://{host}/"]
        for k in range(1, pages_per_host):
            section = k if k <= SECTIONS_PER_HOST else 1 + k % SECTIONS_PER_HOST
            urls.append(f"http://{host}/s{section}/p{k}.html")
        site_urls.append(urls)
    sections = min(SECTIONS_PER_HOST, pages_per_host - 1)
    # Zipf-like: the first few pages of a host draw most links to it.
    weights = [1.0 / (rank + 1) ** 1.3 for rank in range(pages_per_host)]
    extras = [EXTRA_LINKS[i % len(EXTRA_LINKS)] for i in range(hosts * pages_per_host)]
    rng.shuffle(extras)

    links: dict[str, list[str]] = {}
    page_number = 0
    for h, urls in enumerate(site_urls):
        hubs = [u for i, other in enumerate(site_urls) if i != h for u in other[:HUBS_PER_HOST]]
        for k, url in enumerate(urls):
            if k == 0:
                chosen = urls[1 : sections + 1]
            elif k <= sections:
                chosen = [urls[0]] + [
                    urls[j] for j in range(sections + 1, len(urls)) if 1 + j % sections == k
                ]
            else:
                chosen = [urls[1 + k % sections], urls[0]]
            extra = extras[page_number]
            page_number += 1
            cross = sum(1 for _ in range(extra) if rng.random() < CROSS_HOST_SHARE) if hubs else 0
            taken = set(chosen) | {url}
            local = [(u, weights[i]) for i, u in enumerate(urls) if u not in taken]
            chosen += _weighted_sample(rng, local, extra - cross)
            remote = [(u, weights[i % HUBS_PER_HOST]) for i, u in enumerate(hubs)]
            chosen += _weighted_sample(rng, remote, cross)
            links[url] = chosen

    all_urls = [url for urls in site_urls for url in urls]
    sizes = _page_sizes(rng, len(all_urls), mean_bytes)
    pool = _filler_pool(rng, 4 * max(sizes) + 4096)
    pages = {
        url: _render_page(rng, url, links[url], size, pool)
        for url, size in zip(all_urls, sizes)
    }
    return Corpus(pages, links, [urls[0] for urls in site_urls])


def _href(rng: random.Random, page_url: str, target: str) -> str:
    """How a page spells a link: absolute, host-relative, or with a fragment."""
    host_prefix = page_url[: page_url.index("/", len("http://"))]
    roll = rng.random()
    if target.startswith(host_prefix + "/") and roll < 0.5:
        href = target[len(host_prefix) :]
    else:
        href = target
    if roll > 0.95:
        href += f"#part{rng.randrange(9)}"
    return href


def _render_page(rng: random.Random, url: str, targets: list[str], size: int, pool: str) -> bytes:
    title = " ".join(rng.choices(_WORDS, k=4))
    head = (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{title}</title>\n"
        f"<meta name=\"keywords\" content=\"{', '.join(rng.choices(_WORDS, k=5))}\">\n"
        f"<meta name=\"media\" content=\"{rng.choice(_WORDS)} news\">\n"
        f"<meta name=\"comments\" content=\"{rng.randrange(500)}\">\n"
        f"</head><body>\n<h1>{title}</h1>\n"
    )
    anchors = [
        f"<a href=\"{_href(rng, url, target)}\">{rng.choice(_WORDS)}</a>" for target in targets
    ]
    tail = "</body></html>\n"
    budget = size - len(head.encode()) - len(tail) - sum(len(a) + 8 for a in anchors)
    paragraphs = max(1, len(anchors))
    per_paragraph = max(40, budget // paragraphs)
    body: list[str] = [head]
    for index in range(paragraphs):
        start = pool.index(" ", rng.randrange(len(pool) - 2 * per_paragraph - 2)) + 1
        text = pool[start : start + per_paragraph]
        text = text[: text.rfind(" ")] if " " in text else text
        anchor = anchors[index] if index < len(anchors) else ""
        body.append(f"<p>{text} {anchor}</p>\n")
    body.append(tail)
    return "".join(body).encode("utf-8")


def corpus_files(corpus: Corpus, directory: str) -> dict[str, bytes]:
    """A mock-fetcher corpus directory: one file per url, named quote(url, safe='')."""
    return {f"{directory}/{quote(url, safe='')}": body for url, body in corpus.pages.items()}


def write_files(files: dict[str, bytes], root: Path) -> None:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def crawl_seed_text(seed: int, corpus: Corpus) -> bytes:
    """Seed list of a fresh crawl: every host root, a few of them twice."""
    rng = random.Random(f"crawl-seeds-{seed}")
    lines = list(corpus.roots) + rng.sample(corpus.roots, max(1, len(corpus.roots) // 5))
    rng.shuffle(lines)
    return "".join(f"{line}\n" for line in lines).encode("ascii")


def recrawl_seed_text(seed: int, urls: list[str]) -> bytes:
    """Seed list of a re-crawl: every stored url, one in ten of them twice."""
    rng = random.Random(f"recrawl-seeds-{seed}")
    lines = list(urls) + rng.sample(urls, max(1, len(urls) // 10))
    rng.shuffle(lines)
    return "".join(f"{line}\n" for line in lines).encode("ascii")


def make_rmat_graph(
    seed: int, scale: int, edge_count: int
) -> tuple[set[int], list[tuple[int, int]]]:
    """R-MAT power-law graph (Chakrabarti, Zhan and Faloutsos, SDM 2004).

    Draws ``edge_count`` distinct non-loop edges over 2**scale ids with the
    usual (0.57, 0.19, 0.19, 0.05) quadrant split, then strips the
    out-edges of randomly chosen vertices until DANGLING_SHARE of the
    vertices have none, never leaving a vertex without any edge. Ids are
    finally permuted so that degree does not follow id order, and with it
    worker ownership. Returns (vertex ids, sorted edges).
    """
    rng = random.Random(f"rmat-{seed}")
    a, ab, abc = (sum(RMAT_QUADRANTS[: i + 1]) for i in range(3))
    edges: set[tuple[int, int]] = set()
    draw = rng.random
    while len(edges) < edge_count:
        src = dst = 0
        for _ in range(scale):
            r = draw()
            src <<= 1
            dst <<= 1
            if r >= a:
                if r < ab:
                    dst |= 1
                elif r < abc:
                    src |= 1
                else:
                    src |= 1
                    dst |= 1
        if src != dst:
            edges.add((src, dst))

    out_edges: dict[int, list[int]] = {}
    in_degree: dict[int, int] = {}
    for src, dst in sorted(edges):
        out_edges.setdefault(src, []).append(dst)
        out_edges.setdefault(dst, [])
        in_degree[dst] = in_degree.get(dst, 0) + 1
    vertices = sorted(out_edges)
    dangling = sum(1 for v in vertices if not out_edges[v])
    wanted = round(DANGLING_SHARE * len(vertices))
    candidates = [v for v in vertices if out_edges[v]]
    rng.shuffle(candidates)
    for v in candidates:
        if dangling >= wanted:
            break
        # v keeps an in-edge; each target keeps an out-edge or another in-edge.
        if in_degree.get(v, 0) == 0:
            continue
        if any(not out_edges[t] and in_degree[t] == 1 for t in out_edges[v]):
            continue
        for t in out_edges[v]:
            in_degree[t] -= 1
        out_edges[v] = []
        dangling += 1

    ids = list(range(2**scale))
    rng.shuffle(ids)
    kept = [(ids[src], ids[dst]) for src in vertices for dst in out_edges[src]]
    return {ids[v] for v in vertices}, sorted(kept)


def partition_files(
    vertex_ids: set[int], edges: list[tuple[int, int]], base: str, workers: int
) -> dict[str, bytes]:
    """Partition files ``<base>_1 .. <base>_W`` for ``crawlrank pagerank``.

    Each holds the count of vertices the worker owns (``id % workers``),
    the count of its edges, then one ``<source> <dest>`` row per edge
    whose source it owns.
    """
    files = {}
    for worker in range(workers):
        owned = sum(1 for v in vertex_ids if v % workers == worker)
        rows = [f"{src} {dst}\n" for src, dst in edges if src % workers == worker]
        files[f"{base}_{worker + 1}"] = f"{owned}\n{len(rows)}\n{''.join(rows)}".encode("ascii")
    return files
