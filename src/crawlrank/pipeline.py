"""The staged crawl: split, swap, combine, bucket by host, fetch.

A crawl round takes the seed bytes through fixed stages. split_input
cuts the seed file into line-aligned shards. map_swap turns each line
into a url-keyed pair carrying the line's byte offset. combine collapses
duplicates within one shard's output. partition assigns every url to a
bucket by a stable hash of its host, which guarantees all urls of one
host land in the same bucket. reduce_fetch then works through a bucket
with a bounded pool, one host at a time per lane, and the successes go
into the page store.

With more than one round, links extracted from this round's pages that
are not yet stored become the next round's seed list.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from urllib.parse import urldefrag, urljoin, urlsplit

from .fetchers import Fetcher, FetchResult
from .hashing import fnv1a_64
from .store import PageStore, canonical_url, decode_page

DEFAULT_SPLIT_SIZE = 1024
DEFAULT_REDUCERS = 3
DEFAULT_FETCH_LANES = 16


@dataclass
class SeedSplit:
    """One line-aligned shard of the seed file.

    ``lines`` holds (byte_offset, stripped_text) pairs in file order;
    byte_offset is the offset of the line's first byte in the whole seed
    file, and blank lines are dropped while still counting toward the
    offsets of later lines.
    """

    split_index: int
    byte_offset: int
    lines: list[tuple[int, str]]


@dataclass(frozen=True)
class KeyValuePair:
    """A url keyed for grouping; the value is the seed-file byte offset."""

    key: str
    value: int


@dataclass(frozen=True)
class LineError:
    """A seed line that is not a fetchable absolute url."""

    offset: int
    line: str
    reason: str


@dataclass
class PipelineConfig:
    split_size: int = DEFAULT_SPLIT_SIZE
    reducers: int = DEFAULT_REDUCERS
    fetch_lanes: int = DEFAULT_FETCH_LANES
    rounds: int = 1
    per_host_delay: float = 0.0
    dump_dir: Path | None = None

    def __post_init__(self):
        if self.split_size < 1:
            raise ValueError("split_size must be >= 1")
        if self.reducers < 1:
            raise ValueError("reducers must be >= 1")
        if self.fetch_lanes < 1:
            raise ValueError("fetch_lanes must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.per_host_delay < 0:
            raise ValueError("per_host_delay must be >= 0")


@dataclass
class RoundStats:
    round_index: int
    seed_lines: int
    fetched: int
    stored_new: int
    errors: int
    bytes_fetched: int


@dataclass
class CrawlSummary:
    """What a whole pipeline run did, across all rounds."""

    pages_fetched: int = 0
    bytes_fetched: int = 0
    fetch_errors: list[tuple[str, str]] = field(default_factory=list)
    invalid_lines: list[LineError] = field(default_factory=list)
    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return len(self.fetch_errors) + len(self.invalid_lines)


def split_input(seed_bytes: bytes, split_size_bytes: int = DEFAULT_SPLIT_SIZE) -> list[SeedSplit]:
    """Cut a seed file into line-aligned shards of roughly split_size bytes.

    Nominal cut points sit at multiples of split_size; a line straddling
    a cut moves wholly into the later shard, so lines are never torn.
    Shards that end up empty (all blank lines) are dropped and the
    remaining shards renumbered in file order.
    """
    if split_size_bytes < 1:
        raise ValueError("split_size_bytes must be >= 1")
    cells: dict[int, list[tuple[int, str]]] = {}
    position = 0
    total = len(seed_bytes)
    while position < total:
        newline = seed_bytes.find(b"\n", position)
        end = total if newline < 0 else newline + 1
        text = seed_bytes[position:end].decode("utf-8", errors="replace").strip()
        if text:
            cells.setdefault((end - 1) // split_size_bytes, []).append((position, text))
        position = end
    splits = []
    for index, cell in enumerate(sorted(cells)):
        lines = cells[cell]
        splits.append(SeedSplit(index, lines[0][0], lines))
    return splits


def map_swap(split: SeedSplit) -> tuple[list[KeyValuePair], list[LineError]]:
    """Swap a shard's (offset, url) lines into url-keyed pairs.

    Input order is preserved. Lines that canonical_url rejects come back
    in the error list, with its reason, instead of poisoning the pair
    stream.
    """
    pairs: list[KeyValuePair] = []
    errors: list[LineError] = []
    for offset, text in split.lines:
        try:
            canonical_url(text)
        except ValueError as exc:
            errors.append(LineError(offset, text, str(exc)))
        else:
            pairs.append(KeyValuePair(text, offset))
    return pairs, errors


def combine(pairs: list[KeyValuePair]) -> list[KeyValuePair]:
    """Collapse duplicate urls within one shard's pairs.

    The smallest byte offset wins, and the output is sorted by url so
    downstream stages see a deterministic stream.
    """
    best: dict[str, int] = {}
    for pair in pairs:
        previous = best.get(pair.key)
        if previous is None or pair.value < previous:
            best[pair.key] = pair.value
    return [KeyValuePair(url, best[url]) for url in sorted(best)]


def host_of(url: str) -> str:
    """Host of the url's canonical form; credentials and port drop away.

    Raises ValueError for any url canonical_url rejects.
    """
    return urlsplit(canonical_url(url)).hostname


def partition(url: str, reducers: int) -> int:
    """Bucket index for a url: FNV-1a of its host, modulo reducer count.

    Hashing the host rather than the whole url co-locates every url of
    one host, which is what lets reduce_fetch serialize per host.
    """
    if reducers < 1:
        raise ValueError("reducers must be >= 1")
    return fnv1a_64(host_of(url).encode("utf-8")) % reducers


def reduce_fetch(
    bucket: list[KeyValuePair],
    fetcher: Fetcher,
    fetch_lanes: int = DEFAULT_FETCH_LANES,
    per_host_delay: float = 0.0,
) -> list[FetchResult]:
    """Fetch every distinct url in a bucket, at most once each.

    Urls are grouped by host. One host's urls run sequentially on a
    single lane with at least per_host_delay seconds between requests;
    different hosts run concurrently on up to fetch_lanes lanes. A
    failed fetch is recorded and never aborts the bucket. Results come
    back sorted by url, independent of lane scheduling.
    """
    if fetch_lanes < 1:
        raise ValueError("fetch_lanes must be >= 1")
    urls: list[str] = []
    seen: set[str] = set()
    for pair in bucket:
        if pair.key not in seen:
            seen.add(pair.key)
            urls.append(pair.key)
    by_host: dict[str, list[str]] = {}
    for url in urls:
        by_host.setdefault(host_of(url), []).append(url)

    def fetch_host(host_urls: list[str]) -> list[FetchResult]:
        results = []
        for i, url in enumerate(host_urls):
            if i and per_host_delay > 0:
                time.sleep(per_host_delay)
            try:
                results.append(fetcher.fetch(url))
            except Exception as exc:  # noqa: BLE001 - a raising fetcher must not kill the lane
                results.append(FetchResult.failure(url, f"{type(exc).__name__}: {exc}"))
        return results

    hosts = sorted(by_host)
    if len(hosts) <= 1 or fetch_lanes == 1:
        results = [r for host in hosts for r in fetch_host(by_host[host])]
    else:
        with ThreadPoolExecutor(max_workers=fetch_lanes) as pool:
            chunks = pool.map(fetch_host, (by_host[host] for host in hosts))
            results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: r.url)
    return results


class _PageParser(HTMLParser):
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


def extract_fields(body: bytes) -> tuple[str, str, str, int, list[str]]:
    """(title, keywords, media, comment_count, hrefs) from one parse of page bytes.

    The bytes are decoded by store.decode_page, the policy stored content
    uses too. Never raises; anything missing or unparseable comes back
    empty, and comment_count is 0 unless a purely numeric comment meta is
    present. hrefs holds each anchor's first non-empty href, unresolved,
    in page order; extract_links turns them into links.
    """
    parser = _PageParser()
    try:
        parser.feed(decode_page(body))
        parser.close()
    except Exception:  # noqa: BLE001 - malformed markup keeps whatever was gathered
        pass
    title = "".join(parser.title_parts).strip()
    return title, parser.keywords, parser.media, parser.comment_count, parser.hrefs


def extract_links(hrefs: list[str], base_url: str) -> list[str]:
    """A page's hrefs resolved against base_url.

    Fragments are dropped (they never reach a server), only results
    canonical_url accepts are kept, as resolved rather than canonical,
    and the first occurrence wins.
    """
    links: list[str] = []
    seen: set[str] = set()
    for href in hrefs:
        try:
            absolute, _fragment = urldefrag(urljoin(base_url, href.strip()))
            canonical_url(absolute)
        except ValueError:
            continue
        if absolute not in seen:
            seen.add(absolute)
            links.append(absolute)
    return links


def _dump_pairs(path: Path, pairs: list[KeyValuePair]) -> None:
    lines = "".join(f"{p.key}\t{p.value}\n" for p in sorted(pairs, key=lambda p: (p.key, p.value)))
    path.write_text(lines, encoding="utf-8")


def run_pipeline(
    seed_bytes: bytes,
    config: PipelineConfig,
    fetcher: Fetcher,
    store: PageStore,
) -> CrawlSummary:
    """Run the staged crawl against a store and return its summary.

    Within one run every url is attempted at most once, even across
    rounds. Successful fetches are stored with extracted fields and out
    links; a url already in the store is skipped when it resurfaces as a
    discovered link, which is what makes re-running over an existing
    store idempotent. When ``config.dump_dir`` is set, each stage's
    key-sorted output is written there as tab-separated text.
    """
    summary = CrawlSummary()
    attempted: set[str] = set()
    dump_dir = config.dump_dir
    if dump_dir is not None:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
    current_seed = seed_bytes
    for round_index in range(1, config.rounds + 1):
        splits = split_input(current_seed, config.split_size)
        seed_lines = sum(len(s.lines) for s in splits)
        combined_per_split: list[list[KeyValuePair]] = []
        mapped_all: list[KeyValuePair] = []
        round_errors = 0
        for split in splits:
            pairs, errors = map_swap(split)
            summary.invalid_lines.extend(errors)
            round_errors += len(errors)
            mapped_all.extend(pairs)
            combined_per_split.append(combine(pairs))
        if dump_dir is not None:
            _dump_pairs(dump_dir / f"round{round_index}_map.tsv", mapped_all)
            _dump_pairs(
                dump_dir / f"round{round_index}_combine.tsv",
                [p for combined in combined_per_split for p in combined],
            )
        buckets: list[list[KeyValuePair]] = [[] for _ in range(config.reducers)]
        for combined in combined_per_split:
            for pair in combined:
                buckets[partition(pair.key, config.reducers)].append(pair)
        fetched = stored_new = round_bytes = 0
        discovered: list[str] = []
        for bucket_index, bucket in enumerate(buckets):
            if dump_dir is not None:
                _dump_pairs(dump_dir / f"round{round_index}_bucket{bucket_index}.tsv", bucket)
            fresh = [pair for pair in bucket if pair.key not in attempted]
            results = reduce_fetch(fresh, fetcher, config.fetch_lanes, config.per_host_delay)
            for result in results:
                attempted.add(result.url)
                if not result.ok:
                    summary.fetch_errors.append((result.url, result.reason))
                    round_errors += 1
                    continue
                fetched += 1
                round_bytes += len(result.body)
                title, keywords, media, comment_count, hrefs = extract_fields(result.body)
                links = extract_links(hrefs, result.url)
                _page_id, inserted = store.put(
                    result.url,
                    result.body,
                    title=title,
                    keywords=keywords,
                    media=media,
                    comment_count=comment_count,
                    out_links=links,
                )
                if inserted:
                    stored_new += 1
                discovered.extend(links)
        summary.pages_fetched += fetched
        summary.bytes_fetched += round_bytes
        summary.rounds.append(
            RoundStats(round_index, seed_lines, fetched, stored_new, round_errors, round_bytes)
        )
        if round_index == config.rounds:
            break
        frontier: list[str] = []
        frontier_seen: set[str] = set()
        for link in discovered:
            if link in frontier_seen or link in attempted or link in store:
                continue
            frontier_seen.add(link)
            frontier.append(link)
        current_seed = "".join(f"{url}\n" for url in frontier).encode("utf-8")
    return summary
