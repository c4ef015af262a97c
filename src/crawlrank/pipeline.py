"""The staged crawl: split, swap, combine, bucket by host, fetch.

A crawl round takes the seed bytes through fixed stages. split_input
cuts the seed file into line-aligned shards. map_swap keys each line by
its canonical url, the one name later stages give a page, with the
line's byte offset as value. combine collapses duplicates within one
shard's output. partition cuts a 64-bit hash of each url's host into one
range per bucket, so all urls of one host share a bucket. reduce_fetch
works through a bucket one host at a time per lane, on a bounded pool
only when two fetches could overlap a wait, and the successes go into the
page store in (host hash, host, url) order, one order across the buckets
whatever their count.

Each fetched page is read in one scan, by extract_fields: a single
regular expression (_TOKEN) walks the page construct by construct under
the rules of the standard library's html.parser, and Python code acts
only on a, meta and title start tags, </title> and the title's text,
which the same scan collects. Unlike html.parser it never raises, so it
reads every page to the end. extract_links then resolves the hrefs
against the url the page came from after redirects and keeps each
link's canonical form, looked up in one dict per run that maps each
resolved href to its link. A bucket's bodies are let go once the store
holds them, before the next bucket is fetched.

With more than one round, each url a round fetches or serves adds its
stored record's out links, and those not yet attempted, sorted, seed the
next round. There, run_pipeline serves each url an earlier run stored
before its bucket is fetched, and reduce_fetch never sees it.
"""

from __future__ import annotations

import html
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urljoin, urlsplit

from .fetchers import Fetcher, FetchResult
from .hashing import fnv1a_64
from .store import URL_CONTROL_CHARS, FetchedPage, PageStore, canonical_url, decode_page

DEFAULT_SPLIT_SIZE = 1024
DEFAULT_REDUCERS = 3
DEFAULT_FETCH_LANES = 16


@dataclass
class SeedSplit:
    """One line-aligned shard of the seed file; its index is its position
    in the split list.

    ``lines`` holds (byte_offset, stripped_text) pairs in file order;
    byte_offset is the offset of the line's first byte in the whole seed
    file, and blank lines are dropped while still counting toward the
    offsets of later lines.
    """

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
        if not 0.0 <= self.per_host_delay < math.inf:  # also false for nan
            raise ValueError("per_host_delay must be finite and >= 0")


@dataclass
class RoundStats:
    """What one crawl round did; round ``n`` is at position ``n - 1``."""

    seed_lines: int
    fetched: int
    from_store: int  # urls the store held, served instead of fetched after round 1
    stored_new: int
    errors: int
    bytes_fetched: int


@dataclass
class CrawlSummary:
    """What a whole pipeline run did, across all rounds."""

    fetch_errors: list[tuple[str, str]] = field(default_factory=list)
    invalid_lines: list[LineError] = field(default_factory=list)
    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def pages_fetched(self) -> int:
        return sum(stats.fetched for stats in self.rounds)

    @property
    def bytes_fetched(self) -> int:
        return sum(stats.bytes_fetched for stats in self.rounds)

    @property
    def errors(self) -> int:
        return len(self.fetch_errors) + len(self.invalid_lines)


def split_input(seed_bytes: bytes, split_size_bytes: int = DEFAULT_SPLIT_SIZE) -> list[SeedSplit]:
    """Cut a seed file into line-aligned shards of roughly split_size bytes.

    Nominal cut points sit at multiples of split_size; a line straddling
    a cut moves wholly into the later shard, so lines are never torn.
    Shards that end up empty (all blank lines) are dropped; the rest
    stay in file order.
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
    return [SeedSplit(cells[cell]) for cell in sorted(cells)]


def map_swap(split: SeedSplit) -> tuple[list[KeyValuePair], list[LineError]]:
    """Swap a shard's (offset, url) lines into pairs keyed by canonical url.

    Input order is preserved. Lines that canonical_url rejects come back
    in the error list, as written and with its reason, instead of
    poisoning the pair stream.
    """
    pairs: list[KeyValuePair] = []
    errors: list[LineError] = []
    for offset, text in split.lines:
        try:
            key = canonical_url(text)
        except ValueError as exc:
            errors.append(LineError(offset, text, str(exc)))
        else:
            pairs.append(KeyValuePair(key, offset))
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
    """Host of the url's canonical form, as it is written there without
    an IPv6 literal's brackets; credentials and port drop away.

    Raises ValueError for any url canonical_url rejects.
    """
    netloc = urlsplit(canonical_url(url)).netloc
    return netloc[1 : netloc.index("]")] if netloc[:1] == "[" else netloc.partition(":")[0]


def partition(url: str, reducers: int) -> int:
    """Bucket index for a url: (FNV-1a of its host * reducers) >> 64.

    Hashing the host co-locates every url of one host, which lets
    reduce_fetch serialize per host; the hash ranges ascend with the index.
    """
    if reducers < 1:
        raise ValueError("reducers must be >= 1")
    return (fnv1a_64(host_of(url).encode("utf-8")) * reducers) >> 64


def reduce_fetch(
    bucket: list[KeyValuePair],
    fetcher: Fetcher,
    fetch_lanes: int = DEFAULT_FETCH_LANES,
    per_host_delay: float = 0.0,
) -> list[FetchResult]:
    """Fetch every distinct url in a bucket, at most once each.

    Urls are grouped by host. One host's urls run sequentially on a
    single lane with at least per_host_delay seconds between requests;
    different hosts run concurrently on up to fetch_lanes lanes, when
    there is a wait to overlap. Without one, because the fetcher sets
    ``waits = False`` and per_host_delay is 0, or when at most one lane
    could run, the hosts run one after another in the calling thread. A
    failed fetch is recorded and never aborts the bucket. Results come
    back in (host hash, host, url) order, whatever the lanes' schedule.
    """
    if fetch_lanes < 1:
        raise ValueError("fetch_lanes must be >= 1")
    if not 0.0 <= per_host_delay < math.inf:  # also false for nan
        raise ValueError("per_host_delay must be finite and >= 0")
    by_host: dict[str, list[str]] = {}
    for url in dict.fromkeys(pair.key for pair in bucket):
        by_host.setdefault(host_of(url), []).append(url)

    def fetch_host(host_urls: list[str]) -> list[FetchResult]:
        results: list[FetchResult] = []
        for position, url in enumerate(host_urls):
            if position and per_host_delay > 0:
                time.sleep(per_host_delay)
            try:
                results.append(fetcher.fetch(url))
            except Exception as exc:  # noqa: BLE001 - a raising fetcher must not kill the lane
                results.append(FetchResult.failure(url, f"{type(exc).__name__}: {exc}"))
        return results

    hosts = sorted(by_host, key=lambda host: (fnv1a_64(host.encode("utf-8")), host))
    jobs = (sorted(by_host[host]) for host in hosts)
    waits = getattr(fetcher, "waits", True) or per_host_delay > 0
    if not waits or min(fetch_lanes, len(hosts)) <= 1:
        return [r for job in jobs for r in fetch_host(job)]
    from concurrent.futures import ThreadPoolExecutor  # only a fetch that waits needs lanes

    with ThreadPoolExecutor(max_workers=fetch_lanes) as pool:
        chunks = pool.map(fetch_host, jobs)
        return [r for chunk in chunks for r in chunk]


# -- the page tokenizer ------------------------------------------------------
#
# One regular expression reads a page the way html.parser's HTMLParser
# reads it: every match starts at a "<" and is one whole construct, and the
# text between matches is data. Each piece follows html.parser's own
# pattern or scan for that construct, so a "<a" inside a comment, a script
# or an attribute value is never taken for an anchor.

_TAG_NAME_END = r"(?![^\t\n\r\f />\x00])"
_TAG_GAP = r"(?:\s|/(?!>))*"
_ATTRIBUTE_NAME = r"""(?<=['"\s/])[^\s/>][^\s/=>]*"""
_ATTRIBUTE_VALUE = r"""'[^']*'|"[^"]*"|(?!['"])[^>\s]*"""
# html.parser's attrfind_tolerant; groups: name, "=" and value, value
_ATTRIBUTE = re.compile(rf"({_ATTRIBUTE_NAME})(\s*=+\s*({_ATTRIBUTE_VALUE}))?{_TAG_GAP}")
_MARKED_SECTIONS = "temp|cdata|ignore|include|rcdata"
_OFFICE_SECTIONS = "if|else|endif"


def _nocase(word: str) -> str:
    return "".join(f"[{c}{c.upper()}]" for c in word)


def _start_tag(name: str | None, group: str, attributes: str | None = None) -> str:
    """A start tag after its "<", up to but not including its "/>" or ">".

    The tag name and attribute list sit in a lookahead, which keeps its
    first (greedy) match as parse_starttag's regex loop does, and a
    backreference to ``group`` consumes it, so no later part of the
    pattern can split them differently. The first letter stays outside,
    which lets the alternation skip a tag on its first character.
    ``attributes`` names a group around the attribute list.
    """
    if name is None:
        first, rest = "[a-zA-Z]", r"[^\t\n\r\f />\x00]*"
    else:
        first, rest = _nocase(name[0]), _nocase(name[1:]) + _TAG_NAME_END
    attribute_list = rf"(?:{_ATTRIBUTE_NAME}(?:\s*=+\s*(?:{_ATTRIBUTE_VALUE}))?{_TAG_GAP})*"
    if attributes:
        attribute_list = f"(?P<{attributes}>{attribute_list})"
    return rf"{first}(?=(?P<{group}>{rest}{_TAG_GAP}{attribute_list}))(?P={group})"


def _raw_text(name: str) -> str:
    """A script or style element, whose text is data without markup.

    The text runs to the first end tag of its name. Without one, the rest
    of the page is read no further: html.parser passes on only the text up
    to its last "</name>" spelled with a non-ASCII letter that matches
    case-insensitively (ſ for s, İ or ı for i), in group ``name_cut``.
    """
    return _start_tag(name, f"{name}_tag") + (
        rf">(?:(?P<{name}>.*?)</\s*{_nocase(name)}\s*>"
        rf"|(?P<{name}_cut>.*</\s*(?i:{name})\s*>)?.*)"
    )


# A match's lastgroup says what it is: "a" and "meta" start tags; "title",
# a title start tag whose group holds its "/>" or ">"; "title_end"; one of
# _RAW_TEXT, script or style text that is data verbatim; "junk", a start
# tag html.parser passes on verbatim as data; and "data", a stray "<" or a
# construct the end of the page cuts off, which is data up to its next ">"
# or "<". Any other lastgroup, or none, is markup without effect on the
# fields.
_RAW_TEXT = ("script", "style", "script_cut", "style_cut")
_TOKEN = re.compile(
    "<(?:"
    + "|".join(
        [
            rf"/(?:(?P<title_end>\s*{_nocase('title')}\s*>"
            rf"|{_nocase('title')}[\t\n\r\f /\x00][^>]*>)|[^>]*>)",
            _start_tag("a", "a", attributes="a_attributes") + "/?>",
            _start_tag("meta", "meta", attributes="meta_attributes") + "/?>",
            _start_tag("title", "title_tag") + "(?P<title>/?>)",
            _raw_text("script"),
            _raw_text("style"),
            _start_tag(None, "tag") + "/?>",
            r"!--.*?--\s*>",
            rf"!\[(?ai:{_MARKED_SECTIONS})(?![-_.a-zA-Z0-9]).*?\]\s*\]\s*>",
            rf"!\[(?ai:{_OFFICE_SECTIONS})(?![-_.a-zA-Z0-9]).*?\]\s*>",
            # <!DOCTYPE ...>, <!>, and a <![ that html.parser cannot read
            rf"!(?!--|\[(?ai:{_MARKED_SECTIONS}|{_OFFICE_SECTIONS})(?![-_.a-zA-Z0-9]))[^>]*>",
            r"\?[^>]*>",
            rf"(?P<junk>{_start_tag(None, 'junk_tag')}(?=[^a-zA-Z=/>]))",
            r"(?P<data>(?![a-zA-Z/!?])|[^>]*>|[^<]*)",
        ]
    )
    + ")",
    re.DOTALL,
)


def _attributes(text: str, start: int, end: int) -> list[tuple[str, str | None]]:
    """A start tag's (name, value) pairs as html.parser gives them: names
    lowercased, quotes stripped, values unescaped, None without "="."""
    pairs = []
    for name, assignment, value in _ATTRIBUTE.findall(text, start, end):
        if not assignment:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value:
            value = html.unescape(value)
        pairs.append((name.lower(), value))
    return pairs


def _comment_count(content: str) -> int | None:
    """The count a comment meta holds: plain ASCII digits int() accepts."""
    digits = content.strip()
    if digits.isdigit() and digits.isascii():
        try:
            return int(digits)
        except ValueError:  # past the interpreter's limit on int digits
            pass
    return None


def extract_fields(body: bytes) -> tuple[str, str, str, int, list[str]]:
    """(title, keywords, media, comment_count, hrefs) from one pass over page bytes.

    The bytes are decoded by store.decode_page, the policy a record's
    content is read with too, and one _TOKEN scan reads them to the end;
    this never raises. The title is the first title's text, to the first
    </title> or <title/> or the end of the page, with the text between
    constructs unescaped and script or style text and junk start tags
    verbatim, as html.parser has it. Keywords and media come from the
    first such meta, comment_count from the last comment meta holding
    plain ASCII digits (else 0); anything missing comes back empty. hrefs
    holds each anchor's first non-empty href, unresolved, in page order;
    extract_links turns them into links.
    """
    text = decode_page(body)
    title: list[str] | None = None
    title_open = False
    position = 0  # where the open title's unread text starts
    keywords = media = ""
    comment_count = 0
    hrefs: list[str] = []
    for token in _TOKEN.finditer(text):
        kind = token.lastgroup
        if title_open:
            title.append(html.unescape(text[position : token.start()]))
            position = token.end()
            if kind == "data":
                title.append(html.unescape(token[0]))
            elif kind == "junk":
                title.append(token[0])
            elif kind in _RAW_TEXT:
                title.append(token[kind])
            elif kind == "title_end" or kind == "title" and token[kind] == "/>":
                title_open = False
        if kind == "a":
            attributes = _attributes(text, *token.span("a_attributes"))
            href = next((value for name, value in attributes if name == "href" and value), None)
            if href is not None:
                hrefs.append(href)
        elif kind == "meta":
            attributes = _attributes(text, *token.span("meta_attributes"))
            attr_map = {name: (value or "") for name, value in attributes}
            name = attr_map.get("name", "").lower()
            content = attr_map.get("content", "")
            if name == "keywords" and not keywords:
                keywords = content
            elif name in ("media", "mediaid", "source") and not media:
                media = content
            elif name in ("comment", "comments", "comment_count", "commentcount"):
                count = _comment_count(content)
                if count is not None:
                    comment_count = count
        elif kind == "title" and title is None:
            # <title/> opens and closes an empty title
            title, title_open, position = [], token[kind] == ">", token.end()
    if title_open:
        title.append(html.unescape(text[position:]))
    return "".join(title or ()).strip(), keywords, media, comment_count, hrefs


def extract_links(
    hrefs: list[str], base_url: str, canonical: dict[str, str] | None = None
) -> list[str]:
    """A page's hrefs resolved against base_url, in canonical form.

    An href is trimmed of whitespace at its ends; one still holding a
    control character is dropped, whatever its scheme, since urljoin
    deletes or keeps those depending on the scheme. Each link is the
    canonical_url of the resolved href, which drops its fragment; hrefs
    it rejects are dropped, and the first occurrence of a link wins.

    ``canonical`` maps each resolved href to its link, and is filled as
    hrefs are resolved. run_pipeline passes one dict for the whole run, so
    each distinct link is canonicalized once and is one str in every page
    that names it; without one, the call makes its own.
    """
    if canonical is None:
        canonical = {}
    links: dict[str, None] = {}
    for href in hrefs:
        href = href.strip()
        if not URL_CONTROL_CHARS.isdisjoint(href):
            continue
        try:
            url = urljoin(base_url, href)  # raises ValueError on a malformed IPv6 literal
            link = canonical.get(url)
            if link is None:
                link = canonical_url(url)
                # a link is its own canonical form, so it maps to itself too:
                # however it is spelled, it is one str
                link = canonical[url] = canonical.setdefault(link, link)
        except ValueError:
            continue
        links[link] = None
    return list(links)


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

    Within one run each url is requested at most once, even across
    rounds and however it is spelled, and each page is stored once. Pages
    are fetched under their canonical urls and stored, with extracted
    fields and out links, under the canonical form of the url they came
    from after any redirect (the requested url when the rule rejects that
    one). That url is known only after the fetch and counts as attempted
    from then on, so a seed redirecting to another seed of its round is
    fetched beside it. A round stores its pages in (host hash, host, url)
    order, whatever ``config.reducers``. Round 1 fetches every seed, stored
    or not. In later rounds, just before a bucket is fetched, each of its
    urls that the store held before the run is served from the store: it
    counts as attempted and is left out of what reduce_fetch gets. Once a
    bucket's pages are stored, each url it served or stored adds its
    record's out links, even where that record holds another fetch's
    page, and the next round's seed file lists those not yet attempted,
    sorted. So a rerun over a whole prefix of a run's records ends with
    that run's store and dumps: with ``config.dump_dir`` set, each stage's
    key-sorted output is written there as tab-separated text.
    """
    summary = CrawlSummary()
    attempted: set[str] = set()
    canonical: dict[str, str] = {}  # resolved href -> link, for extract_links

    dump_dir = config.dump_dir
    if dump_dir is not None:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
    current_seed = seed_bytes
    for round_index in range(1, config.rounds + 1):
        splits = split_input(current_seed, config.split_size)
        seed_lines = sum(len(s.lines) for s in splits)
        combined_per_split: list[list[KeyValuePair]] = []
        mapped_all: list[KeyValuePair] = []  # read only by the dump
        round_errors = 0
        for split in splits:
            pairs, errors = map_swap(split)
            summary.invalid_lines.extend(errors)
            round_errors += len(errors)
            if dump_dir is not None:
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
        splits = combined_per_split = mapped_all = None  # the seed stages go before the fetch
        fetched = from_store = stored_new = round_bytes = 0
        discovered: set[str] = set()
        for bucket_index, bucket in enumerate(buckets):
            if dump_dir is not None:
                _dump_pairs(dump_dir / f"round{round_index}_bucket{bucket_index}.tsv", bucket)
            expanded: set[str] = set()  # the stored urls whose records give the round's links
            if round_index > 1:
                # a url an earlier bucket of the round redirected to is fetched, as
                # from an empty store: only what an earlier run stored is served
                expanded = {p.key for p in bucket if p.key not in attempted and p.key in store}
                attempted |= expanded
                from_store += len(expanded)
                bucket = [pair for pair in bucket if pair.key not in expanded]
            pages: list[FetchedPage] = []
            for result in reduce_fetch(bucket, fetcher, config.fetch_lanes, config.per_host_delay):
                attempted.add(result.url)
                if not result.ok:
                    summary.fetch_errors.append((result.url, result.reason))
                    round_errors += 1
                    continue
                url = result.url
                if result.final_url != url:
                    try:
                        url = canonical_url(result.final_url)
                    except ValueError:  # the rule rejects the final url: keep the one asked for
                        pass
                    attempted.add(url)
                fetched += 1
                round_bytes += len(result.body)
                *fields, hrefs = extract_fields(result.body)  # in FetchedPage order
                links = extract_links(hrefs, result.final_url, canonical)
                pages.append(FetchedPage(url, result.body, *fields, links))
                expanded.add(url)
            stored_new += sum(inserted for _page_id, inserted in store.put_many(pages))
            pages = result = None  # the bucket's bodies go before the next bucket is fetched
            for url in expanded:
                discovered.update(store.out_links(url))
        summary.rounds.append(
            RoundStats(seed_lines, fetched, from_store, stored_new, round_errors, round_bytes)
        )
        if round_index == config.rounds:
            break
        current_seed = "".join(f"{url}\n" for url in sorted(discovered - attempted)).encode()
    return summary
