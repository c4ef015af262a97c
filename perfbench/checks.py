"""Output checks for the benchmark's passes.

Every expected value is computed here, from the generator's own data or
from properties the rank method must have, never from a saved copy of
an earlier run. A check that fails raises CheckFailed with the first
difference it found.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

# Ranks must agree with ``jacobi_ranks`` to within the convergence
# threshold: both stop on the same rule, so at worst they differ by one
# iterate, and one iterate moves no value by more than the summed change
# that stopped the run.
RANK_TOLERANCE = 1e-6
DAMPING = 0.85
EPS = 1e-6

_FNV_OFFSET_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class CheckFailed(Exception):
    """A pass produced output that differs from what the inputs imply."""


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a, from the published offset basis and prime."""
    h = _FNV_OFFSET_BASIS
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def bfs_reach(links: dict[str, list[str]], seeds: list[str], rounds: int) -> set[str]:
    """Urls a crawl of ``rounds`` rounds stores when every fetch succeeds."""
    reached: set[str] = set()
    frontier = list(dict.fromkeys(seeds))
    for round_index in range(rounds):
        reached.update(frontier)
        if round_index == rounds - 1:
            break
        frontier = list(
            dict.fromkeys(t for url in frontier for t in links[url] if t not in reached)
        )
    return reached


def read_records(store_dir: Path) -> list[dict]:
    meta = store_dir / "meta.jsonl"
    return [json.loads(line) for line in meta.read_text(encoding="utf-8").splitlines() if line]


def check_fresh_store(
    store_dir: Path,
    pages: dict[str, bytes],
    expected_urls: set[str],
    expected_hashes: dict[str, int],
) -> list[dict]:
    """A freshly crawled store holds exactly the reachable pages, byte for byte."""
    records = read_records(store_dir)
    ids = [record["id"] for record in records]
    if ids != list(range(1, len(records) + 1)):
        raise CheckFailed(f"store ids are not dense from 1: {ids[:5]}...")
    urls = [record["url"] for record in records]
    if len(set(urls)) != len(urls):
        raise CheckFailed("store holds a url twice")
    if set(urls) != expected_urls:
        missing = sorted(expected_urls - set(urls))[:3]
        extra = sorted(set(urls) - expected_urls)[:3]
        raise CheckFailed(
            f"stored urls differ from the crawl walk: missing {missing}, extra {extra}"
        )
    raw_dir = store_dir / "raw"
    raw_names = set(os.listdir(raw_dir))
    if raw_names != {str(i) for i in ids}:
        raise CheckFailed(f"raw/ holds {len(raw_names)} files for {len(ids)} records")
    for record in records:
        url = record["url"]
        if (raw_dir / str(record["id"])).read_bytes() != pages[url]:
            raise CheckFailed(f"raw/{record['id']} differs from the corpus body of {url}")
        if record["content_hash"] != expected_hashes[url]:
            raise CheckFailed(f"content hash of {url} is not its FNV-1a")
    return records


def expected_edges(records: list[dict], links: dict[str, list[str]]) -> list[tuple[int, int]]:
    """The generator's links among stored pages, as sorted (source id, dest id)."""
    id_of = {record["url"]: record["id"] for record in records}
    return sorted(
        {(id_of[url], id_of[t]) for url in id_of for t in links[url] if t in id_of}
    )


def check_graph_file(path: Path, vertex_count: int, edges: list[tuple[int, int]]) -> None:
    """The whole-graph file is one partition: vertex count, edge count, sorted rows."""
    expected = f"{vertex_count}\n{len(edges)}\n" + "".join(f"{s} {d}\n" for s, d in edges)
    if path.read_text(encoding="ascii") != expected:
        raise CheckFailed(f"{path.name}: exported graph differs from the generator's links")


def format_ranks(values: dict[int, float]) -> str:
    """Result-file text: ``<id>\\t<value>`` at 15 significant digits, ascending id."""
    return "".join(f"{vid}\t{values[vid]:.15g}\n" for vid in sorted(values))


def parse_ranks(text: str) -> dict[int, float]:
    values = {}
    for line in text.splitlines():
        vid, _, value = line.partition("\t")
        values[int(vid)] = float(value)
    return values


def jacobi_ranks(
    vertex_ids, edges, damping: float = DAMPING, eps: float = EPS, max_iters: int = 1000
) -> dict[int, float]:
    """Jacobi iteration of ``x = (1 - d) + d * sum(x[u] / outdeg(u))``.

    Starts from all ones and returns the first iterate whose summed
    absolute change is below eps, the rule the program stops on. Incoming
    sums are taken with math.fsum, so this is an independent computation,
    not a copy of the program's summation order.
    """
    ids = sorted(vertex_ids)
    index = {vid: i for i, vid in enumerate(ids)}
    out_degree = [0] * len(ids)
    incoming: list[list[int]] = [[] for _ in ids]
    for src, dst in set(edges):
        out_degree[index[src]] += 1
        incoming[index[dst]].append(index[src])
    values = [1.0] * len(ids)
    for _ in range(max_iters):
        share = [v / d if d else 0.0 for v, d in zip(values, out_degree)]
        new = [(1.0 - damping) + damping * math.fsum(share[u] for u in ins) for ins in incoming]
        delta = math.fsum(abs(a - b) for a, b in zip(values, new))
        values = new
        if delta < eps:
            break
    return dict(zip(ids, values))


def check_ranks(
    text: str,
    vertex_ids,
    jacobi: dict[int, float],
    oracle_text: str | None = None,
    dangling: bool = True,
    damping: float = DAMPING,
) -> None:
    """Check a merged result file.

    ``oracle_text`` is the program's ``power_iteration_oracle`` result in
    result-file format; the file must equal it byte for byte. The values
    must match the benchmark's Jacobi iteration within RANK_TOLERANCE, be
    at least 1 - damping, and sum to at most the vertex count, or to the
    vertex count itself when no vertex is dangling.
    """
    if oracle_text is not None and text != oracle_text:
        for got, want in zip(text.splitlines(), oracle_text.splitlines()):
            if got != want:
                raise CheckFailed(f"rank line {got!r} differs from the oracle's {want!r}")
        raise CheckFailed("rank file length differs from the oracle's")
    values = parse_ranks(text)
    if set(values) != set(vertex_ids):
        raise CheckFailed(
            f"rank file names {len(values)} vertices, the graph has {len(vertex_ids)}"
        )
    worst = max(values, key=lambda vid: abs(values[vid] - jacobi[vid]))
    if abs(values[worst] - jacobi[worst]) > RANK_TOLERANCE:
        raise CheckFailed(
            f"vertex {worst}: rank {values[worst]!r} but Jacobi gives {jacobi[worst]!r}"
        )
    # Values are printed to 15 significant digits, hence the relative slack.
    floor = (1.0 - damping) * (1 - 1e-14)
    low = min(values, key=values.get)
    if values[low] < floor:
        raise CheckFailed(f"vertex {low}: rank {values[low]!r} is below 1 - damping")
    total = math.fsum(values.values())
    count = len(values)
    if total > count * (1 + 1e-12):
        raise CheckFailed(f"ranks sum to {total!r}, more than the vertex count {count}")
    if not dangling and abs(total - count) > count * 1e-9:
        raise CheckFailed(f"ranks sum to {total!r}, not the vertex count {count}")


def tree_digest(directory: Path) -> str:
    """SHA-256 over every path and file body under a directory."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        rel = os.path.relpath(root, directory)
        digest.update(f"d {rel}\n".encode())
        for name in sorted(files):
            body = Path(root, name).read_bytes()
            digest.update(f"f {name} {len(body)}\n".encode())
            digest.update(body)
    return digest.hexdigest()
