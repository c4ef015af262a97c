"""Bitwise parity checks for the running interpreter.

Ranks ``helpers.big_graph()`` and ten random dangling graphs through the
engine at 1 to 4 workers, from partitions written and read back through
the file format (``emit_partition``, then ``parse_partition``, which must
return them unchanged), and compares every value with
``power_iteration_oracle`` by ``float.hex``; each run takes the rank
program's whole-superstep hook and is also compared, value and
superstep count, with a run of the per-vertex reference
(``helpers.PerVertexRank``, whose ``pagerank_compute`` receives message
lists). Then it checks the engine's message fold on seeded dangling
graphs whose senders send -0.0, infinities, nan, ordinary floats or
nothing: every combined total must equal, by ``float.hex``, a left fold
that skips the silent senders (``helpers.fold_totals``). Then it hashes
fixed seeded batches of bodies with ``fnv1a_64_many`` and compares each
hash with ``fnv1a_64``, and hashes bodies that span more than two of its
transposed blocks under ``tracemalloc`` (``helpers.traced_hash_blocks``):
the traced peak must stay under ``helpers.HASH_BLOCKS_BOUND`` blocks.
Then it writes a graph of 20,000 edges as one
partition file and as four, and sets the engine up on them under
``tracemalloc`` as ``crawlrank pagerank`` does, each file parsed when the
engine reads it (``helpers.traced_bytes_per_edge``): the traced peak must
stay under ``helpers.BYTES_PER_EDGE_BOUND`` bytes per edge, since object
sizes differ between interpreters, and each vertex id must be one int
object throughout its partition. Then it checks ``canonical_url`` on each
url of ``helpers.URL_EXAMPLES``: it must give the pinned canonical form,
which must be its own canonical form, or raise ValueError where the pin
is None. Then it reads each page of
``helpers.EXTRACTION_EXAMPLES`` with ``extract_fields`` and compares the
fields twice: with ``helpers.EXTRACTION_FIELDS``, the fields pinned from
Python 3.11.7's html.parser, and with ``helpers.reference_extract_fields``,
which reads the page with the interpreter's own html.parser. So a failure
of only the second kind is a change in html.parser, not in
``extract_fields``. Last, it crawls ``helpers.wide_corpus()`` with the
mock fetcher at 1, 3 and 7 reducers, builds the graph for 4 workers and
ranks it, as ``crawlrank pipeline`` does, and compares the SHA-256 of the
store, graph and rank trees of each bucket count with
``WHOLE_RUN_DIGESTS``. It needs only the standard library, so it runs on
interpreters that have no pytest:

    python3.10 scripts/parity_versions.py

Prints one line per graph, per fold case, per batch, per memory bound, per
url, per page and per bucket count and tree, and exits 1 if any check
fails.
"""

from __future__ import annotations

import math
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from crawlrank import (  # noqa: E402
    MockFetcher,
    PipelineConfig,
    canonical_url,
    emit_partition,
    extract_fields,
    fnv1a_64,
    fnv1a_64_many,
    parse_partition,
    partition_graph,
    power_iteration_oracle,
    run,
    run_pagerank,
)
from helpers import (  # noqa: E402
    BYTES_PER_EDGE_BOUND,
    EXTRACTION_EXAMPLES,
    EXTRACTION_FIELDS,
    HASH_BLOCKS_BOUND,
    URL_EXAMPLES,
    PerVertexRank,
    big_graph,
    fold_totals,
    random_dangling_graph,
    reference_extract_fields,
    seed_with_duplicates,
    shares_id_objects,
    traced_bytes_per_edge,
    traced_hash_blocks,
    whole_run_digests,
    wide_corpus,
)

WORKERS = (1, 2, 3, 4)
# The bucket counts of the whole run; the store order does not depend on them.
REDUCERS = (1, 3, 7)

# SHA-256 of each tree ``whole_run`` writes, at each of REDUCERS, as Python 3.11.7 writes it.
WHOLE_RUN_DIGESTS = {
    "store": "75bacf97cd2c5f6878cba525b0098c0a97c319c08578f2ab39077e733980b697",
    "graph": "f4833c7bd1cee8722f71aaa6efef1e0bdc55cb2c87a418aefae881e2020c1aff",
    "ranks": "10a2867486b29df3ebe9483554d465ded70eef41be26dc9fc338feb4895df840",
}


def graphs():
    yield "big_graph", big_graph()
    for seed in range(10):
        yield f"dangling seed {seed}", random_dangling_graph(random.Random(seed))


def fold_cases():
    """Dangling graphs whose senders send special floats, ordinary ones or
    nothing; the smallest sender always stays silent."""
    for seed in range(10):
        rng = random.Random(seed)
        graph = random_dangling_graph(rng)
        choices = [None, -0.0, math.inf, -math.inf, math.nan]
        sources = sorted({src for src, _ in graph.edges})
        sends = {src: rng.choice([*choices, rng.uniform(-1e16, 1e16)]) for src in sources}
        sends[sources[0]] = None
        yield f"dangling seed {seed}", graph, sends


def body_batches():
    """Ragged batches on both sides of the lockstep hash's scalar threshold."""
    yield "no bodies", []
    for seed, (count, longest) in enumerate([(3, 500), (12, 200), (60, 3000), (40, 40000)]):
        rng = random.Random(seed)
        bodies = [rng.randbytes(rng.randrange(longest + 1)) for _ in range(count)]
        yield f"{count} bodies up to {longest} bytes", [*bodies, b"", bytes(range(256))]


def whole_run(reducers: int) -> dict[str, str]:
    """The tree digests of a two-round crawl of ``helpers.wide_corpus()``
    at ``reducers`` buckets, from a seed file naming each page, 25 of them
    twice, with the graph built from the store for 4 workers and its
    ranks (``helpers.whole_run_digests``)."""
    corpus, urls = wide_corpus()
    config = PipelineConfig(split_size=512, reducers=reducers, fetch_lanes=8, rounds=2)
    with tempfile.TemporaryDirectory() as tmp:
        return whole_run_digests(Path(tmp), seed_with_duplicates(urls), config, MockFetcher(corpus))


def main() -> int:
    version = sys.version.split()[0]
    failed = 0
    for name, graph in graphs():
        expected = {vid: value.hex() for vid, value in power_iteration_oracle(graph).items()}
        bad = []
        for workers in WORKERS:
            direct = partition_graph(graph.edges, workers)
            # Through the file format, as a rank run reads its graph.
            partitions = [parse_partition(emit_partition(part)) for part in direct]
            report = run_pagerank(partitions)
            per_vertex = run(partitions, PerVertexRank())
            got = {vid: value.hex() for vid, value in report.final_values.items()}
            got_per_vertex = {vid: value.hex() for vid, value in per_vertex.final_values.items()}
            if (
                partitions != direct
                or not report.halted_naturally
                or got != expected
                or got_per_vertex != expected
                or per_vertex.supersteps_executed != report.supersteps_executed
            ):
                bad.append(workers)
        failed += bool(bad)
        verdict = f"FAIL at workers {bad}" if bad else "ok"
        print(f"python {version}: {name} ({len(graph.vertex_ids)} vertices): {verdict}")
    for name, graph, sends in fold_cases():
        bad = []
        for workers in WORKERS:
            got, expected = fold_totals(graph, sends, workers)
            if got != expected:
                bad.append(workers)
        failed += bool(bad)
        verdict = f"FAIL at workers {bad}" if bad else "ok"
        print(f"python {version}: message fold, {name}: {verdict}")
    for name, bodies in body_batches():
        ok = fnv1a_64_many(bodies) == [fnv1a_64(body) for body in bodies]
        failed += not ok
        print(f"python {version}: fnv1a_64_many, {name}: {'ok' if ok else 'FAIL'}")
    blocks = traced_hash_blocks()
    ok = blocks < HASH_BLOCKS_BOUND
    failed += not ok
    print(
        f"python {version}: fnv1a_64_many, peak beyond the bodies {blocks:.2f} blocks "
        f"(bound {HASH_BLOCKS_BOUND}): {'ok' if ok else 'FAIL'}"
    )
    for workers in (1, 4):
        bytes_per_edge, parts = traced_bytes_per_edge(workers)
        ok = bytes_per_edge < BYTES_PER_EDGE_BOUND and all(map(shares_id_objects, parts))
        failed += not ok
        print(
            f"python {version}: parse and engine set-up, workers={workers}, "
            f"{bytes_per_edge:.1f} bytes per edge (bound {BYTES_PER_EDGE_BOUND}), "
            f"ids shared: {'ok' if ok else 'FAIL'}"
        )
    for url, pinned in URL_EXAMPLES:
        try:
            canon = canonical_url(url)
            ok = canon == pinned and canonical_url(canon) == canon
        except ValueError:
            ok = pinned is None
        failed += not ok
        print(f"python {version}: canonical_url, {url!r}: {'ok' if ok else 'FAIL'}")
    for index, (page, pinned) in enumerate(zip(EXTRACTION_EXAMPLES, EXTRACTION_FIELDS)):
        body = page.encode("utf-8")
        fields = extract_fields(body)
        live = reference_extract_fields(body)
        for against, expected in (("pinned fields", pinned), ("html.parser", live)):
            ok = fields == expected
            failed += not ok
            print(
                f"python {version}: extract_fields, example page {index}, "
                f"against {against}: {'ok' if ok else 'FAIL'}"
            )
    for reducers in REDUCERS:
        for name, digest in whole_run(reducers).items():
            ok = digest == WHOLE_RUN_DIGESTS[name]
            failed += not ok
            verdict = "ok" if ok else "FAIL " + digest
            print(f"python {version}: whole run, reducers={reducers}, {name} tree: {verdict}")
    print(f"python {version}: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
