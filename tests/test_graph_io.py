import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawlrank import (
    ConsistencyError,
    EdgeList,
    FormatError,
    GraphPartition,
    OwnershipError,
    PageRankProgram,
    assign_worker,
    emit_partition,
    make_edge_list,
    parse_partition,
    partition_graph,
    partition_path,
    run,
)
from crawlrank.cli import PartitionFiles
from crawlrank.graph_io import _CHUNK
from helpers import (
    BYTES_PER_EDGE_BOUND,
    PerVertexRank,
    from_rows,
    mixed_rank_graph,
    random_partition,
    reference_parse_partition,
    shares_id_objects,
    traced_bytes_per_edge,
)


def test_parse_minimal_partition():
    part = parse_partition("1\n1\n2 20\n")
    assert part == GraphPartition(1, [2], [20])


def test_parse_empty_partition():
    assert parse_partition("0\n0\n") == GraphPartition(0, [], [])


def test_parse_keeps_row_order():
    text = "2\n3\n4 1\n0 9\n0 2\n"
    part = parse_partition(text)
    assert part.sources == [4, 0, 0] and part.dests == [1, 9, 2]


def test_edges_zip_the_columns_and_are_read_only():
    part = GraphPartition(2, [0, 0], [9, 2])
    assert part.edges == [(0, 9), (0, 2)]
    with pytest.raises(AttributeError):
        part.edges = []


def test_columns_of_different_lengths_are_refused():
    part = GraphPartition(1, [0, 0], [1])
    with pytest.raises(ValueError):
        emit_partition(part)
    with pytest.raises(ValueError):
        run([part], OutEdges())


def test_parse_and_engine_setup_stay_under_the_bytes_per_edge_bound(monkeypatch):
    # the rank path reads the columns, never a list of pairs
    monkeypatch.setattr(GraphPartition, "edges", property(lambda part: pytest.fail("read edges")))
    # one file holds every row, so its parse must not grow with the file
    for workers in (1, 4):
        bytes_per_edge, parts = traced_bytes_per_edge(workers)
        assert bytes_per_edge < BYTES_PER_EDGE_BOUND, (workers, bytes_per_edge)
        assert all(map(shares_id_objects, parts))


def test_parse_rejects_missing_final_newline():
    with pytest.raises(FormatError, match="newline"):
        parse_partition("1\n1\n0 1")


def test_parse_rejects_header_body_mismatch():
    with pytest.raises(FormatError, match="line 2"):
        parse_partition("1\n2\n0 1\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_partition("1\n0\n0 1\n")


def test_parse_rejects_non_numeric():
    with pytest.raises(FormatError, match="line 1"):
        parse_partition("x\n0\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_partition("1\n1\n0 b\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_partition("1\n1\n-1 2\n")
    # only plain ASCII digits emit back byte for byte
    for row in ("03 1", "0 01", "\u0663 1", "\u00b2 1", "\uff11 1", "+1 1"):
        with pytest.raises(FormatError, match="line 3"):
            parse_partition(f"1\n1\n{row}\n")
    for header in ("01\n0\n", "0\n00\n"):
        with pytest.raises(FormatError, match="line [12]"):
            parse_partition(header)


def test_parse_rejects_numbers_too_long_for_int():
    # int() refuses more digits than sys.get_int_max_str_digits() (4300 by default)
    huge = "4" * 5000
    for text, line in [
        (f"1\n1\n{huge} 1\n", 3),
        (f"1\n1\n0 {huge}\n", 3),
        (f"{huge}\n0\n", 1),
        (f"0\n{huge}\n", 2),
    ]:
        with pytest.raises(FormatError, match=f"^line {line}: .* has too many digits"):
            parse_partition(text)


def test_parse_rejects_malformed_rows():
    for row in ("0", "0  1", "0 1 2", "", " 0 1"):
        with pytest.raises(FormatError, match="line 3"):
            parse_partition(f"1\n1\n{row}\n")


def test_parse_rejects_duplicate_rows():
    with pytest.raises(FormatError, match="duplicate"):
        parse_partition("1\n2\n0 1\n0 1\n")


def test_parse_rejects_empty_text():
    with pytest.raises(FormatError):
        parse_partition("")
    with pytest.raises(FormatError):
        parse_partition("3\n")


def test_emit_golden():
    assert emit_partition(GraphPartition(0, [], [])) == "0\n0\n"
    assert emit_partition(GraphPartition(1, [2], [20])) == "1\n1\n2 20\n"


def test_round_trip_both_directions_sampled():
    rng = random.Random(11)
    for _ in range(50):
        part = random_partition(rng)
        text = emit_partition(part)
        assert parse_partition(text) == part
        assert emit_partition(parse_partition(text)) == text


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 99)),
        max_size=25,
        unique=True,
    )
)
def test_round_trip_property(edges):
    part = from_rows(len({s for s, _ in edges}), edges)
    text = emit_partition(part)
    assert parse_partition(text) == part
    assert emit_partition(parse_partition(text)) == text


def outcome(parse, text):
    """A parse's partition, or the type and message of what it raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_columns_equal_the_line_loop_on_valid_text(data):
    ids = st.integers(0, 10**30)
    edges = data.draw(st.lists(st.tuples(ids, ids), max_size=40, unique=True))
    if data.draw(st.booleans()):  # ascending, as partition_graph writes rows
        edges.sort()
    vertex_count = data.draw(st.integers(0, 3 + len(edges)))
    text = emit_partition(from_rows(vertex_count, edges))
    part = parse_partition(text)
    assert part == reference_parse_partition(text)
    assert part == from_rows(vertex_count, edges)


def long_partition(rng: random.Random) -> GraphPartition:
    """A random well-formed partition whose rows fill two to four chunks."""
    rows = {(rng.randrange(1000), rng.randrange(1000)) for _ in range(rng.randrange(600, 1500))}
    return from_rows(rng.randrange(1000), list(rows))


HUGE = "4" * 5000  # past int()'s default limit of 4300 digits


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_columns_fail_exactly_as_the_line_loop(data):
    # near-valid text: a valid partition, short or longer than a chunk, its
    # rows in ascending order or not, a few rows copied or given a number
    # past the int digit limit, then a few characters swapped in anywhere or
    # next to the end of the first chunk. One drawn seed, not a
    # hypothesis-driven Random, whose every call would draw from the
    # example's bounded entropy and fail the data_too_large check
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    part = long_partition(rng) if data.draw(st.booleans()) else random_partition(rng)
    pairs = list(zip(part.sources, part.dests))
    rows = [f"{src} {dst}" for src, dst in (sorted(pairs) if data.draw(st.booleans()) else pairs)]
    for _ in range(data.draw(st.integers(0, 2))):
        # anywhere, or at the first chunk's last row or the next chunk's first
        boundary = "".join(f"{row}\n" for row in rows).count("\n", 0, _CHUNK)
        at = data.draw(st.integers(0, len(rows)) | st.integers(boundary, boundary + 1))
        at = min(at, len(rows))
        if at and data.draw(st.booleans()):  # a copy of an earlier row, most often the last
            rows.insert(at, rows[at - 1 - data.draw(st.integers(0, at - 1))])
        else:
            rows.insert(at, data.draw(st.sampled_from([f"{HUGE} 1", f"1 {HUGE}", f"{HUGE} x"])))
    head = f"{part.vertex_count}\n{len(rows)}\n"
    text = head + "".join(f"{row}\n" for row in rows)
    first_chunk_end = text.find("\n", len(head) + _CHUNK) + 1 or len(text)
    text = list(text)
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(text)))
        else:
            at = min(max(first_chunk_end + data.draw(st.integers(-12, 12)), 0), len(text))
        piece = data.draw(st.sampled_from(["", " ", "\n", "\r", "0", "7", "a", "\u0663", "00"]))
        text[at : at + data.draw(st.integers(0, 1))] = [piece]
    text = "".join(text)
    assert outcome(parse_partition, text) == outcome(reference_parse_partition, text)


def test_faults_past_the_first_chunk_keep_their_lines():
    # 1500 ascending rows of ten characters fill more than three chunks
    rows = [f"{src} {dst}" for src in range(1000, 1050) for dst in range(1000, 1060, 2)]
    assert len(rows) * len("1000 1000\n") > 3 * _CHUNK

    def parse(rows):
        return parse_partition(f"50\n{len(rows)}\n" + "".join(f"{row}\n" for row in rows))

    assert parse(rows) == from_rows(50, [tuple(map(int, row.split())) for row in rows])
    # a row out of ascending order that repeats no row
    assert parse(rows[:900] + ["1000 1001"] + rows[900:]).dests[900] == 1001
    first = "".join(f"{row}\n" for row in rows).count("\n", 0, _CHUNK) + 1  # rows in chunk 1
    cases = [
        # the first chunk's last row again, as the first row of the second
        (rows[:first] + rows[first - 1 :], f"line {first + 3}: duplicate edge {rows[first - 1]}"),
        # the first row again, three chunks later
        (rows + ["1000 1000"], "line 1503: duplicate edge 1000 1000"),
        # a duplicate in the second chunk, then a number past the digit limit
        # in the same chunk or in a later one
        (rows[:700] + ["1001 1000", f"1049 {HUGE}"] + rows[700:], "line 703: duplicate edge 1001 1000"),
        (rows[:700] + ["1001 1000"] + rows[700:] + [f"1049 {HUGE}"], "line 703: duplicate edge 1001 1000"),
        (rows[:1200] + [f"1049 {HUGE}"] + rows[1200:], "line 1203: dest has too many digits (5000)"),
        (rows[:1000] + ["1007 x"] + rows[1000:] + ["1000 1000"], "line 1003: dest must be a non-negative"),
    ]
    for case, message in cases:
        with pytest.raises(FormatError) as raised:
            parse(case)
        assert str(raised.value).startswith(message)


# Four valid rows of worker 0 of 2 (lines 3-6), then one bad row at line 7.
VALID_HEAD = "5\n6\n0 1\n2 3\n4 5\n0 7\n"
FAULTS_AT_LINE_7 = [
    ("0 1 2", FormatError, "line 7: expected '<source> <dest>', got '0 1 2'"),
    ("", FormatError, "line 7: expected '<source> <dest>', got ''"),
    ("0 1\r", FormatError, "line 7: dest must be a non-negative integer in plain digits, got '1\\r'"),
    ("06 1", FormatError, "line 7: source must be a non-negative integer in plain digits, got '06'"),
    ("6 \u0663", FormatError, "line 7: dest must be a non-negative integer in plain digits, got '\u0663'"),
    ("2 3", FormatError, "line 7: duplicate edge 2 3"),
]


@pytest.mark.parametrize("row, error, message", FAULTS_AT_LINE_7)
def test_a_fault_past_the_first_row_keeps_its_line(row, error, message):
    text = f"{VALID_HEAD}{row}\n8 9\n"
    with pytest.raises(error) as raised:
        parse_partition(text)
    assert type(raised.value) is error and str(raised.value) == message


def test_a_missing_final_newline_is_found_when_the_rows_fit_the_header():
    # five newlines after the headers, as five rows would have, but six rows
    with pytest.raises(FormatError) as raised:
        parse_partition(f"5\n5\n{VALID_HEAD[4:]}6 1\n8 9")
    assert str(raised.value) == "line 8: file must end with a newline"


def test_the_earlier_of_two_faults_wins():
    cases = [
        # a duplicate at line 7 before a bad token at line 8
        (f"{VALID_HEAD}2 3\n8 x\n", "line 7: duplicate edge 2 3"),
        # a bad token at line 7 before another at line 8
        (f"{VALID_HEAD}8 x\n0 \u0663\n", "line 7: dest must be a non-negative"),
        # a short row at line 7 before a bad token at line 8
        ("1\n6\n0 1\n2 3\n4 5\n0 7\n6\n8 x\n", "line 7: expected"),
        # a missing final newline is reported ahead of any row
        (f"{VALID_HEAD}8 x\n8 9", "line 8: file must end with a newline"),
    ]
    for text, message in cases:
        with pytest.raises(FormatError) as raised:
            parse_partition(text)
        assert str(raised.value).startswith(message)


def test_assign_worker():
    assert assign_worker(0, 4) == 0
    assert assign_worker(7, 4) == 3
    assert assign_worker(1010, 4) == 2
    assert assign_worker(5, 1) == 0
    with pytest.raises(ValueError):
        assign_worker(1, 0)
    with pytest.raises(ValueError):
        assign_worker(-1, 4)


def test_partition_path_naming():
    assert partition_path("webgraph", 0) == "webgraph_1"
    assert partition_path("/tmp/g", 3) == "/tmp/g_4"


def test_partition_graph_four_cycle():
    graph = make_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)])
    parts = partition_graph(graph, 4)
    assert [p.vertex_count for p in parts] == [1, 1, 1, 1]
    assert [len(p.sources) for p in parts] == [1, 1, 1, 1]
    assert parts[2] == GraphPartition(1, [2], [3])


def test_partition_graph_single_worker_is_whole_graph():
    graph = make_edge_list([(3, 1), (0, 2), (0, 1)])
    (part,) = partition_graph(graph, 1)
    assert part.vertex_count == 4
    assert part.sources == [0, 0, 3] and part.dests == [1, 2, 1]


def test_partition_graph_counts_sinks_and_refuses_edgeless_vertices():
    graph = EdgeList({0, 1, 2, 7}, [(0, 1), (2, 7)])
    parts = partition_graph(graph, 2)
    assert parts[0].vertex_count == 2  # vertices 0 and 2
    assert parts[1].vertex_count == 2  # sinks 1 and 7, which source no edge
    assert parts[1].sources == parts[1].dests == []
    assert load(parts) == {0: (1,), 1: (), 2: (7,), 7: ()}
    # a partition file names a vertex only through an edge row
    for vertex_ids, lowest in (({0, 1, 2, 7}, 2), ({0, 1, 9, 5}, 5)):
        with pytest.raises(ValueError, match=f"^vertex {lowest} is on no edge"):
            partition_graph(EdgeList(vertex_ids, [(0, 1)]), 2)
    # nor a file that the parser or the engine would refuse
    for graph, named in (
        (EdgeList({1}, [(1, 2)]), "^edge \\(1, 2\\) names 2, which is not a vertex id$"),
        (EdgeList({0, 1}, [(0, 1), (0, -1)]), "^edge \\(0, -1\\) names -1, which"),
        (EdgeList({0, 1}, [(0, 1), (True, 0)]), "^edge \\(True, 0\\) names True, which"),
        (EdgeList({0, 1, -1}, [(0, 1), (1, -1)]), "^vertex id -1 is not an int >= 0$"),
        (EdgeList({0, True}, [(0, True)]), "^vertex id True is not an int >= 0$"),
        (EdgeList({0, 1.0}, [(0, 1.0)]), "^vertex id 1.0 is not an int >= 0$"),
    ):
        with pytest.raises(ValueError, match=named):
            partition_graph(graph, 2)


def test_partition_graph_dedupes_edges():
    graph = EdgeList({0, 1}, [(0, 1), (0, 1)])
    (part,) = partition_graph(graph, 1)
    assert part.sources == [0] and part.dests == [1]
    assert emit_partition(part) == "2\n1\n0 1\n"


class OutEdges:
    """Records each vertex's out-edges as the engine hands them over."""

    def __init__(self):
        self.seen = {}

    def compute(self, ctx, _messages):
        self.seen[ctx.vertex_id] = ctx.out_edges
        ctx.vote_to_halt()


def load(parts):
    """The vertex ids and out-edges the engine assembles from a partition set."""
    program = OutEdges()
    report = run(parts, program)
    assert set(report.final_values) == set(program.seen)
    return program.seen


def parse_and_load(*texts):
    """``load`` of partition files' texts, each parsed whole, as
    ``crawlrank pagerank`` parses a file when the engine reads it."""
    return load([parse_partition(text) for text in texts])


def test_partition_union_rebuilds_graph():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(2, 40)
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 80))}
        graph = make_edge_list(sorted(edges))
        for workers in (1, 2, 3, 5):
            parts = partition_graph(graph, workers)
            out_edges = load(parts)
            assert set(out_edges) == graph.vertex_ids
            for vid, dsts in out_edges.items():
                assert dsts == tuple(sorted({d for s, d in graph.edges if s == vid}))
            assert sum(p.vertex_count for p in parts) == len(graph.vertex_ids)
            for worker, part in enumerate(parts):
                assert all(s % workers == worker for s in part.sources)


def test_reassembly_covers_sink_vertices():
    # vertex 2 never sources an edge; its owner's header covers it
    parts = [GraphPartition(2, [0], [2]), GraphPartition(0, [], [])]
    assert load(parts) == {0: (2,), 2: ()}


def test_reassembly_rejects_misordered_partitions():
    # a partition's worker index is its position, so a swapped pair puts
    # each edge in a partition that does not own its source
    parts = partition_graph(make_edge_list([(0, 1), (1, 2), (2, 0)]), 2)
    with pytest.raises(
        OwnershipError, match=r"^edge \(1, 2\) in partition 0: source is owned by worker 1$"
    ):
        load(parts[::-1])
    # a swapped pair without edges gives itself away by its vertex-count headers
    parts = partition_graph(make_edge_list([(0, 1), (0, 4), (0, 2)]), 3)
    assert [(part.vertex_count, len(part.sources)) for part in parts] == [(1, 3), (2, 0), (1, 0)]
    with pytest.raises(
        ConsistencyError, match="^partition 1 declares 1 vertices but its edges identify 2 "
    ):
        load([parts[0], parts[2], parts[1]])


def test_a_fault_of_the_text_is_found_before_the_run_judges_the_set():
    # each file is parsed whole before the run sees any of its rows, so
    # a row or header the run would refuse never hides a fault of the text
    cases = [
        # a bad token at line 7 before a source worker 0 does not own at line 8
        (f"{VALID_HEAD}8 x\n3 1\n", "line 7: dest must be a non-negative"),
        # a source worker 0 does not own at line 7 before a duplicate at line 8
        (f"{VALID_HEAD}3 1\n0 1\n", "line 8: duplicate edge 0 1"),
        # the same, with a vertex count below the distinct sources
        ("1\n6\n0 1\n2 3\n4 5\n0 7\n3 1\n0 1\n", "line 8: duplicate edge 0 1"),
        # a missing final newline is reported ahead of any row
        (f"{VALID_HEAD}3 1\n8 9", "line 8: file must end with a newline"),
    ]
    for text, message in cases:
        with pytest.raises(FormatError) as raised:
            parse_and_load(text, "0\n0\n")
        assert str(raised.value).startswith(message)


def test_the_run_rejects_a_foreign_source():
    # the files read as text; worker 0's only row is a row of worker 1
    with pytest.raises(OwnershipError) as raised:
        parse_and_load("1\n1\n3 0\n", "0\n0\n")
    assert str(raised.value) == "edge (3, 0) in partition 0: source is owned by worker 1"


def test_the_run_rejects_a_foreign_source_past_the_first_row():
    # four rows of worker 0, then a row of worker 1 at line 7
    with pytest.raises(OwnershipError) as raised:
        parse_and_load(f"{VALID_HEAD}3 1\n8 9\n", "0\n0\n")
    assert str(raised.value) == "edge (3, 1) in partition 0: source is owned by worker 1"


def test_the_run_rejects_undercounted_vertices():
    # two distinct sources, 0 and 2, but worker 0's header admits only one
    with pytest.raises(ConsistencyError) as raised:
        parse_and_load("1\n2\n0 1\n2 1\n", "1\n0\n")
    assert str(raised.value) == "partition 0 declares 1 vertices but its edges identify 2"


def file_backed(directory, parts):
    """``parts`` written as partition files under ``directory``, and the
    sequence ``crawlrank pagerank`` hands the engine for those files."""
    directory.mkdir()
    paths = [directory / partition_path("web", worker) for worker in range(len(parts))]
    for path, part in zip(paths, parts):
        path.write_text(emit_partition(part), encoding="ascii")
    return PartitionFiles(paths)


def test_a_file_backed_set_ranks_as_its_list_does(tmp_path):
    # sinks, vertices without in-edges and a self-loop; the list also
    # repeats rows after their first, which must collapse to the first
    graph = mixed_rank_graph(random.Random(41))
    for workers in (1, 2, 3, 4):
        parts = partition_graph(graph, workers)
        files = file_backed(tmp_path / str(workers), parts)
        repeated = [from_rows(part.vertex_count, part.edges + part.edges[::2]) for part in parts]
        assert any(len(part.edges) > 1 for part in parts)
        for program in (PageRankProgram, PerVertexRank):
            from_list, from_files = run(repeated, program()), run(files, program())
            assert from_list.supersteps_executed == from_files.supersteps_executed
            assert {vid: value.hex() for vid, value in from_list.final_values.items()} == {
                vid: value.hex() for vid, value in from_files.final_values.items()
            }
        assert load(repeated) == load(files)


# Partition sets the run refuses: those of the tests above and of
# test_bsp.py's test_load_* tests, a foreign source in two partitions,
# and a foreign source in partition 1 after a header partition 0 gets wrong.
REFUSED_SETS = [
    [GraphPartition(1, [0], [2]), GraphPartition(0)],
    [GraphPartition(3, [0], [0])],
    [GraphPartition(1, [1], [1]), GraphPartition(1)],
    [GraphPartition(1, [0, 0], [4, 2]), GraphPartition(0)],
    partition_graph(make_edge_list([(0, 1), (1, 2), (2, 0)]), 2)[::-1],
    [GraphPartition(1, [0, 0, 0], [1, 4, 2]), GraphPartition(1), GraphPartition(2)],
    [parse_partition("1\n1\n3 0\n"), GraphPartition(0)],
    [parse_partition(f"{VALID_HEAD}3 1\n8 9\n"), GraphPartition(0)],
    [parse_partition("1\n2\n0 1\n2 1\n"), parse_partition("1\n0\n")],
    [GraphPartition(1, [0, 1], [1, 0]), GraphPartition(1, [2], [0])],
    [GraphPartition(5, [0], [1]), GraphPartition(1, [1, 2], [0, 0])],
]


@pytest.mark.parametrize("index", range(len(REFUSED_SETS)))
def test_a_file_backed_set_is_refused_as_its_list_is(tmp_path, index):
    parts = REFUSED_SETS[index]
    raised = []
    for partitions in (parts, file_backed(tmp_path / "files", parts)):
        with pytest.raises((OwnershipError, ConsistencyError)) as error:
            load(partitions)
        raised.append((type(error.value), str(error.value)))
    assert raised[0] == raised[1]


def test_make_edge_list_covers_endpoints():
    graph = make_edge_list([(1, 5)])
    assert graph.vertex_ids == {1, 5}
    # edges given as an iterator are read once and kept
    graph = make_edge_list(zip([1, 2], [5, 1]))
    assert graph.vertex_ids == {1, 2, 5} and graph.edges == [(1, 5), (2, 1)]
