import math
import random
import weakref
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawlrank import (
    ConfigurationError,
    ConsistencyError,
    GraphPartition,
    OwnershipError,
    PageRankProgram,
    ProgramError,
    RunReport,
    make_edge_list,
    partition_graph,
    power_iteration_oracle,
    run,
)
from crawlrank import bsp
from helpers import fold_totals, random_no_dangling_graph


class Probe:
    """Runs a per-vertex function and records every compute call."""

    def __init__(self, fn, aggregator_slots=0):
        self.fn = fn
        self.aggregator_slots = aggregator_slots
        self.calls = []

    def compute(self, ctx, messages):
        self.calls.append((ctx.superstep_index, ctx.vertex_id, list(messages)))
        self.fn(ctx, messages)


def send_then_halt(ctx, _messages):
    if ctx.superstep_index == 0:
        ctx.send_message_to_all_neighbors(float(ctx.vertex_id))
    else:
        ctx.vote_to_halt()


def parts_for(edges, workers):
    return partition_graph(edges, workers)


def test_engine_config_validation():
    with pytest.raises(ConfigurationError, match="at least one partition"):
        run([], Probe(send_then_halt))
    # set-up would refuse these partitions, so each check runs before it
    overcounted = [GraphPartition(3, [0], [0])]
    with pytest.raises(ConfigurationError, match="max_supersteps"):
        run(overcounted, Probe(send_then_halt), 0)
    for slots in (-1, True, 1.0, "1", None):
        with pytest.raises(ConfigurationError, match="aggregator_slots"):
            run(overcounted, Probe(send_then_halt, aggregator_slots=slots))


def test_empty_graph_halts_immediately():
    report = run([GraphPartition(0, [], [])], Probe(send_then_halt))
    assert report == RunReport(0, {}, True)


def test_messages_arrive_next_superstep_sorted_by_source():
    probe = Probe(send_then_halt)
    # three senders into vertex 2, owned across two workers
    report = run(parts_for([(3, 2), (0, 2), (5, 2)], 2), probe)
    assert report.halted_naturally
    by_call = {(s, v): msgs for s, v, msgs in probe.calls}
    assert by_call[(0, 2)] == []
    assert by_call[(1, 2)] == [0.0, 3.0, 5.0]
    assert by_call[(1, 0)] == []
    assert report.supersteps_executed == 2


def test_send_on_vertex_without_out_edges_is_noop():
    def fn(ctx, _messages):
        if ctx.superstep_index == 0:
            ctx.send_message_to_all_neighbors(1.0)  # vertex 1 has no out-edges
        else:
            ctx.vote_to_halt()

    probe = Probe(fn)
    report = run(parts_for([(0, 1)], 1), probe)
    received = {v: msgs for s, v, msgs in probe.calls if s == 1}
    assert received == {0: [], 1: [1.0]}  # vertex 1's send went nowhere
    assert report.supersteps_executed == 2


def test_multiple_sends_in_one_compute_all_deliver():
    def fn(ctx, _messages):
        if ctx.superstep_index == 0 and ctx.vertex_id == 0:
            ctx.send_message_to_all_neighbors(1.5)
            ctx.send_message_to_all_neighbors(2.5)
        if ctx.superstep_index >= 1:
            ctx.vote_to_halt()

    probe = Probe(fn)
    run(parts_for([(0, 1), (0, 2)], 1), probe)
    assert (1, 1, [1.5, 2.5]) in probe.calls
    assert (1, 2, [1.5, 2.5]) in probe.calls


def test_halted_vertex_skips_supersteps_until_messaged():
    def fn(ctx, messages):
        if ctx.vertex_id == 1:
            ctx.vote_to_halt()
            return
        if ctx.superstep_index == 0:
            ctx.send_message_to_all_neighbors(7.0)
        ctx.vote_to_halt()

    probe = Probe(fn)
    report = run(parts_for([(0, 1)], 1), probe)
    assert probe.calls == [(0, 0, []), (0, 1, []), (1, 1, [7.0])]
    assert report.supersteps_executed == 2
    assert report.halted_naturally


def test_a_message_in_flight_outlives_every_halted_vertex():
    # Every vertex halts in every compute, and each woken vertex passes
    # one message on: after each of the first two barriers no vertex is
    # active, yet a message is in flight, so the run goes on.
    def fn(ctx, messages):
        if ctx.superstep_index == 0 and ctx.vertex_id == 0 or messages:
            ctx.send_message_to_all_neighbors(1.0)
        ctx.vote_to_halt()

    edges = [(0, 1), (1, 2)]
    probe = Probe(fn)
    report = run(parts_for(edges, 1), probe)
    assert probe.calls == [(0, 0, []), (0, 1, []), (0, 2, []), (1, 1, [1.0]), (2, 2, [1.0])]
    assert report.supersteps_executed == 3
    assert report.halted_naturally

    capped = run(parts_for(edges, 1), Probe(fn), 2)
    assert capped.supersteps_executed == 2
    assert not capped.halted_naturally  # vertex 1's message to 2 was still in flight


def test_every_compute_of_a_vertex_gets_the_same_context():
    def fn(ctx, _messages):
        contexts.setdefault(ctx.vertex_id, []).append(ctx)
        superstep = ctx.superstep_index
        if superstep < 2 or superstep == 2 and ctx.vertex_id == 0:
            ctx.send_message_to_all_neighbors(1.0)
        if superstep >= 2:
            ctx.vote_to_halt()  # 0's last message wakes 1 and 2 again

    for workers in (1, 2):
        contexts = {}
        run(parts_for([(0, 1), (1, 0), (0, 2)], workers), Probe(fn))
        assert {vid: len(seen) for vid, seen in contexts.items()} == {0: 3, 1: 4, 2: 4}
        for seen in contexts.values():
            assert all(ctx is seen[0] for ctx in seen)
        assert len({id(seen[0]) for seen in contexts.values()}) == 3


def test_hook_program_runs_build_no_vertex_context(monkeypatch):
    class NoContext:
        def __init__(self, *args):
            raise AssertionError("a VertexContext was built")

    monkeypatch.setattr(bsp, "VertexContext", NoContext)
    report = run(parts_for([(0, 1), (1, 0), (1, 2)], 2), PageRankProgram())
    assert report.halted_naturally


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fold_treats_a_silent_sender_as_skipped(data):
    # Silent vertices with out-edges send nothing (None) beside payloads
    # of -0.0, infinities and nan; the engine's totals must be those of
    # a left fold that skips the silent senders, bit for bit.
    n = data.draw(st.integers(1, 12), label="vertices")
    edges = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=40),
        label="edges",
    )
    payload = st.one_of(st.none(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]), st.floats())
    sends = {src: data.draw(payload, label=f"send {src}") for src in sorted({src for src, _ in edges})}
    workers = data.draw(st.integers(1, 4), label="workers")
    got, expected = fold_totals(make_edge_list(edges), sends, workers)
    assert got == expected


def test_termination_counts_supersteps_not_indices():
    # all vertices halt during superstep 1 with nothing in flight,
    # so the run reports two executed supersteps
    report = run(parts_for([(0, 1), (1, 0)], 1), Probe(send_then_halt))
    assert report.supersteps_executed == 2
    assert report.halted_naturally


def test_superstep_cap_reports_unnatural_halt():
    def chatter(ctx, _messages):
        ctx.send_message_to_all_neighbors(1.0)

    report = run(parts_for([(0, 1), (1, 0)], 1), Probe(chatter), 7)
    assert report.supersteps_executed == 7
    assert not report.halted_naturally

    report = run(parts_for([(0, 1), (1, 0)], 1), Probe(chatter), 1)
    assert report.supersteps_executed == 1
    assert not report.halted_naturally


def test_context_exposes_vertex_topology():
    seen = {}

    def fn(ctx, _messages):
        seen[ctx.vertex_id] = (ctx.worker_index, ctx.out_edges, ctx.out_degree)
        ctx.value = ctx.vertex_id
        ctx.vote_to_halt()

    report = run(parts_for([(0, 1), (0, 2), (1, 0), (2, 0)], 3), Probe(fn))
    assert seen[0] == (0, (1, 2), 2)
    assert seen[1] == (1, (0,), 1)
    assert seen[2] == (2, (0,), 1)
    assert report.final_values == {0: 0.0, 1: 1.0, 2: 2.0}
    assert all(type(v) is float for v in report.final_values.values())


def test_values_default_to_zero_until_programs_write():
    def fn(ctx, _messages):
        assert ctx.value == 0.0
        ctx.vote_to_halt()

    run(parts_for([(0, 0)], 1), Probe(fn))


def test_aggregator_visible_next_superstep():
    globals_seen = {}

    def fn(ctx, _messages):
        globals_seen.setdefault(ctx.superstep_index, set()).add(ctx.get_aggr_global(0))
        if ctx.superstep_index == 0:
            ctx.accumulate_aggr(0, 0.1)
        ctx.send_message_to_all_neighbors(0.0)
        if ctx.superstep_index >= 2:
            ctx.vote_to_halt()

    run(parts_for([(0, 0), (1, 1), (2, 2)], 2), Probe(fn, aggregator_slots=1))
    assert globals_seen[0] == {0.0}
    # three accumulations of 0.1 fold into one float sum
    assert globals_seen[1] == {0.1 + 0.1 + 0.1}
    assert globals_seen[1] == {0.30000000000000004}
    # nothing accumulated during superstep 1, so the global resets
    assert globals_seen[2] == {0.0}


def test_aggregator_folds_in_ascending_vertex_order():
    contributions = {0: 1e16, 1: 1.0, 2: -1e16}
    seen = set()

    def fn(ctx, _messages):
        if ctx.superstep_index == 0:
            ctx.accumulate_aggr(0, contributions[ctx.vertex_id])
            ctx.send_message_to_all_neighbors(0.0)
        else:
            seen.add(ctx.get_aggr_global(0))
            ctx.vote_to_halt()

    run(parts_for([(0, 0), (1, 1), (2, 2)], 2), Probe(fn, aggregator_slots=1))
    # only the ascending-id fold gives this exact value:
    # (1e16 + 1.0) - 1e16 == 0.0, while any other order leaves 1.0 behind
    assert seen == {0.0}


def test_aggregator_slot_bounds_checked():
    def bad_accumulate(ctx, _messages):
        ctx.accumulate_aggr(1, 1.0)

    def bad_read(ctx, _messages):
        ctx.get_aggr_global(-1)

    with pytest.raises(ProgramError):
        run(parts_for([(0, 0)], 1), Probe(bad_accumulate, aggregator_slots=1))
    with pytest.raises(ProgramError):
        run(parts_for([(0, 0)], 1), Probe(bad_read, aggregator_slots=1))


def test_every_sent_message_is_delivered_exactly_once():
    rng = random.Random(5)
    graph = random_no_dangling_graph(rng)
    sent = [0]
    received = [0]

    class Counter:
        def compute(self, ctx, messages):
            received[0] += len(messages)
            if ctx.superstep_index < 3:
                ctx.send_message_to_all_neighbors(1.0)
                sent[0] += ctx.out_degree
            else:
                ctx.vote_to_halt()

    for workers in (1, 3):
        sent[0] = received[0] = 0
        report = run(partition_graph(graph.edges, workers), Counter())
        assert report.halted_naturally
        assert sent[0] > 0
        assert received[0] == sent[0]


def test_identical_runs_is_repeatable():
    graph = random_no_dangling_graph(random.Random(9))

    def fn(ctx, messages):
        total = 0.0
        for m in messages:
            total += m
        ctx.value = ctx.value * 0.5 + total
        if ctx.superstep_index < 6:
            ctx.send_message_to_all_neighbors(ctx.value / max(ctx.out_degree, 1))
        else:
            ctx.vote_to_halt()

    first = run(partition_graph(graph.edges, 2), Probe(fn))
    second = run(partition_graph(graph.edges, 2), Probe(fn))
    assert first == second


def test_trace_reports_supersteps_and_elapsed():
    for program in (Probe(send_then_halt), PageRankProgram()):
        lines = []
        report = run(parts_for([(0, 1), (1, 0)], 1), program, trace=lines.append)
        assert report.supersteps_executed >= 2
        assert lines[:-1] == [f"superstep: {i}" for i in range(report.supersteps_executed)]
        assert lines[-1].startswith("elapsed: ")
        float(lines[-1].split(": ")[1])  # parses as seconds


class LoggedPartitions(Sequence):
    """A partition set that logs each index it is read at and hands out a
    fresh copy of that partition, to which it keeps only a weak reference."""

    def __init__(self, parts):
        self.parts = parts
        self.reads = []
        self.handed_out = []

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, worker):
        part = self.parts[worker]
        self.reads.append(worker)
        copy = GraphPartition(part.vertex_count, list(part.sources), list(part.dests))
        self.handed_out.append(weakref.ref(copy))
        return copy


def test_setup_reads_each_partition_once_in_worker_order_and_keeps_none():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 5), (4, 0)]  # 5 is a sink
    for workers in (1, 2, 3, 4):
        for per_vertex in (False, True):
            parts = LoggedPartitions(parts_for(edges, workers))
            alive = []

            def step(superstep, _totals, values, _degrees, published):
                alive.append([ref() is not None for ref in parts.handed_out])
                return None

            def fn(ctx, _messages):
                if not alive:
                    alive.append([ref() is not None for ref in parts.handed_out])
                ctx.vote_to_halt()

            run(parts, Probe(fn) if per_vertex else WholeProbe(step))
            assert parts.reads == list(range(workers)), (workers, per_vertex)
            assert alive == [[False] * workers], (workers, per_vertex)


def test_load_rejects_destination_without_home():
    parts = [GraphPartition(1, [0], [2]), GraphPartition(0, [], [])]
    with pytest.raises(ConsistencyError, match="2"):
        run(parts, Probe(send_then_halt))


def test_load_rejects_overcounted_partition():
    parts = [GraphPartition(3, [0], [0])]
    with pytest.raises(ConsistencyError):
        run(parts, Probe(send_then_halt))


def test_load_rejects_foreign_edges():
    parts = [GraphPartition(1, [1], [1]), GraphPartition(1, [], [])]
    with pytest.raises(OwnershipError):
        run(parts, Probe(send_then_halt))


def test_load_errors_name_the_partition_and_vertex():
    parts = [GraphPartition(1, [0, 0], [4, 2]), GraphPartition(0, [], [])]
    with pytest.raises(
        ConsistencyError,
        match=r"^partition 0 declares 1 vertices but its edges identify 3 "
        r"\(destination vertex 2 has no declared home\)$",
    ):
        run(parts, Probe(send_then_halt))
    with pytest.raises(
        ConsistencyError, match="^partition 0 declares 3 vertices but only 1 are identifiable"
    ):
        run([GraphPartition(3, [0], [0])], Probe(send_then_halt))


def test_load_collapses_duplicate_in_memory_edges():
    parts = [GraphPartition(2, [0, 0], [1, 1])]
    probe = Probe(send_then_halt)
    run(parts, probe)
    assert (1, 1, [0.0]) in probe.calls  # one message, not two


def test_public_types_shape():
    def fn(ctx, _messages):
        # a vertex's id and out-edges are the engine's, read-only to programs
        with pytest.raises(AttributeError):
            ctx.vertex_id = 5
        with pytest.raises(AttributeError):
            ctx.out_edges = ()
        ctx.value = 1.5
        ctx.vote_to_halt()

    report = run(parts_for([(0, 1)], 1), Probe(fn))
    assert report == RunReport(1, {0: 1.5, 1: 1.5}, True)
    assert bsp.MAX_SUPERSTEPS == 1000
    assert PageRankProgram.aggregator_slots == 1


def left_fold(payloads):
    total = 0.0
    for payload in payloads:
        total += payload
    return total


def test_summed_rank_is_worker_invariant_with_dangling_vertices():
    rng = random.Random(31)
    n, dangling = 200, 40  # vertices 160..199 have no out-edges
    edges = {(rng.randrange(n - dangling), dst) for dst in range(n)}
    for src in range(n - dangling):
        edges.update((src, rng.randrange(n)) for _ in range(rng.randrange(1, 8)))
    graph = make_edge_list(sorted(edges))
    assert {src for src, _ in graph.edges} == set(range(n - dangling))
    oracle = {vid: value.hex() for vid, value in power_iteration_oracle(graph).items()}
    for workers in range(1, 6):
        report = run(partition_graph(graph.edges, workers), PageRankProgram())
        assert report.halted_naturally
        assert {vid: value.hex() for vid, value in report.final_values.items()} == oracle


class WholeProbe:
    """A program that computes each superstep in one call through
    ``compute_superstep`` and records every argument it gets."""

    def __init__(self, step, aggregator_slots=0):
        self.step = step
        self.aggregator_slots = aggregator_slots
        self.calls = []

    def compute(self, ctx, total):
        raise AssertionError("the per-vertex compute ran")

    def compute_superstep(self, superstep, totals, values, degrees, published):
        self.calls.append((superstep, list(totals), list(values), list(degrees), list(published)))
        return self.step(superstep, totals, values, degrees, published)


def test_whole_superstep_hook_gets_folded_totals_and_publishes_its_results():
    # ids 0 2 5 6 7 8 9; 9 hears from 0, 2 and 5, 6 from 5 and 8.
    # Only the ascending-source fold of 1e16, 1.0, 1.0 gives exactly 1e16:
    # each 1.0 rounds away, where 1.0 + 1.0 first would leave 1e16 + 2.
    edges = [(0, 9), (2, 9), (5, 9), (7, 9), (5, 6), (8, 6), (9, 7)]
    sends = {0: 1e16, 2: 1.0, 5: 1.0, 8: 0.25}  # 7 and 9 send nothing at first

    def step(superstep, totals, values, degrees, published):
        if superstep == 2:
            return None
        ids = [0, 2, 5, 6, 7, 8, 9]
        payloads = [
            sends.get(vid) if superstep == 0 else (1.0 if degree else None)
            for vid, degree in zip(ids, degrees)
        ]
        new_values = [value + total + 1.0 for value, total in zip(values, totals)]
        return new_values, payloads, [0.5 + superstep, 3.0]

    for workers in (1, 3):
        probe, lines = WholeProbe(step, aggregator_slots=2), []
        report = run(parts_for(edges, workers), probe, trace=lines.append)
        assert [call[0] for call in probe.calls] == [0, 1, 2]
        assert probe.calls[0][1:] == ([0.0] * 7, [0.0] * 7, [1, 1, 2, 0, 1, 1, 1], [0.0, 0.0])
        _, totals, values, _, published = probe.calls[1]
        assert totals == [0.0, 0.0, 0.0, 1.0 + 0.25, 0.0, 0.0, 1e16]
        assert values == [1.0] * 7
        assert published == [0.5, 3.0]
        # every vertex with out-edges sent once: the fold's fast path
        assert probe.calls[2][1] == [0.0, 0.0, 0.0, 2.0, 1.0, 0.0, 4.0]
        assert probe.calls[2][4] == [1.5, 3.0]
        assert report == RunReport(3, {0: 2.0, 2: 2.0, 5: 2.0, 6: 3.25, 7: 2.0, 8: 2.0, 9: 1e16}, True)
        assert lines[:-1] == ["superstep: 0", "superstep: 1", "superstep: 2"]


def test_whole_superstep_hook_must_keep_its_contract():
    edges = [(0, 1)]  # vertex 1 has no out-edges

    def sink_sends(_superstep, _totals, values, _degrees, _published):
        return values, [1.0, 1.0], [0.0]

    def short_values(_superstep, _totals, _values, _degrees, _published):
        return [1.0], [1.0, None], [0.0]

    def missing_slot(_superstep, _totals, values, _degrees, _published):
        return values, [1.0, None], []

    for step in (sink_sends, short_values, missing_slot):
        with pytest.raises(ProgramError, match="compute_superstep"):
            run(parts_for(edges, 1), WholeProbe(step, aggregator_slots=1))


def test_hook_program_runs_every_superstep_through_the_hook():
    # 9 hears from 0, 2, 5, 7 and 8, and 6 from 5 and 8. In superstep 0
    # 7 and 9 stay silent; in superstep 1 every vertex with out-edges
    # sends, which takes the fold's other path. Only the ascending-source
    # fold gives exactly 1e16 at 9: each small payload rounds away, where
    # the descending fold, or 1.0 + 1.0 first, leaves 1e16 + 2.
    edges = [(0, 9), (2, 9), (5, 9), (7, 9), (8, 9), (5, 6), (8, 6), (9, 7)]
    ids = [0, 2, 5, 6, 7, 8, 9]
    first = {0: 1e16, 2: 1.0, 5: 1.0, 8: 0.25}
    sends = [first, {**first, 7: 0.5, 9: 1.0}]

    def fn(ctx, _messages):
        if ctx.superstep_index < 2:
            if ctx.vertex_id in sends[ctx.superstep_index]:
                ctx.send_message_to_all_neighbors(sends[ctx.superstep_index][ctx.vertex_id])
        else:
            ctx.vote_to_halt()

    def step(superstep, _totals, values, _degrees, published):
        if superstep == 2:
            return None
        return values, [sends[superstep].get(vid) for vid in ids], [0.0] * len(published)

    for workers in (1, 3):
        lists, whole = Probe(fn), WholeProbe(step)
        run(parts_for(edges, workers), lists)
        report = run(parts_for(edges, workers), whole)
        assert report == RunReport(3, dict.fromkeys(ids, 0.0), True)
        assert [call[0] for call in whole.calls] == [0, 1, 2]
        for superstep, totals, *_ in whole.calls:
            delivered = {v: msgs for s, v, msgs in lists.calls if s == superstep}
            assert [total.hex() for total in totals] == [left_fold(delivered[v]).hex() for v in ids]
        for superstep in (1, 2):
            totals = dict(zip(ids, whole.calls[superstep][1]))
            assert totals[9] == 1e16
            assert totals[6] == 1.25
            assert totals[0] == 0.0  # nothing arrives: the empty sum
        assert whole.calls[2][1][ids.index(7)] == 1.0
