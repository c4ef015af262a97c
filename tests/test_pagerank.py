import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from crawlrank import (
    PageRankParams,
    PageRankProgram,
    ProgramError,
    make_edge_list,
    pagerank_compute,
    partition_graph,
    power_iteration_oracle,
    rank,
    run,
    run_pagerank,
    write_values,
)
from crawlrank.pagerank import format_values
from helpers import (
    PerVertexRank,
    RecordingProgram,
    cycle_graph,
    mixed_rank_graph,
    random_no_dangling_graph,
)


def engine_values(graph, workers=1, params=None, max_supersteps=1000):
    return run_pagerank(partition_graph(graph.edges, workers), params, max_supersteps=max_supersteps)


def test_params_validation():
    params = PageRankParams()
    assert (params.damping, params.eps) == (0.85, 1e-6)
    for damping in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            PageRankParams(damping=damping)
    for eps in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            PageRankParams(eps=eps)
    PageRankParams(eps=0.0)  # zero disables convergence, still valid


def test_bare_compute_function_is_a_usable_program():
    # pagerank_compute(ctx, messages) stands alone as a vertex program's
    # compute; wrapping it without parameters must match PageRankProgram().
    class Bare:
        aggregator_slots = 1
        compute = staticmethod(pagerank_compute)

    graph = random_no_dangling_graph(random.Random(99))
    partitions = partition_graph(graph.edges, 2)
    via_function = run(partitions, Bare())
    via_program = run(partitions, PageRankProgram())
    assert via_function == via_program
    assert via_function.halted_naturally


def test_two_cycle_settles_at_exactly_one():
    report = engine_values(cycle_graph(2))
    assert report.final_values == {0: 1.0, 1: 1.0}
    assert report.final_values[0] == 1.0  # bitwise, not approximately
    assert report.supersteps_executed == 3
    assert report.halted_naturally


def test_cycles_of_any_length_hold_exactly_one():
    for k in (1, 2, 3, 10):
        report = engine_values(cycle_graph(k), workers=2 if k > 1 else 1)
        assert all(value == 1.0 for value in report.final_values.values())
        assert report.supersteps_executed == 3
        assert report.halted_naturally


def test_three_vertex_fixture_matches_exact_fixed_point():
    graph = make_edge_list([(0, 1), (0, 2), (1, 2), (2, 0)])
    report = engine_values(graph)
    assert report.halted_naturally
    # fixed point of v = 0.15 + 0.85 * sum(in-shares), solved exactly
    exact = {0: Fraction(2058, 1769), 1: Fraction(1140, 1769), 2: Fraction(2109, 1769)}
    assert sum(exact.values()) == 3
    for vid, value in report.final_values.items():
        assert abs(value - float(exact[vid])) < 2e-7
        assert round(value, 4) == round(float(exact[vid]), 4)
    assert {v: round(x, 4) for v, x in report.final_values.items()} == {
        0: 1.1634,
        1: 0.6444,
        2: 1.1922,
    }


def test_star_with_dangling_center():
    # 1, 2, 3 all point at 0; 0 points nowhere and leaks its mass
    graph = make_edge_list([(1, 0), (2, 0), (3, 0)])
    report = engine_values(graph, workers=2)
    assert report.halted_naturally
    assert report.supersteps_executed == 5
    teleport = 1.0 - 0.85
    for leaf in (1, 2, 3):
        assert report.final_values[leaf] == teleport
    assert abs(report.final_values[0] - 0.5325) < 1e-12
    oracle = power_iteration_oracle(graph)
    assert report.final_values == oracle


def test_engine_equals_oracle_at_every_iterate():
    frozen = PageRankParams(eps=0.0)
    for seed in (1, 2, 3):
        graph = random_no_dangling_graph(random.Random(seed))
        for k in (1, 3, 7):
            report = engine_values(graph, params=frozen, max_supersteps=k + 1)
            assert report.supersteps_executed == k + 1
            assert not report.halted_naturally
            oracle = power_iteration_oracle(graph, frozen, max_iters=k)
            assert report.final_values == oracle  # dict equality is bitwise here


def test_engine_equals_oracle_after_convergence():
    for seed in (4, 5, 6):
        graph = random_no_dangling_graph(random.Random(seed))
        report = engine_values(graph, workers=3)
        oracle = power_iteration_oracle(graph)
        assert report.halted_naturally
        assert report.final_values == oracle


def test_oracle_on_cycle_stops_at_first_iteration():
    oracle = power_iteration_oracle(cycle_graph(5))
    assert all(value == 1.0 for value in oracle.values())


def test_mass_is_conserved_without_dangling_vertices():
    for seed in (10, 11):
        graph = random_no_dangling_graph(random.Random(seed))
        n = len(graph.vertex_ids)
        recorder = RecordingProgram(PerVertexRank())
        report = run(partition_graph(graph.edges, 1), recorder)
        assert report.halted_naturally
        for superstep, values in recorder.values.items():
            assert len(values) == n
            total = math.fsum(values.values())
            assert abs(total - n) <= 1e-9 * n, f"superstep {superstep}: {total}"


def test_tiny_damping_flattens_values_after_one_superstep():
    graph = random_no_dangling_graph(random.Random(12))
    params = PageRankParams(damping=1e-12)
    report = engine_values(graph, params=params, max_supersteps=2)
    for value in report.final_values.values():
        assert abs(value - 1.0) < 1e-9


def test_dangling_heavy_graph_finishes_cleanly():
    rng = random.Random(13)
    edges = [(i, i + 1) for i in range(0, 20, 2)]  # odd vertices never send
    edges += [(rng.randrange(0, 20, 2), rng.randrange(20)) for _ in range(30)]
    graph = make_edge_list(sorted(set(edges)))
    report = engine_values(graph, workers=4)
    assert report.halted_naturally
    assert all(math.isfinite(v) for v in report.final_values.values())
    assert report.final_values == power_iteration_oracle(graph)


def test_rank_orders_by_value_then_id():
    assert rank({0: 1.0, 1: 2.0}) == [(1, 2.0), (0, 1.0)]
    assert rank({3: 1.0, 1: 1.0, 2: 5.0}) == [(2, 5.0), (1, 1.0), (3, 1.0)]
    assert rank({}) == []


def test_rank_argmax_agrees_with_oracle():
    for seed in (21, 22, 23):
        graph = random_no_dangling_graph(random.Random(seed))
        report = engine_values(graph, workers=2)
        oracle = power_iteration_oracle(graph)
        assert rank(report.final_values)[0] == rank(oracle)[0]


def test_format_values_layout():
    text = format_values({10: 1 / 3, 2: 0.5, 1: 1.25})
    assert text == "1\t1.25\n2\t0.5\n10\t0.333333333333333\n"


def test_write_values_round_trips_closely(tmp_path):
    values = {vid: (vid + 1) / 7 for vid in range(20)}
    path = tmp_path / "ranks"
    write_values(path, values)
    parsed = {}
    for line in path.read_text().splitlines():
        vid, value = line.split("\t")
        parsed[int(vid)] = float(value)
    assert parsed.keys() == values.keys()
    for vid in values:
        assert abs(parsed[vid] - values[vid]) <= 1e-14 * abs(values[vid])


def test_trace_passthrough():
    lines = []
    report = run_pagerank(partition_graph(cycle_graph(3).edges, 1), trace=lines.append)
    assert lines[0] == "superstep: 0"
    assert lines[-2] == f"superstep: {report.supersteps_executed - 1}"
    assert lines[-1].startswith("elapsed: ")


def test_parity_script_passes():
    script = Path(__file__).resolve().parent.parent / "scripts" / "parity_versions.py"
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].endswith(": PASS")


class RecordingPerVertexRank(PerVertexRank):
    """Records the aggregator globals each superstep reads, as ``float.hex``."""

    def __init__(self, params=None, aggregator_slots=1):
        super().__init__(params)
        self.aggregator_slots = aggregator_slots
        self.published = {}

    def compute(self, ctx, messages):
        read = [ctx.get_aggr_global(slot).hex() for slot in range(self.aggregator_slots)]
        self.published.setdefault(ctx.superstep_index, read)
        super().compute(ctx, messages)


class HookedRank(PageRankProgram):
    """PageRankProgram recording the aggregator globals its hook reads,
    as ``float.hex``."""

    def __init__(self, params=None, aggregator_slots=1):
        super().__init__(params)
        self.aggregator_slots = aggregator_slots
        self.published = {}

    def compute_superstep(self, superstep, totals, values, degrees, published):
        self.published[superstep] = [value.hex() for value in published]
        return super().compute_superstep(superstep, totals, values, degrees, published)


def traced_run(graph, workers, program, max_supersteps):
    lines = []
    report = run(partition_graph(graph.edges, workers), program, max_supersteps, trace=lines.append)
    assert lines[-1].startswith("elapsed: ")
    hexed = {vid: value.hex() for vid, value in report.final_values.items()}
    return hexed, report.supersteps_executed, report.halted_naturally, lines[:-1], program.published


def assert_paths_agree(graph, params=None, max_supersteps=1000, aggregator_slots=1):
    for workers in range(1, 6):
        hooked = HookedRank(params, aggregator_slots)
        per_vertex = RecordingPerVertexRank(params, aggregator_slots)
        whole = traced_run(graph, workers, hooked, max_supersteps)
        assert whole == traced_run(graph, workers, per_vertex, max_supersteps)


def test_whole_superstep_kernel_matches_per_vertex_compute():
    for seed in range(12):
        rng = random.Random(seed)
        graph = mixed_rank_graph(rng)
        params = PageRankParams(damping=rng.choice([0.85, 0.5, 0.99, 0.1]))
        assert_paths_agree(graph, params)
        assert_paths_agree(graph, params, aggregator_slots=3)


def test_whole_superstep_kernel_matches_when_the_cap_ends_the_run():
    graph = mixed_rank_graph(random.Random(40))
    for cap in (1, 2, 3, 8):
        assert_paths_agree(graph, PageRankParams(eps=0.0), max_supersteps=cap)


def test_both_paths_need_the_delta_slot():
    graph = mixed_rank_graph(random.Random(42))
    program = PerVertexRank()
    program.aggregator_slots = 0
    with pytest.raises(ProgramError, match="unknown aggregator slot 0"):
        run(partition_graph(graph.edges, 2), program)
