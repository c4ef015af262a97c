"""Damped link ranking over the bulk-synchronous engine.

Values are un-normalized: every vertex starts at 1.0 and settles toward
``value = (1 - d) + d * sum(incoming)``, where each in-neighbor
contributes its own value divided by its out-degree. On a
graph without dangling vertices the values then always sum to the vertex
count. Convergence is judged through one aggregator slot, ``DELTA_SLOT``,
which collects the absolute value change of every vertex per superstep.

``PageRankProgram`` declares that slot and runs through the engine's
whole-superstep hook: it builds a superstep's values and payloads with
list comprehensions and folds the absolute changes in a plain ``for``
loop (never ``sum()``, which compensates rounding from Python 3.12).
``pagerank_compute`` is the same step for one vertex, the per-vertex
reference that a program's ``compute`` can call, and
``power_iteration_oracle`` recomputes the same iterates without the
engine. All three keep the engine's summation order on purpose, so they
agree bit for bit and each can check the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from pathlib import Path

from .bsp import MAX_SUPERSTEPS, run
from .graph_io import EdgeList

DELTA_SLOT = 0


@dataclass(frozen=True)
class PageRankParams:
    damping: float = 0.85
    eps: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must be strictly between 0 and 1")
        if not 0.0 <= self.eps < math.inf:  # also false for nan
            raise ValueError("eps must be finite and >= 0")


_DEFAULT_PARAMS = PageRankParams()


def pagerank_compute(ctx, messages, params: PageRankParams = _DEFAULT_PARAMS) -> None:
    """One vertex's compute step toward the damped rank fixed point.

    ``messages`` is the list of incoming contributions; their total is
    the left fold from 0.0 in delivery order, the engine's combined total.

    Superstep 0 seeds the vertex with 1.0 and fans it out. From
    superstep 1 on, the vertex sums its incoming contributions into a new
    value and accumulates ``|old - new|`` into slot 0. From superstep 2
    on it first checks the previous superstep's folded delta and votes to
    halt once that drops below eps; since every vertex reads the same
    global, they all halt in the same superstep and the run ends.

    A vertex without out-edges simply sends nothing. Its mass leaks out
    of the system, no division by zero and no redistribution.
    """
    superstep = ctx.superstep_index
    if superstep == 0:
        value = 1.0
    else:
        if superstep >= 2 and ctx.get_aggr_global(DELTA_SLOT) < params.eps:
            ctx.vote_to_halt()
            return
        total = 0.0
        for payload in messages:
            total += payload
        value = (1.0 - params.damping) + params.damping * total
        ctx.accumulate_aggr(DELTA_SLOT, abs(ctx.value - value))
    ctx.value = value
    degree = ctx.out_degree
    if degree > 0:
        ctx.send_message_to_all_neighbors(value / degree)


class PageRankProgram:
    """The damped rank step for a fixed parameter set, as a vertex program
    that uses one aggregator slot, ``DELTA_SLOT``.

    It defines only ``compute_superstep``, the step for every vertex at
    once: that repeats ``pagerank_compute`` operation for operation over
    the vertices in ascending id order, so a program that calls
    ``pagerank_compute`` per vertex gets the same bits.
    """

    aggregator_slots = DELTA_SLOT + 1

    def __init__(self, params: PageRankParams | None = None):
        self.params = params if params is not None else PageRankParams()

    def compute_superstep(self, superstep, totals, values, degrees, published):
        params = self.params
        slots = len(published)
        if superstep == 0:
            return (
                [1.0] * len(values),
                [1.0 / degree if degree > 0 else None for degree in degrees],
                [0.0] * slots,
            )
        if superstep >= 2 and published[DELTA_SLOT] < params.eps:
            return None
        damping = params.damping
        base = 1.0 - damping
        new_values = [base + damping * total for total in totals]
        delta = 0.0
        for change in map(abs, map(sub, values, new_values)):
            delta += change
        payloads = [
            value / degree if degree > 0 else None for value, degree in zip(new_values, degrees)
        ]
        contributions = [0.0] * slots
        contributions[DELTA_SLOT] = delta
        return new_values, payloads, contributions


def run_pagerank(
    partitions,
    params: PageRankParams | None = None,
    max_supersteps: int = MAX_SUPERSTEPS,
    trace=None,
):
    """Run the rank program over partitioned graph files, one worker per
    partition. Returns a RunReport."""
    return run(partitions, PageRankProgram(params), max_supersteps, trace=trace)


def power_iteration_oracle(
    graph: EdgeList,
    params: PageRankParams | None = None,
    max_iters: int = 1000,
) -> dict[int, float]:
    """Plain Jacobi iteration of the same update rule, engine-free.

    Per-vertex sums run over in-neighbors in ascending id order and each
    sender's contribution is computed once per iteration, matching the
    engine's arithmetic exactly. Returns the first iterate whose summed
    absolute change falls below eps, or the max_iters-th iterate.
    """
    params = params if params is not None else PageRankParams()
    damping = params.damping
    base = 1.0 - damping
    edges = sorted(set(graph.edges))
    out_degree = dict.fromkeys(graph.vertex_ids, 0)
    for src, _dst in edges:
        out_degree[src] += 1
    in_neighbors: dict[int, list[int]] = {vid: [] for vid in graph.vertex_ids}
    for src, dst in edges:
        in_neighbors[dst].append(src)
    ids = sorted(graph.vertex_ids)
    values = dict.fromkeys(ids, 1.0)
    for _ in range(max_iters):
        shares = {
            vid: values[vid] / out_degree[vid] for vid in ids if out_degree[vid] > 0
        }
        new_values = {}
        for vid in ids:
            total = 0.0
            for src in in_neighbors[vid]:
                total += shares[src]
            new_values[vid] = base + damping * total
        delta = 0.0
        for vid in ids:
            delta += abs(values[vid] - new_values[vid])
        values = new_values
        if delta < params.eps:
            break
    return values


def rank(values: dict[int, float]) -> list[tuple[int, float]]:
    """Vertices ranked by descending value; ties break toward smaller ids."""
    return sorted(values.items(), key=lambda item: (-item[1], item[0]))


def format_values(values: dict[int, float]) -> str:
    """Result text: one "<id>\\t<value>" line per vertex, ascending id,
    values at 15 significant digits."""
    return "".join(f"{vid}\t{values[vid]:.15g}\n" for vid in sorted(values))


def write_values(path, values: dict[int, float]) -> None:
    Path(path).write_text(format_values(values), encoding="ascii")
