"""Vertex-centric bulk-synchronous graph execution.

A run advances in numbered supersteps. During superstep ``s`` the
engine calls ``program.compute(ctx, messages)`` once for every active
vertex, where ``messages`` holds exactly the payloads sent to that
vertex during superstep ``s - 1``. Everything a compute call emits,
outgoing messages and aggregator contributions alike, becomes visible
only after the barrier: messages arrive one superstep later, aggregator
globals hold the previous superstep's folded sum.

A vertex leaves the run by voting to halt and is woken again only by an
incoming message. The run ends at the first barrier where every vertex
is inactive and no messages are in flight (a natural halt), or when the
superstep cap is reached.

Each superstep is one sweep over the vertices in ascending id order.
Message lists are ordered by sending vertex id, a sender's repeated
sends in send order, and aggregator contributions fold into their slot,
from 0.0, in the order the sweep makes them. The worker count only
decides which partition carries a vertex's edges and what
``ctx.worker_index`` reports, never the order of any arithmetic, so
floating point results are reproducible bit for bit and the same for
every worker count.

A program whose class sets ``sum_messages = True`` has its messages
combined by the engine, as a Pregel combiner does: compute receives one
float instead of a list, the left fold ``total = 0.0; total += payload``
over the payloads in the order above (0.0 when nothing arrived).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from . import graph_io


class ConfigurationError(ValueError):
    """The engine configuration does not fit its inputs."""


class ProgramError(RuntimeError):
    """A vertex program used the engine API outside its contract."""


@dataclass
class VertexState:
    """One vertex as the engine tracks it between supersteps."""

    id: int
    value: float
    out_edges: tuple[int, ...]
    active: bool = True


@dataclass
class AggregatorSlot:
    """One global running sum; ``global_value`` is the folded sum from the
    previous superstep, the only part programs can read."""

    index: int
    global_value: float = 0.0


@dataclass(frozen=True)
class EngineConfig:
    worker_count: int
    max_supersteps: int = 1000
    aggregator_slots: int = 1

    def __post_init__(self):
        if self.worker_count < 1:
            raise ConfigurationError("worker_count must be >= 1")
        if self.max_supersteps < 1:
            raise ConfigurationError("max_supersteps must be >= 1")
        if self.aggregator_slots < 0:
            raise ConfigurationError("aggregator_slots must be >= 0")


@dataclass
class RunReport:
    """What a finished run looked like.

    supersteps_executed counts compute phases, so the last executed
    superstep had index supersteps_executed - 1. halted_naturally is
    False only when the superstep cap cut the run short.
    """

    supersteps_executed: int
    final_values: dict[int, float]
    halted_naturally: bool


class VertexProgram(Protocol):
    """``compute`` gets a list of payloads, or their sum as one float
    when the class sets ``sum_messages = True``."""

    def compute(self, ctx: "VertexContext", messages: Sequence[float] | float) -> None: ...


class VertexContext:
    """Handle through which a program reads and drives one vertex.

    Mutating operations are only meaningful inside a compute call; the
    engine hands the same context to every compute of a given vertex.
    """

    __slots__ = ("_runner", "_index", "_state")

    def __init__(self, runner, index, state):
        self._runner = runner
        self._index = index
        self._state = state

    @property
    def vertex_id(self) -> int:
        return self._state.id

    @property
    def superstep_index(self) -> int:
        """Index of the superstep currently executing, starting at 0."""
        return self._runner.superstep

    @property
    def value(self) -> float:
        return self._state.value

    @value.setter
    def value(self, new_value) -> None:
        self._state.value = float(new_value)

    @property
    def out_edges(self) -> tuple[int, ...]:
        return self._state.out_edges

    @property
    def out_degree(self) -> int:
        return len(self._state.out_edges)

    @property
    def worker_index(self) -> int:
        """The worker owning this vertex: its id modulo the worker count."""
        return self._state.id % self._runner.config.worker_count

    def send_message_to_all_neighbors(self, payload) -> None:
        """Queue payload to every out-neighbor, delivered next superstep.

        On a vertex without out-edges this is a no-op. Repeated calls in
        one compute queue one payload per call per neighbor.
        """
        if not self._state.out_edges:
            return
        payload = float(payload)
        runner = self._runner
        outbox = runner.outbox
        index = self._index
        current = outbox[index]
        if current is None:
            outbox[index] = payload
        elif type(current) is list:
            current.append(payload)
        else:
            outbox[index] = [current, payload]
            runner.multi_sent = True

    def vote_to_halt(self) -> None:
        """Mark this vertex inactive; an incoming message wakes it again."""
        state = self._state
        if state.active:
            state.active = False
            self._runner.active_count -= 1

    def accumulate_aggr(self, slot: int, value) -> None:
        """Add value into an aggregator; readable globally next superstep."""
        folding = self._runner.folding
        if not 0 <= slot < len(folding):
            raise ProgramError(f"unknown aggregator slot {slot}")
        folding[slot] += float(value)

    def get_aggr_global(self, slot: int) -> float:
        """Folded sum of the previous superstep's contributions (0.0 at start)."""
        slots = self._runner.slots
        if not 0 <= slot < len(slots):
            raise ProgramError(f"unknown aggregator slot {slot}")
        return slots[slot].global_value


class _Runner:
    """One run's state. Vertices live at dense indices ``0..n-1`` in
    ascending id order; in-neighbors and the outbox use those indices."""

    def __init__(self, partitions, program, config):
        self.program = program
        self.config = config
        self.sum_messages = bool(getattr(program, "sum_messages", False))
        graph = graph_io.edge_list_from_partitions(list(partitions))
        ids = sorted(graph.vertex_ids)
        self.index = {vid: i for i, vid in enumerate(ids)}
        out_edges: list[list[int]] = [[] for _ in ids]
        for src, dst in graph.edges:
            out_edges[self.index[src]].append(dst)
        # Walking sources in ascending order presorts every in-neighbor
        # tuple by source id, which fixes the message order.
        in_neighbors: list[list[int]] = [[] for _ in ids]
        for i, dsts in enumerate(out_edges):
            for dst in dsts:
                in_neighbors[self.index[dst]].append(i)
        self.in_neighbors = [tuple(nbrs) for nbrs in in_neighbors]
        self.states = [
            VertexState(id=vid, value=0.0, out_edges=tuple(dsts))
            for vid, dsts in zip(ids, out_edges)
        ]
        self.contexts = [VertexContext(self, i, st) for i, st in enumerate(self.states)]
        self.silent = sum(1 for st in self.states if not st.out_edges)
        self.slots = [AggregatorSlot(i) for i in range(config.aggregator_slots)]
        self.folding = [0.0] * config.aggregator_slots
        self.active_count = len(ids)
        self.superstep = 0
        self.outbox: list = [None] * len(ids)
        self.multi_sent = False

    def execute(self, trace) -> RunReport:
        n = len(self.states)
        superstep = 0
        incoming: list = [None] * n
        incoming_multi = False
        while True:
            if self.active_count < n:
                self._reactivate(incoming)
            if self.active_count == 0:
                halted_naturally = True
                break
            if superstep >= self.config.max_supersteps:
                halted_naturally = False
                break
            if trace is not None:
                trace(f"superstep: {superstep}")
            self.superstep = superstep
            self.outbox = [None] * n
            self.multi_sent = False
            # Every vertex with out-edges sent exactly one payload, so each
            # in-neighbor holds one float: the sweep can skip the checks.
            full = not incoming_multi and incoming.count(None) == self.silent
            if self.sum_messages:
                self._sweep_summed(incoming, full)
            else:
                self._sweep_lists(incoming, full)
            # Barrier: publish the folded aggregators, swap the outbox in.
            for slot, folded in zip(self.slots, self.folding):
                slot.global_value = folded
            self.folding = [0.0] * len(self.slots)
            incoming, incoming_multi = self.outbox, self.multi_sent
            superstep += 1
        return RunReport(
            supersteps_executed=superstep,
            final_values={st.id: st.value for st in self.states},
            halted_naturally=halted_naturally,
        )

    def _reactivate(self, incoming) -> None:
        index, states = self.index, self.states
        for i, payload in enumerate(incoming):
            if payload is None:
                continue
            for dst in states[i].out_edges:
                state = states[index[dst]]
                if not state.active:
                    state.active = True
                    self.active_count += 1

    def _sweep_summed(self, incoming, full) -> None:
        compute = self.program.compute
        for ctx, state, nbrs in zip(self.contexts, self.states, self.in_neighbors):
            if not state.active:
                continue
            total = 0.0
            if full:
                for src in nbrs:
                    total += incoming[src]
            else:
                for src in nbrs:
                    payload = incoming[src]
                    if payload is None:
                        continue
                    if type(payload) is list:
                        for one in payload:
                            total += one
                    else:
                        total += payload
            compute(ctx, total)

    def _sweep_lists(self, incoming, full) -> None:
        compute = self.program.compute
        for ctx, state, nbrs in zip(self.contexts, self.states, self.in_neighbors):
            if not state.active:
                continue
            if full:
                compute(ctx, [incoming[src] for src in nbrs])
                continue
            messages: list[float] = []
            for src in nbrs:
                payload = incoming[src]
                if payload is None:
                    continue
                if type(payload) is list:
                    messages.extend(payload)
                else:
                    messages.append(payload)
            compute(ctx, messages)


def run(
    partitions: Sequence[graph_io.GraphPartition],
    program: VertexProgram,
    config: EngineConfig,
    trace: Callable[[str], None] | None = None,
) -> RunReport:
    """Run a vertex program over a partitioned graph until it halts.

    There must be exactly one partition per configured worker, in worker
    order. ``trace``, when given, receives one "superstep: <n>" line per
    compute phase and a final "elapsed: <seconds>" line.

    Raises ConfigurationError for a partition/worker mismatch and the
    graph_io consistency errors for partitions that do not assemble into
    a well-formed graph.
    """
    if len(partitions) != config.worker_count:
        raise ConfigurationError(
            f"{len(partitions)} partitions given for worker_count {config.worker_count}"
        )
    started = time.perf_counter()
    report = _Runner(partitions, program, config).execute(trace)
    if trace is not None:
        trace(f"elapsed: {time.perf_counter() - started:.6f}")
    return report
