"""Vertex-centric bulk-synchronous graph execution.

A run advances in numbered supersteps. During superstep ``s`` the
engine calls ``program.compute(ctx, messages)`` once for every active
vertex, where ``messages`` is the list of exactly the payloads sent to
that vertex during superstep ``s - 1``. Everything a compute call emits,
outgoing messages and aggregator contributions alike, becomes visible
only after the barrier: messages arrive one superstep later, aggregator
globals hold the previous superstep's folded sum. A program's own
``aggregator_slots`` attribute is its slot count (0 when absent), and a
slot outside that count raises ProgramError.

A vertex leaves the run by voting to halt and is woken again only by an
incoming message. The run ends at the first barrier where every vertex
is inactive and no messages are in flight (a natural halt), or when the
superstep cap is reached.

Each superstep is one sweep over the vertices in ascending id order.
Message lists are ordered by sending vertex id, a sender's repeated
sends in send order, and aggregator contributions fold into their slot,
from 0.0, in the order the sweep makes them. The worker count, the
number of partitions, only decides which partition carries a vertex's
edges and what ``ctx.worker_index`` reports, never the order of any
arithmetic, so floating point results are reproducible bit for bit and
the same for every worker count.

Each program runs by one route. A program that defines
``compute_superstep(superstep, totals, values, degrees, published)``
instead computes every superstep in one call, and the engine never
calls its ``compute``. The call gets dense lists in ascending id order:
each vertex's messages combined, as a Pregel combiner would, by the
left fold ``total = 0.0; total += payload`` in the order above (0.0
when nothing arrived), its current value and its out-degree, plus the
published aggregator globals. It returns None when every vertex votes to halt, or
a tuple of the new values (floats), one outgoing payload per vertex (a
float, or None for no send; always None on a vertex without out-edges),
and each aggregator slot's contribution, folded from 0.0 in ascending id
order. Such a program's vertices can only halt all together.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from . import graph_io

MAX_SUPERSTEPS = 1000


class ConfigurationError(ValueError):
    """A run's partition list, superstep cap or slot count is out of range."""


class OwnershipError(ValueError):
    """An edge sits in a partition that does not own its source vertex."""


class ConsistencyError(ValueError):
    """Partition headers disagree with the vertices their edges identify."""


class ProgramError(RuntimeError):
    """A vertex program used the engine API outside its contract."""


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
    """``compute`` gets the list of payloads sent to the vertex in the
    previous superstep; a program that defines ``compute_superstep`` runs
    through that instead (see the module docstring), and one that uses
    aggregators defines ``aggregator_slots``, its slot count."""

    def compute(self, ctx: "VertexContext", messages: Sequence[float]) -> None: ...


class VertexContext:
    """The handle through which a program reads and drives one vertex.

    It is a view into the run's dense state, nothing more. Mutating
    operations are only meaningful inside a compute call; the engine
    hands the same context to every compute of a given vertex.
    """

    __slots__ = ("_runner", "_index")

    def __init__(self, runner, index):
        self._runner = runner
        self._index = index

    @property
    def vertex_id(self) -> int:
        return self._runner.ids[self._index]

    @property
    def superstep_index(self) -> int:
        """Index of the superstep currently executing, starting at 0."""
        return self._runner.superstep

    @property
    def value(self) -> float:
        return self._runner.values[self._index]

    @value.setter
    def value(self, new_value) -> None:
        self._runner.values[self._index] = float(new_value)

    @property
    def out_edges(self) -> tuple[int, ...]:
        return self._runner.out_edges[self._index]

    @property
    def out_degree(self) -> int:
        return self._runner.degrees[self._index]

    @property
    def worker_index(self) -> int:
        """The worker owning this vertex: its id modulo the worker count."""
        return self.vertex_id % self._runner.workers

    def send_message_to_all_neighbors(self, payload) -> None:
        """Queue payload to every out-neighbor, delivered next superstep.

        On a vertex without out-edges this is a no-op. Repeated calls in
        one compute queue one payload per call per neighbor.
        """
        runner, index = self._runner, self._index
        if not runner.degrees[index]:
            return
        sent = runner.outbox[index]
        if sent is None:
            runner.outbox[index] = [float(payload)]
        else:
            sent.append(float(payload))

    def vote_to_halt(self) -> None:
        """Mark this vertex inactive; an incoming message wakes it again."""
        runner = self._runner
        if runner.active[self._index]:
            runner.active[self._index] = False
            runner.active_count -= 1

    def accumulate_aggr(self, slot: int, value) -> None:
        """Add value into an aggregator; readable globally next superstep."""
        folding = self._runner.folding
        if not 0 <= slot < len(folding):
            raise ProgramError(f"unknown aggregator slot {slot}")
        folding[slot] += float(value)

    def get_aggr_global(self, slot: int) -> float:
        """Folded sum of the previous superstep's contributions (0.0 at start)."""
        published = self._runner.published
        if not 0 <= slot < len(published):
            raise ProgramError(f"unknown aggregator slot {slot}")
        return published[slot]


def _out_edges_checked(partitions) -> dict[int, tuple[int, ...]]:
    """Every vertex of a partition set, mapped to its out-edges in row order.

    The partition at position ``w`` of ``W`` is worker ``w``'s. Each is
    read once, in worker order, and let go before the next is read; its
    vertex-count header is kept. A vertex that never sources an edge has
    no row of its own; it is owned by ``id % W`` and must be covered by
    that partition's header. Headers are therefore checked against the
    vertex set the edges identify: a header smaller than that set means
    some destination has no declared home, a larger one counts vertices
    whose ids cannot be recovered. Either case raises ConsistencyError; a
    source owned by another worker raises OwnershipError, for the first
    such row, once every partition has been read, so a fault that reading
    a later partition raises comes first. Duplicate edges collapse, first
    one wins.
    """
    workers = len(partitions)
    rows: defaultdict[int, list[int]] = defaultdict(list)
    headers = []
    foreign = None  # the first row whose source another worker owns
    for worker in range(workers):
        part = partitions[worker]
        headers.append(part.vertex_count)
        for src, dst in zip(part.sources, part.dests, strict=True):
            if src % workers != worker and foreign is None:
                foreign = (src, dst, worker)
            rows[src].append(dst)
        del part  # the next partition is read with this one let go
    if foreign is not None:
        src, dst, worker = foreign
        raise OwnershipError(
            f"edge ({src}, {dst}) in partition {worker}: "
            f"source is owned by worker {src % workers}"
        )
    for src, dsts in rows.items():
        rows[src] = tuple(dict.fromkeys(dsts))  # in place: the lists go one by one
    sinks = set().union(*rows.values()).difference(rows)
    rows.update(dict.fromkeys(sinks, ()))
    counts = [0] * workers
    for vid in rows:
        counts[vid % workers] += 1
    for worker, (declared, count) in enumerate(zip(headers, counts)):
        if declared > count:
            raise ConsistencyError(
                f"partition {worker} declares {declared} vertices "
                f"but only {count} are identifiable from edges"
            )
        if declared < count:
            homeless = sorted(vid for vid in sinks if vid % workers == worker)
            hint = (
                f" (destination vertex {homeless[0]} has no declared home)" if homeless else ""
            )
            raise ConsistencyError(
                f"partition {worker} declares {declared} "
                f"vertices but its edges identify {count}{hint}"
            )
    return rows


class _Runner:
    """One run's state, all of it in dense lists. Vertices live at indices
    ``0..n-1`` in ascending id order: ``ids``, ``degrees``,
    ``in_neighbors`` (as indices), ``values``, ``active`` and ``outbox``
    are indexed by them; an outbox entry is None or what its vertex sent:
    a list from ``compute``, one float from the hook. A program without
    ``compute_superstep`` also gets ``out_edges``, which only its
    ``VertexContext.out_edges`` reads, and one ``VertexContext`` per
    index, built once. The runner keeps no partition."""

    def __init__(self, partitions, program, slots):
        self.program = program
        self.hook = getattr(program, "compute_superstep", None)
        self.workers = len(partitions)
        out = _out_edges_checked(partitions)
        self.ids = ids = sorted(out)
        index = {vid: i for i, vid in enumerate(ids)}
        # Walking sources in ascending order presorts every in-neighbor
        # tuple by source id, which fixes the message order. Each
        # out-edge tuple is popped as its in-edges are added, so the
        # graph is held about once.
        self.in_neighbors = in_neighbors = [[] for _ in ids]
        self.degrees = degrees = []
        if self.hook is None:
            self.out_edges = []
        for i, vid in enumerate(ids):
            dsts = out.pop(vid)
            degrees.append(len(dsts))
            for dst in dsts:
                in_neighbors[index[dst]].append(i)
            if self.hook is None:
                self.out_edges.append(dsts)
        for i, nbrs in enumerate(in_neighbors):
            in_neighbors[i] = tuple(nbrs)  # in place: the lists go one by one
        self.sinks = [i for i, degree in enumerate(degrees) if not degree]
        self.values = [0.0] * len(ids)
        self.active = [True] * len(ids)
        self.active_count = len(ids)
        self.published = [0.0] * slots
        self.folding = [0.0] * slots
        self.superstep = 0
        self.outbox: list = [None] * len(ids)
        if self.hook is None:
            self.contexts = [VertexContext(self, i) for i in range(len(ids))]

    def execute(self, max_supersteps, trace) -> RunReport:
        n = len(self.ids)
        superstep = 0
        incoming: list = [None] * n
        while True:
            # Only a vertex with out-edges ever holds a payload, so a
            # payload in flight always reaches, and wakes, some vertex.
            if self.active_count == 0 and incoming.count(None) == n:
                halted_naturally = True
                break
            if superstep >= max_supersteps:
                halted_naturally = False
                break
            if trace is not None:
                trace(f"superstep: {superstep}")
            self.superstep = superstep
            self.outbox = [None] * n
            if self.hook is not None:
                self._superstep_whole(incoming)
            else:
                self._sweep_lists(incoming)
            # Barrier: publish the folded aggregators, swap the outbox in.
            self.published, self.folding = self.folding, [0.0] * len(self.folding)
            incoming = self.outbox
            superstep += 1
        return RunReport(
            supersteps_executed=superstep,
            final_values=dict(zip(self.ids, self.values)),
            halted_naturally=halted_naturally,
        )

    def _fold(self, incoming) -> list[float]:
        """Each vertex's messages combined: the left fold ``total = 0.0;
        total += payload`` in ascending source order. A hook program sends
        at most one float per vertex.

        A vertex with out-edges that sent nothing adds 0.0. That leaves
        every total's bits unchanged: a left fold started at +0.0 never
        holds -0.0, and adding +0.0 to anything else returns it as it is.
        """
        if incoming.count(None) != len(self.sinks):
            incoming = [0.0 if payload is None else payload for payload in incoming]
        totals = []
        for nbrs in self.in_neighbors:
            total = 0.0
            for src in nbrs:
                total += incoming[src]
            totals.append(total)
        return totals

    def _superstep_whole(self, incoming) -> None:
        n = len(self.ids)
        result = self.hook(
            self.superstep, self._fold(incoming), self.values, self.degrees, self.published
        )
        if result is None:
            self.active = [False] * n
            self.active_count = 0
            return
        values, payloads, contributions = result
        # The sweep's invariants: a value per vertex, no send without
        # out-edges, and one fold per aggregator slot.
        if (
            not len(values) == len(payloads) == n
            or len(contributions) != len(self.folding)
            or any(payloads[i] is not None for i in self.sinks)
        ):
            raise ProgramError(
                "compute_superstep must return a value and a payload per vertex, "
                "None as the payload of a vertex without out-edges, and a "
                "contribution per aggregator slot"
            )
        self.values = values
        self.outbox = payloads
        self.folding = contributions

    def _sweep_lists(self, incoming) -> None:
        compute, active = self.program.compute, self.active
        for i, nbrs in enumerate(self.in_neighbors):
            messages: list[float] = []
            for src in nbrs:
                if incoming[src] is not None:
                    messages.extend(incoming[src])
            if not active[i]:
                if not messages:
                    continue
                active[i] = True
                self.active_count += 1
            compute(self.contexts[i], messages)


def run(
    partitions: Sequence[graph_io.GraphPartition],
    program: VertexProgram,
    max_supersteps: int = MAX_SUPERSTEPS,
    trace: Callable[[str], None] | None = None,
) -> RunReport:
    """Run a vertex program over a partitioned graph until it halts or
    has run ``max_supersteps`` supersteps.

    The worker count is the number of partitions, and a partition's
    worker index is its position in the list. The program's slot count is
    its ``aggregator_slots`` (0 when absent). ``trace``, when given,
    receives one "superstep: <n>" line per compute phase and a final
    "elapsed: <seconds>" line.

    Set-up reads each partition once, as ``partitions[w]`` in worker
    order, and keeps none of them; ``partitions`` may be any sequence
    that builds its items when they are read. The run alone judges what
    a partition set means: every row's source must be owned by its
    partition's worker (else OwnershipError, raised once every partition
    has been read), and each vertex-count header must equal the number
    of vertices the edges identify for that worker (else
    ConsistencyError). Set-up checks both in the same pass that builds
    the engine's state. An empty sequence, a cap below 1 or a slot count
    that is not an int >= 0 raises ConfigurationError before any
    partition is read.
    """
    if not partitions:
        raise ConfigurationError("a run needs at least one partition")
    if max_supersteps < 1:
        raise ConfigurationError("max_supersteps must be >= 1")
    slots = getattr(program, "aggregator_slots", 0)
    if type(slots) is not int or slots < 0:
        raise ConfigurationError(f"aggregator_slots must be an int >= 0, not {slots!r}")
    started = time.perf_counter()
    report = _Runner(partitions, program, slots).execute(max_supersteps, trace)
    if trace is not None:
        trace(f"elapsed: {time.perf_counter() - started:.6f}")
    return report
