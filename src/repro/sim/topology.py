"""Compiled program topologies: lower each program structure once.

The grid search simulates thousands of candidates but only a few hundred
distinct program structures (:class:`~repro.sim.program.ProgramShape`).
:func:`compiled_topology` lowers a structure once, topologically sorts
it, and caches the result per process as flat integer arrays:

- ``stream[i]``: the stream of the i-th instruction in topological order;
- ``slot[i]``: its index into the candidate's duration vector
  (:func:`repro.sim.program.duration_values`);
- ``n_deps[i]`` and ``deps``: a CSR (compressed sparse row) index of its
  explicit dependencies, as positions in the same order.

The FIFO predecessor of an instruction stays implicit: it is the last
instruction of the same stream earlier in the order, whose end is the
stream's running free time.

:func:`run_topology` then simulates a candidate in one pass:
``start = max(free[stream], max(end[dep]))`` and ``end = start + dur``.
This is bit-identical to the event engine (:func:`repro.sim.engine
.run_streams`): ``max`` is exact, every end time is a single add, and
each stream's busy time is summed with ``+=`` in topological order,
which is FIFO order within the stream.  A program that cannot finish —
a dependency on an unknown instruction, or a cycle through dependency
and FIFO edges — raises :class:`~repro.sim.engine.EngineDeadlock` when
it is compiled, before any duration is read.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict, namedtuple
from itertools import accumulate, chain
from operator import itemgetter

from repro.core.schedules.base import Schedule
from repro.obs import get_recorder
from repro.sim.engine import EngineDeadlock
from repro.sim.program import ProgramShape, lower_program

#: Topologies kept per process.  A full Figure-7 grid compiles 233; an
#: entry averages ~1,300 instructions at ~13 bytes each.
TOPOLOGY_CACHE_SIZE = 512

_UID, _SLOT, _DEPS = itemgetter(0), itemgetter(1), itemgetter(2)

_CacheInfo = namedtuple("CacheInfo", ("hits", "misses", "maxsize", "currsize"))


class Topology:
    """One program structure, compiled for :func:`run_topology`.

    Attributes:
        stream_keys: ``(rank, stream_name)`` of each stream index.
        stream: Stream index per instruction, in topological order.
        slot: Duration slot per instruction.
        n_deps: Explicit dependency count per instruction.
        deps: The dependencies' positions, concatenated in order.
        orders: The schedule's ``device_orders`` it was lowered from.
    """

    __slots__ = ("stream_keys", "stream", "slot", "n_deps", "deps", "orders")

    def __init__(self, stream_keys, stream, slot, n_deps, deps, orders=None):
        self.stream_keys = stream_keys
        self.stream = stream
        self.slot = slot
        self.n_deps = n_deps
        self.deps = deps
        self.orders = orders

    def __len__(self) -> int:
        return len(self.stream)


def compile_streams(streams: dict) -> Topology:
    """Topologically sort instruction queues into a :class:`Topology`.

    ``streams`` maps ``(rank, stream_name)`` to queues of tuples whose
    first three fields are ``(uid, slot, deps)`` — the tuples
    :func:`repro.sim.program.lower_program` emits; an optional fifth
    field is a label used in diagnostics.

    Raises:
        ValueError: Two instructions share a uid.
        EngineDeadlock: A dependency names no instruction, or the
            dependency and FIFO edges form a cycle.
    """
    # Everything below works on flat lists built by C-level map/chain
    # calls: a per-instruction container would cost an allocation (and
    # garbage-collector traffic) per instruction of every compile.
    stream_keys = list(streams)
    nodes: list[tuple] = []
    stream_of: list[int] = []
    stops: list[int] = []  # stream -> one past its last instruction
    for s, key in enumerate(stream_keys):
        queue = streams[key]
        nodes += queue
        stops.append(len(nodes))
        stream_of += [s] * len(queue)
    total = len(nodes)
    id_of = dict(zip(map(_UID, nodes), range(total)))
    if len(id_of) < total:
        seen: set = set()
        for node in nodes:
            if node[0] in seen:
                raise ValueError(f"duplicate instruction uid {node[0]!r}")
            seen.add(node[0])
    dep_uids = list(map(_DEPS, nodes))
    try:
        flat = list(map(id_of.__getitem__, chain.from_iterable(dep_uids)))
    except KeyError:
        for i, uids in enumerate(dep_uids):
            for uid in uids:
                if uid not in id_of:
                    raise EngineDeadlock(
                        f"program deadlocked: {stream_keys[stream_of[i]]}: "
                        f"{_name(nodes[i])} waits on unknown instruction {uid!r}"
                    ) from None
        raise
    counts = list(map(len, dep_uids))
    ptr = [0, *accumulate(counts)]  # CSR offsets of each node's deps in flat

    order, heads = topological_order(stops, ptr, flat)
    if len(order) < total:
        done = set(order)
        blocked = []
        for s, key in enumerate(stream_keys):
            i = heads[s]
            if i < stops[s]:
                missing = [nodes[d][0] for d in flat[ptr[i]:ptr[i + 1]] if d not in done]
                blocked.append(f"{key}: {_name(nodes[i])} waiting on {missing}")
        raise EngineDeadlock(
            "program deadlocked; blocked stream heads:\n  " + "\n  ".join(blocked)
        )

    position = [0] * total
    for k, i in enumerate(order):
        position[i] = k
    dep_slots = chain.from_iterable(
        map(range, map(ptr.__getitem__, order), map(ptr[1:].__getitem__, order))
    )
    return Topology(
        stream_keys=stream_keys,
        stream=array("H", map(stream_of.__getitem__, order)),
        slot=array("i", map(_SLOT, map(nodes.__getitem__, order))),
        n_deps=array("H", map(counts.__getitem__, order)),
        deps=array("i", map(position.__getitem__, map(flat.__getitem__, dep_slots))),
    )


def topological_order(
    stops: list[int], ptr: list[int], flat: list[int]
) -> tuple[list[int], list[int]]:
    """Order a program's instructions over dependency and FIFO edges.

    Instructions are numbered stream by stream: stream ``s`` holds
    ``stops[s - 1]`` (0 for the first) up to ``stops[s]``, in queue
    order.  Instruction ``i`` depends on ``flat[ptr[i]:ptr[i + 1]]``.

    Returns ``(order, heads)``.  ``order`` lists the instructions that
    can run, each after its dependencies and its stream predecessor;
    those that cannot (on a cycle, or waiting on one) are left out.
    ``heads[s]`` is stream ``s``'s first instruction not in ``order``,
    or ``stops[s]`` when the whole stream is.

    Each stream advances its head while the head's dependencies are
    ordered; a blocked stream parks on the dependency it waits for and
    is woken when that instruction is ordered.
    """
    heads = [0, *stops[:-1]]
    order: list[int] = []
    done = [False] * (stops[-1] if stops else 0)
    parked: list[list[int] | None] = [None] * len(done)
    ready = list(range(len(stops)))
    while ready:
        s = ready.pop()
        i = heads[s]
        stop = stops[s]
        while i < stop:
            k = ptr[i]
            end = ptr[i + 1]
            while k < end and done[flat[k]]:
                k += 1
            if k < end:
                waiters = parked[flat[k]]
                if waiters is None:
                    parked[flat[k]] = [s]
                else:
                    waiters.append(s)
                break
            done[i] = True
            order.append(i)
            waiters = parked[i]
            if waiters is not None:
                ready += waiters
            i += 1
        heads[s] = i
    return order, heads


def _name(node: tuple) -> str:
    return (node[3] if len(node) > 3 else "") or repr(node[0])


def run_topology(
    topology: Topology, values: list[float]
) -> tuple[float, dict[tuple[int, str], float]]:
    """Simulate one candidate; returns ``(makespan, stream_busy)``.

    ``values`` is the candidate's duration vector
    (:func:`repro.sim.program.duration_values`).  Both results are
    bit-identical to :func:`repro.sim.engine.run_streams` on the same
    program.
    """
    free = [0.0] * len(topology.stream_keys)
    busy = [0.0] * len(topology.stream_keys)
    end: list[float] = []
    append = end.append
    next_dep = iter(topology.deps).__next__
    for s, d, k in zip(
        topology.stream, map(values.__getitem__, topology.slot), topology.n_deps
    ):
        t = free[s]
        while k:
            e = end[next_dep()]
            if e > t:
                t = e
            k -= 1
        t += d
        append(t)
        free[s] = t
        busy[s] += d
    return max(end, default=0.0), dict(zip(topology.stream_keys, busy))


class _TopologyCache:
    """Per-process LRU of compiled topologies keyed by program shape.

    A shape names its schedule by parameters; an entry is reused only
    for a schedule with equal ``device_orders`` (normally the very same
    object, from :func:`repro.search.grid.cached_schedule`).  A schedule
    that shares the parameters but not the orders is compiled on its own
    and does not replace the entry.
    """

    def __init__(self, maxsize: int) -> None:
        self._maxsize = maxsize
        self._data: OrderedDict[ProgramShape, Topology] = OrderedDict()
        self._hits = 0
        self._misses = 0
        # Planner searches run on several threads at once; the lock keeps
        # lookup, recency update and eviction one step.  Compiling runs
        # outside it.
        self._lock = threading.Lock()

    def __call__(self, schedule: Schedule, shape: ProgramShape) -> Topology:
        orders = schedule.device_orders
        with self._lock:
            topology = self._data.get(shape)
            hit = topology is not None and (
                topology.orders is orders or topology.orders == orders
            )
            if hit:
                self._data.move_to_end(shape)
                self._hits += 1
            else:
                self._misses += 1
        rec = get_recorder()
        if rec.enabled:
            rec.count("sim.topology.hits" if hit else "sim.topology.compiled")
        if hit:
            return topology
        topology = compile_streams(lower_program(schedule, shape))
        topology.orders = orders
        with self._lock:
            if shape not in self._data:
                self._data[shape] = topology
                if len(self._data) > self._maxsize:
                    self._data.popitem(last=False)
        return topology

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(
                self._hits, self._misses, self._maxsize, len(self._data)
            )

    def cache_clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0


compiled_topology = _TopologyCache(TOPOLOGY_CACHE_SIZE)
