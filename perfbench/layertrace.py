"""Outside-in layer tracing for the benchmark's traced run.

:func:`install` wraps the program's public entry points with timing
wrappers.  Each call records a span ``(layer, start, end, parent)`` in
the calling thread's list; the parent is the innermost open span of the
same thread.  Nothing under ``src/`` changes: the wrappers replace the
module and class attributes the callers look up, including every module
that bound a function by name at import time (``from x import f``), so a
wrapper never silently records zero.  Fork children (sweep pool workers)
inherit the wrappers and start with an empty span list; each worker
writes its spans after every task, because pool workers are terminated
rather than shut down.

:func:`analyze` runs in the runner (``run.py``). It splits the measured
window into per-layer *self* time: at each instant the time goes to the
innermost open span of every thread, shared equally among them, except
to a span that is waiting on an open span of another thread or process
(the sweep coordinator inside the executor iterator while workers
search, the planner's ``plan`` coroutine while its search and I/O
threads work). A span with no same-thread parent on another thread or
process takes as parent the innermost span of the root process's main
thread that covers its whole interval. Time with no open span is
``unattributed``. Self times plus unattributed time therefore add up to
the window by construction, so the runner also checks what can fail: the
span counters against the work the answers report, and the share of the
window the layers cover.
"""

from __future__ import annotations

import functools
import marshal
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Layers, named after the program's modules, in report order.
LAYERS = (
    "search.space",
    "analytical.memory",
    "analytical.lower_bound",
    "sim.cost_batch",
    "core.schedules",
    "sim.program",
    "sim.engine",
    "sim.simulator",
    "search.grid",
    "search.service.executors",
    "search.service.memo",
    "search.service.serialize",
    "sim.cost_store",
    "planner.core",
    "planner.http",
)
_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}
_EXECUTORS = _LAYER_INDEX["search.service.executors"]

clock = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes


class Tracer:
    """Per-process span and counter store (reset in fork children)."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self.window: list[int] | None = None
        self._schedule_info = None
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.threads: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._schedule_start = self._schedule_counts()

    def _thread_state(self) -> tuple[list, list]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            is_main = threading.current_thread() is threading.main_thread()
            with self._lock:
                self.threads.append([is_main, local.spans])
            return local.spans, local.stack

    def enter(self, layer: int) -> tuple[list, list, int]:
        spans, stack = self._thread_state()
        index = len(spans)
        record = [layer, clock(), 0, stack[-1] if stack else -1]
        stack.append(index)
        spans.append(record)
        return record, stack, index

    @staticmethod
    def leave(record: list, stack: list, index: int) -> None:
        record[2] = clock()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:  # an interleaved coroutine closed out of order
            stack.remove(index)

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # ------------------------------------------------------------ output

    def _schedule_counts(self) -> tuple[int, int]:
        info = self._schedule_info
        if info is None:
            return (0, 0)
        current = info()
        return (current.hits, current.misses)

    def snapshot(self) -> dict:
        hits, misses = self._schedule_counts()
        counts = dict(self.counts)
        counts["schedule_hits"] = hits - self._schedule_start[0]
        counts["schedule_misses"] = misses - self._schedule_start[1]
        return {
            "pid": self.pid,
            "root": self.pid == self.root_pid,
            "window": self.window,
            "threads": [[is_main, list(spans)] for is_main, spans in self.threads],
            "counts": counts,
        }

    def dump(self) -> None:
        """Write this process's spans (whole state, replacing earlier dumps)."""
        name = "root" if self.pid == self.root_pid else f"worker-{self.pid}"
        path = self.out_dir / f"{name}.bin"
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(marshal.dumps(self.snapshot()))
        os.replace(tmp, path)


# ---------------------------------------------------------------- wrappers


def _wrap(tracer: Tracer, layer: str, fn, post=None):
    index = _LAYER_INDEX[layer]
    calls = f"{layer}.calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(calls)
        record, stack, position = tracer.enter(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(record, stack, position)
        if post is not None:
            post(tracer, result, args)
        return result

    return wrapper


def _wrap_async(tracer: Tracer, layer: str, fn, post=None):
    index = _LAYER_INDEX[layer]
    calls = f"{layer}.calls"

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        tracer.add(calls)
        record, stack, position = tracer.enter(index)
        try:
            result = await fn(*args, **kwargs)
        finally:
            tracer.leave(record, stack, position)
        if post is not None:
            post(tracer, result, args)
        return result

    return wrapper


def _wrap_iter(tracer: Tracer, layer: str, fn):
    """One span over the iterator's life, first ``next()`` to exhaustion.

    Work the consumer does between items nests inside it as child spans,
    so the layer's self time is the iterator's own work (or its waiting
    on other processes) only.
    """
    index = _LAYER_INDEX[layer]
    calls = f"{layer}.calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(calls)
        record, stack, position = tracer.enter(index)
        try:
            yield from fn(*args, **kwargs)
        finally:
            tracer.leave(record, stack, position)

    return wrapper


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def _post_warm(tracer, result, _args):
    priced, cached = result
    tracer.add("families_priced", priced)
    tracer.add("families_cached", cached)


def _post_program(tracer, streams, _args):
    tracer.add("instructions", sum(len(s) for s in streams.values()))


def _post_delta(tracer, result, _args):
    tracer.add("delta_calls")
    if result[2]:
        tracer.add("delta_replayed")


def _post_grid(tracer, outcome, _args):
    tracer.add("n_tried", outcome.n_tried)
    tracer.add("n_excluded", outcome.n_excluded)
    tracer.add("n_pruned", outcome.n_pruned)


def _post_memo_store(tracer, path, _args):
    tracer.add("memo_bytes_written", _file_size(path))


def _post_memo_load(tracer, outcome, args):
    if outcome is not None:
        store, key = args[0], args[1]
        tracer.add("memo_bytes_read", _file_size(store.path_for(key)))


def _post_cost_store(tracer, path, _args):
    tracer.add("cost_store_bytes_written", _file_size(path))


def _post_plan(tracer, answer, _args):
    for source in answer.sources:
        tracer.add(f"source.{source}")


def _rebind(original, wrapper) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at ``wrapper``."""
    n = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                n += 1
    return n


def install(out_dir: str | os.PathLike) -> Tracer:
    """Wrap the program's entry points; returns the process's tracer."""
    import importlib

    for name in (
        "repro.search.space",
        "repro.analytical.memory",
        "repro.analytical.lower_bound",
        "repro.sim.cost_batch",
        "repro.sim.program",
        "repro.sim.engine",
        "repro.sim.simulator",
        "repro.search.grid",
        "repro.search.sweep",
        "repro.search.service.executors",
        "repro.search.service.memo",
        "repro.search.service.serialize",
        "repro.search.service.service",
        "repro.search.service.worker",
        "repro.sim.cost_store",
        "repro.planner.core",
        "repro.planner.protocol",
        "repro.planner.http",
        "repro.planner.cli",
        "repro.experiments.fig7",
        "repro.fit.residuals",
    ):
        importlib.import_module(name)
    modules = sys.modules
    tracer = Tracer(out_dir)
    grid = modules["repro.search.grid"]
    tracer._schedule_info = grid.cached_schedule.cache_info
    tracer._schedule_start = tracer._schedule_counts()

    functions = (
        ("repro.search.space", "configuration_space", "search.space", None, "iter"),
        ("repro.analytical.memory", "memory_model", "analytical.memory", None, ""),
        ("repro.analytical.lower_bound", "candidate_bound",
         "analytical.lower_bound", None, ""),
        ("repro.sim.cost_batch", "warm_family_tables", "sim.cost_batch",
         _post_warm, ""),
        ("repro.search.grid", "cached_schedule", "core.schedules", None, ""),
        ("repro.sim.program", "build_program", "sim.program", _post_program, ""),
        ("repro.sim.engine", "run_streams", "sim.engine", None, ""),
        ("repro.sim.engine", "run_streams_delta", "sim.engine", None, ""),
        ("repro.sim.simulator", "simulate", "sim.simulator", None, ""),
        ("repro.sim.simulator", "simulate_delta", "sim.simulator", _post_delta, ""),
        ("repro.search.grid", "best_configuration", "search.grid", _post_grid, ""),
        ("repro.search.service.serialize", "outcome_to_json",
         "search.service.serialize", None, ""),
        ("repro.search.service.serialize", "outcome_from_json",
         "search.service.serialize", None, ""),
        ("repro.search.service.serialize", "cell_key",
         "search.service.serialize", None, ""),
        ("repro.sim.cost_store", "seed_caches", "sim.cost_store", None, ""),
        ("repro.planner.protocol", "answer_to_json", "planner.http", None, ""),
        ("repro.planner.protocol", "request_from_json", "planner.http", None, ""),
    )
    for module_name, attr, layer, post, kind in functions:
        original = getattr(modules[module_name], attr)
        if kind == "iter":
            wrapper = _wrap_iter(tracer, layer, original)
        else:
            wrapper = _wrap(tracer, layer, original, post)
        if hasattr(original, "cache_info"):
            wrapper.cache_info = original.cache_info
            wrapper.cache_clear = original.cache_clear
        if not _rebind(original, wrapper):
            raise RuntimeError(f"no binding of {module_name}.{attr} found")

    executors = modules["repro.search.service.executors"]
    memo = modules["repro.search.service.memo"].MemoStore
    cost_store = modules["repro.sim.cost_store"].CostStore
    planner = modules["repro.planner.core"].Planner
    methods = (
        (executors.SerialExecutor, "run", "search.service.executors", None, "iter"),
        (executors.MultiprocessingExecutor, "run", "search.service.executors",
         None, "iter"),
        (memo, "store", "search.service.memo", _post_memo_store, ""),
        (memo, "load", "search.service.memo", _post_memo_load, ""),
        (memo, "load_many", "search.service.memo", None, ""),
        (memo, "neighbors", "search.service.memo", None, ""),
        (cost_store, "load", "sim.cost_store", None, ""),
        (cost_store, "store", "sim.cost_store", _post_cost_store, ""),
        (planner, "plan", "planner.core", _post_plan, "async"),
    )
    for cls, attr, layer, post, kind in methods:
        original = getattr(cls, attr)
        if kind == "iter":
            wrapper = _wrap_iter(tracer, layer, original)
        elif kind == "async":
            wrapper = _wrap_async(tracer, layer, original, post)
        else:
            wrapper = _wrap(tracer, layer, original, post)
        setattr(cls, attr, wrapper)

    # Pool workers are terminated, not shut down: write their spans after
    # every task.  The wrapper keeps the original's qualified name, so the
    # pool still pickles the task function by reference.
    search_indexed = executors._search_indexed

    @functools.wraps(search_indexed)
    def traced_search_indexed(task):
        try:
            return search_indexed(task)
        finally:
            tracer.dump()

    executors._search_indexed = traced_search_indexed
    return tracer


# ---------------------------------------------------------------- analysis


def load_dumps(trace_dir: str | os.PathLike) -> list[dict]:
    return [marshal.loads(p.read_bytes()) for p in sorted(Path(trace_dir).glob("*.bin"))]


class _Totals:
    """Sums over the analysed segments (one per traced program process tree)."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self.busy_ns = [0] * len(LAYERS)
        self.self_ns = [0.0] * len(LAYERS)
        self.unattributed_ns = 0.0
        self.window_ns = 0
        self.wait_ns = 0
        self.worker_busy_ns = 0
        self.worker_capacity_ns = 0


def _segment(totals: _Totals, dumps: list[dict], window: tuple[int, int]) -> None:
    t0, t1 = window
    totals.window_ns += t1 - t0
    layer_of: list[int] = []
    start: list[int] = []
    end: list[int] = []
    thread_of: list[int] = []
    parent: list[int] = []
    root_main: list[int] = []  # span indices on the root process's main thread
    foreign_roots: list[int] = []
    workers: dict[int, list[int]] = {}
    n_threads = 0
    for dump in dumps:
        for name, value in dump["counts"].items():
            totals.counts[name] += value
        for is_main, spans in dump["threads"]:
            base = len(layer_of)
            thread = n_threads
            n_threads += 1
            on_root_main = dump["root"] and is_main
            for layer, s, e, p in spans:
                index = len(layer_of)
                if e == 0:  # never closed: the process died inside it
                    e = t1
                layer_of.append(layer)
                start.append(s)
                end.append(e)
                thread_of.append(thread)
                parent.append(base + p if p >= 0 else -1)
                if on_root_main:
                    root_main.append(index)
                elif p < 0:
                    foreign_roots.append(index)
                if not dump["root"] and p < 0:
                    workers.setdefault(dump["pid"], []).append(index)

    # Cross-thread/process parents: the innermost root-main span that
    # covers the foreign span's whole interval.
    xparent = [-1] * len(layer_of)
    main_sorted = sorted(root_main, key=lambda i: (start[i], -end[i]))
    stack: list[int] = []
    cursor = 0
    for i in sorted(foreign_roots, key=lambda i: start[i]):
        t = start[i]
        while cursor < len(main_sorted) and start[main_sorted[cursor]] <= t:
            j = main_sorted[cursor]
            while stack and end[stack[-1]] <= start[j]:
                stack.pop()
            stack.append(j)
            cursor += 1
        while stack and end[stack[-1]] <= t:
            stack.pop()
        for j in reversed(stack):
            if end[j] >= end[i]:
                xparent[i] = j
                break

    # Sweep line over the span boundaries, clipped to the window.
    events = []
    for i in range(len(layer_of)):
        s = max(start[i], t0)
        e = min(end[i], t1)
        if e > s:
            events.append((s, 1, i))
            events.append((e, 0, i))
    events.sort()
    stacks: list[list[int]] = [[] for _ in range(n_threads)]
    open_children = [0] * len(layer_of)
    self_ns = totals.self_ns
    previous = t0
    for t, kind, i in events:
        if t > previous:
            leaves = [
                st[-1] for st in stacks if st and open_children[st[-1]] == 0
            ]
            dt = t - previous
            if leaves:
                share = dt / len(leaves)
                for leaf in leaves:
                    self_ns[layer_of[leaf]] += share
            else:
                totals.unattributed_ns += dt
            previous = t
        st = stacks[thread_of[i]]
        if kind == 1:
            st.append(i)
            if xparent[i] >= 0:
                open_children[xparent[i]] += 1
        else:
            if st and st[-1] == i:
                st.pop()
            else:
                st.remove(i)
            if xparent[i] >= 0:
                open_children[xparent[i]] -= 1
    if t1 > previous:
        totals.unattributed_ns += t1 - previous

    for i, layer in enumerate(layer_of):
        totals.busy_ns[layer] += max(0, min(end[i], t1) - max(start[i], t0))

    # Executor wait: root-main time inside the iterator with no
    # same-thread child running (blocked on workers or IPC).
    child_ns: dict[int, int] = defaultdict(int)
    for i in root_main:
        if parent[i] >= 0:
            child_ns[parent[i]] += end[i] - start[i]
    executor_spans = [i for i in root_main if layer_of[i] == _EXECUTORS]
    wait_ns = sum(end[i] - start[i] - child_ns[i] for i in executor_spans)
    totals.wait_ns += wait_ns
    if executor_spans:
        span_ns = max(end[i] for i in executor_spans) - min(
            start[i] for i in executor_spans
        )
        if workers:
            totals.worker_busy_ns += sum(
                end[i] - start[i] for roots in workers.values() for i in roots
            )
            totals.worker_capacity_ns += len(workers) * span_ns
        else:  # serial executor: the coordinator is the worker
            busy = sum(end[i] - start[i] for i in executor_spans)
            totals.worker_busy_ns += busy - wait_ns
            totals.worker_capacity_ns += span_ns


def analyze(
    segments: list[tuple[list[dict], tuple[int, int]]],
) -> tuple[dict, float]:
    """Per-layer calls/busy/self seconds plus the derived counters.

    Returns ``(metrics, traced wall seconds)``.

    Each segment is the dumps of one traced process tree and the
    ``(start_ns, end_ns)`` window of its measured phase on the monotonic
    clock; segments are disjoint in time and their results add up.
    """
    totals = _Totals()
    for dumps, window in segments:
        _segment(totals, dumps, window)
    counts = totals.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics: dict[str, float] = {}
    for index, name in enumerate(LAYERS):
        metrics[f"{name}.calls"] = int(counts.get(f"{name}.calls", 0))
        metrics[f"{name}.busy_s"] = totals.busy_ns[index] / 1e9
        metrics[f"{name}.self_s"] = totals.self_ns[index] / 1e9
    n_tried = int(counts["n_tried"])
    n_excluded = int(counts["n_excluded"])
    n_pruned = int(counts["n_pruned"])
    engine_s = totals.busy_ns[_LAYER_INDEX["sim.engine"]] / 1e9
    metrics.update({
        "search.grid.simulated": n_tried,
        "analytical.memory.excluded_ratio": ratio(
            n_excluded, n_tried + n_excluded + n_pruned
        ),
        "analytical.lower_bound.prune_ratio": ratio(n_pruned, n_pruned + n_tried),
        "sim.cost_batch.families_priced": int(counts["families_priced"]),
        "sim.cost_batch.cached_ratio": ratio(
            counts["families_cached"],
            counts["families_priced"] + counts["families_cached"],
        ),
        "core.schedules.cache_hit_ratio": ratio(
            counts["schedule_hits"],
            counts["schedule_hits"] + counts["schedule_misses"],
        ),
        "sim.program.instructions": int(counts["instructions"]),
        "sim.engine.instr_per_s": ratio(counts["instructions"], engine_s),
        "sim.simulator.delta_replay_ratio": ratio(
            counts["delta_replayed"], counts.get("sim.simulator.calls", 0)
        ),
        "search.service.executors.wait_s": totals.wait_ns / 1e9,
        "search.service.executors.worker_util": ratio(
            totals.worker_busy_ns, totals.worker_capacity_ns
        ),
        "search.service.memo.bytes_written": int(counts["memo_bytes_written"]),
        "search.service.memo.bytes_read": int(counts["memo_bytes_read"]),
        "sim.cost_store.bytes_written": int(counts["cost_store_bytes_written"]),
        "planner.core.exact": int(counts["source.exact"]),
        "planner.core.seeded": int(counts["source.seeded"]),
        "planner.core.computed": int(counts["source.computed"]),
        "unattributed_s": totals.unattributed_ns / 1e9,
    })
    return metrics, totals.window_ns / 1e9


def layer_unit(name: str) -> str:
    """Unit of one per-layer metric, from its name."""
    if name.endswith(".calls") or name in DETERMINISTIC:
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("planner.core.") or name.endswith(".families_priced"):
        return "count"
    if "bytes" in name:
        return "B"
    return "ratio"


#: Per-layer counters that must repeat exactly for the same code and seed.
DETERMINISTIC = (
    "search.grid.simulated",
    "sim.program.instructions",
    "planner.core.exact",
    "planner.core.seeded",
    "planner.core.computed",
)
