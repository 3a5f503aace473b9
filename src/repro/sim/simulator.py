"""High-level simulation API: one training step of one configuration.

:func:`simulate` builds the schedule, executes its lowered program and
reports the paper's metrics: step time, per-GPU throughput (Eq. 11 flops
over time), utilization, per-category busy-time breakdown and the memory
model's peak.  Without a timeline the program runs as a cached compiled
topology plus this candidate's duration vector
(:mod:`repro.sim.topology`); with one it is built as instruction streams
and executed on the event engine, which yields bit-identical times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytical.memory import MemoryBreakdown, memory_model
from repro.core.schedules.base import Schedule, build_schedule
from repro.hardware.cluster import ClusterSpec
from repro.models.spec import TransformerSpec
from repro.parallel.config import ParallelConfig
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.sim.cost import CostModel
from repro.sim.engine import EngineResult, run_streams, run_streams_delta
from repro.sim.implementation import (
    ImplementationProfile,
    default_implementation_for,
)
from repro.sim.program import build_program, duration_values, program_shape
from repro.sim.timeline import TimelineEvent
from repro.sim.topology import compiled_topology, run_topology


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated training step.

    Attributes:
        config: The configuration simulated.
        implementation_name: Which library profile ran it.
        step_time: Batch time in seconds (includes the fixed step overhead).
        throughput_per_gpu: Model flop/s per GPU (the Appendix E metric).
        utilization: ``throughput_per_gpu / peak_flops``.
        compute_busy: Mean busy seconds of the compute streams.
        pp_comm_busy: Mean busy seconds of pipeline communication.
        dp_comm_busy: Mean busy seconds of data-parallel communication.
        bubble_fraction: Mean compute-stream idle share of the engine
            makespan.  Measured against the makespan, not ``step_time``:
            the fixed step overhead is not pipeline idle time and would
            inflate the bubble for short steps.
        memory: Peak-memory breakdown for this configuration.
        timeline: Executed events (empty if ``record_events`` was False).
    """

    config: ParallelConfig
    implementation_name: str
    step_time: float
    throughput_per_gpu: float
    utilization: float
    compute_busy: float
    pp_comm_busy: float
    dp_comm_busy: float
    bubble_fraction: float
    memory: MemoryBreakdown
    timeline: tuple[TimelineEvent, ...]


@dataclass(frozen=True)
class SimulationBase:
    """Reusable artifacts of one simulation, for sibling delta replay.

    Returned by :func:`simulate_delta` and fed back into it: the built
    instruction streams and the engine result are exactly what
    :func:`repro.sim.engine.run_streams_delta` diffs a sibling program
    against.  Delta replay is no longer on the search path (the search
    replays compiled topologies, :mod:`repro.sim.topology`); it stays
    while ``perfbench/layertrace.py`` binds these names.

    Attributes:
        config: The configuration the base program was built for.
        implementation_name: The library profile that built it.
        streams: The label-free instruction queues of the base program.
        engine_result: The engine outcome those streams produced.
    """

    config: ParallelConfig
    implementation_name: str
    streams: dict
    engine_result: EngineResult


def simulate(
    spec: TransformerSpec,
    config: ParallelConfig,
    cluster: ClusterSpec,
    implementation: ImplementationProfile | None = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    schedule: Schedule | None = None,
    record_events: bool = False,
    memory: MemoryBreakdown | None = None,
    cost: CostModel | None = None,
) -> SimulationResult:
    """Simulate one training step.

    Args:
        spec: Model to train.
        config: Distributed configuration (validated against the model and
            cluster).
        cluster: Hardware description.
        implementation: Library profile; defaults to the one the paper
            used for the config's schedule (ours for GPipe/breadth-first,
            Megatron-LM for 1F1B/depth-first).
        calibration: Cost-model constants.
        schedule: Pre-built schedule (rebuilt from the config if omitted).
        record_events: Keep the full timeline (needed for Figure 4).
            When False the program's compiled topology (built once per
            program shape and process) is replayed with this candidate's
            durations — the search fast path.
        memory: Pre-computed memory breakdown (recomputed if omitted).
            The search evaluates memory *before* simulating to exclude
            configurations, and passes the result here.
        cost: Pre-built cost model for exactly these inputs (rebuilt if
            omitted).  The search's bound stage already constructed one
            per surviving candidate and passes it here.  Its
            implementation is authoritative: passing a conflicting
            ``implementation`` raises rather than silently mixing the
            cost model's program with another profile's memory/labels.
    """
    if cost is not None:
        if implementation is not None and implementation is not cost.implementation:
            raise ValueError(
                f"cost was built for {cost.implementation.name}, but "
                f"implementation={implementation.name} was also passed"
            )
        implementation = cost.implementation
    elif implementation is None:
        implementation = default_implementation_for(config.schedule)
    if cost is None:
        cost = CostModel(
            spec=spec,
            config=config,
            cluster=cluster,
            implementation=implementation,
            calibration=calibration,
        )
    if schedule is None:
        schedule = build_schedule(
            config.schedule,
            config.n_pp,
            config.n_microbatches,
            config.n_loop,
            config.sequence_size,
        )
    if record_events:
        result = run_streams(build_program(cost, schedule), record_events=True)
    else:
        shape = program_shape(cost, schedule)
        makespan, stream_busy = run_topology(
            compiled_topology(schedule, shape), duration_values(cost, shape)
        )
        result = EngineResult(stream_busy=stream_busy, makespan=makespan)
    if memory is None:
        memory = memory_model(spec, config, implementation, schedule)
    return _assemble_result(cost, memory, result)


def _assemble_result(
    cost: CostModel, memory: MemoryBreakdown, result: EngineResult
) -> SimulationResult:
    """Derive the reported metrics from an engine outcome.

    Shared by every simulation path (compiled topology, event engine,
    delta replay), each bit-exact on makespan and stream busy times, so
    all of them yield a byte-identical :class:`SimulationResult`.
    """
    config = cost.config
    calibration = cost.calibration
    step_time = result.makespan + calibration.fixed_step_overhead
    n_pp = config.n_pp
    compute_busy = (
        sum(result.stream_busy.get((r, "compute"), 0.0) for r in range(n_pp)) / n_pp
    )
    pp_busy = sum(result.stream_busy.get((r, "pp"), 0.0) for r in range(n_pp)) / n_pp
    dp_busy = sum(result.stream_busy.get((r, "dp"), 0.0) for r in range(n_pp)) / n_pp

    return SimulationResult(
        config=config,
        implementation_name=cost.implementation.name,
        step_time=step_time,
        throughput_per_gpu=cost.throughput_per_gpu(step_time),
        utilization=cost.utilization(step_time),
        compute_busy=compute_busy,
        pp_comm_busy=pp_busy,
        dp_comm_busy=dp_busy,
        bubble_fraction=(
            1.0 - compute_busy / result.makespan if result.makespan > 0 else 0.0
        ),
        memory=memory,
        timeline=tuple(result.events),
    )


def simulate_delta(
    spec: TransformerSpec,
    config: ParallelConfig,
    cluster: ClusterSpec,
    *,
    base: SimulationBase | None,
    implementation: ImplementationProfile | None = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    schedule: Schedule | None = None,
    memory: MemoryBreakdown | None = None,
    cost: CostModel | None = None,
) -> tuple[SimulationResult, SimulationBase, bool]:
    """Simulate one step, replaying only the event-graph delta from a sibling.

    Not used by the search any more (see :class:`SimulationBase`).
    When ``base`` is the :class:`SimulationBase` of a *sibling*
    configuration (same family, one axis changed — e.g. DP0 vs DP_PS
    sharding of the same GPipe cell), only the instruction suffix that
    actually differs is re-executed; identical prefixes keep their
    timings.  Falls back to a
    full :func:`repro.sim.engine.run_streams` — same streams, same
    arithmetic — when ``base`` is ``None`` or the delta check finds the
    programs too different, so the returned result is **bit-identical**
    to ``simulate(...)`` either way (the parity suite in
    ``tests/test_simulate_delta.py`` holds it there).

    Returns ``(result, new_base, replayed)``: ``new_base`` carries this
    program's streams and engine result for the next sibling, and
    ``replayed`` reports whether the delta path was actually taken.

    Always builds label-free programs (``record_events=False``
    semantics): delta replay serves the search fast path, which never
    renders timelines.
    """
    if cost is not None:
        if implementation is not None and implementation is not cost.implementation:
            raise ValueError(
                f"cost was built for {cost.implementation.name}, but "
                f"implementation={implementation.name} was also passed"
            )
        implementation = cost.implementation
    elif implementation is None:
        implementation = default_implementation_for(config.schedule)
    if cost is None:
        cost = CostModel(
            spec=spec,
            config=config,
            cluster=cluster,
            implementation=implementation,
            calibration=calibration,
        )
    if schedule is None:
        schedule = build_schedule(
            config.schedule,
            config.n_pp,
            config.n_microbatches,
            config.n_loop,
            config.sequence_size,
        )
    streams = build_program(cost, schedule, record_events=False)
    result: EngineResult | None = None
    if base is not None:
        result = run_streams_delta(streams, base.streams, base.engine_result)
    replayed = result is not None
    if result is None:
        result = run_streams(streams, record_events=False)
    if memory is None:
        memory = memory_model(spec, config, implementation, schedule)
    new_base = SimulationBase(
        config=config,
        implementation_name=implementation.name,
        streams=streams,
        engine_result=result,
    )
    return _assemble_result(cost, memory, result), new_base, replayed
