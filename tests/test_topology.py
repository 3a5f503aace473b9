"""Compiled topologies: bit-exact against the event engine, keyed exactly.

:mod:`repro.sim.topology` replays a candidate's duration vector through
a program structure compiled once per :class:`~repro.sim.program
.ProgramShape`.  The event engine on the built instruction streams
(``run_streams(build_program(...))``) is the oracle: makespan and every
stream's busy time must match with ``==``, for every schedule kind,
sharding mode, implementation profile and data-parallel extent,
including stages of a single layer (where a collective is not split into
head and bulk).  The cache key must separate every structural axis, and
a program that cannot finish must fail when it is compiled.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.ops import backward, forward
from repro.core.schedules.base import Schedule, build_schedule
from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.implementations import (
    MEGATRON_LM,
    OUR_IMPLEMENTATION,
    ImplementationProfile,
)
from repro.models.presets import MODEL_6_6B, MODEL_52B
from repro.parallel.config import ParallelConfig, ScheduleKind, Sharding
from repro.sim.cost import CostModel
from repro.sim.engine import EngineDeadlock, run_streams
from repro.sim.program import build_program, duration_values, program_shape
from repro.sim.simulator import simulate
from repro.sim.topology import compile_streams, compiled_topology, run_topology

CLUSTER = DGX1_CLUSTER_64
_SPECS = {"6.6B": MODEL_6_6B, "52B": MODEL_52B}
_IMPLS = {"ours": OUR_IMPLEMENTATION, "megatron": MEGATRON_LM}


def _cost(spec, impl, **over):
    kwargs = dict(
        n_dp=2, n_pp=2, n_tp=1, microbatch_size=1, n_microbatches=4,
        n_loop=1, schedule=ScheduleKind.GPIPE,
    )
    kwargs.update(over)
    return CostModel(
        spec=spec, config=ParallelConfig(**kwargs), cluster=CLUSTER,
        implementation=impl,
    )


def _schedule(config):
    return build_schedule(
        config.schedule, config.n_pp, config.n_microbatches, config.n_loop,
        config.sequence_size,
    )


def _compiled_run(cost, schedule):
    shape = program_shape(cost, schedule)
    return run_topology(
        compiled_topology(schedule, shape), duration_values(cost, shape)
    )


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        spec_name=st.sampled_from(sorted(_SPECS)),
        impl_name=st.sampled_from(sorted(_IMPLS)),
        kind=st.sampled_from(list(ScheduleKind)),
        sharding=st.sampled_from(list(Sharding)),
        n_dp=st.sampled_from([1, 2, 4]),
        n_pp=st.sampled_from([1, 2, 4, 8]),
        n_loop=st.sampled_from([1, 2, 3, 4, 8]),
        n_microbatches=st.sampled_from([1, 2, 4, 8, 16]),
        sequence_factor=st.sampled_from([1, 2]),
    )
    def test_matches_event_engine(
        self, spec_name, impl_name, kind, sharding, n_dp, n_pp, n_loop,
        n_microbatches, sequence_factor,
    ):
        """Property: one pass == the heap engine, to the last bit."""
        spec = _SPECS[spec_name]
        impl = _IMPLS[impl_name]
        assume(impl.supports(sharding))
        if not kind.is_looped:
            n_loop = 1
        over = dict(
            n_dp=n_dp, n_pp=n_pp, n_loop=n_loop,
            n_microbatches=n_microbatches, schedule=kind, sharding=sharding,
        )
        if kind is ScheduleKind.HYBRID:
            over["sequence_size"] = n_pp * sequence_factor
        try:
            cost = _cost(spec, impl, **over)
            schedule = _schedule(cost.config)
        except ValueError:
            assume(False)
        makespan, busy = _compiled_run(cost, schedule)
        oracle = run_streams(
            build_program(cost, schedule, record_events=False),
            record_events=False,
        )
        assert makespan == oracle.makespan
        assert busy == oracle.stream_busy  # every (rank, stream) entry

    @pytest.mark.parametrize(
        "spec, n_pp, n_loop",
        [
            (MODEL_6_6B, 8, 4),  # 32 stages of 32 layers: all single-layer
            (MODEL_6_6B, 8, 3),  # 24 stages: a mix of one- and two-layer
            (MODEL_52B, 8, 4),  # 32 stages of 64 layers: none single-layer
        ],
        ids=["all-single", "mixed", "none-single"],
    )
    @pytest.mark.parametrize("sharding", list(Sharding), ids=lambda s: s.name)
    def test_single_layer_stages(self, spec, n_pp, n_loop, sharding):
        cost = _cost(
            spec, OUR_IMPLEMENTATION, n_dp=4, n_pp=n_pp, n_loop=n_loop,
            n_microbatches=8, schedule=ScheduleKind.BREADTH_FIRST,
            sharding=sharding,
        )
        schedule = _schedule(cost.config)
        oracle = run_streams(build_program(cost, schedule), record_events=False)
        assert _compiled_run(cost, schedule) == (
            oracle.makespan, oracle.stream_busy
        )

    def test_simulate_paths_agree(self):
        """The search path and the timeline path report the same step."""
        cost = _cost(
            MODEL_6_6B, OUR_IMPLEMENTATION, n_dp=4, n_pp=4, n_loop=2,
            n_microbatches=8, schedule=ScheduleKind.DEPTH_FIRST,
            sharding=Sharding.FULL,
        )
        fast = simulate(MODEL_6_6B, cost.config, CLUSTER, cost=cost)
        timed = simulate(
            MODEL_6_6B, cost.config, CLUSTER, cost=cost, record_events=True
        )
        assert timed.timeline and not fast.timeline
        assert fast == dataclasses.replace(timed, timeline=())


class TestKey:
    def _topology(self, cost):
        schedule = _schedule(cost.config)
        return compiled_topology(schedule, program_shape(cost, schedule))

    def test_single_layer_stages_split_the_key(self):
        over = dict(
            n_dp=4, n_pp=8, n_loop=4, n_microbatches=8,
            schedule=ScheduleKind.BREADTH_FIRST,
        )
        single = _cost(MODEL_6_6B, OUR_IMPLEMENTATION, **over)
        double = _cost(MODEL_52B, OUR_IMPLEMENTATION, **over)
        assert program_shape(single, _schedule(single.config)) != program_shape(
            double, _schedule(double.config)
        )
        # One-layer stages reduce in one piece, two-layer ones in two.
        assert len(self._topology(single)) < len(self._topology(double))

    def test_sharding_splits_the_key(self):
        shapes = {
            program_shape(cost, _schedule(cost.config))
            for cost in (
                _cost(MODEL_6_6B, OUR_IMPLEMENTATION, sharding=sharding)
                for sharding in Sharding
            )
        }
        assert len(shapes) == len(Sharding)

    def test_overlap_flags_split_the_key(self):
        profiles = [
            OUR_IMPLEMENTATION,
            MEGATRON_LM,
            ImplementationProfile(
                name="dp-only", dp_overlap=True, pp_overlap=False,
                supported_sharding=frozenset({Sharding.NONE}),
                state_bytes_per_param=20.0, shardable_bytes_per_param=16.0,
            ),
            ImplementationProfile(
                name="pp-only", dp_overlap=False, pp_overlap=True,
                supported_sharding=frozenset({Sharding.NONE}),
                state_bytes_per_param=20.0, shardable_bytes_per_param=16.0,
            ),
        ]
        costs = [_cost(MODEL_6_6B, impl) for impl in profiles]
        shapes = {program_shape(c, _schedule(c.config)) for c in costs}
        assert len(shapes) == len(profiles)
        for cost in costs:
            schedule = _schedule(cost.config)
            oracle = run_streams(build_program(cost, schedule), record_events=False)
            assert _compiled_run(cost, schedule) == (
                oracle.makespan, oracle.stream_busy
            )

    def test_duration_only_axes_share_a_topology(self):
        schedule = _schedule(_cost(MODEL_6_6B, OUR_IMPLEMENTATION).config)
        costs = [
            _cost(MODEL_6_6B, OUR_IMPLEMENTATION, n_dp=n_dp, n_tp=n_tp,
                  microbatch_size=mb)
            for n_dp, n_tp, mb in ((2, 1, 1), (4, 2, 1), (2, 4, 2))
        ]
        topologies = {
            id(compiled_topology(schedule, program_shape(c, schedule)))
            for c in costs
        }
        assert len(topologies) == 1

    def test_hand_built_schedule_is_not_served_a_cached_topology(self):
        cost = _cost(MODEL_6_6B, OUR_IMPLEMENTATION, n_dp=1, n_pp=1,
                     n_microbatches=2)
        canonical = _schedule(cost.config)
        swapped = Schedule(
            kind=canonical.kind, n_pp=1, n_microbatches=2, n_loop=1,
            device_orders=((forward(1, 0), forward(0, 0), backward(1, 0),
                            backward(0, 0)),),
        )
        shape = program_shape(cost, canonical)
        assert program_shape(cost, swapped) == shape
        cached = compiled_topology(canonical, shape)
        assert compiled_topology(swapped, shape) is not cached
        assert compiled_topology(canonical, shape) is cached


class TestDeadlock:
    def test_unknown_dependency_fails_at_compile(self):
        streams = {
            (0, "compute"): [(("F", 0, 0), 0, ()), (("B", 0, 0), 1, (("X", 9),))]
        }
        with pytest.raises(EngineDeadlock, match="unknown instruction"):
            compile_streams(streams)

    def test_cycle_fails_at_compile(self):
        streams = {
            (0, "compute"): [(("A",), 0, (("B",),))],
            (1, "compute"): [(("B",), 0, (("A",),))],
        }
        with pytest.raises(EngineDeadlock, match="blocked stream heads"):
            compile_streams(streams)

    def test_fifo_cycle_fails_at_compile(self):
        """A cycle through a FIFO edge: ``A`` waits on ``C``, which waits
        behind ``B`` on a stream whose head ``B`` waits on ``A``."""
        streams = {
            (0, "compute"): [(("A",), 0, (("C",),))],
            (0, "pp"): [(("B",), 0, (("A",),)), (("C",), 0, ())],
        }
        with pytest.raises(EngineDeadlock):
            compile_streams(streams)

    def test_duplicate_uid_rejected(self):
        streams = {(0, "compute"): [(("A",), 0, ()), (("A",), 1, ())]}
        with pytest.raises(ValueError, match="duplicate"):
            compile_streams(streams)

    def test_misordered_schedule_deadlocks_like_the_engine(self):
        """A backward scheduled before its own forward can never run."""
        cost = _cost(MODEL_6_6B, OUR_IMPLEMENTATION, n_dp=1, n_pp=1,
                     n_microbatches=1)
        broken = Schedule(
            kind=ScheduleKind.GPIPE, n_pp=1, n_microbatches=1, n_loop=1,
            device_orders=((backward(0, 0), forward(0, 0)),),
        )
        with pytest.raises(EngineDeadlock):
            run_streams(build_program(cost, broken), record_events=False)
        with pytest.raises(EngineDeadlock):
            compiled_topology(broken, program_shape(cost, broken))

    def test_compiled_order_is_topological(self):
        cost = _cost(MODEL_6_6B, OUR_IMPLEMENTATION, n_dp=4, n_pp=4,
                     n_loop=2, n_microbatches=8,
                     schedule=ScheduleKind.BREADTH_FIRST,
                     sharding=Sharding.FULL)
        topology = compiled_topology(
            _schedule(cost.config),
            program_shape(cost, _schedule(cost.config)),
        )
        deps = iter(topology.deps)
        for i, k in enumerate(topology.n_deps):
            for _ in range(k):
                assert next(deps) < i


class TestConcurrency:
    def test_threads_share_a_small_cache_without_losing_counts(self):
        """More threads than cores hammer a cache smaller than the shape
        set, so lookups, recency updates and evictions interleave; every
        call is counted once and every topology stays exact."""
        import sys
        import threading

        from repro.sim.topology import _TopologyCache

        cases = []
        for n_mb in (1, 2, 3):
            for sharding in Sharding:
                cost = _cost(MODEL_6_6B, OUR_IMPLEMENTATION, n_pp=1,
                             n_microbatches=n_mb, sharding=sharding)
                schedule = _schedule(cost.config)
                shape = program_shape(cost, schedule)
                oracle = run_streams(build_program(cost, schedule),
                                     record_events=False)
                cases.append((schedule, shape, duration_values(cost, shape),
                              (oracle.makespan, oracle.stream_busy)))
        cache = _TopologyCache(maxsize=2)
        rounds = 300
        errors = []

        def work(offset):
            try:
                for r in range(rounds):
                    schedule, shape, values, expected = cases[
                        (offset + r) % len(cases)
                    ]
                    got = run_topology(cache(schedule, shape), values)
                    if got != expected:
                        errors.append((shape, got, expected))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = cache.cache_info()
        assert info.hits + info.misses == 8 * rounds
        assert info.currsize <= 2
