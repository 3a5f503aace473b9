"""Tests for the sweep service: serialization, checkpoints, backends."""

from __future__ import annotations

import json

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64, DGX1_CLUSTER_64_ETHERNET
from repro.models.presets import MODEL_6_6B
from repro.parallel.config import Method
from repro.search import grid as grid_module
from repro.search.grid import SearchOutcome, best_configuration
from repro.search.objective import DEFAULT_OBJECTIVE, ParetoFrontObjective
from repro.search.service import (
    CheckpointStore,
    MultiprocessingExecutor,
    SweepCell,
    SweepOptions,
    cell_key,
    outcome_from_json,
    outcome_to_json,
    run_sweep,
)
from repro.search.service.progress import ProgressReporter
from repro.search.service.serialize import (
    context_from_json,
    context_to_json,
    result_from_json,
    result_to_json,
)
from repro.sim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.sim.simulator import SimulationResult, simulate

#: Small, fast cells (6.6B no-pipeline spaces have ~2-20 candidates).
CELLS = [
    SweepCell(Method.NO_PIPELINE, 8),
    SweepCell(Method.NO_PIPELINE, 64),
    SweepCell(Method.DEPTH_FIRST, 8),
]


@pytest.fixture(scope="module")
def outcomes():
    return [
        best_configuration(MODEL_6_6B, DGX1_CLUSTER_64, c.method, c.batch_size)
        for c in CELLS
    ]


class TestSerialization:
    def test_outcome_round_trip_is_exact(self, outcomes):
        for outcome in outcomes:
            data = json.loads(json.dumps(outcome_to_json(outcome)))
            assert outcome_from_json(data) == outcome

    def test_none_best_round_trips(self):
        outcome = SearchOutcome(
            method=Method.BREADTH_FIRST, batch_size=4, best=None,
            n_tried=0, n_excluded=7,
        )
        assert outcome_from_json(outcome_to_json(outcome)) == outcome

    def test_result_with_timeline_round_trips(self, outcomes):
        best = outcomes[0].best
        result = simulate(
            MODEL_6_6B, best.config, DGX1_CLUSTER_64, record_events=True
        )
        assert len(result.timeline) > 0
        data = json.loads(json.dumps(result_to_json(result)))
        assert result_from_json(data) == result

    def test_context_round_trips(self):
        spec, cluster, calibration = context_from_json(
            json.loads(json.dumps(
                context_to_json(
                    MODEL_6_6B, DGX1_CLUSTER_64_ETHERNET, DEFAULT_CALIBRATION
                )
            ))
        )
        assert spec == MODEL_6_6B
        assert cluster == DGX1_CLUSTER_64_ETHERNET
        assert calibration == DEFAULT_CALIBRATION

    def test_malformed_outcome_raises(self):
        with pytest.raises((KeyError, TypeError, ValueError)):
            outcome_from_json({"method": "No pipeline"})
        with pytest.raises((KeyError, TypeError, ValueError)):
            outcome_from_json(
                {"method": "not-a-method", "batch_size": 8, "best": None,
                 "n_tried": 0, "n_excluded": 0}
            )


class TestCellKey:
    def args(self, **over):
        base = dict(
            spec=MODEL_6_6B,
            cluster=DGX1_CLUSTER_64,
            calibration=DEFAULT_CALIBRATION,
            cell=CELLS[0],
        )
        base.update(over)
        return base

    def test_deterministic(self):
        key = cell_key(**self.args())
        assert key == cell_key(**self.args())
        assert len(key) == 20
        int(key, 16)  # hex

    def test_sensitive_to_every_input(self):
        base = cell_key(**self.args())
        assert base != cell_key(**self.args(cell=SweepCell(Method.NO_PIPELINE, 16)))
        assert base != cell_key(
            **self.args(cell=SweepCell(Method.BREADTH_FIRST, 8))
        )
        assert base != cell_key(**self.args(cluster=DGX1_CLUSTER_64_ETHERNET))
        assert base != cell_key(
            **self.args(calibration=Calibration(fixed_step_overhead=1.0))
        )


class TestCheckpointStore:
    def test_store_load_round_trip(self, tmp_path, outcomes):
        store = CheckpointStore(tmp_path)
        store.store("aaaa", outcomes[0])
        assert store.load("aaaa") == outcomes[0]
        assert "aaaa" in store
        assert store.keys() == ["aaaa"]

    def test_missing_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("feed") is None

    def test_bytes_are_canonical(self, tmp_path, outcomes):
        store = CheckpointStore(tmp_path)
        path = store.store("aaaa", outcomes[0])
        assert path.read_bytes() == store.payload_bytes("aaaa", outcomes[0])

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json at all {",
            b"[1, 2, 3]",
            b'{"format": 999, "key": "dead", "outcome": {}}',
            b'{"format": 1, "key": "dead"}',
            b'{"format": 1, "key": "dead", "outcome": {"method": "x"}}',
        ],
        ids=["garbage", "wrong-type", "wrong-version", "no-outcome",
             "bad-outcome"],
    )
    def test_corrupt_file_rejected_cleanly(self, tmp_path, payload):
        store = CheckpointStore(tmp_path)
        store.path_for("dead").write_bytes(payload)
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            assert store.load("dead") is None

    def test_truncated_checkpoint_rejected(self, tmp_path, outcomes):
        store = CheckpointStore(tmp_path)
        path = store.store("aaaa", outcomes[0])
        path.write_bytes(path.read_bytes()[:-30])
        with pytest.warns(RuntimeWarning):
            assert store.load("aaaa") is None

    def test_key_mismatch_rejected(self, tmp_path, outcomes):
        # A checkpoint copied/renamed to the wrong key must not be trusted.
        store = CheckpointStore(tmp_path)
        store.path_for("bbbb").write_bytes(
            store.payload_bytes("aaaa", outcomes[0])
        )
        with pytest.warns(RuntimeWarning, match="key mismatch"):
            assert store.load("bbbb") is None


class TestRunSweep:
    def test_serial_matches_direct_search(self, outcomes):
        got = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(backend="serial"),
        )
        assert got == outcomes

    def test_duplicate_cells_searched_once(self, monkeypatch, outcomes):
        calls = []
        real = best_configuration

        def counting(spec, cluster, method, batch, calibration, settings):
            calls.append((method, batch))
            return real(spec, cluster, method, batch, calibration, settings)

        monkeypatch.setattr(
            "repro.search.service.executors.best_configuration", counting
        )
        got = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, [CELLS[0], CELLS[1], CELLS[0]],
            options=SweepOptions(backend="serial"),
        )
        assert len(calls) == 2
        assert got == [outcomes[0], outcomes[1], outcomes[0]]

    def test_checkpoints_written_and_resume_skips_search(
        self, tmp_path, monkeypatch, outcomes
    ):
        opts = SweepOptions(backend="serial", checkpoint_dir=tmp_path)
        first = run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        assert first == outcomes
        assert len(CheckpointStore(tmp_path)) == len(CELLS)

        def boom(*args, **kwargs):  # resume must not search anything
            raise AssertionError("searched a checkpointed cell")

        monkeypatch.setattr(
            "repro.search.service.executors.best_configuration", boom
        )
        resumed = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=opts, resume=True,
        )
        assert resumed == first

    def test_resume_recomputes_corrupted_cell(self, tmp_path, outcomes):
        opts = SweepOptions(backend="serial", checkpoint_dir=tmp_path)
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        key = cell_key(
            MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, CELLS[1]
        )
        CheckpointStore(tmp_path).path_for(key).write_bytes(b"{broken")
        with pytest.warns(RuntimeWarning):
            resumed = run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts, resume=True
            )
        assert resumed == outcomes

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
                options=SweepOptions(backend="dask"),
            )

    def test_file_queue_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_sweep(
                MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
                options=SweepOptions(backend="file-queue"),
            )

    def test_empty_cells(self):
        assert run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, []) == []

    def test_options_calibration_is_used_when_not_passed_explicitly(self):
        """``SweepOptions.calibration`` (the --calibration plumbing) must
        reach the actual search: a huge fixed step overhead visibly
        drags every cell's throughput."""
        slow = Calibration(fixed_step_overhead=1.0)
        via_options = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS[:1],
            options=SweepOptions(backend="serial", calibration=slow),
        )
        explicit = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS[:1],
            calibration=slow,
            options=SweepOptions(backend="serial"),
        )
        assert via_options == explicit
        default = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS[:1],
            options=SweepOptions(backend="serial"),
        )
        assert (
            via_options[0].best.throughput_per_gpu
            < default[0].best.throughput_per_gpu
        )

    def test_explicit_calibration_overrides_options(self):
        slow = Calibration(fixed_step_overhead=1.0)
        got = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS[:1],
            calibration=DEFAULT_CALIBRATION,
            options=SweepOptions(backend="serial", calibration=slow),
        )
        reference = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS[:1],
            options=SweepOptions(backend="serial"),
        )
        assert got == reference


class TestCellTiming:
    """Per-cell wall-clock sidecars and longest-cell-first scheduling."""

    def test_sweep_records_timing_sidecars(self, tmp_path):
        opts = SweepOptions(backend="serial", checkpoint_dir=tmp_path)
        run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        store = CheckpointStore(tmp_path)
        for cell in CELLS:
            key = cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell
            )
            seconds = store.load_timing(key)
            assert seconds is not None and seconds > 0

    def test_timing_sidecar_round_trip_and_corruption(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.store_timing("abc123", 1.25)
        assert store.load_timing("abc123") == 1.25
        assert store.load_timing("missing") is None
        store.timing_path_for("bad999").write_bytes(b"{nope")
        assert store.load_timing("bad999") is None  # silently advisory
        with pytest.raises(ValueError):
            store.store_timing("abc123", -1.0)

    def test_timing_files_do_not_pollute_checkpoint_keys(
        self, tmp_path, outcomes
    ):
        store = CheckpointStore(tmp_path)
        store.store("deadbeef", outcomes[0])
        store.store_timing("deadbeef", 2.0)
        assert store.keys() == ["deadbeef"]

    def test_recorded_timings_schedule_longest_first(self, tmp_path):
        from repro.search.service.service import _order_longest_first

        store = CheckpointStore(tmp_path)
        tasks = [
            (0, "aaa", SweepCell(Method.NO_PIPELINE, 8)),
            (1, "bbb", SweepCell(Method.NO_PIPELINE, 64)),
            (2, "ccc", SweepCell(Method.DEPTH_FIRST, 16)),
        ]
        store.store_timing("aaa", 0.5)
        store.store_timing("ccc", 9.0)
        ordered, _estimates = _order_longest_first(store, tasks, DEFAULT_OBJECTIVE)
        # Recorded cells rank by their measured seconds; the unrecorded
        # B=64 cell is estimated from the steepest recorded rate
        # (9.0s / 16 samples), putting its ~36s ahead of both — a big
        # new cell must not be scheduled after small known ones.
        # Ordering is family-clustered: cells of one method stay
        # consecutive (they share pricing families), so the small
        # NO_PIPELINE cell rides with its giant sibling ahead of the
        # DEPTH_FIRST group.
        assert [key for _i, key, _c in ordered] == ["bbb", "aaa", "ccc"]

    def test_unknown_cells_order_by_batch_size(self, tmp_path):
        from repro.search.service.service import _order_longest_first

        store = CheckpointStore(tmp_path)
        tasks = [
            (0, "aaa", SweepCell(Method.NO_PIPELINE, 8)),
            (1, "bbb", SweepCell(Method.NO_PIPELINE, 64)),
        ]
        ordered, _estimates = _order_longest_first(store, tasks, DEFAULT_OBJECTIVE)
        assert [key for _i, key, _c in ordered] == ["bbb", "aaa"]

    def test_estimates_scale_with_objective_cost_factor(self, tmp_path):
        from repro.search.service.service import _order_longest_first

        store = CheckpointStore(tmp_path)
        tasks = [
            (0, "aaa", SweepCell(Method.NO_PIPELINE, 16)),
            (1, "bbb", SweepCell(Method.NO_PIPELINE, 64)),
        ]
        # Cold store: a Pareto cell simulates ~2x the candidates, so its
        # seconds estimate (and the ETA built on it) doubles.
        _o, flat = _order_longest_first(store, tasks, DEFAULT_OBJECTIVE)
        _o, pareto = _order_longest_first(store, tasks, ParetoFrontObjective())
        factor = ParetoFrontObjective.simulate_cost_factor
        assert factor == 2.0
        assert pareto["bbb"] == flat["bbb"] * factor

        # With a recorded sidecar the measured seconds win verbatim, and
        # the unrecorded cell's estimate is objective-independent: the
        # factor divides out of the recorded rate and multiplies back
        # into the estimate, keeping sidecar-derived scales comparable
        # across objectives.
        store.store_timing("aaa", 8.0)
        _o, flat = _order_longest_first(store, tasks, DEFAULT_OBJECTIVE)
        _o, pareto = _order_longest_first(store, tasks, ParetoFrontObjective())
        assert flat["aaa"] == pareto["aaa"] == 8.0
        assert flat["bbb"] == pareto["bbb"] == 8.0 / 16 * 64

    def test_scheduling_order_never_changes_results(self, tmp_path, outcomes):
        # Seed timings that force a non-input order, then sweep: results
        # must still come back in input order.
        opts = SweepOptions(backend="serial", checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path)
        for cell, seconds in zip(CELLS, (1.0, 50.0, 10.0)):
            key = cell_key(
                MODEL_6_6B, DGX1_CLUSTER_64, DEFAULT_CALIBRATION, cell
            )
            store.store_timing(key, seconds)
        got = run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, options=opts)
        assert got == outcomes


class TestBackendParity:
    """Every backend must reproduce the serial outcomes exactly."""

    def test_spawn_pool_matches_serial(self, outcomes):
        # The satellite fix: spawn platforms get a real pool through the
        # initializer instead of a silent serial fallback.
        executor = MultiprocessingExecutor(processes=2, start_method="spawn")
        got = run_sweep(MODEL_6_6B, DGX1_CLUSTER_64, CELLS, executor=executor)
        assert got == outcomes

    def test_process_pool_matches_serial(self, outcomes):
        got = run_sweep(
            MODEL_6_6B, DGX1_CLUSTER_64, CELLS,
            options=SweepOptions(backend="process-pool", processes=2),
        )
        assert got == outcomes


class TestTieBreak:
    def test_equal_throughput_prefers_smaller_config(self, monkeypatch):
        seen = []

        def flat_simulate(
            spec, config, cluster, implementation=None, calibration=None,
            schedule=None, record_events=False, memory=None, cost=None,
        ):
            seen.append(config)
            return SimulationResult(
                config=config,
                implementation_name=implementation.name,
                step_time=1.0,
                throughput_per_gpu=1.0,  # every candidate ties
                utilization=0.5,
                compute_busy=1.0,
                pp_comm_busy=0.0,
                dp_comm_busy=0.0,
                bubble_fraction=0.0,
                memory=memory,
                timeline=(),
            )

        monkeypatch.setattr(grid_module, "simulate", flat_simulate)
        outcome = grid_module.best_configuration(
            MODEL_6_6B, DGX1_CLUSTER_64, Method.NO_PIPELINE, 64
        )
        assert len(seen) == outcome.n_tried > 1
        assert outcome.best.config.sort_key == min(c.sort_key for c in seen)

    def test_sort_key_orders_all_fields(self):
        from repro.parallel.config import ParallelConfig

        small = ParallelConfig(
            n_dp=1, n_pp=2, n_tp=1, microbatch_size=1, n_microbatches=4
        )
        bigger = ParallelConfig(
            n_dp=1, n_pp=2, n_tp=2, microbatch_size=1, n_microbatches=4
        )
        assert small.sort_key < bigger.sort_key


class TestProgressReporter:
    def test_renders_counts_and_eta(self):
        clock = iter([0.0, 10.0, 10.0, 20.0, 20.0]).__next__
        reporter = ProgressReporter(4, label="t", stream=None, clock=clock)
        reporter.update(2)
        line = reporter.render(10.0)
        assert "2/4" in line and "ETA" in line
        reporter.update(2)
        assert "done" in reporter.render(20.0)

    def test_skipped_cells_reported(self):
        reporter = ProgressReporter(2, clock=lambda: 0.0)
        reporter.skip(2)
        assert "2 from checkpoints" in reporter.render(0.0)

    def test_cost_weighted_eta_with_skewed_cells(self):
        # One giant cell (estimated 100s) plus three tiny ones (1s each),
        # scheduled longest-first.  After the giant finishes in 100s of
        # wall time, the naive completed-cell rate prices the remaining
        # three tiny cells at 300s; the cost-weighted ETA knows only the
        # ~3 estimated seconds remain.
        reporter = ProgressReporter(4, clock=lambda: 0.0)
        reporter.expect([100.0, 1.0, 1.0, 1.0])
        reporter.update(cost=100.0)
        eta = reporter.eta_seconds(100.0)
        assert eta == pytest.approx(3.0)
        naive_eta = (4 - 1) / (1 / 100.0)
        assert eta < naive_eta / 50

    def test_hot_cold_blend_stops_pricing_hot_cells_at_cold_speed(self):
        # Family-clustered scheduling regression: six cells estimated at
        # 10s each; the two cold family-firsts run 2x over estimate
        # (20s), the two cache-hot siblings 5x under it (2s).  The old
        # aggregate rate (44s / 40 cost = 1.1) prices the remaining two
        # hot cells at 22s; the hot/cold blend knows the recent regime
        # is hot (EMA over [0, 0, 1, 1] = 0.75) and prices them at
        # 0.75 * 0.2 + 0.25 * 2.0 = 0.65 s per estimated second.
        reporter = ProgressReporter(6, clock=lambda: 0.0)
        reporter.expect([10.0] * 6)
        for _ in range(2):
            reporter.update(cost=10.0, seconds=20.0, warm_hit_rate=0.0)
        for _ in range(2):
            reporter.update(cost=10.0, seconds=2.0, warm_hit_rate=1.0)
        eta = reporter.eta_seconds(44.0)
        assert eta == pytest.approx(20.0 * 0.65)
        aggregate_eta = 20.0 * (44.0 / 40.0)
        assert eta < aggregate_eta
        cold_rate_eta = 20.0 * 2.0
        assert eta < cold_rate_eta / 3

    def test_blend_needs_both_regimes_observed(self):
        # With only one regime seen (here: all completions cold) the
        # blend has no hot rate to offer and the ETA must fall back to
        # the exact aggregate formula the earlier tests pin.
        reporter = ProgressReporter(4, clock=lambda: 0.0)
        reporter.expect([10.0] * 4)
        reporter.update(cost=10.0, seconds=20.0, warm_hit_rate=0.0)
        assert reporter.eta_seconds(20.0) == pytest.approx(30.0 * 2.0)

    def test_eta_tracks_observed_slowdown(self):
        # Actual time running 2x over the estimates scales the ETA 2x.
        reporter = ProgressReporter(2, clock=lambda: 0.0)
        reporter.expect([10.0, 10.0])
        reporter.update(cost=10.0)
        assert reporter.eta_seconds(20.0) == pytest.approx(20.0)

    def test_eta_falls_back_to_rate_without_costs(self):
        reporter = ProgressReporter(4, clock=lambda: 0.0)
        reporter.update(2)
        assert reporter.eta_seconds(10.0) == pytest.approx(10.0)
        empty = ProgressReporter(4, clock=lambda: 0.0)
        assert empty.eta_seconds(10.0) is None
