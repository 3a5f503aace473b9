"""Tests for :mod:`repro.obs`: registry, spans, report, trajectory.

The contracts pinned here:

- the default recorder is the shared no-op one, and the instrumentation
  API is safe (and stateless) to call through it;
- ``recording()`` installs/restores the active recorder exception-safely;
- snapshots round-trip through JSON and ``read_snapshots`` tolerates the
  debris of killed writers;
- spans nest (depth + time containment) and timers are monotone under a
  hand-driven fake clock;
- the obs counters written by :func:`repro.search.grid.best_configuration`
  agree exactly with the search's own ``n_tried``/``n_excluded``/
  ``n_pruned`` accounting — the instrumentation measures the pipeline it
  claims to measure;
- the attribution report aggregates multi-actor snapshots and its ``ok``
  flag tracks the two required sections;
- the perf-trajectory recorder appends one entry per (bench, commit) and
  survives corrupt files.
"""

from __future__ import annotations

import json

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.obs import (
    NULL_RECORDER,
    MetricsRegistry,
    build_report,
    get_recorder,
    install,
    read_snapshots,
    recording,
    snapshot_from_json,
    uninstall,
    write_snapshot_line,
)
from repro.obs.report import quantile, report_to_json_text
from repro.obs.trajectory import current_commit, load_trajectory, record_entry
from repro.core.schedules.base import build_schedule
from repro.implementations import OUR_IMPLEMENTATION
from repro.parallel.config import Method, ParallelConfig, ScheduleKind
from repro.search.grid import best_configuration
from repro.sim.cost import CostModel
from repro.sim.engine import run_streams
from repro.sim.program import build_program
from repro.sim.topology import compiled_topology


class FakeClock:
    """Hand-driven monotonic clock for span/timer tests."""

    def __init__(self, start: float = 100.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_registry(clock: FakeClock | None = None) -> MetricsRegistry:
    clock = clock if clock is not None else FakeClock()
    return MetricsRegistry(actor="test", clock=clock, wall_clock=lambda: 5000.0)


class TestDisabledRecorder:
    def test_default_is_the_shared_noop(self):
        rec = get_recorder()
        assert rec is NULL_RECORDER
        assert rec.enabled is False

    def test_noop_api_is_callable_and_stateless(self):
        rec = NULL_RECORDER
        rec.count("a")
        rec.count("a", 5.0)
        rec.gauge("b", 1.0)
        rec.gauge_max("b", 2.0)
        rec.observe("c", 0.5)
        with rec.span("outer", key="k"):
            with rec.timer("t"):
                pass
        assert not hasattr(rec, "counters")

    def test_span_and_timer_share_one_null_context(self):
        # No allocation on the disabled path: every call returns the
        # same reusable context manager.
        assert NULL_RECORDER.span("a") is NULL_RECORDER.timer("b")
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("c", x=1)

    def test_install_uninstall(self):
        registry = make_registry()
        try:
            install(registry)
            assert get_recorder() is registry
        finally:
            uninstall()
        assert get_recorder() is NULL_RECORDER

    def test_recording_restores_previous_recorder_on_error(self):
        with pytest.raises(RuntimeError):
            with recording(make_registry()) as registry:
                assert get_recorder() is registry
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER

    def test_recording_default_registry(self):
        with recording() as registry:
            assert isinstance(registry, MetricsRegistry)
            get_recorder().count("x")
        assert registry.counters == {"x": 1.0}
        assert get_recorder() is NULL_RECORDER


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = make_registry()
        registry.count("cells")
        registry.count("cells", 2.0)
        registry.gauge("busy", 0.25)
        registry.gauge("busy", 0.75)  # last write wins
        registry.gauge_max("hw", 3.0)
        registry.gauge_max("hw", 1.0)  # never lowers
        registry.observe("ratio", 0.5)
        registry.observe("ratio", 0.7)
        assert registry.counters == {"cells": 3.0}
        assert registry.gauges == {"busy": 0.75, "hw": 3.0}
        assert registry.histograms == {"ratio": [0.5, 0.7]}

    def test_span_nesting_depth_and_containment(self):
        clock = FakeClock()
        registry = make_registry(clock)
        with registry.span("outer", cell="a"):
            clock.advance(1.0)
            with registry.span("inner"):
                clock.advance(0.5)
            clock.advance(0.25)
        spans = {s["name"]: s for s in registry.spans}
        assert spans["inner"]["depth"] == 1
        assert spans["outer"]["depth"] == 0
        assert spans["outer"]["attrs"] == {"cell": "a"}
        # Epoch anchoring: epoch(t) = wall_anchor + (t - perf_anchor).
        assert spans["outer"]["start"] == pytest.approx(5000.0)
        assert spans["inner"]["start"] == pytest.approx(5001.0)
        assert spans["inner"]["end"] == pytest.approx(5001.5)
        assert spans["outer"]["end"] == pytest.approx(5001.75)
        assert (
            spans["outer"]["start"]
            <= spans["inner"]["start"]
            <= spans["inner"]["end"]
            <= spans["outer"]["end"]
        )

    def test_out_of_order_close_stays_well_nested(self):
        # A crashed inner block can skip its own __exit__; closing the
        # outer span must close everything above it at the same instant.
        clock = FakeClock()
        registry = make_registry(clock)
        outer = registry.span("outer")
        outer.__enter__()
        clock.advance(1.0)
        registry.span("inner").__enter__()  # never exited
        clock.advance(1.0)
        outer.__exit__(None, None, None)
        assert not registry._span_stack
        assert [s["name"] for s in registry.spans] == ["inner", "outer"]
        assert registry.spans[0]["end"] == registry.spans[1]["end"]

    def test_timer_monotone_under_fake_clock(self):
        clock = FakeClock()
        registry = make_registry(clock)
        for dt in (0.0, 0.25, 1.5):
            with registry.timer("stage.seconds"):
                clock.advance(dt)
        values = registry.histograms["stage.seconds"]
        assert values == [0.0, 0.25, 1.5]
        assert all(v >= 0.0 for v in values)
        assert values == sorted(values)  # the clock never ran backward


class TestSnapshots:
    def test_round_trips_through_json(self):
        clock = FakeClock()
        registry = make_registry(clock)
        registry.count("n", 2.0)
        registry.gauge("g", 1.5)
        registry.observe("h", 0.5)
        registry.observe("h", 1.5)
        with registry.span("s", key="k"):
            clock.advance(1.0)
        snap = registry.snapshot(meta={"run": "test"})
        restored = snapshot_from_json(json.loads(json.dumps(snap, sort_keys=True)))
        assert restored == snap
        assert restored["actor"] == "test"
        assert restored["counters"] == {"n": 2.0}
        hist = restored["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(2.0)
        assert hist["min"] == 0.5
        assert hist["max"] == 1.5
        assert hist["values"] == [0.5, 1.5]
        assert restored["meta"] == {"run": "test"}

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"kind": "other"},
            {"kind": "obs-snapshot", "format": 999},
            {"kind": "obs-snapshot", "format": 1, "counters": []},
            {"kind": "obs-snapshot", "format": 1, "spans": {}},
        ],
    )
    def test_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            snapshot_from_json(payload)

    def test_read_snapshots_skips_debris(self, tmp_path):
        registry = make_registry()
        registry.count("n")
        path = tmp_path / "metrics" / "a.jsonl"
        write_snapshot_line(path, registry.snapshot())
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "obs-sna')  # killed writer: torn line
        (tmp_path / "metrics" / "b.jsonl").write_bytes(
            b"not json\n"
            b'{"kind": "other"}\n'  # valid JSON, not a snapshot
            b"\xff\xfe\n"  # not even UTF-8
        )
        # Directory mode and single-file mode agree; the one good line wins.
        assert len(read_snapshots(tmp_path / "metrics")) == 1
        assert len(read_snapshots(path)) == 1
        assert read_snapshots(tmp_path / "missing") == []


class TestSearchInstrumentation:
    @pytest.fixture(scope="class")
    def searched(self):
        compiled_topology.cache_clear()
        with recording(MetricsRegistry(actor="test")) as registry:
            outcome = best_configuration(
                MODEL_6_6B, DGX1_CLUSTER_64, Method.DEPTH_FIRST, 8
            )
        return registry, outcome

    def test_counters_match_search_accounting(self, searched):
        registry, outcome = searched
        c = registry.counters
        # The pipeline contract, observed two ways: the obs counters must
        # reproduce the outcome's own accounting exactly.
        assert c["search.candidates.enumerated"] == (
            outcome.n_tried + outcome.n_excluded + outcome.n_pruned
        )
        assert c["search.candidates.simulated"] == outcome.n_tried
        assert c["search.candidates.excluded"] == outcome.n_excluded
        assert c["search.candidates.pruned"] == outcome.n_pruned
        assert c["search.cells"] == 1.0

    def test_topology_and_warm_start_counters(self, searched):
        registry, outcome = searched
        c = registry.counters
        # Each simulated candidate compiles its program topology or
        # reuses a compiled one; the search never runs the event engine.
        assert c["sim.topology.compiled"] >= 1
        assert (
            c["sim.topology.compiled"] + c.get("sim.topology.hits", 0.0)
            == outcome.n_tried
        )
        assert "engine.runs" not in c
        assert c["search.warm_start.hits"] + c["search.warm_start.misses"] > 0

    def test_engine_counters(self):
        # Timelines and direct callers still run the event engine, which
        # counts runs, executed instructions and its heap's high water.
        config = ParallelConfig(
            n_dp=2, n_pp=2, n_tp=1, microbatch_size=1, n_microbatches=4,
            n_loop=1, schedule=ScheduleKind.GPIPE,
        )
        cost = CostModel(
            spec=MODEL_6_6B, config=config, cluster=DGX1_CLUSTER_64,
            implementation=OUR_IMPLEMENTATION,
        )
        schedule = build_schedule(config.schedule, config.n_pp, 4, 1, None)
        streams = build_program(cost, schedule)
        with recording(MetricsRegistry(actor="test")) as registry:
            run_streams(streams)
        assert registry.counters["engine.runs"] == 1
        assert registry.counters["engine.events_popped"] == sum(
            map(len, streams.values())
        )
        assert registry.gauges["engine.heap_high_water"] >= 1

    def test_stage_timers_and_tightness(self, searched):
        registry, outcome = searched
        for stage in ("memory_filter", "bound_order", "simulate"):
            assert len(registry.histograms[f"search.stage.{stage}.seconds"]) == 1
        tightness = registry.histograms["search.bound.tightness.DEPTH_FIRST"]
        assert 0 < len(tightness) <= outcome.n_tried
        assert all(v > 0.0 for v in tightness)

    def test_stage_spans_nest_under_the_cell_span(self, searched):
        registry, _outcome = searched
        by_name = {s["name"]: s for s in registry.spans}
        cell = by_name["search.cell"]
        assert cell["depth"] == 0
        assert cell["attrs"] == {"method": "DEPTH_FIRST", "batch_size": 8}
        for stage in ("memory_filter", "bound_order", "simulate"):
            span = by_name[f"search.stage.{stage}"]
            assert span["depth"] == 1
            assert cell["start"] <= span["start"] <= span["end"] <= cell["end"]


class TestReport:
    def test_empty_snapshots_are_not_ok(self):
        report = build_report([])
        assert not report.ok
        assert "NO DATA" in report.format()

    def test_quantile(self):
        assert quantile([3.0, 1.0, 2.0], 0.0) == 1.0
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert quantile([3.0, 1.0, 2.0], 1.0) == 3.0
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_search_snapshot_builds_required_sections(self):
        with recording(MetricsRegistry(actor="cell")) as registry:
            best_configuration(MODEL_6_6B, DGX1_CLUSTER_64, Method.NO_PIPELINE, 8)
        report = build_report([registry.snapshot()])
        assert report.ok
        stages = [s["stage"] for s in report.stage_times]
        assert stages == ["memory_filter", "bound_order", "simulate"]
        assert "NO_PIPELINE" in report.bound_tightness
        dist = report.bound_tightness["NO_PIPELINE"]
        assert dist["min"] <= dist["p50"] <= dist["max"]
        assert 0.0 <= report.warm_start["hit_rate"] <= 1.0
        # The memory filter's in/out counts reproduce the accounting.
        memory = report.stage_times[0]
        assert memory["candidates_in"] >= memory["candidates_out"]
        text = report.format()
        assert "Stage-time attribution" in text
        assert "Bound tightness" in text

    def test_worker_snapshots_aggregate_into_service_sections(self):
        worker = MetricsRegistry(actor="w0")
        worker.count("worker.cells_completed", 3)
        worker.count("worker.checkpoint_hits", 1)
        worker.count("worker.heartbeat_renewals", 2)
        worker.gauge("worker.busy_fraction", 0.8)
        worker.count("queue.events.claim", 3)
        coordinator = MetricsRegistry(actor="coordinator")
        coordinator.count("sweep.cells_total", 4)
        coordinator.count("sweep.cells_computed", 3)
        report = build_report([worker.snapshot(), coordinator.snapshot()])
        assert report.service == {
            "events.claim": 3.0,
            "cells_total": 4.0,
            "cells_computed": 3.0,
        }
        assert len(report.workers) == 1
        w = report.workers[0]
        assert w["actor"] == "w0"
        assert w["cells_completed"] == 3
        assert w["busy_fraction"] == pytest.approx(0.8)
        assert "Per-worker sweep activity" in report.format()

    def test_json_rendering_round_trips(self):
        with recording(MetricsRegistry(actor="cell")) as registry:
            best_configuration(MODEL_6_6B, DGX1_CLUSTER_64, Method.NO_PIPELINE, 8)
        report = build_report([registry.snapshot()])
        payload = json.loads(report_to_json_text(report))
        assert payload["ok"] is True
        assert payload["n_snapshots"] == 1
        assert {s["stage"] for s in payload["stage_times"]} == {
            "memory_filter",
            "bound_order",
            "simulate",
        }


class TestTrajectory:
    def test_record_load_and_per_commit_dedup(self, tmp_path):
        path = tmp_path / "BENCH_search.json"
        record_entry(
            path,
            bench="b",
            seconds=1.0,
            commit="c1",
            cell={"method": "DEPTH_FIRST"},
            counters={"n_tried": 7},
        )
        # Same bench, same commit: the rerun replaces the measurement.
        record_entry(path, bench="b", seconds=2.0, commit="c1")
        trajectory = load_trajectory(path)
        assert len(trajectory["entries"]) == 1
        assert trajectory["entries"][0]["seconds"] == 2.0
        # A new commit extends the trajectory.
        record_entry(path, bench="b", seconds=3.0, commit="c2")
        record_entry(path, bench="other", seconds=4.0, commit="c2")
        entries = load_trajectory(path)["entries"]
        assert [(e["bench"], e["commit"]) for e in entries] == [
            ("b", "c1"),
            ("b", "c2"),
            ("other", "c2"),
        ]

    def test_corrupt_file_is_replaced_not_fatal(self, tmp_path):
        path = tmp_path / "BENCH_search.json"
        path.write_text("{nope")
        assert load_trajectory(path) == {"format": 1, "entries": []}
        record_entry(path, bench="b", seconds=1.0, commit="c")
        assert len(load_trajectory(path)["entries"]) == 1

    def test_no_path_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        entry = record_entry(None, bench="b", seconds=1.0, commit="c")
        assert entry["bench"] == "b" and entry["seconds"] == 1.0
        assert list(tmp_path.iterdir()) == []

    def test_write_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "out" / "BENCH_search.json"
        record_entry(path, bench="b", seconds=1.0, commit="c")
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_current_commit_is_nonempty(self):
        assert current_commit()
