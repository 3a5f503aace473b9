"""Batched grid walk: byte-identical outcomes with batching on or off.

``SearchSettings.batch_eval`` composes vectorized family pricing with
the tighter drain-side bound, each individually bit-exact.  This suite holds the composition to the
search's own contract: winners, frontiers, the
``n_tried``/``n_excluded``/``n_pruned`` split, and the *serialized
checkpoint payload bytes* are identical with ``batch_eval`` on or off,
for every method and every objective.  It also pins the batched walk's
own obs counters, the accounting identity under batching, and the
exact number of program topologies a fixed set of cells compiles.
"""

from __future__ import annotations

import pytest

from repro.hardware.cluster import DGX1_CLUSTER_64
from repro.models.presets import MODEL_6_6B
from repro.obs import MetricsRegistry, recording
from repro.parallel.config import Method
from repro.search.cell import SearchSettings
from repro.search.grid import best_configuration, cached_schedule
from repro.search.objective import (
    MemoryConstrainedThroughput,
    ParetoFrontObjective,
    ThroughputObjective,
)
from repro.search.service import CheckpointStore, cell_key
from repro.search.space import configuration_space
from repro.sim.calibration import DEFAULT_CALIBRATION
from repro.sim.cost import comm_time_table, stage_time_table
from repro.sim.topology import compiled_topology

SPEC = MODEL_6_6B
CLUSTER = DGX1_CLUSTER_64


def _cold_search(method, batch, settings):
    """One cell from empty caches, so batching cannot coast on entries a
    previous (differently-configured) run left behind."""
    cached_schedule.cache_clear()
    stage_time_table.cache_clear()
    comm_time_table.cache_clear()
    compiled_topology.cache_clear()
    return best_configuration(SPEC, CLUSTER, method, batch, settings=settings)


class TestByteIdentity:
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.name)
    def test_outcome_identical_across_methods(self, method):
        on = _cold_search(method, 64, SearchSettings(batch_eval=True))
        off = _cold_search(method, 64, SearchSettings(batch_eval=False))
        assert on == off  # winner, counters, frontier — every field

    @pytest.mark.parametrize(
        "objective",
        [
            ThroughputObjective(),
            MemoryConstrainedThroughput(headroom=0.4),
            ParetoFrontObjective(),
        ],
        ids=lambda o: o.kind,
    )
    def test_outcome_identical_across_objectives(self, objective):
        on = _cold_search(
            Method.BREADTH_FIRST, 64,
            SearchSettings(batch_eval=True, objective=objective),
        )
        off = _cold_search(
            Method.BREADTH_FIRST, 64,
            SearchSettings(batch_eval=False, objective=objective),
        )
        assert on == off
        if objective.kind == "pareto":
            assert on.frontier == off.frontier and on.frontier

    def test_identical_without_bound_pruning_too(self):
        on = _cold_search(
            Method.DEPTH_FIRST, 32,
            SearchSettings(batch_eval=True, bound_pruning=False),
        )
        off = _cold_search(
            Method.DEPTH_FIRST, 32,
            SearchSettings(batch_eval=False, bound_pruning=False),
        )
        assert on == off
        assert on.n_pruned == 0

    def test_checkpoint_payload_bytes_identical(self, tmp_path):
        """The end-to-end guarantee a resumable sweep actually depends
        on: the hashed key and the serialized payload bytes must not
        know whether batching produced the outcome."""
        from repro.search.cell import SweepCell

        key = cell_key(
            spec=SPEC, cluster=CLUSTER, calibration=DEFAULT_CALIBRATION,
            cell=SweepCell(Method.BREADTH_FIRST, 64),
        )
        store = CheckpointStore(tmp_path)
        payloads = {}
        for flag in (True, False):
            outcome = _cold_search(
                Method.BREADTH_FIRST, 64, SearchSettings(batch_eval=flag)
            )
            payloads[flag] = store.payload_bytes(key, outcome)
        assert payloads[True] == payloads[False]

    def test_hybrid_axis_identical(self):
        on = _cold_search(
            Method.BREADTH_FIRST, 32,
            SearchSettings(batch_eval=True, include_hybrid=True),
        )
        off = _cold_search(
            Method.BREADTH_FIRST, 32,
            SearchSettings(batch_eval=False, include_hybrid=True),
        )
        assert on == off


class TestBatchedAccounting:
    def test_counters_cover_the_space_exactly(self):
        settings = SearchSettings(batch_eval=True)
        outcome = _cold_search(Method.BREADTH_FIRST, 64, settings)
        space = list(
            configuration_space(
                Method.BREADTH_FIRST, SPEC, CLUSTER, 64, settings=settings
            )
        )
        assert (
            outcome.n_tried + outcome.n_excluded + outcome.n_pruned
            == len(space)
        )

    def test_batched_obs_counters(self):
        with recording(MetricsRegistry(actor="test")) as registry:
            outcome = _cold_search(
                Method.BREADTH_FIRST, 64, SearchSettings(batch_eval=True)
            )
        c = registry.counters
        # Cold caches: every surviving family was vector-priced, none
        # were already cached, and the later bound/build lookups hit.
        assert c["search.batch.families_priced"] > 0
        assert c.get("search.batch.families_cached", 0.0) == 0.0
        assert c["search.warm_start.misses"] == 0.0
        assert c["search.warm_start.hits"] > 0
        assert c["search.warm_start.comm.hits"] >= 0.0
        # Binding-certificate counts partition the simulated candidates.
        binding = sum(
            v for k, v in c.items() if k.startswith("search.bound.binding.")
        )
        assert binding == outcome.n_tried

    def test_topology_compiles_and_hits_on_fixed_cells(self):
        """Every simulation either compiles its program topology or
        reuses one; candidates of a cell share few structures, and an
        adjacent batch size reuses most of the previous cell's."""
        cells = (
            (Method.NON_LOOPED, 64, 114, 82),
            (Method.BREADTH_FIRST, 64, 241, 231),
            (Method.BREADTH_FIRST, 128, 264, 513),
        )
        settings = SearchSettings(batch_eval=True, bound_pruning=False)
        compiled_topology.cache_clear()
        n_tried = 0
        with recording(MetricsRegistry(actor="test")) as registry:
            for method, batch, compiled, hits in cells:
                outcome = best_configuration(
                    SPEC, CLUSTER, method, batch, settings=settings
                )
                n_tried += outcome.n_tried
                c = registry.counters
                assert c["sim.topology.compiled"] == compiled
                assert c["sim.topology.hits"] == hits
        assert compiled + hits == n_tried
        info = compiled_topology.cache_info()
        assert (info.misses, info.hits, info.currsize) == (compiled, hits, compiled)

    def test_no_batch_means_no_batch_counters(self):
        with recording(MetricsRegistry(actor="test")) as registry:
            outcome = _cold_search(
                Method.BREADTH_FIRST, 64, SearchSettings(batch_eval=False)
            )
        c = registry.counters
        assert "search.batch.families_priced" not in c
        # Simulation does not depend on batching: every simulated
        # candidate still runs through a compiled topology.
        assert (
            c["sim.topology.compiled"] + c.get("sim.topology.hits", 0.0)
            == outcome.n_tried
        )
