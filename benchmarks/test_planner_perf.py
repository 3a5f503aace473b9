"""Planner load test: the exact-hit latency budget and coalescing.

Two invariants of the planner service (this PR's claim), guarded in CI:

1. **Exact-hit p50 latency budget** — answering a memoized query must
   never touch the search stack: resolve the request, hash the cells,
   load one small JSON payload off the I/O pool.  Locally that is
   ~0.4 ms; the budget is 25 ms — far above CI jitter, far below the
   ~100 ms cheapest cold search, so the gate trips exactly when
   someone puts a search, a directory scan, or a blocking call on the
   hit path and not when the runner is merely slow.
2. **Coalescing under load** — a mixed burst of N identical cold
   queries and M exact hits runs *exactly one* ``search.grid`` span:
   the defining invariant of request coalescing (without it, N
   identical concurrent queries each pay a full search).

Both tests append trajectory entries to the file named by
``--bench-record`` (see :mod:`repro.obs.trajectory`) so the latency
history accumulates per commit next to the search-speedup history.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import pytest

from repro.obs import MetricsRegistry, recording
from repro.obs.trajectory import record_entry
from repro.planner import Planner, PlanRequest


MODEL, CLUSTER, METHOD = "6.6B", "dgx1-64", "Breadth-first"

#: Exact-hit p50 gate, in seconds (see the module docstring).
MAX_EXACT_HIT_P50 = 0.025

#: Load shape: enough exact hits for a stable median, enough identical
#: cold queries that a coalescing bug would show as a ~12x search blowup.
N_EXACT_HITS = 50
N_IDENTICAL_COLD = 12


def _request(batch):
    return PlanRequest(
        model=MODEL, cluster=CLUSTER, batch_sizes=(batch,), methods=(METHOD,)
    )


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """A memo store with the B=8 cell solved (the exact-hit target)."""
    root = tmp_path_factory.mktemp("planner-store")
    with Planner(root) as planner:
        answer = asyncio.run(planner.plan(_request(8)))
    assert answer.sources == ("computed",)
    return root


def test_exact_hit_latency_budget(store_dir, benchmark, bench_record):
    request = _request(8)
    with Planner(store_dir) as planner:

        async def drive():
            latencies = []
            for _ in range(N_EXACT_HITS):
                started = time.perf_counter()
                answer = await planner.plan(request)
                latencies.append(time.perf_counter() - started)
                assert answer.sources == ("exact",)
            return latencies

        latencies = asyncio.run(drive())
        benchmark.pedantic(
            lambda: asyncio.run(planner.plan(request)), rounds=1
        )

    p50 = statistics.median(latencies)
    print(
        f"\nplanner exact hit ({N_EXACT_HITS} requests): "
        f"p50 {p50 * 1e3:.2f} ms, max {max(latencies) * 1e3:.2f} ms"
    )
    record_entry(
        bench_record,
        bench="planner_exact_hit",
        seconds=p50,
        cell={"model": MODEL, "method": METHOD, "batch": 8},
        counters={
            "n_requests": N_EXACT_HITS,
            "p50_seconds": p50,
            "max_seconds": max(latencies),
        },
    )
    assert p50 <= MAX_EXACT_HIT_P50, (
        f"exact-hit p50 regressed: {p50 * 1e3:.1f} ms > "
        f"{MAX_EXACT_HIT_P50 * 1e3:.0f} ms — the memo hit path must never "
        "search, scan the store directory, or block the event loop"
    )


def test_coalescing_invariant_under_load(store_dir, bench_record):
    """A mixed burst runs exactly one search for N identical cold cells."""
    cold = _request(32)  # not in the store: every copy needs the search
    hot = _request(8)

    def burst():
        with Planner(store_dir / "cold") as planner:
            # Fresh store per run so the cold cell is genuinely cold;
            # the hot cell hits the shared module store via a second
            # planner to keep one burst = one event loop.
            with Planner(store_dir) as hot_planner:

                async def run():
                    return await asyncio.gather(
                        *(planner.plan(cold) for _ in range(N_IDENTICAL_COLD)),
                        *(hot_planner.plan(hot) for _ in range(4)),
                    )

                return asyncio.run(run())

    started = time.perf_counter()
    with recording(MetricsRegistry(actor="planner-bench")) as registry:
        answers = burst()
    elapsed = time.perf_counter() - started

    snapshot = registry.snapshot()
    searches = [s for s in snapshot["spans"] if s["name"] == "search.grid"]
    counters = snapshot["counters"]
    cold_sources = sorted(a.sources[0] for a in answers[:N_IDENTICAL_COLD])
    hot_sources = [a.sources[0] for a in answers[N_IDENTICAL_COLD:]]

    print(
        f"\nplanner burst ({N_IDENTICAL_COLD} identical cold + 4 exact) in "
        f"{elapsed:.2f}s: {len(searches)} search span(s), "
        f"{counters.get('planner.coalesced', 0):.0f} coalesced"
    )
    record_entry(
        bench_record,
        bench="planner_coalescing",
        seconds=elapsed,
        cell={"model": MODEL, "method": METHOD, "batch": 32},
        counters={
            "n_identical": N_IDENTICAL_COLD,
            "n_searches": len(searches),
            "n_coalesced": counters.get("planner.coalesced", 0),
        },
    )
    assert len(searches) == 1, (
        f"coalescing broken: {N_IDENTICAL_COLD} identical in-flight queries "
        f"ran {len(searches)} searches instead of 1"
    )
    # Followers coalesce on the in-flight leader whatever its source —
    # 11 behind the one cold search, 3 behind the first exact load.
    assert counters["planner.coalesced"] == (N_IDENTICAL_COLD - 1) + 3
    assert cold_sources == ["coalesced"] * (N_IDENTICAL_COLD - 1) + ["computed"]
    assert sorted(hot_sources) == ["coalesced"] * 3 + ["exact"]
