"""Record ``expected.json``: the answer digest of every cell a workload asks.

Usage (from the repository root)::

    python3 perfbench/record.py

Searches every cell any seed of any workload can ask for, from scratch
with the program in this checkout, and writes its outcome digest,
counters and configuration-space size.  Run it only when a change is
meant to alter search outcomes or counters; the benchmark then checks
every later run against the new record.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from common import CONTEXTS, EXPECTED, METHODS, OUT, PANEL_BATCHES
from run import PLANNER_SEEDED_MISSES, Bench, fingerprint


def main() -> int:
    batches = {ctx: set() for ctx in CONTEXTS}
    for panel, panel_batches in PANEL_BATCHES.items():
        batches[f"throughput:{panel}"].update(panel_batches)
    batches["pareto-hybrid:6.6B"].update(PANEL_BATCHES["6.6B"])
    for panel, batch in PLANNER_SEEDED_MISSES:
        batches[f"throughput:{panel}"].add(batch)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}-record"
    work.mkdir(parents=True)
    bench = Bench(seed=0, seconds=0, work=work, expected={})
    try:
        sweeps = [
            {"ctx": ctx, "processes": 2,
             "cells": [(m, b) for m in METHODS for b in sorted(bs)]}
            for ctx, bs in batches.items()
        ]
        result = bench.launch("sweep", {"sweeps": sweeps})
        warm = bench.launch("warmup", {})
    finally:
        bench.procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    cells = {}
    for cell in result["cells"]:
        record = {k: cell[k] for k in ("digest", "n_tried", "n_excluded", "n_pruned")}
        record["space"] = result["space"][cell["id"]]
        total = cell["n_tried"] + cell["n_excluded"] + cell["n_pruned"]
        if total != record["space"]:
            print(f"error: {cell['id']}: counters do not partition the space",
                  file=sys.stderr)
            return 1
        cells[cell["id"]] = record
    EXPECTED.write_text(json.dumps({
        "recorded_with": fingerprint(0, warm["numpy"]),
        "cells": dict(sorted(cells.items())),
    }, indent=1) + "\n")
    print(f"recorded {len(cells)} cells to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
