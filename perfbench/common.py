"""Helpers shared by the benchmark runner (run.py) and the in-program launcher.

Nothing here imports the program under test, so the runner can use it
before it knows whether the checkout holds a program at all.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: Search contexts the workloads use.  ``throughput:<panel>`` is a Figure-7
#: panel under the default search settings (what ``run_fig7`` and the
#: planner's default requests search); ``pareto-hybrid:6.6B`` is the
#: resumed Pareto sweep with the hybrid sequence-size axis on.
CONTEXTS = {
    "throughput:52B": ("52B", "throughput", False),
    "throughput:6.6B": ("6.6B", "throughput", False),
    "throughput:6.6B-ethernet": ("6.6B-ethernet", "throughput", False),
    "pareto-hybrid:6.6B": ("6.6B", "pareto", True),
}

#: Figure-7 panel -> planner request (model preset, cluster alias).
PANEL_REQUEST = {
    "52B": ("52B", "dgx1-64"),
    "6.6B": ("6.6B", "dgx1-64"),
    "6.6B-ethernet": ("6.6B", "dgx1-64-ethernet"),
}

#: ``repro.parallel.config.Method`` values, in enum order.
METHODS = ("Breadth-first", "Depth-first", "Non-looped", "No pipeline")

#: Full Figure-7 batch lists (``repro.experiments.fig7.PANEL_BATCHES``).
PANEL_BATCHES = {
    "52B": (8, 16, 32, 64, 128, 256, 512),
    "6.6B": (32, 64, 128, 256, 512),
    "6.6B-ethernet": (64, 128, 256, 512),
}


def cell_id(ctx: str, method: str, batch: int) -> str:
    """Stable name of one search cell, the key of ``expected.json``."""
    return f"{ctx}|{method}|{batch}"


def _result_projection(result: dict | None) -> dict | None:
    # Timelines are empty for search results and are not part of the
    # answer; every other field (config, floats, memory) is.
    if result is None:
        return None
    return {k: v for k, v in result.items() if k != "timeline"}


def outcome_digest(outcome: dict) -> str:
    """Canonical digest of one search outcome in its wire-JSON form.

    Covers the winner, ``n_tried``/``n_excluded``/``n_pruned`` and the
    frontier.  Floats are compared exactly (``json`` writes ``repr``).
    """
    frontier = outcome.get("frontier")
    payload = {
        "method": outcome["method"],
        "batch_size": outcome["batch_size"],
        "n_tried": outcome["n_tried"],
        "n_excluded": outcome["n_excluded"],
        "n_pruned": outcome["n_pruned"],
        "best": _result_projection(outcome["best"]),
        "frontier": (
            None
            if frontier is None
            else [_result_projection(r) for r in frontier]
        ),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def cell_summary(ctx: str, outcome: dict) -> dict:
    """What the runner checks about one answered cell."""
    return {
        "id": cell_id(ctx, outcome["method"], outcome["batch_size"]),
        "digest": outcome_digest(outcome),
        "n_tried": outcome["n_tried"],
        "n_excluded": outcome["n_excluded"],
        "n_pruned": outcome["n_pruned"],
    }
