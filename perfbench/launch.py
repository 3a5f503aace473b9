"""One program process of a benchmark sample.

The runner (``run.py``) starts this script in a fresh interpreter for
every sample, so the program's in-process caches start cold, as they do
for a command-line user.  It imports the program from the checkout's
``src/``, optionally installs the layer tracer (``--trace-dir``), reports
when it is ready for work, runs one job through the program's public
entry points and writes what the runner checks to ``--out``.

Roles:

- ``warmup``: start up only, or also compute the paper-anchor error
  and the size of each listed cell's configuration space (not timed).
- ``sweep``: the full serial Figure-7 grid (``run_fig7``), or a list of
  ``run_sweep`` calls (fixture builds and resumed sweeps).
- ``serve``: the HTTP planner, exactly as ``repro-experiments serve``
  runs it, until interrupted.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from common import CONTEXTS, SRC, cell_id, cell_summary

sys.path.insert(0, str(SRC))

# What a sweep needs; these imports are part of every measured start-up.
from repro.experiments.fig7 import panel_setup, run_fig7  # noqa: E402
from repro.parallel.config import Method  # noqa: E402
from repro.search.cell import SearchSettings, SweepCell  # noqa: E402
from repro.search.objective import parse_objective  # noqa: E402
from repro.search.service import SweepOptions, run_sweep  # noqa: E402
from repro.search.service.serialize import outcome_to_json  # noqa: E402
from repro.search.space import configuration_space  # noqa: E402


def _space_size(ctx: str, method: str, batch: int) -> int:
    panel, objective, hybrid = CONTEXTS[ctx]
    spec, cluster = panel_setup(panel)
    settings = SearchSettings(
        include_hybrid=hybrid, objective=parse_objective(objective)
    )
    return sum(
        1
        for _ in configuration_space(
            Method(method), spec, cluster, batch, settings=settings
        )
    )


def _run_sweeps(job: dict) -> list[tuple[str, object]]:
    """The timed phase of a ``sweep`` job: ``[(ctx, SearchOutcome)]``."""
    if job.get("fig7"):
        answered = []
        for panel in ("52B", "6.6B", "6.6B-ethernet"):
            result = run_fig7(
                panel, quick=False, options=SweepOptions(backend="serial")
            )
            for outcomes in result.outcomes.values():
                answered.extend((f"throughput:{panel}", o) for o in outcomes)
        return answered
    answered = []
    for sweep in job["sweeps"]:
        panel, objective, hybrid = CONTEXTS[sweep["ctx"]]
        spec, cluster = panel_setup(panel)
        options = SweepOptions(
            backend=sweep.get("backend", "multiprocessing"),
            processes=sweep.get("processes"),
            checkpoint_dir=sweep.get("checkpoint_dir"),
            resume=sweep.get("resume", False),
            pricing_cache=sweep.get("pricing_cache"),
            objective=parse_objective(objective),
            include_hybrid=hybrid,
        )
        cells = [SweepCell(Method(m), b) for m, b in sweep["cells"]]
        outcomes = run_sweep(spec, cluster, cells, options=options)
        answered.extend((sweep["ctx"], o) for o in outcomes)
    return answered


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("warmup", "sweep", "serve"))
    parser.add_argument("--job", required=True, help="job JSON file")
    parser.add_argument("--out", help="result JSON file")
    parser.add_argument("--trace-dir", help="install the layer tracer")
    args = parser.parse_args()
    with open(args.job, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if args.trace_dir:
        from layertrace import install

        tracer = install(args.trace_dir)
    ready_ns = time.monotonic_ns()

    if args.role == "serve":
        from repro.planner.cli import serve_main

        # The runner stops the server with SIGINT, as Ctrl-C would.  A
        # process started in the background by a non-interactive shell
        # inherits SIGINT ignored, so restore Python's handler.
        signal.signal(signal.SIGINT, signal.default_int_handler)

        status = serve_main([
            "--store", job["store"], "--pricing-cache", job["pricing_cache"],
            "--port", "0",
        ])
        if tracer is not None:
            tracer.dump()
        return status

    result: dict = {"ready_ns": ready_ns}
    if args.role == "warmup":
        import numpy

        result["numpy"] = numpy.__version__
        if job.get("anchor"):
            from repro.fit.residuals import (
                AnchorEvaluator,
                weighted_throughput_error,
            )
            from repro.sim.calibration import DEFAULT_CALIBRATION

            residuals = AnchorEvaluator().evaluate(DEFAULT_CALIBRATION)
            result["anchor_err_pct"] = 100.0 * weighted_throughput_error(residuals)
        result["space"] = {
            cell_id(ctx, m, b): _space_size(ctx, m, b)
            for ctx, m, b in job.get("spaces", [])
        }
    else:
        t0 = time.monotonic_ns()
        answered = _run_sweeps(job)
        t1 = time.monotonic_ns()
        if tracer is not None:
            tracer.window = [t0, t1]
            tracer.dump()
        result["t0_ns"] = t0
        result["t1_ns"] = t1
        result["cells"] = [
            cell_summary(ctx, outcome_to_json(o)) for ctx, o in answered
        ]
        result["space"] = {
            cell_id(ctx, o.method.value, o.batch_size): _space_size(
                ctx, o.method.value, o.batch_size
            )
            for ctx, o in answered
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
