"""Repository-wide pytest options.

``--bench-record PATH`` names the perf-trajectory file the timing
benchmarks append to (see :mod:`repro.obs.trajectory`).  Without it they
record nothing, so a test run never rewrites a tracked file.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bench-record",
        metavar="PATH",
        default=None,
        help="append benchmark trajectory entries to this JSON file",
    )


@pytest.fixture(scope="session")
def bench_record(request):
    """The trajectory path given by ``--bench-record``, or None."""
    return request.config.getoption("--bench-record")
