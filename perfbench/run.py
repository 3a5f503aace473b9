"""Repository benchmark: three user workloads, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7_grid --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``perfbench/README.md`` for why each exists):

- ``fig7_grid``: the serial full Figure-7 grid (``run_fig7``, three
  panels, ``quick=False``).
- ``frontier_resume``: a Pareto sweep of the 6.6B panel with the hybrid
  axis, resumed on two workers from a checkpoint directory in which a
  seed-chosen half of the cells is solved.
- ``planner_session``: one closed-loop client driving ``POST /plan`` on
  the HTTP planner over a pre-seeded memo store.

Every sample runs the program in fresh processes.  Samples repeat until
``--seconds`` have passed (at least a minimum number per workload).
Outputs are checked against ``expected.json``; a mismatch fails the run.
With ``--trace 1`` one extra sample runs with the layer tracer
(``layertrace.py``) and the per-layer metrics are reported instead.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only if every output check passed, 1 if a check
failed or the program crashed or hung (the JSON line is still printed),
and 2, with no JSON line, only when the checkout has no program to
benchmark.  Results (with a host fingerprint) are appended to
``perfbench/out/results.jsonl``; the benchmark writes nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    EXPECTED,
    HERE,
    METHODS,
    OUT,
    PANEL_BATCHES,
    PANEL_REQUEST,
    ROOT,
    SRC,
    cell_id,
    cell_summary,
)
from layertrace import layer_unit

WORKLOADS = ("fig7_grid", "frontier_resume", "planner_session")
MIN_SAMPLES = {"fig7_grid": 3, "frontier_resume": 2, "planner_session": 5}
#: Extra start-ups before every sample (import-only launches for the sweep
#: workloads, a server started until ``/healthz`` answers and stopped again
#: for the planner), so ``setup_s`` is a median over many start-ups spread
#: across the run.
SETUP_PROBES = 3
#: Traced runs: the layers' self times must add up, with ``unattributed_s``,
#: to the traced ``wall_s`` within this share of it (a check of the split
#: itself) ...
RECONCILE_TOLERANCE = 0.01
#: ... and, without ``unattributed_s``, cover at least this share of it.
#: Time outside every wrapped entry point is unattributed, so a lost span
#: dump or a stretch of the program no layer covers shows here.  The
#: shares sit below the lowest coverage seen per workload (see README).
MIN_ATTRIBUTED = {"fig7_grid": 0.97, "frontier_resume": 0.9, "planner_session": 0.78}
#: Per-process timeouts (seconds).
LAUNCH_TIMEOUT = 170
STOP_TIMEOUT = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "anchor_err_pct": "%",
}

# planner_session stream shape (per session; identical for every session
# of a run, derived from the seed).  The hit count is sized so that exact
# hits (and repeats) take about half of a session's wall time and the
# misses the other half, so the hit path (memo, serialize, planner.*) and
# the search path each move ``wall_s``; README gives the measured shares.
PLANNER_HITS = 660
#: Seeded misses: batch sizes between solved panel cells of a seeded group.
PLANNER_SEEDED_MISSES = (
    ("52B", 24), ("52B", 96),
    ("6.6B", 48), ("6.6B", 96), ("6.6B", 192), ("6.6B", 384),
)
#: Cold misses: the unseeded 6.6B-ethernet group, disjoint method pairs so
#: that neither request finds a same-method neighbour.
PLANNER_COLD_MISSES = (
    ("6.6B-ethernet", 64, ("Breadth-first", "No pipeline")),
    ("6.6B-ethernet", 128, ("Depth-first", "Non-looped")),
)
#: Memo fixture: one panel batch of each adjacent pair is solved.
PLANNER_MEMO_PAIRS = {
    "52B": ((8, 16), (32, 64), (128, 256)),
    "6.6B": ((32, 64), (128, 256)),
}


class BenchError(RuntimeError):
    """The program failed to run a step: it crashed, hung, or built a bad fixture."""


# ------------------------------------------------------------- processes


class Processes:
    """Every process the runner starts; each is reaped before exit."""

    def __init__(self) -> None:
        self.live: list[subprocess.Popen] = []

    def start(self, args: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(args, **kwargs)
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
        """Wait for ``proc``; returns ``(exit code, peak RSS in MB)``.

        ``wait4`` reports the peak over the process and every descendant
        it reaped (sweep pool workers included).
        """
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        return proc.returncode, usage.ru_maxrss / 1024.0

    def stop_all(self) -> None:
        for proc in list(self.live):
            proc.kill()
            self.reap(proc, STOP_TIMEOUT)


class Bench:
    """State of one benchmark invocation."""

    def __init__(
        self, seed: int, seconds: float, work: Path, expected: dict | None = None
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.procs = Processes()
        if expected is None:
            expected = json.loads(EXPECTED.read_text())["cells"]
        self.expected = expected
        self._n = 0

    def path(self, name: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:04d}-{name}"

    def launch(self, role: str, job: dict, trace_dir: Path | None = None) -> dict:
        """Run one ``launch.py`` process to completion."""
        job_path = self.path("job.json")
        out_path = self.path("out.json")
        job_path.write_text(json.dumps(job))
        args = [sys.executable, str(HERE / "launch.py"), role,
                "--job", str(job_path), "--out", str(out_path)]
        if trace_dir is not None:
            args += ["--trace-dir", str(trace_dir)]
        spawned = time.monotonic_ns()
        proc = self.procs.start(args, stdout=sys.stderr, cwd=ROOT)
        code, rss_mb = self.procs.reap(proc, LAUNCH_TIMEOUT)
        if code != 0:
            raise BenchError(f"launch.py {role} exited with {code}")
        result = json.loads(out_path.read_text())
        result["setup_s"] = (result["ready_ns"] - spawned) / 1e9
        result["rss_mb"] = rss_mb
        if "t0_ns" in result:
            result["wall_s"] = (result["t1_ns"] - result["t0_ns"]) / 1e9
        return result

    # ------------------------------------------------------------ checks

    def check_cell(self, summary: dict, space: int | None) -> list[str]:
        """Problems with one answered cell (empty when it is correct)."""
        expected = self.expected.get(summary["id"])
        problems = []
        if expected is None:
            problems.append(f"{summary['id']}: no expected digest recorded")
        elif summary["digest"] != expected["digest"]:
            problems.append(f"{summary['id']}: digest {summary['digest']} != "
                            f"expected {expected['digest']}")
        total = summary["n_tried"] + summary["n_excluded"] + summary["n_pruned"]
        if space is None or total != space:
            problems.append(f"{summary['id']}: tried+excluded+pruned={total} "
                            f"but |configuration_space|={space}")
        return problems


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def _work_counts(cells: list[dict]) -> dict[str, int]:
    """Work of the cells a sample searched (not those loaded from a store)."""
    return {
        "cells": len(cells),
        "n_tried": sum(c["n_tried"] for c in cells),
        "n_excluded": sum(c["n_excluded"] for c in cells),
        "n_pruned": sum(c["n_pruned"] for c in cells),
    }


class Sample:
    """One measured sample: wall time, setups, peak RSS, checks."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.setups: list[float] = []
        self.rss_mb = 0.0
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_ops: set = set()
        self.counts: dict[str, int] = {}
        self.hit_ms: list[float] = []
        self.miss_ms: list[float] = []
        #: planner_session: summed request time per query kind (seconds).
        self.kind_s: dict[str, float] = {}
        #: Traced samples: ``[(trace directory, (start_ns, end_ns))]``.
        self.segments: list[tuple[Path, tuple[int, int]]] = []

    def absorb(self, result: dict) -> None:
        self.setups.append(result["setup_s"])
        self.rss_mb = max(self.rss_mb, result["rss_mb"])
        self.wall_s += result.get("wall_s", 0.0)

    def fail(self, op, problems: list[str]) -> None:
        if problems:
            self.failed_ops.add(op)
            self.problems.extend(problems)


# ------------------------------------------------------------- fig7_grid


def fig7_sample(bench: Bench, trace_dir: Path | None = None) -> Sample:
    sample = Sample()
    result = bench.launch("sweep", {"fig7": True}, trace_dir)
    sample.absorb(result)
    expected_ids = {
        cell_id(f"throughput:{panel}", m, b)
        for panel, batches in PANEL_BATCHES.items()
        for m in METHODS
        for b in batches
    }
    sample.attempted = len(expected_ids)
    seen = set()
    for cell in result["cells"]:
        seen.add(cell["id"])
        sample.fail(cell["id"], bench.check_cell(cell, result["space"].get(cell["id"])))
    for missing in sorted(expected_ids - seen):
        sample.fail(missing, [f"{missing}: not returned"])
    sample.counts = _work_counts(result["cells"])
    if trace_dir is not None:
        sample.segments = [(trace_dir, (result["t0_ns"], result["t1_ns"]))]
    return sample


# ------------------------------------------------------- frontier_resume

FRONTIER_CTX = "pareto-hybrid:6.6B"


def frontier_cells() -> list[tuple[str, int]]:
    return [(m, b) for m in METHODS for b in PANEL_BATCHES["6.6B"]]


def frontier_halves(bench: Bench) -> tuple[list, list]:
    """Split the cells into two seed-chosen halves of near-equal cost.

    Cells are ranked by a recorded cost proxy (simulated candidates times
    batch size), paired down the ranking, and the seed decides which
    member of each pair is solved in the fixture.  The two halves are
    complements, so a sample that resumes from each computes every cell
    exactly once whatever the seed.
    """
    rng = random.Random(f"frontier:{bench.seed}")

    def cost(cell):
        record = bench.expected[cell_id(FRONTIER_CTX, *cell)]
        return (record["n_tried"] * cell[1], cell)

    ranked = sorted(frontier_cells(), key=cost, reverse=True)
    half_a, half_b = [], []
    for i in range(0, len(ranked), 2):
        pair = ranked[i:i + 2]
        rng.shuffle(pair)
        half_a.append(pair[0])
        if len(pair) > 1:
            half_b.append(pair[1])
    return half_a, half_b


class FrontierFixture:
    def __init__(self, bench: Bench) -> None:
        self.halves = frontier_halves(bench)
        self.dirs = []
        self.reference: dict[str, str] = {}
        for half in self.halves:
            directory = bench.path("fixture")
            result = bench.launch("sweep", {"sweeps": [{
                "ctx": FRONTIER_CTX, "cells": half, "processes": 2,
                "checkpoint_dir": str(directory),
            }]})
            for cell in result["cells"]:
                problems = bench.check_cell(cell, result["space"].get(cell["id"]))
                if problems:
                    raise BenchError("fixture build failed its checks: "
                                     + "; ".join(problems))
                self.reference[cell["id"]] = cell["digest"]
            self.dirs.append(directory)


def frontier_sample(
    bench: Bench, fixture: FrontierFixture, trace_dir: Path | None = None
) -> Sample:
    sample = Sample()
    all_cells = frontier_cells()
    counts: dict[str, int] = {}
    for n, (fixture_dir, solved) in enumerate(zip(fixture.dirs, fixture.halves)):
        store = bench.path("store")
        shutil.copytree(fixture_dir, store)
        sub_trace = None
        if trace_dir is not None:
            sub_trace = trace_dir / f"resume{n}"
            sub_trace.mkdir(parents=True)
        result = bench.launch("sweep", {"sweeps": [{
            "ctx": FRONTIER_CTX, "cells": all_cells, "processes": 2,
            "checkpoint_dir": str(store), "resume": True,
            "pricing_cache": str(bench.path("pricing")),
        }]}, sub_trace)
        sample.absorb(result)
        sample.attempted += len(all_cells)
        solved_ids = {cell_id(FRONTIER_CTX, *c) for c in solved}
        seen = set()
        for cell in result["cells"]:
            op = (n, cell["id"])
            seen.add(cell["id"])
            problems = bench.check_cell(cell, result["space"].get(cell["id"]))
            if cell["id"] in solved_ids and cell["digest"] != fixture.reference[cell["id"]]:
                problems.append(f"{cell['id']}: resumed outcome differs from "
                                f"the from-scratch sweep")
            sample.fail(op, problems)
        for c in all_cells:
            if cell_id(FRONTIER_CTX, *c) not in seen:
                sample.fail((n, c), [f"{cell_id(FRONTIER_CTX, *c)}: not returned"])
        computed = [c for c in result["cells"] if c["id"] not in solved_ids]
        for name, value in _work_counts(computed).items():
            counts[name] = counts.get(name, 0) + value
        shutil.rmtree(store)
        if sub_trace is not None:
            sample.segments.append((sub_trace, (result["t0_ns"], result["t1_ns"])))
    sample.counts = counts
    return sample


# ------------------------------------------------------- planner_session


def planner_memo_cells(bench: Bench) -> dict[str, list[int]]:
    rng = random.Random(f"planner-memo:{bench.seed}")
    return {
        panel: sorted(rng.choice(pair) for pair in pairs)
        for panel, pairs in PLANNER_MEMO_PAIRS.items()
    }


def _request(panel: str, batch: int, methods=()) -> dict:
    model, cluster = PANEL_REQUEST[panel]
    body = {"model": model, "cluster": cluster, "batch_sizes": [batch]}
    if methods:
        body["methods"] = list(methods)
    return body


def planner_stream(bench: Bench, memo: dict[str, list[int]]) -> list[tuple]:
    """The seeded query stream: ``[(kind, panel, request body)]``.

    Kinds: ``hit`` (a solved cell of the memo fixture), ``seeded`` (a
    batch size between solved cells of a seeded group), ``cold`` (the
    unseeded ethernet group) and ``repeat`` (a miss this session already
    computed, asked again later).  The multiset of misses is the same for
    every seed; the seed picks the hit targets, the order and where each
    repeat lands.
    """
    rng = random.Random(f"planner-stream:{bench.seed}")
    targets = [(panel, b) for panel, batches in memo.items() for b in batches]
    stream = [("hit", p, _request(p, b)) for p, b in
              (rng.choice(targets) for _ in range(PLANNER_HITS))]
    misses = [("seeded", p, _request(p, b)) for p, b in PLANNER_SEEDED_MISSES]
    misses += [("cold", p, _request(p, b, m)) for p, b, m in PLANNER_COLD_MISSES]
    stream += misses
    rng.shuffle(stream)
    for _kind, panel, body in misses:
        after = next(i for i, item in enumerate(stream) if item[2] is body)
        stream.insert(rng.randint(after + 1, len(stream)), ("repeat", panel, body))
    return stream


def planner_space_cells(stream: list[tuple]) -> list[tuple[str, str, int]]:
    cells = set()
    for _kind, panel, body in stream:
        for m in body.get("methods") or METHODS:
            cells.add((f"throughput:{panel}", m, body["batch_sizes"][0]))
    return sorted(cells)


class PlannerFixture:
    def __init__(self, bench: Bench) -> None:
        self.memo = planner_memo_cells(bench)
        self.stream = planner_stream(bench, self.memo)
        self.store = bench.path("fixture")
        self.pricing = bench.path("pricing")
        result = bench.launch("sweep", {"sweeps": [
            {"ctx": f"throughput:{panel}", "processes": 2,
             "cells": [(m, b) for m in METHODS for b in batches],
             "checkpoint_dir": str(self.store),
             "pricing_cache": str(self.pricing)}
            for panel, batches in self.memo.items()
        ]})
        for cell in result["cells"]:
            problems = bench.check_cell(cell, result["space"].get(cell["id"]))
            if problems:
                raise BenchError("fixture build failed its checks: "
                                 + "; ".join(problems))


def _http(port: int, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=LAUNCH_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _read_port(proc: subprocess.Popen, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    line = b""
    fd = proc.stdout.fileno()
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or proc.poll() is not None:
            raise BenchError("planner server did not start")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError("planner server closed its output")
            line += chunk
    text = line.decode().strip()
    if "http://" not in text:
        raise BenchError(f"unexpected planner banner: {text!r}")
    return int(text.rsplit(":", 1)[1])


class Server:
    """One planner server over fresh copies of the fixture's stores."""

    def __init__(
        self, bench: Bench, fixture: PlannerFixture, trace_dir: Path | None = None
    ) -> None:
        self.bench = bench
        self.store = bench.path("store")
        shutil.copytree(fixture.store, self.store)
        self.pricing = bench.path("pricing")
        shutil.copytree(fixture.pricing, self.pricing)
        job_path = bench.path("job.json")
        job_path.write_text(json.dumps(
            {"store": str(self.store), "pricing_cache": str(self.pricing)}))
        args = [sys.executable, str(HERE / "launch.py"), "serve", "--job", str(job_path)]
        if trace_dir is not None:
            args += ["--trace-dir", str(trace_dir)]
        spawned = time.monotonic_ns()
        self.proc = bench.procs.start(args, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            self.port = _read_port(self.proc, LAUNCH_TIMEOUT)
            while True:
                try:
                    status, _ = _http(self.port, "GET", "/healthz")
                except OSError:
                    status = None
                if status == 200:
                    break
                if self.proc.poll() is not None:
                    raise BenchError("planner server exited during start-up")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = (time.monotonic_ns() - spawned) / 1e9

    def stop(self) -> float:
        """Interrupt the server, as Ctrl-C would; returns its peak RSS in MB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        code, rss_mb = self.bench.procs.reap(self.proc, STOP_TIMEOUT)
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.rmtree(self.pricing, ignore_errors=True)
        if code != 0:
            raise BenchError(f"planner server exited with {code}")
        return rss_mb


def planner_sample(
    bench: Bench, fixture: PlannerFixture, space: dict,
    trace_dir: Path | None = None,
) -> Sample:
    sample = Sample()
    server = Server(bench, fixture, trace_dir)
    sample.setups.append(server.setup_s)
    port = server.port
    try:
        replies = []
        t0 = time.monotonic_ns()
        for _kind, _panel, body in fixture.stream:
            payload = json.dumps(body).encode()
            started = time.monotonic_ns()
            try:
                status, data = _http(port, "POST", "/plan", payload)
            except OSError as exc:
                status, data = None, str(exc).encode()
            replies.append((status, data, (time.monotonic_ns() - started) / 1e6))
        t1 = time.monotonic_ns()
    finally:
        sample.rss_mb = server.stop()
    sample.wall_s = (t1 - t0) / 1e9
    if trace_dir is not None:
        sample.segments = [(trace_dir, (t0, t1))]

    sources = {"exact": 0, "seeded": 0, "computed": 0, "coalesced": 0}
    cells = []
    for i, ((kind, panel, body), (status, data, ms)) in enumerate(
        zip(fixture.stream, replies)
    ):
        sample.attempted += 1
        (sample.hit_ms if kind in ("hit", "repeat") else sample.miss_ms).append(ms)
        sample.kind_s[kind] = sample.kind_s.get(kind, 0.0) + ms / 1e3
        if status != 200:
            sample.fail(i, [f"request {i} ({kind}): HTTP {status}: {data[:200]!r}"])
            continue
        answer = json.loads(data)
        problems = []
        ctx = f"throughput:{panel}"
        wanted = {(m, body["batch_sizes"][0]) for m in body.get("methods") or METHODS}
        got = set()
        for cell in answer["cells"]:
            summary = cell_summary(ctx, cell["outcome"])
            got.add((cell["outcome"]["method"], cell["outcome"]["batch_size"]))
            problems += bench.check_cell(summary, space.get(summary["id"]))
            sources[cell["source"]] = sources.get(cell["source"], 0) + 1
            if kind in ("hit", "repeat") and cell["source"] != "exact":
                problems.append(f"request {i} ({kind}): {summary['id']} answered "
                                f"from {cell['source']!r}, not the memo")
            if cell["source"] != "exact":
                cells.append(summary)
        if got != wanted:
            problems.append(f"request {i} ({kind}): cells {sorted(got)} != "
                            f"requested {sorted(wanted)}")
        sample.fail(i, problems)
    sample.counts = {f"planner.{k}": v for k, v in sources.items()}
    sample.counts.update(_work_counts(cells))
    return sample


# ------------------------------------------------------------- reporting


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(seed: int, numpy_version: str) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def check_repeat(key: str, counts: dict) -> list[str]:
    """Deterministic counts must repeat for the same code, seed and mode."""
    path = OUT / "counts.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is not None and previous != counts:
        return [f"work counts changed between runs of the same code and seed: "
                f"{previous} != {counts}"]
    if previous is None:
        known[key] = counts
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return []


def reconcile(name: str, layers: dict, window_s: float, counts: dict) -> list[str]:
    """Checks of the traced sample's layer split (empty when it holds).

    The span counters are compared with the work the runner read off the
    program's answers, so a worker whose spans were lost, or a search
    entry point left unwrapped, fails the run instead of shrinking a layer.
    """
    problems = []
    self_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    total = self_s + layers["unattributed_s"]
    if abs(total - window_s) > RECONCILE_TOLERANCE * window_s:
        problems.append(f"trace does not add up: self times + unattributed_s = "
                        f"{total:.4f} s, traced wall_s = {window_s:.4f} s")
    if self_s < MIN_ATTRIBUTED[name] * window_s:
        problems.append(f"trace covers too little: layer self times = {self_s:.4f} s "
                        f"of traced wall_s = {window_s:.4f} s, below "
                        f"{MIN_ATTRIBUTED[name]:.0%}")
    for layer, answer in (("search.grid.calls", "cells"),
                          ("search.grid.simulated", "n_tried")):
        if layers[layer] != counts[answer]:
            problems.append(f"trace lost work: {layer} = {layers[layer]} but the "
                            f"answers searched {answer} = {counts[answer]}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the report (metrics, checks, extras)."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(seed, seconds, work)
    started = time.monotonic()
    try:
        report = _run_workload(bench, name, trace)
        report["run_s"] = time.monotonic() - started
        return report
    finally:
        bench.procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(bench: Bench, name: str, trace: bool) -> dict:
    fixture = None
    spaces: list = []
    if name == "frontier_resume":
        fixture = FrontierFixture(bench)
    elif name == "planner_session":
        fixture = PlannerFixture(bench)
        spaces = planner_space_cells(fixture.stream)
    # Not timed: compiles bytecode, warms the page cache, and computes the
    # anchor error and the planner cells' configuration-space sizes.
    warm = bench.launch("warmup", {"anchor": True, "spaces": spaces})
    setups: list[float] = []

    def probes():
        for _ in range(SETUP_PROBES):
            if name == "planner_session":
                server = Server(bench, fixture)
                setups.append(server.setup_s)
                server.stop()
            else:
                setups.append(bench.launch("warmup", {})["setup_s"])

    def sample(trace_dir=None):
        if name == "fig7_grid":
            return fig7_sample(bench, trace_dir)
        if name == "frontier_resume":
            return frontier_sample(bench, fixture, trace_dir)
        return planner_sample(bench, fixture, warm["space"], trace_dir)

    samples: list[Sample] = []
    started = time.monotonic()
    while len(samples) < MIN_SAMPLES[name] or (
        not trace and time.monotonic() - started < bench.seconds
    ):
        probes()
        samples.append(sample())
        if samples[-1].problems:
            break
    traced = None
    if trace and not samples[-1].problems:
        trace_dir = bench.path("trace")
        trace_dir.mkdir()
        traced = sample(trace_dir)
        samples_checked = samples + [traced]
    else:
        samples_checked = samples

    problems: list[str] = []
    attempted = sum(s.attempted for s in samples_checked)
    failed = sum(len(s.failed_ops) for s in samples_checked)
    for s in samples_checked:
        problems += s.problems
    counts = samples[0].counts
    for s in samples_checked[1:]:
        if s.counts != counts:
            problems.append(f"work counts differ between samples: {s.counts} != {counts}")
    walls = [s.wall_s for s in samples]
    report = {
        "workload": name,
        "samples": len(samples),
        "sample_wall_s": walls,
        "counts": counts,
        "fingerprint": fingerprint(bench.seed, warm["numpy"]),
        "metrics": {
            "setup_s": statistics.median(setups + [x for s in samples for x in s.setups]),
            # The fastest sample: on a shared host the slow samples are the
            # host's slow states (README, "Steadiness"), not the program.
            "wall_s": min(walls),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            "anchor_err_pct": warm["anchor_err_pct"],
        },
        "extras": {"failed_frac": (failed / attempted if attempted else 1.0, "ratio")},
    }
    if name == "planner_session":
        hit_ms = [x for s in samples for x in s.hit_ms]
        miss_ms = [x for s in samples for x in s.miss_ms]
        # The tail percentile is fixed by the minimum sample count, so it
        # means the same on every run: the highest nearest-rank percentile
        # with at least ten misses beyond it.
        floor = MIN_SAMPLES[name] * len(miss_ms) // len(samples)
        tail_p = (floor - 10) / floor
        report["extras"].update({
            "hit_p50_ms": (_percentile(hit_ms, 0.50), "ms"),
            "hit_p99_ms": (_percentile(hit_ms, 0.99), "ms"),
            "miss_p50_ms": (_percentile(miss_ms, 0.50), "ms"),
            "miss_tail_ms": (_percentile(miss_ms, tail_p), "ms"),
        })
        report["miss_tail_percentile"] = round(100 * tail_p, 1)
        report["n_hits"] = len(hit_ms)
        report["n_misses"] = len(miss_ms)
        report["kind_share"] = {
            kind: statistics.median(s.kind_s[kind] / s.wall_s for s in samples)
            for kind in sorted(samples[0].kind_s)
        }
    if traced is not None:
        from layertrace import DETERMINISTIC, analyze, load_dumps

        segments = [(load_dumps(d), w) for d, w in traced.segments]
        layer_metrics, window_s = analyze(segments)
        problems += reconcile(name, layer_metrics, window_s, traced.counts)
        layer_metrics["trace_overhead"] = window_s / report["metrics"]["wall_s"]
        report["layers"] = layer_metrics
        report["traced_wall_s"] = window_s
        report["attributed_share"] = 1 - layer_metrics["unattributed_s"] / window_s
        counts = dict(counts)
        counts.update({k: layer_metrics[k] for k in DETERMINISTIC})
    key = f"{name}|seed={bench.seed}|src={report['fingerprint']['src_sha256']}|trace={int(trace)}"
    problems += check_repeat(key, counts)
    report["problems"] = problems
    report["correct"] = not problems
    report["attempted"] = attempted
    report["failed"] = max(failed, 1) if problems and not failed else failed
    return report


def failed_report(name: str, seed: int, exc: Exception) -> dict:
    """The report of a workload that stopped before it could be measured.

    A crash, a timeout or a fixture that fails its checks is a failed
    operation of the program under test, not a missing program.
    """
    return {
        "workload": name,
        "samples": 0,
        "fingerprint": fingerprint(seed, None),
        "extras": {"failed_frac": (1.0, "ratio")},
        "counts": {},
        "problems": [f"{type(exc).__name__}: {exc}"],
        "correct": False,
        "attempted": 1,
        "failed": 1,
        "run_s": float("nan"),
    }


def print_report(report: dict, trace: bool) -> None:
    name = report["workload"]
    fp = report["fingerprint"]
    print(f"[{name}] seed={fp['seed']} samples={report['samples']} "
          f"host={fp['cpu_model']} x{fp['cpu_count']} python={fp['python']} "
          f"numpy={fp['numpy']} commit={fp['commit']} src={fp['src_sha256']}")
    for metric, value in report.get("metrics", {}).items():
        print(f"[{name}] {metric} = {value:.6g} {END_TO_END_UNITS[metric]}")
    if report.get("sample_wall_s"):
        print(f"[{name}] sample wall_s (fastest is wall_s): "
              + " ".join(f"{w:.3f}" for w in report["sample_wall_s"]))
    for metric, (value, unit) in report["extras"].items():
        print(f"[{name}] {metric} = {value:.6g} {unit}")
    if "miss_tail_percentile" in report:
        print(f"[{name}] miss_tail_ms is p{report['miss_tail_percentile']} of "
              f"{report['n_misses']} misses; hit percentiles over "
              f"{report['n_hits']} hits")
        shares = ", ".join(f"{kind} {share:.1%}"
                           for kind, share in report["kind_share"].items())
        print(f"[{name}] share of wall_s by query kind: {shares}")
    for metric, value in report["counts"].items():
        print(f"[{name}] count {metric} = {value}")
    if trace and "layers" in report:
        for metric, value in report["layers"].items():
            print(f"[{name}] layer {metric} = {value:.6g}")
        print(f"[{name}] traced wall_s = {report['traced_wall_s']:.6g} s, "
              f"{report['attributed_share']:.1%} of it in layer self times "
              f"(at least {MIN_ATTRIBUTED[name]:.0%} required)")
    if report["samples"]:
        print(f"[{name}] run took {report['run_s']:.1f} s in total")
    for problem in report["problems"]:
        print(f"[{name}] CHECK FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so every started process is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file() or not EXPECTED.is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    reports = []
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, trace)
        except Exception as exc:  # the program crashed, hung or misbehaved
            report = failed_report(name, args.seed, exc)
        reports.append(report)
        print_report(report, trace)
        with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True) + "\n")

    def metrics_of(report: dict, prefix: str = "") -> dict:
        if trace:
            return {prefix + k: {"value": v, "unit": layer_unit(k)}
                    for k, v in report["layers"].items()}
        return {prefix + k: {"value": v, "unit": END_TO_END_UNITS[k]}
                for k, v in report["metrics"].items()}

    correct = all(r["correct"] for r in reports)
    metrics: dict = {}
    for report in reports:
        if (trace and "layers" not in report) or "metrics" not in report:
            continue  # failed before the traced sample, or before any sample
        metrics.update(metrics_of(report, "" if len(reports) == 1 else
                                  report["workload"] + "."))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
