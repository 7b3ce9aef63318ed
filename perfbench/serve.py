"""``serve-mix``: a closed loop of two clients against ``repro serve``.

Set-up generates the hot set, starts ``python -m repro serve`` with its
defaults (two pre-forked workers, one shard, a 4096-entry memory LRU) on
a fresh ``--cache-dir`` and posts each hot-set body once.  Set-up runs
``SETUP_REPEATS`` times, each with a new server and cache; the last
server is measured.  The pool of never-seen programs is generated once,
before set-up and outside its timing: it feeds the load driver, not the
service.

The window runs two client threads in this one process.  Each client
sends its next request only after the previous reply arrived (the
service's callers, CLI runs and CI jobs, each wait for their reply),
one connection per request.  After the window the load driver reads
``/metrics``, stops the server, and checks every 200 body against the
document ``run_pipeline`` produces in this process, on the reference
path, for the same request.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

import inputs
from metrics import describe, digest, quantile

SETUP_REPEATS = 3
CLIENTS = 2
STARTUP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
_ANNOUNCE = re.compile(r"listening on http://[\d.]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Server:
    """One ``repro serve`` subprocess on a free port."""

    def __init__(self, root: Path, cache_dir: str):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--cache-dir", cache_dir, "--quiet",
            ],
            cwd=str(root),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = None
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while self.port is None and time.monotonic() < deadline:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], deadline - time.monotonic()
            )
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                break
            match = _ANNOUNCE.search(line)
            if match:
                self.port = int(match.group(1))
        if self.port is None:
            self.stop()
            raise RuntimeError("repro serve did not announce its port")

    def request(self, method: str, path: str, body=None):
        """``(status, body bytes)``; status 0 on a socket error."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            return 0, b""
        finally:
            conn.close()

    def metrics(self) -> dict:
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics returned {status}")
        return json.loads(body)

    def _pids(self):
        """The server and its pool workers."""
        pids = [self.proc.pid]
        task_dir = Path(f"/proc/{self.proc.pid}/task")
        for task in task_dir.iterdir():
            children = (task / "children").read_text().split()
            pids.extend(int(pid) for pid in children)
        return pids

    def cpu_s(self) -> dict:
        """CPU seconds per process of the server tree."""
        out = {}
        for pid in self._pids():
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            out[pid] = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        return out

    def peak_rss_kb(self) -> int:
        """Summed RSS high-water marks (VmHWM) of the server tree."""
        total = 0
        for pid in self._pids():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        return total

    def stop(self) -> None:
        """SIGTERM (the service drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _setup(root, spec, requests):
    """Generate the hot set, start a server on a fresh cache, warm it."""
    hot, picks = inputs.serve_hot(
        spec["seed"], spec["population"], spec["size"], requests
    )
    server = Server(
        root, tempfile.mkdtemp(prefix="serve-cache-", dir=spec["work"])
    )
    for name, source in hot:
        status, _ = server.request(
            "POST", "/analyze", inputs.request_body(name, source)
        )
        if status != 200:
            server.stop()
            raise RuntimeError(f"hot-set warm-up got status {status}")
    return server, hot, picks


def _drive(server, seconds, hot, unique, picks):
    """The closed loop; one record per request, in no particular order."""
    counter = itertools.count()
    lock = threading.Lock()
    records = []
    deadline = time.perf_counter() + seconds

    def client():
        mine = []
        while time.perf_counter() < deadline:
            with lock:
                k = next(counter)
            request = inputs.request_at(k, hot, unique, picks)
            if request is None:
                break
            kind, name, source = request
            body = inputs.request_body(name, source)
            started = time.perf_counter()
            status, reply = server.request("POST", "/analyze", body)
            latency = time.perf_counter() - started
            mine.append(
                (k, kind, name, status, latency, digest(reply))
            )
        with lock:
            records.extend(mine)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - started


def _expected(sources, names):
    """Local ``(digest, to_json seconds, programs)`` for each name.

    Documents come from the reference path (``fastpath: false``), like
    the batch gate's: the fast path's memos live for the whole process,
    so a document computed through them could depend on the requests
    computed before it.
    """
    from repro.lang.parser import parse_program
    from repro.pipeline import run_pipeline

    config = dict(inputs.SERVE_CONFIG, fastpath=False)
    out = {}
    for name in names:
        result = run_pipeline(
            [(name, parse_program(sources[name]))],
            analyses=inputs.SERVE_ANALYSES,
            config=config,
        )
        started = time.perf_counter()
        text = result.to_json() + "\n"
        seconds = time.perf_counter() - started
        out[name] = (
            digest(text.encode("utf-8")),
            seconds,
            result.programs,
        )
    return out


def grade(records, expected) -> int:
    """Failed requests: non-200, socket errors, bodies whose digest
    differs from the locally computed document's, and documents that
    hold an error record."""
    errors = {name: describe(e[2])["errors"] for name, e in expected.items()}
    return sum(
        1
        for r in records
        if r[3] != 200 or r[5] != expected[r[2]][0] or errors[r[2]]
    )


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def run(spec, trace, run_child):
    """Measure ``serve-mix``; returns (correct, attempted, failed, values)."""
    root = Path(__file__).resolve().parents[1]
    unique = inputs.serve_unique(
        spec["population"],
        spec["size"],
        inputs.unique_pool_size(spec["size"], spec["seconds"]),
    )
    requests = len(unique) * inputs.UNIQUE_EVERY
    setup_times, server = [], None
    try:
        for attempt in range(SETUP_REPEATS):
            started = time.perf_counter()
            server, hot, picks = _setup(root, spec, requests)
            setup_times.append(time.perf_counter() - started)
            if attempt < SETUP_REPEATS - 1:
                server.stop()
                server = None
        before = server.metrics()
        cpu_before = server.cpu_s()
        driver_before = time.process_time()
        records, wall = _drive(server, spec["seconds"], hot, unique, picks)
        driver_cpu = time.process_time() - driver_before
        cpu_after = server.cpu_s()
        peak_rss_kb = server.peak_rss_kb()
        after = server.metrics()
    finally:
        if server is not None:
            server.stop()

    hot_names = [name for name, _ in hot]
    served = {r[2] for r in records if r[3] == 200}
    expected = _expected(dict(hot + unique), sorted(served | set(hot_names)))
    failed = grade(records, expected)
    ok = [r for r in records if r[3] == 200]
    latencies = [r[4] * 1000.0 for r in records]
    server_cpu = sum(
        cpu - cpu_before.get(pid, 0.0) for pid, cpu in cpu_after.items()
    )
    values = {
        "programs_per_s": len(ok) / wall,
        "p50_ms": median(latencies),
        "p99_ms": quantile(latencies, 0.99),
        "cpu_ms_per_program": server_cpu / max(1, len(ok)) * 1000.0,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": median(setup_times),
    }
    found = describe(
        [entry for name in hot_names for entry in expected[name][2]]
    )
    if trace:
        values.update(
            _layers(
                run_child, spec, records, wall, before, after, server_cpu,
                driver_cpu,
            )
        )
        values["runner.serialize_s"] = sum(expected[n][1] for n in hot_names)
        values["cert.certified"] = found["certified"]
        values["error_rate"] = failed / max(1, len(records))
    return failed == 0 and bool(records), len(records), failed, values


def _layers(run_child, spec, records, wall, before, after, server_cpu,
            driver_cpu):
    """Per-layer values of ``serve-mix`` (``--trace 1``)."""
    values = run_child(dict(spec, task="probe"))
    del values["prep_s"]
    replay = run_child(dict(spec, task="replay", requests=len(records)))
    by_kind = {
        kind: [r[4] * 1000.0 for r in records if r[1] == kind]
        for kind in ("hot", "unique")
    }
    lru_hits = _delta(after, before, "service", "lru_hits")
    lru_misses = _delta(after, before, "service", "lru_misses")
    hits = _delta(after, before, "cache", "hits")
    misses = _delta(after, before, "cache", "misses")
    cell_s = sum(
        stats["seconds_total"] - before["analyses"].get(name, {}).get(
            "seconds_total", 0.0
        )
        for name, stats in after["analyses"].items()
    )
    ok = sum(1 for r in records if r[3] == 200)
    values.update(
        {
            "cache.hit_ratio": hits / max(1, hits + misses),
            "runtime.states": 0,
            "runtime.transitions": 0,
            "runtime.reduced_states": 0,
            "runtime.degraded": 0,
            "runner.cell_s": cell_s,
            "runner.parallel_efficiency": cell_s / (after["run"]["jobs"] * wall),
            "runner.chunks_submitted": _delta(after, before, "chunks", "submitted"),
            "runner.bytes_pickled": _delta(after, before, "chunks", "bytes_pickled"),
            "runner.cpu_s": server_cpu,
            "observe.metrics_render_s": replay["metrics_render_s"],
            "observe.trace_overhead": 0.0,
            "order.second_pass_gap": 0.0,
            "latency.samples": len(records),
            "service.hot_p50_ms": median(by_kind["hot"]),
            "service.hot_p99_ms": quantile(by_kind["hot"], 0.99),
            "service.unique_p50_ms": median(by_kind["unique"]),
            "service.unique_p99_ms": quantile(by_kind["unique"], 0.99),
            "service.inproc_hot_ms": replay["inproc_hot_ms"],
            "service.http_ms": median(by_kind["hot"]) - replay["inproc_hot_ms"],
            "service.lru_hit_ratio": lru_hits / max(1, lru_hits + lru_misses),
            "service.coalesced": _delta(after, before, "service", "coalesced"),
            "service.rejected_busy": _delta(
                after, before, "service", "admission", "rejected_busy"
            ),
            "service.client_disconnects": _delta(
                after, before, "service", "client_disconnects"
            ),
            "service.server_cpu_ms_per_req": server_cpu / max(1, ok) * 1000.0,
            "driver.cpu_share": driver_cpu / wall,
        }
    )
    return values
