"""Metric names and units, and the result line every run prints.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` checks
that the two agree and that every run emits all of them.  A layer a
workload does not exercise reports 0 (see ``README.md``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable

#: End-to-end metrics, reported by ``--trace 0`` runs.
END_TO_END: Dict[str, str] = {
    "programs_per_s": "programs/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "cpu_ms_per_program": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_LINT_PASSES = (
    "deadlock",
    "races",
    "use-before-assign",
    "dead-assignment",
    "unreachable",
    "unused",
    "labels",
)

#: Per-layer metrics, reported by ``--trace 1`` runs.
PER_LAYER: Dict[str, str] = {
    "lang.parse_s": "s",
    "lang.pretty_s": "s",
    "lang.nodes": "count",
    "cache.key_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hit_ratio": "share",
    "analyses.cert_s": "s",
    "analyses.denning_s": "s",
    "analyses.lint_s": "s",
    "analyses.explore_s": "s",
    "fastpath.decline_ratio": "share",
    "staticlint.context_s": "s",
    **{f"staticlint.{name}_s": "s" for name in _LINT_PASSES},
    "staticlint.findings": "count",
    "runtime.states": "count",
    "runtime.transitions": "count",
    "runtime.reduced_states": "count",
    "runtime.degraded": "count",
    "runtime.states_per_s": "1/s",
    "runner.cell_s": "s",
    "runner.parallel_efficiency": "share",
    "runner.chunks_submitted": "count",
    "runner.bytes_pickled": "bytes",
    "runner.serialize_s": "s",
    "runner.cpu_s": "s",
    "observe.metrics_render_s": "s",
    "observe.trace_overhead": "share",
    "service.hot_p50_ms": "ms",
    "service.hot_p99_ms": "ms",
    "service.unique_p50_ms": "ms",
    "service.unique_p99_ms": "ms",
    "service.inproc_hot_ms": "ms",
    "service.http_ms": "ms",
    "service.lru_hit_ratio": "share",
    "service.coalesced": "count",
    "service.rejected_busy": "count",
    "service.client_disconnects": "count",
    "service.server_cpu_ms_per_req": "ms",
    "driver.cpu_share": "share",
    "cert.certified": "count",
    "order.second_pass_gap": "share",
    "latency.samples": "count",
    "error_rate": "share",
}

#: Counts that must repeat exactly for one seed (checked by the tests
#: across runs and by each run across its own passes).
DESCRIPTORS = (
    "lang.nodes",
    "staticlint.findings",
    "cert.certified",
    "runtime.states",
    "runtime.degraded",
    "cache.hit_ratio",
)


def digest(data: bytes) -> str:
    """The SHA-256 the correctness gate compares documents by."""
    return hashlib.sha256(data).hexdigest()


def describe(programs) -> dict:
    """Workload descriptors that must repeat exactly for a seed."""
    found = {
        "certified": 0,
        "findings": 0,
        "states": 0,
        "transitions": 0,
        "reduced_states": 0,
        "degraded": 0,
        "errors": 0,
    }
    for entry in programs:
        for analysis, result in entry["analyses"].items():
            if "error" in result:
                found["errors"] += 1
            elif analysis == "cert":
                found["certified"] += bool(result["certified"])
            elif analysis == "lint":
                found["findings"] += result["findings"]
            elif analysis == "explore":
                for key in ("states", "transitions", "reduced_states"):
                    found[key] += result[key]
                found["degraded"] += bool(result["degraded"])
    return found


def quantile(values: Iterable[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def result_line(
    correct: bool, attempted: int, failed: int, values: Dict[str, float], trace: bool
) -> str:
    """The JSON object a run prints last; every metric must be present."""
    table = PER_LAYER if trace else END_TO_END
    missing = sorted(set(table) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in table.items()
    }
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )
