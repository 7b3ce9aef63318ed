"""The batch workload, ``batch-cold``.

Every pass runs in a fresh ``child.py`` process, from an empty cache
directory, with cleared fastpath memos.  The reference document
(``jobs=1``, no cache, ``fastpath: false``) is computed once per run,
outside the measured window, and every pass's document must match it
byte for byte (compared by SHA-256).
"""

from __future__ import annotations

import os
import time
from statistics import median

from metrics import quantile

#: Processes, and passes in each, behind ``order.second_pass_gap``.
GAP_PROCESSES = 2
GAP_PASSES = 3

#: Sink-vs-no-sink pairs behind ``observe.trace_overhead``.
TRACE_PAIRS = 4


def _pass(run_child, spec, **extra):
    """One pass in a fresh process: its record, peak RSS and node count."""
    return run_child(dict(spec, task="pass", max_passes=1, **extra))


def _window(run_child, spec, seconds):
    """Pass processes back to back until ``seconds`` have passed."""
    children = []
    started = time.perf_counter()
    while not children or time.perf_counter() - started < seconds:
        children.append(_pass(run_child, spec))
    return children


def _trace_extras(run_child, spec, work):
    """First-vs-later pass gap within processes, and the trace sink's
    overhead.

    The overhead comes from ``TRACE_PAIRS`` pairs of fresh-process arms,
    one with a JSONL sink and one without, run back to back with the
    order alternating between pairs; it is the median of the per-pair
    ratios, so slow drift of the machine cancels within a pair.
    """
    first, later = [], []
    for _ in range(GAP_PROCESSES):
        gap = run_child(dict(spec, task="pass", max_passes=GAP_PASSES))
        walls = [p["wall"] for p in gap["passes"]]
        first.append(walls[0])
        later.extend(walls[1:])
    second_pass_gap = median(later) / median(first) - 1.0
    sink = {"sink": os.path.join(work, "trace.jsonl")}
    ratios = []
    for pair in range(TRACE_PAIRS):
        arms = ({}, sink) if pair % 2 == 0 else (sink, {})
        timed = {
            bool(arm): _pass(run_child, spec, **arm)["passes"][0]["wall"]
            for arm in arms
        }
        ratios.append(timed[True] / timed[False])
    return second_pass_gap, median(ratios) - 1.0


def grade(passes, reference):
    """The correctness gate: ``(attempted, failed, steady)``.

    A pass whose document differs from the reference by one byte fails
    every cell it holds; otherwise its error records fail.  ``steady``
    says every pass reproduced the reference's descriptor counts and
    never hit the cache (every pass starts from an empty cache or none).
    """
    attempted = sum(p["cells"] for p in passes)
    failed = sum(
        p["cells"] if p["digest"] != reference["digest"]
        else p["descriptors"]["errors"]
        for p in passes
    )
    steady = all(
        p["descriptors"] == reference["descriptors"]
        and p["hit_ratio"] == 0.0
        for p in passes
    )
    return attempted, failed, steady


def run(spec, trace, run_child):
    """Measure one batch workload; returns (correct, attempted, failed, values)."""
    children = _window(run_child, spec, spec["seconds"])
    passes = [child["passes"][0] for child in children]
    reference = run_child(dict(spec, task="reference"))

    attempted, failed, steady = grade(passes, reference)
    steady = steady and len({child["nodes"] for child in children}) == 1
    # Rates are totals over the window, not medians of per-pass rates:
    # the machine flips between a fast and a slow speed every few
    # seconds, and the median of a dozen passes jumps between the two.
    # A run holds too few passes for latency percentiles, so they are
    # taken over the passes' cells (one program, one analysis).
    programs = sum(p["programs"] for p in passes)
    cells = [s for p in passes for s in p["cell_seconds"]]
    values = {
        "programs_per_s": programs / sum(p["wall"] for p in passes),
        "p50_ms": quantile(cells, 0.5) * 1000.0,
        "p99_ms": quantile(cells, 0.99) * 1000.0,
        "cpu_ms_per_program": sum(p["cpu"] for p in passes) / programs * 1000.0,
        "peak_rss_mb": median([c["peak_rss_kb"] for c in children]) / 1024.0,
        "setup_s": median([child["prep_s"] for child in children]),
    }
    if trace:
        values.update(_layers(run_child, spec, spec["work"], passes, reference))
        values["latency.samples"] = len(cells)
        values["error_rate"] = failed / attempted
        steady = (
            steady
            and values["lang.nodes"] == children[0]["nodes"]
            and values["staticlint.findings"]
            == reference["descriptors"]["findings"]
        )
    return failed == 0 and steady, attempted, failed, values


def _layers(run_child, spec, work, passes, reference):
    """Per-layer values of a batch workload (``--trace 1``)."""
    second_pass_gap, overhead = _trace_extras(run_child, spec, work)
    values = run_child(dict(spec, task="probe"))
    del values["prep_s"]
    values.update(
        {
            "cache.hit_ratio": median([p["hit_ratio"] for p in passes]),
            "cert.certified": reference["descriptors"]["certified"],
            "runner.cell_s": median([sum(p["cell_seconds"]) for p in passes]),
            "runner.parallel_efficiency": median(
                [sum(p["cell_seconds"]) / (p["jobs"] * p["wall"]) for p in passes]
            ),
            "runner.chunks_submitted": median(
                [p["chunks_submitted"] for p in passes]
            ),
            "runner.bytes_pickled": median([p["bytes_pickled"] for p in passes]),
            "runner.serialize_s": median([p["serialize_s"] for p in passes]),
            "runner.cpu_s": median([p["cpu"] for p in passes]),
            "observe.metrics_render_s": median(
                [p["metrics_render_s"] for p in passes]
            ),
            "observe.trace_overhead": overhead,
            "order.second_pass_gap": second_pass_gap,
        }
    )
    for name in (
        "service.hot_p50_ms",
        "service.hot_p99_ms",
        "service.unique_p50_ms",
        "service.unique_p99_ms",
        "service.inproc_hot_ms",
        "service.http_ms",
        "service.lru_hit_ratio",
        "service.coalesced",
        "service.rejected_busy",
        "service.client_disconnects",
        "service.server_cpu_ms_per_req",
        "driver.cpu_share",
    ):
        values[name] = 0.0
    return values
