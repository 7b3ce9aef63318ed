"""One fresh benchmark process: set up, do one task, print one JSON line.

``python3 perfbench/child.py '<spec json>'`` is started by ``run.py``
for every measured pass, so each pass begins in a new interpreter with
empty in-process memos.  The spec names a task:

``pass``
    run the batch workload ``max_passes`` times, each pass a fresh
    ``run_pipeline`` plus ``to_json`` after
    ``repro.fastpath.clear_caches()``;
``reference``
    the reference document: ``jobs=1``, no cache, ``fastpath: false``;
``probe``
    per-layer timings of each module's public functions on the
    workload's own programs (see :func:`probe_layers`);
``replay``
    replay a ``serve-mix`` request sequence into an in-process
    ``AnalysisService`` (no socket).

Set-up time (``prep_s``) is import plus input generation, measured
from the top of this file.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from metrics import describe, digest  # noqa: E402


def _cpu_s() -> float:
    """CPU seconds of this process plus every reaped child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _reap_workers() -> None:
    """Wait for pool workers ``run_pipeline`` shut down without waiting."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)
        if child.is_alive():
            child.terminate()
            child.join()


def _peak_rss_kb() -> int:
    """RSS high-water mark of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _one_pass(spec, corpus, cache_dir, sink_path):
    from repro import fastpath
    from repro.observe import JsonlEmitter, MetricsAggregator
    from repro.pipeline import run_pipeline

    workload = inputs.BATCH[spec["workload"]]
    fastpath.clear_caches()
    sink = JsonlEmitter(sink_path) if sink_path else None
    observer = MetricsAggregator(sink=sink) if sink else MetricsAggregator()
    cpu0 = _cpu_s()
    started = time.perf_counter()
    result = run_pipeline(
        corpus,
        analyses=workload["analyses"],
        jobs=workload["jobs"],
        cache_dir=cache_dir,
        config=inputs.STATIC_CONFIG,
        observer=observer,
    )
    serialize_from = time.perf_counter()
    text = result.to_json()
    wall = time.perf_counter() - started
    serialize_s = time.perf_counter() - serialize_from
    _reap_workers()
    cpu = _cpu_s() - cpu0
    if sink is not None:
        sink.close()
    render_from = time.perf_counter()
    observer.to_dict(
        elapsed_seconds=wall,
        jobs=workload["jobs"],
        deadline=None,
        cache=result.stats["cache"],
    )
    render_s = time.perf_counter() - render_from
    cache = result.stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics = result.metrics
    return {
        "wall": wall,
        "cpu": cpu,
        "programs": len(result.programs),
        "cells": len(result.programs) * len(result.analyses),
        "digest": digest(text.encode("utf-8")),
        "descriptors": describe(result.programs),
        "hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cell_seconds": [item["seconds"] or 0.0 for item in metrics["items"]],
        "jobs": workload["jobs"],
        "chunks_submitted": metrics["chunks"]["submitted"],
        "bytes_pickled": metrics["chunks"]["bytes_pickled"],
        "serialize_s": serialize_s,
        "metrics_render_s": render_s,
    }


def task_pass(spec, corpus, prep_s):
    """Batch passes; a ``cold`` workload gets a fresh cache dir each."""
    workload = inputs.BATCH[spec["workload"]]
    passes = []
    for _ in range(spec["max_passes"]):
        cache_dir = None
        if workload["cache"] == "cold":
            cache_dir = tempfile.mkdtemp(prefix="cold-", dir=spec["work"])
        passes.append(_one_pass(spec, corpus, cache_dir, spec.get("sink")))
    from repro.lang.ast import iter_nodes

    nodes = sum(1 for _, subject in corpus for _ in iter_nodes(subject))
    return {"passes": passes, "peak_rss_kb": _peak_rss_kb(), "nodes": nodes}


def task_reference(spec, corpus, prep_s):
    """The reference path's document digest and descriptors."""
    from repro.pipeline import run_pipeline

    config = dict(inputs.STATIC_CONFIG, fastpath=False)
    result = run_pipeline(
        corpus,
        analyses=inputs.BATCH[spec["workload"]]["analyses"],
        jobs=1,
        cache_dir=None,
        config=config,
    )
    return {
        "digest": digest(result.to_json().encode("utf-8")),
        "descriptors": describe(result.programs),
    }


def _timed(fn, items) -> float:
    started = time.perf_counter()
    for item in items:
        fn(item)
    return time.perf_counter() - started


def _config(policy: dict) -> dict:
    """The pipeline's default analysis config with ``policy`` applied."""
    from repro.pipeline import DEFAULT_CONFIG

    config = dict(DEFAULT_CONFIG, **policy)
    config["high"] = tuple(sorted(config["high"]))
    return config


def probe_layers(subjects, analyses, policy: dict, work: str) -> dict:
    """Per-layer seconds and counts on ``subjects`` (a list of Programs).

    Each layer is timed from outside, through its public functions:
    ``lang`` (``pretty``, ``parse_program``), ``pipeline.cache``
    (``cache_key``, ``ResultCache.put``/``get``), every analysis's
    registry entry from cleared fastpath memos, the fast path's
    decline rate, and ``run_lint`` once with no passes and once per
    pass of ``ALL_PASSES`` (each of those includes the shared context).
    The explorer is timed apart, by :func:`probe_explore`.
    """
    import repro
    from repro import fastpath
    from repro.core.binding import StaticBinding
    from repro.lang.ast import iter_nodes, used_variables
    from repro.lang.parser import parse_program
    from repro.lang.pretty import pretty
    from repro.lattice.chain import two_level
    from repro.pipeline import ANALYSES, ResultCache, cache_key
    from repro.staticlint import ALL_PASSES, run_lint

    out = {}
    sources = []
    out["lang.pretty_s"] = _timed(lambda s: sources.append(pretty(s)), subjects)
    out["lang.parse_s"] = _timed(parse_program, sources)
    out["lang.nodes"] = sum(1 for s in subjects for _ in iter_nodes(s))

    config = _config(policy)
    results = {}
    for name in ("cert", "denning", "lint"):
        fastpath.clear_caches()
        run = ANALYSES[name].run
        started = time.perf_counter()
        results[name] = [run(s, config) for s in subjects]
        out[f"analyses.{name}_s"] = time.perf_counter() - started

    cells = [
        (source, name, result)
        for name in analyses
        for source, result in zip(sources, results[name])
    ]
    keys = []
    out["cache.key_s"] = _timed(
        lambda cell: keys.append(
            cache_key(
                cell[0],
                "program",
                cell[1],
                ANALYSES[cell[1]].config_slice(config),
                repro.__version__,
            )
        ),
        cells,
    )
    store = ResultCache(tempfile.mkdtemp(prefix="probe-cache-", dir=work))
    out["cache.put_s"] = _timed(
        lambda pair: store.put(pair[0], pair[1][1], pair[1][2]),
        list(zip(keys, cells)),
    )
    out["cache.get_s"] = _timed(store.get, keys)

    fastpath.clear_caches()
    declined = sum(
        1
        for s in subjects
        if fastpath.fused_cert(s, config) is None
        or fastpath.fused_denning(s, config) is None
    )
    out["fastpath.decline_ratio"] = declined / len(subjects)

    scheme = two_level()
    bindings = [
        StaticBinding(
            scheme,
            {
                v: scheme.top if v in config["high"] else scheme.bottom
                for v in used_variables(s.body)
            },
        )
        for s in subjects
    ]
    pairs = list(zip(subjects, bindings))
    out["staticlint.context_s"] = _timed(
        lambda pair: run_lint(pair[0], binding=pair[1], passes=()), pairs
    )
    for lint_pass in ALL_PASSES:
        out[f"staticlint.{lint_pass.name}_s"] = _timed(
            lambda pair: run_lint(pair[0], binding=pair[1], passes=(lint_pass,)),
            pairs,
        )
    out["staticlint.findings"] = sum(
        len(run_lint(s, binding=b).diagnostics) for s, b in pairs
    )
    return out


def probe_explore(subjects, policy: dict) -> dict:
    """``ANALYSES["explore"].run`` over ``subjects`` from cleared memos,
    and the explorer's counts over its results.

    ``subjects`` are ``runtime_safe`` programs: static programs may
    compute unbounded integers under the explorer.
    """
    from repro import fastpath
    from repro.pipeline import ANALYSES

    config = _config(policy)
    fastpath.clear_caches()
    run = ANALYSES["explore"].run
    started = time.perf_counter()
    results = [run(s, config) for s in subjects]
    seconds = time.perf_counter() - started
    states = sum(r["states"] for r in results)
    return {
        "analyses.explore_s": seconds,
        "runtime.states": states,
        "runtime.transitions": sum(r["transitions"] for r in results),
        "runtime.reduced_states": sum(r["reduced_states"] for r in results),
        "runtime.degraded": sum(bool(r["degraded"]) for r in results),
        "runtime.states_per_s": states / seconds,
    }


def task_probe(spec, corpus, prep_s):
    from repro.lang.parser import parse_program

    if spec["workload"] == "serve-mix":
        hot, _ = inputs.serve_hot(spec["seed"], spec["population"], spec["size"], 0)
        unique = inputs.serve_unique(spec["population"], spec["size"], len(hot))
        subjects = [parse_program(source) for _, source in hot + unique]
        out = probe_layers(
            subjects, inputs.SERVE_ANALYSES, inputs.SERVE_CONFIG, spec["work"]
        )
        out.update({"analyses.explore_s": 0.0, "runtime.states_per_s": 0.0})
        return out
    out = probe_layers(
        [subject for _, subject in corpus],
        inputs.BATCH[spec["workload"]]["analyses"],
        inputs.STATIC_CONFIG,
        spec["work"],
    )
    explored = inputs.explore_subjects(spec["population"], spec["size"])
    out.update(probe_explore(explored, inputs.STATIC_CONFIG))
    return out


def task_replay(spec, corpus, prep_s):
    """In-process ``serve-mix``: hot ``analyze_request`` time and the
    cost of rendering the service's metrics after the whole sequence."""
    from repro.service import AnalysisService

    unique = inputs.serve_unique(
        spec["population"],
        spec["size"],
        -(-spec["requests"] // inputs.UNIQUE_EVERY),
    )
    hot, picks = inputs.serve_hot(
        spec["seed"], spec["population"], spec["size"], spec["requests"]
    )
    service = AnalysisService(
        cache_dir=tempfile.mkdtemp(prefix="replay-cache-", dir=spec["work"])
    )
    service.warm()
    try:
        for name, source in hot:
            service.analyze_request(inputs.request_body(name, source))
        hot_times = []
        for k in range(spec["requests"]):
            kind, name, source = inputs.request_at(k, hot, unique, picks)
            body = inputs.request_body(name, source)
            started = time.perf_counter()
            status, _body, _headers = service.analyze_request(body)
            elapsed = time.perf_counter() - started
            if status != 200:
                raise RuntimeError(f"in-process request {k} returned {status}")
            if kind == "hot":
                hot_times.append(elapsed)
        started = time.perf_counter()
        service.observer.to_dict(
            elapsed_seconds=service.uptime_seconds(),
            jobs=service.jobs,
            deadline=None,
        )
        render_s = time.perf_counter() - started
    finally:
        service.close()
    return {
        "inproc_hot_ms": median(hot_times) * 1000.0,
        "metrics_render_s": render_s,
    }


TASKS = {
    "pass": task_pass,
    "reference": task_reference,
    "probe": task_probe,
    "replay": task_replay,
}


def _preload() -> None:
    """Import the modules the registry loads lazily on first use, so
    their import cost lands in set-up, not in the first timed pass."""
    import repro.core.cfm  # noqa: F401
    import repro.core.denning  # noqa: F401
    import repro.fastpath  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.runtime.explorer  # noqa: F401
    import repro.service  # noqa: F401
    import repro.staticlint  # noqa: F401


def main() -> int:
    spec = json.loads(sys.argv[1])
    _preload()
    corpus = None
    if spec["workload"] in inputs.BATCH:
        corpus = inputs.batch_corpus(
            spec["workload"], spec["seed"], spec["population"], spec["size"]
        )
    prep_s = time.perf_counter() - _STARTED
    out = TASKS[spec["task"]](spec, corpus, prep_s)
    out["prep_s"] = prep_s
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
