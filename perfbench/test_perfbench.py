"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Tiny-size runs of every workload must emit every metric by name with
its unit and pass their correctness gate; the gate must trip on a
corrupted document; descriptor counts must repeat for one seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import batch  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert set(metrics.DESCRIPTORS) <= set(metrics.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_descriptors_repeat_for_one_seed():
    first, second = _run("batch-cold", 1, seed=7), _run("batch-cold", 1, seed=7)
    for name in metrics.DESCRIPTORS:
        assert first["metrics"][name] == second["metrics"][name], name


def _tiny_document():
    from repro.pipeline import run_pipeline

    corpus = inputs.batch_corpus("batch-cold", 0, 0, "tiny")
    result = run_pipeline(
        corpus, inputs.BATCH["batch-cold"]["analyses"], config=inputs.STATIC_CONFIG
    )
    return result


def test_corrupted_batch_document_trips_the_gate():
    result = _tiny_document()
    text = result.to_json()
    reference = {
        "digest": metrics.digest(text.encode("utf-8")),
        "descriptors": metrics.describe(result.programs),
    }
    cells = len(result.programs) * len(result.analyses)

    def _pass(document: str) -> dict:
        return {
            "cells": cells,
            "digest": metrics.digest(document.encode("utf-8")),
            "descriptors": reference["descriptors"],
            "hit_ratio": 0.0,
        }

    corrupted = text.replace('"certified": true', '"certified": false', 1)
    assert corrupted != text
    assert batch.grade([_pass(text)], reference) == (cells, 0, True)
    assert batch.grade([_pass(corrupted)], reference) == (cells, cells, True)


def test_corrupted_served_body_trips_the_gate():
    body = (_tiny_document().to_json() + "\n").encode("utf-8")
    expected = {"p": (metrics.digest(body), 0.0, [])}
    good = (0, "hot", "p", 200, 0.01, metrics.digest(body))
    corrupted = body.replace(b'"certified": true', b'"certified": false', 1)
    assert corrupted != body
    bad = (1, "hot", "p", 200, 0.01, metrics.digest(corrupted))
    refused = (2, "unique", "p", 429, 0.01, metrics.digest(b""))
    assert serve.grade([good], expected) == 0
    assert serve.grade([good, bad, refused], expected) == 2
    # A body that matches the local document still fails when that
    # document holds an error record.
    broken = [{"name": "q", "analyses": {"lint": {"error": "boom"}}}]
    expected["q"] = (metrics.digest(b"q"), 0.0, broken)
    errored = (3, "unique", "q", 200, 0.01, metrics.digest(b"q"))
    assert serve.grade([good, errored], expected) == 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "batch-cold",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
