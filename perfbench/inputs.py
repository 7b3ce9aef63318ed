"""Seeded inputs and the fixed shape of each workload.

Everything the program under test receives is generated here: the same
``--seed`` and ``--population`` give the same programs, names and
request sequence, and the program never sees either number.

The programs are fuzz-generator subjects ``generate_subject(g, profile)``
for a contiguous block of generator seeds ``g`` chosen by
``--population`` (default 0); every subject of the block is used,
none is skipped.  ``--seed`` decides the batch programs' names (not
their order) and the order of ``serve-mix``'s hot requests.

Why the seed does not pick the programs: analysis cost per program is
heavy-tailed.  Across eight seed-chosen static corpora the cold-batch
time varied with an IQR of 23% of the median at 100 programs and 14%
at 300; explorer time per 100 ``runtime_safe`` programs ranged from
4.5 s to 8.8 s.  Runs of a benchmark whose spread must stay inside a
10-25% bound cannot average that out, so the cost-bearing content is
fixed and a different ``--population`` is the held-out input set.

Why the seed does not reorder them either: the pipeline sorts programs
by name and cuts the sorted list into chunks, so the order decides
which chunk, and which of the two workers, meets the slow cells.  With
seed-shuffled names, a 60-program explorer batch at ``jobs=2`` kept
1.2 cores busy and ran 21 programs/s for seed 402, and kept 1.75 busy
and ran 32 for seed 405, run after run.  Names therefore keep generator
order and the seed only changes their text.

* ``batch-cold`` — 120 subjects of the ``static``
  profile, a multiple of 12 so the generator's size / semaphore /
  cobegin knobs (derived from ``g % 4`` and ``g % 3``) are balanced.
* the explorer probe of ``batch-cold``'s traced run — 60 subjects of
  the ``runtime_safe`` profile (one of them hits the explorer's state
  budget).
* ``serve-mix`` — a hot set of 32 programs: the 27 paper and litmus
  programs of ``repro.workloads.suites`` (each statement wrapped in the
  declarations it needs) and 5 static subjects; after it, a pool of
  never-repeated static subjects used in order.  Request ``k`` is
  unique when ``k % 5 == 4`` and a seeded draw from the hot set
  otherwise.  The 4:1 mix and the hot-set size are assumptions, not
  measured traffic: the repository records no traffic of ``repro
  serve``'s callers.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Tuple

#: Distance between the generator-seed blocks of two populations.
POPULATION_STRIDE = 1_000_000

#: Workload sizes; ``tiny`` exists for the benchmark's own tests.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {"static": 120, "explore": 60, "hot": 32, "unique_per_s": 60},
    "tiny": {"static": 12, "explore": 8, "hot": 4, "unique_per_s": 40},
}

#: The policy every static workload certifies against: ``v0`` is high,
#: every other variable low.
STATIC_CONFIG = {"high": ["v0"]}

#: The batch workload: generator profile, analyses, jobs, cache state.
BATCH = {
    "batch-cold": {
        "profile": "static",
        "analyses": ["cert", "denning", "lint"],
        "jobs": 2,
        "cache": "cold",
    },
}

#: ``serve-mix`` request shape.  The policy adds the secrets of the
#: paper (``x``) and litmus (``h``, ``h2``) programs to ``v0``.
SERVE_ANALYSES = ["cert", "lint"]
SERVE_CONFIG = {"high": ["h", "h2", "v0", "x"]}
UNIQUE_EVERY = 5


def batch_corpus(
    workload: str, seed: int, population: int, size: str
) -> List[Tuple[str, object]]:
    """The ``(name, Program)`` corpus of one batch workload."""
    from repro.fuzz.driver import generate_subject

    profile = BATCH[workload]["profile"]
    base = population * POPULATION_STRIDE
    rng = random.Random(seed)
    return [
        (
            f"p{i:04d}-{rng.getrandbits(24):06x}-g{base + i}",
            generate_subject(base + i, profile),
        )
        for i in range(SIZES[size]["static"])
    ]


def explore_subjects(population: int, size: str) -> list:
    """The ``runtime_safe`` Programs the explorer is probed on."""
    from repro.fuzz.driver import generate_subject

    base = population * POPULATION_STRIDE
    return [
        generate_subject(base + i, "runtime_safe")
        for i in range(SIZES[size]["explore"])
    ]


def request_body(name: str, source: str) -> bytes:
    """One ``POST /analyze`` body."""
    document = {
        "name": name,
        "program": source,
        "analyses": SERVE_ANALYSES,
        "config": SERVE_CONFIG,
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


def suite_programs() -> List[Tuple[str, str]]:
    """The paper and litmus statements as ``(name, source)`` programs,
    each declaring the integers and semaphores it uses."""
    from repro.lang.ast import (
        Program,
        Signal,
        VarDecl,
        Wait,
        iter_nodes,
        used_variables,
    )
    from repro.lang.pretty import pretty
    from repro.workloads.suites import corpus

    out = []
    for suite in ("paper", "litmus"):
        for name, statement in corpus(suite):
            sems = sorted(
                {
                    node.sem
                    for node in iter_nodes(statement)
                    if isinstance(node, (Wait, Signal))
                }
            )
            ints = sorted(used_variables(statement) - set(sems))
            decls = [VarDecl(ints, "integer")] if ints else []
            if sems:
                decls.append(VarDecl(sems, "semaphore"))
            out.append((f"{suite}-{name}", pretty(Program(decls, statement))))
    return out


def _static_source(g: int) -> Tuple[str, str]:
    from repro.fuzz.driver import generate_subject
    from repro.lang.pretty import pretty

    return f"g{g}", pretty(generate_subject(g, "static"))


def serve_hot(seed: int, population: int, size: str, requests: int):
    """``(hot, picks)`` for ``serve-mix``.

    ``hot`` is a list of ``(name, source)``: the suite programs, then
    static subjects up to the hot-set size.  ``picks[k]`` is the hot-set
    index request ``k < requests`` uses when it is a hot request.
    """
    n_hot = SIZES[size]["hot"]
    base = population * POPULATION_STRIDE
    hot = suite_programs()[:n_hot]
    hot += [_static_source(base + i) for i in range(n_hot - len(hot))]
    rng = random.Random(seed)
    picks = [rng.randrange(n_hot) for _ in range(requests)]
    return hot, picks


def unique_pool_size(size: str, seconds: float) -> int:
    """Never-seen programs a ``serve-mix`` window may use: ``unique_per_s``
    a second, over twice what two clients reach today (about 26 unique
    requests a second on two cores)."""
    return max(8, int(SIZES[size]["unique_per_s"] * seconds))


def serve_unique(population: int, size: str, count: int):
    """The first ``count`` never-repeated ``(name, source)`` programs of
    ``serve-mix``."""
    base = population * POPULATION_STRIDE + SIZES[size]["hot"]
    return [_static_source(base + i) for i in range(count)]


def request_at(k: int, hot, unique, picks):
    """``(class, name, source)`` of request ``k``, or ``None`` past the pool."""
    if k >= len(picks):
        return None
    if k % UNIQUE_EVERY == UNIQUE_EVERY - 1:
        name, source = unique[k // UNIQUE_EVERY]
        return "unique", name, source
    name, source = hot[picks[k]]
    return "hot", name, source
