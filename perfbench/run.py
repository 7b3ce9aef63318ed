"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 20 --trace 0

Workloads: ``batch-cold`` and ``serve-mix`` (``README.md`` says what
each measures and why).  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics.  Every run checks
the program's documents against a reference and reports ``correct``,
``attempted`` and ``failed``.  Working files live under
``.perfbench-work/`` in the checkout and are removed on exit.
``--population`` picks another block of generated programs (a held-out
input set); ``--size tiny`` shrinks every input for the benchmark's
own tests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"

#: A child process that takes longer than this is a failed run.
CHILD_TIMEOUT = 150

WORKLOADS = ("batch-cold", "serve-mix")


def run_child(spec: dict) -> dict:
    """Run ``child.py`` with ``spec`` in a fresh interpreter; its result."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{spec['task']} process timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{spec['task']} process exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--population",
        type=int,
        default=0,
        help="generator-seed block of the programs (another block is a "
        "held-out input set)",
    )
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT} holds no src/repro to measure",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import batch
    import serve
    from metrics import result_line

    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(WORK_ROOT))
    try:
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "population": args.population,
            "size": args.size,
            "seconds": args.seconds,
            "work": work,
        }
        module = serve if args.workload == "serve-mix" else batch
        outcome = module.run(spec, bool(args.trace), run_child)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a directory in it
    correct, attempted, failed, values = outcome
    print(result_line(correct, attempted, failed, values, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
