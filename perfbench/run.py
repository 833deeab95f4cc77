"""Benchmark entry point: one workload, one process.

    python3 perfbench/run.py --workload p1_vgg32 --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, never from an installed copy.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The line before it is a JSON record of the run and its environment.  A
traced run also writes its spans to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("p1_vgg32", "gradcheck16")


def limit_blas_threads() -> tuple[int, int]:
    """Cap BLAS at ``nproc`` threads (or fewer if already asked for); must
    run before numpy is imported.  Returns (threads, nproc)."""
    nproc = len(os.sched_getaffinity(0))
    try:
        asked = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        asked = nproc
    threads = max(1, min(asked, nproc))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads, nproc


def commit_id() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int, nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit_id(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"), "blas_threads": threads,
        "nproc": nproc, "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hebblab" / "__init__.py").is_file():
        print(f"perfbench: no hebblab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads, nproc = limit_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import tracing
    import workloads

    tracer = tracing.Tracer(wants_trace=bool(args.trace))
    outcome = workloads.run_workload(args.workload, args.seed, args.seconds, tracer)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(threads, nproc), **outcome.record}
    if args.trace:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        path = results / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(path)
        record["spans"] = str(path.relative_to(ROOT))
        units = tracing.LAYER_UNITS
    else:
        units = workloads.E2E_UNITS
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
