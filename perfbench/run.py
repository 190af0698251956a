"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload field_large --seed 1 --seconds 35 --trace 0

Run from the repository root: the library is imported from ``src/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer ones. The full result,
with the environment stamp and every sample, goes to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``; a traced run
also writes its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("arm_pivot", "pair_additive", "field_large")


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the CPU count; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in BLAS_THREAD_VARS:
        if os.environ.get(var, "").isdigit() and 0 < int(os.environ[var]) < cap:
            cap = int(os.environ[var])
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def _environment(seed: int, blas_threads: int) -> dict:
    import numpy

    from anchorstream import kernels

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "kernel_backend": kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "anchorstream" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC / 'anchorstream'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    blas_threads = _cap_blas_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    import harness
    from workloads import WORKLOADS

    env = _environment(args.seed, blas_threads)
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         log=lambda line: print(line, flush=True))
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "samples": result.samples,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = {"columns": ["iteration", "id", "trace", "parent", "name", "start", "end",
                             "count"], "rows": result.spans}
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
