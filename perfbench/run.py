"""Benchmark entry point: one workload, one process, one JSON line at the end.

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. BLAS is pinned to one thread before numpy loads, because
on a shared two-core host a second BLAS thread turns other tenants' load
into run-to-run noise. The interpreter's garbage-collector settings are left
alone. With ``--trace 1`` the run installs timing wrappers and prints the
per-layer metrics instead of the end-to-end ones. Each run also writes a
result file (and with tracing, its spans) under ``perfbench/results/``.
"""

from __future__ import annotations

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def import_package():
    """Import m2fcn from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import m2fcn
    except ImportError as exc:
        sys.exit(f"cannot import m2fcn from {src}: {exc}")
    if Path(m2fcn.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"m2fcn was imported from {m2fcn.__file__}, not from {src}")
    return m2fcn


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)

    m2fcn = import_package()
    sys.path.insert(0, str(ROOT))
    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    started = time.perf_counter()
    try:
        run = workloads.run_workload(workload, args.seed, args.seconds, tracer, RESULTS)
    except workloads.checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = tracing.per_layer_metrics(tracer, run.iterations, run.maps_swept, workloads.SETUPS,
                                           run.saves, run.loads)
        units = tracing.PER_LAYER
    else:
        values, units = run.metrics, workloads.END_TO_END
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "wall_s": time.perf_counter() - started,
        "outputs_sha256": run.digest.hexdigest(),
        "end_to_end": run.metrics,
        "per_layer": values if args.trace else None,
        "samples": run.samples,
        "wall_samples": run.wall_samples,
        "peak_rss_after": run.peak_rss_after,
        "stage_s": run.stage_s,
        "timed_cycles": run.cycles,
        "timed_iterations": run.iterations,
        "timed_maps_swept": run.maps_swept,
        "blas_env": BLAS_ENV,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "m2fcn": m2fcn.__version__,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    print(f"outputs_sha256 {record['outputs_sha256']}")
    result = {
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
