"""Real-clock benchmark of the randomized low-rank pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload fixed_rank --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``fixed_rank``, ``fixed_accuracy`` and
``serve`` (see ``workloads.py`` for what each one stresses and why).
All inputs come from ``--seed``.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced work, reports the per-layer metrics of the traced part and the
tracing overhead, and writes the spans to
``perfbench/out/trace-<workload>-<seed>.json`` (Chrome trace events;
open in Perfetto).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every end-to-end metric is defined on every workload.  On ``serve``,
``rel_error`` is the median relative Frobenius error of the
middle-rank results checked against solo runs, and ``floor_ratio``
divides by one request's share of the bare GEMM and QRs of a full
batch.  ``slo_attainment`` uses a latency limit of 1 s on
``fixed_rank``, 2 s on ``fixed_accuracy`` and 0.5 s on ``serve``.
``success_rate`` is ``1 - error_rate``; both are printed.
``peak_alloc_mb`` is the memory a call allocates at its peak (the mean
over the first five calls, re-run after the timed ones; on ``serve``,
one full batch); resident memory is printed too, but it moves with BLAS
and allocator pools between runs.
Per-layer metrics that do not apply to a workload read 0.

The benchmark's own tests: ``python3 -m pytest perfbench -q``.
Run-to-run spread over seeds: ``python3 perfbench/spread.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (prefix, suffix) of the OpenBLAS getters: the scipy-openblas wheels
#: with 64- and 32-bit integers, then a plain build.
OPENBLAS_SYMBOLS = (("scipy_openblas_get_", "64_"),
                    ("scipy_openblas_get_", ""), ("openblas_get_", ""))


def blas_environment() -> list:
    """The OpenBLAS builds loaded by numpy and scipy, with their thread
    counts; empty where the wheels ship another BLAS."""
    import numpy
    import scipy
    found = []
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__,
                     "library": os.path.basename(path)}
            for prefix, suffix in OPENBLAS_SYMBOLS:
                threads = getattr(lib, f"{prefix}num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    entry.update(threads=threads(),
                                 config=config().decode())
                    break
            found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas_environment(),
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }


def print_layer_table(result) -> None:
    """Self time per call of every traced layer, and the check that they
    sum to the traced call wall."""
    rows = sorted(((k[:-len(".self_s")], v) for k, v in result.layers.items()
                   if k.endswith(".self_s")), key=lambda kv: -kv[1])
    unattributed = result.layers.get("core.unattributed_s", 0.0)
    wall = result.layers["trace.call_wall_s"]
    print(f"per-layer self time per call (traced call wall "
          f"{wall:.6f} s):")
    for name, value in rows:
        share = value / wall if wall else 0.0
        print(f"  {name:34s} {value:.6f} s  {100 * share:5.1f}%")
    if unattributed:
        print(f"  {'core.unattributed_s':34s} {unattributed:.6f} s  "
              f"{100 * unattributed / wall:5.1f}%")
    total = sum(v for _, v in rows) + unattributed
    print(f"  sum of the above {total:.6f} s vs traced call wall "
          f"{wall:.6f} s (difference {total - wall:+.2e} s)")
    kernels = sum(v for k, v in rows if k.startswith("backends."))
    print(f"backends.wall_s {result.layers['backends.wall_s']:.6f} s "
          f"(the program's own kernel clock) vs backend span self time "
          f"{kernels:.6f} s")
    print(f"tracing overhead: "
          f"{100 * result.layers['trace.overhead_frac']:+.2f}% "
          f"on the median call")


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def main(argv=None) -> int:
    # Metric names and units are declared once, in BENCHMARK.json.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=seed_arg, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no package source at {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    from spans import write_chrome_trace

    env = environment()
    print("environment: " + json.dumps(env))
    workload, runner = WORKLOADS[args.workload]
    result = runner(workload(args.seed), args.seconds, bool(args.trace))
    for note in result.notes:
        print(note)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        print_layer_table(result)
        names = [m["name"] for m in bench["per_layer"]]
        values = {n: float(result.layers.get(n, 0.0)) for n in names}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"trace-{args.workload}-{args.seed}.json")
        count = write_chrome_trace(path, result.tracer.spans,
                                   metadata={"workload": args.workload,
                                             "seed": args.seed,
                                             "environment": env})
        print(f"wrote {count} trace events to "
              f"{os.path.relpath(path, ROOT)}")
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        values = {n: float(result.e2e[n]) for n in names}
        print("end-to-end metrics:")
        for name in names:
            print(f"  {name:20s} {values[name]:.6g} {units[name]}")
        print(f"  {'error_rate':20s} "
              f"{result.failed / result.attempted:.6g} fraction")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
