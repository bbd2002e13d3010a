"""Run-to-run spread of the end-to-end metrics, against their bounds.

Runs the benchmark once per seed, one run at a time, and prints for
each metric the median and ``(Q3 - Q1) / median`` over the runs beside
a third of its bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --workload serve --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        print(f"{name:20s} " + " ".join(f"{v:.5g}" for v in vals))
    print(f"{'metric':20s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        spread = quartile_spread(vals) if len(vals) > 1 else 0.0
        flag = "" if spread < metric["bound"] / 3 else "  <-- wide"
        print(f"{metric['name']:20s} {statistics.median(vals):12.6g} {spread:8.4f} "
              f"{metric['bound'] / 3:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
