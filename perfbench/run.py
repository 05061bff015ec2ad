"""Benchmark entry point.

    python3 perfbench/run.py --workload kv-zipf-spill --seed 1 \\
        --seconds 15 --trace 0

Run from the repository root.  Prints a report of every end-to-end
metric (``n/a`` where a metric does not apply to the workload), the
correctness checks and, with ``--trace 1``, the per-layer metrics; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A failed
correctness check exits with status 1, a tree without ``src/repro``
with status 2.  Traced runs write a Chrome trace and a per-layer
summary under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where traced runs write their Chrome trace and per-layer summary.
OUT_DIR = os.path.join(ROOT, "perfbench", "_out")

#: End-to-end metrics of the last line.  Every workload has them and
#: none is ever 0; the others are workload-specific and only reported.
FINAL_END_TO_END = ("setup_s", "peak_rss_mb", "host_kops_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.bench import REPORTED, run
    from perfbench.harness import CheckFailed, describe_samples
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(have {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    print(f"== perfbench {args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    for key, text in workload.describe().items():
        print(f"{key + ':':6} {text}")
    try:
        report = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), OUT_DIR)
    except CheckFailed as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    print("end-to-end:")
    for name, unit in REPORTED:
        metric = report.end_to_end.get(name)
        if metric is None:
            print(f"  {name:24} n/a {unit}")
        else:
            print(f"  {name:24} {metric.value:<14.6g} {unit:8} "
                  f"{describe_samples(name, metric.samples)}")
    print("notes:")
    for name, metric in report.notes.items():
        print(f"  {name:24} {metric.value:<14.6g} {metric.unit:8} "
              f"{describe_samples(name, metric.samples)}")
    print(f"checks: passed ({report.attempted} requests, "
          f"{report.failed} failed)")
    if report.trace:
        print("per-layer:")
        for name, metric in report.per_layer.items():
            print(f"  {name:26} {metric.value:<14.6g} {metric.unit:8} "
                  f"{describe_samples(name, metric.samples)}")
        for path in report.files:
            print(f"wrote {os.path.relpath(path, ROOT)}")

    chosen = report.per_layer if report.trace else {
        name: report.end_to_end[name] for name in FINAL_END_TO_END}
    print(json.dumps({
        "correct": True, "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
