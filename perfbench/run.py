"""The repository's benchmark: one command, four seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {solo,stream,scaleout,service} \\
        --seed N --seconds S --trace {0,1}

It generates the workload's inputs from ``--seed``, measures for about
``--seconds`` seconds, checks every result (each chain accounted for
once and gathered; a seeded sample identical to the reference engine),
prints one human-readable line per note and metric, and prints as its
last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics.  The exit code
is 0 only when every chain was correct.  See README.md for the metric
definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: end-to-end metrics: (name, unit); README.md gives each definition
END_TO_END = [
    ("chains_per_s", "chains/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

WORKLOADS = ("solo", "stream", "scaleout", "service")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program under {src}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    from common import Context
    ctx = Context(root, args.workload, args.seed, args.seconds,
                  bool(args.trace))
    try:
        if args.workload == "service":
            from service import service as run
        else:
            import workloads
            run = getattr(workloads, args.workload)
        oc = run(ctx)
    finally:
        shutil.rmtree(ctx.out, ignore_errors=True)

    from layers import PER_LAYER
    units = dict(END_TO_END) if not ctx.trace else \
        {name: unit for name, unit, _b in PER_LAYER}
    values = oc.layers if ctx.trace else oc.e2e
    for note in oc.notes:
        print(f"# {note}")
    for name, unit in units.items():
        print(f"{args.workload:9s} {name:34s} {values[name]:14.6g} {unit}")
    print(f"{args.workload:9s} {'error_rate':34s} "
          f"{oc.failed / max(oc.attempted, 1):14.6g} ratio")
    correct = oc.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": oc.attempted,
        "failed": oc.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
