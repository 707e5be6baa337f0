"""Run one workload in this process and print its result as the last stdout line.

``run.py`` starts this script once per process it needs:

* ``--role prepare``: write what the workload's processes share (the
  serving store);
* ``--role setup``: set up only, report ``setup_s``;
* ``--role main``: the measured run (traced when ``--trace 1``);
* ``--role probe``: a short traced run of a workload whose layers the
  traced workload does not reach.

Usage (normally through run.py)::

    python3 perfbench/worker.py --workload infer_b64 --seed 1 --seconds 20 --trace 0 --role main --work .perfbench_out/tmp/w
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path

from host import host_block
from tracing import Tracer
from workloads import PAPER, PREPARE, TINY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SIZES = {"paper": PAPER, "tiny": TINY}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("prepare", "setup", "main", "probe"), default="main")
    parser.add_argument("--sizes", choices=sorted(SIZES), default="paper")
    parser.add_argument("--work", type=Path, required=True, help="the run's scratch directory")
    parser.add_argument("--trace-file", type=Path, default=None)
    args = parser.parse_args(argv)

    sizes = SIZES[args.sizes]
    if args.role == "prepare":
        if args.workload in PREPARE:
            PREPARE[args.workload](sizes, args.seed, args.work)
        print(json.dumps({}))
        return 0
    tracer = Tracer(enabled=bool(args.trace))
    result = WORKLOADS[args.workload](
        sizes, args.seed, args.seconds, tracer, args.work, setup_only=args.role == "setup"
    )
    out = asdict(result)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.role == "main":
        out["host"] = host_block(ROOT)
    if args.trace_file is not None and tracer.enabled:
        out["trace_spans"] = tracer.dump(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
