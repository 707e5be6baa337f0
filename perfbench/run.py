"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload infer_b64 --seed 1 --seconds 20 --trace 0

Runs the workload in a process of its own (``worker.py``) with the BLAS
thread count fixed, prints the host block, the per-run report and every
metric by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
set-up time of ``SETUP_RUNS[workload]`` fresh processes, because the
program caches kernel choices and index tables per process and a user
pays set-up once per process.  ``--trace 1`` reports the per-layer
metrics: the workload runs traced, and each layer it does not reach is
measured by a short traced probe of the workload that does (see
README.md).  Spans are written
as JSON lines under ``.perfbench_out/``.

Exits non-zero, printing no result line, when a workload process fails or
the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from host import BLAS_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
#: Fresh-process set-ups per untraced run, the measured process included.
#: Short set-ups take more samples: a 10 ms or 1 s set-up moves by a third
#: with the host, where fine-tuning's 8 s one spreads about 12% over three.
SETUP_RUNS = {"infer_b64": 7, "finetune_b64": 3, "serve_open": 9}
PROBE_SECONDS = 1.0


def deadline_s(seconds: float) -> float:
    """Wall time a whole run may take: 160 s at the benchmark's 20-second runs.

    It grows with ``--seconds``, so a longer run is not cut short:
    fine-tuning overshoots to the end of its epoch, and set-up processes,
    probes and checks add about a minute.
    """
    return 120.0 + 2.0 * seconds


class WorkerFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(OUT / "tmp")  # temporary files stay inside the checkout
    return env


def _worker(workload, seed, seconds, trace, role, sizes, work, deadline) -> dict:
    trace_file = OUT / f"trace-{workload}-seed{seed}-{role}.jsonl"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--role", role, "--sizes", sizes,
        "--work", str(work), "--trace-file", str(trace_file),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"no time left for the {role} process of {workload}")
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{role} process of {workload} exceeded the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise WorkerFailed(f"{role} process of {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("trace_spans"):
        result["trace_path"] = str(trace_file.relative_to(ROOT))
    return result


def _processes(workload, seed, seconds, trace, role, sizes, work_root, deadline, setup_only_runs=0):
    """Prepare, then ``setup_only_runs`` set-up processes, then the measured process."""
    work = work_root / workload
    work.mkdir(parents=True)

    def call(role, trace=0):
        return _worker(workload, seed, seconds, trace, role, sizes, work, deadline)

    call("prepare")
    setups = [call("setup")["setup_s"] for _ in range(setup_only_runs)]
    result = call(role, trace)
    result["setups"] = setups + [result["setup_s"]]
    return result


def run(workload: str, seed: int, seconds: float, trace: int, sizes: str = "paper", log=print) -> dict:
    """Measure one workload; returns the result object and logs the report."""
    deadline = time.monotonic() + deadline_s(seconds)
    work_root = OUT / "tmp" / f"run-{os.getpid()}"
    try:
        # Set-up-only processes run before the measured one, so set-up is
        # always measured in a fresh process; traced runs skip them.
        main = _processes(
            workload, seed, seconds, trace, "main", sizes, work_root, deadline,
            setup_only_runs=0 if trace else SETUP_RUNS[workload] - 1,
        )
        probes = []
        if trace:
            probes = [
                _processes(other, seed, PROBE_SECONDS, 1, "probe", sizes, work_root, deadline)
                for other in WORKLOADS
                if other != workload
            ]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    host = main["host"]
    log(
        f"host: cpus={host['cpus']} affinity={host['affinity']} machine={host['machine']} "
        f"numpy={host['numpy']} blas={host['blas']} blas_threads={host['blas_threads']} "
        f"python={host['python']} commit={host['commit']}"
    )
    log(f"run: workload={workload} seed={seed} seconds={seconds:g} trace={trace} sizes={sizes}")
    for res, label in [(main, workload)] + [(p, "probe") for p in probes]:
        for line in res["report"]:
            log(f"  {line}")
        for name, (ok, detail) in res["checks"].items():
            log(f"  check {label}.{name}: {'ok' if ok else 'FAILED'} ({detail})")
        if res.get("trace_path"):
            log(f"  spans: {res['trace_path']}")

    if trace:
        values = {}
        for probe in probes:
            values.update(probe["layers"])
        values.update(main["layers"])  # the workload's own layers win over probes
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        source = {name: workload if name in main["layers"] else "probe" for name in values}
    else:
        setups = main["setups"]
        values = dict(main["e2e"], setup_s=statistics.median(setups), peak_rss_mb=main["peak_rss_mb"])
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        source = {name: workload for name in values}
        log(f"  setup_s of {len(setups)} fresh processes: {', '.join(f'{s:.4f}' for s in setups)}")
        for name, value in main["e2e"].items():
            if name not in names:
                log(f"  also measured, not a benchmark metric: {name} = {value:.6g}")
    missing = [name for name in names if name not in values]
    if missing:
        raise WorkerFailed(f"metrics not measured: {missing}")
    metrics = {name: {"value": float(values[name]), "unit": UNITS[name]} for name in names}
    for name in names:
        log(f"metric {name} = {values[name]:.6g} {UNITS[name]} [{source[name]}]")

    log(f"operations: attempted {main['attempted']}, failed {main['failed']}")
    checks = [ok for res in [main] + probes for ok, _ in res["checks"].values()]
    return {
        "correct": all(checks) and bool(checks),
        "attempted": int(main["attempted"]),
        "failed": int(main["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except WorkerFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
