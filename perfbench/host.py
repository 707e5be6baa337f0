"""The host block every run prints: where the figures were measured."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

#: BLAS threads every workload process runs with.  One thread: on a shared
#: two-core host two BLAS threads raised engine throughput by about 10%
#: but widened the spread between runs, and the serving workload already
#: runs one engine call per core.
BLAS_THREADS = 1
BLAS_ENV = {
    name: str(BLAS_THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> str:
    """Threads the loaded OpenBLAS reports, read from the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def host_block(root: Path) -> dict:
    """CPU count and affinity, numpy and BLAS, Python, and the commit measured.

    Call it in a process that has imported numpy, so the BLAS library is
    loaded and its thread count can be read.
    """
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "commit": git_commit(root),
    }
