"""Host and environment recorded with every benchmark result.

``cap_blas_threads`` must run before numpy is imported: OpenBLAS reads its
thread count from the environment when it loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

FLUSH_POLICY = (
    "tdcat defaults: every delta segment and every merged base is fsynced "
    "before its rename; the same on both sides of any comparison"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Set each BLAS thread variable to at most the usable core count."""
    n = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))


def _meminfo_mib(key: str) -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas_runtime_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = (
        "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads", "openblas_get_num_threads",
    )
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def describe(root) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "ram_total_mib": _meminfo_mib("MemTotal"),
        "ram_available_mib": _meminfo_mib("MemAvailable"),
        "disk_free_gib": shutil.disk_usage(root).free / 2**30,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "executable": sys.executable,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_runtime": _blas_runtime_threads(),
        "platform": platform.platform(),
        "flush_policy": FLUSH_POLICY,
    }
