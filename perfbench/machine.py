"""What a result was measured on: interpreter, numpy and its BLAS, BLAS
threads, cores and git.  Import only after run.py has pinned BLAS
threads, because numpy reads the setting when it loads."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

import numpy as np

def _blas_threads() -> int | str:
    """Threads the loaded OpenBLAS reports, or the pinned setting when the
    library cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"pinned {os.environ.get('OPENBLAS_NUM_THREADS')}"


def _git_version() -> str:
    try:
        proc = subprocess.run(["git", "--version"], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"
    return proc.stdout.strip()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git": _git_version(),
    }
