"""Where and how a result was measured.

Every result carries this manifest: core count and affinity mask, the
NumPy version and BLAS build, the BLAS thread count actually in force,
the worker-process count, the Python version, load averages at start
and end, and the git revision when the checkout has one.  BLAS threads
and worker processes share one budget of ``nproc`` threads:
:func:`pin_blas_threads` gives every process one BLAS thread, so a
workload uses one thread per worker process (the 2-shard fleet: two).
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from typing import Dict, Optional

#: Environment variables that size the BLAS thread pool at load time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on (the affinity mask, not the host)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def pin_blas_threads() -> None:
    """One BLAS thread per process.

    A second thread barely speeds up the mini models' small GEMMs on
    two cores but ties each op to both cores, so a busy neighbour on
    either slows it.  Must run before NumPy is first imported: OpenBLAS
    sizes its pool from these variables when the library loads.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _blas_threads_in_force() -> Optional[int]:
    """Thread count reported by NumPy's bundled OpenBLAS, if found."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_rev(root: str) -> Optional[str]:
    """HEAD's commit id read from ``.git`` (no subprocess), or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def _blas_build() -> Dict[str, object]:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        return {}
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version",
                                     "openblas configuration")
            if k in blas}


def manifest(root: str, workers: int, load_start) -> Dict[str, object]:
    """The environment record attached to one result."""
    import numpy as np
    return {
        "nproc": nproc(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": _blas_threads_in_force(),
        "blas_thread_env": {v: os.environ.get(v)
                            for v in BLAS_THREAD_VARS},
        "worker_processes": workers,
        "python": platform.python_version(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "git_rev": _git_rev(root),
    }
