"""A fixed reference kernel that tracks how fast the machine is running.

The 2-core VMs this benchmark runs on change speed by up to 2x over
minutes (frequency, co-tenants): the same code measured 5.5 ms per
frame in one hour and 2.8 ms in the next.  A wall-clock median cannot
be held to a 25% bound across such phases.  So every untraced run also
times this kernel, interleaved with its ops, and the end-to-end timings
are reported at reference speed: wall time x ``REFERENCE_S`` / the
kernel's measured time.  On a machine where the kernel takes exactly
``REFERENCE_S`` the reported numbers are the wall-clock ones; the raw
wall-clock numbers and the speed factor are printed beside them.

The kernel mixes what the workloads do: small float32 GEMMs with an
elementwise epilogue (the detector's convolutions) and tuple-keyed dict
building plus a keyed sort (the simulators' event bookkeeping).  It
uses only NumPy and builtins, never the program, so no change to the
program can move it.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter
from typing import List

import numpy as np

#: Reference kernel time that defines "reference speed", in seconds.
REFERENCE_S = 0.010
#: Kernel repeats per sample; the fastest counts (least disturbed).
REPEATS = 3

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((512, 288)).astype(np.float32)
_B = _RNG.standard_normal((288, 64)).astype(np.float32)


def _kernel() -> int:
    for _ in range(20):
        c = _A @ _B
        np.maximum(c, 0.0, out=c)
    table = {}
    for i in range(10000):
        table[(i % 977, i)] = i * 0.5
    return len(sorted(table.items(), key=lambda kv: (kv[1], kv[0])))


class SpeedMeter:
    """Samples the reference kernel through a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            _kernel()
            best = min(best, perf_counter() - t0)
        self.samples.append(best)

    @property
    def factor(self) -> float:
        """Wall seconds x factor = seconds at reference speed."""
        return REFERENCE_S / median(self.samples)
