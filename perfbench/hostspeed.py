"""Host speed, measured with a fixed kernel next to every timed sample.

On a shared machine other tenants slow every process by 20-60% for tens of
seconds at a time, so two runs of the same code can differ more than any
change worth measuring.  The kernel below does the same kind of work as the
estimators (NumPy passes over 16k-element arrays, small matrix products,
interpreter overhead) and never touches ``owcrelay``, so a change to the
program cannot change it.  A timed sample is scaled by
``REFERENCE_S / kernel time`` averaged over the kernel runs just before and
just after it: the result reads as seconds on the reference host, idle.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the two-core host where the baseline was recorded, idle.
REFERENCE_S = 0.044


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel (about 45 ms idle).

    Its inputs are rebuilt on every call, outside the timed part, so the
    kernel holds no memory between calls and adds nothing to a process's
    resident size while the program runs.
    """
    rng = np.random.default_rng(20230410)
    points = rng.random((16384, 2)) * 4.0
    segments = rng.random((96, 4)) * 4.0
    rows = rng.random((44, 4096))
    start = time.perf_counter()
    hits = 0
    for seg in segments:
        p0 = seg[:2]
        w = seg[2:] - p0
        d = points - p0
        t = np.clip((d @ w) / float(w @ w), 0.0, 1.0)
        diff = d - t[:, None] * w
        hits += int(np.count_nonzero(diff[:, 0] ** 2 + diff[:, 1] ** 2 <= 0.09))
    for i in range(40):
        hits += int(np.sum(rows[i] @ rows[i + 1 : i + 5].T) > 0)
    total = 0
    for i in range(40_000):
        total += i & 7
    elapsed = time.perf_counter() - start
    if hits < 0 or total < 0:  # keeps the work observable
        raise AssertionError
    return elapsed


class Scaler:
    """Scales raw sample times to reference-host seconds.

    Call :meth:`mark` between samples; each sample's factor uses the kernel
    times measured at the marks on either side of it.
    """

    def __init__(self):
        self.last = kernel_seconds()
        self.factors: list[float] = []

    def mark(self) -> float:
        """Run the kernel; return the factor for the sample just ended."""
        now = kernel_seconds()
        factor = REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        self.factors.append(factor)
        return factor
