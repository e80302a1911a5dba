"""Machine-speed probe: express measured times at a reference machine speed.

On a small shared machine the speed of one core drifts by up to a factor
of two, in episodes lasting from a second to minutes, while the process
keeps running (its CPU time grows exactly as its wall time does). Raw
timings then say more about the neighbours than about the program.

The probe times a fixed kernel that never calls ljlab, a mix of small
Hermitian eigensolves, norms, matrix products and interpreter work like the
benchmark's ops, between ops, at least every ``INTERVAL_S`` of op time.
An interval [t0, t1] is scaled by ``REFERENCE_S`` over the mean kernel time
of the samples just before t0 and just after t1. A change to the program
cannot move the kernel, so the scaled time still moves with the program,
but no longer with the machine's state. On a shared 2-vCPU VM this cut the
variation of op latency between one-second windows from about 21% to about
6% (coefficient of variation).
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: Kernel time on the machine the reference was recorded on, at its fast state.
REFERENCE_S = 0.011
INTERVAL_S = 0.25


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        g = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(8)]
        self._mats = [(m, m + m.conj().T) for m in g]
        self.times: list[float] = []  # sample end times, increasing
        self.kernel_s: list[float] = []

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(300):
            m, h = self._mats[i % 8]
            acc += float(np.linalg.eigvalsh(h)[0]) + float(np.linalg.norm(h @ m, 2))
            acc += sum({j: j * 0.5 for j in range(10)}.values())
        return acc

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernel_s.append(t1 - t0)

    def due(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the kernel time around [t0, t1]."""
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        near = [self.kernel_s[i] for i in (before, after) if 0 <= i < len(self.times)]
        return REFERENCE_S / (sum(near) / len(near))
