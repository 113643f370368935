"""Machine speed, sampled with a fixed reference kernel while the benchmark runs.

On a shared machine the speed of one core drifts by tens of percent within
seconds, and identical work takes up to twice as long from one minute to the
next.  A small numpy kernel of the same kind as the program's hot path
(batched 8x8 ``eigh`` plus a chain of 8x8 products) is timed every half
second and around every command.  Time spent between two samples is divided
by the mean of their slowdowns, which expresses it in seconds at the
reference speed; the samples themselves are excluded from every measured
interval.  Raw wall-clock times are reported next to the normalized ones.
"""

from __future__ import annotations

import time

import numpy as np

#: time of one ``reference_kernel`` call on an unloaded core of the 2-core
#: x86_64 machine the benchmark was defined on (10th percentile of 300 calls)
REFERENCE_KERNEL_S = 0.0045
KERNEL_REPEATS = 8

_rng = np.random.default_rng(2009)
_h = _rng.normal(size=(26, 8, 8)) + 1j * _rng.normal(size=(26, 8, 8))
_H = _h + _h.conj().transpose(0, 2, 1)


def reference_kernel() -> complex:
    acc = 0j
    for _ in range(KERNEL_REPEATS):
        lam, v = np.linalg.eigh(_H)
        u = np.eye(8, dtype=complex)
        for j in range(26):
            u = (v[j] * np.exp(-1e-3j * lam[j])) @ v[j].conj().T @ u
        acc += u[0, 0]
    return acc


class SpeedTrace:
    """Slowdown samples (begin, end, kernel time / reference) over a run.

    A disabled trace takes no samples and measures raw time only; traced
    runs use one, so that no sample lands inside a span.
    """

    def __init__(self, enabled: bool = True, interval_s: float = 0.5):
        self.enabled = enabled
        self.interval_s = interval_s
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        if not self.enabled:
            return
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, (t1 - t0) / REFERENCE_KERNEL_S))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.samples[-1][1] >= self.interval_s:
            self.sample()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(raw, reference-speed) seconds of [start, end] outside the samples.

        The interval must lie between the first and the last sample.
        """
        if not self.enabled:
            return end - start, end - start
        raw = normalized = 0.0
        for (_, e0, s0), (b1, _, s1) in zip(self.samples, self.samples[1:]):
            lo, hi = max(start, e0), min(end, b1)
            if hi > lo:
                raw += hi - lo
                normalized += (hi - lo) / ((s0 + s1) / 2)
        return raw, normalized
