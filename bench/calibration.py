"""Calibration kernel: a fixed pure-Python loop that states the machine's
current speed.

The host the benchmark was built on switches between two speeds about 1.45x
apart every few seconds, because of load outside its VM.  Timing this kernel
just before and just after a measurement, and scaling the measurement by
``REF_S`` over the kernel's mean time, states the measurement at a reference
machine speed.
"""

import math
import time

REF_S = 0.008  # kernel time that defines the reference speed


def kernel() -> float:
    """Seconds taken by a loop shaped like the scalar walk: float arithmetic,
    a power, a square root and a small function call."""
    def drift(x, i):
        return -(4.5 + 2.2e-7 * x * x) + 0.1 * (1000.0 - x)

    t0 = time.perf_counter()
    y = 1000.0
    for _ in range(20000):
        h = 0.03 / y ** 0.1
        y += h * drift(y, 1) + math.sqrt(2.2e-7 * y * y * y / 3.0) * 1e-3
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel times ``before`` and ``after``,
    rescaled to the reference speed."""
    return seconds * 2.0 * REF_S / (before + after)
