"""A probe of how fast the shared CPU runs right now.

The host's CPU speed swings by up to 40% for tens of seconds at a time, and
pure-Python code slows by the same factor as the program does. The benchmark
times this fixed loop next to every measurement and scales the measurement
by ``REFERENCE_S / kernel_s()``, which gives seconds at the reference speed.
The loop belongs to the benchmark, so no change to the program moves it.
"""

import time

LOOPS = 150_000
# The loop's time on the 2-core reference host when it runs at full speed.
REFERENCE_S = 0.011


def kernel_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def corrected(seconds: float, kernels: list[float]) -> float:
    """``seconds`` at the reference speed, given the kernel times measured around it."""
    return seconds * REFERENCE_S * len(kernels) / sum(kernels)
