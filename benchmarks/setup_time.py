"""Seconds from a fresh interpreter to parsed input: import phasorlife, read and parse the files.

Prints the set-up time and then the calibration kernel's time, measured
right after it.

    PYTHONPATH=src python3 benchmarks/setup_time.py FILE.sqp...
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import phasorlife  # noqa: E402

docs = [phasorlife.parse_pattern(Path(p).read_text(encoding="utf-8")) for p in sys.argv[1:]]
setup_s = time.perf_counter() - T0

import calib  # noqa: E402

print(setup_s, calib.kernel_s())
