"""Speed correction scales a time by the reference over the measured loop time."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calib  # noqa: E402


def test_corrected_scales_by_mean_kernel_time():
    ref = calib.REFERENCE_S
    assert calib.corrected(2.0, [ref]) == pytest.approx(2.0)
    assert calib.corrected(2.0, [2 * ref]) == pytest.approx(1.0)
    assert calib.corrected(3.0, [ref, 2 * ref]) == pytest.approx(2.0)


def test_kernel_takes_measurable_time():
    assert calib.kernel_s() > 0.0
