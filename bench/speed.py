"""The machine's speed, measured alongside the decisions.

The benchmark runs on a shared host whose speed moves by 10-60% over
seconds to minutes (other tenants share its cores and caches), and CPU
time moves with wall time, so a closed loop alone cannot tell a slower
program from a slower machine.  The run therefore also times a fixed
calibration task, which does not touch cubeterm, every CALIBRATE_EVERY_S
seconds of decision time.  A decision's time, multiplied by REFERENCE_S
over the median of the calibrations nearest to it, is its time at the
reference speed.  A change to cubeterm moves the decision times and not
the calibration, so it shows in full.

The calibration mixes the kinds of work cubeterm does: many numpy calls on
short rows (the small pointwise closures), interpreter-bound tuple and dict
handling (`Sg`, per-query set-up) and numpy sorts and uniques over int64
codes (the dedup backends).  Without the first part the small decisions'
times kept half of their run-to-run spread.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median time of one calibration on the reference machine (a shared
# x86_64 virtual machine with 2 cores, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.0155
CALIBRATE_EVERY_S = 0.25
NEAREST = 2

_CODES = np.random.default_rng(0).integers(0, 1 << 40, size=20000)
_ROWS = [np.arange(3 + i % 7) for i in range(50)]


def calibrate() -> float:
    """Seconds one run of the fixed calibration task takes now."""
    t0 = time.perf_counter()
    acc = 0
    # many numpy calls on short rows, as in the small pointwise closures
    for _ in range(18):
        for row in _ROWS:
            acc += int(np.unique(row * 3 % 5).sum())
            acc += len({tuple(row.tolist()): acc})
    # tuple keys into a dict, as in Sg and the per-query set-up
    seen: dict = {}
    for i in range(12000):
        seen[(i, i * 7 % 13, i & 255)] = acc
        acc += len(seen) & 3
    # sorts and uniques over int64 codes, as in the dedup backends
    np.unique(_CODES)
    np.sort(_CODES * 3 % 1000003)
    return time.perf_counter() - t0


class SpeedLog:
    """Calibration times taken between decisions, and the time of each."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        self.times.append(calibrate())
        self.stamps.append(time.perf_counter())

    def tick(self) -> None:
        """Calibrate if CALIBRATE_EVERY_S have passed since the last one."""
        if time.perf_counter() - self.stamps[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def factor_at(self, stamp: float) -> float:
        """Multiply a time measured at stamp by this to get its reference-speed time.

        Uses the median of the NEAREST calibrations on each side of stamp.
        """
        i = bisect.bisect_left(self.stamps, stamp)
        near = self.times[max(0, i - NEAREST):i + NEAREST]
        return REFERENCE_S / statistics.median(near)

    def factor(self) -> float:
        """The factor for the whole log (reported in the detail line)."""
        return REFERENCE_S / statistics.median(self.times)
