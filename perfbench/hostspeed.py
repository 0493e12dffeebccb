"""Host-speed correction of measured times.

On a shared virtual machine the host's speed drifts by up to half for tens of
seconds at a time, in every process alike; process CPU time drifts with it.
A fixed probe, timed close to each measurement, tracks that drift: a time
divided by the probe's time and multiplied by REFERENCE_S is the time the
work would take on a host where the probe takes REFERENCE_S. The probe does
the kind of arithmetic the reports do (stepping beta * t^k mod f with big
integers, Fraction coordinates, a big remainder and an int-to-str
conversion), with the benchmark's own code, so no change to normlds can
move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import algebra

# probe time on the host the reference figures in README.md were taken on
REFERENCE_S = 0.0028
# re-probe when the last probe is older than this
REFRESH_S = 0.1

_BIG = 7**1500
_FIELD = algebra.quartic(1050)
_WEIGHTS = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(1, 2))


def probe() -> float:
    """Seconds for one fixed batch of big-integer and Fraction arithmetic."""
    start = time.perf_counter()
    row = [_BIG, _BIG // 3, _BIG // 5, 7]
    for _ in range(40):
        row = algebra.times_t(row, _FIELD)
        sum((w * x for w, x in zip(_WEIGHTS, row)), Fraction(0))
        row[0] % (abs(row[1]) // 10**700 + 1)
    str(row[0])
    return time.perf_counter() - start


class HostClock:
    """Scales wall times to the reference host speed, from recent probes."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._last = float("-inf")
        self.factor = 1.0

    def refresh(self, force: bool = False) -> None:
        """Probe again if the last probe is stale. Call outside timed regions."""
        if force or time.perf_counter() - self._last >= REFRESH_S:
            seconds = min(probe(), probe())
            self.probes.append(seconds)
            self.factor = REFERENCE_S / seconds
            self._last = time.perf_counter()
