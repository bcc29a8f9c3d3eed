"""A fixed reference computation interleaved with the workload, to factor
out how fast the host happens to be.

On a shared host the share of CPU a process gets drifts by tens of percent
over seconds and minutes, and every timing drifts with it. After each
operation the benchmark runs this reference -- 40 scalar multiplications in
the benchmark's own Jacobian arithmetic, no suppscan code -- for about a
tenth of the operation's time. Both sample the same interference, so the
ratio of their mean times is steady where each alone is not. Reported times
are host seconds scaled by REFERENCE_SECONDS / (mean reference time):
seconds on a host where the reference takes exactly REFERENCE_SECONDS,
about what it takes on an idle 2-core x86-64 host with Python 3.11.

What this cannot see: a change that slows the whole process (a busy
background thread, say) slows the reference too. Program code never runs
inside the reference, so any change to the program's own work shows fully.
"""

import time

from .arith_check import jacobian_mul

REFERENCE_SECONDS = 0.002
DUTY = 0.1  # reference time per second of measured operations

_MODULUS = 1_000_000_007
_POINT = (2, 3, 1)


def _reference_op() -> int:
    acc = 0
    for k in range(40):
        acc += jacobian_mul(_MODULUS, 5, 10**9 + k, _POINT)[2]
    return acc


class HostReference:
    """Accumulates timed runs of the reference computation."""

    def __init__(self):
        self.total_s = 0.0
        self.count = 0

    def follow(self, busy_s: float) -> None:
        """Run the reference for DUTY * busy_s seconds, at least once."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            _reference_op()
            took = time.perf_counter() - start
            spent += took
            self.total_s += took
            self.count += 1
            if spent >= DUTY * busy_s:
                return

    def mean_s(self) -> float:
        return self.total_s / self.count

    def scale(self) -> float:
        """Multiply a host time by this to get reference-host seconds."""
        return REFERENCE_SECONDS / self.mean_s()
