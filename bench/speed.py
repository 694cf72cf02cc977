"""Machine-speed reference, used to correct times for drift of the host.

On a shared VM the same pure-Python work runs up to 1.8 times slower in
some minutes than in others, and a 30-second run can fall wholly inside a
slow phase.  A run therefore interleaves a fixed reference unit with its
jobs (untimed, between jobs) and reports times scaled to the speed at which
one unit takes REFERENCE_S:

    corrected time = measured time * REFERENCE_S / mean unit time

The unit is bench-owned code that imports nothing from curveclass, so no
change to the program can move it.  It does what the program's inner loops
do: Fraction arithmetic on dict-based sparse polynomials with tuple
exponents.  On a machine that holds its speed the correction is a constant
factor.
"""

import gc
import time
from fractions import Fraction

# Seconds of measured work between two samples of the unit.
SAMPLE_EVERY_S = 0.25

# Typical mean time of one unit on the reference machine (2-core Intel Xeon
# VM, CPython 3.11), so corrected times read in that machine's seconds.
REFERENCE_S = 0.013

_A = {(i, j): Fraction(3 * i + 1, 2 * j + 3) for i in range(6) for j in range(6 - i)}


def reference_unit():
    """About 13 ms of polynomial products over Q on the reference machine."""
    out = None
    for _ in range(7):
        out = {}
        for (i1, j1), c1 in _A.items():
            for (i2, j2), c2 in _A.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
    return out


class SpeedProbe:
    """Samples the reference unit every SAMPLE_EVERY_S of measured work."""

    def __init__(self):
        self.samples = []
        self._since = SAMPLE_EVERY_S  # sample after the first piece of work

    def sample(self):
        # The unit makes no reference cycles; with the collector off, the
        # size of the program's heap cannot change what the unit costs.
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_unit()
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def after(self, seconds):
        """Account `seconds` of measured work; sample when due."""
        self._since += seconds
        if self._since >= SAMPLE_EVERY_S:
            self._since = 0.0
            self.sample()

    def slowdown(self):
        """Mean unit time over REFERENCE_S: above 1 on a slow machine."""
        if not self.samples:
            self.sample()
        return sum(self.samples) / len(self.samples) / REFERENCE_S
