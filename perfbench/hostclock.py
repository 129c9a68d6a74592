"""Host-speed reference for calibrating timings.

On a shared host the speed of one core drifts by 15-25% over tens of
seconds: a fixed pure-Python loop timed in 10-second windows varies
that much, while its minimum stays within a few percent.  A run that
happens to fall in a slow stretch then reads slow whatever the program
does.  To keep that drift out of the comparison between runs, each
benchmark process times a fixed reference kernel between ops and
scales its timings to a nominal host on which the kernel takes
NOMINAL_S.  The kernel is half interpreter work (an integer loop) and
half numpy work (a gather-scatter like the series kernels'), because
powertail's time is split between the two.  It runs no powertail code,
so a change to the library cannot move it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

NOMINAL_S = 1e-3      # reference time on the nominal host
SAMPLE_EVERY_S = 0.25  # a reference sample at most this often during a run
MIN_SAMPLES = 25


class HostClock:
    def __init__(self):
        # numpy is imported here, not with the module, so that a worker's
        # timed `import powertail` includes numpy's import, as the CLI's does
        import numpy as np
        self._bincount = np.bincount
        rng = np.random.default_rng(0)
        self._values = rng.standard_normal(40_000) + 0j
        self._index = rng.integers(0, 4_000, 40_000)
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the reference, to leave out of run time
        self._last = -math.inf

    def sample(self) -> None:
        t0 = perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        t1 = perf_counter()
        for _ in range(4):
            self._bincount(self._index, weights=(self._values * self._values).real,
                           minlength=4_000)
        t2 = perf_counter()
        self.samples.append(math.sqrt((t1 - t0) * (t2 - t1)))
        self.spent += t2 - t0
        self._last = t2

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """How much slower than nominal the host ran (median over samples);
        calibrated time = measured time / factor."""
        while len(self.samples) < MIN_SAMPLES:
            self.sample()
        return statistics.median(self.samples) / NOMINAL_S
