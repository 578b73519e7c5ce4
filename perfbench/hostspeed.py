"""Host speed: fixed reference work, timed all through a run.

On a shared host the same code can run 1.7 times slower through
stretches of 10-80 s, and a run of the benchmark sees only a few of
them. So the benchmark times its own fixed computation (``reference``,
written here and independent of ``carbonopt``) before each command and,
at most every ``MIN_GAP_S``, between fitness calls, and reports times at
a nominal host speed: measured seconds x ``NOMINAL_S`` / mean reference
time. A change to the program moves the measured times but not the
reference, so it shows in full; a change of host speed moves both and
cancels. The time spent in the reference is left out of every
measurement.

Set-up, importing the package in a fresh interpreter, follows the host's
speed at that kind of work more than its compute speed, so each set-up
sample is scaled by a fresh interpreter's import of numpy alone
(``numpy_import``), timed just before it.
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
import time

import numpy as np

# The reference's time on a fast stretch of a 2-vCPU Xeon host. It only
# sets the unit: the ratio of two commits' figures does not depend on it.
NOMINAL_S = 0.048
MIN_GAP_S = 0.5  # least time between samples taken inside a command
# numpy's import in a fresh interpreter on a fast stretch; a unit too.
NOMINAL_NUMPY_IMPORT_S = 0.06
NUMPY_IMPORT_CODE = """
import time
start = time.perf_counter()
import numpy
print(time.perf_counter() - start)
"""


def numpy_import() -> float:
    """Seconds a fresh interpreter takes to import numpy, timed inside it."""
    done = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_CODE], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def reference() -> float:
    """The fixed computation, in the mix of work the program does.

    A merit-order-like sort and walk with dict updates (the market
    model), pairwise dominance tests of 2-tuples (the GA), float
    formatting (the exports) and small numpy arrays, 25 times over.
    """
    rng = random.Random(12345)
    total = 0.0
    for _ in range(25):
        bids = [(rng.random() * 100.0, rng.random() * 500.0, f"p{k}") for k in range(300)]
        bids.sort()
        cleared = {}
        served = 0.0
        for price, quantity, name in bids:
            served += quantity
            cleared[name] = served * price
            if served > 40000.0:
                break
        total += math.fsum(cleared.values())
        points = [(price, quantity) for price, quantity, _ in bids[:40]]
        total += sum(
            all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))
            for a in points
            for b in points
        )
        total += len(",".join(repr(price) for price, _, _ in bids))
        total += float(np.sqrt(np.arange(200, dtype=float) * 0.5).sum())
    return total


class HostSpeed:
    """Reference samples of one run, and the seconds spent taking them."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        reference()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)
        self.spent += self.last - start

    def sample_due(self) -> None:
        if time.perf_counter() - self.last >= MIN_GAP_S:
            self.sample()

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the nominal host speed."""
        return NOMINAL_S / statistics.fmean(self.samples)


HOST = HostSpeed()
