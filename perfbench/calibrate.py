"""Machine speed, measured between the benchmark's own steps.

On a shared machine the same code runs at speeds up to about 1.5x
apart as other tenants come and go: on the 2-core box the benchmark was
defined on, the speed switches within seconds and the share of slow
time drifts over minutes, so a whole run can land in the slow state and
read as a regression.  So for workloads that ask for it a fixed
reference computation is timed before and after every set-up and every
pass, and each step's times are scaled by

    scale = REFERENCE_S / fastest reference unit around the step

which reports them as seconds at the speed where one reference unit
takes REFERENCE_S.  The unit calls nothing in patchloom, so no change
to the program moves it.  Unscaled wall times are kept in the run
record and printed next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# about the fast-state time of one unit on the box the benchmark was
# defined on, so scaled and wall seconds read alike there
REFERENCE_S = 0.0035
UNITS_PER_PROBE = 10

_A = np.linspace(-1.0, 1.0, 128 * 256).reshape(128, 256)
_X = np.linspace(0.0, 1.0, 256)


def _unit() -> float:
    # the mix patchloom runs: small matrix-vector products and
    # Python-level dict and loop work
    total = 0.0
    for i in range(400):
        y = np.tanh(_A @ _X)
        row = {j: j * 1.5 for j in range(20)}
        total += float(y[i % 128]) + row[i % 20]
    return total


def probe() -> list[float]:
    """Seconds of UNITS_PER_PROBE reference units, run back to back."""
    out = []
    for _ in range(UNITS_PER_PROBE):
        t0 = time.perf_counter()
        _unit()
        out.append(time.perf_counter() - t0)
    return out


class Speed:
    """Probes taken between consecutive steps of one run; disabled, it
    probes nothing and every factor is 1."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.probes = [probe()] if enabled else []

    def step(self) -> float:
        """Factor from wall seconds to reference seconds for the step that
        just ended, from the probes before and after it."""
        if not self.enabled:
            return 1.0
        self.probes.append(probe())
        return REFERENCE_S / min(self.probes[-2] + self.probes[-1])
