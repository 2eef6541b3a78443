"""Machine-speed probe that rescales wall times to reference-speed seconds.

The benchmark shares a small virtual machine with other tenants, whose
speed moves by up to 1.7x in phases that last from seconds to minutes.  A
fixed pure-Python loop, which shares no code with hrem, slows down with
it.  Just before and just after each timed step, outside the timed
region, the loop runs in a short burst, and the step's wall time is
rescaled by how fast the loop ran around it:

    reference seconds = wall seconds * REFERENCE_PROBE_S / median probe time

REFERENCE_PROBE_S is one probe on the development machine in a quiet
phase, so there reference seconds equal wall seconds.  It is a constant,
so a ratio between two commits measured with it does not depend on it.
"""

from __future__ import annotations

import statistics
import time

_clock = time.perf_counter

PROBE_ITERATIONS = 2500
BURST = 40
# Median probe on the development machine (2-vCPU VM) in a quiet phase:
# the loop ran at 64-66 ms per million iterations.
REFERENCE_PROBE_S = 162.5e-6


def probe_once() -> float:
    t0 = _clock()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    return _clock() - t0


def burst(n: int = BURST) -> list:
    return [probe_once() for _ in range(n)]


def reference_seconds(wall_s: float, probes) -> float:
    """Rescale `wall_s` seconds of work done between probes that took `probes` each."""
    return wall_s * REFERENCE_PROBE_S / statistics.median(probes)
