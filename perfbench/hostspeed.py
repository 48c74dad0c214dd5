"""Host-speed normalization of the end-to-end times.

On a shared host the speed of the CPU a run gets drifts by tens of percent
within minutes: the same savings block took 8.2-10.7 s in one process, and
the same fixed-work set-up 0.87-1.28 s across runs.  No run length that
keeps a full set of runs within an hour averages that out.

So the launcher runs :func:`probe` — a fixed workload that shares no code
with ``repro`` — once before the timed loop and once after every job.  Each
job's latency is scaled by ``PROBE_REFERENCE_S / local probe time``, where
the local probe time is the median of the probes within a few jobs of it.
The end-to-end times are therefore seconds at the reference host's speed.
Interleaved probes cut the spread of identical 13-job savings blocks from
10.7% to 4.2% (coefficient of variation, 14 blocks, one process).  The run
prints the raw times beside the normalized ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: Median :func:`probe` time on the reference host (2-core Xeon VM), s.
PROBE_REFERENCE_S = 0.02
#: Probes on each side of a job that set its local host speed.
WINDOW = 2


def probe() -> float:
    """Wall time of a fixed interpreter-plus-numpy workload, s."""
    start = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(60_000):
        key = i % 997
        table[key] = table.get(key, 0.0) + i * 0.5
        total += (i % 7) * 1.0001
    values = np.arange(2000.0)
    for _ in range(120):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - start


def factors(probes: Sequence[float]) -> List[float]:
    """Per-job scale factors from ``probes``: one probe before the first
    job and one after each job, so job ``i`` sits between probes ``i`` and
    ``i + 1``."""
    scale = []
    for i in range(len(probes) - 1):
        local = probes[max(0, i - WINDOW + 1): i + WINDOW + 1]
        scale.append(PROBE_REFERENCE_S / statistics.median(local))
    return scale


def normalize(seconds: float, samples: int = 5) -> float:
    """``seconds`` just measured, at the reference host's speed."""
    local = statistics.median(probe() for _ in range(samples))
    return seconds * PROBE_REFERENCE_S / local
