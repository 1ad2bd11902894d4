"""The host probe: a fixed pure-Python loop timed between jobs.

The probe touches no ``repro`` code.  Its median time over a run
measures how fast this host executes interpreter bytecode *during that
run*, so scaling a run's timings by it removes most of the drift a
shared machine adds between runs.  Timed metrics are reported as
``raw * (REFERENCE_PROBE_S / median_probe) ** ELASTICITY``: still
seconds, scaled to a host whose probe takes exactly
:data:`REFERENCE_PROBE_S`.
"""

from __future__ import annotations

import statistics
import time

#: Median probe time measured on the reference host (2 vCPUs,
#: CPython 3.11.7, Linux).  Fixed: changing it rescales every adjusted
#: figure, so it moves only together with the recorded reference
#: figures in the README.
REFERENCE_PROBE_S = 0.0160

#: How strongly the workloads follow the probe.  On the reference host
#: the probe's speed swings about twice as far as the workloads' do:
#: over 12 minutes of interleaved samples the log-log slope of kernel
#: chain and service-style job times against the probe was 0.3-0.6, and
#: a 1.64x probe shift came with a 1.30x ladder shift (slope 0.53).
#: Dividing by the full probe ratio over-corrected, so the adjustment
#: uses its square root.
ELASTICITY = 0.5

#: Loop length: one probe takes 11-20 ms on the reference host,
#: depending on the host's state at the moment.
_ITERATIONS = 40000


def _probe_body(iterations: int) -> int:
    # Integer bit arithmetic, dict and tuple traffic, and a sort: the
    # same mix of bytecodes the kernel's hot loops execute.
    table: dict[int, int] = {}
    acc = 0
    for index in range(iterations):
        acc = (acc * 1103515245 + index) & 0xFFFFFF
        key = acc & 255
        table[key] = table.get(key, 0) ^ (acc >> 3)
        if index & 63 == 0:
            acc ^= len(sorted((acc >> shift) & 7 for shift in range(8)))
    return acc + sum(table.values())


def probe_once() -> float:
    """Seconds one probe loop takes right now."""
    start = time.perf_counter()
    _probe_body(_ITERATIONS)
    return time.perf_counter() - start


def probe(samples: int) -> list[float]:
    """``samples`` consecutive probe timings."""
    return [probe_once() for _ in range(samples)]


def host_factor(probe_times: list[float]) -> float:
    """The multiplier turning raw times into host-adjusted ones."""
    return (REFERENCE_PROBE_S / statistics.median(probe_times)) ** ELASTICITY
