"""Rescaling of measured times to the speed of the reference machine.

On a shared machine a core's speed changes for tens of seconds at a time
under other tenants' load. Every wall time moves by the same factor: one
`aggregation` repetition took 4.6 s in such a stretch and 2.6 s outside it.
The benchmark therefore times a fixed reference loop before and after each
repetition (and each set-up) and reports the repetition's time multiplied
by REF_S / (mean reference time). The loop does what a ksfv step does at
the cost level: small numpy arrays and many Python-level calls. It runs no
ksfv code, so a change to ksfv moves the rescaled time exactly as it moves
the raw one. The raw times are kept in the run's result file.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# seconds per burst on an idle core of the 2-vCPU Xeon (2.1 GHz) on which the
# benchmark's bounds were set; rescaled times are in that machine's seconds
REF_S = 1.1e-3
BURSTS = 48


def _burst() -> None:
    u = np.linspace(1.0, 2.0, 64)
    for _ in range(100):
        flux = np.log1p(0.5 * (u[1:] + u[:-1])) * np.diff(u)
        div = np.concatenate((flux, (0.0,))) - np.concatenate(((0.0,), flux))
        u = u + 1e-3 * (div + 1.0 - u * u)
        float(np.max(u))


def seconds_per_burst(workers: int = 1) -> float:
    """Mean time of one burst, the bursts shared by `workers` threads as sweep points are."""
    per_worker = BURSTS // workers

    def share():
        for _ in range(per_worker):
            _burst()

    t0 = time.perf_counter()
    if workers == 1:
        share()
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(share) for _ in range(workers)]:
                future.result()
    return (time.perf_counter() - t0) / (per_worker * workers)


def rescaled(raw_s: float, ref_before: float, ref_after: float) -> float:
    """`raw_s` in reference-machine seconds, given the reference times around it."""
    return raw_s * REF_S / (0.5 * (ref_before + ref_after))
