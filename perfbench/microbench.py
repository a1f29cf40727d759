"""Per-layer microbenchmarks on a workload's initial state.

Each figure is the median over batches of repeated calls of a public ksfv
function, with tracing off. `step` and `cfl_dt` include the per-call kernel
construction they perform; the table benchmarks rebuild from scratch on every
call because tables are immutable.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np


def _median_s(fn: Callable[[], object], batches: int, min_batch_s: float) -> float:
    """Median seconds per call over `batches` batches of at least `min_batch_s` each."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        reps *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def microbench(cfg, grid) -> Dict[str, float]:
    """Microbench figures for the RunConfig `cfg` on `grid` (its initial state)."""
    from ksfv import core, energy, nonlin, solver

    p = cfg.params
    state = core.State(cfg.u0, cfg.v0, 0.0)
    # the table the solver starts from, and the step it would take first
    s_hi = 10.0 * max(1.0, 2.0 * p.s0, float(np.max(cfg.u0)))
    table = nonlin.build_table(p, s_max=s_hi, tol=cfg.table_tol)
    dt = min(solver.cfl_dt(state, grid, p, cfg.cfl), cfg.resolved_dt_max())
    v_t = (solver.step(state, dt, grid, p).v - state.v) / dt

    def us(fn):
        return _median_s(fn, batches=15, min_batch_s=0.01) * 1e6

    def ms(fn):
        return _median_s(fn, batches=5, min_batch_s=0.0) * 1e3

    return {
        "solver.step_us": us(lambda: solver.step(state, dt, grid, p)),
        "solver.cfl_dt_us": us(lambda: solver.cfl_dt(state, grid, p, cfg.cfl)),
        "energy.lyapunov_us": us(lambda: energy.lyapunov(state, grid, table)),
        "energy.dissipation_us": us(lambda: energy.dissipation(state, v_t, grid, p, table)),
        "nonlin.build_table_1e3_ms": ms(lambda: nonlin.build_table(p, s_max=1e3)),
        "nonlin.covering_1e8_ms": ms(lambda: table.covering(1e8)),
    }
