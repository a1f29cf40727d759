"""Run classification and deterministic parameter sweeps.

Sweep points are expanded to full configurations and grouped into tasks: the
points that differ only on axes the G-table does not read form one task,
which runs its points in run-id order with one private table cache, so each
distinct initial table is built once per sweep. The tasks run in up to
max_parallel forked worker processes (capped at the usable CPUs and at the
number of tasks; in-process where fork is unavailable or unsafe), and the
rows are merged by run id, so the output is independent of the degree of
parallelism. A point that raises one of the package's own errors becomes an
Error row instead of aborting the sweep; any other exception propagates.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import run_config_from
from .errors import ConfigError, KsfvError
from .output import fmt
from .solver import RunResult, TableCache, Termination, run

GLOBAL = "Global"
BLOWUP = "BlowUp"
INCONCLUSIVE = "Inconclusive"
ERROR = "Error"

_AXIS_KEY = {
    "alpha": "params.alpha",
    "beta": "params.beta",
    "kappa": "params.kappa",
    "eps": "params.eps",
    "mass": "init.mass",
}

# Axes the initial G-table does not read (see solver.initial_table_key; a
# test checks the two agree): points that differ only on these share one table.
_NON_TABLE_AXES = {"kappa"}


def classify_run(
    result: RunResult, global_factor: float = 10.0, blowup_factor: float = 1e3
) -> str:
    """Sort a finished run into Global / BlowUp / Inconclusive.

    Global: completed, max_u grew less than global_factor, and the max_u trend
    over the final quarter of the run is non-increasing. BlowUp: the cap was
    crossed, or dt underflowed while max_u had grown at least blowup_factor.
    Everything else is inconclusive.
    """
    rows = result.rows
    m0 = max(rows[0].max_u, 1e-300)
    m_end = rows[-1].max_u
    tag = result.termination.tag
    if tag == Termination.BLOWUP:
        return BLOWUP
    if tag == Termination.DT_UNDERFLOW and m_end >= blowup_factor * m0:
        return BLOWUP
    if tag == Termination.COMPLETED and m_end <= global_factor * m0:
        if _trend_nonincreasing(rows):
            return GLOBAL
    return INCONCLUSIVE


def _trend_nonincreasing(rows, rel_drift: float = 1e-6) -> bool:
    t_final = rows[-1].t
    tail = [r for r in rows if r.t >= 0.75 * t_final]
    if len(tail) < 2:
        return True
    ts = np.array([r.t for r in tail])
    ms = np.array([r.max_u for r in tail])
    span = ts[-1] - ts[0]
    if span <= 0.0:
        return True
    A = np.vstack([np.ones(len(ts)), ts]).T
    coef, *_ = np.linalg.lstsq(A, ms, rcond=None)
    drift = coef[1] * span
    return drift <= rel_drift * max(abs(ms[-1]), 1e-300)


@dataclass
class SweepSpec:
    """Axes over {alpha, beta, kappa, eps, mass} applied to a base configuration."""

    axes: List[Tuple[str, List[float]]]
    base: Dict[str, str]
    max_parallel: int = 1
    global_factor: float = 10.0
    blowup_factor: float = 1e3

    def __post_init__(self):
        if not self.axes:
            raise ConfigError("a sweep needs at least one axis")
        for name, values in self.axes:
            if name not in _AXIS_KEY:
                raise ConfigError(
                    f"axis {name!r} not supported (use {sorted(_AXIS_KEY)})"
                )
            if not values:
                raise ConfigError(f"axis {name!r} has no values")
        if self.max_parallel < 1:
            raise ConfigError("max_parallel must be >= 1")

    @property
    def total_runs(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n


@dataclass
class SweepRow:
    run_id: int
    point: Dict[str, float]
    classification: str
    termination: str
    t_final: float
    max_u_initial: float
    max_u_final: float
    F_final: float
    result: RunResult = field(repr=False, default=None)
    error: Optional[str] = None  # the message of an Error row


def _run_point(
    spec: SweepSpec, run_id: int, point: Dict[str, float], tables: TableCache
) -> SweepRow:
    """One sweep point; a package error becomes an Error row named after its type."""
    mapping = dict(spec.base)
    for name, value in point.items():
        mapping[_AXIS_KEY[name]] = fmt(value)
    try:
        cfg, _, _ = run_config_from(mapping)
        result = run(cfg, tables=tables)
    except KsfvError as exc:
        nan = float("nan")
        return SweepRow(
            run_id, point, ERROR, type(exc).__name__, nan, nan, nan, nan, error=str(exc)
        )
    rows = result.rows
    return SweepRow(
        run_id,
        point,
        classify_run(result, spec.global_factor, spec.blowup_factor),
        result.termination.tag.value,
        result.termination.t_final,
        rows[0].max_u,
        rows[-1].max_u,
        rows[-1].F,
        result,
    )


def _run_task(spec: SweepSpec, items: List[Tuple[int, Dict[str, float]]]) -> List[SweepRow]:
    """Run (run_id, point) items in order with one private table cache.

    Module-level, so a worker process receives it by name.
    """
    tables = TableCache()
    return [_run_point(spec, run_id, point, tables) for run_id, point in items]


def _tasks(points: List[Dict[str, float]]) -> List[List[Tuple[int, Dict[str, float]]]]:
    """Group the points by their table axes, in run-id order."""
    groups: Dict[tuple, list] = {}
    for run_id, point in enumerate(points):
        key = tuple(v for name, v in point.items() if name not in _NON_TABLE_AXES)
        groups.setdefault(key, []).append((run_id, point))
    return list(groups.values())


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_context():
    """The fork start method, or None where the pool should not fork.

    Fork is missing on Windows and unsafe with macOS system frameworks.
    Before Python 3.11 the process pool forks workers on demand, after its
    manager thread has started, which can deadlock a child (CPython issue
    90622); from 3.11 it forks them all first.
    """
    import multiprocessing

    if sys.platform == "darwin" or sys.version_info < (3, 11):
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """Execute every sweep point; results are ordered by run id regardless of parallelism."""
    names = [name for name, _ in spec.axes]
    points = [
        dict(zip(names, combo))
        for combo in itertools.product(*(values for _, values in spec.axes))
    ]
    tasks = _tasks(points)
    workers = min(spec.max_parallel, _usable_cpus(), len(tasks))
    fork = _fork_context() if workers > 1 else None
    if fork is None:
        done = list(map(_run_task, itertools.repeat(spec), tasks))
    else:
        from concurrent.futures.process import ProcessPoolExecutor

        largest_first = sorted(tasks, key=len, reverse=True)
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            # if a task raises, map cancels the tasks still waiting in the queue
            done = list(pool.map(_run_task, itertools.repeat(spec), largest_first))
    return sorted((row for rows in done for row in rows), key=lambda r: r.run_id)


def sweep_csv(spec: SweepSpec, rows: Sequence[SweepRow]) -> str:
    names = [name for name, _ in spec.axes]
    header = ",".join(
        ["run_id"]
        + names
        + [
            "classification",
            "termination",
            "t_final",
            "max_u_initial",
            "max_u_final",
            "F_final",
        ]
    )
    lines = [header]
    for r in rows:
        lines.append(
            ",".join(
                [str(r.run_id)]
                + [fmt(r.point[name]) for name in names]
                + [
                    r.classification,
                    r.termination,
                    fmt(r.t_final),
                    fmt(r.max_u_initial),
                    fmt(r.max_u_final),
                    fmt(r.F_final),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def sweep_heatmap(spec: SweepSpec, rows: Sequence[SweepRow]):
    """Classification heat map over the first two axes (None if only one axis)."""
    from .output import heatmap_svg

    if len(spec.axes) < 2:
        return None
    (xname, xvals), (yname, yvals) = spec.axes[0], spec.axes[1]
    labels = {}
    for r in rows:
        i = xvals.index(r.point[xname])
        j = yvals.index(r.point[yname])
        labels[(i, j)] = r.classification  # last write wins on collapsed axes
    return heatmap_svg(
        xvals, yvals, labels, "sweep classification", xname, yname
    )
