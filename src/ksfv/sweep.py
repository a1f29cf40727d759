"""Run classification and deterministic parameter sweeps.

Sweep points are expanded to full configurations and grouped into table
groups: the points that differ only on axes the G-table does not read form
one group, with one private table cache, so each distinct initial table is
built, and each extension of it walked, once per sweep. Up to max_parallel
workers (capped at the usable CPUs and at the number of groups) run in
forked processes, or one in-process where fork is unavailable or unsafe.
Each worker advances its points in one lockstep march (lockstep.run_lockstep):
it claims the largest unclaimed group to start with, and the next one
whenever one of its points ends, since step counts are not known in
advance. Every point's result is bitwise its solo run's, and the rows are
merged by run id, so the output is independent of the degree of
parallelism and of which points ran together. A point that raises one of
the package's own errors becomes an Error row while the other points go
on; any other exception propagates.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import AXIS_KEYS, DEFAULTS, number, numbers, run_config_from, with_defaults
from .errors import ConfigError, KsfvError
from .output import csv_text, fmt
# perfbench/tracing.py wraps sweep.run by name; the workers call run_lockstep
from .solver import RunResult, TableCache, Termination, run  # noqa: F401

GLOBAL = "Global"
BLOWUP = "BlowUp"
INCONCLUSIVE = "Inconclusive"
ERROR = "Error"

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


# the largest rise of max_u over the final quarter, relative to its last value,
# that still counts as non-increasing
_REL_DRIFT = 1e-6


def _trend_nonincreasing(rows) -> bool:
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
    return drift <= _REL_DRIFT * max(abs(ms[-1]), 1e-300)


@dataclass
class SweepSpec:
    """Axes over {alpha, beta, kappa, eps, mass} applied to a base configuration."""

    axes: List[Tuple[str, List[float]]]
    base: Dict[str, str]
    max_parallel: int = int(DEFAULTS["sweep.max_parallel"])
    global_factor: float = float(DEFAULTS["classify.global_factor"])
    blowup_factor: float = float(DEFAULTS["classify.blowup_factor"])

    def __post_init__(self):
        if not self.axes:
            raise ConfigError("a sweep needs at least one axis")
        for name, values in self.axes:
            if name not in AXIS_KEYS:
                raise ConfigError(
                    f"axis {name!r} not supported (use {sorted(AXIS_KEYS)})"
                )
            if not values:
                raise ConfigError(f"axis {name!r} has no values")
            if not all(math.isfinite(x) for x in values):
                raise ConfigError(f"axis {name!r} values must be finite")
        # chained comparisons, so that NaN and inf fail every check
        if not (1 <= self.max_parallel < math.inf):
            raise ConfigError("max_parallel must be >= 1")
        for name in ("global_factor", "blowup_factor"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be finite and positive")

    @classmethod
    def from_mapping(cls, mapping: Dict[str, str]) -> "SweepSpec":
        """The sweep of a parsed sweep file: its axis.* keys in file order,
        sweep.max_parallel and classify.* with their defaults, and every key but
        axis.* and sweep.max_parallel as the base configuration.

        Malformed axis, max_parallel or classify values raise ConfigError; the
        base is parsed per point, where a malformed value makes an Error row.
        """
        merged = with_defaults(mapping)
        axes = [(k[len("axis."):], numbers(mapping, k)) for k in mapping if k.startswith("axis.")]
        return cls(
            axes=axes,
            base={
                k: v
                for k, v in mapping.items()
                if not k.startswith("axis.") and k != "sweep.max_parallel"
            },
            max_parallel=number(merged, "sweep.max_parallel", int),
            global_factor=number(merged, "classify.global_factor"),
            blowup_factor=number(merged, "classify.blowup_factor"),
        )

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


def _point_config(spec: SweepSpec, point: Dict[str, float]):
    """The RunConfig of a sweep point: the base with the point's axis values."""
    mapping = dict(spec.base)
    for name, value in point.items():
        mapping[AXIS_KEYS[name]] = fmt(value)
    cfg, _, _ = run_config_from(mapping)
    return cfg


def _sweep_row(spec: SweepSpec, run_id: int, point: Dict[str, float], outcome) -> SweepRow:
    """The row of a point's RunResult, or an Error row named after its KsfvError's type."""
    if isinstance(outcome, KsfvError):
        nan = float("nan")
        return SweepRow(
            run_id, point, ERROR, type(outcome).__name__, nan, nan, nan, nan, error=str(outcome)
        )
    rows = outcome.rows
    return SweepRow(
        run_id,
        point,
        classify_run(outcome, spec.global_factor, spec.blowup_factor),
        outcome.termination.tag.value,
        outcome.termination.t_final,
        rows[0].max_u,
        rows[-1].max_u,
        rows[-1].F,
        outcome,
    )


# the claim counter a forked worker shares with the others (_share_claims)
_claims = None


def _share_claims(counter) -> None:
    global _claims
    _claims = counter


def _claim_shared() -> int:
    with _claims.get_lock():
        i = _claims.value
        _claims.value = i + 1
    return i


def _run_worker(
    spec: SweepSpec,
    groups: List[List[Tuple[int, Dict[str, float]]]],
    claim: Optional[Callable[[], int]] = None,
) -> List[SweepRow]:
    """Run table groups of (run_id, point) items in one lockstep march.

    claim() returns the index of the next unclaimed group; a worker claims
    one group to start with and the next whenever one of its points ends,
    until none is left. Each group has one private table cache. Module-level,
    so a worker process receives it by name; there, claim is the counter it
    shares with the other workers.
    """
    from .lockstep import run_lockstep

    claim = claim or _claim_shared
    rows: List[SweepRow] = []

    def feed():
        i = claim()
        if i >= len(groups):
            return None
        tables = TableCache()
        entries = []
        for run_id, point in groups[i]:
            try:
                entries.append(((run_id, point), _point_config(spec, point), None, tables))
            except KsfvError as exc:
                rows.append(_sweep_row(spec, run_id, point, exc))
        return entries

    for (run_id, point), outcome in run_lockstep(feed):
        rows.append(_sweep_row(spec, run_id, point, outcome))
    return rows


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
    groups = sorted(tasks, key=len, reverse=True)  # the largest are claimed first
    if fork is None:
        done = [_run_worker(spec, groups, itertools.count().__next__)]
    else:
        from concurrent.futures.process import ProcessPoolExecutor

        claims = fork.Value("q", 0)
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=fork, initializer=_share_claims, initargs=(claims,)
        ) as pool:
            futures = [pool.submit(_run_worker, spec, groups) for _ in range(workers)]
            try:
                done = [future.result() for future in futures]
            except BaseException:
                claims.value = len(groups)  # the other workers claim no more groups
                raise
    return sorted((row for rows in done for row in rows), key=lambda r: r.run_id)


# the SweepRow fields that the sweep CSV writes after run_id and the axes
_RESULT_COLUMNS = (
    "classification", "termination", "t_final", "max_u_initial", "max_u_final", "F_final",
)
_results = attrgetter(*_RESULT_COLUMNS)


def sweep_csv(spec: SweepSpec, rows: Sequence[SweepRow]) -> str:
    names = [name for name, _ in spec.axes]
    return csv_text(
        ["run_id", *names, *_RESULT_COLUMNS],
        ([str(r.run_id), *(r.point[name] for name in names), *_results(r)] for r in rows),
    )


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
