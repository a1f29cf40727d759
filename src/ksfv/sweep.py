"""Run classification and deterministic parameter sweeps.

run_sweep builds each point's configuration once, in the calling process
(one that raises one of the package's own errors is an Error row at once),
and groups the points by solver.initial_table_key. Each table group has one
private table cache, so each distinct initial table is built, and each
extension of it walked, once per sweep. Up to max_parallel workers (capped
at the usable CPUs and at the number of groups) run in forked processes
that end with their parent, or one in-process where fork is unavailable or
unsafe. A worker only marches (lockstep.run_lockstep): it claims the
largest unclaimed group to start with, and the next one whenever one of
its points ends, since step counts are not known in advance. Every point's
result is bitwise its solo run's, and the rows are merged by run id, so
the output is independent of the degree of parallelism and of which points
ran together. A run that raises one of the package's own errors becomes an
Error row while the other points go on; any other exception propagates.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import signal
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import AXIS_KEYS, DEFAULTS, number, numbers, run_config_from, with_defaults
from .errors import ConfigError, KsfvError
from .output import csv_text, fmt
from .solver import RunConfig, RunResult, TableCache, Termination, initial_table_key
# perfbench/tracing.py wraps sweep.run by name; the workers call run_lockstep
from .solver import run  # noqa: F401

GLOBAL = "Global"
BLOWUP = "BlowUp"
INCONCLUSIVE = "Inconclusive"
ERROR = "Error"


def classify_run(
    result: RunResult, global_factor: float = 10.0, blowup_factor: float = 1e3
) -> str:
    """Sort a finished run into Global / BlowUp / Inconclusive.

    Global: completed, max_u grew less than global_factor, and the max_u trend
    over the final quarter of the run is non-increasing. BlowUp: the cap was
    crossed, or dt underflowed while max_u had grown at least blowup_factor.
    Everything else is inconclusive, including a completed run whose final
    quarter holds fewer than two rows, or rows at one time only: those show
    no trend, and a verdict from them would depend on how often rows are
    written.
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
    """Whether max_u does not rise over the final quarter of the rows' times.

    False when fewer than two rows, or rows at one time only, lie there:
    then nothing was compared.
    """
    t_final = rows[-1].t
    tail = [r for r in rows if r.t >= 0.75 * t_final]
    if len(tail) < 2:
        return False
    ts = np.array([r.t for r in tail])
    ms = np.array([r.max_u for r in tail])
    span = ts[-1] - ts[0]
    if span <= 0.0:
        return False
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


def _share_claims(counter, parent: int) -> None:
    """Pool initializer: share the claim counter, and end when the parent does.

    A worker ignores SIGINT: Ctrl-C reaches the whole process group, and
    the parent, which gets it too, ends the workers (run_sweep).
    """
    global _claims
    _claims = counter
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG: Linux signals us when the parent dies
    if os.getppid() != parent:  # it died before the call
        os._exit(1)


def _claim_shared() -> int:
    with _claims.get_lock():
        i = _claims.value
        _claims.value = i + 1
    return i


def _run_worker(
    spec: SweepSpec,
    groups: List[List[Tuple[int, Dict[str, float], RunConfig]]],
    claim: Optional[Callable[[], int]] = None,
) -> List[SweepRow]:
    """Run table groups of (run_id, point, config) items in one lockstep march.

    claim() returns the index of the next unclaimed group; a worker claims
    one group to start with and the next whenever one of its points ends,
    until none is left. Each group has one private table cache. Module-level,
    so a worker process receives it by name; there, claim is the counter it
    shares with the other workers.
    """
    from .lockstep import run_lockstep

    claim = claim or _claim_shared

    def feed():
        i = claim()
        if i >= len(groups):
            return None
        tables = TableCache()
        return [((run_id, point), cfg, None, tables) for run_id, point, cfg in groups[i]]

    return [_sweep_row(spec, *tag, outcome) for tag, outcome in run_lockstep(feed)]


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
    """Execute every sweep point; results are ordered by run id regardless of parallelism.

    Each point's configuration is built here, once, and the points are grouped
    by its initial_table_key; a KsfvError makes the point's Error row at once.
    """
    names = [name for name, _ in spec.axes]
    errors: List[SweepRow] = []
    tasks: Dict[tuple, list] = {}
    for run_id, combo in enumerate(itertools.product(*(values for _, values in spec.axes))):
        point = dict(zip(names, combo))
        try:
            cfg = _point_config(spec, point)
        except KsfvError as exc:
            errors.append(_sweep_row(spec, run_id, point, exc))
            continue
        tasks.setdefault(initial_table_key(cfg), []).append((run_id, point, cfg))
    workers = min(spec.max_parallel, _usable_cpus(), len(tasks))
    fork = _fork_context() if workers > 1 else None
    groups = sorted(tasks.values(), key=len, reverse=True)  # the largest are claimed first
    if fork is None:
        done = [_run_worker(spec, groups, itertools.count().__next__)]
    else:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        # compiled here, once, rather than in each forked worker
        from . import lockstep  # noqa: F401

        before = set(multiprocessing.active_children())
        held = signal.pthread_sigmask(signal.SIG_BLOCK, ())  # the signal mask, unchanged
        pool = ProcessPoolExecutor(
            workers, fork, initializer=_share_claims, initargs=(fork.Value("q", 0), os.getpid())
        )
        try:
            # Ctrl-C is held while the first submit forks the workers and
            # starts the pool's manager thread: raised in a fork's at-fork
            # hooks it would be printed and dropped, and raised before the
            # thread has started, shutdown() could not join it
            try:
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                futures = [pool.submit(_run_worker, spec, groups) for _ in range(workers)]
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)  # a held Ctrl-C is raised here
            done = [future.result() for future in futures]
        except BaseException:
            # a worker's error or an interrupt: end the workers now, rather
            # than wait for their marches; the pool then reaps them
            for child in set(multiprocessing.active_children()) - before:
                child.terminate()
            pool.shutdown(cancel_futures=True)
            raise
        pool.shutdown()
    return sorted(itertools.chain(errors, *done), key=attrgetter("run_id"))


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
    # a run's cell is its position in the axis product (run_sweep's run ids),
    # not its values, which may repeat along an axis
    inner = math.prod(len(values) for _, values in spec.axes[2:])
    labels = {}
    for r in rows:
        i, j = divmod(r.run_id // inner, len(yvals))
        labels[(i, j)] = r.classification  # last write wins on collapsed axes
    return heatmap_svg(
        xvals, yvals, labels, "sweep classification", xname, yname
    )
