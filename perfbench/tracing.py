"""In-memory span tracing of ksfv, installed from outside the package.

`Tracer.installed()` replaces module-level names of ksfv (and
`FunctionalTable.covering`) with wrappers that record one span per call:
id, parent id, site, start and end in nanoseconds. The original names are
restored on exit. Spans are kept in one flat integer array, appended with a
single call so that rows stay whole when sweep points run in threads; each
thread keeps its own parent stack. Per-layer metrics are computed from the
spans after the run, and `write_csv_gz` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import statistics
import threading
import time
from array import array
from collections import Counter, defaultdict
from typing import Dict, List

# (owner, attribute) pairs to wrap; a span's site is "owner.attribute"
SITES = [
    ("ksfv.solver", "run"),
    ("ksfv.sweep", "run"),  # the name sweep points call
    ("ksfv.sweep", "run_sweep"),
    ("ksfv.solver", "lyapunov"),
    ("ksfv.solver", "dissipation"),
    ("ksfv.solver", "build_table"),
    ("ksfv.nonlin", "build_table"),  # reached from FunctionalTable.covering
    ("ksfv.nonlin", "adaptive_simpson"),
    ("ksfv.families", "adaptive_simpson"),
    ("ksfv.nonlin", "growth_reg"),
    ("ksfv.nonlin.FunctionalTable", "covering"),
    ("ksfv.families", "concentrated_u"),
    ("ksfv.config", "concentrated_u"),  # the name init.u0 = family_u: calls
    ("ksfv.config", "run_config_from"),
    ("ksfv.sweep", "run_config_from"),
    ("ksfv.output", "rows_to_csv"),
    ("ksfv.output", "final_state_csv"),
    ("ksfv.output", "line_chart_svg"),
    ("ksfv.output", "heatmap_svg"),
    ("ksfv.output", "manifest_text"),
    ("ksfv.output", "write_text"),
    ("ksfv.sweep", "sweep_csv"),
    ("ksfv.sweep", "sweep_heatmap"),
]

RUN_SITES = {"ksfv.solver.run", "ksfv.sweep.run"}
BUILD_SITES = {"ksfv.solver.build_table", "ksfv.nonlin.build_table"}
QUAD_SITES = {"ksfv.nonlin.adaptive_simpson", "ksfv.families.adaptive_simpson"}
FAMILY_SITES = {"ksfv.families.concentrated_u", "ksfv.config.concentrated_u"}
CONFIG_SITES = {"ksfv.config.run_config_from", "ksfv.sweep.run_config_from"}
COVERING = "ksfv.nonlin.FunctionalTable.covering"
OUTPUT_SITES = {
    "ksfv.output." + a
    for a in ("rows_to_csv", "final_state_csv", "line_chart_svg", "heatmap_svg",
              "manifest_text", "write_text")
} | {"ksfv.sweep.sweep_csv", "ksfv.sweep.sweep_heatmap"}


def _owner(path: str):
    """The module, or the FunctionalTable class, that holds a site's attribute."""
    if path.endswith(".FunctionalTable"):
        return importlib.import_module(path.rsplit(".", 1)[0]).FunctionalTable
    return importlib.import_module(path)


class Tracer:
    def __init__(self):
        self.sites: List[str] = []
        self.rows = array("q")  # id, parent, site index, start ns, end ns
        self.thread_cpu_ns: Dict[int, int] = {}  # span id -> thread CPU time (run spans)
        self._ids = itertools.count(1)
        self._stacks: Dict[int, List[int]] = {}

    def _wrap(self, site: str, fn):
        index = len(self.sites)
        self.sites.append(site)
        rows, stacks, ids = self.rows, self._stacks, self._ids
        clock, get_ident = time.perf_counter_ns, threading.get_ident
        cpu_clock = time.thread_time_ns if site in RUN_SITES else None
        cpu = self.thread_cpu_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stacks.get(get_ident())
            if stack is None:
                stack = stacks.setdefault(get_ident(), [0])
            span = next(ids)
            parent = stack[-1]
            stack.append(span)
            c0 = cpu_clock() if cpu_clock else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if cpu_clock:
                    cpu[span] = cpu_clock() - c0
                stack.pop()
                rows.extend((span, parent, index, t0, t1))

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every site for the duration of the block."""
        saved = []
        try:
            for path, attr in SITES:
                owner = _owner(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(f"{path}.{attr}", original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self):
        """(id, parent, site, start_ns, end_ns) tuples in completion order."""
        r = self.rows
        return [
            (r[i], r[i + 1], self.sites[r[i + 2]], r[i + 3], r[i + 4])
            for i in range(0, len(r), 5)
        ]

    def write_csv_gz(self, path) -> int:
        spans = self.spans()
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,site,start_ns,end_ns\n")
            fh.writelines(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]}\n" for s in spans)
        return len(spans)


def layer_metrics(tracer: Tracer, steps: int, points: int, wall_s: float, workers: int) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced execution.

    `steps` is the solver's step count summed over runs, `points` the number
    of runs (sweep points), `wall_s` the traced execution's wall time and
    `workers` the number of runs allowed to execute at once.
    """
    spans = tracer.spans()
    site_of = {s[0]: s[2] for s in spans}
    dur = {s[0]: (s[4] - s[3]) * 1e-9 for s in spans}
    child_s: Dict[int, float] = defaultdict(float)
    for sid, parent, _, _, _ in spans:
        if parent:
            child_s[parent] += dur[sid]
    count: Counter = Counter()
    total: Dict[str, float] = defaultdict(float)
    for sid, _, site, _, _ in spans:
        count[site] += 1
        total[site] += dur[sid]

    def n(sites):
        return sum(count[s] for s in sites)

    def t(sites):
        return sum(total[s] for s in sites)

    run_ids = [sid for sid, _, site, _, _ in spans if site in RUN_SITES]
    run_self = sum(dur[sid] - child_s[sid] for sid in run_ids)
    point_s = sorted(dur[sid] for sid in run_ids)
    rebuilds = sum(
        1 for sid, parent, site, _, _ in spans
        if site == "ksfv.nonlin.build_table" and site_of.get(parent) == COVERING
    )
    covering = count[COVERING]
    write_s = sum(
        dur[sid] for sid, parent, site, _, _ in spans
        if site in OUTPUT_SITES and site_of.get(parent) not in OUTPUT_SITES
    )
    point_cpu_s = sum(tracer.thread_cpu_ns[sid] for sid in run_ids) * 1e-9
    return {
        "solver.steps": steps,
        "solver.run_calls": len(run_ids),
        "solver.self_s": run_self,
        "solver.us_per_step": run_self / steps * 1e6 if steps else 0.0,
        "nonlin.build_table_calls": n(BUILD_SITES),
        "nonlin.build_table_s": t(BUILD_SITES),
        "nonlin.covering_calls": covering,
        "nonlin.covering_rebuild_ratio": rebuilds / covering if covering else 0.0,
        "nonlin.growth_reg_calls": count["ksfv.nonlin.growth_reg"],
        "nonlin.growth_reg_s": total["ksfv.nonlin.growth_reg"],
        "quadrature.adaptive_simpson_calls": n(QUAD_SITES),
        "quadrature.adaptive_simpson_s": t(QUAD_SITES),
        "energy.lyapunov_calls": count["ksfv.solver.lyapunov"],
        "energy.lyapunov_s": total["ksfv.solver.lyapunov"],
        "energy.dissipation_calls": count["ksfv.solver.dissipation"],
        "energy.dissipation_s": total["ksfv.solver.dissipation"],
        "families.concentrated_u_s": t(FAMILY_SITES),
        "config.run_config_from_s": t(CONFIG_SITES),
        "output.write_s": write_s,
        "sweep.points": points,
        "sweep.point_s_p50": statistics.median(point_s) if point_s else 0.0,
        "sweep.point_s_max": point_s[-1] if point_s else 0.0,
        "sweep.parallel_efficiency": point_cpu_s / (wall_s * workers),
    }
