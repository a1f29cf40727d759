"""The lockstep march: runs that share a grid advanced together, each bitwise its solo run.

run_lockstep holds one _Point per run: its settings, its state between
steps and its record, diagnostics rows included. The batched work of a
step is one solver._Kernel call for all the runs; the rest is each run's
own (see "Lockstep" in the solver module docstring). solver.run and the
sweep workers import this module when they first march, so that importing
ksfv does not compile it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .core import Grid, State, linf, make_grid
from .discrete import grad_faces
from .energy import dissipation_terms, lyapunov_terms
from .errors import KsfvError
from .solver import (
    DiagnosticsRow,
    RunConfig,
    RunResult,
    TableCache,
    Termination,
    TerminationInfo,
    _Kernel,
    _Model,
    initial_table_key,
)

_dot = np.dot  # looked up once: each step of each run takes three


class _Point(_Model):
    """One run of a lockstep march: its model, settings, state between steps and record.

    Built when the run joins the march, after the API-boundary checks, with
    the row of its initial state. Between steps its state lives in the
    march's buffers at its kernel index k (None until the march first tiles
    it): uv and ss hold its (u, v), as two rows and as one array, in buffer
    0 and buffer 1. It keeps the max u, min u and range of v the last
    step's checks measured, its masses and, until it steps again, that
    step's dt, f(u) and F of the state before it. Its rows run under the
    float settings it joined under (caller_err). outcome is None while it
    runs, then its RunResult or the KsfvError that ended it.
    """

    __slots__ = (
        "tag", "grid", "n", "dt_min", "dt_max", "cap", "t_end", "t_goal", "diag_every",
        "start", "grow_floor", "tables", "key", "probes", "probe_states", "pi", "rows", "w12",
        "t", "steps", "mass_u", "mass_v", "umin", "mass_res_u", "mass_res_v", "min_u_seen",
        "min_v_seen", "F_cur", "F_prev", "dt", "f_u", "f_mass", "k", "uv", "ss", "faces",
        "fview", "outcome", "caller_err",
    )

    def __init__(self, tag, cfg: RunConfig, probe_times, tables: TableCache, grid: Grid):
        cfg.validate(grid)
        super().__init__(cfg.params, cfg.overrides)
        self.tag, self.grid, self.n = tag, grid, grid.cells
        self.caller_err = np.geterr()  # for the rows
        self.cfl, self.dt_min, self.t_end = cfg.cfl, cfg.dt_min, cfg.t_end
        self.cap = cfg.blowup_cap
        self.dt_max = cfg.resolved_dt_max()
        self.t_goal = cfg.t_end * (1.0 - 1e-15)
        self.diag_every = cfg.diag_every
        u = np.asarray(cfg.u0, dtype=float)
        v = np.asarray(cfg.v0, dtype=float)
        self.start = (u, v)
        self.grow_floor = 10.0 * linf(u)
        self.tables, self.key = tables, initial_table_key(cfg)
        tables.get(cfg)
        self.probes: List[float] = (
            sorted(float(x) for x in probe_times) if probe_times is not None else []
        )
        self.probe_states: List[State] = []
        self.pi = 0
        while self.pi < len(self.probes) and self.probes[self.pi] <= 0.0:
            self.probe_states.append(State(u.copy(), v.copy(), 0.0))
            self.pi += 1
        self.rows: List[DiagnosticsRow] = []
        self.w12: List[float] = []  # the W^{1,2} norm of v at each row
        self.t = 0.0
        self.steps = 0
        V = grid.cell_volume
        self.mass_u = float(np.dot(u, V))
        self.mass_v = float(np.dot(v, V))
        self.umax = float(np.maximum.reduce(u))
        self.umin = float(np.minimum.reduce(u))
        self.v_range = float(np.maximum.reduce(v)) - float(np.minimum.reduce(v))
        self.mass_res_u = 0.0
        self.mass_res_v = 0.0
        self.min_u_seen = self.umin
        self.min_v_seen = float(np.minimum.reduce(v))
        # F of the current state when its row recorded it, else None. A
        # table only ever walks further out from s0 and keeps the values it
        # has walked, so F of a state does not depend on when it is
        # evaluated: reusing the row's F, or computing F_prev after F_cur,
        # gives the same value bitwise.
        self.F_cur: Optional[float] = self.state_row(
            0.0, u, v, self.mass_u, self.mass_v, self.umax, grad_faces(v, grid), 0.0
        )
        self.F_prev: Optional[float] = None
        self.dt = math.nan
        self.f_u: Optional[np.ndarray] = None
        self.f_mass = 0.0
        self.k: Optional[int] = None
        self.outcome = None

    def state_row(self, t, u, v, mass_u, mass_v, umax, dv, fill) -> float:
        """Append a row of the state (u, v) at t, with fill in its step columns; return F.

        umax = max(u) and dv is the face gradient of v.
        """
        umin = float(np.minimum.reduce(u))
        with np.errstate(**self.caller_err):
            table = self.tables.covering(self.key, umax, umin)
            terms = lyapunov_terms(table.g(np.maximum(u, table.s_min)), u, v, dv, self.grid)
        F = terms.F_total
        self.rows.append(DiagnosticsRow(t, fill, mass_u, mass_v, umax, umin, F, fill, fill))
        self.w12.append(terms.v_w12)
        return F

    def step_row(
        self, t_new, dt, mass_u_new, mass_v_new, new, old, umax_new, umin_new, umax_old,
        umin_old, F_old, f_u, dvf, du_in, dv_in, mob,
    ) -> float:
        """Append the row of the step from old = (u, v) to new and return F(new).

        dvf, du_in and dv_in are old's face gradients, mob and f_u the step's
        face mobility and f(u). G at both states and G' at old come from one
        Hermite basis, on a table covering both states' min and max. F_old,
        when known, is F(old). Runs under the float settings the run joined
        under, as state_row does.
        """
        (u_new, v_new), (u_old, v_old) = new, old
        n, grid = self.n, self.grid
        with np.errstate(**self.caller_err):
            table = self.tables.covering(
                self.key, max(umax_new, umax_old), min(umin_new, umin_old)
            )
            s_min = table.s_min
            basis = table.basis(np.maximum(np.concatenate((u_new, u_old)), s_min))
            G = table.g_on(basis)
            terms = lyapunov_terms(G[:n], u_new, v_new, grad_faces(v_new, grid), grid)
            if F_old is None:
                F_old = lyapunov_terms(G[n:], u_old, v_old, dvf, grid).F_total
            gp = table.gp_on(tuple(b[n:] for b in basis))
            v_t = (v_new - v_old) / dt
            rhs = dissipation_terms(
                u_old, v_old, v_t, du_in, dv_in, mob, self.psi, f_u, gp, s_min, grid
            )
        F_new = terms.F_total
        self.rows.append(
            DiagnosticsRow(
                t_new, dt, mass_u_new, mass_v_new, umax_new, umin_new,
                F_new, rhs, abs((F_new - F_old) / dt - rhs),
            )
        )
        self.w12.append(terms.v_w12)
        return F_new

    def start_step(self, bound: float, par: int, V: np.ndarray, kern: _Kernel) -> float:
        """This step's dt, from the kernel's CFL bound, with f(u) and its mass.

        The current state is in buffer par. A dt that underflows ends the run
        instead; then the run's cells take a null step, 0.0, that nothing reads.
        """
        dt_c = min(bound, self.dt_max)
        if dt_c < self.dt_min:
            self.underflow(par, kern.mob[kern.inner(self.k)])
            return 0.0
        t = self.t
        dt = min(dt_c, self.t_end - t)
        if self.pi < len(self.probes):
            dt = min(dt, self.probes[self.pi] - t)
        self.dt = dt
        self.f_u = f_u = self.f(self.uv[par][0], self.umax, self.fview)
        self.f_mass = float(_dot(f_u, V))
        return dt

    def end_step(
        self, par: int, min_u_new, min_v_new, max_u, max_v_new, V: np.ndarray, kern: _Kernel
    ) -> None:
        """Take the step from buffer par to the other, or end the run.

        The min and max of the new u and v are the step's checks. Records the
        mass laws, probes and the step's row when one is due, and ends the run
        on a non-finite or negative state, on the cap or at t_end.
        """
        # min and max propagate NaN, and every comparison with NaN is False:
        # a NaN or -inf cell fails 0 <= min, a +inf cell fails max < inf, so
        # this holds exactly when both fields are finite and nonnegative
        inf = math.inf
        if not (0.0 <= min_u_new and max_u < inf and 0.0 <= min_v_new and max_v_new < inf):
            self.fail(par)
            return
        self.steps += 1
        dt = self.dt
        t_new = self.t + dt
        u_new, v_new = self.uv[1 - par]
        mass_u, mass_v = self.mass_u, self.mass_v
        mass_u_new = float(_dot(u_new, V))
        mass_v_new = float(_dot(v_new, V))
        self.mass_res_u = max(
            self.mass_res_u,
            abs(mass_u_new - mass_u - dt * self.f_mass)
            / max(abs(mass_u), abs(mass_u_new), abs(dt * self.f_mass), 1e-300),
        )
        self.mass_res_v = max(
            self.mass_res_v,
            abs(mass_v_new - mass_v - dt * (mass_u_new - mass_v_new))
            / max(abs(mass_v), abs(mass_u_new), 1e-300),
        )
        self.min_u_seen = min(self.min_u_seen, min_u_new)
        self.min_v_seen = min(self.min_v_seen, min_v_new)

        probes = self.probes
        while self.pi < len(probes):
            t_probe = probes[self.pi]
            if t_new < t_probe - 1e-12 * max(1.0, t_probe):
                break
            self.probe_states.append(State(u_new.copy(), v_new.copy(), t_new))
            self.pi += 1

        blown = max_u > self.cap and max_u >= self.grow_floor
        final_step = t_new >= self.t_goal

        self.F_prev, self.F_cur = self.F_cur, None
        if self.steps % self.diag_every == 0 or blown or final_step:
            self.F_cur = self.step_row(
                t_new, dt, mass_u_new, mass_v_new, self.ss[1 - par], self.ss[par], max_u,
                min_u_new, self.umax, self.umin, self.F_prev, self.f_u, *self.faces,
                kern.mob[kern.inner(self.k)],
            )

        self.t, self.umax, self.umin = t_new, max_u, min_u_new
        self.v_range = max_v_new - min_v_new
        self.mass_u, self.mass_v = mass_u_new, mass_v_new
        if blown:
            self.finish(Termination.BLOWUP, t_new, self.ss[1 - par], blowup_estimate=t_new - dt)
        elif final_step:
            self.finish(Termination.COMPLETED, t_new, self.ss[1 - par])

    def finish(self, tag: Termination, t: float, state, blowup_estimate=None) -> None:
        """End the run in the state (u, v) at t."""
        u, v = state
        self.outcome = RunResult(
            TerminationInfo(tag, t, blowup_estimate),
            self.rows,
            State(u.copy(), v.copy(), t),
            self.grid,
            self.steps,
            self.mass_res_u,
            self.mass_res_v,
            self.min_u_seen,
            self.min_v_seen,
            self.w12[-1],
            max(self.w12),
            self.probe_states,
        )

    def underflow(self, par: int, mob: np.ndarray) -> None:
        """End the run as DtUnderflow in its current state, buffer par.

        When the last step wrote no row, its own row comes first: the other
        buffer still holds the state that step advanced from, and mob and
        f_u are still that step's, so the row is bitwise the one a
        diag_every = 1 run writes.
        """
        state, old = self.ss[par], self.ss[1 - par]
        if self.F_cur is None:
            du, dv = grad_faces(old[0], self.grid), grad_faces(old[1], self.grid)
            self.step_row(
                self.t, self.dt, self.mass_u, self.mass_v, state, old, self.umax, self.umin,
                float(np.maximum.reduce(old[0])), float(np.minimum.reduce(old[0])),
                self.F_prev, self.f_u, dv, du[1:-1], dv[1:-1], mob,
            )
        self.finish(Termination.DT_UNDERFLOW, self.t, state)

    def fail(self, par: int) -> None:
        """End the run as NumericalFailure in its last valid state, buffer par.

        The failed step overwrote the other buffer; when the state has no row
        yet, its row takes the face gradients the kernel still holds.
        """
        state = self.ss[par]
        if self.F_cur is None:
            self.state_row(
                self.t, state[0], state[1], self.mass_u, self.mass_v, self.umax, self.faces[0],
                math.nan,
            )
        self.finish(Termination.NUMERICAL_FAILURE, self.t, state)


def _tile(grid: Grid, points: List[_Point], kern: Optional[_Kernel], buf, par: int):
    """The kernel, state buffers and f buffer of points, ordered in blocks.

    Each point that was tiled before keeps its current state (into buffer
    0), the state its last step advanced from (buffer 1) and that step's face
    mobility; a new point starts from its initial state. One lone point's f
    is the array f returns, so it has no f buffer.
    """
    phi_order: Dict[tuple, int] = {}
    psi_order: Dict[tuple, int] = {}
    for pt in points:
        phi_order.setdefault(pt.phi_key, len(phi_order))
        psi_order.setdefault(pt.psi_key, len(psi_order))
    points = sorted(points, key=lambda pt: (phi_order[pt.phi_key], psi_order[pt.psi_key]))
    new = _Kernel(grid, points)
    cells = np.empty((2, 2, new.B * new.n))
    mob = np.zeros(new.B * new.n - 1)
    fbuf = np.zeros(new.B * new.n) if new.B > 1 else None
    for k, pt in enumerate(points):
        c = new.cells(k)
        if pt.k is None:
            cells[0, :, c] = pt.start
        else:
            was = kern.cells(pt.k)
            cells[0, :, c] = buf[par, :, was]
            cells[1, :, c] = buf[1 - par, :, was]
            mob[new.inner(k)] = kern.mob[kern.inner(pt.k)]
        pt.k = k
        pt.ss = (cells[0, :, c], cells[1, :, c])
        pt.uv = ((cells[0, 0, c], cells[0, 1, c]), (cells[1, 0, c], cells[1, 1, c]))
        pt.faces = (new.dvf[new.faces(k)], new.du_in[new.inner(k)], new.dv_in[new.inner(k)])
        pt.fview = None if fbuf is None else fbuf[c]
    new.mob = mob
    return new, cells, points, fbuf


def run_lockstep(feed: Callable[[], Optional[Sequence[tuple]]]) -> List[tuple]:
    """Run the runs feed() hands out in lockstep; return (tag, outcome) pairs as they end.

    feed() returns the (tag, cfg, probe_times, tables) entries of the runs to
    add, or None once it has no more; it is called at the start, whenever no
    run is left, and once each time a run ends. The runs must share one
    domain. A run's outcome is its RunResult, bitwise run(cfg, probe_times,
    tables)'s whatever runs beside it, or the KsfvError that run() would
    raise, and the other runs go on; any other exception propagates.

    Each lockstep step advances every run one step of its own dt: the
    batched work is one _Kernel call for all the runs, the rest is each
    run's own, as run() alone does it. A run leaves when it ends, and the
    runs that join or stay are tiled afresh.
    """
    caller_err = np.geterr()
    ended: List[tuple] = []
    grid: Optional[Grid] = None
    live: List[_Point] = []
    joined: List[_Point] = []
    exhausted = False

    def claim():
        nonlocal grid, exhausted
        with np.errstate(**caller_err):
            entries = feed()
            if entries is None:
                exhausted = True
                return
            for tag, cfg, probe_times, tables in entries:
                try:
                    g = make_grid(cfg.domain) if grid is None else grid
                    if cfg.domain != g.spec:
                        raise ValueError("the runs of a lockstep march share one domain")
                    joined.append(_Point(tag, cfg, probe_times, tables, g))
                    grid = g
                except KsfvError as exc:
                    ended.append((tag, exc))

    vmin, vmax = np.minimum.reduce, np.maximum.reduce
    kern: Optional[_Kernel] = None
    buf, par = None, 0
    with np.errstate(all="ignore"):
        while True:
            while not (live or joined or exhausted):
                claim()
            if not (live or joined):
                break
            if joined or len(live) != kern.B:
                kern, buf, live, fbuf = _tile(grid, live + joined, kern, buf, par)
                joined, par = [], 0
                V, B = grid.cell_volume, kern.B
                states = (buf[0], buf[1])
                rows = ((buf[0, 0], buf[0, 1]), (buf[1, 0], buf[1, 1]))
                # each buffer as (u of run 0, ..., u of run B-1, v of run 0, ...),
                # for the checks' reductions
                per_run = tuple(buf.reshape(2, 2 * B, kern.n))
            (u, v), (u_new, v_new) = rows[par], rows[1 - par]
            kern.gradients(states[par])
            dts = []
            n_ended = 0
            for pt, bound in zip(live, kern.dt_bound(u)):
                try:
                    dts.append(pt.start_step(bound, par, V, kern))
                except KsfvError as exc:
                    pt.outcome = exc
                    dts.append(0.0)
                if pt.outcome is not None:
                    n_ended += 1
            if n_ended < B:
                if B == 1:
                    kern.advance(u, v, u_new, v_new, dts[0], live[0].f_u)
                else:
                    kern.advance(u, v, u_new, v_new, dts, fbuf)
                for k, exc in kern.failed:
                    live[k].outcome = exc
                    n_ended += 1
            lows = vmin(per_run[1 - par], axis=1).tolist()
            highs = vmax(per_run[1 - par], axis=1).tolist()
            for k, pt in enumerate(live):
                if pt.outcome is not None:
                    continue
                try:
                    pt.end_step(par, lows[k], lows[B + k], highs[k], highs[B + k], V, kern)
                except KsfvError as exc:
                    pt.outcome = exc
                if pt.outcome is not None:
                    n_ended += 1
            par = 1 - par

            if n_ended:
                ended.extend((pt.tag, pt.outcome) for pt in live if pt.outcome is not None)
                live = [pt for pt in live if pt.outcome is None]
                for _ in range(n_ended):
                    if not exhausted:
                        claim()
    return ended
