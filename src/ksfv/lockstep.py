"""The lockstep march: runs that share a grid advanced together, each bitwise its solo run.

run_lockstep holds one _Point per run: its settings, its state between
steps and its record, diagnostics rows included. The batched work of a
step is one numpy call per quantity for all the runs: the solver._Kernel
calls, the v solves among them, the min/max checks and one vecdot for the
mass sums. The rows that fall due on a step are batched per table: each
due run walks the G-table over its own span, and a walk that raises a
KsfvError ends that run alone; then one _step_rows call writes the rows of
the others that share the table and a psi, over (k, cells) stacks of their
states; then the runs that end on those rows end. The rest is each run's
own (see "Lockstep" and "Buffers" in the solver module docstring); a lone
run takes the same path, with k = 1 and B = 1. solver.run imports this
module when it first marches, and sweep.run_sweep before it forks its
workers, so that importing ksfv does not compile it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .core import Grid, State, linf, make_grid
from .discrete import grad_faces
from .energy import dissipation_terms, lyapunov, lyapunov_terms
from .errors import ConfigError, KsfvError
from .nonlin import _hermite_basis
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


class _Point(_Model):
    """One run of a lockstep march: its model, settings, state between steps and record.

    Built when the run joins the march, after the API-boundary checks, with
    the row of its initial state. Between steps its state lives in the
    march's buffers at its kernel index k (None until the march first tiles
    it): uv holds its u, v and f rows in buffer 0 and buffer 1, and ss its
    (u, v) as one array. It keeps the max u, min u and range of v the last
    step's checks measured, its masses and, until it steps again, that
    step's dt, f(u) (a view of the f row it was written into) and F of the
    state before it. Its rows run under the float settings it joined under
    (caller_err). outcome is None while it runs, then its RunResult or the
    KsfvError that ended it.
    """

    __slots__ = (
        "tag", "grid", "n", "dt_min", "dt_max", "cap", "t_end", "t_goal", "diag_every",
        "start", "grow_floor", "tables", "key", "probes", "probe_states", "pi", "rows", "w12",
        "t", "steps", "mass_u", "mass_v", "umin", "mass_res_u", "mass_res_v", "min_u_seen",
        "min_v_seen", "F_cur", "F_prev", "dt", "f_u", "k", "uv", "ss", "span", "ending",
        "batch", "outcome", "caller_err",
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
        # the probe clamps and checks compare t with them: a nan or inf probe
        # would be recorded at the first step, a -inf one at t = 0
        if not all(map(math.isfinite, self.probes)):
            raise ConfigError("probe times must be finite")
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
            0.0, u, v, self.mass_u, self.mass_v, self.umax, 0.0
        )
        self.F_prev: Optional[float] = None
        self.dt = math.nan
        self.f_u: Optional[np.ndarray] = None
        self.k: Optional[int] = None
        # while a row of the last step is due: the (min, max) of u over the
        # states before and after it; while the run ends on that step: the
        # Termination and blow-up estimate it ends with
        self.span: Optional[tuple] = None
        self.ending: Optional[tuple] = None
        self.batch = 0  # the run's row batch: runs with equal table, key and psi_key
        self.outcome = None

    def state_row(self, t, u, v, mass_u, mass_v, umax, fill) -> float:
        """Append a row of the state (u, v) at t, with fill in its step columns; return F.

        umax = max(u); F is energy.lyapunov's on the run's table, walked over u.
        """
        umin = float(np.minimum.reduce(u))
        with np.errstate(**self.caller_err):
            table = self.tables.covering(self.key, umax, umin)
            terms = lyapunov(State(u, v, t), self.grid, table)
        F = terms.F_total
        self.rows.append(DiagnosticsRow(t, fill, mass_u, mass_v, umax, umin, F, fill, fill))
        self.w12.append(terms.v_w12)
        return F

    def start_step(self, bound: float, par: int, kern: _Kernel) -> float:
        """This step's dt, from the kernel's CFL bound, with f(u) written into the next buffer.

        The current state is in buffer par, and f(u) goes into the f row of
        the other buffer, beside the state the step writes, so that one sum
        over that buffer gives the new masses and the mass of f(u). A dt that
        underflows ends the run instead; then the run's cells take a null
        step, 0.0, that nothing reads.
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
        uv = self.uv
        self.f_u = self.f(uv[par][0], self.umax, uv[1 - par][2])
        return dt

    def end_step(
        self, par: int, min_u_new, min_v_new, max_u, max_v_new, mass_u_new, mass_v_new, f_mass
    ) -> None:
        """Take the step from buffer par to the other, or end the run.

        The min and max of the new u and v are the step's checks, and
        mass_u_new, mass_v_new and f_mass the integrals (sums against the
        cell volumes) of the new u, the new v and f(u). Records the mass
        laws and probes, and ends the run on a non-finite or negative state.
        A row that falls due is marked (span), and so is the end on the cap
        or at t_end (ending): the march writes the rows of the step, then
        ends those runs, since finish reads the last row's v_w12.
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
        u_new, v_new, _ = self.uv[1 - par]
        mass_u, mass_v = self.mass_u, self.mass_v
        self.mass_res_u = max(
            self.mass_res_u,
            abs(mass_u_new - mass_u - dt * f_mass)
            / max(abs(mass_u), abs(mass_u_new), abs(dt * f_mass), 1e-300),
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
            self.span = (min(min_u_new, self.umin), max(max_u, self.umax))
        if blown:
            self.ending = (Termination.BLOWUP, t_new - dt)
        elif final_step:
            self.ending = (Termination.COMPLETED, None)
        self.t, self.umax, self.umin = t_new, max_u, min_u_new
        self.v_range = max_v_new - min_v_new
        self.mass_u, self.mass_v = mass_u_new, mass_v_new

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
        f_u are still that step's (f_u a view of the buffer that step wrote,
        kept when a retile has since replaced it), so the row is bitwise the
        one a diag_every = 1 run writes.
        """
        state, old = self.ss[par], self.ss[1 - par]
        if self.F_cur is None:
            du, dv = grad_faces(old, self.grid)
            self.span = (
                min(self.umin, float(np.minimum.reduce(old[0]))),
                max(self.umax, float(np.maximum.reduce(old[0]))),
            )
            with np.errstate(**self.caller_err):
                _step_rows(
                    [self], *state[:, None], self.f_u[None], *old[:, None], du[None, 1:-1],
                    dv[None, 1:-1], mob[None],
                )
        self.finish(Termination.DT_UNDERFLOW, self.t, state)

    def fail(self, par: int) -> None:
        """End the run as NumericalFailure in its last valid state, buffer par.

        The failed step overwrote the other buffer, not this one.
        """
        state = self.ss[par]
        if self.F_cur is None:
            self.state_row(
                self.t, state[0], state[1], self.mass_u, self.mass_v, self.umax, math.nan
            )
        self.finish(Termination.NUMERICAL_FAILURE, self.t, state)


def _step_rows(pts: List[_Point], u_new, v_new, f_u, u_old, v_old, du, dv, mob) -> None:
    """Append the row of each point's last step and set its F_cur.

    The points share one table (TableCache and key) and one psi, and each
    has its row's span marked and the table walked over it, so the one
    covering of their joint span returns the walked table and raises
    nothing. u_new, v_new, u_old and v_old are (k, cells) stacks of their
    states after and before the step and f_u of their steps' f(u); du and dv
    are the old interior face gradients and mob the steps' face mobility,
    (k, cells - 1) each. G at both states and G' at old come from one
    Hermite basis over all of them; the terms are (k, cells) stacks whose
    sums are np.vecdot rows (energy.lyapunov_terms, energy.dissipation_terms).
    So each row is bitwise the one the point's run writes alone. The caller
    sets the float settings the points joined under, as state_row runs under.
    """
    first = pts[0]
    k, grid = len(pts), first.grid
    table = first.tables.covering(
        first.key, max([pt.span[1] for pt in pts]), min([pt.span[0] for pt in pts])
    )
    s_min = table.s_min
    u = np.concatenate((u_new, u_old))
    # the basis is elementwise: over the cells of all 2k states as one
    # flat array. The covering holds every max(u, s_min), so
    # table.basis's range check is moot
    basis = _hermite_basis(np.maximum(u, s_min).reshape(-1), table.segments)
    G = table.g_on(basis).reshape(u.shape)
    F_old = [pt.F_prev for pt in pts]
    if None in F_old:
        # F of the old states as well, in the same calls; a known F_prev
        # is bitwise the same value (see _Point.__init__)
        v = np.concatenate((v_new, v_old))
        terms = lyapunov_terms(G, u, v, grad_faces(v, grid), grid)
        F_old = [t.F_total for t in terms[k:]]
    else:
        terms = lyapunov_terms(G[:k], u_new, v_new, grad_faces(v_new, grid), grid)
    gp = table.gp_on(tuple(b[u_old.size:] for b in basis)).reshape(u_old.shape)
    dt = [pt.dt for pt in pts]
    v_t = (v_new - v_old) / np.array(dt)[:, None]
    rhs = dissipation_terms(u_old, v_old, v_t, du, dv, mob, first.psi, f_u, gp, s_min, grid)
    for pt, new_terms, F_prev, dt_i, rhs_i in zip(pts, terms, F_old, dt, rhs):
        F_new = new_terms.F_total
        pt.rows.append(
            DiagnosticsRow(
                pt.t, dt_i, pt.mass_u, pt.mass_v, pt.umax, pt.umin, F_new, rhs_i,
                abs((F_new - F_prev) / dt_i - rhs_i),
            )
        )
        pt.w12.append(new_terms.v_w12)
        pt.F_cur = F_new
        pt.span = None


def _tile(grid: Grid, points: List[_Point], kern: Optional[_Kernel], buf, par: int):
    """The kernel and the (2, 3, B*cells) buffers of points, ordered in blocks.

    Each point that was tiled before keeps its current state (into buffer
    0), the state its last step advanced from (buffer 1), both buffers' f
    rows and its last step's face mobility; a new point starts from its
    initial state, with f rows of 0.0.
    """
    phi_order: Dict[tuple, int] = {}
    psi_order: Dict[tuple, int] = {}
    for pt in points:
        phi_order.setdefault(pt.phi_key, len(phi_order))
        psi_order.setdefault(pt.psi_key, len(psi_order))
    points = sorted(points, key=lambda pt: (phi_order[pt.phi_key], psi_order[pt.psi_key]))
    new = _Kernel(grid, points)
    cells = np.zeros((2, 3, new.B * new.n))
    mob = np.zeros(new.B * new.n - 1)
    for k, pt in enumerate(points):
        c = new.cells(k)
        if pt.k is None:
            cells[0, :2, c] = pt.start
        else:
            was = kern.cells(pt.k)
            cells[0, :, c] = buf[par, :, was]
            cells[1, :, c] = buf[1 - par, :, was]
            mob[new.inner(k)] = kern.mob[kern.inner(pt.k)]
        pt.k = k
        pt.ss = (cells[0, :2, c], cells[1, :2, c])
        pt.uv = tuple((b[0, c], b[1, c], b[2, c]) for b in cells)
    new.mob = mob
    return new, cells, points


def _by_run(x: np.ndarray, kern: _Kernel) -> np.ndarray:
    """The (B, cells - 1) view of the kernel's interior faces x, run k's in row k."""
    step = x.itemsize
    return np.ndarray((kern.B, kern.n - 1), x.dtype, x, 0, (step * kern.n, step))


def run_lockstep(feed: Callable[[], Optional[Sequence[tuple]]]) -> List[tuple]:
    """Run the runs feed() hands out in lockstep; return (tag, outcome) pairs as they end.

    feed() returns the (tag, cfg, probe_times, tables) entries of the runs to
    add, or None once it has no more; it is called at the start, whenever no
    run is left, and once each time a run ends. The runs must share one
    domain. A run's outcome is its RunResult, bitwise run(cfg, probe_times,
    tables)'s whatever runs beside it, or the KsfvError that run() would
    raise, and the other runs go on; any other exception propagates.

    Each lockstep step advances every run one step of its own dt. Batched
    for all the runs, one numpy call per quantity: the _Kernel calls, the v
    solves (one dgtsv), the min/max checks and one vecdot for the masses of
    the new u, the new v and f(u). Batched per table: the rows that fall due
    on the step, one _step_rows call for the runs that share a table and a
    psi, after each has walked the table over its own span. The rest is each
    run's own, as run() alone does it. A lone run takes the same path. A run
    leaves when it ends, and the runs that join or stay are tiled afresh.
    """
    caller_err = np.geterr()
    ended: List[tuple] = []
    grid: Optional[Grid] = None
    live: List[_Point] = []
    joined: List[_Point] = []
    exhausted = False
    batches: Dict[tuple, int] = {}

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
                    pt = _Point(tag, cfg, probe_times, tables, g)
                    grid = g
                except KsfvError as exc:
                    ended.append((tag, exc))
                    continue
                # by the cache's id, so that a cache lives no longer than its runs:
                # a cache that is gone has no run left to share its id
                pt.batch = batches.setdefault((id(tables), pt.key, pt.psi_key), len(batches))
                joined.append(pt)

    vmin, vmax, vecdot = np.minimum.reduce, np.maximum.reduce, np.vecdot
    kern: Optional[_Kernel] = None
    buf, par = None, 0
    with np.errstate(all="ignore"):
        while True:
            while not (live or joined or exhausted):
                claim()
            if not (live or joined):
                break
            if joined or len(live) != kern.B:
                kern, buf, live = _tile(grid, live + joined, kern, buf, par)
                joined, par = [], 0
                V, B, n = grid.cell_volume, kern.B, kern.n
                states = (buf[0, :2], buf[1, :2])
                rows = tuple((b[0], b[1], b[2]) for b in buf)
                # each buffer's (u, v) as (u of run 0, ..., u of run B-1, v of
                # run 0, ...), for the checks' reductions, and its (u, v, f) as
                # (3, B, cells), for the sums over each run's cells and the rows
                per_run = tuple(b[:2].reshape(2 * B, n) for b in buf)
                stacks = tuple(b.reshape(3, B, n) for b in buf)
                # each buffer's u, v and f as (B, cells) stacks, and the
                # kernel's interior face gradients of u and v as (B, cells - 1)
                runs = tuple(tuple(s) for s in stacks)
                faces = (_by_run(kern.du_in, kern), _by_run(kern.dv_in, kern))
            (u, v, _), (u_new, v_new, f_u) = rows[par], rows[1 - par]
            kern.gradients(states[par])
            dts = []
            n_ended = 0
            for pt, bound in zip(live, kern.dt_bound(u)):
                try:
                    dts.append(pt.start_step(bound, par, kern))
                except KsfvError as exc:
                    pt.outcome = exc
                    dts.append(0.0)
                if pt.outcome is not None:
                    n_ended += 1
            if n_ended < B:
                kern.advance(u, v, u_new, v_new, dts, f_u)
                for k, exc in kern.failed:
                    live[k].outcome = exc
                    n_ended += 1
            lows = vmin(per_run[1 - par], axis=1).tolist()
            highs = vmax(per_run[1 - par], axis=1).tolist()
            # np.dot of each row, bitwise: vecdot sums a row with BLAS ddot too
            mass_u, mass_v, f_mass = vecdot(stacks[1 - par], V).tolist()
            due: Dict[int, List[_Point]] = {}
            for k, pt in enumerate(live):
                if pt.outcome is not None:
                    continue
                try:
                    pt.end_step(
                        par, lows[k], lows[B + k], highs[k], highs[B + k], mass_u[k], mass_v[k],
                        f_mass[k],
                    )
                except KsfvError as exc:
                    pt.outcome = exc
                if pt.span is not None:
                    due.setdefault(pt.batch, []).append(pt)
                if not (pt.outcome is None and pt.ending is None):
                    n_ended += 1
            if due:
                # _step_rows' arrays, of every run
                arrays = (*runs[1 - par], *runs[par][:2], *faces, _by_run(kern.mob, kern))
                # under the float settings every run joined under
                with np.errstate(**caller_err):
                    for pts in due.values():
                        # each run walks the table over its own span, so a walk
                        # that raises ends that run alone, as it does alone
                        for pt in pts:
                            try:
                                pt.tables.covering(pt.key, pt.span[1], pt.span[0])
                            except KsfvError as exc:
                                pt.outcome = exc
                                n_ended += 1
                        pts = [pt for pt in pts if pt.outcome is None]
                        if len(pts) == B:
                            _step_rows(pts, *arrays)
                        elif pts:
                            # the points' runs, as a slice when they are adjacent
                            a, b = pts[0].k, pts[-1].k + 1
                            pick = slice(a, b) if b - a == len(pts) else [pt.k for pt in pts]
                            _step_rows(pts, *(x[pick] for x in arrays))
            if n_ended:
                # the runs that end on their rows, counted afresh
                n_ended = 0
                for pt in live:
                    if pt.outcome is None and pt.ending is not None:
                        tag, estimate = pt.ending
                        pt.finish(tag, pt.t, pt.ss[1 - par], blowup_estimate=estimate)
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
