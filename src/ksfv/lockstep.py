"""The lockstep march: runs that share a grid advanced together, each bitwise its solo run.

run_lockstep holds one _Point per run: its settings, its state between
steps and its record, diagnostics rows included. The batched work of a
step is one numpy call per quantity for all the runs: the solver._Kernel
calls, the v solves among them, the min/max checks and one vecdot for the
mass sums. Each run's next dt is decided at the end of the step that
produced its state, so every way a step can end a run (a failed check,
the cap, t_end, a next dt below dt_min) is decided on that step, and the
run ends on that step's row. The diagnostics rows are evaluated in blocks,
per run: on the step a row falls due, the run walks its G-table over the
row's span when the span leaves the range it walked last, a walk upward
going on ahead to twice the span's max (solver.TableCache.covering; a
walk that raises a KsfvError ends that run alone, on that step), records
the row's scalars and copies what the row reads into its block buffer; one
_step_rows call evaluates the whole block over (k, cells) stacks, when the
block holds _BLOCK_CELLS cells and before the run ends. The rest is each
run's own (see "Lockstep" and "Buffers" in the solver module docstring); a
lone run takes the same path, with B = 1. solver.run imports this module
when it first marches, and sweep.run_sweep before it forks its workers, so
that importing ksfv does not compile it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .core import Grid, State, linf, make_grid
from .discrete import grad_faces
from .energy import dissipation_terms, lyapunov_terms
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

# a run's rows are evaluated together once its block holds this many cells
# of states, and at least one row. On docs/sample_run.cfg's 48 cells a block
# of 1 row took 64 us, a block of 21 rows 11 us a row (2-vCPU Xeon)
_BLOCK_CELLS = 1024


class _Point(_Model):
    """One run of a lockstep march: its model, settings, state between steps and record.

    Built when the run joins the march, after the API-boundary checks, with
    the row of its initial state and the table walked for it (table). Between
    steps its state lives in the march's buffers at its kernel index k (None
    until the march first tiles it): uv holds its u, v and f rows in buffer
    0 and buffer 1. It keeps the max u, min u and range of v the last step's
    checks measured, that step's dt and span, and its masses. Its rows wait
    in its block (keep_row) until _step_rows evaluates them (flush), under
    the float settings it joined under (caller_err). ending is None until a
    step decides how the run ends on its row; outcome is None while it runs,
    then its RunResult or the KsfvError that ended it.
    """

    __slots__ = (
        "tag", "grid", "n", "dt_min", "dt_max", "cap", "t_end", "t_goal", "diag_every",
        "start", "grow_floor", "tables", "key", "table", "probes", "probe_states", "pi",
        "rows", "w12", "t", "steps", "mass_u", "mass_v", "umin", "mass_res_u", "mass_res_v",
        "min_u_seen", "min_v_seen", "F_last", "wrote", "wrote_before", "block", "kept", "dt",
        "k", "uv", "span", "ending", "outcome", "caller_err",
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
        # F of the last row evaluated. A table only ever walks further out
        # from s0 and keeps the values it has walked, so a row, and F of a
        # state, do not depend on when they are evaluated or with which
        # rows: reusing the row before's F, or computing F of the state
        # before the step in the same call, gives the same value bitwise.
        self.F_last = self.state_row(0.0, u, v, self.mass_u, self.mass_v, self.umax, 0.0)
        # whether the current state, and the state before the last step,
        # have a row
        self.wrote, self.wrote_before = True, True
        # the rows kept and not yet evaluated: row i's arrays in block[i]
        # (keep_row), its scalars in kept[i], evaluated on the table walked
        # over all their spans
        self.block = np.empty((max(1, _BLOCK_CELLS // self.n), 8, self.n))
        self.kept: List[tuple] = []
        self.dt = math.nan
        self.k: Optional[int] = None
        # the (min, max) of u over the states before and after the last step
        self.span: Optional[tuple] = None
        # once a step decides that the run ends on its row: the Termination
        # and blow-up estimate it ends with
        self.ending: Optional[tuple] = None
        self.outcome = None

    def state_row(self, t, u, v, mass_u, mass_v, umax, fill) -> float:
        """Append a row of the state (u, v) at t, with fill in its step columns; return F.

        umax = max(u). F is energy.lyapunov's, bitwise, from its term helper
        on the run's table walked over u, which the run keeps (table).
        """
        umin = float(np.minimum.reduce(u))
        grid = self.grid
        with np.errstate(**self.caller_err):
            table = self.table = self.tables.covering(self.key, umax, umin)
            G_u = table.g(np.maximum(u, table.s_min))
            (terms,) = lyapunov_terms(G_u[None], u[None], v[None], grad_faces(v, grid)[None], grid)
        F = terms.F_total
        self.rows.append(DiagnosticsRow(t, fill, mass_u, mass_v, umax, umin, F, fill, fill))
        self.w12.append(terms.v_w12)
        return F

    def prepare(self, bound: float, par: int) -> float:
        """The next step's dt, from the kernel's CFL bound, with f(u) written into the next buffer.

        The current state is in buffer par, and f(u) goes into the f row of
        the other buffer, beside the state the step writes, so that one sum
        over that buffer gives the new masses and the mass of f(u). A dt that
        underflows ends the run in its current state instead (ending), on
        that state's row: when the step to it wrote none, its row falls due.
        """
        dt_c = min(bound, self.dt_max)
        if dt_c < self.dt_min:
            self.wrote = True
            self.ending = (Termination.DT_UNDERFLOW, None)
            return math.nan
        t = self.t
        dt = min(dt_c, self.t_end - t)
        if self.pi < len(self.probes):
            dt = min(dt, self.probes[self.pi] - t)
        uv = self.uv
        self.f(uv[par][0], self.umax, uv[1 - par][2])
        return dt

    def end_step(
        self, par: int, dt, min_u_new, min_v_new, max_u, max_v_new, mass_u_new, mass_v_new, f_mass
    ) -> None:
        """Take the step of dt from buffer par to the other, or end the run.

        The min and max of the new u and v are the step's checks, and
        mass_u_new, mass_v_new and f_mass the integrals (sums against the
        cell volumes) of the new u, the new v and f(u). Records the mass
        laws and probes, and ends the run on a non-finite or negative state.
        A row that falls due is marked (wrote, with the step's span), and so
        is the end on the cap or at t_end (ending): the march keeps the rows
        of the step, then ends those runs.
        """
        # min and max propagate NaN, and every comparison with NaN is False:
        # a NaN or -inf cell fails 0 <= min, a +inf cell fails max < inf, so
        # this holds exactly when both fields are finite and nonnegative
        inf = math.inf
        if not (0.0 <= min_u_new and max_u < inf and 0.0 <= min_v_new and max_v_new < inf):
            self.fail(par)
            return
        self.steps += 1
        self.dt = dt
        t_new = self.t + dt
        mass_u, mass_v = self.mass_u, self.mass_v
        # the running maxima and minima as max() and min() update them: a new
        # value replaces the old only if it compares greater (less), so a nan
        # residual leaves the maximum as it is
        dt_f = dt * f_mass
        res = abs(mass_u_new - mass_u - dt_f) / max(abs(mass_u), abs(mass_u_new), abs(dt_f), 1e-300)
        if res > self.mass_res_u:
            self.mass_res_u = res
        res = abs(mass_v_new - mass_v - dt * (mass_u_new - mass_v_new)) / max(
            abs(mass_v), abs(mass_u_new), 1e-300
        )
        if res > self.mass_res_v:
            self.mass_res_v = res
        if min_u_new < self.min_u_seen:
            self.min_u_seen = min_u_new
        if min_v_new < self.min_v_seen:
            self.min_v_seen = min_v_new

        probes = self.probes
        while self.pi < len(probes):
            t_probe = probes[self.pi]
            if t_new < t_probe - 1e-12 * max(1.0, t_probe):
                break
            u_new, v_new, _ = self.uv[1 - par]
            self.probe_states.append(State(u_new.copy(), v_new.copy(), t_new))
            self.pi += 1

        blown = max_u > self.cap and max_u >= self.grow_floor
        final_step = t_new >= self.t_goal

        due = self.steps % self.diag_every == 0 or blown or final_step
        self.wrote_before, self.wrote = self.wrote, due
        self.span = (min(min_u_new, self.umin), max(max_u, self.umax))
        if blown:
            self.ending = (Termination.BLOWUP, t_new - dt)
        elif final_step:
            self.ending = (Termination.COMPLETED, None)
        self.t, self.umax, self.umin = t_new, max_u, min_u_new
        self.v_range = max_v_new - min_v_new
        self.mass_u, self.mass_v = mass_u_new, mass_v_new

    def keep_row(self, new, old, grads, mob) -> None:
        """Keep the row of the last step in the block; evaluate the block once it is full.

        new is the step's new u, v and f(u), old the u and v it advanced from,
        grads their interior face gradients of u and v and mob the step's face
        mobility, all copied. The row's scalars are the run's now, and the
        table must have been walked over its span (self.table).
        """
        kept = self.kept
        row = self.block[len(kept)]
        row[:3] = new
        row[3:5] = old
        row[5:7, :-1] = grads
        row[7, :-1] = mob
        kept.append(
            (self.t, self.dt, self.mass_u, self.mass_v, self.umax, self.umin, self.wrote_before)
        )
        if len(kept) == len(self.block):
            self.flush()

    def flush(self) -> None:
        """Evaluate the kept rows, in one _step_rows call under the run's float settings."""
        if self.kept:
            with np.errstate(**self.caller_err):
                _step_rows(self)

    def finish(self, tag: Termination, par: int, blowup_estimate=None) -> None:
        """End the run in its current state, buffer par, after the rows it has kept."""
        self.flush()
        u, v, _ = self.uv[par]
        t = self.t
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

    def fail(self, par: int) -> None:
        """End the run as NumericalFailure in its last valid state, buffer par.

        The failed step overwrote the other buffer, not this one.
        """
        self.flush()
        if not self.wrote:
            u, v, _ = self.uv[par]
            self.state_row(self.t, u, v, self.mass_u, self.mass_v, self.umax, math.nan)
        self.finish(Termination.NUMERICAL_FAILURE, par)


def _step_rows(pt: _Point) -> None:
    """Append the point's kept rows, in order, and empty its block.

    Row i of the block holds a kept step's new u, v and f(u), the old u and
    v, and the old interior face gradients of u and v and the step's face
    mobility (the first cells - 1 entries of rows 5 to 7); kept[i] its
    scalars and whether the step before it wrote a row. The point's table
    was walked over every kept row's span. G at both states and G' at old
    come from one Hermite basis over all of them; the terms are (k, cells)
    stacks whose sums are np.vecdot rows (energy.lyapunov_terms,
    energy.dissipation_terms). F before a step is the row before's F when
    that step wrote one, else F of the old state, from the same call. So
    each row is bitwise the one the run writes alone, on its own step. The
    caller sets the float settings the point joined under, as state_row
    runs under.
    """
    kept, grid, table = pt.kept, pt.grid, pt.table
    k = len(kept)
    block = pt.block[:k]
    u_new, v_new, f_u, u_old, v_old = block[:, :5].transpose(1, 0, 2)
    du, dv, mob = block[:, 5:, :-1].transpose(1, 0, 2)
    s_min = table.s_min
    u = np.concatenate((u_new, u_old))
    # the basis is elementwise: over the cells of all 2k states as one
    # flat array. The table holds every max(u, s_min), so table.basis's
    # range check is moot
    basis = _hermite_basis(np.maximum(u, s_min).reshape(-1), table.segments)
    G = table.g_on(basis).reshape(u.shape)
    if all([row[-1] for row in kept]):
        terms = lyapunov_terms(G[:k], u_new, v_new, grad_faces(v_new, grid), grid)
    else:
        v = np.concatenate((v_new, v_old))
        terms = lyapunov_terms(G, u, v, grad_faces(v, grid), grid)
    gp = table.gp_on(tuple(b[u_old.size:] for b in basis)).reshape(u_old.shape)
    dt = [row[1] for row in kept]
    v_t = (v_new - v_old) / np.array(dt)[:, None]
    rhs = dissipation_terms(u_old, v_old, v_t, du, dv, mob, pt.psi, f_u, gp, s_min, grid)
    F_prev = pt.F_last
    for i, ((t, dt_i, mass_u, mass_v, umax, umin, wrote_before), rhs_i) in enumerate(
        zip(kept, rhs)
    ):
        if not wrote_before:
            F_prev = terms[k + i].F_total
        F_new = terms[i].F_total
        pt.rows.append(
            DiagnosticsRow(
                t, dt_i, mass_u, mass_v, umax, umin, F_new, rhs_i,
                abs((F_new - F_prev) / dt_i - rhs_i),
            )
        )
        pt.w12.append(terms[i].v_w12)
        F_prev = F_new
    pt.F_last = F_prev
    kept.clear()


def _tile(grid: Grid, points: List[_Point], kern: Optional[_Kernel], par: int):
    """The kernel of points, ordered in blocks, with their current states in its buffer 0.

    A point that was tiled before brings its (u, v) from kern's buffer par,
    a new point its initial state. Nothing else carries over: the march
    prepares the new kernel's first step from those states.
    """
    phi_order: Dict[tuple, int] = {}
    psi_order: Dict[tuple, int] = {}
    for pt in points:
        phi_order.setdefault(pt.phi_key, len(phi_order))
        psi_order.setdefault(pt.psi_key, len(psi_order))
    points = sorted(points, key=lambda pt: (phi_order[pt.phi_key], psi_order[pt.psi_key]))
    new = _Kernel(grid, points)
    cells = new.buf
    for k, pt in enumerate(points):
        c = new.cells(k)
        cells[0, :2, c] = pt.start if pt.k is None else kern.buf[par, :2, kern.cells(pt.k)]
        pt.k = k
        pt.uv = tuple((b[0, c], b[1, c], b[2, c]) for b in cells)
    return new, points


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
    the new u, the new v and f(u). Each run's own, as run() alone does it:
    the rest, the rows among it. A step is: advance, the checks (end_step),
    then the next step's gradients, dt bounds, dt clamps and f(u)
    (_Point.prepare), then the rows that fell due, then the runs that end.
    So every ending is decided on the step that reaches it: the cap, t_end,
    a failed check and a next dt that underflows alike. A run whose row
    falls due walks its table over the row's span, unless it has already,
    upward on ahead (TableCache.covering), and keeps the row in its block
    (_Point.keep_row); the block is evaluated in one _step_rows call when
    it is full and when the run ends. A lone run
    takes the same path. A run leaves when it ends, and the runs that join
    or stay are tiled afresh, with their first step prepared there: a
    joined run whose first dt underflows ends on its initial row.
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
                    pt = _Point(tag, cfg, probe_times, tables, g)
                    grid = g
                except KsfvError as exc:
                    ended.append((tag, exc))
                    continue
                joined.append(pt)

    vmin, vmax, vecdot = np.minimum.reduce, np.maximum.reduce, np.vecdot
    kern: Optional[_Kernel] = None
    par = 0
    dts: List[float] = []
    with np.errstate(all="ignore"):
        while True:
            while not (live or joined or exhausted):
                claim()
            if not (live or joined):
                break
            stepped = not joined and len(live) == kern.B
            if stepped:
                # the step from buffer par, prepared for every run
                kern.advance(dts)
                for k, exc in kern.failed:
                    live[k].outcome = exc
                side = sides[par]
                checks = side.checks
                lows = vmin(checks, axis=1).tolist()
                highs = vmax(checks, axis=1).tolist()
                # np.dot of each row, bitwise: vecdot sums a row with BLAS ddot too
                mass_u, mass_v, f_mass = vecdot(side.sums, V).tolist()
                for k, pt in enumerate(live):
                    if pt.outcome is None:
                        try:
                            pt.end_step(
                                par, dts[k], lows[k], lows[B + k], highs[k], highs[B + k],
                                mass_u[k], mass_v[k], f_mass[k],
                            )
                        except KsfvError as exc:
                            pt.outcome = exc
                par = 1 - par
            else:
                kern, live = _tile(grid, live + joined, kern, par)
                joined, par = [], 0
                V, B, sides = grid.cell_volume, kern.B, kern.sides
            # the next step from buffer par
            kern.gradients(par)
            dts = kern.dt_bound()
            due: List[_Point] = []
            n_ended = 0
            for k, pt in enumerate(live):
                if pt.outcome is None and pt.ending is None:
                    dts[k] = pt.prepare(dts[k], par)
                if pt.outcome is not None or pt.ending is not None:
                    n_ended += 1
                if stepped and pt.outcome is None and pt.wrote:
                    due.append(pt)
            if due:
                # the step from buffer 1 - par, and that state's gradients
                new, old, grad = kern.buf[par], kern.buf[1 - par, :2], sides[1 - par].grad
                mob = kern.mob
                for pt in due:
                    lo, hi = pt.span
                    table = pt.table
                    # the run walks its table only when the row's span leaves
                    # the range it walked last: a walked table only grows
                    if not (table.knots[table.low] <= lo and hi <= table.s_max):
                        # under the float settings every run joined under; a
                        # walk that raises ends this run alone, as it does alone
                        try:
                            with np.errstate(**caller_err):
                                pt.table = pt.tables.covering(pt.key, hi, lo)
                        except KsfvError as exc:
                            pt.outcome = exc
                            n_ended += 1
                            continue
                    c = kern.cells(pt.k)
                    # run k's interior faces are kernel faces kn + 1 .. kn + n - 1
                    pt.keep_row(
                        new[:, c], old[:, c], grad[:, c.start + 1:c.stop], mob[kern.inner(pt.k)]
                    )
            if n_ended:
                # the runs that end on this step, counted afresh
                n_ended = 0
                for pt in live:
                    if pt.outcome is None and pt.ending is not None:
                        tag, estimate = pt.ending
                        pt.finish(tag, par, blowup_estimate=estimate)
                    if pt.outcome is not None:
                        n_ended += 1
                ended.extend((pt.tag, pt.outcome) for pt in live if pt.outcome is not None)
                live = [pt for pt in live if pt.outcome is None]
                for _ in range(n_ended):
                    if not exhausted:
                        claim()
    return ended
