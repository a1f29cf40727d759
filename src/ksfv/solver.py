"""Time integration of the regularized system with blow-up detection.

The density u advances by explicit Euler on the conservative flux divergence
plus the growth term; the signal v advances by backward Euler on the screened
heat equation (I + dt(-Lap + 1)) v_new = v_old + dt*u_new, solved by a
tridiagonal factorization. Using u_new (not u_old) on the right keeps the
discrete v-mass law exact. The factorization is LAPACK dgtsv, loaded from
scipy's compiled _flapack extension without scipy.linalg's package init, which
would otherwise be most of ksfv's import time (_load_dgtsv). The step size is
CFL-limited by the diffusive, advective, and reaction rates; the collapse of
dt doubles as a blow-up signal alongside the hard max-norm cap.

Positivity is a property of the scheme, not an enforcement: a negative cell
is treated as a numerical failure and terminates the run.

Domain checks live at the API boundary: RunConfig.validate checks the
configuration (every number finite and in range) and the initial data, and
the public step() and cfl_dt() check the state they are given (length,
finiteness, u, v >= 0). The step loop itself calls the check-free forms of
the nonlinearities and keeps only its own checks on each new state:
finiteness, nonnegativity (a failure ends the run as NumericalFailure) and
the two mass-law residuals.

Each quantity of a step is computed once (_Kernel). One ufunc call takes
the face differences of u and v together; the face gradient of v feeds both
the drift rate and the flux; the min and max of the new u and v are two
axis reductions, and they are the next step's max u (reaction rate, growth
cutoff test, rate bounds) and range of v (drift bound); f(u) feeds the u
update, the u-mass law and the diagnostics row. A diagnostics row takes the
step's face gradients, face mobility phi(u_face) and f(u) as they are, and
G of the new and the old u and G' of the old u from one Hermite basis over
both (energy.lyapunov_terms, energy.dissipation_terms). The exact
identities of the parameters (ln^1 = ln, psi(u) = u at psi_c = beta = 1,
b = 1, a constant drift slope at beta = 1) are folded once per run, where
nonlin.effective_phi/psi/f build the check-free closures and where _Kernel
builds its rate factors. Every result is bitwise the unfolded scheme's.

Rate pruning. dt = cfl / (max(diffusion, drift, reaction) + guard), and the
max is all that is used. The reaction rate is O(1) and always computed. The
rate that limited the previous step is computed first, over the cells; the
other one is computed only if its bound exceeds the max of those two:
- diffusion <= phi(max u) * diff_geom, since phi = ln^alpha(1 + u + eps)
  is nondecreasing; a unit phi is the same formula with alpha = 0;
- drift <= slope_c * (max u)^(beta-1) * max_i(adv_l + adv_r) * (max v - min v)/h,
  since each donor face gradient is at most (max v - min v)/h.
Each bound repeats its rate's operations on arguments at least as large,
and rounding is monotone, so it holds in floating point up to what the
slack covers: the library log1p and pow, whose numpy and libm versions
differ by a few ulps (a power with exponent e magnifies that e-fold), and
the regrouping of adv_l a + adv_r b as (adv_l + adv_r) D. The relative
slack is exp((e + 2) 2^-40), e = alpha or beta - 1, over a thousand times
those errors, and an absolute 2^-1000 covers subnormal intermediates. A
skipped rate is then at most the max of the computed ones, so the max, and
dt, is bitwise the unpruned value.

Buffers. run() owns one (2, 2, cells) array: the current (u, v) and the
next. A step reads the current state, writes the next one, and solves v in
place in the next state's v row; then the two swap. Only that buffer is
ever solved in place: step(), cfl_dt() and steady_signal() leave their
inputs untouched. The kernel owns the face gradients (2, cells + 1) and the
flux; they hold the last gradients() call's state until the next call.

Floating-point warnings. The step loop runs under np.errstate(all="ignore"),
set once per run: a non-finite or negative state is caught by the step's
own checks and ends the run as NumericalFailure. The diagnostics rows run
under the caller's settings, so their warnings still show.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DomainSpec,
    Grid,
    ModelParams,
    State,
    linf,
    make_grid,
    validate_field,
)
from .discrete import div_cells, grad_faces, interior_flux

# perfbench/tracing.py wraps solver.lyapunov and solver.dissipation by name;
# run() calls the term helpers instead
from .energy import dissipation, dissipation_terms, lyapunov, lyapunov_terms  # noqa: F401
from .errors import ConfigError, DomainError, NumericsError, ScanAbortedError
from .nonlin import (
    FunctionalTable,
    Overrides,
    RatioSpec,
    build_table,
    effective_f,
    effective_phi,
    effective_psi,
)


def _load_dgtsv():
    """LAPACK dgtsv, from scipy's compiled _flapack extension loaded by file.

    scipy.linalg.lapack.dgtsv is this extension's routine, re-exported, so
    every solve is bitwise the same. Importing it from scipy.linalg would run
    that package's init, which pulls in numpy.f2py, numpy.testing and more:
    about 0.3 s of every ksfv process, for the one routine ksfv uses. `import
    scipy` alone runs scipy's _distributor_init, which sets up the DLL path on
    Windows. An extension already imported is reused; where no such file
    exists, the public import is the fallback.
    """
    import scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name].dgtsv
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader)
            )
            loader.exec_module(module)
            return module.dgtsv
    from scipy.linalg.lapack import dgtsv

    return dgtsv


_dgtsv = _load_dgtsv()

_RATE_GUARD = 1e-30
_REL_SLACK = 2.0 ** -40  # per unit of exponent; a library log1p or pow errs by a few 2^-53
_TINY = 2.0 ** -1000  # covers the absolute error of subnormal intermediates


def _pow(x: float, e: float) -> float:
    """x ** e, with inf where the float power overflows (Python raises there)."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def _slack(e: float) -> float:
    """The relative slack factor of a rate bound with exponent e (inf when it overflows)."""
    x = (e + 2.0) * _REL_SLACK
    return math.exp(x) if x < 700.0 else math.inf


_GEOM_SLACK = _slack(0.0)  # the drift bound's geometric factor, which has no power


class Termination(enum.Enum):
    COMPLETED = "Completed"
    BLOWUP = "BlowUp"
    DT_UNDERFLOW = "DtUnderflow"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True)
class TerminationInfo:
    tag: Termination
    t_final: float
    blowup_estimate: Optional[float] = None


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    dt: float
    mass_u: float
    mass_v: float
    max_u: float
    min_u: float
    F: float
    dissipation_rhs: float
    identity_residual: float


@dataclass
class RunConfig:
    """Full description of one experiment."""

    domain: DomainSpec
    params: ModelParams
    u0: np.ndarray
    v0: np.ndarray
    t_end: float
    cfl: float = 0.4
    dt_max: Optional[float] = None  # defaults to t_end/64
    dt_min: float = 1e-12
    blowup_cap: float = 1e8
    diag_every: int = 1
    overrides: Optional[Overrides] = None
    table_tol: float = 1e-10

    def resolved_dt_max(self) -> float:
        return self.dt_max if self.dt_max is not None else self.t_end / 64.0

    def validate(self, grid: Grid) -> None:
        u0 = validate_field(self.u0, grid, "u0")
        v0 = validate_field(self.v0, grid, "v0")
        if np.min(u0) < 0.0 or np.min(v0) < 0.0:
            raise ConfigError("initial data must be nonnegative")
        # chained comparisons, so that NaN and inf fail every check
        inf = math.inf
        if not (0.0 < self.t_end < inf):
            raise ConfigError("t_end must be finite and positive")
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError("cfl must lie in (0, 1]")
        if not (0.0 < self.resolved_dt_max() < inf):
            raise ConfigError("dt_max must be finite and positive")
        if not (-inf < self.dt_min < self.resolved_dt_max()):
            raise ConfigError("dt_min must be finite and below dt_max")
        if not (-inf < self.blowup_cap < inf):
            raise ConfigError("blowup_cap must be finite")
        if not (1 <= self.diag_every < inf):
            raise ConfigError("diag_every must be >= 1")


@dataclass
class RunResult:
    termination: TerminationInfo
    rows: List[DiagnosticsRow]
    final_state: State
    grid: Grid
    steps: int
    mass_law_residual_u: float  # max over steps, relative
    mass_law_residual_v: float
    min_u_seen: float
    min_v_seen: float
    v_w12_final: float  # (int v^2 + int |grad v|^2)^(1/2), monitoring only
    v_w12_max: float
    probe_states: List[State] = dc_field(default_factory=list)


class _Kernel:
    """Per-run precomputation and the one-pass explicit step.

    Built once per run: the effective nonlinearities, which fold the exact
    identities of the parameters (nonlin.effective_*), the constant factors of
    the three CFL rates and of their bounds, and the face buffers. The rates
    have one formula, the model's: an override's zero_psi or zero_f only sets
    the constants of the drift or reaction slope to 0, the exact slope of
    zero, and unit_phi sets the diffusion bound's exponent to 0. A step
    calls gradients(s) on its state s = (u, v), then dt_bound and advance,
    which read those gradients (grad, with the views dvf of v's row and
    du_in, dv_in of the interior faces); advance leaves the face mobility
    phi(u_face) in mob. Its methods take validated float arrays and do no
    domain checks.
    """

    def __init__(self, grid: Grid, p: ModelParams, ov: Optional[Overrides]):
        self.grid = grid
        self.phi = effective_phi(p, ov)
        self.psi = effective_psi(p, ov)
        self.f = effective_f(p, ov)
        V = grid.cell_volume
        T = grid.trans
        self.diff_geom = float(np.maximum.reduce((T[:-1] + T[1:]) / V))  # = 2/h^2 on an interval
        th = T * grid.h
        self.adv_l = th[:-1] / V  # A_j/V_i for the left face of each cell
        self.adv_r = th[1:] / V
        # the drift slope psi'(u) = psi_c*beta*u^(beta-1); at beta = 1 it is
        # the constant psi_c*beta, and max(c*g) = c*max(g) exactly for c >= 0.
        # A zero psi or f has the exact slope 0, so its rate is 0.0.
        unit_phi = ov is not None and ov.unit_phi
        zero_psi = ov is not None and ov.zero_psi
        zero_f = ov is not None and ov.zero_f
        self.slope_c = 0.0 if zero_psi else p.psi_c * p.beta
        self.slope_exp = None if zero_psi or p.beta == 1.0 else p.beta - 1.0
        self.react_c = 0.0 if zero_f else p.b * p.kappa
        self.react_exp = 0.0 if zero_f else p.kappa - 1.0
        self.eps = p.eps
        self.h = grid.h
        # bounds of the diffusion and drift rates (module docstring); a unit
        # phi is ln^0, whose bound is 1 up to the slack
        self._alpha = 0.0 if unit_phi else p.alpha
        self._diff_slack = _slack(self._alpha)
        self._adv_slack = _slack(0.0 if self.slope_exp is None else self.slope_exp)
        self.lead_drift = False  # whether the drift rate limited the last dt_bound
        # face gradients of u and v, and the face flux; boundary faces stay zero
        n = grid.cells + 1
        self.grad = np.zeros((2, n))
        self.dvf = self.grad[1]
        self._grad_in = self.grad[:, 1:-1]
        self.du_in, self.dv_in = self._grad_in[0], self._grad_in[1]
        self._flux = np.zeros(n)
        self._flux_in = self._flux[1:-1]
        self.mob: Optional[np.ndarray] = None

    @cached_property
    def _tri(self) -> "_Tridiag":
        # built on the first advance, so that cfl_dt() does not pay for it
        return _Tridiag(self.grid)

    @cached_property
    def _adv_geom(self) -> float:
        # max_i (adv_l + adv_r), for the drift bound; step() does not pay for it
        return float(np.maximum.reduce(self.adv_l + self.adv_r))

    def gradients(self, s: np.ndarray) -> None:
        """Set self.grad to the face gradients of u and v, s = (u, v), each bitwise grad_faces."""
        g = self._grad_in
        np.subtract(s[:, 1:], s[:, :-1], out=g)
        np.divide(g, self.h, out=g)

    def _rate_diff(self, u: np.ndarray) -> float:
        return float(np.maximum.reduce(self.phi(u))) * self.diff_geom

    def _rate_drift(self, u: np.ndarray, dvf: np.ndarray) -> float:
        # donor-respecting drift rate: cell i loses mass across its left face
        # only when the drift there points left, across its right face only
        # when it points right; the positivity bound needs exactly those terms.
        geom_dv = self.adv_l * np.maximum(-dvf[:-1], 0.0) + self.adv_r * np.maximum(dvf[1:], 0.0)
        if self.slope_exp is None:
            return self.slope_c * float(np.maximum.reduce(geom_dv))
        slope = self.slope_c * u ** self.slope_exp
        return float(np.maximum.reduce(slope * geom_dv))

    def _bound_diff(self, umax: float) -> float:
        phi_max = _pow(math.log1p(umax + self.eps), self._alpha) * self._diff_slack + _TINY
        return phi_max * self.diff_geom

    def _bound_drift(self, umax: float, v_range: float) -> float:
        g = self._adv_geom * (v_range / self.h) * _GEOM_SLACK + _TINY
        if self.slope_exp is None:
            return self.slope_c * g
        return self.slope_c * (_pow(umax, self.slope_exp) * self._adv_slack + _TINY) * g

    def dt_bound(self, u: np.ndarray, umax: float, v_range: float, cfl: float) -> float:
        """cfl / max(diffusive, advective, reaction rate), after gradients(s).

        umax = max(u) and v_range = max(v) - min(v). A rate whose bound is at
        most the max of the rates already computed is skipped as 0.0, which
        leaves the max as it is.
        """
        rate_react = self.react_c * _pow(umax + self.eps, self.react_exp) if umax > 0.0 else 0.0
        if self.lead_drift:
            rate_drift = self._rate_drift(u, self.dvf)
            skip = self._bound_diff(umax) <= max(rate_drift, rate_react)
            rate_diff = 0.0 if skip else self._rate_diff(u)
        else:
            rate_diff = self._rate_diff(u)
            skip = self._bound_drift(umax, v_range) <= max(rate_diff, rate_react)
            rate_drift = 0.0 if skip else self._rate_drift(u, self.dvf)
        self.lead_drift = rate_drift > rate_diff
        return cfl / (max(rate_diff, rate_drift, rate_react) + _RATE_GUARD)

    def advance(
        self,
        u: np.ndarray,
        v: np.ndarray,
        u_new: np.ndarray,
        v_new: np.ndarray,
        dt: float,
        f_u: np.ndarray,
    ) -> None:
        """One IMEX update of (u, v) into (u_new, v_new), given gradients((u, v)) and f_u = f(u).

        The outputs must not overlap the inputs; the v solve runs in place in
        v_new, a contiguous array. No validation: callers check the result for
        finiteness and positivity.
        """
        self.mob = interior_flux(self._flux_in, u, self.du_in, self.dv_in, self.phi, self.psi)
        # u + dt * (div + f_u) and v + dt * u_new, in the order of those expressions
        np.add(div_cells(self._flux, self.grid), f_u, out=u_new)
        np.multiply(dt, u_new, out=u_new)
        np.add(u, u_new, out=u_new)
        np.multiply(dt, u_new, out=v_new)
        np.add(v, v_new, out=v_new)
        self._tri.solve(1.0 + dt, dt, v_new, in_place=True)


class _Tridiag:
    """Solver for (c I - s Lap) v = rhs with Neumann boundaries (tridiagonal).

    c = 1 + dt, s = dt is the screened backward-Euler step; c = s = 1 the
    steady signal equation. The couplings are formed as (-s T) / V, in that
    order, so every caller's matrix is rounded identically. The boundary
    couplings are -0.0, as (-s * 0) / V gives.
    """

    def __init__(self, grid: Grid):
        V = grid.cell_volume
        t_in = grid.trans[1:-1]
        n = grid.cells
        couplings = np.empty(2 * n)
        couplings[0] = couplings[-1] = -0.0
        self.lower = couplings[:n]  # coupling of row i to i-1
        self.upper = couplings[n:]  # coupling of row i to i+1
        self.sub, self.sup = self.lower[1:], self.upper[:-1]
        # sub and sup are adjacent in couplings: one product and one quotient
        # form both, (-s T[1:-1]) / V[1:] and (-s T[1:-1]) / V[:-1]
        self._inner = couplings[1:-1]
        self._t_in2 = np.concatenate((t_in, t_in))
        self._v_in2 = np.concatenate((V[1:], V[:-1]))
        self._diag = np.empty(n)

    def solve(self, c: float, s: float, rhs: np.ndarray, in_place: bool = False) -> np.ndarray:
        """The solution; in_place overwrites rhs with it (rhs must be a contiguous float array)."""
        np.multiply(-s, self._t_in2, out=self._inner)
        np.divide(self._inner, self._v_in2, out=self._inner)
        diag = self._diag
        np.subtract(c, self.upper, out=diag)
        np.subtract(diag, self.lower, out=diag)
        # dgtsv overwrites sub, diag and sup; solve refills them every call
        _, _, _, x, info = _dgtsv(self.sub, diag, self.sup, rhs, 1, 1, 1, int(in_place))
        if info != 0:
            raise NumericsError(f"tridiagonal solve failed (info={info})")
        return x


def initial_table_key(cfg: RunConfig) -> tuple:
    """The inputs that determine run(cfg)'s initial G-table, its TableCache key.

    They are the ratio inputs (alpha, beta, eps, psi_c, s0), the ratio spec,
    s_max (ten times the largest of 1, 2 s0 and max u0) and table_tol; not a,
    b, kappa, the grid or the rest of the data. The cache builds with
    build_table's s_min, and every table has the same knot density, so those
    are the same for every key.
    """
    p = cfg.params
    ov = cfg.overrides
    ratio_spec = ov.ratio_spec if ov is not None else RatioSpec.model()
    s_max = 10.0 * max(1.0, 2.0 * p.s0, float(np.max(np.asarray(cfg.u0, dtype=float))))
    return (p.alpha, p.beta, p.eps, p.psi_c, p.s0, ratio_spec, s_max, cfg.table_tol)


class TableCache:
    """The initial G-tables of one call, each built once per distinct input.

    Runs whose configurations have the same initial_table_key share one
    table. A shared table carries the params of the run that built it; a
    table reads only their ratio inputs. A cache belongs to one process and
    one thread. There is no module-level cache: each run or
    continuous_dependence call makes its own, and each run_sweep task (the
    points of one table group) its own, which lives no longer than that call
    or task.
    """

    def __init__(self):
        self._tables: Dict[tuple, FunctionalTable] = {}

    def get(self, cfg: RunConfig) -> FunctionalTable:
        """run(cfg)'s initial G-table, built at most once per initial_table_key(cfg)."""
        key = initial_table_key(cfg)
        table = self._tables.get(key)
        if table is None:
            ratio_spec, s_max, tol = key[-3:]
            table = build_table(cfg.params, ratio_spec, s_max=s_max, tol=tol)
            self._tables[key] = table
        return table


def _checked_state(state: State, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """The state's fields as float arrays, after the API-boundary checks.

    Raises UsageError for a wrong length or non-finite entries and
    DomainError for a negative density or signal.
    """
    u = validate_field(state.u, grid, "u")
    v = validate_field(state.v, grid, "v")
    if u.min() < 0.0 or v.min() < 0.0:
        raise DomainError("the state must be nonnegative")
    return u, v


def cfl_dt(
    state: State,
    grid: Grid,
    p: ModelParams,
    cfl: float,
    ov: Optional[Overrides] = None,
) -> float:
    """Stable explicit step: cfl / max(diffusive, advective, reaction rate).

    The per-cell rates use the actual face areas and cell volumes, so the
    diffusive bound equals cfl*h^2/(2*max phi) on an interval and is tighter
    near the origin of a radial grid. The drift rate is donor-respecting:
    each cell counts only the faces across which it donates mass, weighted by
    its own mobility slope, which is exactly what positivity of the upwind
    update requires. The reaction rate is the growth term's slope bound on
    [0, max u]. Every rate is an exact bound, with no sampling: the drift
    and reaction rates are the model's slope formulas, or 0 where the
    overrides set psi or f to zero, and the diffusion rate is max phi over
    the cells, which bounds phi on the faces, phi being nondecreasing (or 1).
    """
    u, v = _checked_state(state, grid)
    kern = _Kernel(grid, p, ov)
    v_range = float(np.maximum.reduce(v)) - float(np.minimum.reduce(v))
    kern.gradients(np.stack((u, v)))
    return kern.dt_bound(u, float(np.maximum.reduce(u)), v_range, cfl)


def step(
    state: State,
    dt: float,
    grid: Grid,
    p: ModelParams,
    ov: Optional[Overrides] = None,
) -> State:
    """One IMEX step: explicit u, implicit v.

    Raises DomainError on a negative input state and NumericsError on
    non-finite results.
    """
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    u, v = _checked_state(state, grid)
    kern = _Kernel(grid, p, ov)
    kern.gradients(np.stack((u, v)))
    u_new, v_new = np.empty((2, grid.cells))
    kern.advance(u, v, u_new, v_new, dt, kern.f(u))
    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise NumericsError(f"non-finite state after step at t={state.t:g}")
    return State(u_new, v_new, state.t + dt)


def steady_signal(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve the steady signal equation (-Lap + 1) v = u (used for matched initial data).

    Raises UsageError for a u of the wrong length or with non-finite entries.
    """
    return _Tridiag(grid).solve(1.0, 1.0, validate_field(u, grid, "u"))


def run(
    cfg: RunConfig,
    probe_times: Optional[Sequence[float]] = None,
    tables: Optional[TableCache] = None,
) -> RunResult:
    """March the configured system to t_end or to a termination event.

    Diagnostics are emitted every diag_every steps and at termination, so a
    run ends on a row of its final state: a DtUnderflow on its last step's
    own row, a NumericalFailure on a row of its last valid state whose step
    columns (dt, dissipation_rhs, identity_residual) are nan. When
    probe_times are given, the step size is clamped so the trajectory lands on
    each probe time exactly and the state there is recorded. The initial
    G-table comes from `tables`, so runs that share a cache share their
    tables; without one the run uses a private cache.
    """
    grid = make_grid(cfg.domain)
    cfg.validate(grid)
    p = cfg.params
    ov = cfg.overrides
    kern = _Kernel(grid, p, ov)
    dt_max = cfg.resolved_dt_max()
    V = grid.cell_volume
    n = grid.cells

    # the current state (u, v) and the next; each step writes nxt from cur,
    # then the two swap (see "Buffers" in the module docstring)
    cur, nxt = np.empty((2, 2, n))
    u, v = cur
    u_new, v_new = nxt
    u[:] = np.asarray(cfg.u0, dtype=float)
    v[:] = np.asarray(cfg.v0, dtype=float)
    t = 0.0
    m0 = linf(u)
    if tables is None:
        tables = TableCache()
    table = tables.get(cfg)

    probes: List[float] = (
        sorted(float(x) for x in probe_times) if probe_times is not None else []
    )
    probe_states: List[State] = []
    pi = 0
    while pi < len(probes) and probes[pi] <= 0.0:
        probe_states.append(State(u.copy(), v.copy(), t))
        pi += 1

    rows: List[DiagnosticsRow] = []
    w12: List[float] = []  # the W^{1,2} norm of v at each row
    caller_err = np.geterr()

    # the two row routines take the state as arguments: a name they closed
    # over would be a cell variable of run(), slower to reach in the loop
    def state_row(t, u, v, mass_u, mass_v, umax, dv, fill):
        """Append a row of the state (u, v) at t, with fill in its step columns; return F.

        umax = max(u) and dv is the face gradient of v.
        """
        nonlocal table
        table = table.covering(umax)
        terms = lyapunov_terms(table.g(np.maximum(u, table.s_min)), u, v, dv, grid)
        F, umin = terms.F_total, float(np.minimum.reduce(u))
        rows.append(DiagnosticsRow(t, fill, mass_u, mass_v, umax, umin, F, fill, fill))
        w12.append(terms.v_w12)
        return F

    def step_row(
        t_new, dt, mass_u_new, mass_v_new, new, old, umax_new, umin_new, umax_old, F_old, f_u
    ):
        """Append the row of the step from old = (u, v) to new and return F(new).

        The kernel's gradients are old's, and its mobility and f_u are the
        step's. G at both states and G' at old come from one Hermite basis.
        F_old, when known, is F(old). Runs under the caller's float settings.
        """
        nonlocal table
        (u_new, v_new), (u_old, v_old) = new, old
        with np.errstate(**caller_err):
            table = table.covering(max(umax_new, umax_old))
            s_min = table.s_min
            basis = table.basis(np.maximum(np.concatenate((u_new, u_old)), s_min))
            G = table.g_on(basis)
            terms = lyapunov_terms(G[:n], u_new, v_new, grad_faces(v_new, grid), grid)
            if F_old is None:
                F_old = lyapunov_terms(G[n:], u_old, v_old, kern.dvf, grid).F_total
            gp = table.gp_on(tuple(b[n:] for b in basis))
            v_t = (v_new - v_old) / dt
            rhs = dissipation_terms(
                u_old, v_old, v_t, kern.du_in, kern.dv_in, kern.mob, kern.psi, f_u, gp, s_min, grid
            )
        F_new = terms.F_total
        rows.append(
            DiagnosticsRow(
                t_new, dt, mass_u_new, mass_v_new, umax_new, umin_new,
                F_new, rhs, abs((F_new - F_old) / dt - rhs),
            )
        )
        w12.append(terms.v_w12)
        return F_new

    vmin, vmax, dot = np.minimum.reduce, np.maximum.reduce, np.dot
    mass_u = float(dot(u, V))
    mass_v = float(dot(v, V))
    # max u and the range of v of the current state: measured once, by the
    # previous step's checks
    umax = float(vmax(u))
    v_range = float(vmax(v)) - float(vmin(v))
    # F of the current state when its row recorded it, else None. The table
    # only ever extends upward and keeps its values below the old s_max, so F
    # of a state does not depend on when it is evaluated: reusing the row's F,
    # or computing F_prev after F_now, gives the same value bitwise.
    F_cur: Optional[float] = state_row(t, u, v, mass_u, mass_v, umax, grad_faces(v, grid), 0.0)

    mass_res_u = 0.0
    mass_res_v = 0.0
    min_u_seen = float(vmin(u))
    min_v_seen = float(vmin(v))

    steps = 0
    termination: Optional[TerminationInfo] = None
    t_end, cfl, dt_min, cap = cfg.t_end, cfg.cfl, cfg.dt_min, cfg.blowup_cap
    t_goal = t_end * (1.0 - 1e-15)
    grow_floor = 10.0 * m0

    with np.errstate(all="ignore"):
        while t < t_goal:
            kern.gradients(cur)
            dt_c = min(kern.dt_bound(u, umax, v_range, cfl), dt_max)
            if dt_c < dt_min:
                termination = TerminationInfo(Termination.DT_UNDERFLOW, t)
                break
            dt = min(dt_c, t_end - t)
            if pi < len(probes):
                dt = min(dt, probes[pi] - t)

            will_diag = (steps + 1) % cfg.diag_every == 0
            f_u = kern.f(u, umax)
            f_mass = float(dot(f_u, V))

            kern.advance(u, v, u_new, v_new, dt, f_u)
            min_u_new, min_v_new = vmin(nxt, axis=1).tolist()
            max_u, max_v_new = vmax(nxt, axis=1).tolist()
            # min and max propagate NaN, and every comparison with NaN is False:
            # a NaN or -inf cell fails 0 <= min, a +inf cell fails max < inf, so
            # this holds exactly when both fields are finite and nonnegative
            if not (
                0.0 <= min_u_new
                and max_u < math.inf
                and 0.0 <= min_v_new
                and max_v_new < math.inf
            ):
                termination = TerminationInfo(Termination.NUMERICAL_FAILURE, t)
                break
            steps += 1
            t_new = t + dt

            mass_u_new = float(dot(u_new, V))
            mass_v_new = float(dot(v_new, V))
            mass_res_u = max(
                mass_res_u,
                abs(mass_u_new - mass_u - dt * f_mass) / max(abs(mass_u), 1e-300),
            )
            mass_res_v = max(
                mass_res_v,
                abs(mass_v_new - mass_v - dt * (mass_u_new - mass_v_new))
                / max(abs(mass_v), abs(mass_u_new), 1e-300),
            )
            min_u_seen = min(min_u_seen, min_u_new)
            min_v_seen = min(min_v_seen, min_v_new)

            while pi < len(probes) and t_new >= probes[pi] - 1e-12 * max(1.0, probes[pi]):
                probe_states.append(State(u_new.copy(), v_new.copy(), t_new))
                pi += 1

            blown = max_u > cap and max_u >= grow_floor
            final_step = t_new >= t_goal

            F_prev, F_cur = F_cur, None
            if will_diag or blown or final_step:
                F_cur = step_row(
                    t_new, dt, mass_u_new, mass_v_new, nxt, cur, max_u, min_u_new, umax, F_prev, f_u
                )

            cur, nxt, u, v, u_new, v_new = nxt, cur, u_new, v_new, u, v
            t, umax, v_range = t_new, max_u, max_v_new - min_v_new
            mass_u, mass_v = mass_u_new, mass_v_new

            if blown:
                termination = TerminationInfo(Termination.BLOWUP, t, blowup_estimate=t - dt)
                break

    if termination is None:
        termination = TerminationInfo(Termination.COMPLETED, t)
    elif F_cur is None:
        # the run stopped after steps that wrote no row
        if termination.tag == Termination.DT_UNDERFLOW:
            # nxt still holds the state the last step advanced from, and
            # kern.mob and f_u are still that step's: its own row, bitwise
            # the one a diag_every = 1 run writes
            kern.gradients(nxt)
            umax_old = float(vmax(nxt[0]))
            step_row(t, dt, mass_u, mass_v, cur, nxt, umax, min_u_new, umax_old, F_prev, f_u)
        else:
            # the failed step overwrote nxt: a row of the last valid state,
            # whose face gradients the kernel still holds
            state_row(t, u, v, mass_u, mass_v, umax, kern.dvf, math.nan)

    return RunResult(
        termination,
        rows,
        State(u.copy(), v.copy(), t),
        grid,
        steps,
        mass_res_u,
        mass_res_v,
        min_u_seen,
        min_v_seen,
        w12[-1],
        max(w12),
        probe_states,
    )


# ---------------------------------------------------------------------------
# continuous dependence and regularization scans


@dataclass
class DependenceRecord:
    """Sup-norm separation of two runs differing by a delta-sized bump in u0."""

    times: np.ndarray
    separations: np.ndarray
    delta: float
    fitted_rate: float  # C in separation <= K exp(C t) delta
    fitted_prefactor: float
    both_completed: bool


def perturbation_bump(grid: Grid) -> np.ndarray:
    """Fixed smooth bump (max ~1) used to perturb initial data deterministically."""
    xi = grid.centers / grid.spec.extent
    return np.exp(-(((xi - 0.35) / 0.18) ** 2))


def continuous_dependence(
    cfg: RunConfig, delta: float, t_probe: float, n_probe: int = 33
) -> DependenceRecord:
    """Run cfg and a u0-perturbed copy; record sup-norm separation at matched times."""
    if delta < 0.0:
        raise ConfigError("delta must be >= 0")
    if t_probe > cfg.t_end:
        raise ConfigError("t_probe must not exceed t_end")
    grid = make_grid(cfg.domain)
    times = np.linspace(0.0, t_probe, n_probe)
    base = replace(cfg, t_end=t_probe)
    tables = TableCache()
    r1 = run(base, probe_times=times, tables=tables)
    bump = perturbation_bump(grid)
    r2 = run(
        replace(base, u0=np.asarray(cfg.u0, dtype=float) + delta * bump),
        probe_times=times,
        tables=tables,
    )
    k = min(len(r1.probe_states), len(r2.probe_states))
    seps = np.array(
        [linf(r1.probe_states[i].u - r2.probe_states[i].u) for i in range(k)]
    )
    ts = times[:k]
    both = (
        r1.termination.tag == Termination.COMPLETED
        and r2.termination.tag == Termination.COMPLETED
    )
    if delta > 0.0 and np.any(seps > 0.0):
        mask = seps > 0.0
        y = np.log(seps[mask] / delta)
        A = np.vstack([np.ones(int(mask.sum())), ts[mask]]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        prefactor, rate = float(np.exp(coef[0])), float(coef[1])
    else:
        prefactor, rate = 0.0, 0.0
    return DependenceRecord(ts, seps, delta, rate, prefactor, both)


@dataclass
class EpsScanResult:
    """Final states at a probe time for a decreasing regularization sequence."""

    eps_values: List[float]
    states: List[State]
    gaps: List[float]  # sup-norm distance between consecutive eps states
    strictly_decreasing: bool


def epsilon_convergence_scan(
    cfg: RunConfig, eps_list: Sequence[float], t_probe: float
) -> EpsScanResult:
    """Run the same configuration for each eps and compare states at t_probe.

    All runs must complete to the probe time; a blow-up or failure aborts the
    scan with the offending eps attached to the error.
    """
    eps_values = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ConfigError("eps_list must be strictly decreasing")
    states: List[State] = []
    for e in eps_values:
        cfg_e = replace(cfg, params=replace(cfg.params, eps=e), t_end=t_probe)
        res = run(cfg_e)
        if res.termination.tag != Termination.COMPLETED:
            raise ScanAbortedError(
                f"run with eps={e:g} terminated {res.termination.tag.value} "
                f"at t={res.termination.t_final:g}",
                offender=e,
            )
        states.append(res.final_state)
    gaps = [linf(states[i].u - states[i + 1].u) for i in range(len(states) - 1)]
    decreasing = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])) if len(gaps) > 1 else True
    return EpsScanResult(eps_values, states, gaps, decreasing)
