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
both (energy.lyapunov_terms, energy.dissipation_terms, which take stacks of
states: a run's rows are evaluated in blocks, see "Lockstep"). The exact
identities of the parameters (ln^1 = ln, psi(u) = u at psi_c = beta = 1,
b = 1, a constant drift slope at beta = 1) are folded once per run, where
nonlin.effective_phi/psi/f build the check-free closures and where _Model
builds its rate factors. Every result is bitwise the unfolded scheme's.

Lockstep. lockstep.run_lockstep advances B >= 1 runs on one grid
together, and run(cfg) is the lockstep march of one run, so there is one
step loop, and a lone run takes the same path as a batch; the per-run state
and rows live in lockstep._Point. Each run's record is bitwise its solo
run's whatever runs beside it. Batched, one numpy call per quantity for all
the runs: the face gradients, phi, psi, the flux, its divergence, the u and
v right-hand sides, the v solves, the min/max checks and the mass sums. The
mass sums are one np.vecdot of each run's new u, new v and f(u) against the
cell volumes: vecdot sums each row with the BLAS ddot that np.dot calls, so
each sum is bitwise the run's own np.dot, under any OpenBLAS core (a BLAS
matrix product would not be bitwise per row). The v solves are one dgtsv
call on the block-diagonal system of all the runs, whose seams are +0.0
couplings (_Tridiag): when it fails or gives a non-finite solution, which
the seams would carry into the neighbouring runs, each run is solved again
alone from the saved right-hand sides. Batched per run, in blocks: the
diagnostics rows. On the step a row falls due, the run walks its G-table
over the row's span when the span leaves the range it walked last, a
walk upward going on ahead to twice the span's max (TableCache.covering;
a walk that raises a KsfvError ends that run alone, on that step), and
copies what the row reads into its block; one call per quantity evaluates
the block (lockstep._step_rows), with sums that are np.vecdot rows too,
once it holds about 2^10 cells and before the run ends. A walked table
only grows, so each row is bitwise the one evaluated on its own step. Each
run's own: f(u) and the reaction rate (kappa), dt with its clamps and
probes, the mass-law residuals, its termination, after which it leaves the
march, and its KsfvError, which ends it alone while the others go on. A
run's next dt, with its clamps and f(u), is decided at the end of the step
that produced its state, so a dt below dt_min ends the run on that step
and its row, as the cap and t_end do. phi is evaluated once per block of
runs with equal alpha and eps, psi and the drift slope once per block with
equal psi_c and beta, since numpy computes u ** 2.0 as a square and an
array exponent would not: the runs are ordered so that each block is
contiguous. Runs that share an initial G-table share its walked range
(TableCache.covering). Inside the kernel a lone run (B = 1) steps with a
float dt, with no per-cell dt array and no block loop.

Rate pruning. dt = cfl / (max(diffusion, drift, reaction) + guard), and the
max is all that is used. The reaction rate is O(1) and always computed. The
drift rate is computed first, over the cells, if it limited the last step
of any run, else the diffusion rate; the other one is computed only if, for
some run, its bound exceeds the max of that run's rates computed so far:
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
dt, is bitwise the unpruned value, whichever rate goes first and whether
or not the other is skipped: each run's dt is its solo dt.

Buffers. A march's kernel owns one (2, 3, B*cells) array: two buffers of
u, v and f rows, the current state and the next, each run's cells end to
end. A step reads the current state, writes f(u) into the next buffer's f
row and the next state into its u and v rows, and solves v in place in that
v row; then the two swap. Each buffer is therefore also a (3, B, cells)
stack of every run's new u, new v and the f(u) of the step to it, which the
one vecdot of the mass sums and the rows read. Everything a step reads or
writes, other than its numbers, is bound once per tiling, when the kernel
is built with its buffers, and selected by parity (_Side): the flat state
and its two shifted views for the one gradient difference, u's cells left
and right of each face, the face gradients of the state, the next buffer's
rows and its per-run views for the checks and the mass sums; and, in the
kernel, the flux and its seams, and the face products of the divergence,
which is written into the new u row. So a step slices, reshapes and
allocates nothing of its own bookkeeping. No ufunc call of a step takes a
Python float, which numpy would convert on every call, but a power of
exponent 0.5: each scalar operand is a 0-d float64 array bound once
(core.frozen), read-only at module level (interior_flux's 0.5 and 0.0,
_rate_drift's zeros, the v solves' 1.0 at B > 1), per kernel (the
gradients' h), per model (the drift slope's constant) or per closure (eps, psi_c, a, b and the growth cut-off's
thresholds, nonlin.effective_*); a lone run's dt and 1 + dt are 0-d arrays
the kernel owns and writes on each advance. +, -, *, /, min, max and the
comparisons are correctly rounded, so each result is bitwise the one with
the float. The exponents of the powers (alpha, beta and kappa in the
closures, beta - 1 in the drift rate) are bound alike, per closure and per
model (core.frozen_exponent), as numpy's power gives bitwise the float
exponent's result for a 0-d one (a premise test pins it; a per-cell
exponent array would change bits); an exponent of 0.5 stays the float,
for which numpy's sqrt fast path is the quicker. When a run ends or
joins, the runs left are tiled afresh into a new kernel, each keeping only
its current (u, v), from which the march prepares the new kernel's first
step.
Only those buffers are ever solved in place: step() and cfl_dt() build a
one-run kernel and copy the checked state into its buffer, and
steady_signal() solves a copy, so they leave their inputs untouched. Each
side owns the face gradients of its buffer's state, which hold until the
next gradients() call on that side: a step's row reads the gradients of
the state it advanced from after the next step's gradients() call has
taken the new state's. The gradients of u and v lie in one flat buffer,
u's faces then v's, where u's last face is v's first, so that one
difference over the flattened (2, B*cells) state takes every face at once;
grad is a read-only (2, B*cells + 1) view of that buffer whose rows overlap
at the shared face. The face between two runs is a boundary face of both,
as the grid's end faces are: its gradients are set to zero, with the
shared face, by one strided fill of every cells-th face before the
division by h, so that no difference across it overflows and its
transmissibility 0 never meets an overflowed gradient (0*inf is nan), and
its flux is set to +0.0 after the flux formula, so that each run's
divergence is its own. The grid-only factors of the CFL rates are computed
once per Grid (Grid.rate_geometry), so the kernel that cfl_dt() and step()
build per call does not recompute them.

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
from collections import namedtuple
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property, partial
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DomainSpec,
    Grid,
    ModelParams,
    State,
    frozen,
    frozen_exponent,
    linf,
    make_grid,
    validate_field,
)
from .discrete import div_cells, interior_flux

# perfbench/tracing.py wraps solver.lyapunov and solver.dissipation by name;
# the rows of a run (lockstep) call the term helpers
from .energy import dissipation, lyapunov  # noqa: F401
from .errors import ConfigError, DomainError, KsfvError, NumericsError, ScanAbortedError
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

# the step's constant operands, bound as 0-d arrays (core.frozen)
_ZERO, _ONE = frozen(0.0), frozen(1.0)


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
    table_tol: ClassVar[float] = 1e-10  # the G-table quadrature tolerance of every run

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


class _Model:
    """One run's nonlinearities and the scalar factors of its CFL rates.

    Built once per run: the effective nonlinearities, which fold the exact
    identities of the parameters (nonlin.effective_*), and the constant
    factors of the three CFL rates and of their bounds. The rates have one
    formula, the model's: an override's zero_psi or zero_f only sets the
    constants of the drift or reaction slope to 0, the exact slope of zero,
    and unit_phi sets the diffusion bound's exponent to 0. phi_key holds
    what phi reads, psi_key what psi and the drift slope read, so that runs
    with equal keys evaluate them in one call; lead_drift records whether
    the drift rate limited the run's last dt. umax, v_range and cfl are
    what _Kernel.dt_bound reads of the run: max(u) and max(v) - min(v) of
    its current state, and its CFL number.
    """

    __slots__ = (
        "phi", "psi", "f", "slope_c", "slope_op", "slope_exp", "slope_exp_op", "react_c",
        "react_exp", "eps", "alpha",
        "diff_slack", "adv_slack", "phi_key", "psi_key", "lead_drift", "umax", "v_range",
        "cfl",
    )

    def __init__(self, p: ModelParams, ov: Optional[Overrides]):
        self.phi = effective_phi(p, ov)
        self.psi = effective_psi(p, ov)
        self.f = effective_f(p, ov)
        unit_phi = ov is not None and ov.unit_phi
        zero_psi = ov is not None and ov.zero_psi
        zero_f = ov is not None and ov.zero_f
        # the drift slope psi'(u) = psi_c*beta*u^(beta-1); at beta = 1 it is
        # the constant psi_c*beta, and max(c*g) = c*max(g) exactly for c >= 0.
        # A zero psi or f has the exact slope 0, so its rate is 0.0.
        self.slope_c = 0.0 if zero_psi else p.psi_c * p.beta
        self.slope_op = frozen(self.slope_c)  # slope_c as the drift rate's ufunc operand
        self.slope_exp = None if zero_psi or p.beta == 1.0 else p.beta - 1.0
        # slope_exp as the drift rate's power exponent (the bounds keep the float)
        self.slope_exp_op = None if self.slope_exp is None else frozen_exponent(self.slope_exp)
        self.react_c = 0.0 if zero_f else p.b * p.kappa
        self.react_exp = 0.0 if zero_f else p.kappa - 1.0
        self.eps = p.eps
        # bounds of the diffusion and drift rates (module docstring); a unit
        # phi is ln^0, whose bound is 1 up to the slack
        self.alpha = 0.0 if unit_phi else p.alpha
        self.diff_slack = _slack(self.alpha)
        self.adv_slack = _slack(0.0 if self.slope_exp is None else self.slope_exp)
        self.phi_key = (unit_phi, p.alpha, p.eps)
        self.psi_key = (zero_psi, p.psi_c, p.beta)
        self.lead_drift = False
        self.umax = self.v_range = self.cfl = math.nan


# the geometry div_cells reads, tiled over the runs of a lockstep kernel
_Tiles = namedtuple("_Tiles", "face_area cell_volume")


def _by_block(blocks, name: str, x: np.ndarray) -> np.ndarray:
    """The model function `name` of each block on its part of x, cells or interior faces.

    blocks are (model, cells) pairs (_Kernel._blocks). The interior faces are
    one fewer than the cells: the last block ends one short, and a block's
    last face lies between two runs.
    """
    out = np.empty_like(x)
    for m, cells in blocks:
        part = slice(cells.start, min(cells.stop, len(x)))
        out[part] = getattr(m, name)(x[part])
    return out


class _Side:
    """The views of a step from buffer p of a kernel's (2, 3, B*cells) buffers, bound once.

    lo and hi: buffer p's (u, v) flattened, but its last or first cell, for
    the gradients' one difference; u, v, and ul, ur: u's cells left and right
    of each interior face; u_new, v_new, f_u: the rows the step writes;
    checks: their (u, v) as (2B, cells) rows, u of each run then v of each;
    sums: their (u, v, f) as a (3, B, cells) stack. The side owns the face
    gradients of buffer p's (u, v), which _Kernel.gradients(p) writes
    (module docstring, "Buffers"): grad, their read-only (2, B*cells + 1)
    view, dvf v's row of it, du_in and dv_in the interior faces'.
    """

    __slots__ = (
        "lo", "hi", "u", "v", "ul", "ur", "u_new", "v_new", "f_u", "checks", "sums", "grad",
        "g_in", "g_ends", "dvf", "dvf_l", "dvf_r", "du_in", "dv_in",
    )

    def __init__(self, buf: np.ndarray, p: int, B: int):
        flat = buf[p, :2].reshape(-1)
        self.lo, self.hi = flat[:-1], flat[1:]
        self.u, self.v = buf[p, 0], buf[p, 1]
        self.ul, self.ur = self.u[:-1], self.u[1:]
        new = buf[1 - p]
        self.u_new, self.v_new, self.f_u = new
        self.checks = new[:2].reshape(2 * B, -1)
        self.sums = new.reshape(3, B, -1)
        n = len(self.u) // B
        m = B * n + 1
        g = np.zeros(2 * m - 1)
        self.grad = np.ndarray((2, m), buffer=g, strides=(g.itemsize * (m - 1), g.itemsize))
        self.grad.flags.writeable = False
        # the differences, and the faces across the end of a run or a field
        self.g_in, self.g_ends = g[1:-1], g[::n]
        self.dvf = dvf = g[m - 1:]
        self.dvf_l, self.dvf_r = dvf[:-1], dvf[1:]
        self.du_in, self.dv_in = g[1:m - 1], g[m:-1]


class _Kernel:
    """The one-pass explicit step of B >= 1 runs on one grid, in lockstep, and its buffers.

    The runs' states lie end to end in the kernel's (2, 3, B*cells) buffers
    buf (module docstring, "Buffers"): run k's cells are cells(k) and its
    interior faces inner(k). Each elementwise op of the step is one numpy
    call for all the runs. A face between two runs is a boundary face of
    both: its gradients are zero and its flux +0.0. phi is evaluated once per
    block of consecutive runs with equal _Model.phi_key, psi and the drift
    slope once per block with equal psi_key; f and dt are per run, and the v
    solves are one _Tridiag.solve. A step from buffer par calls
    gradients(par), which selects sides[par] (side) and writes its face
    gradients; dt_bound and advance then read that side's state, gradients
    and f row, and advance leaves the face mobility phi(u_face) in mob. Every
    view and scratch array a step uses is bound when the kernel is built, and
    so is every scalar operand of its ufunc calls, as a 0-d array: h, which
    the gradients divide by, and the _ZERO and _ONE of the module; at B = 1
    advance writes dt and 1 + dt into the kernel's own 0-d _dt and _c. The
    drift rate's exponent is each model's slope_exp_op (module docstring,
    "Buffers"). Its methods take validated float arrays and do no domain
    checks.
    """

    def __init__(self, grid: Grid, models: Sequence[_Model]):
        self.grid = grid
        self.models = models
        self.n = n = grid.cells
        self.B = B = len(models)
        rates = grid.rate_geometry
        self.diff_geom, self._adv_geom = rates.diff_geom, rates.adv_geom
        self.h = grid.h
        self._h = frozen(self.h)
        self._phi_blocks = self._blocks("phi_key")
        self._psi_blocks = self._blocks("psi_key")
        self.adv_l, self.adv_r = np.tile(rates.adv_l, B), np.tile(rates.adv_r, B)
        A = grid.face_area
        self._geom = _Tiles(
            np.concatenate((np.tile(A[:-1], B), A[-1:])), np.tile(grid.cell_volume, B)
        )
        # a partial, not a lambda over self: a kernel in a reference cycle
        # would keep its runs' table caches alive until the cyclic collector
        self.phi, self.psi = models[0].phi, models[0].psi
        if len(self._phi_blocks) > 1:
            self.phi = partial(_by_block, self._phi_blocks, "phi")
        if len(self._psi_blocks) > 1:
            self.psi = partial(_by_block, self._psi_blocks, "psi")
        m = B * n + 1  # the faces of all the runs
        self._flux = np.zeros(m)
        self._flux_in = self._flux[1:-1]
        self._flux_seams = self._flux_in[n - 1::n]  # the interior faces between two runs
        self._af = np.empty(m)  # the face products A*F of div_cells
        self.mob: Optional[np.ndarray] = None
        # a lone run's dt and 1 + dt, written by each advance (B = 1)
        self._dt, self._c = np.zeros(()), np.zeros(())
        self.buf = np.zeros((2, 3, B * n))
        self.sides = (_Side(self.buf, 0, B), _Side(self.buf, 1, B))
        self.side = self.sides[0]  # the side of the last gradients() call
        self.failed: Sequence[Tuple[int, NumericsError]] = ()  # the runs whose last v solve failed

    def cells(self, k: int) -> slice:
        return slice(k * self.n, (k + 1) * self.n)

    def inner(self, k: int) -> slice:
        return slice(k * self.n, (k + 1) * self.n - 1)

    @cached_property
    def _tri(self) -> "_Tridiag":
        # built on the first advance, so that cfl_dt() does not pay for it
        return _Tridiag(self.grid, self.B)

    def _blocks(self, key: str) -> List[Tuple[_Model, slice]]:
        """The runs in blocks of equal `key`: each block's first model and its cells."""
        models, n = self.models, self.n
        keys = [getattr(m, key) for m in models]
        starts = [k for k in range(self.B) if k == 0 or keys[k] != keys[k - 1]]
        return [(models[a], slice(a * n, b * n)) for a, b in zip(starts, starts[1:] + [self.B])]

    def _rowmax(self, x: np.ndarray) -> List[float]:
        """The max of x over the cells of each run it covers."""
        return np.maximum.reduce(x.reshape(-1, self.n), axis=1).tolist()

    def gradients(self, par: int) -> None:
        """Select sides[par] and set its grad to the face gradients of buffer par's (u, v).

        Each run's are its grad_faces, bitwise. One difference over the state
        flattened, u's cells then v's, takes every face of every run; the
        faces it takes across the end of a run, between u and v included, are
        every n-th face (n cells a run), and one strided fill makes them
        boundary faces again. It comes before the division, so that no
        difference across an end can overflow there (0.0/h is +0.0).
        """
        side = self.side = self.sides[par]
        inner = side.g_in
        np.subtract(side.hi, side.lo, inner)
        side.g_ends.fill(0.0)
        np.divide(inner, self._h, inner)

    def load(self, s) -> _Side:
        """Copy the state s = (u, v) into buffer 0, take its gradients and return sides[0]."""
        side = self.sides[0]
        side.u[...], side.v[...] = s
        self.gradients(0)
        return side

    def _rate_diff(self, u: np.ndarray) -> List[float]:
        geom = self.diff_geom
        return [x * geom for x in self._rowmax(self.phi(u))]

    def _rate_drift(self, u: np.ndarray) -> List[float]:
        # donor-respecting drift rate: cell i loses mass across its left face
        # only when the drift there points left, across its right face only
        # when it points right; the positivity bound needs exactly those terms.
        left, right = self.side.dvf_l, self.side.dvf_r
        geom_dv = self.adv_l * np.maximum(-left, _ZERO) + self.adv_r * np.maximum(right, _ZERO)
        if len(self._psi_blocks) == 1:
            m = self.models[0]
            if m.slope_exp is None:
                c = m.slope_c
                return [c * x for x in self._rowmax(geom_dv)]
            return self._rowmax(m.slope_op * u ** m.slope_exp_op * geom_dv)
        # each block's slope into its cells; a constant slope c >= 0 there
        # gives max(c*g) = c*max(g) exactly
        slope = np.empty_like(u)
        for m, cells in self._psi_blocks:
            if m.slope_exp is None:
                slope[cells] = m.slope_c
            else:
                np.multiply(m.slope_op, u[cells] ** m.slope_exp_op, slope[cells])
        return self._rowmax(slope * geom_dv)

    def _bound_diff(self, m: _Model) -> float:
        phi_max = _pow(math.log1p(m.umax + m.eps), m.alpha) * m.diff_slack + _TINY
        return phi_max * self.diff_geom

    def _bound_drift(self, m: _Model) -> float:
        g = self._adv_geom * (m.v_range / self.h) * _GEOM_SLACK + _TINY
        if m.slope_exp is None:
            return m.slope_c * g
        return m.slope_c * (_pow(m.umax, m.slope_exp) * m.adv_slack + _TINY) * g

    def dt_bound(self) -> List[float]:
        """Each run's cfl / max(diffusive, advective, reaction rate) on the side of gradients().

        Each model's umax, v_range and cfl are read. The drift rate goes first
        if it limited any run's last dt, else the diffusion rate; the other
        one is skipped as 0.0 when every run's bound of it is at most the max
        of that run's rates already computed, which leaves each max as it is.
        """
        models, u = self.models, self.side.u
        if self.B == 1:
            # the same rule, on scalars: one run does the work it does alone.
            # With the general path at B = 1, damped's run took 26.6-28.3 us
            # a step in process, not 24.1-25.3 (median +11%), and
            # aggregation's 46.2-50.2, not 42.5-49.2 (+7%; 2-vCPU Xeon, six
            # alternations, each the min of 5 runs)
            m = models[0]
            umax = m.umax
            react = m.react_c * _pow(umax + m.eps, m.react_exp) if umax > 0.0 else 0.0
            if m.lead_drift:
                (drift,) = self._rate_drift(u)
                skip = self._bound_diff(m) <= max(drift, react)
                diff = 0.0 if skip else float(np.maximum.reduce(self.phi(u))) * self.diff_geom
            else:
                diff = float(np.maximum.reduce(self.phi(u))) * self.diff_geom
                skip = self._bound_drift(m) <= max(diff, react)
                drift = 0.0 if skip else self._rate_drift(u)[0]
            m.lead_drift = drift > diff
            return [m.cfl / (max(diff, drift, react) + _RATE_GUARD)]
        react = [
            m.react_c * _pow(m.umax + m.eps, m.react_exp) if m.umax > 0.0 else 0.0 for m in models
        ]
        if any([m.lead_drift for m in models]):
            drift = self._rate_drift(u)
            diff = [0.0] * self.B
            for m, a, r in zip(models, drift, react):
                if not self._bound_diff(m) <= max(a, r):
                    diff = self._rate_diff(u)
                    break
        else:
            diff = self._rate_diff(u)
            drift = [0.0] * self.B
            for m, d, r in zip(models, diff, react):
                if not self._bound_drift(m) <= max(d, r):
                    drift = self._rate_drift(u)
                    break
        out = []
        for m, d, a, r in zip(models, diff, drift, react):
            m.lead_drift = a > d
            out.append(m.cfl / (max(d, a, r) + _RATE_GUARD))
        return out

    def advance(self, dt) -> None:
        """One IMEX update of the side of gradients(): its (u, v) into its (u_new, v_new).

        The side's f_u must hold f(u). dt is the list of each run's step, or a
        lone run's step as a number. The v solves run in place in v_new, with
        the per-cell dt the u update uses. A run whose solve fails is listed
        in failed with its error, and the other runs go on. No validation:
        callers check the result for finiteness and positivity.
        """
        side = self.side
        u, v, u_new, v_new = side.u, side.v, side.u_new, side.v_new
        self.mob = interior_flux(
            self._flux_in, side.ul, side.ur, side.du_in, side.dv_in, self.phi, self.psi
        )
        if self.B == 1:
            # a scalar dt, in the kernel's 0-d _dt and _c: no per-cell dt
            # array. With the per-cell dt (and _Tridiag's (2, cells)
            # operands) at B = 1, damped's run took 25.8-26.7 us a step in
            # process, not 24.1-25.3 (median +6%), and aggregation's
            # 45.9-53.1, not 42.5-49.2 (+8%; in the runs of dt_bound's
            # figures)
            dt = dt[0] if isinstance(dt, list) else dt
            dt_cells, c = self._dt, self._c
            dt_cells[()] = dt
            c[()] = 1.0 + dt
        else:
            # after the flux formula, whose 0*inf there would be nan
            self._flux_seams.fill(0.0)
            dt_cells = np.array(dt).repeat(self.n)
            c = _ONE + dt_cells
        # u + dt * (div + f_u) and v + dt * u_new, in the order of those expressions
        div_cells(self._flux, self._geom, u_new, self._af)
        np.add(u_new, side.f_u, u_new)
        np.multiply(dt_cells, u_new, u_new)
        np.add(u, u_new, u_new)
        np.multiply(dt_cells, u_new, v_new)
        np.add(v, v_new, v_new)
        self.failed = self._tri.solve(c, dt_cells, v_new)[1]


class _Tridiag:
    """Solver for (c I - s Lap) v = rhs with Neumann boundaries, for B >= 1 runs end to end.

    c = 1 + dt, s = dt is the screened backward-Euler step; c = s = 1 the
    steady signal equation. c and s are numbers, or arrays with each run's
    value in each of its cells. The couplings lie in one flat (2, B*cells)
    array, lower (row i to i-1) then upper (row i to i+1), each run's cells
    end to end, and are formed as (s (-T)) / V, which is bitwise (-s T) / V,
    in that order, so every caller's matrix is rounded identically. A run's
    boundary couplings are the seams between runs: (s * +0.0) / V = +0.0.
    One dgtsv call solves every run. Across a seam its elimination and its
    back substitution subtract products with that +0.0 from the values on
    either side, which leaves every finite value as it is, the sign of a zero
    included, unless a -0.0 meets a neighbour's -0.0 or negative value; a
    march's right-hand sides v + dt u_new are never -0.0. A call that fails
    or gives a non-finite solution (a nan or inf times the seam's 0.0 is nan,
    which would reach the neighbouring runs) is redone run by run from the
    saved right-hand sides, so each run keeps its own outcome.
    """

    def __init__(self, grid: Grid, runs: int = 1):
        n = grid.cells
        self.n, self.B = n, runs
        # -T on each run's faces below and above its cells, with +0.0 at its ends
        t = -grid.trans
        t[0] = t[-1] = 0.0
        nt = np.concatenate((np.tile(t[:-1], runs), np.tile(t[1:], runs)))
        vol = np.tile(grid.cell_volume, 2 * runs)
        coup = np.empty(2 * runs * n)
        self.lower, self.upper = coup[:runs * n], coup[runs * n:]
        self.sub, self.sup = self.lower[1:], self.upper[:-1]
        self.diag = np.empty(runs * n)
        # one run's s is a 0-d array, and flat arrays are the cheaper operands;
        # the per-cell s of several runs broadcasts over (2, B*cells)
        shape = (2, runs * n) if runs > 1 else (2 * n,)
        self._nt, self._vol, self._coup = (a.reshape(shape) for a in (nt, vol, coup))
        self._saved = np.empty(runs * n) if runs > 1 else None

    def _bands(self, c, s) -> None:
        coup = self._coup
        np.multiply(s, self._nt, coup)
        np.divide(coup, self._vol, coup)
        np.subtract(c, self.upper, self.diag)
        np.subtract(self.diag, self.lower, self.diag)

    def solve(
        self, c, s, rhs: np.ndarray
    ) -> Tuple[np.ndarray, Sequence[Tuple[int, NumericsError]]]:
        """The solution, written over rhs, and the runs whose solve failed, with their errors.

        rhs must be a contiguous float array.
        """
        # dgtsv overwrites sub, diag and sup; solve refills them every call
        self._bands(c, s)
        saved = self._saved
        if saved is None:
            # one run: no saved copy of rhs and no finiteness sum. With the
            # block path at B = 1, damped's run took 25.6-27.5 us a step in
            # process, not 24.1-25.3 (median +7%), and aggregation's
            # 45.3-49.7, not 42.5-49.2 (+7%; in the runs of
            # _Kernel.dt_bound's figures)
            _, _, _, x, info = _dgtsv(self.sub, self.diag, self.sup, rhs, 1, 1, 1, 1)
            return x, () if info == 0 else [(0, _solve_error(info))]
        np.copyto(saved, rhs)
        _, _, _, x, info = _dgtsv(self.sub, self.diag, self.sup, rhs, 1, 1, 1, 1)
        # a non-finite solution gives a non-finite sum (so may a finite one
        # that overflows it, which only costs the retry)
        if info == 0 and math.isfinite(np.add.reduce(x)):
            return x, ()
        np.copyto(x, saved)
        self._bands(c, s)
        failed = []
        n = self.n
        for k in range(self.B):
            a, b = k * n, (k + 1) * n
            info = _dgtsv(self.sub[a:b - 1], self.diag[a:b], self.sup[a:b - 1], x[a:b], 1, 1, 1, 1)[4]
            if info != 0:
                failed.append((k, _solve_error(info)))
        return x, failed


def _solve_error(info: int) -> NumericsError:
    return NumericsError(f"tridiagonal solve failed (info={info})")


def initial_table_key(cfg: RunConfig) -> tuple:
    """The inputs that determine run(cfg)'s initial G-table, its TableCache key.

    They are the ratio inputs (alpha, beta, eps, psi_c, s0), the ratio spec,
    s_max (ten times the largest of 1, 2 s0 and max u0) and table_tol; not a,
    b, kappa, the grid or the rest of the data. The cache builds with
    build_table's s_min, and every table has the same knot density, so those
    are the same for every key. The table is walked from s0 up to s_max only;
    how far below s0 a run walks it depends on the data, so it is not a key:
    the rows of the runs that share the table walk it on demand, to the same
    values. sweep.run_sweep groups its points by this key too.
    """
    p = cfg.params
    ov = cfg.overrides
    ratio_spec = ov.ratio_spec if ov is not None else RatioSpec.model()
    s_max = 10.0 * max(1.0, 2.0 * p.s0, float(np.max(np.asarray(cfg.u0, dtype=float))))
    return (p.alpha, p.beta, p.eps, p.psi_c, p.s0, ratio_spec, s_max, cfg.table_tol)


# a walk upward goes on to this multiple of the largest point it must cover
# (TableCache.covering)
_AHEAD = 2.0


class TableCache:
    """The G-tables of one call, each built once per distinct input and walked once.

    Runs whose configurations have the same initial_table_key share one
    table. A shared table carries the params of the run that built it; a
    table reads only their ratio inputs. Each table is built walked from s0
    up to s_max, with build_table's knots and error bound. The rows of every
    run that shares it walk it on with covering(), and store the walked table
    back, so each extension is walked once per cache. covering() of any
    sequence of ranges gives bitwise build_table's eager walk over them, so
    a run's rows do not depend on the runs beside it. A cache belongs to one
    process and one thread. There is no module-level cache: each run or
    continuous_dependence call makes its own, and each run_sweep table group
    its own, which lives no longer than that call or group.
    """

    def __init__(self):
        self._tables: Dict[tuple, FunctionalTable] = {}
        self._exact: set = set()  # the keys whose walk ahead raised, walked exactly since

    def get(self, cfg: RunConfig) -> FunctionalTable:
        """run(cfg)'s G-table, built at most once per initial_table_key(cfg)."""
        key = initial_table_key(cfg)
        table = self._tables.get(key)
        if table is None:
            ratio_spec, s_max, tol = key[-3:]
            table = build_table(
                cfg.params, ratio_spec, s_max=s_max, tol=tol, walk_below_s0=False
            )
            self._tables[key] = table
        return table

    def covering(self, key: tuple, s: float, lo: float) -> FunctionalTable:
        """The table of key, walked on to contain s >= lo and lo and stored back.

        A walk upward goes on ahead, to _AHEAD * s, so that the spans of the
        next rows find most of their range walked: the aggregation run of
        tests/conftest.py, at dt_min = 3e-10, walks 4 times, not 28. The walk ahead runs under np.errstate(all="raise"); if
        it raises a KsfvError or an ArithmeticError it is discarded, the walk
        to s alone is taken under the caller's float settings, and key is not
        walked ahead again. A walked value does not depend on how far a walk
        went (FunctionalTable.covering), and a walk ahead that raised nothing
        met no floating-point condition on the segments that the walks to s
        alone would have taken, so every value, error and warning is the one
        of walking to each s alone.
        """
        table = self._tables[key]
        if table.knots[table.low] <= lo and s <= table.s_max:
            return table
        walked = None
        if s > table.s_max and key not in self._exact:
            try:
                with np.errstate(all="raise"):
                    walked = table.covering(_AHEAD * s, lo)
            except (KsfvError, ArithmeticError):
                self._exact.add(key)
        if walked is None:
            walked = table.covering(s, lo)
        self._tables[key] = walked
        return walked


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
    m = _Model(p, ov)
    m.umax = float(np.maximum.reduce(u))
    m.v_range = float(np.maximum.reduce(v)) - float(np.minimum.reduce(v))
    m.cfl = cfl
    kern = _Kernel(grid, [m])
    kern.load((u, v))
    return kern.dt_bound()[0]


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
    m = _Model(p, ov)
    kern = _Kernel(grid, [m])
    side = kern.load((u, v))
    m.f(side.u, None, side.f_u)
    kern.advance(dt)
    u_new, v_new = side.u_new, side.v_new
    if kern.failed:
        raise kern.failed[0][1]
    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise NumericsError(f"non-finite state after step at t={state.t:g}")
    return State(u_new, v_new, state.t + dt)


def steady_signal(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve the steady signal equation (-Lap + 1) v = u (used for matched initial data).

    Raises UsageError for a u of the wrong length or with non-finite entries.
    """
    v, failed = _Tridiag(grid).solve(_ONE, _ONE, validate_field(u, grid, "u").copy())
    if failed:
        raise failed[0][1]
    return v


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
    each probe time exactly and the state there is recorded. The G-table
    comes from `tables`, so runs that share a cache share their tables;
    without one the run uses a private cache. run(cfg) is the lockstep march
    of one run (lockstep.run_lockstep).
    """
    # imported here, so that importing ksfv does not compile the march
    from .lockstep import run_lockstep

    entries = [[(None, cfg, probe_times, TableCache() if tables is None else tables)]]
    ((_, outcome),) = run_lockstep(lambda: entries.pop() if entries else None)
    if isinstance(outcome, KsfvError):
        raise outcome
    return outcome


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
    strictly_decreasing: bool  # False with fewer than two gaps: nothing was compared

    @classmethod
    def of(cls, eps_values: List[float], states: List[State]) -> "EpsScanResult":
        gaps = [linf(a.u - b.u) for a, b in zip(states, states[1:])]
        decreasing = len(gaps) > 1 and all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        return cls(eps_values, states, gaps, decreasing)


def epsilon_convergence_scan(
    cfg: RunConfig, eps_list: Sequence[float], t_probe: float
) -> EpsScanResult:
    """Run the same configuration for each eps and compare states at t_probe.

    All runs must complete to the probe time; a blow-up or failure aborts the
    scan with a ScanAbortedError that holds the offending eps and the result
    over the runs that completed before it.
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
                completed=EpsScanResult.of(eps_values[:len(states)], states),
            )
        states.append(res.final_state)
    return EpsScanResult.of(eps_values, states)
