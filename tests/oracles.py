"""Independent face-flux and growth-cutoff oracles for the tests.

Each flux is written out on its own, with its own domain check and an
optional mobility callable, so that the tests can hold the scheme's one flux
formula (discrete.interior_flux, used by step, run and steady_residual) to a
second, plain implementation of the same discretisation. The cutoff window
is written out from smooth_step, so that the tests can hold the library's
one cutoff (nonlin._cut_off, behind growth_reg) to the formula it folds,
and so is the masked cut-off that the library's took before, which zeroed
the saturated cells under a where= mask.
RATIOS and TABLE_GRID are the ratio kinds and parameters (alpha, beta, eps)
that the G-table oracles walk. The lockstep helpers build runs made to end
one way or another, march them together and compare each run's record with
its solo run's, byte for byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Callable, Dict, Optional

import numpy as np
import pytest

import ksfv
from ksfv.core import Grid, ModelParams, State
from ksfv.errors import DomainError
from ksfv.output import rows_to_csv
from ksfv.nonlin import RatioSpec, diffusivity_reg, sensitivity, smooth_step

RATIOS = {
    "model": RatioSpec.model(),
    "unit": RatioSpec.unit(),
    "custom": RatioSpec.custom(lambda t: 1.0 / (t * math.sqrt(1.0 + t)), lambda t: -1.0 / t),
}
TABLE_GRID = [
    (alpha, beta, eps)
    for alpha in (1.0, 2.0)
    for beta in (1.0, 2.0, 2.5, 3.0)
    for eps in (0.0, 1e-3, 1e-2)
]


def diffusive_flux(
    u: np.ndarray,
    grid: Grid,
    p: ModelParams,
    phi: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Face flux of the nonlinear diffusion: phi(u_face) * du/dx, u_face arithmetic mean."""
    if np.min(u) < 0.0:
        raise DomainError("diffusive flux requires a nonnegative density")
    mob = phi if phi is not None else (lambda w: diffusivity_reg(w, p))
    flux = np.zeros(grid.cells + 1)
    u_face = 0.5 * (u[1:] + u[:-1])
    flux[1:-1] = mob(u_face) * (np.diff(u) / grid.h)
    return flux


def chemotactic_flux(
    u: np.ndarray,
    v: np.ndarray,
    grid: Grid,
    p: ModelParams,
    psi: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Donor-cell drift flux psi(u_upwind) * dv/dx toward increasing v; zero on the boundary."""
    if np.min(u) < 0.0:
        raise DomainError("chemotactic flux requires a nonnegative density")
    mob = psi if psi is not None else (lambda w: sensitivity(w, p))
    flux = np.zeros(grid.cells + 1)
    dv = np.diff(v) / grid.h
    donor = np.where(dv > 0.0, u[:-1], u[1:])
    flux[1:-1] = mob(donor) * dv
    return flux


def growth_cutoff(u, p: ModelParams):
    """Smooth window equal to 1 on [0, 1/(2 eps)] and 0 beyond 1/eps (1 everywhere for eps=0)."""
    u = np.asarray(u, dtype=float)
    if p.eps <= 0.0:
        return np.ones_like(u)
    lo = 1.0 / (2.0 * p.eps)
    hi = 1.0 / p.eps
    return 1.0 - smooth_step((u - lo) / (hi - lo))


def masked_growth_reg(u, p: ModelParams) -> np.ndarray:
    """growth_reg(u, p) as the masked cut-off computed it, on u flattened.

    f = a - b u^kappa; where u > 1/(2 eps), f times 0.0 under the mask
    u >= 1/eps, in place, and f times the window, gathered, on the band
    between the thresholds; at eps = 0 nothing is cut.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    f = np.subtract(p.a, p.b * u ** p.kappa)
    lo, hi = (1.0 / (2.0 * p.eps), 1.0 / p.eps) if p.eps > 0.0 else (math.inf, math.inf)
    hot = u > lo
    if np.count_nonzero(hot):
        saturated = u >= hi
        np.multiply(f, 0.0, out=f, where=saturated)
        band = hot & ~saturated
        f[band] *= 1.0 - smooth_step((u[band] - lo) / (hi - lo))
    return f


# ---------------------------------------------------------------------------
# lockstep runs: configurations that end as asked, and byte records


def ending_config(dom, p: ModelParams, mass: float, end: str, diag_every: int, after: int = 1):
    """A RunConfig on dom with p and a density scaled by mass, made to end as `end`.

    Completed and NumericalFailure: a cosine density, 10 steps of at most its
    initial CFL step (a NumericalFailure needs poisoned_advance as well).
    BlowUp and DtUnderflow: a small density that the growth a = 20 lifts ten
    times over within a few steps, with the cap at 5% of the mass, or with
    dt_min just above the CFL step of about the `after`-th step of the same
    run without one, which the faster diffusion of the grown density
    undercuts.
    """
    from ksfv.config import build_field
    from ksfv.solver import RunConfig, cfl_dt, run, steady_signal

    g = ksfv.make_grid(dom)
    if end in ("Completed", "NumericalFailure"):
        u0 = build_field(f"cosine:base={mass!r},amp={0.2 * mass!r},mode=1.0", g)
    else:
        p = dataclasses.replace(p, a=20.0, b=1.0)
        u0 = build_field(f"cosine:base={0.01 * mass!r},amp={0.002 * mass!r},mode=1.0", g)
    v0 = steady_signal(u0, g)
    if end in ("Completed", "NumericalFailure"):
        dt0 = cfl_dt(State(u0, v0, 0.0), g, p, 0.4)
        return RunConfig(dom, p, u0, v0, t_end=10 * dt0, dt_max=dt0, diag_every=diag_every)
    cfg = RunConfig(dom, p, u0, v0, t_end=0.3, dt_max=0.05, diag_every=diag_every)
    if end == "BlowUp":
        return dataclasses.replace(cfg, blowup_cap=0.05 * mass)
    # the CFL steps below dt_max, the last step's t_end clamp left out
    rows = run(dataclasses.replace(cfg, diag_every=1)).rows[1:-1]
    dts = [r.dt for r in rows if r.dt < cfg.dt_max]
    return dataclasses.replace(cfg, dt_min=math.nextafter(dts[min(after, len(dts) - 1)], math.inf))


@contextlib.contextmanager
def poisoned_advance(fail_after: Dict[float, int]):
    """Within the block, the lockstep kernel writes nan into the new density of
    each run whose blowup_cap is a key of fail_after, from that run's
    fail_after[cap]-th step on, so that run alone ends NumericalFailure."""
    import ksfv.solver as solver_mod

    real = solver_mod._Kernel.advance

    def advance(self, dt):
        real(self, dt)
        for k, m in enumerate(self.models):
            after = fail_after.get(m.cap)
            if after is not None and m.steps + 1 >= after:
                self.side.u_new[self.cells(k)][0] = np.nan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod._Kernel, "advance", advance)
        yield


def march(entries, first: int):
    """run_lockstep over entries: the first `first` at the start, the others
    one by one, each when a run ends. Returns {tag: outcome}."""
    from ksfv.lockstep import run_lockstep

    waiting = [list(entries[:first])] + [[e] for e in entries[first:]]
    out = run_lockstep(lambda: waiting.pop(0) if waiting else None)
    return dict(out)


def result_bytes(res):
    """Every number a RunResult holds, as bytes: rows, final state, scalars, probe states."""
    rows = np.array([dataclasses.astuple(r) for r in res.rows]).tobytes()
    state = res.final_state.u.tobytes() + res.final_state.v.tobytes()
    numbers = np.array([
        res.final_state.t, res.steps, res.mass_law_residual_u, res.mass_law_residual_v,
        res.min_u_seen, res.min_v_seen, res.v_w12_final, res.v_w12_max,
    ]).tobytes()
    probes = [(s.u.tobytes(), s.v.tobytes(), s.t) for s in res.probe_states]
    return rows, state, numbers, repr(res.termination), rows_to_csv(res.rows), probes
