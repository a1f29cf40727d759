"""Independent face-flux and growth-cutoff oracles for the tests.

Each flux is written out on its own, with its own domain check and an
optional mobility callable, so that the tests can hold the scheme's one flux
formula (discrete.interior_flux, used by step, run and steady_residual) to a
second, plain implementation of the same discretisation. The cutoff window
is written out from smooth_step, so that the tests can hold the library's
one cutoff (nonlin._cut_off, behind growth_reg) to the formula it folds.
RATIOS and TABLE_GRID are the ratio kinds and parameters (alpha, beta, eps)
that the G-table oracles walk.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ksfv.core import Grid, ModelParams
from ksfv.errors import DomainError
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
