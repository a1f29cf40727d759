"""Conservative Neumann discrete calculus on interval and radial grids.

Face fluxes are stored as flux densities (outward-positive in +x/+r); the
divergence applies the face areas, so any flux that vanishes on the boundary
telescopes to zero total mass change. The diffusive face mobility uses the
arithmetic mean of the adjacent cells (harmonic means would extinguish the
degenerate diffusion one cell into vacuum), and the drift flux is donor-cell
upwinded on the sign of the face gradient of v, which is what preserves
positivity under the CFL step bound.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .core import Grid, ModelParams
from .errors import DomainError
from .nonlin import diffusivity_reg, sensitivity


def grad_faces(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Face-centered gradient; zero on boundary faces (homogeneous Neumann)."""
    g = np.zeros(grid.cells + 1)
    g[1:-1] = (values[1:] - values[:-1]) / grid.h
    return g


def div_cells(flux: np.ndarray, grid: Grid) -> np.ndarray:
    """Cell divergence of a face flux density: (A_{j+1} F_{j+1} - A_j F_j) / V_i."""
    af = grid.face_area * flux
    return (af[1:] - af[:-1]) / grid.cell_volume


def interior_flux(
    out: np.ndarray,
    u: np.ndarray,
    du: np.ndarray,
    dv: np.ndarray,
    phi: Callable[[np.ndarray], np.ndarray],
    psi: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Write phi(u_face) du - psi(u_donor) dv into out; return the mobility phi(u_face).

    The scheme's one flux formula. du and dv are the gradients of u and v on
    the interior faces, u_face = 0.5*(u[1:] + u[:-1]) is the arithmetic mean
    and the donor is the upwind cell of dv. It does no domain check: callers
    validate u >= 0 at their API boundary.
    """
    ul, ur = u[:-1], u[1:]
    mob = phi(0.5 * (ur + ul))
    donor = np.where(dv > 0.0, ul, ur)
    np.subtract(mob * du, psi(donor) * dv, out=out)
    return mob


def face_flux(
    u: np.ndarray,
    dv: np.ndarray,
    grid: Grid,
    phi: Callable[[np.ndarray], np.ndarray],
    psi: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Net face flux phi(u_face) du/dx - psi(u_donor) dv/dx; zero on the boundary faces.

    interior_flux on the interior faces, shared by the steady residual. dv is
    the face gradient of v, grad_faces(v, grid).
    """
    out = np.zeros(grid.cells + 1)
    interior_flux(out[1:-1], u, (u[1:] - u[:-1]) / grid.h, dv[1:-1], phi, psi)
    return out


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


def laplacian_apply(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete Laplacian with Neumann boundaries: div(grad v)."""
    return div_cells(grad_faces(v, grid), grid)
