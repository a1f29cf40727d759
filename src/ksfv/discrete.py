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

from typing import Callable

import numpy as np

from .core import Grid


def grad_faces(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Face-centered gradient; zero on boundary faces (homogeneous Neumann).

    values is one field or a (k, cells) stack of fields, one gradient each.
    """
    g = np.zeros(values.shape[:-1] + (grid.cells + 1,))
    g[..., 1:-1] = (values[..., 1:] - values[..., :-1]) / grid.h
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


def laplacian_apply(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete Laplacian with Neumann boundaries: div(grad v)."""
    return div_cells(grad_faces(v, grid), grid)
