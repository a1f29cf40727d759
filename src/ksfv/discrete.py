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

from .core import Grid, frozen

# interior_flux's constants, bound as 0-d operands (core.frozen)
_HALF, _ZERO = frozen(0.5), frozen(0.0)


def grad_faces(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Face-centered gradient; zero on boundary faces (homogeneous Neumann).

    values is one field or a (k, cells) stack of fields, one gradient each.
    """
    g = np.zeros(values.shape[:-1] + (grid.cells + 1,))
    g[..., 1:-1] = (values[..., 1:] - values[..., :-1]) / grid.h
    return g


def div_cells(flux: np.ndarray, geom, out=None, work=None) -> np.ndarray:
    """Cell divergence of a face flux density: (A_{j+1} F_{j+1} - A_j F_j) / V_i.

    geom is a Grid, or any object with its face_area and cell_volume. The
    face products A*F go into work and the divergence into out, when given
    (arrays of cells + 1 and cells entries); each is allocated otherwise.
    """
    af = np.multiply(geom.face_area, flux, work)
    out = np.subtract(af[1:], af[:-1], out)
    return np.divide(out, geom.cell_volume, out)


def interior_flux(
    out: np.ndarray,
    ul: np.ndarray,
    ur: np.ndarray,
    du: np.ndarray,
    dv: np.ndarray,
    phi: Callable[[np.ndarray], np.ndarray],
    psi: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Write phi(u_face) du - psi(u_donor) dv into out; return the mobility phi(u_face).

    The scheme's one flux formula. ul and ur are u's cells left and right of
    each interior face (u[:-1] and u[1:] of one field), du and dv the
    gradients of u and v on those faces; u_face = 0.5*(ur + ul) is the
    arithmetic mean and the donor is the upwind cell of dv. It does no domain
    check: callers validate u >= 0 at their API boundary.
    """
    mob = phi(_HALF * (ur + ul))
    donor = np.where(dv > _ZERO, ul, ur)
    np.subtract(mob * du, psi(donor) * dv, out)
    return mob


def laplacian_apply(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete Laplacian with Neumann boundaries: div(grad v)."""
    return div_cells(grad_faces(v, grid), grid)
