"""Energy functional, its dissipation identity, and steady-state checks.

The functional F(u, v) = int( G(u) - u v + v^2/2 + |grad v|^2/2 ) is evaluated
with cell sums for the pointwise terms and face-weighted sums for the squared
gradient; the face weight A_j*h makes the discrete summation-by-parts identity
exact, so F equals its uv-eliminated steady form whenever the discrete steady
signal equation holds exactly.

Along a step the identity

    dF/dt = -int psi(u) |(phi/psi) grad u - grad v|^2 - int v_t^2
            + int f(u) (G'(u) - v)

is audited: the quadratic form is assembled per face with arithmetic-mean u
(faces where the density vanishes on both sides are dropped), v_t is the
scheme's difference quotient, and the residual against (F_new - F_old)/dt is
reported in the diagnostics.

Each of the two has one implementation, a term helper that takes the
quantities it needs already computed: lyapunov_terms takes G(u) and the face
gradient of v, dissipation_terms the face gradients of u and v, the face
mobility phi(u_face), f(u) and G'(u). The public lyapunov and dissipation
compute those from a state and call the helpers; the solver's diagnostics
rows pass the ones its step has already computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Grid, ModelParams, State, BALL
from .discrete import div_cells, grad_faces, interior_flux, laplacian_apply
from .errors import DomainError, PreconditionError
from .nonlin import (
    _check_nonneg,
    ConditionReport,
    FunctionalTable,
    Overrides,
    effective_f,
    effective_phi,
    effective_psi,
    smooth_step,
)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Term-by-term value of the functional; F_total = G - uv + v2 + gradv."""

    G_term: float
    uv_term: float
    v2_term: float
    gradv_term: float
    F_total: float
    clamped_cells: int = 0

    @property
    def v_w12(self) -> float:
        """The W^{1,2} norm of v, (int v^2 + int |grad v|^2)^(1/2).

        Halving and doubling are exact for normal floats, so this is the root
        of the two sums that v2_term and gradv_term halve, bitwise.
        """
        return math.sqrt(2.0 * (self.v2_term + self.gradv_term))


def lyapunov_terms(
    G_u: np.ndarray, u: np.ndarray, v: np.ndarray, dv: np.ndarray, grid: Grid, clamped: int = 0
) -> EnergyBreakdown:
    """F(u, v) from G_u = G(max(u, s_min)) and dv = grad_faces(v, grid)."""
    V = grid.cell_volume
    G_term = float(np.dot(G_u, V))
    uv_term = float(np.dot(u * v, V))
    v2_term = 0.5 * float(np.dot(v * v, V))
    gradv_term = 0.5 * float(np.dot(grid.face_weight, dv * dv))
    return EnergyBreakdown(
        G_term, uv_term, v2_term, gradv_term, G_term - uv_term + v2_term + gradv_term, clamped
    )


def lyapunov(state: State, grid: Grid, table: FunctionalTable) -> EnergyBreakdown:
    """Evaluate F(u, v) on the grid; u below the table floor is clamped and counted."""
    u, v = state.u, state.v
    tab = table.covering(float(np.max(u)))
    clamped = int(np.count_nonzero(u < tab.s_min))
    G_u = tab.g(np.maximum(u, tab.s_min))
    return lyapunov_terms(G_u, u, v, grad_faces(v, grid), grid, clamped)


def lyapunov_steady(state: State, grid: Grid, table: FunctionalTable) -> float:
    """The uv-eliminated steady value -1/2 int|grad v|^2 - 1/2 int v^2 + int G(u).

    Formed from lyapunov()'s terms as G_term - gradv_term - v2_term. Agrees with lyapunov() exactly when the discrete steady signal equation
    holds; otherwise the gap is bounded by the steady residual.
    """
    bd = lyapunov(state, grid, table)
    return bd.G_term - bd.gradv_term - bd.v2_term


def dissipation(
    state: State,
    v_t: np.ndarray,
    grid: Grid,
    p: ModelParams,
    table: FunctionalTable,
    ov: Optional[Overrides] = None,
) -> float:
    """Right side of the energy identity evaluated at (u, v) with the step's v_t.

    Raises DomainError for a negative density.
    """
    u, v = state.u, state.v
    _check_nonneg(u, "dissipation")
    tab = table.covering(float(np.max(u)))
    return dissipation_terms(
        u,
        v,
        v_t,
        grad_faces(u, grid)[1:-1],
        grad_faces(v, grid)[1:-1],
        effective_phi(p, ov)(0.5 * (u[1:] + u[:-1])),
        effective_psi(p, ov),
        effective_f(p, ov)(u),
        tab.gp(np.maximum(u, tab.s_min)),
        tab.s_min,
        grid,
    )


def dissipation_terms(
    u: np.ndarray,
    v: np.ndarray,
    v_t: np.ndarray,
    du: np.ndarray,
    dv: np.ndarray,
    mob: np.ndarray,
    psi: Callable[[np.ndarray], np.ndarray],
    f_u: np.ndarray,
    gp_u: np.ndarray,
    s_min: float,
    grid: Grid,
) -> float:
    """The right side of the energy identity at (u, v) from the state's face data.

    du and dv are the gradients of u and v on the interior faces, mob the
    mobility phi(0.5*(u[1:] + u[:-1])) there, psi the sensitivity, f_u = f(u)
    and gp_u = G'(max(u, s_min)). No domain check.
    """
    w = grid.face_weight[1:-1]
    u_face = 0.5 * (u[1:] + u[:-1])
    live = u_face >= s_min
    psi_face = np.where(live, psi(np.maximum(u_face, s_min)), 0.0)
    live &= psi_face > 0.0
    ratio_face = np.where(live, mob / np.where(live, psi_face, 1.0), 0.0)
    x = ratio_face * du - dv
    quad_term = -float(np.dot(w, np.where(live, psi_face * x * x, 0.0)))

    vt_term = -float(np.dot(v_t * v_t, grid.cell_volume))

    f_term = float(np.dot(f_u * (gp_u - v), grid.cell_volume))
    return quad_term + vt_term + f_term


def steady_residual(
    state: State, grid: Grid, p: ModelParams, ov: Optional[Overrides] = None
) -> tuple[float, float]:
    """L2 norms of the two discrete steady residuals (density and signal equations).

    The density residual is the divergence of the scheme's own face flux,
    interior_flux, which vanishes on the boundary faces.
    Raises DomainError for a negative density.
    """
    u, v = state.u, state.v
    _check_nonneg(u, "steady_residual")
    flux = np.zeros(grid.cells + 1)
    du, dv = grad_faces(u, grid)[1:-1], grad_faces(v, grid)[1:-1]
    interior_flux(flux[1:-1], u, du, dv, effective_phi(p, ov), effective_psi(p, ov))
    r1 = div_cells(flux, grid)
    r2 = laplacian_apply(v, grid) - v + u
    V = grid.cell_volume
    return (
        float(np.sqrt(np.dot(r1 * r1, V))),
        float(np.sqrt(np.dot(r2 * r2, V))),
    )


# ---------------------------------------------------------------------------
# radial weight inequality and energy floor

_WEIGHT_TOL = 1e-10  # the absolute slack of radial_weight_inequality's verdict


def log_weight(R: float, eta: float) -> tuple[Callable, Callable]:
    """The profile ln((R^2+eta)/(r^2+eta)) and its derivative (n=2 construction)."""
    if eta <= 0.0:
        raise PreconditionError("eta must be positive")

    def w(r):
        return np.log((R * R + eta) / (np.asarray(r, dtype=float) ** 2 + eta))

    def wp(r):
        r = np.asarray(r, dtype=float)
        return -2.0 * r / (r * r + eta)

    return w, wp


def boundary_cutoff_weight(R: float, k: float) -> tuple[Callable, Callable]:
    """The profile zeta0(k(R-r)) with a smooth step zeta0 (0 below 1, 1 above 2).

    Requires k > 2/R so the plateau reaches the origin; the derivative is
    numeric (the profile is flat at both validation points).
    """
    if k <= 2.0 / R:
        raise PreconditionError("cutoff weight requires k > 2/R")

    def w(r):
        return smooth_step(k * (R - np.asarray(r, dtype=float)) - 1.0)

    def wp(r):
        r = np.asarray(r, dtype=float)
        h = 1e-6 * R
        return (w(r + h) - w(r - h)) / (2.0 * h)

    return w, wp


def radial_weight_inequality(
    state: State,
    grid: Grid,
    table: FunctionalTable,
    weight: Callable,
    s0: float,
    weight_prime: Callable,
) -> ConditionReport:
    """Check the weighted steady-state inequality on a radial grid.

    For a nonnegative, nonincreasing weight z with z'(0) = 0 = z(R):

        (n-2)/2 int z |grad v|^2 - 1/2 int r z' |grad v|^2
            <= int r z (v + s0) |grad v| + n int_{u > s0} z H(u)

    weight_prime is z'. The weight is validated numerically (endpoints and
    monotonicity); gradient terms are face sums, the H term a cell sum over
    the super-level set. The inequality holds when lhs <= rhs + 1e-10.
    """
    if grid.spec.kind != BALL:
        raise PreconditionError("the weight inequality applies to radial ball domains")
    if abs(s0 - table.s0) > 1e-12 * max(1.0, s0):
        raise PreconditionError("s0 must match the anchor of the supplied table")
    R = grid.spec.R
    n = grid.spec.n

    rs = np.linspace(0.0, R, 257)
    wv = np.asarray(weight(rs), dtype=float)
    scale = max(1.0, float(np.max(np.abs(wv))))
    if np.min(wv) < -1e-8 * scale:
        raise PreconditionError("weight must be nonnegative on [0, R]")
    if np.any(np.diff(wv) > 1e-8 * scale):
        raise PreconditionError("weight must be nonincreasing on [0, R]")
    if abs(wv[-1]) > 1e-8 * scale:
        raise PreconditionError("weight must vanish at r = R")
    if abs(weight_prime(1e-8 * R)) > 1e-6 * scale / R:
        raise PreconditionError("weight must have zero slope at r = 0")

    u, v = state.u, state.v
    tab = table.covering(float(np.max(u)))
    r_face = grid.faces[1:-1]
    dv = grad_faces(v, grid)[1:-1]
    w_face = grid.face_weight[1:-1]
    z_face = np.asarray(weight(r_face), dtype=float)
    zp_face = np.asarray(weight_prime(r_face), dtype=float)

    lhs = 0.5 * (n - 2.0) * float(np.dot(w_face, z_face * dv * dv)) - 0.5 * float(
        np.dot(w_face, r_face * zp_face * dv * dv)
    )

    v_face = 0.5 * (v[1:] + v[:-1])
    rhs_grad = float(np.dot(w_face, r_face * z_face * (v_face + s0) * np.abs(dv)))
    above = u > s0
    z_cell = np.asarray(weight(grid.centers), dtype=float)
    rhs_level = n * float(
        np.dot(np.where(above, z_cell * tab.h(np.maximum(u, tab.s_min)), 0.0), grid.cell_volume)
    )
    rhs = rhs_grad + rhs_level
    return ConditionReport(
        holds=bool(lhs <= rhs + _WEIGHT_TOL),
        max_violation=float(lhs - rhs),
        witness=None,
        lhs=lhs,
        rhs=rhs,
    )


def energy_floor(m: float, c2: float, c3: float, K: float, n: int, eps_c: float) -> float:
    """The steady-state energy lower bound -c3 m^2 - c2 - n K m/(n-2-eps_c) for n >= 3."""
    if n < 3:
        raise DomainError("the floor formula requires n >= 3")
    denom = n - 2.0 - eps_c
    if denom <= 0.0:
        raise DomainError(f"n - 2 - eps_c must be positive, got {denom}")
    return -c3 * m * m - c2 - n * K * m / denom
