"""Closed-form concentrated initial data families and their energy scans.

The density profile is a_eta * eta^(beta-n) * (r^2 + eta^2)^(-beta/2) with the
normalizer a_eta chosen so the mass matches a prescribed target; on a grid the
sampled profile is additionally rescaled so the *discrete* integral hits the
target exactly. The paired signal profile has two branches: a logarithmic one
for n = 2 (with exponent kappa_prime < 1 - theta) and a power one for n >= 3.
Sweeping eta downward concentrates the pair and drives the energy F to -inf
when the growth condition on G holds; the divergence exponent in ln(R/eta) is
recovered from first differences of -F, which cancels the additive constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .core import BALL, DomainSpec, Grid, State, integrate, unit_sphere_area
from .energy import EnergyBreakdown, lyapunov
from .errors import PreconditionError, ResolutionError
from .nonlin import FunctionalTable, _growth_bound, check_growth_condition
from .quadrature import adaptive_simpson, moment_integral

_PROFILE_TOL = 1e-12  # radial_moment's (before its eta scaling) and mass_normalizer's
_GROWTH_K_MARGIN = 1.01  # initial_data_below checks the growth condition at this times k_fit


@dataclass(frozen=True)
class FamilyParams:
    """Shape parameters of the concentrated pair.

    eta          -- concentration scale (n=2 branch requires eta < R/2)
    beta         -- drift sensitivity exponent (matches ModelParams.beta)
    mass         -- target discrete mass of the density
    kappa_prime  -- n=2 signal exponent in (0, 1), must satisfy kappa_prime < 1 - theta
    theta        -- growth-condition exponent in (0, 1) (n=2)
    delta, gamma -- n>=3 signal exponents (the asymptotic checks use gamma = delta)
    """

    eta: float
    beta: float
    mass: float
    kappa_prime: Optional[float] = None
    theta: Optional[float] = None
    delta: Optional[float] = None
    gamma: Optional[float] = None

    def __post_init__(self):
        # chained comparisons, so that NaN and inf fail every check
        if not (0.0 < self.eta < math.inf):
            raise PreconditionError("eta must be finite and positive")
        if not (0.0 < self.mass < math.inf):
            raise PreconditionError("mass must be finite and positive")
        for name in ("beta", "kappa_prime", "theta", "delta", "gamma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise PreconditionError(f"{name} must be finite, got {value}")


def _require_n2(fp: FamilyParams, R: float):
    if fp.kappa_prime is None or fp.theta is None:
        raise PreconditionError("n=2 branch needs kappa_prime and theta")
    if not (0.0 < fp.theta < 1.0):
        raise PreconditionError("theta must lie in (0, 1)")
    if not (0.0 < fp.kappa_prime < 1.0):
        raise PreconditionError("kappa_prime must lie in (0, 1)")
    if fp.kappa_prime >= 1.0 - fp.theta:
        raise PreconditionError("need kappa_prime < 1 - theta")
    if fp.eta >= R / 2.0:
        raise PreconditionError("n=2 branch needs eta < R/2")


def radial_moment(N: float, lam: float, R: float, eta: float) -> float:
    """The scaled truncated moment eta^(lam-N) int_0^R r^(N-1) (r^2+eta^2)^(-lam/2) dr.

    Converges to A(N, lam) as eta -> 0 by the substitution r = eta*s. Needs
    N >= 1, where the integrand is finite at r = 0.
    """
    if N < 1.0:
        raise PreconditionError(f"radial moment requires N >= 1, got N={N}")

    def f(r: float) -> float:
        return r ** (N - 1.0) * (r * r + eta * eta) ** (-lam / 2.0)

    return eta ** (lam - N) * adaptive_simpson(
        f, 0.0, R, _PROFILE_TOL / max(eta ** (lam - N), 1e-300)
    )


def mass_normalizer(fp: FamilyParams, dom: DomainSpec) -> float:
    """a_eta = eta^(n-beta) * mass / int_Omega (|x|^2+eta^2)^(-beta/2) dx (continuum form)."""
    if dom.kind != BALL:
        raise PreconditionError("the family lives on radial ball domains")
    n = dom.n
    w = unit_sphere_area(n)
    eta = fp.eta

    def f(r: float) -> float:
        return r ** (n - 1.0) * (r * r + eta * eta) ** (-fp.beta / 2.0)

    denom = w * adaptive_simpson(f, 0.0, dom.R, _PROFILE_TOL)
    return eta ** (n - fp.beta) * fp.mass / denom


def concentrated_u(fp: FamilyParams, grid: Grid) -> np.ndarray:
    """Sample the density profile at cell centers and normalize to the exact grid mass.

    The grid renormalization factor is 1 + O((h/eta)^2), so closed-form
    pointwise checks remain valid at grid resolution while the discrete mass
    matches the target to rounding.
    """
    dom = grid.spec
    a = mass_normalizer(fp, dom)
    r = grid.centers
    vals = a * fp.eta ** (fp.beta - dom.n) * (r * r + fp.eta ** 2) ** (-fp.beta / 2.0)
    vals *= fp.mass / integrate(vals, grid)
    return vals


def concentrated_v(fp: FamilyParams, grid: Grid) -> np.ndarray:
    """Sample the signal profile: logarithmic branch for n=2, power branch for n>=3.

    The n=2 formula dips barely below zero in a thin boundary layer where
    r^2 + eta^2 > R^2; those samples are floored at zero so the field is usable
    as nonnegative initial data (the energy changes by O(eta^4)).
    """
    dom = grid.spec
    if dom.kind != BALL:
        raise PreconditionError("the family lives on radial ball domains")
    R = dom.R
    r = grid.centers
    if dom.n == 2:
        _require_n2(fp, R)
        vals = math.log(R / fp.eta) ** (-fp.kappa_prime) * np.log(
            R * R / (r * r + fp.eta ** 2)
        )
    else:
        if fp.delta is None or fp.gamma is None:
            raise PreconditionError("n>=3 branch needs delta and gamma")
        if fp.delta <= 0.0:
            raise PreconditionError("delta must be positive")
        vals = fp.eta ** (fp.delta - fp.gamma) * (r * r + fp.eta ** 2) ** (-fp.delta / 2.0)
    return np.maximum(vals, 0.0)


@dataclass
class FamilyScan:
    etas: List[float]
    F_values: List[float]
    breakdowns: List[EnergyBreakdown]
    strictly_decreasing: bool


def energy_scan(
    fp: FamilyParams, eta_list, grid: Grid, table: FunctionalTable
) -> FamilyScan:
    """Evaluate F(u_eta, v_eta) along a decreasing eta sequence."""
    etas = [float(e) for e in eta_list]
    F_values: List[float] = []
    breakdowns: List[EnergyBreakdown] = []
    for eta in etas:
        fpe = replace(fp, eta=eta)
        u = concentrated_u(fpe, grid)
        v = concentrated_v(fpe, grid)
        table = table.covering(float(np.max(u)))
        bd = lyapunov(State(u, v, 0.0), grid, table)
        breakdowns.append(bd)
        F_values.append(bd.F_total)
    dec = all(a > b for a, b in zip(F_values, F_values[1:])) if len(F_values) > 1 else False
    return FamilyScan(etas, F_values, breakdowns, dec)


def initial_data_below(
    C: float,
    fp: FamilyParams,
    grid: Grid,
    table: FunctionalTable,
    alpha_prime: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """First (u_eta, v_eta) along a geometric eta sweep with F < -C.

    The sweep halves eta from 0.2 R down to the resolution floor of two
    cells; before sweeping, the growth condition on G is verified with 1.01
    times the smallest workable constant k, fitted on the lower half of the
    table range (for n >= 3 pass the growth exponent alpha_prime; omitted, the
    check is skipped there). Raises ResolutionError when the grid cannot
    concentrate far enough.
    """
    if C <= 0.0:
        raise PreconditionError("C must be positive")
    dom = grid.spec
    if dom.kind != BALL:
        raise PreconditionError("the family lives on radial ball domains")

    exponent = fp.theta if dom.n == 2 else alpha_prime
    if dom.n == 2:
        _require_n2(replace(fp, eta=min(fp.eta, dom.R / 4.0)), dom.R)
    if exponent is not None:
        k_fit = _fitted_growth_constant(table, dom.n, exponent)
        report = check_growth_condition(
            table, dom.n, k_fit * _GROWTH_K_MARGIN, exponent
        )
        if not report.holds:
            raise PreconditionError(
                f"growth condition fails for the active nonlinearities: {report}"
            )

    eta = 0.2 * dom.R
    floor = 2.0 * grid.h
    while eta >= floor:
        fpe = replace(fp, eta=eta)
        try:
            u = concentrated_u(fpe, grid)
            v = concentrated_v(fpe, grid)
        except PreconditionError:
            eta *= 0.5
            continue
        table = table.covering(float(np.max(u)))
        if lyapunov(State(u, v, 0.0), grid, table).F_total < -C:
            return u, v, eta
        eta *= 0.5
    raise ResolutionError(
        f"no admissible eta >= 2h = {floor:g} reaches F < {-C:g}; refine the grid"
    )


def _fitted_growth_constant(table: FunctionalTable, n: int, exponent: float) -> float:
    """Smallest workable k, fitted on the lower half of the table range only.

    Verifying the fitted k on the full range then genuinely tests whether
    G/bound stays bounded toward s_max (a constant fitted on the whole range
    would hold by construction).
    """
    lo = max(table.s0, 1.0 + 1e-9)
    mid = math.sqrt(lo * table.s_max)
    s = np.geomspace(lo, mid, 200)
    bound = _growth_bound(s, n, 1.0, exponent)
    good = bound > 0.0
    return float(np.max(table.g(s[good]) / bound[good]))


def fit_divergence_exponent(etas, F_values, R: float) -> float:
    """Leading exponent p of -F ~ A (ln(R/eta))^p + const along a decreasing eta sweep.

    Fitted on first differences of -F against the midpoint of ln(R/eta), which
    removes the additive constant exactly: slope of log-differences is p - 1.
    Needs at least 3 etas, with fewer the two-coefficient fit is underdetermined,
    and one F per eta.
    """
    if len(etas) < 3 or len(F_values) != len(etas):
        raise PreconditionError("need at least 3 etas and one F per eta to fit the exponent")
    L = np.log(R / np.asarray(etas, dtype=float))
    negF = -np.asarray(F_values, dtype=float)
    D = np.diff(negF)
    if np.any(D <= 0.0):
        raise PreconditionError("-F must be strictly increasing along the sweep to fit")
    Lm = 0.5 * (L[1:] + L[:-1])
    A = np.vstack([np.ones(len(D)), np.log(Lm)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(D), rcond=None)
    return 1.0 + float(coef[1])


@dataclass
class LimitReport:
    """Scaled integrals of the n>=3 branch at one eta, with their eta->0 limits.

    Evaluated on the gamma = delta diagonal, where the four prefactored
    quantities converge to moment integrals A(., .); reported individually
    (the combined divergence statement is left to the energy scan).
    """

    eta: float
    gradv_scaled: float
    gradv_limit: float
    v2_scaled: float
    v2_limit: float
    uv_scaled: float
    uv_limit: float
    g_bound_scaled: float
    g_bound_limit: float
    a_eta: float
    a_limit: float


def limit_report_n3(
    fp: FamilyParams, dom: DomainSpec, k_growth: float, alpha_prime: float
) -> LimitReport:
    """Compute the four scaled n>=3 quantities at fp.eta and their limits.

    Requires gamma = delta (the internally consistent diagonal), delta > (n-2)/2,
    2*delta > n, beta + delta > n and (2 - alpha_prime)*beta > n for the four
    limits to be finite.
    """
    n = dom.n
    if n < 3:
        raise PreconditionError("the limit report is for n >= 3")
    if fp.delta is None or fp.gamma is None or fp.delta != fp.gamma:
        raise PreconditionError("asymptotics are checked on the gamma = delta diagonal")
    d = fp.delta
    eta = fp.eta
    R = dom.R
    w = unit_sphere_area(n)
    a_eta = mass_normalizer(fp, dom)
    a_limit = fp.mass / (w * moment_integral(n, fp.beta))

    gradv = w * d * d * radial_moment(n + 2, 2.0 * d + 4.0, R, eta)
    gradv_lim = w * d * d * moment_integral(n + 2, 2.0 * d + 4.0)
    v2 = w * radial_moment(n, 2.0 * d, R, eta)
    v2_lim = w * moment_integral(n, 2.0 * d)
    uv = w * a_eta * radial_moment(n, fp.beta + d, R, eta)
    uv_lim = w * a_limit * moment_integral(n, fp.beta + d)
    q = 2.0 - alpha_prime
    gb = w * k_growth * a_eta ** q * radial_moment(n, q * fp.beta, R, eta)
    gb_lim = w * k_growth * a_limit ** q * moment_integral(n, q * fp.beta)
    return LimitReport(
        eta, gradv, gradv_lim, v2, v2_lim, uv, uv_lim, gb, gb_lim, a_eta, a_limit
    )
