"""Model nonlinearities and the tabulated energy integrands.

The scalar ingredients are the logarithmic diffusivity ln^alpha(1+u), its
regularized shift ln^alpha(1+u+eps), the power-law drift sensitivity
psi_c*u^beta, and the damped growth term a - b*u^kappa (smoothly cut off for
eps > 0 so it has compact support in u). From the diffusivity/sensitivity
ratio rho the energy machinery tabulates

    Gp(s) = int_s0^s rho(tau) dtau           (derivative of G)
    G(s)  = int_s0^s int_s0^sigma rho(tau) dtau dsigma
    H(s)  = int_s0^s sigma * rho(sigma) dsigma

on a log-spaced knot grid anchored exactly at s0. Nested integrals collapse to
single quadratures via the Cauchy repeated-integral identity, and evaluation
between knots uses quintic Hermite pieces fed with the exact first and second
derivatives at the knots (G' = Gp, G'' = rho, ...), which keeps interpolation
error orders of magnitude below the quadrature tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .core import ModelParams
from .errors import (
    DivergenceError,
    DomainError,
    PreconditionError,
    QuadratureError,
    UsageError,
)
from .quadrature import adaptive_simpson

# ---------------------------------------------------------------------------
# scalar nonlinearities (vectorized over numpy arrays)


def _check_nonneg(u, what: str):
    if np.any(np.asarray(u) < 0):
        raise DomainError(f"{what} is only defined for u >= 0")


# Each nonlinearity has one formula, in a check-free private form that the
# solver kernel calls on float arrays it has already validated; the public
# function checks the domain and wraps it.


def _diffusivity_reg(u: np.ndarray, p: ModelParams) -> np.ndarray:
    return np.log1p(u + p.eps) ** p.alpha


def _sensitivity(u: np.ndarray, p: ModelParams) -> np.ndarray:
    return p.psi_c * u ** p.beta


def _growth(u: np.ndarray, p: ModelParams, out=None) -> np.ndarray:
    return np.subtract(p.a, p.b * u ** p.kappa, out=out)


def _cut_off(f: np.ndarray, u: np.ndarray, p: ModelParams, umax=None) -> np.ndarray:
    """Multiply f = growth(u) by the cutoff in place, only where it is below 1.

    umax, when given, is max(u): a max at or below 1/(2 eps) skips the mask.
    """
    if p.eps > 0.0:
        # smooth_step is exactly 0 at or below its threshold, so the window is
        # exactly 1 on u <= 1/(2 eps) and multiplying by it there changes nothing
        lo = 1.0 / (2.0 * p.eps)
        if umax is None or umax > lo:
            hot = u > lo
            if hot.any():
                # the window 1 - smooth_step((u - lo)/(hi - lo)) on the hot
                # cells, without smooth_step's x <= 0 branch, x > 0 on every
                # hot cell. On u >= 1/eps, x >= 1 and _rise is exactly 1.0, so
                # the window there is exactly 0.0
                hi = 1.0 / p.eps
                saturated = u >= hi
                f[saturated] *= 0.0
                band = hot & ~saturated
                if band.any():
                    f[band] *= 1.0 - _rise((u[band] - lo) / (hi - lo))
    return f


def diffusivity(u, p: ModelParams):
    """ln^alpha(1+u); vanishes at u = 0."""
    _check_nonneg(u, "diffusivity")
    return np.log1p(np.asarray(u, dtype=float)) ** p.alpha


def diffusivity_reg(u, p: ModelParams):
    """ln^alpha(1+u+eps); strictly positive for eps > 0, equals diffusivity at eps = 0."""
    _check_nonneg(u, "diffusivity_reg")
    return _diffusivity_reg(np.asarray(u, dtype=float), p)


def sensitivity(u, p: ModelParams):
    """psi_c * u^beta; the drift mobility of the density."""
    _check_nonneg(u, "sensitivity")
    return _sensitivity(np.asarray(u, dtype=float), p)


def growth(u, p: ModelParams):
    """Upper-envelope growth term a - b*u^kappa (set a=0 for the lower envelope)."""
    _check_nonneg(u, "growth")
    return _growth(np.asarray(u, dtype=float), p)


def _rise(x: np.ndarray) -> np.ndarray:
    """smooth_step on x > 0: 1 for x >= 1, strictly increasing below.

    On x >= 1 the clamp gives xc = 1 - 1e-12, where g1 = exp(-1e12) is 0.0
    and the quotient is exactly 1.0.
    """
    xc = np.minimum(np.maximum(x, 1e-12), 1.0 - 1e-12)
    g0 = np.exp(-1.0 / xc)
    g1 = np.exp(-1.0 / (1.0 - xc))
    return g0 / (g0 + g1)


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, strictly increasing between."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, _rise(x))


def growth_reg(u, p: ModelParams):
    """Compactly supported growth term: (a - b*u^kappa) * cutoff.

    Coincides with growth() on [0, 1/(2 eps)] and vanishes beyond 1/eps; the
    damping band -b u^kappa <= f <= a - b u^kappa therefore holds on the uncut
    region only (no compactly supported function can obey it for all u).
    """
    _check_nonneg(u, "growth_reg")
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    return _cut_off(_growth(flat, p), flat, p).reshape(u.shape)


def damping_is_weak(p: ModelParams, n: int) -> bool:
    """True when kappa < beta + 2/n, the regime in which damping may fail to prevent blow-up."""
    if n < 1:
        raise PreconditionError(f"dimension must be >= 1, got {n}")
    return p.kappa < p.beta + 2.0 / n


# ---------------------------------------------------------------------------
# diffusivity/sensitivity ratio with override seam


@dataclass(frozen=True)
class RatioSpec:
    """Which ratio feeds the energy integrands: the model's, 1, or a custom callable.

    A custom ratio comes with its derivative fn_prime, which the tables store
    at the knots for G' interpolation; both are scalar functions on (0, inf).
    """

    kind: str  # "model" | "unit" | "custom"
    fn: Optional[Callable[[float], float]] = None
    fn_prime: Optional[Callable[[float], float]] = None

    @staticmethod
    def model() -> "RatioSpec":
        return RatioSpec("model")

    @staticmethod
    def unit() -> "RatioSpec":
        return RatioSpec("unit")

    @staticmethod
    def custom(fn, fn_prime) -> "RatioSpec":
        if fn is None or fn_prime is None:
            raise UsageError(
                "custom ratio requires a callable and its derivative, defined on (0, inf)"
            )
        return RatioSpec("custom", fn, fn_prime)


def ratio(tau, p: ModelParams, spec: RatioSpec = RatioSpec.model()):
    """Evaluate the active ratio at tau > 0 (the sensitivity vanishes at 0).

    Applies the tables' scalar rho to each element, so ratio(table.knots, ...)
    is table.rho_vals bitwise. A float for a scalar tau, else an array.
    """
    arr = np.asarray(tau, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("ratio is only defined for tau > 0")
    rho = _scalar_ratio(p, spec)[0]
    out = np.array([rho(t) for t in arr.reshape(-1)], dtype=float).reshape(arr.shape)
    return out if arr.shape else float(out)


def _scalar_ratio(p: ModelParams, spec: RatioSpec):
    """Scalar (math-module) ratio and its derivative, for the quadrature hot path."""
    if spec.kind == "unit":
        return (lambda t: 1.0), (lambda t: 0.0)
    if spec.kind == "custom":
        return spec.fn, spec.fn_prime

    alpha, beta, eps, c = p.alpha, p.beta, p.eps, p.psi_c

    def rho(t: float) -> float:
        return math.log1p(t + eps) ** alpha / (c * t ** beta)

    def rho_prime(t: float) -> float:
        L = math.log1p(t + eps)
        phi = L ** alpha
        dphi = alpha * L ** (alpha - 1.0) / (1.0 + t + eps)
        psi = c * t ** beta
        dpsi = c * beta * t ** (beta - 1.0)
        psi2 = psi * psi
        if psi2 < sys.float_info.min:
            # psi * psi underflows (psi below about 1.5e-154) where psi does not
            return (dphi * psi - phi * dpsi) / psi / psi
        return (dphi * psi - phi * dpsi) / psi2

    return rho, rho_prime


# ---------------------------------------------------------------------------
# tabulated energy integrands


def _hermite_basis(x: np.ndarray, knots) -> tuple:
    """The segment indices idx and idx + 1, the width dx and dx^2, and the six
    quintic Hermite basis values at x.

    Elementwise in x, so the basis of a concatenation is the concatenation
    of the bases, and a slice of each array is the basis of that slice of x.
    """
    # np.minimum(np.maximum(...)) is np.clip, without its Python-level dispatch
    idx = np.minimum(np.maximum(np.searchsorted(knots, x, side="right") - 1, 0), len(knots) - 2)
    idx1 = idx + 1
    x0 = knots[idx]
    dx = knots[idx1] - x0
    t = (x - x0) / dx
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    t5 = t4 * t
    h00 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
    h10 = t - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
    h20 = 0.5 * (t2 - 3.0 * t3 + 3.0 * t4 - t5)
    h01 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
    h11 = -4.0 * t3 + 7.0 * t4 - 3.0 * t5
    h21 = 0.5 * (t3 - 2.0 * t4 + t5)
    return idx, idx1, dx, dx * dx, h00, h10, h20, h01, h11, h21


def _hermite_sum(basis: tuple, y, d1, d2) -> np.ndarray:
    """Piecewise quintic Hermite values with nodal values y and two derivatives d1, d2."""
    idx, idx1, dx, dx2, h00, h10, h20, h01, h11, h21 = basis
    return (
        y[idx] * h00
        + dx * d1[idx] * h10
        + dx2 * d2[idx] * h20
        + y[idx1] * h01
        + dx * d1[idx1] * h11
        + dx2 * d2[idx1] * h21
    )


@dataclass(frozen=True)
class FunctionalTable:
    """Tabulated G, H, Gp with quintic Hermite interpolation between knots.

    Immutable; covering() returns a new, wider table instead of mutating. A
    table's knots are the base grid build_table() lays out, its first
    base_knots knots on [s_min, base_s_max], followed by the upward extension
    covering() appends: knots base_s_max * r**k, k = 1, 2, ..., with
    r = 10**(1/_KNOTS_PER_DECADE).

    The values are walked out from s0 and hold on the walked range, from
    knots[low] to the last knot. Above s0 every knot is walked; below it, a
    table walked on demand (build_table(..., walk_below_s0=False)) holds NaN
    at the base knots under knots[low], which nothing reads: evaluation
    refuses any point below knots[low] or above s_max, and covering() walks
    further at either end. Every walked knot holds bitwise the value of
    build_table's eager walk over the whole base grid.

    Every segment, base or extension, is integrated once to the absolute
    tolerance seg_tol = tol / n_base_segments, and the knot values accumulate
    segment by segment from s0. The quadrature error at a knot is therefore at
    most seg_tol times the number of segments between s0 and that knot, which
    is at most tol * n_segments / n_base_segments: tol itself on the base
    grid, walked or not yet walked below s0, and growing in proportion to the
    knots an extension adds. Where the integrands are enormous, the
    quadrature's 1e-14 relative floor applies per segment instead of seg_tol.
    Segments are integrated in batches, but each batched integral is bitwise
    the one-segment quadrature at seg_tol, so the bound and every value are
    those of integrating one segment at a time.
    """

    params: ModelParams
    ratio_spec: RatioSpec
    s0: float
    s_min: float
    s_max: float
    tol: float
    seg_tol: float  # per-segment quadrature tolerance, fixed by the base table
    base_knots: int  # knots of the base table; the rest are the extension
    low: int  # index of the lowest walked knot
    knots: np.ndarray
    G_vals: np.ndarray
    H_vals: np.ndarray
    Gp_vals: np.ndarray
    rho_vals: np.ndarray
    rho_prime_vals: np.ndarray

    def _check_range(self, s: np.ndarray):
        if (s > self.s_max * (1.0 + 1e-12)).any():
            raise UsageError(
                f"evaluation above table range (s_max={self.s_max:g}); use covering() first"
            )
        floor = self.knots[self.low]
        if (s < floor).any():
            raise UsageError(
                f"evaluation below table range (walked from {floor:g}, s_min={self.s_min:g});"
                " use covering() first"
            )

    def basis(self, s) -> tuple:
        """The interpolation basis at s, which g_on and gp_on evaluate; checks the range."""
        s = np.asarray(s, dtype=float)
        self._check_range(s)
        return _hermite_basis(s, self.knots)

    def g_on(self, basis: tuple) -> np.ndarray:
        """G at the points of basis; g(s) is g_on(basis(s))."""
        return _hermite_sum(basis, self.G_vals, self.Gp_vals, self.rho_vals)

    def gp_on(self, basis: tuple) -> np.ndarray:
        """G' at the points of basis; gp(s) is gp_on(basis(s))."""
        return _hermite_sum(basis, self.Gp_vals, self.rho_vals, self.rho_prime_vals)

    def g(self, s):
        return self.g_on(self.basis(s))

    def gp(self, s):
        return self.gp_on(self.basis(s))

    def h(self, s):
        hp = self.knots * self.rho_vals
        hpp = self.rho_vals + self.knots * self.rho_prime_vals
        return _hermite_sum(self.basis(s), self.H_vals, hp, hpp)

    def covering(self, s: float, lo: Optional[float] = None) -> "FunctionalTable":
        """Return a table whose walked range contains s and lo (lo defaults to s).

        Returns self when it does already. Otherwise the new table keeps every
        walked knot and value of this one bitwise and walks on, integrating
        only the new segments, each once at seg_tol:
        - upward, appending the extension knots base_s_max * r**k up to the
          first one >= max(s, lo);
        - downward, over the base knots down to the last one <= min(s, lo),
          or down to s_min when min(s, lo) is below it.
        The knots come from fixed sequences, each segment is integrated from
        its own endpoints, and the values accumulate in walk order outward
        from s0. So every walked value is bitwise that of build_table's eager
        walk, any sequence of coverings reaching the same range gives bitwise
        the same table (t.covering(a).covering(b) is t.covering(b) for
        a < b), and values inside the old range do not change. The error
        bound grows only with the extension segments added above (see the
        class docstring). Raises DivergenceError when a new segment's
        quadrature cannot converge, and UsageError for a non-finite s or lo.
        """
        if lo is None:
            lo = s
        floor = self.knots[self.low]
        if floor <= s <= self.s_max and floor <= lo <= self.s_max:
            return self
        if not (math.isfinite(s) and math.isfinite(lo)):
            raise UsageError(f"covering needs finite points, got s={s!r}, lo={lo!r}")
        lo, hi = min(s, lo), max(s, lo)
        low = self.low
        if lo < floor:
            # the last knot <= lo, or knot 0 when lo is below s_min
            low = max(int(np.searchsorted(self.knots, lo, side="right")) - 1, 0)
        new = []
        if hi > self.s_max:
            base = float(self.knots[self.base_knots - 1])
            r = 10.0 ** (1.0 / _KNOTS_PER_DECADE)
            k = len(self.knots) - self.base_knots  # extension knots already present
            while not new or new[-1] < hi:
                k += 1
                new.append(base * r ** k)
        if low == self.low and not new:
            return self

        n = len(self.knots)
        knots = np.concatenate([self.knots, new])
        pad = np.full(len(new), np.nan)
        vals = tuple(
            np.concatenate([a, pad])
            for a in (self.G_vals, self.H_vals, self.Gp_vals, self.rho_vals, self.rho_prime_vals)
        )
        fresh = np.concatenate([np.arange(low, self.low), np.arange(n, len(knots))])
        _integrate(
            self.params, self.ratio_spec, knots, vals,
            [(n - 1, len(knots) - 1), (self.low, low)], fresh, self.seg_tol,
        )
        G, H, Gp, rho_k, rho_p_k = vals
        return replace(
            self,
            s_max=float(knots[-1]),
            low=low,
            knots=knots,
            G_vals=G,
            H_vals=H,
            Gp_vals=Gp,
            rho_vals=rho_k,
            rho_prime_vals=rho_p_k,
        )


# the density of every table's knots, base and extension
_KNOTS_PER_DECADE = 48


def _make_knots(s_min: float, s0: float, s_max: float) -> np.ndarray:
    decades = math.log10(s_max / s_min)
    count = max(int(math.ceil(decades * _KNOTS_PER_DECADE)), 8) + 1
    knots = np.geomspace(s_min, s_max, count)
    j = int(np.searchsorted(knots, s0))
    if j > 0 and abs(knots[j - 1] - s0) <= 1e-12 * s0:
        knots[j - 1] = s0
    elif j < len(knots) and abs(knots[j] - s0) <= 1e-12 * s0:
        knots[j] = s0
    else:
        knots = np.insert(knots, j, s0)
    return knots


# segments per engine call. It bounds the width of a bisection level and so the
# memory a walk holds: walking a beta = 3 table to 1e7 peaks at about 0.9 MB of
# arrays with 16 segments and 1.7 MB with 32, which gain a few percent of speed
_WALK_BLOCK = 16


def _walk(rho, knots, G, H, Gp, start: int, stop: int, seg_tol: float) -> None:
    """Fill G, H, Gp from knots[start] to knots[stop], one knot at a time.

    One adaptive-Simpson quadrature per integrand and segment, each at seg_tol:
    the nested G integral collapses through
    int_a^b int_a^sigma rho = int_a^b rho(tau) (b - tau) dtau.
    The same formulas hold for a > b (walking down), where the quadrature
    returns the negated integral over [b, a] exactly. The three integrals of
    _WALK_BLOCK segments go to the engine in one batch, which evaluates the
    scalar rho once per distinct point of each bisection level, on numpy
    scalars as the one-segment quadrature did on the knots; the knot
    values then accumulate segment by segment, in walk order.
    """
    step = 1 if stop > start else -1
    for first in range(start, stop, step * _WALK_BLOCK):
        ks = np.arange(first, stop, step)[:_WALK_BLOCK]
        a, b = knots[ks], knots[ks + step]
        n = len(ks)

        def integrands(x, k):
            # rho, rho * (b - t) and t * rho for integrals k // n = 0, 1, 2
            pts, inverse = np.unique(x, return_inverse=True)
            r = np.fromiter(map(rho, pts), float, len(pts))[inverse]
            kind = k // n
            g = kind == 1
            r[g] *= b[k[g] % n] - x[g]
            h = kind == 2
            r[h] *= x[h]
            return r

        I = adaptive_simpson(integrands, np.tile(a, 3), np.tile(b, 3), seg_tol)
        for j, k in enumerate(ks.tolist()):
            Gp[k + step] = Gp[k] + I[j]
            G[k + step] = G[k] + Gp[k] * (b[j] - a[j]) + I[n + j]
            H[k + step] = H[k] + I[2 * n + j]


def _freeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def _integrate(
    p: ModelParams, spec: RatioSpec, knots, vals: tuple, walks, fresh, seg_tol: float
) -> None:
    """Walk G, H, Gp over each (start, stop) of walks; then rho and rho' at the knots fresh.

    vals is (G, H, Gp, rho, rho'), each with one writable entry per knot;
    a walk from a knot to itself does nothing. Freezes knots and every array
    of vals. A quadrature that cannot converge raises DivergenceError.
    """
    G, H, Gp, rho_k, rho_p_k = vals
    rho, rho_prime = _scalar_ratio(p, spec)
    try:
        for start, stop in walks:
            _walk(rho, knots, G, H, Gp, start, stop, seg_tol)
    except QuadratureError as exc:
        raise _divergence(p, spec, exc) from exc
    new = knots[fresh]
    rho_k[fresh] = [rho(t) for t in new]
    rho_p_k[fresh] = [rho_prime(t) for t in new]
    _freeze(knots, *vals)


def _divergence(p: ModelParams, spec: RatioSpec, exc: QuadratureError) -> DivergenceError:
    # the walk integrates outward from s0: a non-finite integrand above s0
    # is an overflow of the integrands at large s, not a singularity at 0+
    above = exc.interval is not None and min(exc.interval) >= p.s0
    if exc.non_finite and above:
        verdict = f"the integrands overflow at large s, above s0={p.s0:g}"
    else:
        verdict = _integrability_verdict(p, spec)
    return DivergenceError(f"table quadrature failed ({verdict}): {exc}")


def build_table(
    p: ModelParams,
    ratio_spec: RatioSpec = RatioSpec.model(),
    s_min: float = 1e-8,
    s_max: float = 100.0,
    tol: float = 1e-10,
    walk_below_s0: bool = True,
) -> FunctionalTable:
    """Tabulate G, H, Gp on log-spaced knots anchored exactly at s0.

    Increments between consecutive knots are single adaptive-Simpson
    quadratures at seg_tol = tol / (number of segments), integrated outward
    from s0 in both directions, so the table is walked over all of
    [s_min, s_max]. With walk_below_s0=False the walk stops at s0 going
    down: the table has the same knots and seg_tol, and covering() walks
    below s0 on demand, to bitwise the same values, with the same error
    bound. Raises DivergenceError when a quadrature it runs cannot converge
    (a ratio too singular near zero for the requested s_min), and
    PreconditionError for a model ratio whose psi(s_min) = psi_c*s_min^beta
    underflows below the smallest normal float, where the ratio is not a
    number the quadrature can use.
    """
    s0 = p.s0
    if not (0.0 < s_min < s0 < s_max < math.inf):
        raise PreconditionError(
            f"need 0 < s_min < s0 < s_max < inf, got s_min={s_min}, s0={s0}, s_max={s_max}"
        )
    if tol <= 0.0:
        raise PreconditionError("tol must be positive")
    if ratio_spec.kind == "model":
        try:
            psi_min = p.psi_c * s_min ** p.beta
        except OverflowError:
            psi_min = math.inf
        if psi_min < sys.float_info.min:
            raise PreconditionError(
                f"psi(s_min) = psi_c*s_min^beta = {psi_min:g} underflows"
                f" (psi_c={p.psi_c:g}, s_min={s_min:g}, beta={p.beta:g}):"
                " the ratio phi/psi cannot be tabulated; raise psi_c"
            )

    knots = _make_knots(s_min, s0, s_max)
    i0 = int(np.argmin(np.abs(knots - s0)))
    nseg = len(knots) - 1
    seg_tol = tol / max(nseg, 1)
    low = 0 if walk_below_s0 else i0

    vals = tuple(np.full_like(knots, np.nan) for _ in range(5))
    for a in vals[:3]:
        a[i0] = 0.0
    top = len(knots) - 1
    _integrate(p, ratio_spec, knots, vals, [(i0, top), (i0, low)], np.arange(low, top + 1), seg_tol)
    return FunctionalTable(
        p,
        ratio_spec,
        s0,
        float(knots[0]),
        float(knots[-1]),
        tol,
        seg_tol,
        len(knots),
        low,
        knots,
        *vals,
    )


def _integrability_verdict(p: ModelParams, spec: RatioSpec) -> str:
    if spec.kind != "model":
        return "non-model ratio; integrability unknown"
    if p.eps > 0.0:
        low = -p.beta  # rho ~ ln(1+eps)^alpha * tau^-beta near 0
    else:
        low = p.alpha - p.beta
    if low <= -1.0:
        return f"ratio ~ tau^{low:g} near 0: not integrable at 0+"
    return f"ratio ~ tau^{low:g} near 0: integrable at 0+"


# ---------------------------------------------------------------------------
# structural growth conditions


@dataclass(frozen=True)
class ConditionReport:
    """Numeric verdict for a structural inequality.

    `samples` is (count, lo, hi) for a check read at `count` points of
    [lo, hi], whose verdict says nothing between them; None for an exact check.
    """

    holds: bool
    max_violation: float
    witness: Optional[float] = None
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    samples: Optional[Tuple[int, float, float]] = None

    def __str__(self):
        tag = "holds" if self.holds else "FAILS"
        if self.samples is not None:
            count, lo, hi = self.samples
            tag += f" at {count} samples in [{lo:g}, {hi:g}]"
        w = f" at s={self.witness:g}" if self.witness is not None else ""
        return f"{tag} (max violation {self.max_violation:.3e}{w})"


# the sampled checks read each inequality at this many log-spaced points and
# accept a violation up to this fraction of max(1, max |lhs|)
_SAMPLES = 200
_REL_TOL = 1e-9


def _sampled_report(
    s: np.ndarray, lhs: np.ndarray, rhs: np.ndarray
) -> ConditionReport:
    """The verdict on lhs <= rhs at the sample points s."""
    margin = lhs - rhs
    i = int(np.argmax(margin))
    tol = _REL_TOL * max(1.0, float(np.max(np.abs(lhs))))
    return ConditionReport(
        holds=bool(margin[i] <= tol),
        max_violation=float(margin[i]),
        witness=float(s[i]),
        samples=(len(s), float(s[0]), float(s[-1])),
    )


def _growth_bound(s: np.ndarray, n: int, k: float, exponent: float) -> np.ndarray:
    """The growth condition's bound k*s*(ln s)^theta (n = 2) or k*s^(2-a') (n >= 3)."""
    if n == 2:
        return k * s * np.log(s) ** exponent
    return k * s ** (2.0 - exponent)


def check_growth_condition(
    table: FunctionalTable,
    n: int,
    k: float,
    exponent: float,
) -> ConditionReport:
    """Check G(s) <= k*s*(ln s)^theta (n=2) or G(s) <= k*s^(2-a') (n>=3) on [s0, s_max].

    `exponent` is theta in (0,1) for n=2 and a' > 2/n for n >= 3 (the growth
    exponent, distinct from the diffusivity exponent).
    """
    if n == 2:
        if not (0.0 < exponent < 1.0):
            raise PreconditionError("n=2 requires theta in (0, 1)")
    elif n >= 3:
        if not exponent > 2.0 / n:
            raise PreconditionError(f"n={n} requires exponent > 2/n")
    else:
        raise PreconditionError("dimension must be >= 2")

    s = np.geomspace(max(table.s0, 1.0), table.s_max, _SAMPLES)
    return _sampled_report(s, table.g(s), _growth_bound(s, n, k, exponent))


def check_eps_condition(
    table: FunctionalTable,
    n: int,
    eps_c: float,
    K: float,
) -> ConditionReport:
    """Check H(s) <= (n-2-eps_c)/n * G(s) + K*s over [s0, s_max] (n >= 3, s0 > 1)."""
    if n < 3:
        raise PreconditionError("this condition is for n >= 3")
    if not (0.0 < eps_c < 1.0):
        raise PreconditionError("eps_c must lie in (0, 1)")
    if table.s0 <= 1.0:
        raise PreconditionError("condition requires an anchor s0 > 1")
    s = np.geomspace(table.s0, table.s_max, _SAMPLES)
    rhs = (n - 2.0 - eps_c) / n * table.g(s) + K * s
    return _sampled_report(s, table.h(s), rhs)


# ---------------------------------------------------------------------------
# override seam for the solver


@dataclass(frozen=True)
class Overrides:
    """Switches that replace the model nonlinearities (test seam).

    `unit_phi` sets the diffusivity to 1 (the heat mode), ln^0 of the model's
    formula, so the diffusion rate and its bound keep that formula with
    exponent 0. `zero_psi` and `zero_f` set the drift sensitivity and the
    growth term to zero, whose exact slope is 0, so the CFL rates stay the
    model's formula. `ratio_spec` controls the table the diagnostics use
    (keep it consistent with phi and psi).
    """

    unit_phi: bool = False
    zero_psi: bool = False
    zero_f: bool = False
    ratio_spec: RatioSpec = RatioSpec.model()


# The effective nonlinearities are check-free: callers validate u >= 0 once,
# at their own API boundary, and pass 1-D float arrays. Each closure folds the
# exact identities of its parameters once, where it is built (x ** 1.0 = x,
# 1.0 * x = x, so psi(u) = u at psi_c = beta = 1), and returns bitwise what
# the unfolded formula returns. No caller writes into a result, so a closure
# may return its argument itself.


def effective_phi(p: ModelParams, ov: Optional[Overrides]):
    if ov is not None and ov.unit_phi:
        return np.ones_like
    if p.alpha == 1.0:
        eps = p.eps
        return lambda u: np.log1p(u + eps)  # ln^1 = ln
    return lambda u: _diffusivity_reg(u, p)


def effective_psi(p: ModelParams, ov: Optional[Overrides]):
    if ov is not None and ov.zero_psi:
        return np.zeros_like
    c, beta = p.psi_c, p.beta
    if beta == 1.0:
        return (lambda u: u) if c == 1.0 else (lambda u: c * u)
    if c == 1.0:
        return lambda u: u ** beta
    return lambda u: _sensitivity(u, p)


def _zero_f(u, umax=None, out=None):
    if out is None:
        return np.zeros_like(u)
    out[...] = 0.0
    return out


def effective_f(p: ModelParams, ov: Optional[Overrides]):
    """f(u, umax=None, out=None), where umax is max(u) if known; out receives f(u) if given."""
    if ov is not None and ov.zero_f:
        return _zero_f
    if p.b == 1.0:
        a, kappa = p.a, p.kappa
        return lambda u, umax=None, out=None: _cut_off(
            np.subtract(a, u ** kappa, out=out), u, p, umax
        )
    return lambda u, umax=None, out=None: _cut_off(_growth(u, p, out), u, p, umax)
