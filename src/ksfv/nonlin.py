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


def _growth(u: np.ndarray, p: ModelParams) -> np.ndarray:
    return p.a - p.b * u ** p.kappa


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
                # growth_cutoff(u[hot], p) without smooth_step's x <= 0
                # branch: x > 0 on every hot cell
                f[hot] *= 1.0 - _rise((u[hot] - lo) / (1.0 / p.eps - lo))
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
    """smooth_step on x > 0: 1 for x >= 1, strictly increasing below."""
    xc = np.minimum(np.maximum(x, 1e-12), 1.0 - 1e-12)
    g0 = np.exp(-1.0 / xc)
    g1 = np.exp(-1.0 / (1.0 - xc))
    return np.where(x >= 1.0, 1.0, g0 / (g0 + g1))


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, strictly increasing between."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, _rise(x))


def growth_cutoff(u, p: ModelParams):
    """Smooth window equal to 1 on [0, 1/(2 eps)] and 0 beyond 1/eps (1 everywhere for eps=0)."""
    u = np.asarray(u, dtype=float)
    if p.eps <= 0.0:
        return np.ones_like(u)
    lo = 1.0 / (2.0 * p.eps)
    hi = 1.0 / p.eps
    return 1.0 - smooth_step((u - lo) / (hi - lo))


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
    """Which ratio feeds the energy integrands: the model's, 1, or a custom callable."""

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
    def custom(fn, fn_prime=None) -> "RatioSpec":
        if fn is None:
            raise UsageError("custom ratio requires a callable defined on (0, inf)")
        return RatioSpec("custom", fn, fn_prime)


def ratio(tau, p: ModelParams, spec: RatioSpec = RatioSpec.model()):
    """Evaluate the active ratio at tau > 0 (the sensitivity vanishes at 0)."""
    arr = np.asarray(tau, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("ratio is only defined for tau > 0")
    if spec.kind == "unit":
        return np.ones_like(arr) if arr.shape else 1.0
    if spec.kind == "custom":
        return spec.fn(arr)
    return diffusivity_reg(arr, p) / sensitivity(arr, p)


def _scalar_ratio(p: ModelParams, spec: RatioSpec):
    """Scalar (math-module) ratio and its derivative, for the quadrature hot path."""
    if spec.kind == "unit":
        return (lambda t: 1.0), (lambda t: 0.0)
    if spec.kind == "custom":
        fn = spec.fn
        if spec.fn_prime is not None:
            return fn, spec.fn_prime

        def numeric_prime(t: float) -> float:
            h = 1e-6 * max(abs(t), 1e-12)
            return (fn(t + h) - fn(t - h)) / (2.0 * h)

        return fn, numeric_prime

    alpha, beta, eps, c = p.alpha, p.beta, p.eps, p.psi_c

    def rho(t: float) -> float:
        return math.log1p(t + eps) ** alpha / (c * t ** beta)

    def rho_prime(t: float) -> float:
        L = math.log1p(t + eps)
        phi = L ** alpha
        dphi = alpha * L ** (alpha - 1.0) / (1.0 + t + eps)
        psi = c * t ** beta
        dpsi = c * beta * t ** (beta - 1.0)
        return (dphi * psi - phi * dpsi) / (psi * psi)

    return rho, rho_prime


# ---------------------------------------------------------------------------
# tabulated energy integrands


def _hermite5(x: np.ndarray, knots, y, d1, d2) -> np.ndarray:
    """Piecewise quintic Hermite evaluation with nodal values and two derivatives."""
    idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(knots) - 2)
    x0 = knots[idx]
    dx = knots[idx + 1] - x0
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
    return (
        y[idx] * h00
        + dx * d1[idx] * h10
        + dx * dx * d2[idx] * h20
        + y[idx + 1] * h01
        + dx * d1[idx + 1] * h11
        + dx * dx * d2[idx + 1] * h21
    )


@dataclass(frozen=True)
class FunctionalTable:
    """Tabulated G, H, Gp with quintic Hermite interpolation between knots.

    Immutable; covering() returns a new, wider table instead of mutating. A
    table is a base table from build_table(), its first base_knots knots on
    [s_min, base_s_max], followed by the upward extension covering() appends:
    knots base_s_max * r**k, k = 1, 2, ..., with r = 10**(1/knots_per_decade).

    Every segment, base or extension, is integrated once to the absolute
    tolerance seg_tol = tol / n_base_segments, and the knot values accumulate
    segment by segment from s0. The quadrature error at a knot is therefore at
    most seg_tol times the number of segments between s0 and that knot, which
    is at most tol * n_segments / n_base_segments: tol itself on a base table,
    and growing in proportion to the knots an extension adds. Where the
    integrands are enormous, the quadrature's 1e-14 relative floor applies per
    segment instead of seg_tol. Segments are integrated in batches, but each
    batched integral is bitwise the one-segment quadrature at seg_tol, so the
    bound and every value are those of integrating one segment at a time.
    """

    params: ModelParams
    ratio_spec: RatioSpec
    s0: float
    s_min: float
    s_max: float
    tol: float
    knots_per_decade: int
    seg_tol: float  # per-segment quadrature tolerance, fixed by the base table
    base_knots: int  # knots of the base table; the rest are the extension
    knots: np.ndarray
    G_vals: np.ndarray
    H_vals: np.ndarray
    Gp_vals: np.ndarray
    rho_vals: np.ndarray
    rho_prime_vals: np.ndarray

    def _check_range(self, s: np.ndarray):
        if np.any(s > self.s_max * (1.0 + 1e-12)):
            raise UsageError(
                f"evaluation above table range (s_max={self.s_max:g}); use covering() first"
            )
        if np.any(s < self.s_min * (1.0 - 1e-12)):
            raise UsageError(f"evaluation below table range (s_min={self.s_min:g})")

    def g(self, s):
        s = np.asarray(s, dtype=float)
        self._check_range(s)
        return _hermite5(s, self.knots, self.G_vals, self.Gp_vals, self.rho_vals)

    def gp(self, s):
        s = np.asarray(s, dtype=float)
        self._check_range(s)
        return _hermite5(s, self.knots, self.Gp_vals, self.rho_vals, self.rho_prime_vals)

    def h(self, s):
        s = np.asarray(s, dtype=float)
        self._check_range(s)
        hp = self.knots * self.rho_vals
        hpp = self.rho_vals + self.knots * self.rho_prime_vals
        return _hermite5(s, self.knots, self.H_vals, hp, hpp)

    def covering(self, s: float) -> "FunctionalTable":
        """Return a table whose range contains s, extending this one upward.

        Returns self when s <= s_max. Otherwise the new table keeps every knot
        and value of this one bitwise and appends the extension knots
        base_s_max * r**k up to the first one >= s, integrating only the new
        segments, each once at seg_tol. The knots come from one fixed sequence
        and each segment is integrated from its own endpoints, so for a < b
        t.covering(a).covering(b) is bitwise t.covering(b), and values inside
        the old range do not change. The error bound grows with the segments
        added (see the class docstring). Raises DivergenceError when a new
        segment's quadrature cannot converge.
        """
        if s <= self.s_max:
            return self
        if not math.isfinite(s):
            raise UsageError(f"covering needs a finite s, got {s!r}")
        base = float(self.knots[self.base_knots - 1])
        r = 10.0 ** (1.0 / self.knots_per_decade)
        k = len(self.knots) - self.base_knots  # extension knots already present
        new = []
        while not new or new[-1] < s:
            k += 1
            new.append(base * r ** k)

        n = len(self.knots)
        knots = np.concatenate([self.knots, new])
        pad = np.zeros(len(new))
        G = np.concatenate([self.G_vals, pad])
        H = np.concatenate([self.H_vals, pad])
        Gp = np.concatenate([self.Gp_vals, pad])
        rho, rho_prime = _scalar_ratio(self.params, self.ratio_spec)
        try:
            _walk(rho, knots, G, H, Gp, n - 1, len(knots) - 1, self.seg_tol)
        except QuadratureError as exc:
            raise _divergence(self.params, self.ratio_spec, exc) from exc
        rho_k = np.concatenate([self.rho_vals, [rho(t) for t in knots[n:]]])
        rho_p_k = np.concatenate([self.rho_prime_vals, [rho_prime(t) for t in knots[n:]]])
        _freeze(knots, G, H, Gp, rho_k, rho_p_k)
        return replace(
            self,
            s_max=float(knots[-1]),
            knots=knots,
            G_vals=G,
            H_vals=H,
            Gp_vals=Gp,
            rho_vals=rho_k,
            rho_prime_vals=rho_p_k,
        )


def _make_knots(s_min: float, s0: float, s_max: float, per_decade: int) -> np.ndarray:
    decades = math.log10(s_max / s_min)
    count = max(int(math.ceil(decades * per_decade)), 8) + 1
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


def _divergence(p: ModelParams, spec: RatioSpec, exc: QuadratureError) -> DivergenceError:
    verdict = _integrability_verdict(p, spec)
    return DivergenceError(f"table quadrature failed ({verdict}): {exc}")


def build_table(
    p: ModelParams,
    ratio_spec: RatioSpec = RatioSpec.model(),
    s_min: float = 1e-8,
    s_max: float = 100.0,
    tol: float = 1e-10,
    knots_per_decade: int = 48,
) -> FunctionalTable:
    """Tabulate G, H, Gp on log-spaced knots anchored exactly at s0.

    Increments between consecutive knots are single adaptive-Simpson
    quadratures at seg_tol = tol / (number of segments), integrated outward
    from s0 in both directions. Raises DivergenceError when the quadrature
    cannot converge (a ratio too singular near zero for the requested s_min).
    """
    s0 = p.s0
    if not (0.0 < s_min < s0 < s_max):
        raise PreconditionError(
            f"need 0 < s_min < s0 < s_max, got s_min={s_min}, s0={s0}, s_max={s_max}"
        )
    if tol <= 0.0:
        raise PreconditionError("tol must be positive")

    rho, rho_prime = _scalar_ratio(p, ratio_spec)
    knots = _make_knots(s_min, s0, s_max, knots_per_decade)
    i0 = int(np.argmin(np.abs(knots - s0)))
    nseg = len(knots) - 1
    seg_tol = tol / max(nseg, 1)

    G = np.zeros_like(knots)
    H = np.zeros_like(knots)
    Gp = np.zeros_like(knots)

    try:
        _walk(rho, knots, G, H, Gp, i0, len(knots) - 1, seg_tol)
        _walk(rho, knots, G, H, Gp, i0, 0, seg_tol)
    except QuadratureError as exc:
        raise _divergence(p, ratio_spec, exc) from exc

    rho_k = np.array([rho(t) for t in knots])
    rho_p_k = np.array([rho_prime(t) for t in knots])
    _freeze(knots, G, H, Gp, rho_k, rho_p_k)
    return FunctionalTable(
        p,
        ratio_spec,
        s0,
        float(knots[0]),
        float(knots[-1]),
        tol,
        knots_per_decade,
        seg_tol,
        len(knots),
        knots,
        G,
        H,
        Gp,
        rho_k,
        rho_p_k,
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


def _sampled_report(
    s: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, rel_tol: float
) -> ConditionReport:
    """The verdict on lhs <= rhs at the sample points s."""
    margin = lhs - rhs
    i = int(np.argmax(margin))
    tol = rel_tol * max(1.0, float(np.max(np.abs(lhs))))
    return ConditionReport(
        holds=bool(margin[i] <= tol),
        max_violation=float(margin[i]),
        witness=float(s[i]),
        samples=(len(s), float(s[0]), float(s[-1])),
    )


def check_growth_condition(
    table: FunctionalTable,
    n: int,
    k: float,
    exponent: float,
    samples: int = 200,
    rel_tol: float = 1e-9,
) -> ConditionReport:
    """Check G(s) <= k*s*(ln s)^theta (n=2) or G(s) <= k*s^(2-a') (n>=3) on [s0, s_max].

    `exponent` is theta in (0,1) for n=2 and a' > 2/n for n >= 3 (the growth
    exponent, distinct from the diffusivity exponent).
    """
    if samples < 10:
        raise PreconditionError("need at least 10 sample points")
    if n == 2:
        if not (0.0 < exponent < 1.0):
            raise PreconditionError("n=2 requires theta in (0, 1)")
    elif n >= 3:
        if not exponent > 2.0 / n:
            raise PreconditionError(f"n={n} requires exponent > 2/n")
    else:
        raise PreconditionError("dimension must be >= 2")

    s = np.geomspace(max(table.s0, 1.0), table.s_max, samples)
    if n == 2:
        bound = k * s * np.log(s) ** exponent
    else:
        bound = k * s ** (2.0 - exponent)
    return _sampled_report(s, table.g(s), bound, rel_tol)


def check_eps_condition(
    table: FunctionalTable,
    n: int,
    eps_c: float,
    K: float,
    samples: int = 200,
    rel_tol: float = 1e-9,
) -> ConditionReport:
    """Check H(s) <= (n-2-eps_c)/n * G(s) + K*s over [s0, s_max] (n >= 3, s0 > 1)."""
    if n < 3:
        raise PreconditionError("this condition is for n >= 3")
    if not (0.0 < eps_c < 1.0):
        raise PreconditionError("eps_c must lie in (0, 1)")
    if samples < 10:
        raise PreconditionError("need at least 10 sample points")
    if table.s0 <= 1.0:
        raise PreconditionError("condition requires an anchor s0 > 1")
    s = np.geomspace(table.s0, table.s_max, samples)
    rhs = (n - 2.0 - eps_c) / n * table.g(s) + K * s
    return _sampled_report(s, table.h(s), rhs, rel_tol)


# ---------------------------------------------------------------------------
# override seam for the solver


@dataclass(frozen=True)
class Overrides:
    """Replacements for the model nonlinearities (test seam).

    `phi` maps a nonnegative cell array to an array and must be nondecreasing:
    the diffusion rate reads max phi over the cells, while the flux reads phi
    at the face means, which lie between them. `zero_psi` and `zero_f` set the
    drift sensitivity and the growth term to zero, whose exact slope is 0, so
    the CFL rates stay the model's formula. `ratio_spec` controls the table
    the diagnostics use (keep it consistent with phi and psi).
    """

    phi: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
    if ov is not None and ov.phi is not None:
        return ov.phi
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


def effective_f(p: ModelParams, ov: Optional[Overrides]):
    """f(u, umax=None), where umax is max(u) if known."""
    if ov is not None and ov.zero_f:
        return lambda u, umax=None: np.zeros_like(u)
    if p.b == 1.0:
        a, kappa = p.a, p.kappa
        return lambda u, umax=None: _cut_off(a - u ** kappa, u, p, umax)
    return lambda u, umax=None: _cut_off(_growth(u, p), u, p, umax)
