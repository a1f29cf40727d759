"""Adaptive Simpson quadrature for the scalar integrals behind the energy tables.

Tolerances are absolute with a relative floor: an interval is accepted once the
Richardson estimate of its error drops below max(tol, rel_floor*|value|), so
integrals whose magnitude dwarfs 64-bit resolution still terminate. A
non-finite estimate raises QuadratureError at once.
"""

from __future__ import annotations

import math

from .errors import DivergenceError, QuadratureError

_REL_FLOOR = 1e-14


def _simpson(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 48) -> float:
    """Integrate f over [a, b] to absolute tolerance tol (with a 1e-14 relative floor)."""
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol, max_depth)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, a, b)
    return _refine(f, a, fa, b, fb, m, fm, whole, tol, max_depth)


def _refine(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    delta = left + right - whole
    if abs(delta) <= 15.0 * max(tol, _REL_FLOOR * abs(left + right)) or (b - a) < 1e-15 * (
        abs(a) + abs(b)
    ):
        return left + right + delta / 15.0
    # a NaN or inf estimate would otherwise bisect to the width floor, about
    # 2^45 evaluations; converging intervals returned above and pay nothing
    if not math.isfinite(delta):
        raise QuadratureError(f"non-finite integrand on [{a:g}, {b:g}]")
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson did not converge on [{a:g}, {b:g}] (remaining error ~{abs(delta):g})"
        )
    half = 0.5 * tol
    return _refine(f, a, fa, m, fm, lm, flm, left, half, depth - 1) + _refine(
        f, m, fm, b, fb, rm, frm, right, half, depth - 1
    )


def moment_tail(N: float, lam: float, S: float, tol: float):
    """Alternating series for int_S^inf s^(N-1) (s^2+1)^(-lam/2) ds.

    Expands (1+s^-2)^(-lam/2) binomially; valid and rapidly convergent once
    S^2 > lam. Returns (value, bound_on_truncation_error) or None if the series
    does not reach tol within the term budget.
    """
    total = 0.0
    coeff = 1.0  # binom(-lam/2, j), starts at j=0
    for j in range(0, 120):
        term = coeff * S ** (N - lam - 2 * j) / (lam + 2 * j - N)
        total += term
        coeff *= (-lam / 2.0 - j) / (j + 1.0)
        nxt = abs(coeff * S ** (N - lam - 2 * (j + 1)) / (lam + 2 * (j + 1) - N))
        if nxt <= tol:
            return total, nxt
        if nxt > abs(term):  # not yet in the decreasing regime: S too small
            return None
    return None


def improper_power_integral(N: float, lam: float, tol: float = 1e-10) -> float:
    """int_0^inf s^(N-1) (s^2+1)^(-lam/2) ds for lam > N > 0.

    Adaptive Simpson on [0, S] plus the analytic tail series beyond S; S is
    grown until the tail series is alternating and below tol/2.
    """
    if N <= 0.0:
        raise ValueError(f"N must be > 0, got {N}")
    if lam <= N:
        raise DivergenceError(
            f"moment integral diverges: need lam > N, got N={N}, lam={lam}"
        )

    def integrand(s: float) -> float:
        return s ** (N - 1.0) * (s * s + 1.0) ** (-lam / 2.0)

    S = max(10.0, 2.0 * math.sqrt(max(lam, 1.0)))
    tail = moment_tail(N, lam, S, tol / 4.0)
    while tail is None and S < 1e12:
        S *= 2.0
        tail = moment_tail(N, lam, S, tol / 4.0)
    if tail is None:
        raise QuadratureError("tail series did not converge")
    if N >= 1.0:
        head = adaptive_simpson(integrand, 0.0, S, tol / 2.0)
    else:
        # substitute s = t^(1/N) on [0,1] to remove the endpoint singularity
        def left(t: float) -> float:
            s = t ** (1.0 / N)
            return (s * s + 1.0) ** (-lam / 2.0) / N

        head = adaptive_simpson(left, 0.0, 1.0, tol / 4.0)
        head += adaptive_simpson(integrand, 1.0, S, tol / 4.0)
    return head + tail[0]
