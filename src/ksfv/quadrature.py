"""Adaptive Simpson quadrature for the scalar integrals behind the energy tables.

Tolerances are absolute with a relative floor: an interval is accepted once the
Richardson estimate of its error drops below max(tol, rel_floor*|value|), so
integrals whose magnitude dwarfs 64-bit resolution still terminate. A
non-finite estimate raises QuadratureError at once.

The engine is level-synchronous: it holds the open intervals of many integrals
as numpy arrays and bisects all of them one level at a time. Per interval it
does the arithmetic of the classic recursion (the same Simpson formula, the
same acceptance test, the tolerance halved and the depth counted down per
level, left + right + delta/15 on acceptance, and each parent the sum of its
two children), so every integral is bitwise what the recursion returns.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError, PreconditionError, QuadratureError

_REL_FLOOR = 1e-14
_IMPROPER_TOL = 1e-10  # improper_power_integral's absolute tolerance


def _simpson(fa, fm, fb, a, b):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a, b, tol, max_depth: int = 48):
    """Integrate f over [a, b] to absolute tolerance tol (with a 1e-14 relative floor).

    With scalar bounds, f is a scalar function f(t) and the result is a float.
    With 1-D array bounds (a, b and tol broadcast together), the result is the
    array of integrals over [a[i], b[i]], and f(x, k) is called once per
    bisection level with the level's points x and the index k of the integral
    each point belongs to; it returns the integrands' values at x. An integral
    with b < a is the negated integral over [b, a], and one with a == b is 0.

    Raises QuadratureError on a non-finite estimate, or when an interval is
    still open after max_depth bisections. The message names an offending
    interval; in a batch it is the first the engine meets, which need not be
    the first failure in the depth-first order of a recursion.
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        # f sees the type of the recursion's midpoints 0.5 * (a + b): numpy
        # scalars for numpy bounds, Python floats otherwise
        numpy = isinstance(a + b, np.generic)

        def batch(x, k):
            return np.fromiter(map(f, x if numpy else x.tolist()), float, len(x))

        return float(adaptive_simpson(batch, [a], [b], tol, max_depth)[0])
    a, b, tol = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(tol, dtype=float)
    )
    return _integrate(f, a, b, tol, max_depth)


# a non-finite estimate raises QuadratureError, so numpy need not warn of it
@np.errstate(invalid="ignore", over="ignore")
def _integrate(f, a, b, tol, max_depth):
    """The level-synchronous engine on 1-D bounds and tolerances."""
    out = np.zeros(len(a))
    flip = b < a
    live = np.flatnonzero(a != b)
    if not len(live):
        return out
    X = np.empty((len(live), 5))
    X[:, 0] = np.where(flip, b, a)[live]
    X[:, 4] = np.where(flip, a, b)[live]
    X[:, 2] = 0.5 * (X[:, 0] + X[:, 4])
    _quarter(X)
    Y = f(X.ravel(), np.repeat(live, 5)).reshape(X.shape)
    whole = _simpson(Y[:, 0], Y[:, 2], Y[:, 4], X[:, 0], X[:, 4])
    value = _refine(f, X, Y, whole, live, tol[live], max_depth)
    out[live] = np.where(flip[live], -value, value)
    return out


# the most open intervals a level holds: a wider level is refined depth-first in
# chunks of this size, so an integrand that never settles (each level twice as
# wide as the last) costs memory in proportion to the depth, not to 2^depth
_MAX_OPEN = 4096


def _refine(f, X, Y, whole, K, T, depth):
    """The values of the open intervals, refined one level at a time.

    Row i of X holds the points a, lm, m, rm, b of open interval i, row i of Y
    the integrand there, whole[i] its Simpson estimate, K[i] its integral and
    T[i] its tolerance; depth bisections are left.
    """
    levels = []  # (value where accepted, open mask) per level
    while True:
        a, m, b = X[:, 0], X[:, 2], X[:, 4]
        left = _simpson(Y[:, 0], Y[:, 1], Y[:, 2], a, m)
        right = _simpson(Y[:, 2], Y[:, 3], Y[:, 4], m, b)
        total = left + right
        delta = total - whole
        floor = _REL_FLOOR * np.abs(total)
        # np.where(floor > T, ...) is Python's max(T, floor), NaN included
        split = ~(
            (np.abs(delta) <= 15.0 * np.where(floor > T, floor, T))
            | ((b - a) < 1e-15 * (np.abs(a) + np.abs(b)))
        )
        if not split.any():
            value = total + delta / 15.0
            break
        levels.append((total + delta / 15.0, split))
        # a NaN or inf estimate would otherwise bisect to the width floor,
        # about 2^45 evaluations per interval
        bad = split & ~np.isfinite(delta) if depth > 0 else split
        if bad.any():
            i = int(np.argmax(bad))
            where = (float(a[i]), float(b[i]))
            if not math.isfinite(delta[i]):
                raise QuadratureError(
                    f"non-finite integrand on [{a[i]:g}, {b[i]:g}]", where, non_finite=True
                )
            raise QuadratureError(
                f"adaptive Simpson did not converge on [{a[i]:g}, {b[i]:g}]"
                f" (remaining error ~{abs(delta[i]):g})",
                where,
            )
        X, Y = _halves(X[split]), _halves(Y[split])
        whole = np.column_stack([left[split], right[split]]).ravel()
        K = np.repeat(K[split], 2)
        T = np.repeat(0.5 * T[split], 2)
        depth -= 1
        _quarter(X)
        Y[:, 1::2] = f(X[:, 1::2].ravel(), np.repeat(K, 2)).reshape(-1, 2)
        if len(X) > _MAX_OPEN:
            chunks = [slice(i, i + _MAX_OPEN) for i in range(0, len(X), _MAX_OPEN)]
            value = np.concatenate(
                [_refine(f, X[c], Y[c], whole[c], K[c], T[c], depth) for c in chunks]
            )
            break
    # bottom-up: an open interval's value is its left child's plus its right's
    for accepted, split in reversed(levels):
        child, value = value, accepted
        value[split] = child[0::2] + child[1::2]
    return value


def _halves(rows):
    """Rows for the left and right halves of each row, in order; columns 1, 3 unset."""
    children = np.empty((len(rows), 2, 5))
    children[:, 0, 0::2] = rows[:, 0:3]
    children[:, 1, 0::2] = rows[:, 2:5]
    return children.reshape(-1, 5)


def _quarter(X):
    """Set the points lm and rm of each row from its a, m and b."""
    X[:, 1] = 0.5 * (X[:, 0] + X[:, 2])
    X[:, 3] = 0.5 * (X[:, 2] + X[:, 4])


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


def improper_power_integral(N: float, lam: float) -> float:
    """int_0^inf s^(N-1) (s^2+1)^(-lam/2) ds for lam > N > 0, to about 1e-10.

    Adaptive Simpson on [0, S] plus the analytic tail series beyond S; S is
    grown until the tail series is alternating and below a quarter of 1e-10.
    """
    if N <= 0.0:
        raise PreconditionError(f"N must be > 0, got {N}")
    if lam <= N:
        raise DivergenceError(
            f"moment integral diverges: need lam > N, got N={N}, lam={lam}"
        )

    def integrand(s: float) -> float:
        return s ** (N - 1.0) * (s * s + 1.0) ** (-lam / 2.0)

    S = max(10.0, 2.0 * math.sqrt(max(lam, 1.0)))
    tail = moment_tail(N, lam, S, _IMPROPER_TOL / 4.0)
    while tail is None and S < 1e12:
        S *= 2.0
        tail = moment_tail(N, lam, S, _IMPROPER_TOL / 4.0)
    if tail is None:
        raise QuadratureError("tail series did not converge")
    if N >= 1.0:
        head = adaptive_simpson(integrand, 0.0, S, _IMPROPER_TOL / 2.0)
    else:
        # substitute s = t^(1/N) on [0,1] to remove the endpoint singularity
        def left(t: float) -> float:
            s = t ** (1.0 / N)
            return (s * s + 1.0) ** (-lam / 2.0) / N

        head = adaptive_simpson(left, 0.0, 1.0, _IMPROPER_TOL / 4.0)
        head += adaptive_simpson(integrand, 1.0, S, _IMPROPER_TOL / 4.0)
    return head + tail[0]
