import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import ksfv
from ksfv import nonlin, quadrature
from ksfv.errors import DivergenceError, QuadratureError
from ksfv.quadrature import adaptive_simpson, moment_integral


@pytest.mark.parametrize(
    "f,a,b,exact",
    [
        (lambda x: x * x, 0.0, 2.0, 8.0 / 3.0),
        (lambda x: math.sin(x), 0.0, math.pi, 2.0),
        (lambda x: math.exp(-x), 0.0, 50.0, 1.0 - math.exp(-50.0)),
        (lambda x: 1.0 / math.sqrt(x + 1e-6), 0.0, 1.0, 2.0 * (math.sqrt(1.0 + 1e-6) - math.sqrt(1e-6))),
    ],
)
def test_adaptive_simpson_analytic(f, a, b, exact):
    assert adaptive_simpson(f, a, b, 1e-12) == pytest.approx(exact, abs=5e-11)


def test_adaptive_simpson_vs_scipy():
    f = lambda x: math.log1p(x) / (x * x + 0.3)
    mine = adaptive_simpson(f, 0.1, 7.0, 1e-12)
    ref, _ = quad(f, 0.1, 7.0, epsabs=1e-13, epsrel=1e-13)
    assert mine == pytest.approx(ref, abs=1e-12)


def test_adaptive_simpson_orientation():
    f = lambda x: x
    assert adaptive_simpson(f, 1.0, 0.0, 1e-12) == pytest.approx(-0.5, abs=1e-13)
    assert adaptive_simpson(f, 1.0, 1.0, 1e-12) == 0.0


@pytest.mark.parametrize("kind", [float, np.float64])
def test_scalar_integrand_sees_the_bounds_type(kind):
    # as the recursion's midpoints did: a ratio like (t - 1) ** 0.5 is a
    # complex on Python floats and nan on numpy scalars
    seen = set()

    def f(t):
        seen.add(type(t))
        return t

    adaptive_simpson(f, kind(0.0), kind(1.0), 1e-12)
    assert seen == {kind}


def test_moment_integral_closed_forms():
    # antiderivative -1/2 (1+s^2)^-1 gives 1/2; arctan gives pi/2;
    # s = tan(theta) reduces A(3,5) to int sin^2 cos = 1/3
    assert abs(moment_integral(2, 4) - 0.5) <= 1e-10
    assert abs(moment_integral(1, 2) - math.pi / 2.0) <= 1e-10
    assert abs(moment_integral(3, 5) - 1.0 / 3.0) <= 1e-10


def test_moment_integral_beta_function():
    # independent closed form: A(N, lam) = Gamma(N/2) Gamma((lam-N)/2) / (2 Gamma(lam/2))
    for N, lam in [(2.0, 4.0), (3.0, 7.5), (0.7, 2.2), (4.0, 9.0)]:
        exact = (
            math.gamma(N / 2.0)
            * math.gamma((lam - N) / 2.0)
            / (2.0 * math.gamma(lam / 2.0))
        )
        assert moment_integral(N, lam) == pytest.approx(exact, abs=2e-10)


def test_moment_integral_divergent():
    with pytest.raises(DivergenceError):
        moment_integral(3, 3)
    with pytest.raises(DivergenceError):
        moment_integral(4, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_raises_at_once(bad):
    calls = []

    def f(x):
        calls.append(x)
        return bad if x > 0.3 else 1.0

    with pytest.raises(QuadratureError, match="non-finite integrand"):
        adaptive_simpson(f, 0.0, 1.0, 1e-10)
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# the reference: adaptive Simpson as a depth-first recursion, one interval at a
# time; the level-synchronous engine must return its values bit for bit


def _simpson(fa, fm, fb, a, b):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def reference_simpson(f, a, b, tol, max_depth=48):
    if a == b:
        return 0.0
    if b < a:
        return -reference_simpson(f, b, a, tol, max_depth)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return _refine(f, a, fa, b, fb, m, fm, _simpson(fa, fm, fb, a, b), tol, max_depth)


def _refine(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    delta = left + right - whole
    if abs(delta) <= 15.0 * max(tol, 1e-14 * abs(left + right)) or (b - a) < 1e-15 * (
        abs(a) + abs(b)
    ):
        return left + right + delta / 15.0
    if not math.isfinite(delta):
        raise QuadratureError(f"non-finite integrand on [{a:g}, {b:g}]")
    if depth <= 0:
        raise QuadratureError(f"adaptive Simpson did not converge on [{a:g}, {b:g}]")
    half = 0.5 * tol
    return _refine(f, a, fa, m, fm, lm, flm, left, half, depth - 1) + _refine(
        f, m, fm, b, fb, rm, frm, right, half, depth - 1
    )


def _batched(funcs, kinds):
    """The engine's f(x, k) for integral k with integrand funcs[kinds[k]]."""

    def f(x, k):
        return np.array([funcs[kinds[i]](t) for t, i in zip(x.tolist(), k.tolist())])

    return f


def _interval(message):
    lo, hi = re.search(r"on \[(\S+), (\S+)\]", message).groups()
    return float(lo), float(hi)


INTEGRANDS = [
    lambda t: t ** -3.0,  # refines deeply near 1e-8
    lambda t: math.log1p(t) / (t * t),
    lambda t: math.sin(3.0 * t) + t,
    lambda t: math.sqrt(t),
]

CASE = st.tuples(
    st.integers(0, len(INTEGRANDS) - 1),
    st.floats(-8.0, 1.0),  # log10 of the left end
    st.floats(-3.0, 2.0),  # log10 of the relative width
    st.floats(-14.0, -6.0),  # log10 of tol
    st.sampled_from(["forward", "reversed", "empty"]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(CASE, min_size=1, max_size=6), st.sampled_from([None, 4, 32]))
def test_batch_equals_reference_bitwise(cases, max_open):
    # max_open, when set, makes the engine refine wide levels in small chunks
    saved = quadrature._MAX_OPEN
    quadrature._MAX_OPEN = max_open or saved
    try:
        _check_batch(cases)
    finally:
        quadrature._MAX_OPEN = saved


def _check_batch(cases):
    kinds, a, b, tol = [], [], [], []
    for kind, lo, width, tol_exp, orientation in cases:
        left = 10.0 ** lo
        right = left if orientation == "empty" else left * (1.0 + 10.0 ** width)
        if orientation == "reversed":
            left, right = right, left
        kinds.append(kind)
        a.append(left)
        b.append(right)
        tol.append(10.0 ** tol_exp)
    try:
        expected = [
            reference_simpson(INTEGRANDS[kind], *args) for kind, *args in zip(kinds, a, b, tol)
        ]
    except QuadratureError:
        with pytest.raises(QuadratureError):
            adaptive_simpson(_batched(INTEGRANDS, kinds), np.array(a), np.array(b), np.array(tol))
        return
    got = adaptive_simpson(_batched(INTEGRANDS, kinds), np.array(a), np.array(b), np.array(tol))
    assert got.shape == (len(cases),)
    assert np.all(got == np.array(expected))
    for kind, left, right, t, value in zip(kinds, a, b, tol, got):
        assert adaptive_simpson(INTEGRANDS[kind], left, right, t) == value


def _reference_walk(rho, knots, G, H, Gp, start, stop, seg_tol):
    step = 1 if stop > start else -1
    for k in range(start, stop, step):
        a, b = knots[k], knots[k + step]
        Gp[k + step] = Gp[k] + reference_simpson(rho, a, b, seg_tol)
        G[k + step] = G[k] + Gp[k] * (b - a) + reference_simpson(
            lambda t: rho(t) * (b - t), a, b, seg_tol
        )
        H[k + step] = H[k] + reference_simpson(lambda t: t * rho(t), a, b, seg_tol)


RATIOS = {
    "model": ksfv.RatioSpec.model(),
    "unit": ksfv.RatioSpec.unit(),
    "custom": ksfv.RatioSpec.custom(
        lambda t: 1.0 / (t * math.sqrt(1.0 + t)), lambda t: -1.0 / t
    ),
}


@pytest.mark.parametrize("ratio", sorted(RATIOS))
def test_tables_equal_reference_walk_bitwise(ratio):
    spec = RATIOS[ratio]
    for alpha in (1.0, 2.0):
        for beta in (1.0, 2.0, 2.5, 3.0):
            for eps in (0.0, 1e-3, 1e-2):
                p = ksfv.ModelParams(alpha=alpha, beta=beta, eps=eps, s0=1.0)
                t = nonlin.build_table(p, spec, s_max=1e3).covering(5e4).covering(1e7)
                knots = nonlin._make_knots(1e-8, 1.0, 1e3)
                assert t.base_knots == len(knots)
                r = 10.0 ** (1.0 / 48)
                extension = [knots[-1] * r ** k for k in range(1, len(t.knots) - len(knots) + 1)]
                knots = np.concatenate([knots, extension])
                assert np.array_equal(t.knots, knots) and knots[-2] < 1e7 <= knots[-1]
                G, H, Gp = np.zeros_like(knots), np.zeros_like(knots), np.zeros_like(knots)
                rho, rho_prime = nonlin._scalar_ratio(p, spec)
                i0 = int(np.argmin(np.abs(knots - 1.0)))
                _reference_walk(rho, knots, G, H, Gp, i0, len(knots) - 1, t.seg_tol)
                _reference_walk(rho, knots, G, H, Gp, i0, 0, t.seg_tol)
                assert np.array_equal(t.G_vals, G), (alpha, beta, eps)
                assert np.array_equal(t.H_vals, H), (alpha, beta, eps)
                assert np.array_equal(t.Gp_vals, Gp), (alpha, beta, eps)
                assert np.array_equal(t.rho_vals, [rho(x) for x in knots])
                assert np.array_equal(t.rho_prime_vals, [rho_prime(x) for x in knots])


def test_batch_names_a_non_finite_interval():
    funcs = [math.exp, lambda t: math.nan if t > 2.5 else 1.0]
    with pytest.raises(QuadratureError, match="non-finite integrand") as info:
        adaptive_simpson(_batched(funcs, [0, 1]), [0.0, 2.0], [1.0, 3.0], 1e-10)
    lo, hi = _interval(str(info.value))
    assert 2.0 <= lo < hi <= 3.0
    with pytest.raises(QuadratureError, match="non-finite integrand"):
        reference_simpson(funcs[1], 2.0, 3.0, 1e-10)


def test_batch_names_an_interval_that_does_not_converge():
    # a jump converges only to the width floor, far beyond six bisections
    funcs = [lambda t: t * t, lambda t: 0.0 if t < 2.0 + 1.0 / math.pi else 1.0]
    with pytest.raises(QuadratureError, match="did not converge") as info:
        adaptive_simpson(_batched(funcs, [0, 1]), [0.0, 2.0], [1.0, 3.0], 1e-12, max_depth=6)
    lo, hi = _interval(str(info.value))
    assert 2.0 <= lo < 2.0 + 1.0 / math.pi < hi <= 3.0
    with pytest.raises(QuadratureError, match="did not converge"):
        reference_simpson(funcs[1], 2.0, 3.0, 1e-12, max_depth=6)
    assert adaptive_simpson(funcs[0], 0.0, 1.0, 1e-12, max_depth=6) == reference_simpson(
        funcs[0], 0.0, 1.0, 1e-12, max_depth=6
    )


def test_never_settling_integrand_holds_memory_in_proportion_to_depth():
    # at any width this integrand looks like noise, so most intervals split at
    # every level; refined in one piece, 20 levels hold about 34 MB of arrays
    def noise(t):
        return (t * 1e9 * math.pi) % 1.0

    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match="did not converge"):
            adaptive_simpson(noise, 0.0, 1.0, 1e-12, max_depth=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
