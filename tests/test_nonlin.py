import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy.integrate import quad

import ksfv
from ksfv.errors import DomainError, PreconditionError, UsageError
from ksfv.nonlin import (
    Overrides,
    damping_is_weak,
    diffusivity,
    diffusivity_reg,
    growth,
    growth_reg,
    ratio,
    sensitivity,
    smooth_step,
)
from oracles import growth_cutoff

E = math.e


def params(**kw):
    base = dict(alpha=1, beta=1, kappa=2, a=0, b=1, eps=0, s0=1.0, psi_c=1.0)
    base.update(kw)
    return ksfv.ModelParams(**base)


# ---------------------------------------------------------------------------
# scalar nonlinearities


def test_diffusivity_values():
    assert diffusivity(0.0, params(alpha=1)) == 0.0
    assert diffusivity(E - 1.0, params(alpha=1)) == pytest.approx(1.0, rel=1e-15)
    assert diffusivity(E * E - 1.0, params(alpha=3)) == pytest.approx(8.0, rel=1e-14)


def test_diffusivity_reg_values():
    assert diffusivity_reg(0.0, params(alpha=2, eps=E - 1.0)) == pytest.approx(1.0, rel=1e-14)
    u = np.linspace(0, 5, 11)
    assert np.allclose(diffusivity_reg(u, params(alpha=2, eps=0)), diffusivity(u, params(alpha=2)))
    # strictly positive once eps > 0
    assert diffusivity_reg(0.0, params(eps=1e-6)) > 0.0


def test_diffusivity_reg_against_decimal_log():
    getcontext().prec = 50
    expected = float(Decimal(2.5).ln())
    assert diffusivity_reg(1.0, params(alpha=1, eps=0.5)) == pytest.approx(expected, abs=1e-15)


def test_diffusivity_monotone_in_u_and_eps():
    rng = np.random.default_rng(7)
    u = np.sort(rng.uniform(0, 50, 64))
    for alpha in (1.0, 2.5):
        vals = diffusivity(u, params(alpha=alpha))
        assert np.all(np.diff(vals) >= 0)
        lo = diffusivity_reg(u, params(alpha=alpha, eps=0.1))
        hi = diffusivity_reg(u, params(alpha=alpha, eps=0.7))
        assert np.all(hi >= lo)


def test_sensitivity_values():
    assert sensitivity(2.0, params(beta=2)) == 4.0
    assert sensitivity(0.0, params(beta=1.7)) == 0.0
    assert sensitivity(3.0, params(beta=1.5, psi_c=2.0)) == pytest.approx(
        2.0 * 3.0 ** 1.5, rel=1e-15
    )


def test_growth_values():
    p = params(a=2.0, b=1.0, kappa=2)
    assert growth(0.0, p) == 2.0
    assert growth(math.sqrt(2.0), p) == pytest.approx(0.0, abs=1e-15)
    assert growth(3.0, params(a=0, b=1, kappa=2)) == -9.0


def test_negative_density_rejected():
    for fn in (diffusivity, diffusivity_reg, sensitivity, growth):
        with pytest.raises(DomainError):
            fn(-0.1, params())


def test_smooth_step_shape():
    x = np.linspace(-1, 2, 301)
    s = smooth_step(x)
    assert np.all(s[x <= 0] == 0.0)
    assert np.all(s[x >= 1] == 1.0)
    assert np.all(np.diff(s) >= -1e-15)
    # between the plateaus, bitwise the closed form (the clamp is inactive here);
    # the kernel's cutoff shares this formula, so its bitwise oracle cannot pin it
    inner = (x > 0) & (x < 1)
    g0, g1 = np.exp(-1.0 / x[inner]), np.exp(-1.0 / (1.0 - x[inner]))
    assert np.array_equal(s[inner], g0 / (g0 + g1))


def test_growth_cutoff_window():
    p = params(eps=0.05, a=1.0, b=1.0, kappa=2)
    lo, hi = 1.0 / (2 * p.eps), 1.0 / p.eps
    u = np.array([0.0, 1.0, lo, 0.5 * (lo + hi), hi, hi + 5.0])
    w = growth_cutoff(u, p)
    assert w[0] == w[1] == w[2] == 1.0
    assert 0.0 < w[3] < 1.0
    assert w[4] == w[5] == 0.0
    # inside the uncut window the damping band holds
    inside = np.linspace(0, lo, 50)
    f = growth_reg(inside, p)
    assert np.all(f <= p.a - p.b * inside ** p.kappa + 1e-12)
    assert np.all(f >= -p.b * inside ** p.kappa - 1e-12)


def test_growth_reg_without_eps_is_plain_growth():
    p = params(a=1.0, b=2.0, kappa=3, eps=0.0)
    u = np.linspace(0, 10, 33)
    assert np.array_equal(growth_reg(u, p), growth(u, p))


def test_damping_threshold():
    assert damping_is_weak(params(beta=2, kappa=2), 2)  # 2 < 3
    assert not damping_is_weak(params(beta=1, kappa=4), 2)
    assert not damping_is_weak(params(beta=3, kappa=3 + 2.0 / 3.0), 3)  # boundary excluded


# ---------------------------------------------------------------------------
# ratio


def test_ratio_unit():
    assert ratio(17.3, params(), ksfv.RatioSpec.unit()) == 1.0


def test_ratio_model_values():
    assert ratio(E - 1.0, params(alpha=1, beta=1), ksfv.RatioSpec.model()) == pytest.approx(
        1.0 / (E - 1.0), rel=1e-15
    )
    getcontext().prec = 50
    expected = float(Decimal("3.1").ln() ** 2 / 4)  # ln(1 + 2 + 0.1)^2 / 2^2
    got = ratio(2.0, params(alpha=2, beta=2, eps=0.1), ksfv.RatioSpec.model())
    assert got == pytest.approx(expected, abs=1e-14)


def test_ratio_domain_error():
    with pytest.raises(DomainError):
        ratio(0.0, params(), ksfv.RatioSpec.model())
    with pytest.raises(DomainError):
        ratio(-1.0, params(), ksfv.RatioSpec.unit())


RATIO_SPECS = {
    "model": ksfv.RatioSpec.model(),
    "unit": ksfv.RatioSpec.unit(),
    # scalar-only (math module) functions: they fail on an array argument
    "custom": ksfv.RatioSpec.custom(
        lambda t: 1.0 / (t * math.sqrt(1.0 + t)),
        lambda t: -(1.0 + 1.5 * t) / (t * t * (1.0 + t) ** 1.5),
    ),
}


@pytest.mark.parametrize("kind", sorted(RATIO_SPECS))
def test_ratio_equals_table_rho_bitwise(kind):
    spec = RATIO_SPECS[kind]
    p = params(alpha=2, beta=2.5, eps=0.01, psi_c=0.7)
    table = ksfv.build_table(p, spec, s_min=1e-3, s_max=10.0).covering(50.0)
    assert table.s_max >= 50.0
    got = ratio(table.knots, p, spec)
    assert isinstance(got, np.ndarray) and got.shape == table.knots.shape
    assert np.array_equal(got, table.rho_vals)
    block = ratio(table.knots[:6].reshape(2, 3), p, spec)
    assert np.array_equal(block, table.rho_vals[:6].reshape(2, 3))
    one = ratio(table.knots[7], p, spec)
    assert type(one) is float and one == table.rho_vals[7]


def test_custom_ratio_requires_callable():
    with pytest.raises(UsageError):
        ksfv.RatioSpec.custom(None, lambda t: 0.0)
    with pytest.raises(UsageError):  # the derivative is required too
        ksfv.RatioSpec.custom(lambda t: 1.0, None)


# ---------------------------------------------------------------------------
# tables


def test_unit_table_closed_forms():
    p = params(s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    assert float(t.g(3.0)) == pytest.approx(2.0, abs=1e-10)
    assert float(t.h(3.0)) == pytest.approx(4.0, abs=1e-10)
    assert float(t.gp(3.0)) == pytest.approx(2.0, abs=1e-10)
    assert float(t.g(1.0)) == 0.0
    assert float(t.h(1.0)) == 0.0
    assert float(t.gp(1.0)) == 0.0


def test_unit_table_random_points():
    p = params(s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    rng = np.random.default_rng(42)
    s = rng.uniform(t.s_min, 10.0, 100)
    assert np.max(np.abs(t.g(s) - 0.5 * (s - 1.0) ** 2)) <= 1e-8
    assert np.max(np.abs(t.h(s) - 0.5 * (s * s - 1.0))) <= 1e-8
    assert np.max(np.abs(t.gp(s) - (s - 1.0))) <= 1e-8


def _nested_simpson_G(rho, s0, s, tol=1e-10):
    """Deliberately naive double quadrature (the independent oracle)."""
    from ksfv.quadrature import adaptive_simpson

    def inner(sigma):
        return adaptive_simpson(rho, s0, sigma, tol * 0.01)

    return adaptive_simpson(inner, s0, s, tol)


def test_model_table_against_nested_simpson():
    p = params(alpha=1, beta=2, eps=0, s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=10.0)
    rho = lambda tau: math.log1p(tau) / (tau * tau)
    oracle = _nested_simpson_G(rho, 1.0, 5.0, 1e-10)
    assert float(t.g(5.0)) == pytest.approx(oracle, abs=1e-9)


def test_model_table_spot_checks_cauchy_form():
    # G(s) = int_s0^s rho(tau) (s - tau) dtau collapses the double integral
    p = params(alpha=2, beta=2, eps=0.05, s0=2.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.model(), s_min=1e-6, s_max=50.0)
    rho = lambda tau: math.log1p(tau + 0.05) ** 2 / (tau * tau)
    rng = np.random.default_rng(3)
    for s in rng.uniform(0.01, 50.0, 12):
        g_ref, _ = quad(lambda tau: rho(tau) * (s - tau), 2.0, s, epsabs=1e-13, epsrel=1e-13)
        h_ref, _ = quad(lambda tau: tau * rho(tau), 2.0, s, epsabs=1e-13, epsrel=1e-13)
        gp_ref, _ = quad(rho, 2.0, s, epsabs=1e-13, epsrel=1e-13)
        assert float(t.g(s)) == pytest.approx(g_ref, abs=1e-9)
        assert float(t.h(s)) == pytest.approx(h_ref, abs=1e-9)
        assert float(t.gp(s)) == pytest.approx(gp_ref, abs=1e-9)


def test_table_invariants():
    p = params(alpha=1, beta=2, eps=0.01, s0=1.5)
    t = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=200.0)
    k = t.knots
    # G nonnegative, zero exactly at s0
    assert np.all(t.G_vals >= -1e-12)
    i0 = int(np.argmin(np.abs(k - 1.5)))
    assert k[i0] == 1.5 and t.G_vals[i0] == 0.0
    # convex above s0: second differences of knot values nonnegative
    above = k >= 1.5
    G = t.G_vals[above]
    kk = k[above]
    second = np.diff(np.diff(G) / np.diff(kk))
    assert np.min(second) >= -1e-10
    # H - s0 * Gp >= 0 for s >= s0 (integrand sigma*rho >= s0*rho there)
    s = np.geomspace(1.5, 200.0, 50)
    assert np.min(t.h(s) - 1.5 * t.gp(s)) >= -1e-9


def test_gp_is_numeric_derivative_of_g():
    p = params(alpha=1, beta=2, eps=0, s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=20.0)

    def diff_err(ds):
        s = np.linspace(2.0, 10.0, 17)
        fd = (t.g(s + ds) - t.g(s - ds)) / (2 * ds)
        return float(np.max(np.abs(fd - t.gp(s))))

    e1, e2 = diff_err(0.1), diff_err(0.05)
    assert e1 / e2 > 3.5  # central differences: order 2


def test_table_range_and_covering():
    p = params(s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    with pytest.raises(UsageError):
        t.g(20.0)
    t2 = t.covering(35.0)
    assert t2.s_max >= 35.0
    assert t2 is not t
    assert t.s_max == 10.0  # original untouched
    assert float(t2.g(3.0)) == pytest.approx(2.0, abs=1e-9)
    assert t2.covering(12.0) is t2


_TABLE_ARRAYS = ("knots", "G_vals", "H_vals", "Gp_vals", "rho_vals", "rho_prime_vals")


def test_covering_keeps_the_table_as_its_prefix():
    p = params(alpha=1, beta=2, eps=0.01, s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=10.0)
    e = t.covering(5e3)
    assert e.s_max >= 5e3 and len(e.knots) > len(t.knots)
    for name in _TABLE_ARRAYS:
        old, new = getattr(t, name), getattr(e, name)
        assert np.array_equal(new[: len(old)], old), name
    assert (e.s_min, e.s0, e.tol, e.seg_tol, e.base_knots) == (
        t.s_min, t.s0, t.tol, t.seg_tol, t.base_knots,
    )
    # the appended knots continue the fixed sequence s_max * 10**(k/48)
    r = 10.0 ** (1.0 / 48)
    added = e.knots[len(t.knots):]
    assert np.array_equal(added, [t.s_max * r ** k for k in range(1, len(added) + 1)])
    assert added[-2] < 5e3 <= added[-1]
    # values inside the old range are unchanged
    s = np.geomspace(t.s_min, t.s_max, 101)
    for f in ("g", "gp", "h"):
        assert np.array_equal(getattr(e, f)(s), getattr(t, f)(s)), f


def test_covering_in_steps_equals_covering_at_once():
    p = params(alpha=1, beta=2, eps=0.01, s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=10.0)
    stepwise = t.covering(37.0).covering(2e3).covering(2.5e3).covering(1e5)
    direct = t.covering(1e5)
    assert stepwise.s_max == direct.s_max
    for name in _TABLE_ARRAYS:
        assert np.array_equal(getattr(stepwise, name), getattr(direct, name)), name


def test_unit_table_extension_closed_forms():
    p = params(s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    e = t.covering(1e6)
    k = e.knots
    m = np.abs(np.arange(len(k)) - int(np.argmin(np.abs(k - 1.0))))  # segments from s0
    exact = {"G_vals": 0.5 * (k - 1.0) ** 2, "Gp_vals": k - 1.0, "H_vals": 0.5 * (k * k - 1.0)}
    for name, ref in exact.items():
        # the documented bound: seg_tol per segment from s0, or the 1e-14
        # relative floor per segment where the values are large
        bound = m * np.maximum(e.seg_tol, 1e-14 * np.abs(ref))
        assert np.all(np.abs(getattr(e, name) - ref) <= bound), name
    s = np.geomspace(t.s_min, e.s_max, 200)
    scale = m.max() * np.maximum(e.seg_tol, 1e-14 * 0.5 * s * s)
    assert np.all(np.abs(e.g(s) - 0.5 * (s - 1.0) ** 2) <= scale)
    assert np.all(np.abs(e.gp(s) - (s - 1.0)) <= scale)
    assert np.all(np.abs(e.h(s) - 0.5 * (s * s - 1.0)) <= scale)


def test_model_table_extension_matches_fresh_build():
    p = params(alpha=1, beta=2, eps=0.01, s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=10.0)
    e = t.covering(1e4)
    fresh = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=e.s_max)
    s = np.geomspace(t.s_min, e.s_max, 200)
    for f in ("g", "gp", "h"):
        assert np.max(np.abs(getattr(e, f)(s) - getattr(fresh, f)(s))) <= t.tol, f


def test_covering_reports_divergence(monkeypatch):
    import ksfv.nonlin as nonlin_mod
    from ksfv.errors import DivergenceError, QuadratureError

    p = params(alpha=1, beta=2.5, eps=0.0, s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=10.0)

    def failing(*args, **kwargs):
        raise QuadratureError("no convergence")

    monkeypatch.setattr(nonlin_mod, "adaptive_simpson", failing)
    with pytest.raises(DivergenceError, match="ratio ~ tau\\^-1.5 near 0: not integrable"):
        t.covering(100.0)
    with pytest.raises(UsageError):
        t.covering(float("nan"))


def test_nan_ratio_is_a_divergence_within_a_second():
    import time

    from ksfv.errors import DivergenceError

    spec = ksfv.RatioSpec.custom(lambda t: math.nan, lambda t: math.nan)
    start = time.perf_counter()
    with pytest.raises(DivergenceError, match="non-finite integrand"):
        ksfv.build_table(params(s0=1.0), spec, s_max=10.0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "fn",
    [lambda t: 1.0 / (t - t), lambda t: (1e10 * t) ** 40.0, lambda t: (t - 1.0) ** 0.5],
    ids=["zero-division", "overflow", "complex"],
)
def test_ratio_raising_on_python_floats_is_a_divergence(fn):
    # the walk evaluates rho on numpy scalars, where these ratios return inf or
    # nan; on Python floats they raise or return a complex
    from ksfv.errors import DivergenceError

    spec = ksfv.RatioSpec.custom(fn, fn)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite integrand"):
            ksfv.build_table(params(s0=1.0), spec, s_max=10.0)


def test_build_table_preconditions():
    with pytest.raises(PreconditionError):
        ksfv.build_table(params(s0=1.0), ksfv.RatioSpec.unit(), s_min=2.0, s_max=10.0)
    with pytest.raises(PreconditionError):
        ksfv.build_table(params(s0=1.0), ksfv.RatioSpec.unit(), s_max=0.5)


@pytest.mark.parametrize("s_max", [math.inf, math.nan])
def test_build_table_requires_finite_s_max(s_max):
    with pytest.raises(PreconditionError, match="s_max < inf"):
        ksfv.build_table(params(s0=1.0), ksfv.RatioSpec.model(), s_max=s_max)


# ---------------------------------------------------------------------------
# growth conditions


def test_growth_condition_unit_ratio_fails_large_s():
    # quadratic G outruns s (ln s)^theta by s = 1000
    p = params(s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=1e3)
    rep = ksfv.check_growth_condition(t, 2, 1.0, 0.5)
    assert not rep.holds
    assert rep.max_violation > 0


def test_growth_condition_decaying_ratio_holds():
    p = params(s0=1.0)
    spec = ksfv.RatioSpec.custom(lambda t: 1.0 / t ** 2, lambda t: -2.0 / t ** 3)
    t = ksfv.build_table(p, spec, s_max=1e3)
    rep = ksfv.check_growth_condition(t, 2, 1.0, 0.9)
    assert rep.holds
    # a sampled verdict names its samples
    assert rep.samples == (200, 1.0, t.s_max)
    assert str(rep).startswith(f"holds at 200 samples in [1, {t.s_max:g}] (max violation ")


def test_growth_condition_empty_range_holds():
    p = params(s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=1.0 + 1e-9)
    rep = ksfv.check_growth_condition(t, 2, 1.0, 0.5)
    assert rep.holds


def test_growth_condition_preconditions():
    p = params(s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    with pytest.raises(PreconditionError):
        ksfv.check_growth_condition(t, 2, 1.0, 1.5)  # theta out of range
    with pytest.raises(PreconditionError):
        ksfv.check_growth_condition(t, 3, 1.0, 0.5)  # exponent <= 2/3


def test_eps_condition_examples():
    # the condition demands an anchor above 1
    p = params(s0=1.5)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    # H = (s^2-s0^2)/2 vs 0.375 (s-s0)^2/2 + 10 s: holds on [s0, 10]
    rep = ksfv.check_eps_condition(t, 4, 0.5, 10.0)
    assert rep.holds
    # with K = 0 and eps_c -> 1 the fraction cannot absorb H for large s
    t2 = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=1e3)
    rep2 = ksfv.check_eps_condition(t2, 3, 0.99, 0.0)
    assert not rep2.holds


def test_eps_condition_at_anchor_trivially_holds():
    p = params(s0=1.5)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=1.5 + 1e-9)
    rep = ksfv.check_eps_condition(t, 4, 0.5, 10.0)
    assert rep.holds  # 0 <= 0 + K s0


def test_eps_condition_preconditions():
    p = params(s0=0.5)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    with pytest.raises(PreconditionError):
        ksfv.check_eps_condition(t, 4, 0.5, 1.0)  # s0 <= 1
    p2 = params(s0=1.5)
    t2 = ksfv.build_table(p2, ksfv.RatioSpec.unit(), s_max=10.0)
    with pytest.raises(PreconditionError):
        ksfv.check_eps_condition(t2, 2, 0.5, 1.0)  # n < 3


def test_overrides_ratio_consistency():
    ov = Overrides(ratio_spec=ksfv.RatioSpec.unit())
    assert not ov.unit_phi and not ov.zero_psi and not ov.zero_f


@pytest.mark.parametrize("b", [1.0, 0.7])
@pytest.mark.parametrize("eps", [0.01, 0.3])
def test_effective_growth_is_growth_times_cutoff_bitwise(b, eps):
    from ksfv.nonlin import effective_f

    p = params(a=0.5, b=b, kappa=3.0, eps=eps)
    lo, hi = 1.0 / (2.0 * eps), 1.0 / eps
    # cold cells, the transition band with its ends, and saturated cells
    u = np.concatenate([
        np.linspace(0.0, lo, 7),
        [np.nextafter(lo, np.inf), np.nextafter(hi, 0.0), hi, np.nextafter(hi, np.inf)],
        np.linspace(lo, hi, 9)[1:-1],
        hi * np.array([1.5, 10.0, 1e6]),
    ])
    f = effective_f(p, None)
    expected = growth(u, p) * growth_cutoff(u, p)
    assert np.array_equal(f(u, float(u.max())), expected)
    assert np.array_equal(f(u), expected)
    assert np.array_equal(f(u).view(np.int64), expected.view(np.int64))  # signed zeros too
    assert np.all(expected[u >= hi] == 0.0)


def test_build_table_refuses_an_underflowing_psi_at_s_min():
    import time

    t0 = time.perf_counter()
    with pytest.raises(PreconditionError, match="psi_c=1e-300.*s_min=1e-08.*beta=3"):
        ksfv.build_table(params(alpha=3, beta=3, psi_c=1e-300))
    assert time.perf_counter() - t0 < 0.5
    # psi(s_min) = 1e-100 * 1e-8 is a normal float
    assert ksfv.build_table(params(beta=1, psi_c=1e-100), s_max=2.0).s_max >= 2.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_psi_c_table_has_finite_derivatives():
    # psi = psi_c t is a normal float on the whole table, but psi * psi, the
    # denominator of rho', underflows to 0 below t of about 1e96 here
    t = ksfv.build_table(params(beta=1, psi_c=1e-250), s_max=2.0)
    for tab in (t, t.covering(50.0)):
        assert np.all(np.isfinite(tab.rho_prime_vals))
        assert np.all(np.isfinite(tab.gp(tab.knots)))
    # rho' scales as 1/psi_c, exactly for a power of two up to the rounding
    # of the second division
    c = 2.0 ** -830
    tiny = ksfv.build_table(params(beta=1, psi_c=c), s_max=2.0).covering(50.0)
    unit = ksfv.build_table(params(beta=1), s_max=2.0).covering(50.0)
    assert tiny.rho_prime_vals == pytest.approx(unit.rho_prime_vals / c, rel=1e-15)


def test_large_s_overflow_is_reported_as_an_overflow_at_large_s():
    from ksfv.errors import DivergenceError

    t = ksfv.build_table(params(alpha=200, beta=1, s0=1.0), s_max=10.0)
    with pytest.raises(DivergenceError, match="overflow at large s") as info:
        t.covering(1e17)
    assert "integrable" not in str(info.value)
    lo, hi = info.value.__cause__.interval
    assert 1e13 < lo < hi < 1e14


def test_failure_below_s0_keeps_the_near_zero_verdict(monkeypatch):
    import ksfv.nonlin as nonlin_mod
    from ksfv.errors import DivergenceError, QuadratureError

    def failing(*args, **kwargs):
        raise QuadratureError("non-finite integrand", (1e-8, 2e-8), non_finite=True)

    monkeypatch.setattr(nonlin_mod, "adaptive_simpson", failing)
    with pytest.raises(DivergenceError, match="tau\\^-1.5 near 0: not integrable at 0\\+"):
        ksfv.build_table(params(alpha=1, beta=2.5, eps=0.0, s0=1.0))
