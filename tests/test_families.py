import math

import numpy as np
import pytest

import ksfv
from ksfv.errors import DivergenceError, KsfvError, PreconditionError, ResolutionError
from ksfv.families import (
    FamilyParams,
    concentrated_u,
    concentrated_v,
    energy_scan,
    fit_divergence_exponent,
    initial_data_below,
    limit_report_n3,
    mass_normalizer,
    moment_integral,
    radial_moment,
)


def disk(cells, R=1.0):
    return ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, R, 2, cells))


def fam(eta=0.1, beta=2.0, mass=50.0, **kw):
    base = dict(kappa_prime=0.25, theta=0.5)
    base.update(kw)
    return FamilyParams(eta=eta, beta=beta, mass=mass, **base)


# ---------------------------------------------------------------------------
# moment integrals


def test_moment_closed_forms():
    assert abs(moment_integral(2, 4) - 0.5) <= 1e-10
    assert abs(moment_integral(1, 2) - math.pi / 2) <= 1e-10
    assert abs(moment_integral(3, 5) - 1.0 / 3.0) <= 1e-10


def test_moment_divergence_guard():
    with pytest.raises(DivergenceError):
        moment_integral(2, 2)


def test_moment_rejects_nonpositive_N():
    with pytest.raises(KsfvError, match="N must be > 0"):
        moment_integral(0.0, 3.0)


def test_radial_moment_rejects_N_below_one():
    # r^(N-1) is infinite at r = 0 for N < 1
    with pytest.raises(PreconditionError, match="N=0.5"):
        radial_moment(0.5, 3, 1.0, 0.05)
    assert radial_moment(1.0, 3, 1.0, 0.05) > 0.0


def test_radial_moment_converges_to_moment():
    # eta-sequence extrapolation of the truncated moment hits A(N, lam)
    for N, lam in ((2.0, 4.0), (3.0, 5.0)):
        limit = moment_integral(N, lam)
        vals = [radial_moment(N, lam, 1.0, eta) for eta in (0.1, 0.05, 0.025, 0.0125)]
        errs = [abs(v - limit) for v in vals]
        assert errs[-1] < errs[0]
        assert errs[-1] <= 5e-3
        # Aitken extrapolation sharpens the limit by orders of magnitude
        v0, v1, v2 = vals[-3:]
        aitken = v2 - (v2 - v1) ** 2 / ((v2 - v1) - (v1 - v0))
        assert abs(aitken - limit) <= 1e-6


# ---------------------------------------------------------------------------
# normalizer and fields


def test_normalizer_closed_form_denominator():
    # n = 2, beta = 2: int_Omega (|x|^2+eta^2)^-1 dx = pi ln((R^2+eta^2)/eta^2)
    R, eta = 1.0, 0.07
    dom = ksfv.DomainSpec(ksfv.BALL, R, 2, 64)
    a = mass_normalizer(fam(eta=eta, beta=2.0, mass=50.0), dom)
    denom_exact = math.pi * math.log((R * R + eta * eta) / (eta * eta))
    expected = eta ** (2 - 2) * 50.0 / denom_exact
    assert a == pytest.approx(expected, abs=1e-10 * expected)


def test_normalizer_bounded_over_eta():
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 64)
    vals = [
        mass_normalizer(fam(eta=e, beta=2.0, mass=50.0), dom)
        for e in np.geomspace(1e-3, 0.2, 12)
    ]
    assert min(vals) > 0.5
    assert max(vals) < 50.0


def test_concentrated_u_mass_and_shape():
    g = disk(512)
    fp = fam(eta=0.1, beta=2.0, mass=50.0)
    u = concentrated_u(fp, g)
    assert ksfv.integrate(u, g) == pytest.approx(50.0, rel=1e-8)
    assert np.all(u > 0.0)
    assert np.all(np.diff(u) <= 0.0)  # radially nonincreasing


def test_concentrated_u_center_value():
    g = disk(512)
    eta, beta = 0.1, 2.0
    fp = fam(eta=eta, beta=beta, mass=50.0)
    u = concentrated_u(fp, g)
    a = mass_normalizer(fp, g.spec)
    # closed form at the first cell center, to grid-resolution tolerance
    r0 = g.centers[0]
    expected = a * eta ** (beta - 2.0) * (r0 * r0 + eta * eta) ** (-beta / 2.0)
    assert u[0] == pytest.approx(expected, rel=3.0 * (g.h / eta) ** 2)


def test_concentrated_u_profile_collapse():
    # u_eta(r) = a_eta eta^-n w(r/eta) with w(y) = (y^2+1)^-beta/2: profiles
    # collapse onto one master curve after rescaling
    g = disk(1024)
    beta = 2.0
    ys = np.array([0.5, 1.0, 2.0])
    curves = []
    for eta in (0.1, 0.05, 0.025):
        fp = fam(eta=eta, beta=beta, mass=50.0)
        u = concentrated_u(fp, g)
        a = mass_normalizer(fp, g.spec)
        scaled = np.interp(ys * eta, g.centers, u) / (a * eta ** -2.0)
        curves.append(scaled)
    master = (ys ** 2 + 1.0) ** (-beta / 2.0)
    for c in curves:
        assert np.allclose(c, master, rtol=2e-2)


def test_concentrated_v_boundary_small_and_nonnegative():
    g = disk(512)
    v = concentrated_v(fam(eta=0.1), g)
    assert v[-1] >= 0.0
    assert v[-1] <= 1e-2
    assert np.all(v >= 0.0)
    assert v[0] == float(np.max(v))


def test_concentrated_v_gradient_bound():
    # discrete sum of |grad v|^2 obeys 8 pi (ln R/eta)^(-2 kp) (1 + ln R/eta)
    from ksfv.discrete import grad_faces

    g = disk(1024)
    R = 1.0
    for eta in (0.2, 0.1, 0.05):
        fp = fam(eta=eta, kappa_prime=0.25, theta=0.5)
        v = concentrated_v(fp, g)
        dv = grad_faces(v, g)
        total = float(np.dot(g.face_weight, dv * dv))
        L = math.log(R / eta)
        assert total <= 8.0 * math.pi * L ** (-0.5) * (1.0 + L)


def test_concentrated_v_n3_branch():
    g = ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, 1.0, 3, 128))
    fp = FamilyParams(eta=0.1, beta=3.0, mass=10.0, delta=1.2, gamma=1.2)
    v = concentrated_v(fp, g)
    assert np.all(v > 0.0)
    assert np.all(np.diff(v) <= 0.0)


def test_family_preconditions():
    g = disk(64)
    with pytest.raises(PreconditionError):  # kappa_prime >= 1 - theta
        concentrated_v(fam(eta=0.1, kappa_prime=0.6, theta=0.5), g)
    with pytest.raises(PreconditionError):  # eta >= R/2
        concentrated_v(fam(eta=0.6), g)
    with pytest.raises(PreconditionError):  # interval domain
        concentrated_u(fam(), ksfv.make_grid(ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 16)))
    with pytest.raises(PreconditionError):  # n>=3 branch without exponents
        concentrated_v(
            FamilyParams(eta=0.1, beta=2.0, mass=1.0),
            ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, 1.0, 3, 16)),
        )


# ---------------------------------------------------------------------------
# energy scans


@pytest.fixture(scope="module")
def scan_table():
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, a=0, b=1, eps=0, s0=2.0)
    return ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=1e5)


def test_energy_scan_single_eta(scan_table):
    g = disk(256)
    scan = energy_scan(fam(mass=50.0), [0.1], g, scan_table)
    assert len(scan.F_values) == 1
    assert not scan.strictly_decreasing  # no verdict from one point


def test_energy_scan_divergence(scan_table):
    g = disk(512)
    scan = energy_scan(fam(mass=50.0), [0.2, 0.1, 0.05, 0.025], g, scan_table)
    assert scan.strictly_decreasing
    assert scan.F_values[-1] < -10.0


def test_divergence_exponent_fit(scan_table):
    g = disk(512)
    etas = [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]
    scan = energy_scan(fam(mass=50.0), etas, g, scan_table)
    p_hat = fit_divergence_exponent(scan.etas, scan.F_values, 1.0)
    target = 1.0 - 0.25  # 1 - kappa_prime
    assert abs(p_hat - target) <= 0.2 * target


def test_exponent_ordering():
    kp, theta = 0.25, 0.5
    assert 1 - kp > 0 and 1 - kp > 1 - 2 * kp and 1 - kp > theta


def test_initial_data_below_basic(scan_table):
    # threshold chosen so the first two sweep candidates fail (F(0.2) = -31,
    # F(0.1) = -48, F(0.05) = -63 at this mass/grid)
    g = disk(512)
    u, v, eta = initial_data_below(60.0, fam(mass=50.0), g, scan_table)
    assert eta == pytest.approx(0.05, rel=1e-12)
    assert ksfv.integrate(u, g) == pytest.approx(50.0, rel=1e-8)
    from ksfv.core import State
    from ksfv.energy import lyapunov

    assert lyapunov(State(u, v, 0.0), g, scan_table.covering(float(np.max(u)))).F_total < -60.0


def test_initial_data_below_easy_threshold(scan_table):
    # an easily reached threshold returns the first admissible eta
    g = disk(512)
    _, _, eta = initial_data_below(15.0, fam(mass=50.0), g, scan_table)
    assert eta == pytest.approx(0.2, rel=1e-12)


def test_initial_data_below_resolution_error(scan_table):
    g = disk(64)
    with pytest.raises(ResolutionError):
        initial_data_below(1e6, fam(mass=50.0), g, scan_table)


def test_initial_data_below_checks_growth_condition():
    # unit ratio: G quadratic, growth condition cannot hold on a wide table
    p = ksfv.ModelParams(alpha=1, beta=2, s0=2.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=1e5)
    g = disk(256)
    with pytest.raises(PreconditionError):
        initial_data_below(10.0, fam(mass=50.0), g, t)


# ---------------------------------------------------------------------------
# n >= 3 limit report


def test_limit_report_n3_converges():
    # beta=5, delta=2, alpha'=1.2 keeps every moment integral comfortably
    # convergent (lam - N >= 1 in all four scaled quantities)
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 3, 64)
    reps = [
        limit_report_n3(
            FamilyParams(eta=e, beta=5.0, mass=10.0, delta=2.0, gamma=2.0),
            dom, k_growth=1.0, alpha_prime=1.2,
        )
        for e in (0.1, 0.05, 0.025)
    ]
    for field in ("gradv", "v2", "uv", "g_bound"):
        scaled = [getattr(r, f"{field}_scaled") for r in reps]
        limit = getattr(reps[0], f"{field}_limit")
        errs = [abs(s - limit) for s in scaled]
        assert errs[-1] < errs[0]
        assert errs[-1] <= 0.05 * abs(limit)
    assert reps[-1].a_eta == pytest.approx(reps[-1].a_limit, rel=0.05)


def test_limit_report_requires_diagonal():
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 3, 64)
    with pytest.raises(PreconditionError):
        limit_report_n3(
            FamilyParams(eta=0.1, beta=4.0, mass=1.0, delta=2.0, gamma=1.0),
            dom, 1.0, 1.0,
        )


def test_fit_exponent_requires_monotone():
    # a non-monotone sweep, one or two points, which underdetermine the fit,
    # and an F list whose length is not that of the etas
    cases = [
        ([0.2, 0.1, 0.05], [-5.0, -4.0, -6.0]),
        ([0.2], [-5.0]),
        ([0.2, 0.1], [-5.0, -6.0]),
        ([0.2, 0.1, 0.05], [-5.0, -6.0, -7.0, -8.0]),
    ]
    for etas, F in cases:
        with pytest.raises(PreconditionError):
            fit_divergence_exponent(etas, F, 1.0)
