import math

import numpy as np
import pytest
from scipy.integrate import quad

import ksfv
from ksfv.core import State
from ksfv.discrete import grad_faces, laplacian_apply
from ksfv.energy import (
    boundary_cutoff_weight,
    dissipation,
    energy_floor,
    log_weight,
    lyapunov,
    lyapunov_steady,
    radial_weight_inequality,
    steady_residual,
)
from ksfv.errors import DomainError, PreconditionError, UsageError
from ksfv.nonlin import Overrides, RatioSpec
from ksfv.solver import RunConfig, cfl_dt, run, steady_signal, step


def disk(cells):
    return ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, 1.0, 2, cells))


# ---------------------------------------------------------------------------
# functional evaluation


def test_lyapunov_constant_state():
    g = disk(64)
    c = 1.7
    p = ksfv.ModelParams(alpha=1, beta=1, s0=c)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=20.0)
    bd = lyapunov(State(np.full(64, c), np.full(64, c), 0.0), g, table)
    omega = math.pi
    assert bd.G_term == pytest.approx(0.0, abs=1e-12)
    assert bd.uv_term == pytest.approx(c * c * omega, rel=1e-12)
    assert bd.v2_term == pytest.approx(0.5 * c * c * omega, rel=1e-12)
    assert bd.gradv_term == 0.0
    assert bd.F_total == pytest.approx(-0.5 * c * c * omega, rel=1e-10)
    assert bd.clamped_cells == 0


def test_lyapunov_zero_state_clamps():
    g = disk(32)
    p = ksfv.ModelParams(alpha=1, beta=2, s0=1.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=10.0)
    bd = lyapunov(State(np.zeros(32), np.zeros(32), 0.0), g, table)
    assert bd.clamped_cells == 32
    assert bd.F_total == pytest.approx(float(table.g(table.s_min)) * math.pi, rel=1e-12)


def test_lyapunov_matches_continuum_oracle():
    R = 1.0
    g = ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, R, 2, 3072))
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, a=0.5, b=1.0, eps=0.1, s0=1.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=50.0)
    uf = lambda r: 1.5 + 0.8 * np.cos(np.pi * r / R)
    vf = lambda r: 1.0 + 0.5 * np.cos(2 * np.pi * r / R)
    bd = lyapunov(State(uf(g.centers), vf(g.centers), 0.0), g, table)

    tw = lambda r: 2.0 * math.pi * r
    rho = lambda t: math.log1p(t + 0.1) / t ** 2
    G = lambda s: quad(lambda tau: rho(tau) * (s - tau), 1.0, s, epsabs=1e-12, epsrel=1e-12)[0]
    G_ref = quad(lambda r: G(uf(r)) * tw(r), 0, R, epsabs=1e-11, epsrel=1e-11)[0]
    uv_ref = quad(lambda r: uf(r) * vf(r) * tw(r), 0, R, epsabs=1e-12)[0]
    v2_ref = 0.5 * quad(lambda r: vf(r) ** 2 * tw(r), 0, R, epsabs=1e-12)[0]
    dvf = lambda r: -math.pi / R * np.sin(2 * np.pi * r / R)
    gv_ref = 0.5 * quad(lambda r: dvf(r) ** 2 * tw(r), 0, R, epsabs=1e-12)[0]
    F_ref = G_ref - uv_ref + v2_ref + gv_ref
    assert bd.F_total == pytest.approx(F_ref, rel=1e-6)


# ---------------------------------------------------------------------------
# dissipation


def test_dissipation_zero_at_equilibrium():
    g = disk(32)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=4.0, b=1.0, s0=2.0)
    c = 2.0  # f(c) = 0
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=20.0)
    s = State(np.full(32, c), np.full(32, c), 0.0)
    assert dissipation(s, np.zeros(32), g, p, table) == pytest.approx(0.0, abs=1e-14)


def test_dissipation_nonpositive_without_growth():
    g = disk(24)
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, eps=0.05, s0=1.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=100.0)
    ov = Overrides(zero_f=True)
    rng = np.random.default_rng(21)
    for _ in range(10):
        u = rng.uniform(0.0, 6.0, 24)
        v = rng.uniform(0.0, 3.0, 24)
        v_t = rng.normal(size=24)
        assert dissipation(State(u, v, 0.0), v_t, g, p, table, ov) <= 1e-12


def test_dissipation_matches_continuum_oracle():
    R = 1.0
    g = ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, R, 2, 2048))
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, a=0.5, b=1.0, eps=0.1, s0=1.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=50.0)
    uf = lambda r: 1.5 + 0.8 * np.cos(np.pi * r / R)
    vf = lambda r: 1.0 + 0.5 * np.cos(2 * np.pi * r / R)
    vtf = lambda r: 0.3 * np.cos(np.pi * r / R)
    got = dissipation(
        State(uf(g.centers), vf(g.centers), 0.0), vtf(g.centers), g, p, table
    )

    tw = lambda r: 2.0 * math.pi * r
    phi = lambda s: math.log1p(s + 0.1)
    psi = lambda s: s * s
    rho = lambda t: phi(t) / psi(t)
    duf = lambda r: -0.8 * math.pi / R * math.sin(math.pi * r / R)
    dvf = lambda r: -math.pi / R * math.sin(2 * math.pi * r / R)
    X = lambda r: phi(uf(r)) / psi(uf(r)) * duf(r) - dvf(r)
    t1 = -quad(lambda r: psi(uf(r)) * X(r) ** 2 * tw(r), 0, R, epsabs=1e-12)[0]
    t2 = -quad(lambda r: vtf(r) ** 2 * tw(r), 0, R, epsabs=1e-12)[0]
    Gp = lambda s: quad(rho, 1.0, s, epsabs=1e-12)[0]
    t3 = quad(
        lambda r: (0.5 - uf(r) ** 2) * (Gp(uf(r)) - vf(r)) * tw(r), 0, R, epsabs=1e-11
    )[0]
    assert got == pytest.approx(t1 + t2 + t3, rel=1e-5)


# ---------------------------------------------------------------------------
# identity residual


def test_identity_residual_equilibrium():
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 24)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1.0, b=1.0, s0=1.0)
    cfg = RunConfig(dom, p, np.ones(24), np.ones(24), t_end=0.1)
    res = run(cfg)
    assert max(r.identity_residual for r in res.rows[1:]) <= 1e-10


def test_identity_residual_halving_ratio():
    # first-order convergence in dt: halving dt reduces the mean residual >= 1.8x
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 24)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, eps=0.01, s0=1.0)
    ov = Overrides(zero_f=True)
    u0 = 1.0 + 0.02 * np.cos(np.pi * g.centers)
    v0 = steady_signal(u0, g)
    base = 0.8 * cfl_dt(State(u0, v0, 0.0), g, p, 0.4, ov)

    def mean_residual(dt):
        cfg = RunConfig(dom, p, u0, v0, t_end=0.04, dt_max=dt, cfl=1.0, overrides=ov)
        res = run(cfg)
        return float(np.mean([r.identity_residual for r in res.rows[1:]]))

    assert mean_residual(base) / mean_residual(base / 2) >= 1.8


def test_identity_heat_mode_tracks_diffusion_identity():
    # with unit mobility and no drift/growth the surviving identity is
    # dF/dt = -sum w |du|^2 + sum w du.dv - int v_t^2; the residual against it
    # converges at first order in dt
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 32)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(s0=1.0)
    ov = Overrides(unit_phi=True, zero_psi=True, zero_f=True, ratio_spec=RatioSpec.unit())
    table = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    u0 = 1.0 + 0.5 * np.cos(np.pi * g.centers)
    v0 = steady_signal(u0, g)

    def residual(dt):
        s = State(u0.copy(), v0.copy(), 0.0)
        F0 = lyapunov(s, g, table).F_total
        new = step(s, dt, g, p, ov)
        F1 = lyapunov(new, g, table).F_total
        v_t = (new.v - s.v) / dt
        du = grad_faces(s.u, g)
        dv = grad_faces(s.v, g)
        rhs = (
            -float(np.dot(g.face_weight, du * du))
            + float(np.dot(g.face_weight, du * dv))
            - float(np.dot(v_t * v_t, g.cell_volume))
        )
        return abs((F1 - F0) / dt - rhs)

    assert residual(1e-4) / residual(5e-5) >= 1.8


# ---------------------------------------------------------------------------
# steady state


def test_steady_residual_constant():
    g = disk(32)
    p = ksfv.ModelParams(alpha=1, beta=1)
    s = State(np.full(32, 1.3), np.full(32, 1.3), 0.0)
    r1, r2 = steady_residual(s, g, p)
    assert r1 <= 1e-12 and r2 <= 1e-12


def test_steady_residual_matches_dense_oracle():
    g = disk(24)
    p = ksfv.ModelParams(alpha=1, beta=2, eps=0.05)
    rng = np.random.default_rng(31)
    u = rng.uniform(0.2, 2.0, 24)
    v = rng.uniform(0.1, 1.0, 24)
    r1, r2 = steady_residual(State(u, v, 0.0), g, p)

    from ksfv.discrete import div_cells
    from oracles import chemotactic_flux, diffusive_flux

    res1 = div_cells(diffusive_flux(u, g, p) - chemotactic_flux(u, v, g, p), g)
    res2 = laplacian_apply(v, g) - v + u
    assert r1 == pytest.approx(float(np.sqrt(np.dot(res1 ** 2, g.cell_volume))), rel=1e-12)
    assert r2 == pytest.approx(float(np.sqrt(np.dot(res2 ** 2, g.cell_volume))), rel=1e-12)


@pytest.mark.parametrize(
    "kind, p, ov",
    [
        (ksfv.INTERVAL, ksfv.ModelParams(alpha=2.0, beta=1.5, psi_c=0.7, eps=0.05), None),
        (ksfv.BALL, ksfv.ModelParams(alpha=1.0, beta=1.0, kappa=3.0, eps=0.01), None),
        (ksfv.BALL, ksfv.ModelParams(beta=2.0), Overrides(unit_phi=True)),
    ],
)
def test_flux_callers_are_the_written_out_flux_bitwise(kind, p, ov):
    # the steady residual divides the scheme's face flux, and dissipation
    # reads its face mobility phi(u_face), each bitwise the formula written
    # out with its operands in the same order
    from ksfv.discrete import interior_flux
    from ksfv.energy import dissipation_terms
    from ksfv.nonlin import effective_f, effective_phi, effective_psi

    g = ksfv.make_grid(ksfv.DomainSpec(kind, 0.9, 1 if kind == ksfv.INTERVAL else 2, 24))
    rng = np.random.default_rng(22)
    u = rng.uniform(0.0, 3.0, 24)
    v = rng.uniform(0.1, 2.0, 24)
    phi, psi = effective_phi(p, ov), effective_psi(p, ov)
    du, dv = grad_faces(u, g)[1:-1], grad_faces(v, g)[1:-1]
    mob = phi(0.5 * (u[1:] + u[:-1]))
    flux = np.zeros(25)
    flux[1:-1] = mob * du - psi(np.where(dv > 0.0, u[:-1], u[1:])) * dv
    af = g.face_area * flux
    r1 = (af[1:] - af[:-1]) / g.cell_volume
    r2 = laplacian_apply(v, g) - v + u
    V = g.cell_volume
    expected = (float(np.sqrt(np.dot(r1 * r1, V))), float(np.sqrt(np.dot(r2 * r2, V))))
    assert steady_residual(State(u, v, 0.0), g, p, ov) == expected

    out = np.full(23, np.nan)
    assert interior_flux(out, u[:-1], u[1:], du, dv, phi, psi).tobytes() == mob.tobytes()
    assert out.tobytes() == flux[1:-1].tobytes()
    table = ksfv.build_table(p, RatioSpec.model(), s_max=30.0)
    tab = table.covering(float(u.max()), float(u.min()))
    v_t = rng.uniform(-1.0, 1.0, 24)
    (rhs,) = dissipation_terms(
        u[None], v[None], v_t[None], du[None], dv[None], mob[None], psi,
        effective_f(p, ov)(u)[None], tab.gp(np.maximum(u, tab.s_min))[None], tab.s_min, g,
    )
    assert dissipation(State(u, v, 0.0), v_t, g, p, table, ov) == rhs


def test_steady_residual_late_time(damped_run):
    r1, r2 = steady_residual(
        damped_run.final_state, damped_run.grid, ksfv.ModelParams(
            alpha=1, beta=1, kappa=4, a=1, b=1, eps=0.01, s0=1.0
        )
    )
    assert r1 <= 1e-4 and r2 <= 1e-4


def test_lyapunov_steady_equilibrium():
    g = disk(32)
    c = 1.0
    p = ksfv.ModelParams(alpha=1, beta=1, s0=c)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=10.0)
    s = State(np.full(32, c), np.full(32, c), 0.0)
    Fs = lyapunov_steady(s, g, table)
    assert Fs == pytest.approx(-0.5 * c * c * math.pi, rel=1e-12)
    assert Fs == pytest.approx(lyapunov(s, g, table).F_total, rel=1e-12)


def test_lyapunov_steady_zero_state():
    g = disk(16)
    p = ksfv.ModelParams(alpha=1, beta=2, s0=1.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=10.0)
    s = State(np.zeros(16), np.zeros(16), 0.0)
    assert lyapunov_steady(s, g, table) == pytest.approx(
        float(table.g(table.s_min)) * math.pi, rel=1e-12
    )


def test_lyapunov_steady_tracks_residual(damped_run, damped_table):
    s = damped_run.final_state
    g = damped_run.grid
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=4, a=1, b=1, eps=0.01, s0=1.0)
    _, r2 = steady_residual(s, g, p)
    F = lyapunov(s, g, damped_table).F_total
    Fs = lyapunov_steady(s, g, damped_table)
    assert abs(F - Fs) <= 10.0 * max(r2, 1e-12)


def test_steady_identity_exact_when_signal_steady():
    # v solved from (-Lap+1) v = u makes the uv-eliminated form exact
    g = disk(48)
    p = ksfv.ModelParams(alpha=1, beta=1, s0=1.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=20.0)
    rng = np.random.default_rng(8)
    u = rng.uniform(0.5, 2.0, 48)
    v = steady_signal(u, g)
    s = State(u, v, 0.0)
    assert lyapunov(s, g, table).F_total == pytest.approx(
        lyapunov_steady(s, g, table), abs=1e-11
    )


# ---------------------------------------------------------------------------
# radial weight inequality


def test_weight_inequality_constant_below_anchor():
    g = disk(32)
    p = ksfv.ModelParams(alpha=1, beta=1, s0=2.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=10.0)
    c = 1.0  # below the anchor: super-level set empty, gradients zero
    s = State(np.full(32, c), np.full(32, c), 0.0)
    w, wp = log_weight(1.0, 0.1)
    rep = radial_weight_inequality(s, g, table, w, 2.0, wp)
    assert rep.holds
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.samples is None and str(rep).startswith("holds (")  # an exact check


def test_weight_inequality_late_time_both_profiles(damped_run, damped_table):
    s = damped_run.final_state
    g = damped_run.grid
    w1, wp1 = log_weight(1.0, 0.1)
    rep1 = radial_weight_inequality(s, g, damped_table, w1, 1.0, wp1)
    assert rep1.holds
    w2, wp2 = boundary_cutoff_weight(1.0, 4.0)
    rep2 = radial_weight_inequality(s, g, damped_table, w2, 1.0, wp2)
    assert rep2.holds


def test_weight_inequality_validates_profile():
    g = disk(16)
    p = ksfv.ModelParams(s0=1.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    s = State(np.ones(16), np.ones(16), 0.0)
    with pytest.raises(PreconditionError):  # does not vanish at R
        radial_weight_inequality(s, g, table, np.ones_like, 1.0, np.zeros_like)
    with pytest.raises(PreconditionError):  # increasing
        radial_weight_inequality(s, g, table, np.asarray, 1.0, np.ones_like)
    with pytest.raises(PreconditionError):  # anchor mismatch
        w, wp = log_weight(1.0, 0.1)
        radial_weight_inequality(s, g, table, w, 3.0, wp)


def test_weight_inequality_needs_ball():
    g = ksfv.make_grid(ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 16))
    p = ksfv.ModelParams(s0=1.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    w, wp = log_weight(0.5, 0.1)
    with pytest.raises(PreconditionError):
        radial_weight_inequality(State(np.ones(16), np.ones(16), 0.0), g, table, w, 1.0, wp)


_W, _WP = log_weight(1.0, 0.1)
_STATE_FUNCTIONS = {
    "lyapunov": lambda s, v_t, g, p, table: lyapunov(s, g, table),
    "lyapunov_steady": lambda s, v_t, g, p, table: lyapunov_steady(s, g, table),
    "steady_residual": lambda s, v_t, g, p, table: steady_residual(s, g, p),
    "radial_weight_inequality": lambda s, v_t, g, p, table: radial_weight_inequality(
        s, g, table, _W, 1.0, _WP
    ),
    "dissipation": lambda s, v_t, g, p, table: dissipation(s, v_t, g, p, table),
}


@pytest.mark.parametrize(
    "name, field, bad",
    [(name, f, bad) for name in _STATE_FUNCTIONS for f in ("u", "v") for bad in ("short", "nan")]
    + [("dissipation", "v_t", "short"), ("dissipation", "v_t", "nan")],
)
def test_energy_functions_check_the_state(name, field, bad):
    # unchecked, a 15-entry field on a 16-cell grid raises numpy's bare
    # ValueError ("could not broadcast"), and a nan entry goes through
    g = disk(16)
    p = ksfv.ModelParams(s0=1.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=10.0)
    u = 1.0 + 0.5 * np.cos(np.pi * g.centers)
    fields = {"u": u, "v": steady_signal(u, g), "v_t": np.zeros(16)}
    call = _STATE_FUNCTIONS[name]
    call(State(fields["u"], fields["v"], 0.0), fields["v_t"], g, p, table)  # valid
    if bad == "short":
        fields[field] = fields[field][:15]
    else:
        fields[field] = fields[field].copy()
        fields[field][5] = np.nan
    with pytest.raises(UsageError, match=rf"^{field} "):
        call(State(fields["u"], fields["v"], 0.0), fields["v_t"], g, p, table)


def test_cutoff_weight_requires_large_k():
    with pytest.raises(PreconditionError):
        boundary_cutoff_weight(1.0, 1.0)


# ---------------------------------------------------------------------------
# energy floor


def test_energy_floor_values():
    assert energy_floor(0.0, 1.5, 2.0, 3.0, 3, 0.5) == -1.5
    assert energy_floor(5.0, 1.5, 0.0, 0.0, 4, 0.5) == -1.5
    assert energy_floor(2.0, 1.0, 1.0, 1.0, 3, 0.5) == pytest.approx(-17.0, rel=1e-15)


def test_energy_floor_domain_errors():
    with pytest.raises(DomainError):
        energy_floor(1.0, 1.0, 1.0, 1.0, 2, 0.5)
    with pytest.raises(DomainError):
        energy_floor(1.0, 1.0, 1.0, 1.0, 3, 1.0)


# ---------------------------------------------------------------------------
# the solver's diagnostics rows use the term helpers of lyapunov/dissipation


@pytest.mark.parametrize(
    "ov", [None, Overrides(unit_phi=True, ratio_spec=RatioSpec.model())]
)
def test_run_rows_are_lyapunov_and_dissipation_bitwise(monkeypatch, ov):
    import ksfv.solver as solver_mod

    steps = []  # (state before, state after, dt) of every step
    real = solver_mod._Kernel.advance

    def recording(self, dts):
        real(self, dts)
        (dt,) = dts  # the march passes each run's step: this run's alone
        side = self.side
        steps.append(((side.u.copy(), side.v.copy()), (side.u_new.copy(), side.v_new.copy()), dt))

    monkeypatch.setattr(solver_mod._Kernel, "advance", recording)
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 15)
    g = ksfv.make_grid(dom)
    # growth from u ~ 1 toward sqrt(a) = 20 leaves the initial table, whose
    # s_max is 10 * max(1, 2 s0, max u0) = 10, so the rows extend it
    p = ksfv.ModelParams(alpha=2.0, beta=1.5, kappa=2.0, a=400.0, b=1.0, eps=0.0, s0=0.1)
    u0 = 0.5 + 0.5 * np.cos(np.pi * g.centers)
    res = run(RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.05, diag_every=3, overrides=ov))
    assert res.termination.tag.value == "Completed"
    assert max(r.max_u for r in res.rows) > 10.0

    table = ksfv.build_table(p, RatioSpec.model(), s_max=10.0)
    t, at = 0.0, {}
    for old, new, dt in steps:
        t = t + dt
        at[t] = (old, new, dt)
    assert len(res.rows) > 10
    for row in res.rows[1:]:
        (u_old, v_old), (u_new, v_new), dt = at[row.t]
        F_new = lyapunov(State(u_new, v_new, row.t), g, table).F_total
        F_old = lyapunov(State(u_old, v_old, row.t - dt), g, table).F_total
        rhs = dissipation(State(u_old, v_old, 0.0), (v_new - v_old) / dt, g, p, table, ov)
        assert row.F == F_new
        assert row.dissipation_rhs == rhs
        assert row.identity_residual == abs((F_new - F_old) / dt - rhs)
