import importlib.machinery
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ksfv
from conftest import aggregation_config, damped_reference_config
from ksfv.config import parse_config_text, run_config_from
from ksfv.core import State
from ksfv.discrete import grad_faces
from ksfv.energy import lyapunov
from ksfv.errors import ConfigError, DomainError, ScanAbortedError, UsageError
from ksfv.nonlin import Overrides, RatioSpec
from ksfv.solver import (
    RunConfig,
    TableCache,
    Termination,
    cfl_dt,
    continuous_dependence,
    epsilon_convergence_scan,
    perturbation_bump,
    run,
    steady_signal,
    step,
)


def heat_overrides():
    return Overrides(unit_phi=True, zero_psi=True, zero_f=True, ratio_spec=RatioSpec.unit())


def interval(cells, R=0.5):
    return ksfv.make_grid(ksfv.DomainSpec(ksfv.INTERVAL, R, 1, cells))


# ---------------------------------------------------------------------------
# cfl_dt


def test_cfl_all_rates_vanish():
    g = interval(16)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=0.7, b=1, eps=0.0)
    s = State(np.zeros(16), np.zeros(16), 0.0)
    dt = cfl_dt(s, g, p, 0.4)
    assert dt > 1e20  # capped by dt_max in a run, not by any physical rate


def test_cfl_heat_mode_value():
    # unit mobility, cfl = 0.5, h = 0.1: dt = 0.5 h^2/2 = 0.0025
    g = interval(10, R=0.5)
    assert g.h == pytest.approx(0.1)
    s = State(np.ones(10), np.ones(10), 0.0)
    dt = cfl_dt(s, g, ksfv.ModelParams(), 0.5, heat_overrides())
    assert dt == pytest.approx(0.0025, rel=1e-12)


def test_cfl_below_stated_bounds():
    # recompute the three bounds independently and check dt <= each
    rng = np.random.default_rng(77)
    p = ksfv.ModelParams(alpha=1.5, beta=2, kappa=3, a=1, b=2, eps=0.02)
    for kind, n in ((ksfv.INTERVAL, 1), (ksfv.BALL, 2), (ksfv.BALL, 3)):
        g = ksfv.make_grid(ksfv.DomainSpec(kind, 1.0, n, 24))
        u = rng.uniform(0.0, 4.0, 24)
        v = rng.uniform(0.0, 2.0, 24)
        dt = cfl_dt(State(u, v, 0.0), g, p, 0.4)

        phi_max = float(np.max(np.log1p(u + p.eps) ** p.alpha))
        assert dt <= 0.4 * g.h ** 2 / (2.0 * phi_max) * (1.0 + 1e-12)

        # donor-respecting drift bound, rebuilt with an explicit loop
        dv = np.zeros(25)
        dv[1:-1] = np.diff(v) / g.h
        worst = 0.0
        for i in range(24):
            out = 0.0
            if dv[i] < 0.0:
                out += g.face_area[i] * (-dv[i])
            if dv[i + 1] > 0.0:
                out += g.face_area[i + 1] * dv[i + 1]
            slope = p.psi_c * p.beta * u[i] ** (p.beta - 1.0)
            worst = max(worst, slope * out / g.cell_volume[i])
        if worst > 0.0:
            assert dt <= 0.4 / worst * (1.0 + 1e-12)

        lip = p.b * p.kappa * (float(np.max(u)) + p.eps) ** (p.kappa - 1.0)
        assert dt <= 0.4 / lip * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# step


def test_step_constant_equilibrium_fixed_point():
    g = interval(16)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=4.0, b=1.0)
    c = (p.a / p.b) ** (1.0 / p.kappa)
    s = State(np.full(16, c), np.full(16, c), 0.0)
    new = step(s, 0.01, g, p)
    assert np.max(np.abs(new.u - c)) <= 1e-14
    assert np.max(np.abs(new.v - c)) <= 1e-12


def test_step_matches_dense_matrix_oracle():
    # psi == 0, f == 0: explicit diffusion + implicit screened solve, assembled densely
    cells = 24
    g = interval(cells)
    p = ksfv.ModelParams(alpha=1, eps=0.3)
    ov = Overrides(zero_psi=True, zero_f=True, ratio_spec=RatioSpec.model())
    x = g.centers
    u = 1.0 + np.cos(np.pi * x / g.spec.extent)
    v = 0.5 + 0.1 * np.sin(2 * np.pi * x)
    dt = 1e-4

    new = step(State(u.copy(), v.copy(), 0.0), dt, g, p, ov)

    # dense explicit u-update
    u_face = 0.5 * (u[1:] + u[:-1])
    mob = np.log1p(u_face + p.eps) ** p.alpha
    flux = np.zeros(cells + 1)
    flux[1:-1] = mob * np.diff(u) / g.h
    div = (g.face_area[1:] * flux[1:] - g.face_area[:-1] * flux[:-1]) / g.cell_volume
    u_exp = u + dt * div

    # dense implicit v-update; boundary faces carry no coupling (Neumann)
    A = np.zeros((cells, cells))
    for i in range(cells):
        A[i, i] = 1.0 + dt
        for j, face in ((i - 1, i), (i + 1, i + 1)):
            if 0 <= j < cells:
                T = g.face_area[face] / g.h
                A[i, i] += dt * T / g.cell_volume[i]
                A[i, j] -= dt * T / g.cell_volume[i]
    v_imp = np.linalg.solve(A, v + dt * u_exp)

    assert np.max(np.abs(new.u - u_exp)) <= 1e-13
    assert np.max(np.abs(new.v - v_imp)) <= 1e-13


def test_step_mass_telescopes():
    g = ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 32))
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, a=0.5, b=1.0, eps=0.01)
    rng = np.random.default_rng(4)
    u = rng.uniform(0.1, 2.0, 32)
    v = rng.uniform(0.0, 1.0, 32)
    dt = cfl_dt(State(u, v, 0.0), g, p, 0.3)
    new = step(State(u, v, 0.0), dt, g, p)
    from ksfv.nonlin import growth_reg

    expected = ksfv.integrate(u, g) + dt * ksfv.integrate(growth_reg(u, p), g)
    assert ksfv.integrate(new.u, g) == pytest.approx(expected, rel=1e-13)


def _state_with_negative_cell(g, field):
    u = np.full(g.cells, 1.0)
    v = np.full(g.cells, 0.5)
    (u if field == "u" else v)[g.cells // 3] = -1e-9
    return State(u, v, 0.0)


@pytest.mark.parametrize("field", ["u", "v"])
def test_step_rejects_negative_state(field):
    g = interval(16)
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, a=0.5, eps=0.05)
    with pytest.raises(DomainError):
        step(_state_with_negative_cell(g, field), 1e-4, g, p)


@pytest.mark.parametrize("field", ["u", "v"])
def test_cfl_dt_rejects_negative_state(field):
    g = interval(16)
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, a=0.5, eps=0.05)
    with pytest.raises(DomainError):
        cfl_dt(_state_with_negative_cell(g, field), g, p, 0.4)


def test_step_and_cfl_dt_reject_malformed_state():
    g = interval(16)
    p = ksfv.ModelParams()
    short = State(np.ones(15), np.ones(15), 0.0)
    nonfinite = State(np.ones(16), np.ones(16), 0.0)
    nonfinite.u[3] = np.nan
    for s in (short, nonfinite):
        with pytest.raises(UsageError):
            step(s, 1e-4, g, p)
        with pytest.raises(UsageError):
            cfl_dt(s, g, p, 0.4)
        with pytest.raises(UsageError):  # steady_signal checks its u the same way
            steady_signal(s.u, g)


# ---------------------------------------------------------------------------
# run


def test_run_constant_equilibrium():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 64)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1.0, b=1.0, s0=1.0)
    c = 1.0
    cfg = RunConfig(dom, p, np.full(64, c), np.full(64, c), t_end=1.0, diag_every=50)
    res = run(cfg)
    assert res.termination.tag == Termination.COMPLETED
    assert res.termination.t_final >= 1.0 - 1e-12
    assert np.max(np.abs(res.final_state.u - c)) <= 1e-12
    assert np.max(np.abs(res.final_state.v - c)) <= 1e-12
    ts = [r.t for r in res.rows]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_run_heat_mode_analytic():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 200)
    g = ksfv.make_grid(dom)
    u0 = 1.0 + np.cos(np.pi * g.centers)
    cfg = RunConfig(
        dom, ksfv.ModelParams(), u0, np.zeros(200), t_end=0.1,
        overrides=heat_overrides(), diag_every=1000, dt_max=1.0,
    )
    res = run(cfg)
    exact = 1.0 + math.exp(-math.pi ** 2 * 0.1) * np.cos(np.pi * g.centers)
    assert res.termination.tag == Termination.COMPLETED
    assert float(np.max(np.abs(res.final_state.u - exact))) <= 1e-3
    assert res.mass_law_residual_u <= 1e-12


def test_run_determinism_bitwise():
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 24)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, a=0.5, b=1.0, eps=0.05)
    u0 = 1.0 + 0.3 * np.cos(np.pi * g.centers)
    v0 = steady_signal(u0, g)
    cfg = RunConfig(dom, p, u0, v0, t_end=0.02)
    r1, r2 = run(cfg), run(cfg)
    assert r1.rows == r2.rows
    assert np.array_equal(r1.final_state.u, r2.final_state.u)
    assert np.array_equal(r1.final_state.v, r2.final_state.v)


def test_run_mass_laws_with_active_growth():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 48)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1.0, b=1.0, eps=0.02)
    u0 = 1.0 + 0.4 * np.cos(np.pi * g.centers)
    v0 = steady_signal(u0, g)
    res = run(RunConfig(dom, p, u0, v0, t_end=0.05))
    assert res.mass_law_residual_u <= 1e-12
    assert res.mass_law_residual_v <= 1e-12
    assert res.min_u_seen >= 0.0
    assert res.min_v_seen >= 0.0


def test_mass_law_residual_of_a_run_from_zero_mass_is_relative_to_its_growth():
    # u0 = 0 with a > 0: the mass before the first step is 0, so that step's
    # rounding (about 1e-21) must be taken relative to the mass it adds
    cfg, _, _ = run_config_from(parse_config_text(
        "domain.R = 0.7\ndomain.cells = 16\ninit.u0 = constant:0\n"
        "params.a = 0.0653\nrun.t_end = 0.002\n"
    ))
    res = run(cfg)
    assert res.termination.tag == Termination.COMPLETED
    assert res.mass_law_residual_u <= 1e-12
    assert res.mass_law_residual_v <= 1e-12


def test_run_computes_each_rows_energy_once(monkeypatch):
    # diag_every = 1: every step emits a row, and the next step's F_prev is
    # that row's F, so F is computed once per row rather than twice per step
    import ksfv.lockstep as lockstep_mod

    calls = []
    real = lockstep_mod.lyapunov_terms

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lockstep_mod, "lyapunov_terms", counting)
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 24)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1.0, b=1.0, eps=0.02)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    res = run(RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.02, diag_every=1))
    assert res.steps == 64
    assert len(res.rows) == 65
    assert len(calls) == 65
    for prev, row in zip(res.rows, res.rows[1:]):
        assert row.identity_residual == abs((row.F - prev.F) / row.dt - row.dissipation_rhs)


FIXTURE_CONFIGS = {"damped_run": damped_reference_config, "aggregation_run": aggregation_config}


def _v_w12(v, g):
    dv = grad_faces(v, g)
    return math.sqrt(float(np.dot(v * v, g.cell_volume)) + float(np.dot(g.face_weight, dv * dv)))


@pytest.mark.parametrize("fixture", sorted(FIXTURE_CONFIGS))
def test_run_reports_v_w12_of_final_state_and_its_max(request, fixture):
    res = request.getfixturevalue(fixture)
    g = res.grid
    assert res.v_w12_final == pytest.approx(_v_w12(res.final_state.v, g), rel=1e-15)
    assert res.v_w12_max >= _v_w12(FIXTURE_CONFIGS[fixture]().v0, g)
    assert res.v_w12_max >= res.v_w12_final


# the step's own checks name the failure; numpy has nothing to warn about
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_ends_non_finite_step_as_numerical_failure(monkeypatch, bad):
    import ksfv.solver as solver_mod

    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 16)
    g = ksfv.make_grid(dom)
    real = solver_mod.interior_flux

    def flux(out, *args):
        # the step's flux turns non-finite on one interior face
        mob = real(out, *args)
        out[5] = bad
        return mob

    monkeypatch.setattr(solver_mod, "interior_flux", flux)
    u0 = np.full(16, 1.0)
    cfg = RunConfig(dom, ksfv.ModelParams(), u0, steady_signal(u0, g), t_end=0.01)
    res = run(cfg)
    assert res.termination.tag == Termination.NUMERICAL_FAILURE
    assert res.steps == 0


UNDERFLOW_CONFIG = """
domain.kind = ball
domain.n = 2
domain.R = 1.0
domain.cells = 64
params.beta = 3
params.a = 0
params.eps = 1e-3
init.u0 = family_u:eta=0.35,mass=50
run.t_end = 5
run.dt_min = 3e-8
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dt_underflow_ends_on_its_last_steps_own_row():
    # 289 steps, of which the last two write no row at diag_every = 7: the
    # closing row is that step's own, the one every step writes at diag_every = 1
    results = []
    for every in (7, 1):
        text = UNDERFLOW_CONFIG + f"run.diag_every = {every}\n"
        results.append(run(run_config_from(parse_config_text(text))[0]))
    sparse, dense = results
    assert sparse.termination.tag == dense.termination.tag == Termination.DT_UNDERFLOW
    assert sparse.steps == dense.steps == 289
    assert sparse.rows[-2].t < sparse.rows[-1].t == sparse.termination.t_final
    assert sparse.rows[-1] == dense.rows[-1]
    assert sparse.v_w12_final == dense.v_w12_final


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_failure_ends_on_a_row_of_the_last_valid_state(monkeypatch):
    import ksfv.solver as solver_mod

    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 24)
    g = ksfv.make_grid(dom)
    real = solver_mod.interior_flux
    calls = []

    def flux(out, *args):
        # the sixth step's flux turns non-finite on one interior face
        mob = real(out, *args)
        calls.append(1)
        if len(calls) == 6:
            out[5] = np.nan
        return mob

    monkeypatch.setattr(solver_mod, "interior_flux", flux)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    cfg = RunConfig(dom, ksfv.ModelParams(), u0, steady_signal(u0, g), t_end=0.01, diag_every=1000)
    res = run(cfg)
    assert res.termination.tag == Termination.NUMERICAL_FAILURE
    assert res.steps == 5
    assert len(res.rows) == 2
    last, state = res.rows[-1], res.final_state
    assert last.t == res.termination.t_final == state.t > 0.0
    assert math.isnan(last.dt) and math.isnan(last.dissipation_rhs)
    assert math.isnan(last.identity_residual)
    assert last.max_u == state.u.max() and last.min_u == state.u.min()
    assert last.mass_u == float(np.dot(state.u, g.cell_volume))
    terms = lyapunov(state, g, TableCache().get(cfg))
    assert last.F == terms.F_total
    assert res.v_w12_final == terms.v_w12


def test_run_rejects_bad_config():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 16)
    p = ksfv.ModelParams()
    with pytest.raises(ConfigError):
        run(RunConfig(dom, p, -np.ones(16), np.zeros(16), t_end=1.0))
    with pytest.raises(ConfigError):
        run(RunConfig(dom, p, np.ones(16), np.zeros(16), t_end=1.0, cfl=1.5))
    with pytest.raises(ConfigError):
        run(RunConfig(dom, p, np.ones(16), np.zeros(16), t_end=1.0, dt_min=2.0, dt_max=1.0))


def test_refinement_improves_heat_error():
    def sup_err(cells):
        dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, cells)
        g = ksfv.make_grid(dom)
        u0 = 1.0 + np.cos(np.pi * g.centers)
        cfg = RunConfig(
            dom, ksfv.ModelParams(), u0, np.zeros(cells), t_end=0.1,
            overrides=heat_overrides(), diag_every=10 ** 6, dt_max=1.0,
        )
        res = run(cfg)
        exact = 1.0 + math.exp(-math.pi ** 2 * 0.1) * np.cos(np.pi * g.centers)
        return float(np.max(np.abs(res.final_state.u - exact)))

    assert sup_err(100) / sup_err(200) >= 3.0


# ---------------------------------------------------------------------------
# continuous dependence


def test_dependence_zero_delta_identical():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 32)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1, b=1, eps=0.01)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    cfg = RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.05)
    rec = continuous_dependence(cfg, 0.0, 0.05)
    assert np.all(rec.separations == 0.0)
    assert rec.fitted_rate == 0.0


def test_dependence_heat_mode_contraction():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 64)
    g = ksfv.make_grid(dom)
    u0 = 1.0 + 0.5 * np.cos(np.pi * g.centers)
    cfg = RunConfig(
        dom, ksfv.ModelParams(), u0, np.zeros(64), t_end=0.05,
        overrides=heat_overrides(), dt_max=5e-5,
    )
    rec = continuous_dependence(cfg, 1e-4, 0.05)
    seps = rec.separations
    assert all(b <= a * (1.0 + 1e-12) + 1e-18 for a, b in zip(seps, seps[1:]))


def test_dependence_damped_regression():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 100)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1, b=1, eps=0.01)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    cfg = RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.1)
    rec = continuous_dependence(cfg, 1e-6, 0.1)
    assert rec.both_completed
    assert float(np.max(rec.separations)) <= 1e-3
    assert math.isfinite(rec.fitted_rate)
    assert abs(rec.fitted_rate) <= 30.0  # pinned: measured ~ -8.9
    # the fitted envelope covers the data within a factor 2
    envelope = 2.0 * rec.fitted_prefactor * np.exp(rec.fitted_rate * rec.times) * rec.delta
    assert np.all(rec.separations <= envelope + 1e-15)


def test_perturbation_bump_shape():
    g = interval(64)
    b = perturbation_bump(g)
    assert float(np.max(b)) <= 1.0 + 1e-12
    assert float(np.min(b)) >= 0.0


# ---------------------------------------------------------------------------
# eps convergence scan


def test_eps_scan_single_entry():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 32)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=4, a=1, b=1)
    u0 = np.ones(32)
    cfg = RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.01)
    scan = epsilon_convergence_scan(cfg, [0.1], 0.01)
    assert scan.gaps == []


def test_eps_scan_heat_mode_gaps_zero():
    # with every nonlinearity overridden, eps does not enter at all
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 32)
    g = ksfv.make_grid(dom)
    u0 = 1.0 + 0.3 * np.cos(np.pi * g.centers)
    cfg = RunConfig(
        dom, ksfv.ModelParams(), u0, np.zeros(32), t_end=0.01,
        overrides=heat_overrides(), dt_max=1e-4,
    )
    scan = epsilon_convergence_scan(cfg, [0.1, 0.05, 0.025], 0.01)
    assert scan.gaps == [0.0, 0.0]


def test_eps_scan_requires_decreasing():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 16)
    p = ksfv.ModelParams()
    cfg = RunConfig(dom, p, np.ones(16), np.ones(16), t_end=0.01)
    with pytest.raises(ConfigError):
        epsilon_convergence_scan(cfg, [0.1, 0.2], 0.01)


def test_eps_scan_aborts_on_blowup():
    # a cap low enough that the first run trips it immediately
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 32)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=3, kappa=2, a=0, b=1, eps=0.1)
    u0 = 5.0 + 40.0 * np.exp(-((g.centers / 0.2) ** 2))
    v0 = steady_signal(u0, g)
    cfg = RunConfig(dom, p, u0, v0, t_end=1.0, blowup_cap=50.0, dt_min=1e-16)
    with pytest.raises(ScanAbortedError) as info:
        epsilon_convergence_scan(cfg, [0.1, 0.05], 1.0)
    assert info.value.offender == 0.1


# ---------------------------------------------------------------------------
# blow-up terminations


def _aggregating_cap_config(cap=2e3):
    from ksfv.config import parse_config_text, run_config_from
    from ksfv.output import fmt

    text = (
        "domain.kind = ball\ndomain.R = 1.0\ndomain.n = 2\ndomain.cells = 32\n"
        "params.alpha = 1.0\nparams.beta = 3.0\nparams.kappa = 2.0\n"
        "params.a = 0.5\nparams.b = 1.0\nparams.eps = 0.01\n"
        "init.u0 = gauss:base=1,amp=4,width=0.25,center=0.0\ninit.mass = 50\n"
        "init.v0 = steady\nrun.t_end = 0.5\nrun.diag_every = 20\n"
        f"run.dt_min = 1e-12\nrun.blowup_cap = {fmt(cap)}\n"
    )
    cfg, grid, _ = run_config_from(parse_config_text(text))
    return cfg, grid


def test_run_cap_crossing_blowup():
    cfg, _ = _aggregating_cap_config()
    res = run(cfg)
    term = res.termination
    assert term.tag == Termination.BLOWUP
    # the cap is crossed at t_final, and the estimate is the last time below it
    assert ksfv.linf(res.final_state.u) > cfg.blowup_cap
    assert term.blowup_estimate is not None
    assert term.blowup_estimate < term.t_final
    assert res.rows[-1].t == term.t_final
    ts = [r.t for r in res.rows]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_large_static_initial_data_not_misflagged():
    # the cap alone does not signal blow-up: max_u must also have grown 10x
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 32)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=100.0 ** 2, b=1.0)
    c = 100.0  # equilibrium of the growth term, above the cap
    cfg = RunConfig(
        dom, p, np.full(32, c), np.full(32, c), t_end=0.01, blowup_cap=50.0
    )
    res = run(cfg)
    assert res.termination.tag == Termination.COMPLETED


def test_v_mass_law_single_step():
    # backward-Euler form: mass_v(k+1) - mass_v(k) = dt (mass_u(k+1) - mass_v(k+1))
    g = ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 40))
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, a=0.3, b=1.0, eps=0.05)
    rng = np.random.default_rng(17)
    u = rng.uniform(0.1, 2.0, 40)
    v = rng.uniform(0.0, 1.5, 40)
    s = State(u, v, 0.0)
    dt = cfl_dt(s, g, p, 0.3)
    new = step(s, dt, g, p)
    lhs = ksfv.integrate(new.v, g) - ksfv.integrate(v, g)
    rhs = dt * (ksfv.integrate(new.u, g) - ksfv.integrate(new.v, g))
    assert lhs == pytest.approx(rhs, abs=1e-14 * max(1.0, abs(lhs)))


def test_completed_run_reaches_t_end_with_probes():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 24)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1.0, b=1.0, eps=0.02)
    u0 = 1.0 + 0.1 * np.cos(np.pi * g.centers)
    cfg = RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.02)
    probes = np.linspace(0.0, 0.02, 9)
    res = run(cfg, probe_times=probes)
    assert res.termination.tag == Termination.COMPLETED
    assert res.termination.t_final >= cfg.t_end * (1.0 - 1e-12)
    assert len(res.probe_states) == len(probes)
    for want, got in zip(probes, res.probe_states):
        assert got.t == pytest.approx(want, abs=1e-12)


def test_public_entry_points_leave_their_inputs_unchanged():
    # the step loop solves v in place in its own buffer, and only there
    g = interval(16)
    p = ksfv.ModelParams(alpha=2, beta=2, kappa=2, a=0.5, eps=0.01)
    u = 1.0 + 0.5 * np.cos(np.pi * g.centers)
    u_bytes = u.tobytes()
    v = steady_signal(u, g)
    assert u.tobytes() == u_bytes
    v_bytes = v.tobytes()
    s = State(u, v, 0.0)
    new = step(s, cfl_dt(s, g, p, 0.4), g, p)
    assert not np.shares_memory(new.u, u) and not np.shares_memory(new.v, v)
    assert u.tobytes() == u_bytes and v.tobytes() == v_bytes
    res = run(RunConfig(g.spec, p, u, v, t_end=0.01))
    assert res.steps > 0
    assert u.tobytes() == u_bytes and v.tobytes() == v_bytes


def test_step_loop_ignores_float_warnings_and_rows_keep_the_callers(monkeypatch):
    import ksfv.lockstep as lockstep_mod
    import ksfv.solver as solver_mod

    seen = {"step": [], "row": []}
    advance, rhs_terms = solver_mod._Kernel.advance, lockstep_mod.dissipation_terms

    def spy_advance(*args):
        seen["step"].append(np.geterr())
        return advance(*args)

    def spy_rhs(*args):
        seen["row"].append(np.geterr())
        return rhs_terms(*args)

    monkeypatch.setattr(solver_mod._Kernel, "advance", spy_advance)
    monkeypatch.setattr(lockstep_mod, "dissipation_terms", spy_rhs)
    g = interval(16)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    cfg = RunConfig(g.spec, ksfv.ModelParams(), u0, steady_signal(u0, g), t_end=0.01, diag_every=5)
    with np.errstate(all="raise", under="warn"):
        caller = np.geterr()
        run(cfg)
        assert np.geterr() == caller
    assert seen["step"] and seen["row"]
    assert all(set(e.values()) == {"ignore"} for e in seen["step"])
    assert all(e == caller for e in seen["row"])


# ---------------------------------------------------------------------------
# the LAPACK route: dgtsv from scipy's _flapack extension, loaded by file


def test_import_runs_no_scipy_linalg_and_no_f2py():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ksfv.__file__)))
    code = "import sys, ksfv.cli; print(sorted({'scipy.linalg', 'numpy.f2py'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def _load_by_file(monkeypatch):
    import ksfv.solver as solver_mod

    # as in a fresh process: the extension is not loaded yet
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    return solver_mod._load_dgtsv()


def _screened_system():
    """The bands and right-hand side _Tridiag.solve hands to dgtsv, 48-cell ball."""
    import ksfv.solver as solver_mod

    g = ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 48))
    seen = []
    loaded = solver_mod._dgtsv

    def record(dl, d, du, b, *flags):
        seen.append((dl.copy(), d.copy(), du.copy(), b.copy()))
        return loaded(dl, d, du, b, *flags)

    solver_mod._dgtsv = record
    try:
        solver_mod._Tridiag(g).solve(1.0 + 1e-3, 1e-3, 1.0 + np.cos(3.0 * g.centers))
    finally:
        solver_mod._dgtsv = loaded
    return seen[0]


def _pivoting_system():
    """A 5x5 system with |dl| > |d|, so dgtsv interchanges rows."""
    d = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    dl = np.array([10.0, -7.0, 8.0, 9.0])
    du = np.array([1.0, -2.0, 0.5, 3.0])
    return dl, d, du, np.arange(1.0, 6.0)


@pytest.mark.parametrize("in_place", [0, 1])
@pytest.mark.parametrize("system", [_screened_system, _pivoting_system])
def test_loaded_dgtsv_is_bitwise_the_public_routine(monkeypatch, system, in_place):
    from scipy.linalg.lapack import dgtsv

    loaded = _load_by_file(monkeypatch)
    outputs = []
    for routine in (loaded, dgtsv):
        dl, d, du, b = (a.copy() for a in system())
        du2, d_f, du_f, x, info = routine(dl, d, du, b, 1, 1, 1, in_place)
        assert info == 0
        outputs.append([a.tobytes() for a in (du2, d_f, du_f, x, b)])
    assert outputs[0] == outputs[1]
    if system is _pivoting_system:
        assert np.any(np.frombuffer(outputs[0][0]) != 0.0)  # the second superdiagonal of U


def test_missing_extension_falls_back_to_the_public_import(monkeypatch):
    from scipy.linalg.lapack import dgtsv

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
    assert _load_by_file(monkeypatch) is dgtsv


# ---------------------------------------------------------------------------
# lockstep runs: one run's failure stays its own


def test_lockstep_isolates_a_failing_run_and_a_raising_run(monkeypatch):
    import dataclasses

    from ksfv.errors import DivergenceError
    from ksfv.nonlin import FunctionalTable
    from oracles import ending_config, march, poisoned_advance, result_bytes

    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 24)

    def config(beta, kappa, end="Completed"):
        p = ksfv.ModelParams(alpha=1.0, beta=beta, kappa=kappa, a=0.5, eps=0.01)
        return ending_config(dom, p, 1.0 + 0.1 * kappa, end, diag_every=3)

    completing = [config(1.0, 2.0), config(2.0, 3.0), config(3.0, 2.5)]
    # nan in this run's density from its 4th step on, and nowhere else
    poisoned = dataclasses.replace(config(2.0, 4.0, "NumericalFailure"), blowup_cap=3e8)
    raising = config(1.5, 3.0)  # its table refuses its rows' third walk
    walks = []
    real_covering = FunctionalTable.covering

    def covering(self, s, lo=None):
        if self.params.beta == 1.5:
            walks.append(s)
            if len(walks) > 2:
                raise DivergenceError("the walk of the beta = 1.5 table diverges")
        return real_covering(self, s, lo)

    monkeypatch.setattr(FunctionalTable, "covering", covering)
    runs = completing + [poisoned, raising]
    with poisoned_advance({3e8: 4}):
        together = march([(k, cfg, None, TableCache()) for k, cfg in enumerate(runs)], len(runs))
        alone = [run(cfg) for cfg in completing + [poisoned]]
        walks.clear()
        with pytest.raises(DivergenceError) as raised:
            run(raising)
    assert len(walks) == 3  # the third row's walk raised, mid-run
    for k, res in enumerate(alone):
        assert result_bytes(together[k]) == result_bytes(res)
    assert [res.termination.tag for res in alone] == [Termination.COMPLETED] * 3 + [
        Termination.NUMERICAL_FAILURE
    ]
    assert type(together[4]) is DivergenceError and str(together[4]) == str(raised.value)


def test_lockstep_faces_between_runs_are_boundary_faces():
    # a gradient across the face between two runs would overflow to inf, and
    # 0*inf is nan: each run's dt and step must still be its own kernel's
    from ksfv.solver import _Kernel, _Model

    g = ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, 0.1, 2, 16))
    p = ksfv.ModelParams(alpha=1.0, beta=2.0, kappa=2.0, a=0.5, eps=0.01)
    states = [np.stack((np.full(16, 1.0), np.full(16, 1.0))) for _ in range(3)]
    states[0][:, -1] = 1e308  # next to the first cell of run 1, at 0.0
    states[1][:, 0] = 0.0
    states[2][:, 0] = 1e308
    models = [_Model(p, None) for _ in states]
    for m, s in zip(models, states):
        m.umax, m.v_range, m.cfl = float(s[0].max()), float(s[1].max() - s[1].min()), 0.4
    kern = _Kernel(g, models)
    s = np.concatenate(states, axis=1)
    new = np.empty_like(s)
    with np.errstate(all="ignore"):  # as in a run's step loop
        kern.gradients(s)
        assert np.all(kern.grad[:, 16::16] == 0.0)
        dts = kern.dt_bound(s[0])
        f_u = np.concatenate([m.f(x[0]) for m, x in zip(models, states)])
        kern.advance(s[0], s[1], new[0], new[1], [1e-9] * 3, f_u)
        for k, (m, x) in enumerate(zip(models, states)):
            m.lead_drift = False
            alone = _Kernel(g, [m])
            alone.gradients(x)
            assert dts[k] == alone.dt_bound(x[0])[0]
            y = np.empty_like(x)
            alone.advance(x[0], x[1], y[0], y[1], 1e-9, m.f(x[0]))
            assert new[:, kern.cells(k)].tobytes() == y.tobytes()
