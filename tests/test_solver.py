import contextlib
import dataclasses
import importlib.machinery
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ksfv
from conftest import aggregation_config, damped_reference_config
from ksfv.config import load_config, parse_config_text, run_config_from
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
    # that row's F, so F is evaluated once per row rather than twice per step.
    # The step rows call lockstep's lyapunov_terms on a block of states, the
    # initial row energy.lyapunov, which calls energy's on one state: count
    # the states
    import ksfv.energy as energy_mod
    import ksfv.lockstep as lockstep_mod

    states = []
    real = lockstep_mod.lyapunov_terms

    def counting(G_u, *args, **kwargs):
        states.extend([1] * len(G_u))
        return real(G_u, *args, **kwargs)

    monkeypatch.setattr(lockstep_mod, "lyapunov_terms", counting)
    monkeypatch.setattr(energy_mod, "lyapunov_terms", counting)
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 24)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1.0, b=1.0, eps=0.02)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    res = run(RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.02, diag_every=1))
    assert res.steps == 64
    assert len(res.rows) == 65
    assert len(states) == 65
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


def test_eps_scan_with_fewer_than_two_gaps_is_not_decreasing():
    # a verdict needs two gaps to compare, as families.energy_scan needs two points
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 32)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=4, a=1, b=1)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    cfg = RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.01)
    for eps_list, gaps in (([0.1], 0), ([0.1, 0.05], 1)):
        scan = epsilon_convergence_scan(cfg, eps_list, 0.01)
        assert len(scan.gaps) == gaps and scan.gaps[:1] != [0.0]
        assert scan.strictly_decreasing is False
    assert epsilon_convergence_scan(cfg, [0.1, 0.05, 0.025], 0.01).strictly_decreasing


def test_eps_scan_abort_keeps_the_runs_that_completed():
    # eps = 0.1 cuts the growth a = 5000 off below the growth floor 10 max(u0)
    # of the blow-up check; eps = 0.05 does not, and its run crosses the cap
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 48)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=4, a=5000, b=1e-6)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    cfg = RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.05, blowup_cap=1.0)
    with pytest.raises(ScanAbortedError) as info:
        epsilon_convergence_scan(cfg, [0.2, 0.1, 0.05, 0.025], 0.05)
    assert info.value.offender == 0.05
    done = info.value.completed
    assert done.eps_values == [0.2, 0.1] and len(done.states) == 2
    assert done.gaps == [float(np.max(np.abs(done.states[0].u - done.states[1].u)))]
    assert done.strictly_decreasing is False


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


@pytest.mark.parametrize("t_probe", [math.nan, math.inf, -math.inf])
def test_run_rejects_non_finite_probe_times(t_probe):
    # every comparison with nan, and with inf - inf, is False: unchecked,
    # such a probe is recorded at the first step, and a -inf one at t = 0
    g = interval(16)
    u0 = np.full(16, 1.0)
    cfg = RunConfig(g.spec, ksfv.ModelParams(), u0, steady_signal(u0, g), t_end=0.01)
    with pytest.raises(ConfigError, match="probe times must be finite"):
        run(cfg, probe_times=[0.005, t_probe])


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


def test_import_compiles_no_march():
    # run() and the sweep import the march when they first use it
    src = os.path.dirname(os.path.dirname(os.path.abspath(ksfv.__file__)))
    code = "import sys, ksfv, ksfv.cli, ksfv.sweep; print('ksfv.lockstep' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


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


def test_lockstep_rows_of_one_table_on_one_step_keep_each_runs_outcome(monkeypatch):
    # three runs share one table and write a row on every step; on step M one
    # crosses the cap, one completes and one's row walks the table where the
    # walk raises: above its s_max, or below s0, in the range the rows walk
    # on demand, under a floor the other two never reach. Together, each run
    # evaluates its rows in blocks of 10; on step M the walking run's own
    # walk ends it with its last block unevaluated, and the other two
    # evaluate their last blocks as they end, so each run ends as it does alone
    import dataclasses

    import ksfv.lockstep as lockstep_mod
    from ksfv.config import build_field
    from ksfv.errors import DivergenceError
    from ksfv.nonlin import FunctionalTable
    from ksfv.solver import initial_table_key
    from oracles import march, result_bytes

    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 24)
    g = ksfv.make_grid(dom)

    def config(base, a, b=1e-4):
        # f = a - b u^2 ~ a: u grows by about a per unit time
        p = ksfv.ModelParams(alpha=1.0, beta=2.0, kappa=2.0, a=a, b=b, eps=0.01)
        u0 = build_field(f"cosine:base={base!r},amp={0.2 * base!r},mode=1.0", g)
        return RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.02, dt_max=2e-4)

    real_covering = FunctionalTable.covering
    real_rows = lockstep_mod._step_rows
    floor = 0.01

    def check(walking, upward):
        capped, completing = config(0.015, 500.0), config(0.5, 2.0)
        key = initial_table_key(walking)
        assert initial_table_key(capped) == key == initial_table_key(completing)
        s_max = key[-2]
        rows = run(walking).rows
        if upward:
            M = next(i for i, r in enumerate(rows) if r.max_u > s_max)
            assert all(a.max_u < b.max_u for a, b in zip(rows[:M], rows[1:M + 1]))
        else:
            M = next(i for i, r in enumerate(rows) if r.min_u < floor)
            assert all(a.min_u > b.min_u for a, b in zip(rows[:M], rows[1:M + 1]))
            assert rows[0].min_u < walking.params.s0
        capped_rows = run(capped).rows
        below, above = capped_rows[M - 1].max_u, capped_rows[M].max_u
        assert below < above and above >= 10.0 * float(np.max(capped.u0))  # the growth floor
        assert min(r.min_u for r in capped_rows) > floor
        capped = dataclasses.replace(capped, blowup_cap=0.5 * (below + above))
        completing_rows = run(completing).rows
        assert min(r.min_u for r in completing_rows) > floor
        completing = dataclasses.replace(completing, t_end=completing_rows[M].t)

        def covering(self, s, lo=None):
            if s > s_max if upward else min(s, s if lo is None else lo) < floor:
                raise DivergenceError("the walk diverges")
            return real_covering(self, s, lo)

        blocks = {}

        def step_rows(pt):
            blocks.setdefault(pt.tag, []).append(len(pt.kept))
            real_rows(pt)

        with monkeypatch.context() as mp:
            mp.setattr(FunctionalTable, "covering", covering)
            alone = [run(capped), run(completing)]
            assert [res.termination.tag for res in alone] == [
                Termination.BLOWUP, Termination.COMPLETED
            ]
            assert [res.steps for res in alone] == [M, M]
            with pytest.raises(DivergenceError) as raised:
                run(walking)

            mp.setattr(lockstep_mod, "_step_rows", step_rows)
            mp.setattr(lockstep_mod, "_BLOCK_CELLS", 10 * g.cells)
            tables = TableCache()
            runs = [capped, completing, walking]
            together = march([(k, cfg, None, tables) for k, cfg in enumerate(runs)], len(runs))
        assert M > 10 and M % 10 not in (0, 1)
        rows = [10] * (M // 10) + [M % 10]
        assert blocks == {0: rows, 1: rows, 2: [10] * (M // 10)}
        for k, res in enumerate(alone):
            assert result_bytes(together[k]) == result_bytes(res)
        assert type(together[2]) is DivergenceError and str(together[2]) == str(raised.value)

    check(config(1.5, 2000.0), upward=True)
    # f = -b u^2: u decays from below s0, and its rows walk the table down
    check(config(0.5, 0.0, b=3e4), upward=False)


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


@pytest.mark.parametrize("kind", [ksfv.INTERVAL, ksfv.BALL])
@pytest.mark.parametrize("B", [1, 2, 3])
def test_lockstep_gradients_are_each_runs_grad_faces_bitwise(kind, B):
    # one flat difference takes every face of every run; the faces it takes
    # across the end of a run, and between u and v, must read +0.0
    from ksfv.solver import _Kernel, _Model

    n = 12
    g = ksfv.make_grid(ksfv.DomainSpec(kind, 0.7, 1 if kind == ksfv.INTERVAL else 2, n))
    rng = np.random.default_rng(B)
    # magnitudes from 1e-3 to 1e3, so that every face across a run's end differs
    runs = [10.0 ** rng.uniform(-3.0, 3.0, (2, n)) for _ in range(B)]
    kern = _Kernel(g, [_Model(ksfv.ModelParams(), None) for _ in runs])
    kern.gradients(np.concatenate(runs, axis=1))
    for k, (u, v) in enumerate(runs):
        du, dv = grad_faces(u, g), grad_faces(v, g)
        assert kern.du_in[kern.inner(k)].tobytes() == du[1:-1].tobytes()
        assert kern.dv_in[kern.inner(k)].tobytes() == dv[1:-1].tobytes()
        faces = slice(k * n, (k + 1) * n + 1)
        assert kern.dvf[faces].tobytes() == dv.tobytes()
        assert kern.grad[0, faces].tobytes() == du.tobytes()
    ends = kern.grad[:, ::n]  # every boundary face and every face between two runs
    assert ends.shape == (2, B + 1)
    assert ends.tobytes() == np.zeros((2, B + 1)).tobytes()  # +0.0, not -0.0


def test_cfl_dt_takes_no_gradient_across_the_end_of_a_field():
    # the gradients are one difference over u's cells then v's: the one it
    # takes from u's last cell to v's first must not overflow, nor warn
    g = interval(16)  # h < 1, so a difference of 1e308 over h overflows
    p = ksfv.ModelParams()
    flat = np.full(16, 1.0)
    with np.errstate(all="raise"):
        for u, v in ((flat, np.full(16, 1e308)), (np.full(16, 1e308), 0.0 * flat)):
            dt = cfl_dt(State(u, v, 0.0), g, p, 0.4)
            # v constant: no drift, so the dt of v = 0
            assert dt == cfl_dt(State(u, 0.0 * flat, 0.0), g, p, 0.4)


def test_vecdot_rows_are_blas_dot_bitwise():
    # the march sums each run's u, v and f(u) against the cell volumes in one
    # np.vecdot call, and the rows of a batch sum against the cell volumes or
    # the face weights (the weights first, as in np.dot(w, x)); each sum must
    # be bitwise the np.dot a run alone takes
    rng = np.random.default_rng(20)
    cases = [(k, n) for k in (1, 2, 3, 5, 9, 20) for n in (8, 17, 48, 256, 600)]
    for k, n in cases:
        V = 10.0 ** rng.uniform(-5.0, 5.0, n)
        U = rng.choice([-1.0, 1.0], (k, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (k, n))
        sums = np.vecdot(U, V)
        assert sums.tobytes() == np.array([np.dot(u, V) for u in U]).tobytes(), (k, n)
        sums = np.vecdot(V, U)
        assert sums.tobytes() == np.array([np.dot(V, u) for u in U]).tobytes(), (k, n)
    # one row holding nan and one holding inf leave the other rows as they are
    k, n = 6, 48
    V = 10.0 ** rng.uniform(-5.0, 5.0, n)
    U = 10.0 ** rng.uniform(-5.0, 5.0, (k, n))
    U[1, 7] = np.nan
    U[4, 30] = np.inf
    sums = np.vecdot(U, V)
    dots = np.array([np.dot(u, V) for u in U])
    assert np.isnan(sums[1]) and np.isnan(dots[1])
    assert sums[4] == dots[4] == np.inf
    finite = [0, 2, 3, 5]
    assert np.all(np.isfinite(sums[finite]))
    assert sums[finite].tobytes() == dots[finite].tobytes()


def test_block_solve_is_each_runs_own_dgtsv_bitwise(monkeypatch):
    # the march solves the v step of all its runs with one dgtsv call on the
    # block-diagonal system; each run's solution must be bitwise the one its
    # own system gives, a zero's sign included: the +0.0 seam couplings add
    # only zeros across the seams. A nan or inf run is redone run by run
    import ksfv.solver as solver_mod
    from ksfv.solver import _Tridiag

    calls = []
    real = solver_mod._dgtsv

    def counting(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(solver_mod, "_dgtsv", counting)
    rng = np.random.default_rng(19)

    def solve(g, dt, rhs):
        """The block solve of the runs' rows of rhs, and the number of dgtsv calls."""
        B, n = rhs.shape
        x = rhs.reshape(-1).copy()
        calls.clear()
        dt_cells = dt.repeat(n) if B > 1 else dt[0]
        _, failed = _Tridiag(g, B).solve(1.0 + dt_cells, dt_cells, x)
        assert not failed
        return x.reshape(B, n), len(calls)

    def alone(g, dt, rhs):
        return [_Tridiag(g).solve(1.0 + d, d, r.copy())[0] for d, r in zip(dt, rhs)]

    for kind, dim in ((ksfv.INTERVAL, 1), (ksfv.BALL, 2), (ksfv.BALL, 3)):
        for n in (8, 33, 256):
            g = ksfv.make_grid(ksfv.DomainSpec(kind, 0.5 + 0.5 * rng.random(), dim, n))
            for B in (1, 2, 3, 7, 16):
                dt = 10.0 ** rng.uniform(-7.0, 0.0, B)
                rhs = 10.0 ** rng.uniform(-3.0, 3.0, (B, n))
                # each run's first and last entry: a number, +0.0 or -0.0;
                # run 1 all -0.0 and run 3 all +0.0, which no march gives (its
                # v + dt u_new is never -0.0), to pin the seams' sign
                rhs[:, [0, -1]] *= rng.choice([1.0, 0.0, -0.0], (B, 2))
                rhs[1:2] = -0.0
                rhs[3:4] = 0.0
                x, n_calls = solve(g, dt, rhs)
                assert n_calls == 1
                for k, y in enumerate(alone(g, dt, rhs)):
                    assert x[k].tobytes() == y.tobytes(), (kind, dim, n, B, k)
    # a nan run and an inf run: the block's solutions are not finite, and the
    # runs are solved again one by one, the others bitwise as before
    g = ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 48))
    dt = 10.0 ** rng.uniform(-5.0, -1.0, 6)
    rhs = 10.0 ** rng.uniform(-3.0, 3.0, (6, 48))
    rhs[1, 30] = np.nan
    rhs[4, 0] = np.inf
    x, n_calls = solve(g, dt, rhs)
    assert n_calls == 1 + 6
    ys = alone(g, dt, rhs)
    assert np.isnan(x[1]).any() and not np.isfinite(x[4]).all()
    for k in (0, 2, 3, 5):
        assert np.all(np.isfinite(x[k]))
        assert x[k].tobytes() == ys[k].tobytes()


def test_lockstep_underflow_row_after_a_retile_is_its_solo_row():
    # run 1 completes on the step just before run 0's DtUnderflow, so the
    # march is retiled between them; run 0's last row is its last step's own
    # and takes that step's f(u), written into the buffers the retile replaced
    import dataclasses

    from oracles import ending_config, march, result_bytes

    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 24)
    p = ksfv.ModelParams(alpha=1.0, beta=2.0, kappa=3.0, a=0.5, eps=0.01)
    under = ending_config(dom, p, 1.0, "DtUnderflow", diag_every=7, after=4)
    alone = run(under)
    assert alone.termination.tag == Termination.DT_UNDERFLOW
    assert alone.steps % 7 != 0 and alone.rows[-1].dt > 0.0  # its own step's row
    longer = ending_config(dom, dataclasses.replace(p, beta=1.5), 1.2, "Completed", diag_every=3)
    times = [r.t for r in run(dataclasses.replace(longer, diag_every=1)).rows]
    assert len(times) > alone.steps + 2
    ending = dataclasses.replace(longer, t_end=times[alone.steps])
    runs = [under, ending, longer]
    solo = [run(cfg) for cfg in runs]
    assert solo[1].steps == alone.steps
    assert solo[1].termination.tag == Termination.COMPLETED
    together = march([(k, cfg, None, TableCache()) for k, cfg in enumerate(runs)], len(runs))
    for k, res in enumerate(solo):
        assert result_bytes(together[k]) == result_bytes(res)


# ---------------------------------------------------------------------------
# rows in blocks: a row does not depend on when it is evaluated or with which rows

ENDINGS = ("Completed", "BlowUp", "DtUnderflow", "NumericalFailure")
SAMPLE_RUN = os.path.join(os.path.dirname(__file__), "..", "docs", "sample_run.cfg")


def _ending_run(end, diag_every):
    """A run made to end as `end` (oracles.ending_config) and the poisoning its end needs.

    Each ends off the cadence of diag_every = 7: BlowUp on its 80th step,
    more rows than a default block holds on 24 cells, DtUnderflow on its
    12th, NumericalFailure on its 9th of 10.
    """
    from oracles import ending_config, poisoned_advance

    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 24)
    p = ksfv.ModelParams(alpha=1.0, beta=2.0, kappa=3.0, a=0.5, eps=0.01)
    mass = 10.0 if end == "BlowUp" else 1.0
    cfg = ending_config(dom, p, mass, end, diag_every, after=12)
    if end == "NumericalFailure":
        cfg = dataclasses.replace(cfg, blowup_cap=3e8)
    return cfg, poisoned_advance({3e8: 9})


@pytest.mark.parametrize("diag_every", [1, 7])
@pytest.mark.parametrize("end", ENDINGS)
def test_rows_at_a_block_of_one_row_are_the_default_blocks_rows(monkeypatch, end, diag_every):
    import ksfv.lockstep as lockstep_mod
    from oracles import result_bytes

    cfg, poisoned = _ending_run(end, diag_every)
    with poisoned:
        blocked = run(cfg)
        monkeypatch.setattr(lockstep_mod, "_BLOCK_CELLS", 1)
        single = run(cfg)
    assert blocked.termination.tag.value == end
    assert len(blocked.rows) > 2
    assert result_bytes(single) == result_bytes(blocked)


def _row_bytes(row):
    return np.array(dataclasses.astuple(row)).tobytes()


@pytest.mark.parametrize("end", ENDINGS + ("sample run",))
def test_sparse_rows_are_the_dense_runs_rows_bitwise(end):
    # each row of a diag_every = 7 run is the row at the same step of the
    # diag_every = 1 run. A NumericalFailure run ends on a row of its last
    # valid state with nan step columns, where the dense run has that
    # state's step row
    if end == "sample run":
        cfg, _, _ = run_config_from(load_config(SAMPLE_RUN))
        cfg = dataclasses.replace(cfg, t_end=0.05)
        poisoned = contextlib.nullcontext()
    else:
        cfg, poisoned = _ending_run(end, 1)
    with poisoned:
        dense, sparse = (run(dataclasses.replace(cfg, diag_every=d)) for d in (1, 7))
    assert sparse.steps == dense.steps > 7
    by_t = {row.t: row for row in dense.rows}
    assert len(by_t) == len(dense.rows) == dense.steps + 1
    rows = sparse.rows
    if end == "NumericalFailure":
        *rows, last = rows
        state_columns = ("t", "mass_u", "mass_v", "max_u", "min_u", "F")
        assert [getattr(last, c) for c in state_columns] == [
            getattr(dense.rows[-1], c) for c in state_columns
        ]
        assert math.isnan(last.dt)
    assert len(rows) >= 2
    for row in rows:
        assert _row_bytes(row) == _row_bytes(by_t[row.t])
