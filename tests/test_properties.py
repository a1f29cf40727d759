"""Property tests of the scheme's invariants over random configurations.

Parameters, grids and cosine/gauss initial data are drawn inside the config
schema. The checks are the exact discrete mass laws, positivity of u and v
after a CFL-limited step, bit-determinism of repeated runs, and a bitwise
oracle: step() must reproduce, to the last bit, the explicit update assembled
from the checked flux oracles in oracles.py and the public growth. A
differential test holds run()'s one-pass step, with its folded identities,
shared face gradient and carried max, to a plain reference loop: the same dt
and state after every step. Another holds a run whose table is walked below
s0 on demand to the same run on build_table's eager table: the same bytes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgtsv

import ksfv
from ksfv.config import build_field
from ksfv.core import State
from ksfv.discrete import div_cells, grad_faces
from ksfv.nonlin import (
    diffusivity_reg,
    growth,
    growth_reg,
    sensitivity,
)
from ksfv.output import rows_to_csv
from ksfv.solver import (
    RunConfig,
    TableCache,
    Termination,
    cfl_dt,
    initial_table_key,
    run,
    steady_signal,
    step,
)
from oracles import (
    chemotactic_flux,
    diffusive_flux,
    ending_config,
    growth_cutoff,
    march,
    poisoned_advance,
    result_bytes,
)

# derandomized and without an example database, so every run of the suite
# draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)
RUN_PROPERTY = settings(PROPERTY, max_examples=12)


def _unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


params_st = st.builds(
    ksfv.ModelParams,
    alpha=_unit(1.0, 3.0),
    beta=_unit(1.0, 3.0),
    kappa=_unit(2.0, 5.0),
    a=_unit(0.0, 2.0),
    b=_unit(0.1, 2.0),
    eps=st.one_of(st.just(0.0), _unit(1e-3, 0.5)),
    psi_c=_unit(0.2, 2.0),
)


@st.composite
def domains(draw):
    cells = draw(st.integers(8, 48))
    if draw(st.booleans()):
        return ksfv.DomainSpec(ksfv.INTERVAL, draw(_unit(0.25, 1.0)), 1, cells)
    return ksfv.DomainSpec(ksfv.BALL, draw(_unit(0.5, 1.5)), draw(st.integers(2, 3)), cells)


@st.composite
def field_specs(draw):
    """A cosine or gauss spec whose field is nonnegative."""
    if draw(st.booleans()):
        base = draw(_unit(0.0, 3.0))
        amp = draw(_unit(-1.0, 1.0)) * base
        mode = draw(_unit(0.5, 3.0))
        return f"cosine:base={base!r},amp={amp!r},mode={mode!r}"
    base = draw(_unit(0.0, 2.0))
    amp = draw(_unit(0.0, 5.0))
    width = draw(_unit(0.05, 0.5))
    center = draw(_unit(0.0, 1.0))
    return f"gauss:base={base!r},amp={amp!r},width={width!r},center={center!r}"


def _short_config(dom, p, spec, steps=10):
    """RunConfig taking `steps` steps of at most the initial CFL step."""
    g = ksfv.make_grid(dom)
    u0 = build_field(spec, g)
    v0 = steady_signal(u0, g)
    dt0 = cfl_dt(State(u0, v0, 0.0), g, p, 0.4)
    return RunConfig(dom, p, u0, v0, t_end=steps * dt0, dt_max=dt0, diag_every=3)


@RUN_PROPERTY
@given(dom=domains(), p=params_st, spec=field_specs())
def test_mass_laws_hold_exactly(dom, p, spec):
    res = run(_short_config(dom, p, spec))
    assert res.termination.tag == Termination.COMPLETED
    assert res.mass_law_residual_u <= 1e-12
    assert res.mass_law_residual_v <= 1e-12


@PROPERTY
@given(
    dom=domains(),
    p=params_st,
    u_spec=field_specs(),
    v_spec=field_specs(),
    cfl=_unit(0.05, 1.0 / 3.0),
)
def test_cfl_step_keeps_positivity(dom, p, u_spec, v_spec, cfl):
    # cfl <= 1/3 keeps the three additive rates jointly below the bound
    g = ksfv.make_grid(dom)
    s = State(build_field(u_spec, g), build_field(v_spec, g), 0.0)
    new = step(s, cfl_dt(s, g, p, cfl), g, p)
    assert float(np.min(new.u)) >= 0.0
    assert float(np.min(new.v)) >= 0.0


@RUN_PROPERTY
@given(dom=domains(), p=params_st, spec=field_specs())
def test_repeated_runs_are_byte_identical(dom, p, spec):
    cfg = _short_config(dom, p, spec)
    r1, r2 = run(cfg), run(cfg)
    assert rows_to_csv(r1.rows) == rows_to_csv(r2.rows)
    assert r1.final_state.u.tobytes() == r2.final_state.u.tobytes()
    assert r1.final_state.v.tobytes() == r2.final_state.v.tobytes()


@st.composite
def straddling_states(draw):
    """eps > 0 and a density with cells below 1/(2 eps), inside the cutoff band and beyond 1/eps."""
    dom = draw(domains())
    p = draw(params_st.filter(lambda q: q.eps >= 0.05))
    lo = 1.0 / (2.0 * p.eps)
    cells = dom.cells
    w = np.array(draw(st.lists(_unit(0.0, 2.4), min_size=cells, max_size=cells)))
    w[draw(st.integers(0, cells - 1))] = draw(_unit(1.0, 2.0)) * (1.0 + 1e-9)  # in the band
    w[draw(st.integers(0, cells - 1))] = draw(_unit(2.0, 2.4)) * (1.0 + 1e-9)  # cut off
    v = np.array(draw(st.lists(_unit(0.0, 3.0), min_size=cells, max_size=cells)))
    return dom, p, lo * w, v


@PROPERTY
@given(case=straddling_states())
def test_step_matches_public_function_oracle_bitwise(case):
    dom, p, u, v = case
    g = ksfv.make_grid(dom)
    assert np.any(u > 1.0 / p.eps)  # the cutoff branch is exercised

    # the masked cutoff reproduces the full-window definition bit for bit
    assert np.array_equal(growth_reg(u, p), growth(u, p) * growth_cutoff(u, p))

    s = State(u.copy(), v.copy(), 0.0)
    dt = cfl_dt(s, g, p, 0.4)
    new = step(s, dt, g, p)
    flux = diffusive_flux(u, g, p) - chemotactic_flux(u, v, g, p)
    expected = u + dt * (div_cells(flux, g) + growth_reg(u, p))
    assert np.array_equal(new.u, expected)


# ---------------------------------------------------------------------------
# differential test of run()'s one-pass step against the plain explicit step


def _phi(p, ov):
    return np.ones_like if ov.unit_phi else (lambda w: diffusivity_reg(w, p))


def _reference_dt(u, v, g, p, ov, cfl):
    """cfl / max(diffusive, drift, reaction rate), each recomputed from scratch."""
    phi = _phi(p, ov)
    V, T = g.cell_volume, g.trans
    umax = float(u.max())
    rate_diff = float(phi(u).max()) * float(np.max((T[:-1] + T[1:]) / V))
    dvf = grad_faces(v, g)
    geom = T[:-1] * g.h / V * np.maximum(-dvf[:-1], 0.0) + T[1:] * g.h / V * np.maximum(
        dvf[1:], 0.0
    )
    # a zero psi or f has the exact slope 0
    if ov.zero_psi:
        rate_adv = 0.0
    else:
        rate_adv = float((p.psi_c * p.beta * u ** (p.beta - 1.0) * geom).max())
    if ov.zero_f:
        rate_react = 0.0
    else:
        rate_react = p.b * p.kappa * (umax + p.eps) ** (p.kappa - 1.0) if umax > 0.0 else 0.0
    return cfl / (max(rate_diff, rate_adv, rate_react) + 1e-30)


def _reference_step(u, v, dt, g, p, ov):
    """Explicit donor-cell u update and backward-Euler v solve, unfolded."""
    phi = _phi(p, ov)
    psi = np.zeros_like if ov.zero_psi else (lambda w: sensitivity(w, p))
    f = np.zeros_like if ov.zero_f else (lambda w: growth_reg(w, p))
    du = grad_faces(u, g)[1:-1]
    dv = grad_faces(v, g)[1:-1]
    flux = np.zeros(g.cells + 1)
    flux[1:-1] = phi(0.5 * (u[1:] + u[:-1])) * du - psi(np.where(dv > 0.0, u[:-1], u[1:])) * dv
    u_new = u + dt * (div_cells(flux, g) + f(u))
    V, T = g.cell_volume, g.trans
    upper = -dt * T[1:] / V
    lower = -dt * T[:-1] / V
    diag = 1.0 + dt - upper - lower
    v_new = dgtsv(lower[1:], diag, upper[:-1], v + dt * u_new)[3]
    return u_new, v_new


def _one_or(lo, hi):
    return st.one_of(st.just(1.0), _unit(lo, hi))


# alpha, beta, psi_c and b each at 1, where the kernel folds an identity, and
# away from 1. A small eps puts the hot cell of lean_cases far out, where the
# reaction rate, and so the max u carried between steps, sets dt.
lean_params_st = st.builds(
    ksfv.ModelParams,
    alpha=_one_or(1.0, 3.0),
    beta=_one_or(1.0, 3.0),
    kappa=_unit(2.0, 5.0),
    a=_unit(0.0, 2.0),
    b=_one_or(0.1, 2.0),
    eps=st.one_of(st.just(0.0), _unit(1e-3, 0.02), _unit(0.02, 0.5)),
    psi_c=_one_or(0.2, 2.0),
)

LEAN_OVERRIDES = {
    "model": ksfv.Overrides(),
    "unit_phi": ksfv.Overrides(unit_phi=True),
    "zero_psi": ksfv.Overrides(zero_psi=True),
    "zero_f": ksfv.Overrides(zero_f=True),
}


@st.composite
def lean_cases(draw):
    """A domain, parameters and a random nonnegative state; with eps > 0, a
    cell lies above 1/(2 eps), where the growth cutoff acts."""
    dom = draw(domains())
    p = draw(lean_params_st)
    cells = dom.cells
    u = np.array(draw(st.lists(_unit(0.0, 3.0), min_size=cells, max_size=cells)))
    # max u >= 0.5 keeps every rate of order one, so the march takes a few steps
    u[draw(st.integers(0, cells - 1))] = draw(_unit(0.5, 3.0))
    if p.eps > 0.0:
        u[draw(st.integers(0, cells - 1))] = draw(_unit(1.0 + 1e-9, 2.4)) / (2.0 * p.eps)
    v = np.array(draw(st.lists(_unit(0.0, 3.0), min_size=cells, max_size=cells)))
    return dom, p, u, v


@pytest.mark.parametrize("ov_name", sorted(LEAN_OVERRIDES))
@settings(PROPERTY, max_examples=15)
@given(case=lean_cases())
def test_run_steps_match_reference_loop_bitwise(ov_name, case):
    dom, p, u, v = case
    ov = LEAN_OVERRIDES[ov_name]
    g = ksfv.make_grid(dom)
    dt0 = _reference_dt(u, v, g, p, ov, 0.4)
    # dt_max = t_end leaves dt to the CFL rates at every step
    cfg = RunConfig(dom, p, u, v, t_end=4 * dt0, dt_max=4 * dt0, overrides=ov)
    res = run(cfg)

    # the same march, with every rate and update recomputed from scratch
    t, t_goal, rows = 0.0, cfg.t_end * (1.0 - 1e-15), []
    while t < t_goal:
        dt = min(_reference_dt(u, v, g, p, ov, cfg.cfl), cfg.t_end - t)
        u_new, v_new = _reference_step(u, v, dt, g, p, ov)
        if not (np.all(np.isfinite(u_new)) and u_new.min() >= 0.0 and v_new.min() >= 0.0):
            break
        u, v, t = u_new, v_new, t + dt
        rows.append((t, dt, float(u.max()), float(u.min())))

    assert res.steps == len(rows) >= 1
    assert [(r.t, r.dt, r.max_u, r.min_u) for r in res.rows[1 : 1 + len(rows)]] == rows
    assert np.array_equal(res.final_state.u, u)
    assert np.array_equal(res.final_state.v, v)


# ---------------------------------------------------------------------------
# exact rate pruning: the pruned dt_bound is bitwise the unpruned one

PRUNE_OVERRIDES = {
    "model": ksfv.Overrides(),
    "unit_phi": ksfv.Overrides(unit_phi=True),
    "zero_psi": ksfv.Overrides(zero_psi=True),
    "zero_f": ksfv.Overrides(zero_f=True),
}


@st.composite
def prune_cases(draw):
    """A domain, parameters over alpha in {1, 2, 5} and beta in {1, 1.5, 2, 3},
    a random nonnegative state or one where both rate bounds are tight, and
    an override."""
    dom = draw(domains())
    p = ksfv.ModelParams(
        alpha=draw(st.sampled_from([1.0, 2.0, 5.0])),
        beta=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        kappa=draw(_unit(2.0, 5.0)),
        a=draw(_unit(0.0, 2.0)),
        b=draw(_one_or(0.1, 2.0)),
        eps=draw(st.one_of(st.just(0.0), _unit(1e-3, 0.5))),
        psi_c=draw(_one_or(0.2, 2.0)),
    )
    cells = dom.cells
    if draw(st.booleans()):
        u = np.array(draw(st.lists(_unit(0.0, 3.0), min_size=cells, max_size=cells)))
        v = np.array(draw(st.lists(_unit(0.0, 3.0), min_size=cells, max_size=cells)))
    else:
        # both bounds tight: u at its max in every cell, and v zigzagging,
        # so that every cell with v at its min donates across both faces
        u = np.full(cells, draw(_unit(0.1, 3.0)))
        v = draw(_unit(0.1, 3.0)) * (np.arange(cells) % 2)
    return dom, p, u, v, draw(st.sampled_from(sorted(PRUNE_OVERRIDES)))


def _kernel_dt(kern, u, v, lead_drift, cfl=0.4):
    """The one-run kernel's dt_bound at (u, v), with the drift rate first or not."""
    (m,) = kern.models
    m.lead_drift = lead_drift
    m.umax, m.v_range, m.cfl = float(u.max()), float(v.max()) - float(v.min()), cfl
    kern.load(np.stack((u, v)))
    return kern.dt_bound()[0]


def _bisect(pred, lo, hi):
    """Adjacent floats lo < hi with pred(lo) False and pred(hi) True, given those at the ends."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        if pred(mid):
            hi = mid
        else:
            lo = mid


@settings(PROPERTY, max_examples=40)
@given(case=prune_cases())
def test_pruned_dt_bound_is_the_unpruned_max_bitwise(case):
    from ksfv.solver import _Kernel, _Model

    dom, p, u, v, ov_name = case
    ov = PRUNE_OVERRIDES[ov_name]
    g = ksfv.make_grid(dom)
    m = _Model(p, ov)
    kern = _Kernel(g, [m])
    umax = float(u.max())

    def expected(vv):
        return _reference_dt(u, vv, g, p, ov, 0.4)

    # whichever rate goes first, on the drawn state and on v scaled far up
    # and down, so that each rate limits somewhere
    for scale in (1.0, 1e-6, 1e6):
        for lead in (False, True):
            assert _kernel_dt(kern, u, scale * v, lead) == expected(scale * v)

    # the drift bound exactly at its threshold: the largest scale of v at
    # which the drift rate is skipped, and the next float, where it is not
    react = m.react_c * (umax + p.eps) ** m.react_exp if umax > 0.0 else 0.0
    (rate_diff,) = kern._rate_diff(u)
    best = max(rate_diff, react)
    spread = float(v.max()) - float(v.min())

    def bound_drift(lam):
        m.umax, m.v_range = umax, lam * spread
        return kern._bound_drift(m)

    if spread > 0.0 and bound_drift(1e12) > best > bound_drift(0.0):
        lo, hi = _bisect(lambda lam: bound_drift(lam) > best, 0.0, 1e12)
        for lam in (lo, hi):
            assert _kernel_dt(kern, u, lam * v, False) == expected(lam * v)

    # the diffusion bound exactly at its threshold, with the drift rate first
    m.umax = umax
    bound = kern._bound_diff(m)

    def skips(lam):
        side = kern.load(np.stack((u, lam * v)))
        (rate_drift,) = kern._rate_drift(side.u)
        return bound <= max(rate_drift, react)

    if not skips(0.0) and skips(1e12):
        lo, hi = _bisect(skips, 0.0, 1e12)
        for lam in (lo, hi):
            assert _kernel_dt(kern, u, lam * v, True) == expected(lam * v)


@st.composite
def below_s0_configs(draw):
    """A 10-step config whose density dips below s0 = 1, and a step count.

    The density is either a gauss bump on a vacuum cell, where G is read at
    s_min, or a cosine below s0 that strong damping (a = 0, b >= 5) drives
    down, so that the rows' walk below s0 goes on as the run does.
    """
    dom = draw(domains())
    p = draw(params_st)
    g = ksfv.make_grid(dom)
    if draw(st.booleans()):
        amp, width, center = draw(_unit(0.5, 5.0)), draw(_unit(0.05, 0.3)), draw(_unit(0.0, 1.0))
        u0 = build_field(f"gauss:base=0.0,amp={amp!r},width={width!r},center={center!r}", g)
        u0[draw(st.integers(0, dom.cells - 1))] = 0.0
    else:
        p = dataclasses.replace(p, a=0.0, b=draw(_unit(5.0, 20.0)))
        base = draw(_unit(0.5, 0.9))
        u0 = build_field(f"cosine:base={base!r},amp={0.1 * base!r},mode=1.0", g)
    v0 = steady_signal(u0, g)
    dt0 = cfl_dt(State(u0, v0, 0.0), g, p, 0.4)
    return RunConfig(dom, p, u0, v0, t_end=10 * dt0, dt_max=dt0), draw(st.integers(1, 8))


def _run_ending(cfg, tables, end, after):
    """run(cfg, tables=tables), made to end as `end` after `after` steps unless Completed."""
    import ksfv.solver as solver_mod

    calls = []
    with pytest.MonkeyPatch.context() as mp:
        if end == Termination.DT_UNDERFLOW:
            real_bound = solver_mod._Kernel.dt_bound

            def dt_bound(self):
                calls.append(1)
                bounds = real_bound(self)
                return bounds if len(calls) <= after else [0.0] * len(bounds)

            mp.setattr(solver_mod._Kernel, "dt_bound", dt_bound)
        elif end == Termination.NUMERICAL_FAILURE:
            real_advance = solver_mod._Kernel.advance

            def advance(self, dt):
                real_advance(self, dt)
                calls.append(1)
                if len(calls) > after:
                    self.side.u_new[0] = np.nan

            mp.setattr(solver_mod._Kernel, "advance", advance)
        return run(cfg, tables=tables)


@pytest.mark.parametrize("diag_every", [1, 7])
@pytest.mark.parametrize(
    "end", [Termination.COMPLETED, Termination.DT_UNDERFLOW, Termination.NUMERICAL_FAILURE]
)
@settings(RUN_PROPERTY, max_examples=4)
@given(case=below_s0_configs())
def test_run_on_a_table_walked_on_demand_equals_the_eager_table_run(end, diag_every, case):
    cfg, after = case
    cfg = dataclasses.replace(cfg, diag_every=diag_every)
    eager = TableCache()
    key = initial_table_key(cfg)
    ratio_spec, s_max, tol = key[-3:]
    eager._tables[key] = ksfv.build_table(cfg.params, ratio_spec, s_max=s_max, tol=tol)
    assert eager.get(cfg).low == 0 and TableCache().get(cfg).low > 0
    lazy_run = _run_ending(cfg, None, end, after)
    eager_run = _run_ending(cfg, eager, end, after)
    assert lazy_run.termination.tag == end
    assert result_bytes(lazy_run) == result_bytes(eager_run)


# ---------------------------------------------------------------------------
# lockstep runs: each run of a batch is bitwise its solo run

ENDINGS = ("Completed", "BlowUp", "DtUnderflow", "NumericalFailure")


@st.composite
def lockstep_batches(draw):
    """A domain, diag_every in {1, 7} and 1-6 runs on it with mixed alpha,
    beta, kappa and mass, each with the ending it is made to reach."""
    dom = draw(domains())
    diag_every = draw(st.sampled_from([1, 7]))
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        p = ksfv.ModelParams(
            alpha=draw(st.sampled_from([1.0, 2.0])),
            beta=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
            kappa=draw(_unit(2.0, 4.0)),
            a=0.5,
            eps=draw(st.sampled_from([0.0, 0.01])),
        )
        end, after = draw(st.sampled_from(ENDINGS)), draw(st.integers(1, 8))
        cfg = ending_config(dom, p, draw(_unit(0.5, 2.0)), end, diag_every, after)
        runs.append((cfg, end, after))
    return runs, draw(st.integers(1, len(runs)))


@settings(RUN_PROPERTY, max_examples=20)
@given(case=lockstep_batches())
def test_lockstep_runs_are_their_solo_runs_bitwise(case):
    runs, first = case
    entries, fail_after = [], {}
    tables = TableCache()  # runs with equal initial tables share one walked table
    for k, (cfg, end, after) in enumerate(runs):
        if end == "NumericalFailure":
            cfg = dataclasses.replace(cfg, blowup_cap=3e8 + k)  # names the run to poison
            fail_after[cfg.blowup_cap] = after
        probes = [0.0, 0.3 * cfg.t_end, 0.65 * cfg.t_end] if end == "Completed" else None
        entries.append((k, cfg, probes, tables))
    with poisoned_advance(fail_after):
        together = march(entries, first)
        for k, cfg, probes, _ in entries:
            alone = run(cfg, probe_times=probes)
            assert alone.termination.tag.value == runs[k][1]
            assert result_bytes(together[k]) == result_bytes(alone)


@settings(PROPERTY, max_examples=50)
@given(data=st.data())
def test_lockstep_dt_bound_is_each_runs_unpruned_max_bitwise(data):
    from ksfv.solver import _Kernel, _Model

    # 2-4 runs of prune_cases on the first run's domain
    dom, *_ = first = data.draw(prune_cases())
    g = ksfv.make_grid(dom)
    cases = [first]
    for _ in range(data.draw(st.integers(1, 3))):
        _, p, _, _, ov_name = data.draw(prune_cases())
        u, v = (
            np.array(data.draw(st.lists(_unit(0.0, 3.0), min_size=dom.cells, max_size=dom.cells)))
            for _ in range(2)
        )
        cases.append((dom, p, u, v, ov_name))
    models = [_Model(p, PRUNE_OVERRIDES[ov_name]) for _, p, _, _, ov_name in cases]
    order = {}
    for m in models:  # in blocks, as a march tiles them
        order.setdefault((m.phi_key, m.psi_key), len(order))
    ranked = sorted(range(len(models)), key=lambda k: order[models[k].phi_key, models[k].psi_key])
    kern = _Kernel(g, [models[k] for k in ranked])
    drawn = [data.draw(st.sampled_from([1e-6, 1.0, 1e6])) for _ in cases]
    leads = [data.draw(st.booleans()) for _ in cases]
    # v scaled as drawn, all far down and all far up, so that each rate
    # limits somewhere; every run's drift rate first, none, or as drawn
    for scales in (drawn, [1e-6] * len(cases), [1e6] * len(cases)):
        for lead in (leads, [False] * len(cases), [True] * len(cases)):
            states = []
            for k in ranked:
                _, p, u, v, _ = cases[k]
                vv = scales[k] * v
                m = models[k]
                m.lead_drift = lead[k]
                m.umax, m.v_range, m.cfl = float(u.max()), float(vv.max()) - float(vv.min()), 0.4
                states.append(np.stack((u, vv)))
            s = np.concatenate(states, axis=1)
            kern.load(s)
            for k, dt in zip(ranked, kern.dt_bound()):
                _, p, u, v, ov_name = cases[k]
                ov = PRUNE_OVERRIDES[ov_name]
                assert dt == _reference_dt(u, scales[k] * v, g, p, ov, 0.4)
