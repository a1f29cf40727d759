import dataclasses
import glob
import hashlib
import inspect
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy

import ksfv
from ksfv.cli import main
from ksfv.config import (
    DEFAULTS,
    SCHEMA,
    build_field,
    known_keys,
    load_config,
    parse_config_text,
    run_config_from,
    with_defaults,
)
from ksfv.errors import ConfigError, PreconditionError, UsageError
from ksfv.output import (
    _CLASS_COLORS,
    CSV_HEADER,
    config_from_manifest,
    csv_text,
    fmt,
    heatmap_svg,
    line_chart_svg,
    manifest_text,
    rows_to_csv,
)
from ksfv.solver import DiagnosticsRow, RunConfig, RunResult, Termination, TerminationInfo, run
from ksfv.sweep import (
    BLOWUP,
    ERROR,
    GLOBAL,
    INCONCLUSIVE,
    SweepRow,
    SweepSpec,
    classify_run,
    run_sweep,
    sweep_csv,
    sweep_heatmap,
)

QUICK_CONFIG = """
domain.kind = interval
domain.R = 0.5
domain.n = 1
domain.cells = 32
params.alpha = 1.0
params.beta = 1.0
params.kappa = 2.0
params.a = 1.0
params.b = 1.0
params.eps = 0.02
init.u0 = cosine:base=1,amp=0.2,mode=1
init.v0 = steady
run.t_end = 0.02
run.diag_every = 4
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_and_defaults():
    m = parse_config_text("domain.cells = 48\nparams.alpha = 2.0  # comment\n")
    assert m == {"domain.cells": "48", "params.alpha": "2.0"}
    merged = with_defaults(m)
    assert merged["domain.kind"] == "interval"
    assert merged["params.alpha"] == "2.0"


def test_parse_rejects_unknown_and_duplicates():
    with pytest.raises(ConfigError):
        parse_config_text("domain.sides = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("params.alpha = 1\nparams.alpha = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("just some text\n")


def test_schema_documents_every_key():
    for key in sorted(known_keys()):
        base = key if not key.startswith("axis.") else "axis.<name>"
        assert base in SCHEMA, f"{base} missing from schema"
    for key in DEFAULTS:
        assert key in SCHEMA


def _field_defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)}


def test_file_defaults_are_the_library_defaults():
    # a key left out of a configuration file sets what the library takes
    # when the argument is left out
    for name, default in _field_defaults(ksfv.ModelParams).items():
        assert float(DEFAULTS[f"params.{name}"]) == default, name
    domain = _field_defaults(ksfv.DomainSpec)
    assert int(DEFAULTS["domain.n"]) == domain["n"]
    assert int(DEFAULTS["domain.cells"]) == domain["cells"]
    run_cfg = _field_defaults(RunConfig)
    for name, kind in (("cfl", float), ("dt_min", float), ("blowup_cap", float), ("diag_every", int)):
        assert kind(DEFAULTS[f"run.{name}"]) == run_cfg[name], name
    assert "run.dt_max" not in DEFAULTS and run_cfg["dt_max"] is None  # t_end/64
    classify = inspect.signature(classify_run).parameters
    spec = _field_defaults(SweepSpec)
    for name in ("global_factor", "blowup_factor"):
        assert float(DEFAULTS[f"classify.{name}"]) == classify[name].default == spec[name], name
    assert int(DEFAULTS["sweep.max_parallel"]) == spec["max_parallel"]


def test_every_run_takes_the_same_table_tolerance():
    cfg = RunConfig(ksfv.DomainSpec(ksfv.INTERVAL, 0.5), ksfv.ModelParams(), np.ones(64),
                    np.ones(64), t_end=1.0)
    assert cfg.table_tol == RunConfig.table_tol == 1e-10
    assert "table_tol" not in _field_defaults(RunConfig)


def test_schema_doc_matches_schema():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "docs", "config_schema.md"), encoding="utf-8") as fh:
        doc = fh.read()
    fenced = doc.split("```\n")[1]
    assert fenced == SCHEMA


def test_field_specs():
    g = ksfv.make_grid(ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 32))
    c = build_field("constant:2.5", g)
    assert np.all(c == 2.5)
    cos = build_field("cosine:base=1,amp=0.5,mode=2", g)
    assert cos == pytest.approx(1 + 0.5 * np.cos(2 * np.pi * g.centers / 1.0))
    gauss = build_field("gauss:base=0.1,amp=1,width=0.2,center=0.5", g)
    assert float(np.max(gauss)) <= 1.1
    with pytest.raises(UsageError):
        build_field("mystery:1", g)


def test_run_config_from_mapping():
    cfg, grid, merged = run_config_from(parse_config_text(QUICK_CONFIG))
    assert grid.cells == 32
    assert cfg.params.a == 1.0
    assert cfg.t_end == 0.02
    assert float(np.min(cfg.v0)) >= 0.0


def test_run_config_mass_rescale():
    text = QUICK_CONFIG + "init.mass = 7.5\n"
    cfg, grid, _ = run_config_from(parse_config_text(text))
    assert ksfv.integrate(cfg.u0, grid) == pytest.approx(7.5, rel=1e-12)


# ---------------------------------------------------------------------------
# CSV and SVG


def test_csv_header_and_golden_row():
    rows = [DiagnosticsRow(0.0, 0.0, 1.5, 0.25, 2.0, 0.5, -0.75, 0.0, 0.0)]
    text = rows_to_csv(rows)
    assert text == (
        "t,dt,mass_u,mass_v,max_u,min_u,F,dissipation_rhs,identity_residual\n"
        "0.0,0.0,1.5,0.25,2.0,0.5,-0.75,0.0,0.0\n"
    )


def test_csv_shortest_roundtrip_floats():
    assert fmt(0.1) == "0.1"
    assert fmt(1 / 3) == "0.3333333333333333"
    assert float(fmt(np.float64(2.0) / 3.0)) == 2.0 / 3.0


def test_flat_polyline_svg():
    svg = line_chart_svg([0.0, 1.0, 2.0], [5.0, 5.0, 5.0], "F(t)", "F")
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert 'viewBox="0 0 800 600"' in svg


def test_heatmap_svg_nine_cells():
    labels = {(i, j): GLOBAL if (i + j) % 2 else BLOWUP for i in range(3) for j in range(3)}
    svg = heatmap_svg([1, 2, 3], [4, 5, 6], labels, "sweep", "beta", "kappa")
    assert svg.count("<rect") >= 10  # 9 cells + background + legend


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_chart_and_sweep_csv_bytes_are_golden():
    # the writers' bytes on fixed inputs; a refactor of the writers keeps them
    xs, ys = [0.0, 0.5, 1.25, 2.0], [3.0, 1e-3, 40.0, 7.5]
    log_chart = line_chart_svg(xs, ys, "max_u(t)", "max_u", ylog=True)
    assert _sha(log_chart) == "c28eb9ec875296a46c17cf507a9cc18e070c15c9a327227342ae5475d531573d"
    flat_chart = line_chart_svg([0.0, 1.0, 2.0], [5.0, 5.0, 5.0], "F(t)", "F")
    assert _sha(flat_chart) == "a2e35cb9a9c60638dbaff1b28f005fa38cd732e6ada4bb4af2e5ec304003a73b"
    labels = {(0, 0): GLOBAL, (1, 0): BLOWUP, (0, 1): ERROR}
    heatmap = heatmap_svg([1.0, 2.5], [3.0, 3.5], labels, "sweep classification", "beta", "kappa")
    assert _sha(heatmap) == "d999c118916441c9c487e18f4705c539f65d37d4a0e8cb4b5ab31ace6a210b1c"
    spec = SweepSpec(axes=[("beta", [1.0, 2.5]), ("kappa", [3.0])], base={})
    nan = float("nan")
    rows = [
        SweepRow(0, {"beta": 1.0, "kappa": 3.0}, GLOBAL, "Completed", 0.5, 1.25, 1 + 2**-52, -0.1),
        SweepRow(1, {"beta": 2.5, "kappa": 3.0}, ERROR, "ConfigError", nan, nan, nan, nan),
    ]
    assert _sha(sweep_csv(spec, rows)) == "578cdb31b56d3716a847fc7c0ebe0a8ce430109314e60efcae5c85e6128fa60f"


# ---------------------------------------------------------------------------
# classification


def _fake_result(tag, rows):
    grid = ksfv.make_grid(ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 8))
    return RunResult(
        TerminationInfo(tag, rows[-1].t), rows, None, grid, len(rows),
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    )


def _rows(ts, maxes):
    return [
        DiagnosticsRow(t, 0.01, 1.0, 1.0, m, 0.0, 0.0, 0.0, 0.0)
        for t, m in zip(ts, maxes)
    ]


def test_classify_constant_equilibrium_global():
    rows = _rows(np.linspace(0, 1, 11), np.ones(11))
    assert classify_run(_fake_result(Termination.COMPLETED, rows)) == GLOBAL


def test_classify_cap_crossing_blowup():
    rows = _rows([0.0, 0.1], [1.0, 1e9])
    assert classify_run(_fake_result(Termination.BLOWUP, rows)) == BLOWUP


def test_classify_underflow_with_growth_blowup():
    rows = _rows([0.0, 0.1], [1.0, 5e3])
    assert classify_run(_fake_result(Termination.DT_UNDERFLOW, rows)) == BLOWUP


def test_classify_completed_but_rising_inconclusive():
    ts = np.linspace(0, 1, 11)
    rows = _rows(ts, 1.0 + 99.0 * ts)  # grown 100x and still rising
    assert classify_run(_fake_result(Termination.COMPLETED, rows)) == INCONCLUSIVE


def test_classify_underflow_without_growth_inconclusive():
    rows = _rows([0.0, 0.1], [1.0, 5.0])
    assert classify_run(_fake_result(Termination.DT_UNDERFLOW, rows)) == INCONCLUSIVE


# ---------------------------------------------------------------------------
# sweeps


SWEEP_BASE = """
domain.kind = interval
domain.R = 0.5
domain.n = 1
domain.cells = 24
params.kappa = 2.0
params.a = 1.0
init.u0 = cosine:base=1,amp=0.2,mode=1
run.t_end = 0.01
"""


def _sweep_spec(max_parallel):
    base = parse_config_text(SWEEP_BASE)
    return SweepSpec(
        axes=[("alpha", [1.0, 1.5]), ("beta", [1.0, 2.0])],
        base=base,
        max_parallel=max_parallel,
    )


def test_sweep_runs_and_csv():
    spec = _sweep_spec(1)
    rows = run_sweep(spec)
    assert len(rows) == 4
    text = sweep_csv(spec, rows)
    lines = text.strip().split("\n")
    assert lines[0] == "run_id,alpha,beta,classification,termination,t_final,max_u_initial,max_u_final,F_final"
    assert len(lines) == 5


def test_sweep_parallel_independence():
    spec1, spec3 = _sweep_spec(1), _sweep_spec(3)
    csv1 = sweep_csv(spec1, run_sweep(spec1))
    csv3 = sweep_csv(spec3, run_sweep(spec3))
    assert csv1 == csv3


def _beta_kappa_spec(max_parallel, kappas=(2.0, 3.0, 4.0)):
    return SweepSpec(
        axes=[("beta", [1.0, 2.0, 3.0]), ("kappa", list(kappas))],
        base=parse_config_text(SWEEP_BASE),
        max_parallel=max_parallel,
    )


def _kappa_spec(max_parallel):
    return SweepSpec(
        axes=[("kappa", [2.0, 3.0, 4.0])],
        base=parse_config_text(SWEEP_BASE),
        max_parallel=max_parallel,
    )


def _pretend_cpus(monkeypatch, n):
    """Let run_sweep use n worker processes whatever the machine's CPU count."""
    import ksfv.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "_usable_cpus", lambda: n)


def _count_table_builds(monkeypatch, tmp_path):
    """Log every build_table call the solver's table cache makes, in any process.

    Forked sweep workers inherit the patch and append to the same file. The
    returned function reads the log as (pid, beta) pairs.
    """
    import ksfv.solver as solver_mod

    log = tmp_path / "builds.log"
    log.touch()
    real = solver_mod.build_table

    def counting(p, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {p.beta!r}\n")
        return real(p, *args, **kwargs)

    def builds():
        lines = map(str.split, log.read_text().splitlines())
        return [(int(pid), float(beta)) for pid, beta in lines]

    monkeypatch.setattr(solver_mod, "build_table", counting)
    return builds


def test_sweep_builds_one_table_per_ratio(monkeypatch, tmp_path):
    # the table depends on beta but not on kappa: 3 builds for 9 points
    _pretend_cpus(monkeypatch, 2)
    builds = _count_table_builds(monkeypatch, tmp_path)
    rows = run_sweep(_beta_kappa_spec(2))
    assert multiprocessing.active_children() == []
    assert [r.classification for r in rows].count(ERROR) == 0
    assert len(rows) == 9
    assert sorted(beta for _, beta in builds()) == [1.0, 2.0, 3.0]
    assert os.getpid() not in {pid for pid, _ in builds()}  # built in the workers


def test_sweep_outputs_independent_of_parallelism_and_sharing(monkeypatch):
    _pretend_cpus(monkeypatch, 3)
    spec1, spec2, spec3 = _beta_kappa_spec(1), _beta_kappa_spec(2), _beta_kappa_spec(3)
    rows1, rows2, rows3 = run_sweep(spec1), run_sweep(spec2), run_sweep(spec3)
    assert sweep_csv(spec1, rows1) == sweep_csv(spec2, rows2) == sweep_csv(spec3, rows3)
    for r1, r2, r3 in zip(rows1, rows2, rows3):
        diag = rows_to_csv(r1.result.rows)
        assert diag == rows_to_csv(r2.result.rows) == rows_to_csv(r3.result.rows)
        # a point run on its own, with a private table, writes the same file
        mapping = dict(spec1.base)
        mapping.update({f"params.{k}": fmt(v) for k, v in r1.point.items()})
        assert diag == rows_to_csv(run(run_config_from(mapping)[0]).rows)


def _mass_beta_spec(max_parallel):
    """docs/sample_sweep.cfg over mass x beta, from a constant density, to t = 0.05.

    Masses 0.05, 0.1 and 0.2 keep the density below 2 s0, so for each beta they
    have one initial_table_key; mass 40 has its own.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    mapping = load_config(os.path.join(root, "docs", "sample_sweep.cfg"))
    dropped = ("init.u0", "init.mass", "run.t_end", "axis.", "sweep.")
    base = {k: v for k, v in mapping.items() if not k.startswith(dropped)}
    base.update({"init.u0": "constant:0.1", "run.t_end": "0.05"})
    return SweepSpec(
        axes=[("mass", [0.05, 0.1, 0.2, 40.0]), ("beta", [1.0, 2.0])],
        base=base,
        max_parallel=max_parallel,
    )


def test_sweep_groups_masses_by_table_key(monkeypatch, tmp_path):
    # the low masses share a table per beta: 4 builds for 8 points, not one per (mass, beta)
    _pretend_cpus(monkeypatch, 2)
    builds = _count_table_builds(monkeypatch, tmp_path)
    spec2 = _mass_beta_spec(2)
    rows2 = run_sweep(spec2)
    assert multiprocessing.active_children() == []
    assert sorted(beta for _, beta in builds()) == [1.0, 1.0, 2.0, 2.0]
    assert [r.classification for r in rows2].count(ERROR) == 0
    spec1 = _mass_beta_spec(1)
    assert sweep_csv(spec1, run_sweep(spec1)) == sweep_csv(spec2, rows2)


def test_sweep_points_without_a_config_start_no_worker(monkeypatch):
    # kappa = 1.5 is out of range at every point: all Error rows, made without forking
    import ksfv.sweep as sweep_mod

    def no_fork():
        raise AssertionError("a sweep with no valid point forked a worker")

    _pretend_cpus(monkeypatch, 2)
    monkeypatch.setattr(sweep_mod, "_fork_context", no_fork)
    spec = SweepSpec(
        axes=[("kappa", [1.5]), ("beta", [1.0, 2.0])],
        base=parse_config_text(SWEEP_BASE),
        max_parallel=2,
    )
    rows = run_sweep(spec)
    assert [(r.run_id, r.classification, r.termination) for r in rows] == [
        (0, ERROR, "ConfigError"), (1, ERROR, "ConfigError"),
    ]


def test_kappa_only_sweep_runs_as_one_task(monkeypatch, tmp_path):
    # one table group: one task, run in-process with one table build, whatever max_parallel
    _pretend_cpus(monkeypatch, 2)
    spec1 = _kappa_spec(1)
    rows1 = run_sweep(spec1)
    builds = _count_table_builds(monkeypatch, tmp_path)
    spec2 = _kappa_spec(2)
    rows2 = run_sweep(spec2)
    assert multiprocessing.active_children() == []
    assert builds() == [(os.getpid(), 1.0)]
    assert sweep_csv(spec1, rows1) == sweep_csv(spec2, rows2)
    for r1, r2 in zip(rows1, rows2):
        assert rows_to_csv(r1.result.rows) == rows_to_csv(r2.result.rows)


@pytest.mark.parametrize("host", ["no-fork", "darwin", "python3.10"])
def test_sweep_runs_in_process_where_the_pool_should_not_fork(monkeypatch, tmp_path, host):
    import sys
    import types

    import ksfv.sweep as sweep_mod

    _pretend_cpus(monkeypatch, 2)
    spec = _beta_kappa_spec(2, kappas=(2.0,))
    if host == "no-fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:
        fake = types.SimpleNamespace(platform=sys.platform, version_info=sys.version_info)
        if host == "darwin":
            fake.platform = "darwin"
        else:
            fake.version_info = (3, 10, 14)
        monkeypatch.setattr(sweep_mod, "sys", fake)
    builds = _count_table_builds(monkeypatch, tmp_path)
    rows = run_sweep(spec)
    assert multiprocessing.active_children() == []
    assert builds() == [(os.getpid(), beta) for beta in (1.0, 2.0, 3.0)]
    assert [r.classification for r in rows].count(ERROR) == 0
    monkeypatch.undo()
    assert sweep_csv(spec, rows) == sweep_csv(spec, run_sweep(_beta_kappa_spec(1, kappas=(2.0,))))


def test_sweep_results_from_workers_keep_frozen_grids(monkeypatch):
    from ksfv.config import domain_from

    _pretend_cpus(monkeypatch, 2)
    spec = _beta_kappa_spec(2, kappas=(2.0,))
    rows = run_sweep(spec)
    ref = ksfv.make_grid(domain_from(with_defaults(spec.base)))
    for row in rows:
        grid = row.result.grid
        assert grid.trans.flags.writeable is False
        assert (grid.spec, grid.h) == (ref.spec, ref.h)
        for name in ("centers", "faces", "face_area", "cell_volume", "trans", "face_weight"):
            arr = getattr(grid, name)
            assert arr.flags.writeable is False
            assert np.array_equal(arr, getattr(ref, name))


def test_foreign_exception_in_worker_propagates(monkeypatch):
    # only ksfv errors become Error rows; anything else aborts the sweep
    import ksfv.solver as solver_mod

    _pretend_cpus(monkeypatch, 2)
    real_f = solver_mod.effective_f

    def failing_f(p, ov):
        # the growth term of the beta = 2 points raises in their first step
        if p.beta != 2.0:
            return real_f(p, ov)

        def f(u, umax=None, out=None):
            raise RuntimeError(f"failed in process {os.getpid()}")

        return f

    monkeypatch.setattr(solver_mod, "effective_f", failing_f)
    with pytest.raises(RuntimeError, match="failed in process") as info:
        run_sweep(_beta_kappa_spec(2))
    assert str(os.getpid()) not in str(info.value)
    assert multiprocessing.active_children() == []


def test_continuous_dependence_builds_one_table(monkeypatch, tmp_path):
    from conftest import damped_reference_config
    from ksfv.solver import continuous_dependence

    builds = _count_table_builds(monkeypatch, tmp_path)
    rec = continuous_dependence(damped_reference_config(), 1e-6, 0.01, n_probe=5)
    assert rec.both_completed
    assert len(builds()) == 1


def test_table_caches_do_not_outlive_their_call(monkeypatch, tmp_path):
    import gc

    import ksfv.solver as solver_mod
    from conftest import damped_reference_config

    # every cache's creation and finalization, logged by process and id
    _pretend_cpus(monkeypatch, 2)
    log = tmp_path / "caches.log"
    log.touch()
    real_init = solver_mod.TableCache.__init__

    def note(event, cache):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {event} {id(cache)}\n")

    def tracking_init(self):
        real_init(self)
        note("new", self)

    def events(kind):
        lines = map(str.split, log.read_text().splitlines())
        return sorted((pid, key) for pid, event, key in lines if event == kind)

    monkeypatch.setattr(solver_mod.TableCache, "__init__", tracking_init)
    monkeypatch.setattr(
        solver_mod.TableCache, "__del__", lambda self: note("del", self), raising=False
    )
    rows = run_sweep(_beta_kappa_spec(2, kappas=(2.0,)))
    assert multiprocessing.active_children() == []
    swept = events("new")
    assert len(swept) == 3  # one per sweep task (3 table groups), all in the workers
    assert str(os.getpid()) not in {pid for pid, _ in swept}
    rec = solver_mod.continuous_dependence(damped_reference_config(), 1e-6, 0.01, n_probe=5)
    res = run(run_config_from(parse_config_text(QUICK_CONFIG))[0])
    gc.collect()
    assert len(events("new")) == 5  # and one each for the scan and the plain run
    assert events("del") == events("new")
    assert rows and rec.both_completed and res.steps > 0


def _kappa_error_spec(max_parallel, kappas=(2.0, 1.5)):
    return SweepSpec(
        axes=[("kappa", list(kappas)), ("beta", [1.0])],
        base=parse_config_text(SWEEP_BASE),
        max_parallel=max_parallel,
    )


def test_failing_sweep_point_becomes_error_row():
    # kappa = 1.5 is outside the model's range: that point alone fails
    spec1, spec2 = _kappa_error_spec(1), _kappa_error_spec(2)
    rows1, rows2 = run_sweep(spec1), run_sweep(spec2)
    csv1 = sweep_csv(spec1, rows1)
    assert csv1 == sweep_csv(spec2, rows2)
    ok, failed = rows1
    assert (failed.run_id, failed.classification, failed.termination) == (1, ERROR, "ConfigError")
    assert "kappa" in failed.error and failed.result is None
    assert all(math.isnan(x) for x in (
        failed.t_final, failed.max_u_initial, failed.max_u_final, failed.F_final,
    ))
    assert csv1.splitlines()[2] == "1,1.5,1.0,Error,ConfigError,nan,nan,nan,nan"
    # point 0 is what it is in a sweep without the failing point
    alone_spec = _kappa_error_spec(1, kappas=(2.0,))
    alone = run_sweep(alone_spec)
    assert csv1.splitlines()[1] == sweep_csv(alone_spec, alone).splitlines()[1]
    assert rows_to_csv(ok.result.rows) == rows_to_csv(alone[0].result.rows)
    svg = sweep_heatmap(spec1, rows1)
    assert svg.count(_CLASS_COLORS[ERROR]) == 2  # the failed cell and its legend entry


def test_cli_sweep_with_failing_point(tmp_path, capsys):
    spec = tmp_path / "s.cfg"
    spec.write_text(SWEEP_BASE.replace("params.kappa = 2.0\n", "") + "axis.kappa = 2.0,1.5\n")
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[2].startswith("1,1.5,Error,ConfigError,")
    assert "run 1 (ConfigError)" in capsys.readouterr().err


def _children(pid):
    pids = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as fh:
                pids.update(map(int, fh.read().split()))
        except FileNotFoundError:
            pass
    return pids


def _state(pid):
    """A process's state letter (Z for a zombie), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


def _start_sample_sweep(tmp_path, stderr=subprocess.DEVNULL):
    """`ksfv sweep` of the sample sweep at 128 cells, --max-parallel 2, and its workers.

    Skips without /proc, fork or 2 usable CPUs. Returns the parent process
    and the set of worker pids once there are two; the caller ends both.
    """
    import ksfv.sweep as sweep_mod

    if not glob.glob("/proc/self/task/*/children"):
        pytest.skip("needs /proc with each task's children")
    if sweep_mod._fork_context() is None or sweep_mod._usable_cpus() < 2:
        pytest.skip("needs a forking pool and 2 usable CPUs")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "docs", "sample_sweep.cfg")) as fh:
        text = fh.read().replace("domain.cells = 32", "domain.cells = 128")
    spec = tmp_path / "s.cfg"
    spec.write_text(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ksfv.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = [sys.executable, "-m", "ksfv", "sweep", "--spec", str(spec), "--max-parallel", "2",
            "--out", str(tmp_path / "o")]
    parent = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    workers = set()
    deadline = time.monotonic() + 60.0
    while len(workers) < 2 and parent.poll() is None and time.monotonic() < deadline:
        time.sleep(0.02)
        workers = _children(parent.pid)
    return parent, workers


def _end(parent, workers):
    """Kill what is left of a sweep started by _start_sample_sweep."""
    if parent.poll() is None:
        parent.kill()
        parent.wait()
    for w in workers:
        if _state(w) not in (None, "Z"):
            os.kill(w, signal.SIGKILL)


def _alive_after(workers, seconds):
    """The workers still running (not gone, not zombies) after waiting up to seconds."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and any(_state(w) not in (None, "Z") for w in workers):
        time.sleep(0.02)
    return {w: _state(w) for w in workers if _state(w) not in (None, "Z")}


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_forked_sweep_workers_end_with_their_parent(tmp_path, sig):
    parent, workers = _start_sample_sweep(tmp_path)
    try:
        assert len(workers) == 2, f"the sweep should run 2 workers, found {workers}"
        parent.send_signal(sig)
        parent.wait(timeout=10)
        assert _alive_after(workers, 2.0) == {}
    finally:
        _end(parent, workers)


def test_interrupted_sweep_ends_at_once_with_its_workers(tmp_path):
    # Ctrl-C: the parent ends its workers rather than wait for their
    # marches, and exits 130 with one line, not a traceback
    parent, workers = _start_sample_sweep(tmp_path, stderr=subprocess.PIPE)
    try:
        assert len(workers) == 2, f"the sweep should run 2 workers, found {workers}"
        parent.send_signal(signal.SIGINT)
        sent = time.monotonic()
        parent.wait(timeout=10)
        assert time.monotonic() - sent < 0.5
        err = parent.stderr.read().decode()
        assert parent.returncode == 130
        assert err == "interrupted\n"
        assert _alive_after(workers, 2.0) == {}
    finally:
        _end(parent, workers)
        parent.stderr.close()


def test_sweep_rejects_bad_axis():
    base = parse_config_text(SWEEP_BASE)
    with pytest.raises(ConfigError):
        SweepSpec(axes=[("gamma", [1.0])], base=base)
    with pytest.raises(ConfigError):
        SweepSpec(axes=[], base=base)


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_manifest_roundtrip(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(QUICK_CONFIG)
    out1 = tmp_path / "out1"
    assert main(["run", "--config", str(cfg_file), "--out", str(out1)]) == 0
    for name in ("diagnostics.csv", "final_state.csv", "max_u.svg", "F.svg", "manifest.txt"):
        assert (out1 / name).exists()
    csv1 = (out1 / "diagnostics.csv").read_bytes()
    assert csv1.decode().splitlines()[0] == CSV_HEADER

    # identical config: bit-identical CSV
    out2 = tmp_path / "out2"
    assert main(["run", "--config", str(cfg_file), "--out", str(out2)]) == 0
    assert csv1 == (out2 / "diagnostics.csv").read_bytes()

    # manifest reproduces the run bit-identically
    out3 = tmp_path / "out3"
    assert main(["run", "--manifest", str(out1 / "manifest.txt"), "--out", str(out3)]) == 0
    assert csv1 == (out3 / "diagnostics.csv").read_bytes()


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda text: text.replace("config.run.t_end =", "config.run.t_ed ="), "'run.t_ed'"),
        (lambda text: text + "config.run.t_end = 0.5\n", "'run.t_end'"),
    ],
    ids=["unknown", "repeated"],
)
def test_cli_manifest_with_a_bad_key_is_a_usage_error(tmp_path, capsys, edit, named):
    # a manifest's config lines are checked as a config file's are, with
    # the manifest's line numbers
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(QUICK_CONFIG)
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 0
    lines = edit((tmp_path / "o" / "manifest.txt").read_text()).splitlines()
    lineno = max(i for i, line in enumerate(lines, start=1) if named.strip("'") in line)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o2")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"usage error: line {lineno}: ") and named in err
    assert "Traceback" not in err


def test_cli_usage_errors(tmp_path):
    assert main(["run", "--out", str(tmp_path)]) == 1  # neither config nor manifest
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("domain.sides = 3\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_cli_check_commands(tmp_path, capsys):
    assert main(["check", "--schema"]) == 0
    assert "domain.kind" in capsys.readouterr().out
    assert main(["check", "--damping", "--n", "2"]) == 0
    cfg = tmp_path / "p.cfg"
    cfg.write_text("params.alpha = 1\nparams.beta = 2\nparams.s0 = 2.0\n")
    assert main(["check", "--growth", "--config", str(cfg), "--n", "2", "--k", "1", "--theta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert ("holds" in out) or ("FAILS" in out)
    assert main(["check", "--eps-condition", "--config", str(cfg), "--n", "4", "--eps-c", "0.5", "--K", "10"]) == 0


def test_cli_sweep(tmp_path):
    spec = tmp_path / "s.cfg"
    spec.write_text(SWEEP_BASE + "axis.alpha = 1.0,1.5\naxis.beta = 1.0,2.0\nsweep.max_parallel = 2\n")
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    assert (out / "sweep.svg").exists()


def test_cli_family(tmp_path):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(
        "domain.kind = ball\ndomain.R = 1.0\ndomain.n = 2\ndomain.cells = 128\n"
        "params.beta = 2.0\nparams.s0 = 2.0\n"
        "family.eta_list = 0.2,0.1,0.05\nfamily.mass = 50\n"
        "family.kappa_prime = 0.25\nfamily.theta = 0.5\n"
    )
    out = tmp_path / "fam_out"
    assert main(["family", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "family.csv").exists()
    assert (out / "family.svg").exists()


def test_cli_convergence(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(QUICK_CONFIG.replace("params.kappa = 2.0", "params.kappa = 4.0"))
    out = tmp_path / "conv"
    code = main([
        "convergence", "--config", str(cfg), "--eps-list", "0.1,0.05",
        "--t-probe", "0.01", "--out", str(out),
    ])
    assert code == 0
    assert (out / "gaps.csv").exists()


def test_cli_convergence_from_one_gap_is_undetermined(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(QUICK_CONFIG.replace("params.kappa = 2.0", "params.kappa = 4.0"))
    for eps_list, gaps in (("0.1,0.05", 1), ("0.1", 0)):
        code = main(["convergence", "--config", str(cfg), "--eps-list", eps_list, "--t-probe", "0.01"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(out) == 2 + gaps and out[-1] == "strictly decreasing: undetermined"


@pytest.mark.parametrize("eps_list, gaps", [("0.01,0.005", 0), ("0.2,0.1,0.05", 1)])
def test_cli_convergence_scan_that_aborts_exits_2(tmp_path, capsys, eps_list, gaps):
    # a = 5000 lifts u past the cap of 1 and the growth floor 10 max(u0) = 12
    # unless eps cuts the growth off below u = 1/eps = 10: the scan aborts on
    # its first eps of at most 0.05, after the gaps of the runs before it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "docs", "sample_run.cfg")) as fh:
        text = fh.read()
    cfg = tmp_path / "abort.cfg"
    cfg.write_text(
        text.replace("params.a = 1.0", "params.a = 5000").replace("params.b = 1.0", "params.b = 1e-6")
        + "run.blowup_cap = 1\n"
    )
    out = tmp_path / "conv"
    code = main([
        "convergence", "--config", str(cfg), "--eps-list", eps_list, "--t-probe", "0.05",
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 2
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: scan aborted: run with eps=")
    assert "BlowUp" in err[0]
    assert "strictly decreasing" not in captured.out
    rows = (out / "gaps.csv").read_text().splitlines()
    assert rows[0] == "eps_hi,eps_lo,gap" and len(rows) == 1 + gaps
    if gaps:
        assert rows[1].startswith("0.2,0.1,")


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    # force a failing run: huge fixed step on a stiff state (non-finite u)
    import ksfv.cli as cli_mod

    def fake_run(cfg, probe_times=None):
        from ksfv.core import State

        grid = ksfv.make_grid(cfg.domain)
        rows = [DiagnosticsRow(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)]
        state = State(np.ones(grid.cells), np.ones(grid.cells), 0.0)
        return RunResult(
            TerminationInfo(Termination.NUMERICAL_FAILURE, 0.0), rows,
            state, grid, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )

    monkeypatch.setattr(cli_mod, "run", fake_run)
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(QUICK_CONFIG)
    code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2


def test_csv_text_writes_strings_as_they_are_and_numbers_through_fmt():
    rows = [("x", 0.1, np.float64(2.0)), ("Error", math.nan, 3)]
    assert csv_text(("a", "b", "c"), rows) == "a,b,c\nx,0.1,2.0\nError,nan,3.0\n"


def test_manifest_text_and_recovery():
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 16)
    p = ksfv.ModelParams()
    from ksfv.solver import RunConfig

    cfg = RunConfig(dom, p, np.ones(16), np.ones(16), t_end=0.005)
    result = run(cfg)
    mapping = with_defaults({"domain.cells": "16", "run.t_end": "0.005"})
    text = manifest_text(mapping, result, 0.5, ["diagnostics.csv"], "0.1.0")
    assert "manifest.grid_checksum = sha256:" in text
    for key, version in (
        ("python", platform.python_version()),
        ("numpy", np.__version__),
        ("scipy", scipy.__version__),
    ):
        assert f"\nenv.{key} = {version}\n" in text
    recovered = config_from_manifest(text)
    assert recovered == mapping


def test_cli_family_n3(tmp_path):
    cfg = tmp_path / "f3.cfg"
    cfg.write_text(
        "domain.kind = ball\ndomain.R = 1.0\ndomain.n = 3\ndomain.cells = 64\n"
        "params.beta = 5.0\nparams.s0 = 2.0\n"
        "family.eta_list = 0.2,0.1,0.05\nfamily.mass = 10\n"
        "family.delta = 2.0\nfamily.gamma = 2.0\n"
    )
    out = tmp_path / "fam3_out"
    assert main(["family", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "family.csv").exists()


def test_cli_unwritable_output_is_io_error(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(QUICK_CONFIG)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["run", "--config", str(cfg_file), "--out", str(blocker)])
    assert code == 1


# ---------------------------------------------------------------------------
# configuration front end: malformed values, flags over file keys

_SMALL = "domain.cells = 16\nrun.t_end = 0.001\n"
_BALL = "domain.kind = ball\ndomain.n = 2\n"


@pytest.mark.parametrize(
    "command, text, extra, named",
    [
        ("run", "domain.cells = abc\n", [], "domain.cells"),
        ("sweep", _SMALL + "axis.beta = 1.0,x\n", [], "axis.beta"),
        ("sweep", _SMALL + "axis.beta = 1.0\nsweep.max_parallel = two\n", [], "sweep.max_parallel"),
        ("sweep", _SMALL + "axis.beta = 1.0\nclassify.global_factor = big\n", [],
         "classify.global_factor"),
        ("run", _SMALL + "init.u0 = gauss:amp=q\n", [], "init.u0"),
        ("family", _BALL + "family.eta_list = 0.2,zz\nfamily.mass = 1\n", [], "family.eta_list"),
        ("convergence", _SMALL, ["--eps-list", "0.1,x", "--t-probe", "0.001"], "--eps-list"),
        ("run", _BALL + "init.u0 = family_u:mass=1\n", [], "init.u0"),
        # specs the family's preconditions reject
        ("run", _BALL + "init.v0 = family_v:eta=0.1\n", [], "init.v0"),
        ("run", "init.u0 = family_u:eta=0.1,mass=5\n", [], "init.u0"),
        ("run", _BALL + "init.u0 = family_u:eta=-1,mass=5\n", [], "init.u0"),
    ],
)
def test_cli_malformed_values_are_usage_errors(tmp_path, capsys, command, text, extra, named):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    flag = "--spec" if command == "sweep" else "--config"
    assert main([command, flag, str(cfg), "--out", str(tmp_path / "o"), *extra]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("usage error:") and named in err
    assert "Traceback" not in err


# every key whose value is a number or a comma list of numbers, with the
# command that reads it and the rest of a quick, valid configuration
_NUMERIC_KEYS = sorted(known_keys() - {"domain.kind", "init.u0", "init.v0"})
_QUICK = {"domain.cells": "16", "run.t_end": "0.001"}
_READER = {  # key section -> (command, base configuration); the rest: run
    "sweep": ("sweep", {**_QUICK, "axis.beta": "1.0"}),
    "classify": ("sweep", {**_QUICK, "axis.beta": "1.0"}),
    "axis": ("sweep", _QUICK),
    "family": ("family", {"domain.kind": "ball", "domain.n": "2",
                          "family.eta_list": "0.2", "family.mass": "1"}),
    "check": ("check", {}),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _NUMERIC_KEYS)
def test_cli_non_finite_values_are_usage_errors(tmp_path, capsys, key, value):
    command, base = _READER.get(key.split(".")[0], ("run", _QUICK))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items()))
    if command == "check":
        argv = ["check", "--growth", "--config", str(cfg)]
    else:
        flag = "--spec" if command == "sweep" else "--config"
        argv = [command, flag, str(cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"usage error: {key}:"), err
    assert not (tmp_path / "o").exists()


# every float flag, with the command that reads it
_FLOAT_FLAGS = {
    "--k": ["check", "--growth", "--n", "2"],
    "--theta": ["check", "--growth", "--n", "2"],
    "--alpha-prime": ["check", "--growth", "--n", "3"],
    "--eps-c": ["check", "--eps-condition", "--n", "3"],
    "--K": ["check", "--eps-condition", "--n", "3"],
    "--s-max": ["check", "--growth"],
    "--t-probe": ["convergence", "--eps-list", "0.1,0.05"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", sorted(_FLOAT_FLAGS))
def test_cli_non_finite_flags_are_usage_errors(tmp_path, capsys, flag, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(_SMALL)
    assert main([*_FLOAT_FLAGS[flag], "--config", str(cfg), f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: argument {flag}: expected a finite number, got '{value}'\n"


def test_library_validators_reject_nan():
    nan = math.nan
    for name in ("alpha", "beta", "kappa", "a", "b", "eps", "s0", "psi_c"):
        with pytest.raises(ConfigError, match=name):
            ksfv.ModelParams(**{name: nan})
    for kwargs in ({"R": nan}, {"cells": nan}, {"kind": ksfv.BALL, "n": nan}):
        with pytest.raises(ConfigError):
            ksfv.DomainSpec(**{"kind": ksfv.INTERVAL, "R": 1.0, **kwargs})
    dom = ksfv.DomainSpec(ksfv.INTERVAL, 0.5, 1, 16)
    g = ksfv.make_grid(dom)
    for field in ("t_end", "cfl", "dt_max", "dt_min", "blowup_cap", "diag_every"):
        cfg = ksfv.RunConfig(dom, ksfv.ModelParams(), np.ones(16), np.ones(16), t_end=0.01)
        setattr(cfg, field, nan)
        with pytest.raises(ConfigError, match=field):
            cfg.validate(g)
    for name in ("eta", "mass", "beta", "theta"):
        with pytest.raises(PreconditionError, match=name):
            ksfv.FamilyParams(**{"eta": 0.2, "beta": 1.0, "mass": 1.0, name: nan})
    for kwargs in (
        {"axes": [("beta", [1.0, nan])]},
        {"max_parallel": nan},
        {"global_factor": nan},
        {"blowup_factor": nan},
    ):
        with pytest.raises(ConfigError):
            SweepSpec(**{"axes": [("beta", [1.0])], "base": {}, **kwargs})


def test_sweep_malformed_base_value_is_an_error_row(tmp_path, capsys):
    spec = tmp_path / "s.cfg"
    spec.write_text("domain.cells = abc\nrun.t_end = 0.001\naxis.beta = 1.0\n")
    out = tmp_path / "o"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
    assert (out / "sweep.csv").read_text().splitlines()[1].startswith("0,1.0,Error,ConfigError,")
    assert "domain.cells" in capsys.readouterr().err


def test_sweep_spec_from_sample_file_matches_hand_built_spec():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    mapping = load_config(os.path.join(root, "docs", "sample_sweep.cfg"))
    base = {k: v for k, v in mapping.items() if not k.startswith(("axis.", "sweep."))}
    expected = SweepSpec(
        axes=[("beta", [1.0, 2.0, 3.0]), ("kappa", [2.0, 3.0, 4.0])],
        base=base,
        max_parallel=3,
        global_factor=10.0,
        blowup_factor=1e3,
    )
    assert SweepSpec.from_mapping(mapping) == expected
    # axes keep file order, classify keys are read and also kept in the base
    mapping = parse_config_text(
        "axis.kappa = 2,3\naxis.alpha = 1.5\nclassify.blowup_factor = 50\nrun.t_end = 0.1\n"
    )
    spec = SweepSpec.from_mapping(mapping)
    assert spec.axes == [("kappa", [2.0, 3.0]), ("alpha", [1.5])]
    assert spec.base == {"classify.blowup_factor": "50", "run.t_end": "0.1"}
    assert (spec.max_parallel, spec.global_factor, spec.blowup_factor) == (1, 10.0, 50.0)


def test_cli_other_ksfv_error_is_reported_once(tmp_path, monkeypatch, capsys):
    import ksfv.cli as cli_mod
    from ksfv.errors import QuadratureError

    def failing_run(cfg):
        raise QuadratureError("did not converge")

    monkeypatch.setattr(cli_mod, "run", failing_run)
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(QUICK_CONFIG)
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: did not converge\n"


@pytest.mark.parametrize(
    "file_text, flags, s_max",
    [
        ("", [], 1000.0),
        ("check.s_max = 50\n", [], 50.0),
        ("check.s_max = 50\n", ["--s-max", "5000"], 5000.0),
        ("", ["--s-max", "200"], 200.0),
    ],
)
def test_cli_check_s_max_flag_overrides_file(tmp_path, monkeypatch, file_text, flags, s_max):
    import ksfv.cli as cli_mod

    seen = []
    real = cli_mod.build_table

    def recording_build_table(params, ratio_spec, s_max):
        seen.append(s_max)
        return real(params, ratio_spec, s_max=s_max)

    monkeypatch.setattr(cli_mod, "build_table", recording_build_table)
    cfg = tmp_path / "p.cfg"
    cfg.write_text("params.beta = 2\nparams.s0 = 2.0\n" + file_text)
    assert main(["check", "--growth", "--config", str(cfg), *flags]) == 0
    assert seen == [s_max]


def test_cli_underflowing_psi_c_is_a_named_error(tmp_path, capsys):
    import time

    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "domain.cells = 16\nrun.t_end = 0.001\n"
        "params.alpha = 3\nparams.beta = 3\nparams.psi_c = 1e-300\n"
    )
    t0 = time.perf_counter()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error:") and "psi_c" in err
    assert "Traceback" not in err
