"""Command-line interface: run, sweep, family, check, convergence.

Exit codes: 0 on success (a detected blow-up is a valid scientific outcome),
1 on usage/configuration errors and any other ksfv or i/o error, each reported
as one stderr line, 2 when a run ends in numerical failure, a sweep point
fails (its Error row is still written to sweep.csv) or a convergence scan
aborts (one "error:" line; the gaps of the runs that completed are still
written to gaps.csv), 130 on Ctrl-C (SIGINT), reported as one "interrupted"
line.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from typing import List, Optional

import numpy as np

from . import __version__
from .config import (
    SCHEMA,
    family_from,
    load_config,
    number,
    numbers,
    params_from,
    run_config_from,
    with_defaults,
)
from .errors import ConfigError, KsfvError, ScanAbortedError, UsageError
from .families import energy_scan, fit_divergence_exponent
from .nonlin import (
    RatioSpec,
    build_table,
    check_eps_condition,
    check_growth_condition,
    damping_is_weak,
)
from .output import (
    config_from_manifest,
    csv_text,
    final_state_csv,
    line_chart_svg,
    manifest_text,
    rows_to_csv,
    write_text,
)
from .solver import Termination, epsilon_convergence_scan, run
from .sweep import ERROR, SweepSpec, run_sweep, sweep_csv, sweep_heatmap


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite(text: str) -> float:
    """A float flag's value: nan and +-inf are usage errors, as in a config file."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got '{text}'")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="ksfv", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.add_argument("--config", help="configuration file")
    p_run.add_argument("--manifest", help="reproduce a run from a manifest file")
    p_run.add_argument("--out", required=True, help="output directory")

    p_sweep = sub.add_parser("sweep", help="parameter sweep with classification")
    p_sweep.add_argument("--spec", required=True, help="sweep configuration file")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--max-parallel", type=int, help="overrides sweep.max_parallel")

    p_fam = sub.add_parser("family", help="concentrated-data energy scan")
    p_fam.add_argument("--config", required=True)
    p_fam.add_argument("--out", required=True)

    p_check = sub.add_parser("check", help="structural condition checks")
    p_check.add_argument("--config", help="parameters for the energy table")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--growth", action="store_true")
    group.add_argument("--eps-condition", action="store_true")
    group.add_argument("--damping", action="store_true")
    group.add_argument("--schema", action="store_true", help="print the config schema")
    p_check.add_argument("--n", type=int, default=2)
    p_check.add_argument("--k", type=_finite, default=1.0)
    p_check.add_argument("--theta", type=_finite, default=0.5)
    p_check.add_argument("--alpha-prime", type=_finite, default=1.0)
    p_check.add_argument("--eps-c", type=_finite, default=0.5)
    p_check.add_argument("--K", type=_finite, default=1.0)
    p_check.add_argument("--s-max", type=_finite, help="overrides check.s_max")

    p_conv = sub.add_parser("convergence", help="regularization convergence scan")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--eps-list", required=True, help="comma list, decreasing")
    p_conv.add_argument("--t-probe", type=_finite, required=True)
    p_conv.add_argument("--out", default=None)

    return parser


def _cmd_run(args) -> int:
    if (args.config is None) == (args.manifest is None):
        raise UsageError("run needs exactly one of --config or --manifest")
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            mapping = config_from_manifest(fh.read())
    else:
        mapping = load_config(args.config)
    cfg, grid, merged = run_config_from(mapping)

    start = time.perf_counter()
    result = run(cfg)
    wall = time.perf_counter() - start

    os.makedirs(args.out, exist_ok=True)
    files = ["diagnostics.csv", "final_state.csv", "max_u.svg", "F.svg", "manifest.txt"]
    write_text(os.path.join(args.out, "diagnostics.csv"), rows_to_csv(result.rows))
    write_text(
        os.path.join(args.out, "final_state.csv"),
        final_state_csv(result.final_state, result.grid),
    )
    ts = [r.t for r in result.rows]
    write_text(
        os.path.join(args.out, "max_u.svg"),
        line_chart_svg(ts, [r.max_u for r in result.rows], "max_u(t)", "max_u", ylog=True),
    )
    write_text(
        os.path.join(args.out, "F.svg"),
        line_chart_svg(ts, [r.F for r in result.rows], "F(t)", "F"),
    )
    write_text(
        os.path.join(args.out, "manifest.txt"),
        manifest_text(merged, result, wall, files, __version__),
    )
    term = result.termination
    print(
        f"terminated {term.tag.value} at t={term.t_final:g} "
        f"after {result.steps} steps (wall {wall:.2f}s)"
    )
    if term.tag == Termination.BLOWUP:
        print(f"cap crossed; last time below cap: {term.blowup_estimate:g}")
    return 2 if term.tag == Termination.NUMERICAL_FAILURE else 0


def _cmd_sweep(args) -> int:
    spec = SweepSpec.from_mapping(load_config(args.spec))
    if args.max_parallel is not None:
        spec = dataclasses.replace(spec, max_parallel=args.max_parallel)
    rows = run_sweep(spec)
    os.makedirs(args.out, exist_ok=True)
    write_text(os.path.join(args.out, "sweep.csv"), sweep_csv(spec, rows))
    svg = sweep_heatmap(spec, rows)
    if svg is not None:
        write_text(os.path.join(args.out, "sweep.svg"), svg)
    counts = {}
    for r in rows:
        counts[r.classification] = counts.get(r.classification, 0) + 1
    print(f"{len(rows)} runs: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    failed = [r for r in rows if r.classification == ERROR]
    for r in failed:
        print(f"error: run {r.run_id} ({r.termination}): {r.error}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_family(args) -> int:
    grid, params, fp, etas = family_from(load_config(args.config))
    table = build_table(params, RatioSpec.model(), s_max=10.0 * max(1.0, 2.0 * params.s0))
    scan = energy_scan(fp, etas, grid, table)
    os.makedirs(args.out, exist_ok=True)
    family_csv = csv_text(
        ("eta", "F", "G_term", "uv_term", "v2_term", "gradv_term"),
        (
            (eta, bd.F_total, bd.G_term, bd.uv_term, bd.v2_term, bd.gradv_term)
            for eta, bd in zip(scan.etas, scan.breakdowns)
        ),
    )
    write_text(os.path.join(args.out, "family.csv"), family_csv)
    L = [float(np.log(grid.spec.R / e)) for e in scan.etas]
    write_text(
        os.path.join(args.out, "family.svg"),
        line_chart_svg(L, scan.F_values, "F vs ln(R/eta)", "F"),
    )
    print(f"F values: {['%.4g' % f for f in scan.F_values]}")
    print(f"strictly decreasing: {scan.strictly_decreasing}")
    if scan.strictly_decreasing and len(scan.etas) >= 3:
        p = fit_divergence_exponent(scan.etas, scan.F_values, grid.spec.R)
        print(f"fitted divergence exponent: {p:.4f}")
    return 0


def _cmd_check(args) -> int:
    if args.schema:
        print(SCHEMA, end="")
        return 0
    mapping = with_defaults(load_config(args.config) if args.config else {})
    params = params_from(mapping)
    if args.damping:
        weak = damping_is_weak(params, args.n)
        print(
            f"kappa={params.kappa:g} vs beta + 2/n = {params.beta + 2.0 / args.n:g}: "
            + ("blow-up-permissive (damping may be too weak)" if weak else "damping-dominated")
        )
        return 0
    s_max = args.s_max if args.s_max is not None else number(mapping, "check.s_max")
    table = build_table(params, RatioSpec.model(), s_max=s_max)
    if args.growth:
        exponent = args.theta if args.n == 2 else args.alpha_prime
        report = check_growth_condition(table, args.n, args.k, exponent)
    else:
        report = check_eps_condition(table, args.n, args.eps_c, args.K)
    print(str(report))
    return 0


def _cmd_convergence(args) -> int:
    cfg, _, _ = run_config_from(load_config(args.config))
    eps_list = numbers({"--eps-list": args.eps_list}, "--eps-list")
    aborted = None
    try:
        scan = epsilon_convergence_scan(cfg, eps_list, args.t_probe)
    except ScanAbortedError as exc:
        aborted, scan = exc, exc.completed
    gaps = list(zip(scan.eps_values, scan.eps_values[1:], scan.gaps))
    print("eps pairs and sup-norm gaps:")
    for e1, e2, g in gaps:
        print(f"  {e1:g} -> {e2:g}: {g:.6e}")
    if aborted is None:
        verdict = scan.strictly_decreasing if len(gaps) > 1 else "undetermined"
        print(f"strictly decreasing: {verdict}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text(os.path.join(args.out, "gaps.csv"), csv_text(("eps_hi", "eps_lo", "gap"), gaps))
    if aborted is not None:
        print(f"error: scan aborted: {aborted}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        handler = {
            "run": _cmd_run,
            "sweep": _cmd_sweep,
            "family": _cmd_family,
            "check": _cmd_check,
            "convergence": _cmd_convergence,
        }[args.command]
        return handler(args)
    except (UsageError, ConfigError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KsfvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
