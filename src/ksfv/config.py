"""Flat key=value configuration files and initial-field specifications.

The format is deliberately minimal: one `section.key = value` per line, `#`
comments, no nesting. docs/config_schema.md in the repository enumerates every
key with defaults and units; `SCHEMA` below is the same table as a string so
the CLI can print it.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from .core import BALL, INTERVAL, DomainSpec, Grid, ModelParams, integrate, make_grid
from .errors import ConfigError, UsageError
from .families import FamilyParams, concentrated_u, concentrated_v

SCHEMA = """\
# Configuration schema (flat key = value lines, '#' comments).
# All quantities are nondimensional; R carries the length unit, t_end the time unit.
#
# key                      default      meaning
# domain.kind              interval     'interval' (length 2R, n=1) or 'ball' (radius R, n>=2)
# domain.R                 0.5          half-length / ball radius (length)
# domain.n                 1            ambient dimension (>=2 for ball)
# domain.cells             64           number of cells (>= 8)
# params.alpha             1.0          diffusivity exponent ln^alpha(1+u), >= 1
# params.beta              1.0          sensitivity exponent psi_c*u^beta, >= 1
# params.kappa             2.0          damping exponent of a - b*u^kappa, >= 2
# params.a                 0.0          growth ceiling, >= 0
# params.b                 1.0          damping strength, > 0
# params.eps               0.0          regularization shift, >= 0
# params.s0                1.0          energy anchor, > 0
# params.psi_c             1.0          sensitivity coefficient, > 0
# init.u0                  constant:1   initial density field spec (see below)
# init.v0                  steady       initial signal field spec, or 'steady'
# init.mass                (unset)      if set, rescale u0 to this discrete mass
# run.t_end                1.0          final time, > 0
# run.cfl                  0.4          CFL fraction in (0, 1]
# run.dt_max               t_end/64     hard step-size cap
# run.dt_min               1e-12        underflow threshold (termination DtUnderflow)
# run.blowup_cap           1e8          max-norm cap (termination BlowUp)
# run.diag_every           1            diagnostics cadence in steps
# classify.global_factor   10.0         Global requires max_u growth below this factor
# classify.blowup_factor   1e3          BlowUp-on-underflow requires growth above this
# sweep.max_parallel       1            worker processes for a sweep, >= 1; capped at
#                                       the usable CPUs and the sweep's table groups
#                                       (1, or no safe fork: run in-process)
# axis.<name>              (unset)      sweep axis: comma list; name in
#                                       {alpha, beta, kappa, eps, mass}
# family.eta_list          (unset)      comma list of eta values for family scans
# family.kappa_prime       (unset)      n=2 signal exponent (0 < kp < 1 - theta)
# family.theta             (unset)      growth exponent in (0, 1)
# family.mass              (unset)      family mass target
# family.delta             (unset)      n>=3 signal exponent
# family.gamma             (unset)      n>=3 signal prefactor exponent
# check.s_max              1000.0       sample range ceiling for condition checks
#
# Field specs (init.u0 / init.v0):
#   constant:<value>
#   cosine:base=<b>,amp=<a>,mode=<m>       b + a*cos(m*pi*x/extent)
#   gauss:base=<b>,amp=<a>,width=<w>,center=<c>   b + a*exp(-((xi-c)/w)^2), xi = x/extent
#   family_u:eta=<e>,mass=<m>              concentrated density (ball only)
#   family_v:eta=<e>,kappa_prime=<k>,theta=<t>    concentrated signal, n=2
#   family_v:eta=<e>,delta=<d>,gamma=<g>          concentrated signal, n>=3
#   steady                                  (v0 only) solve (-Lap+1) v = u0
"""

DEFAULTS: Dict[str, str] = {
    "domain.kind": "interval",
    "domain.R": "0.5",
    "domain.n": "1",
    "domain.cells": "64",
    "params.alpha": "1.0",
    "params.beta": "1.0",
    "params.kappa": "2.0",
    "params.a": "0.0",
    "params.b": "1.0",
    "params.eps": "0.0",
    "params.s0": "1.0",
    "params.psi_c": "1.0",
    "init.u0": "constant:1",
    "init.v0": "steady",
    "run.t_end": "1.0",
    "run.cfl": "0.4",
    "run.dt_min": "1e-12",
    "run.blowup_cap": "1e8",
    "run.diag_every": "1",
    "classify.global_factor": "10.0",
    "classify.blowup_factor": "1e3",
    "sweep.max_parallel": "1",
}

_OPTIONAL_KEYS = {
    "init.mass",
    "run.dt_max",
    "family.eta_list",
    "family.kappa_prime",
    "family.theta",
    "family.mass",
    "family.delta",
    "family.gamma",
    "check.s_max",
}

_AXIS_NAMES = ("alpha", "beta", "kappa", "eps", "mass")


def known_keys():
    keys = set(DEFAULTS) | _OPTIONAL_KEYS
    keys |= {f"axis.{name}" for name in _AXIS_NAMES}
    return keys


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse key = value lines into a flat mapping; unknown keys are rejected."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known_keys():
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def with_defaults(mapping: Dict[str, str]) -> Dict[str, str]:
    merged = dict(DEFAULTS)
    merged.update(mapping)
    return merged


def _floats(spec: str) -> Dict[str, float]:
    out = {}
    for part in spec.split(","):
        if "=" not in part:
            raise UsageError(f"malformed field option {part!r} (expected name=value)")
        k, v = part.split("=", 1)
        out[k.strip()] = float(v)
    return out


def build_field(spec: str, grid: Grid) -> np.ndarray:
    """Materialize an init.u0 / init.v0 spec string on the grid ('steady' handled by caller)."""
    spec = spec.strip()
    name, _, rest = spec.partition(":")
    x = grid.centers
    extent = grid.spec.extent
    if name == "constant":
        try:
            value = float(rest)
        except ValueError:
            value = _floats(rest).get("value")
            if value is None:
                raise UsageError(f"constant spec needs a value, got {spec!r}") from None
        return np.full(grid.cells, value)
    if name == "cosine":
        opts = _floats(rest)
        base = opts.get("base", 1.0)
        amp = opts.get("amp", 0.0)
        mode = opts.get("mode", 1.0)
        return base + amp * np.cos(mode * math.pi * x / extent)
    if name == "gauss":
        opts = _floats(rest)
        base = opts.get("base", 0.0)
        amp = opts.get("amp", 1.0)
        width = opts.get("width", 0.2)
        center = opts.get("center", 0.0)
        xi = x / extent
        return base + amp * np.exp(-(((xi - center) / width) ** 2))
    if name == "family_u":
        opts = _floats(rest)
        fp = FamilyParams(
            eta=opts["eta"],
            beta=opts.get("beta", 1.0),
            mass=opts.get("mass", 1.0),
            kappa_prime=opts.get("kappa_prime"),
            theta=opts.get("theta"),
        )
        return concentrated_u(fp, grid)
    if name == "family_v":
        opts = _floats(rest)
        fp = FamilyParams(
            eta=opts["eta"],
            beta=opts.get("beta", 1.0),
            mass=opts.get("mass", 1.0),
            kappa_prime=opts.get("kappa_prime"),
            theta=opts.get("theta"),
            delta=opts.get("delta"),
            gamma=opts.get("gamma"),
        )
        return concentrated_v(fp, grid)
    raise UsageError(f"unknown field spec {spec!r}")


def domain_from(mapping: Dict[str, str]) -> DomainSpec:
    kind = mapping["domain.kind"]
    if kind not in (INTERVAL, BALL):
        raise ConfigError(f"domain.kind must be 'interval' or 'ball', got {kind!r}")
    return DomainSpec(
        kind=kind,
        R=float(mapping["domain.R"]),
        n=int(mapping["domain.n"]),
        cells=int(mapping["domain.cells"]),
    )


def params_from(mapping: Dict[str, str]) -> ModelParams:
    return ModelParams(
        alpha=float(mapping["params.alpha"]),
        beta=float(mapping["params.beta"]),
        kappa=float(mapping["params.kappa"]),
        a=float(mapping["params.a"]),
        b=float(mapping["params.b"]),
        eps=float(mapping["params.eps"]),
        s0=float(mapping["params.s0"]),
        psi_c=float(mapping["params.psi_c"]),
    )


def run_config_from(mapping: Dict[str, str]):
    """Build a RunConfig (and its grid) from a merged configuration mapping."""
    from .solver import RunConfig, steady_signal  # local import to avoid a cycle

    merged = with_defaults(mapping)
    dom = domain_from(merged)
    grid = make_grid(dom)
    params = params_from(merged)

    # family specs inherit beta from the model unless given explicitly
    u_spec = merged["init.u0"]
    if u_spec.startswith("family_u:") and "beta=" not in u_spec:
        u_spec += f",beta={params.beta}"
    u0 = build_field(u_spec, grid)
    if "init.mass" in merged:
        target = float(merged["init.mass"])
        current = integrate(u0, grid)
        if current <= 0.0:
            raise ConfigError("cannot rescale a zero-mass u0 to init.mass")
        u0 = u0 * (target / current)

    v_spec = merged["init.v0"]
    if v_spec == "steady":
        v0 = steady_signal(u0, grid)
    else:
        if v_spec.startswith("family_v:") and "beta=" not in v_spec:
            v_spec += f",beta={params.beta}"
        v0 = build_field(v_spec, grid)

    dt_max: Optional[float] = (
        float(merged["run.dt_max"]) if "run.dt_max" in merged else None
    )
    cfg = RunConfig(
        domain=dom,
        params=params,
        u0=u0,
        v0=v0,
        t_end=float(merged["run.t_end"]),
        cfl=float(merged["run.cfl"]),
        dt_max=dt_max,
        dt_min=float(merged["run.dt_min"]),
        blowup_cap=float(merged["run.blowup_cap"]),
        diag_every=int(merged["run.diag_every"]),
    )
    return cfg, grid, merged
