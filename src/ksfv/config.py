"""Flat key=value configuration files and initial-field specifications.

The format is deliberately minimal: one `section.key = value` per line, `#`
comments, no nesting. Every key is one row of the key table `_KEYS`, with
its default and meaning: `DEFAULTS`, `known_keys()` and the `SCHEMA` text
that `ksfv check --schema` prints (and docs/config_schema.md holds) are
generated from it. A default of (unset), or one written in words such as
t_end/64, is printed but not applied.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Dict, List

import numpy as np

from .core import BALL, INTERVAL, DomainSpec, Grid, ModelParams, integrate, make_grid
from .errors import ConfigError, UsageError
from .families import FamilyParams, concentrated_u, concentrated_v

# sweep axis name -> the configuration key it sets (file key axis.<name>)
AXIS_KEYS = {
    "alpha": "params.alpha",
    "beta": "params.beta",
    "kappa": "params.kappa",
    "eps": "params.eps",
    "mass": "init.mass",
}


class _Shown(str):
    """A default the schema prints but a configuration does not take."""


_UNSET = _Shown("(unset)")

# every key, in schema order: (key, default, meaning); a meaning may span lines
_KEYS = (
    ("domain.kind", "interval", "'interval' (length 2R, n=1) or 'ball' (radius R, n>=2)"),
    ("domain.R", "0.5", "half-length / ball radius (length)"),
    ("domain.n", "1", "ambient dimension (>=2 for ball)"),
    ("domain.cells", "64", "number of cells (>= 8)"),
    ("params.alpha", "1.0", "diffusivity exponent ln^alpha(1+u), >= 1"),
    ("params.beta", "1.0", "sensitivity exponent psi_c*u^beta, >= 1"),
    ("params.kappa", "2.0", "damping exponent of a - b*u^kappa, >= 2"),
    ("params.a", "0.0", "growth ceiling, >= 0"),
    ("params.b", "1.0", "damping strength, > 0"),
    ("params.eps", "0.0", "regularization shift, >= 0"),
    ("params.s0", "1.0", "energy anchor, > 0"),
    ("params.psi_c", "1.0", "sensitivity coefficient, > 0"),
    ("init.u0", "constant:1", "initial density field spec (see below)"),
    ("init.v0", "steady", "initial signal field spec, or 'steady'"),
    ("init.mass", _UNSET, "if set, rescale u0 to this discrete mass"),
    ("run.t_end", "1.0", "final time, > 0"),
    ("run.cfl", "0.4", "CFL fraction in (0, 1]"),
    ("run.dt_max", _Shown("t_end/64"), "hard step-size cap"),
    ("run.dt_min", "1e-12", "underflow threshold (termination DtUnderflow)"),
    ("run.blowup_cap", "1e8", "max-norm cap (termination BlowUp)"),
    ("run.diag_every", "1", "diagnostics cadence in steps"),
    ("classify.global_factor", "10.0", "Global requires max_u growth below this factor"),
    ("classify.blowup_factor", "1e3", "BlowUp-on-underflow requires growth above this"),
    ("sweep.max_parallel", "1", "worker processes for a sweep, >= 1; capped at\n"
     "the usable CPUs and the sweep's table groups\n(1, or no safe fork: run in-process)"),
    ("axis.<name>", _UNSET, "sweep axis: comma list; name in\n{" + ", ".join(AXIS_KEYS) + "}"),
    ("family.eta_list", _UNSET, "comma list of eta values for family scans"),
    ("family.kappa_prime", _UNSET, "n=2 signal exponent (0 < kp < 1 - theta)"),
    ("family.theta", _UNSET, "growth exponent in (0, 1)"),
    ("family.mass", _UNSET, "family mass target"),
    ("family.delta", _UNSET, "n>=3 signal exponent"),
    ("family.gamma", _UNSET, "n>=3 signal prefactor exponent"),
    ("check.s_max", "1000.0", "condition-check sample ceiling; --s-max overrides"),
)

DEFAULTS: Dict[str, str] = {k: d for k, d, _ in _KEYS if not isinstance(d, _Shown)}


def known_keys():
    return {k for k, _, _ in _KEYS if k != "axis.<name>"} | {f"axis.{name}" for name in AXIS_KEYS}


def _schema_line(key: str, default: str, meaning: str) -> str:
    """A key table row in the schema's columns; a meaning's later lines align under its first."""
    return f"# {key:<25}{default:<13}" + meaning.replace("\n", "\n#" + " " * 39) + "\n"


SCHEMA = (
    """\
# Configuration schema (flat key = value lines, '#' comments).
# All quantities are nondimensional; R carries the length unit, t_end the time unit.
# Every number, in a value, a comma list or a field spec, must be finite:
# nan, inf and -inf are usage errors that name the key.
#
"""
    + "".join(_schema_line(*row) for row in (("key", "default", "meaning"), *_KEYS))
    + """\
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
)


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse key = value lines into a flat mapping; unknown keys are rejected."""
    out: Dict[str, str] = {}
    known = known_keys()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
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


def _number(key: str, text: str, kind):
    """text as a `kind`; a ConfigError naming key unless it is one, and finite.

    No key has a legitimate nan or inf, and a NaN passes every range check
    written as x < bound, so non-finite values stop here.
    """
    try:
        value = kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key}: expected {expected}, got '{text}'") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got '{text}'")
    return value


def number(mapping: Dict[str, str], key: str, kind=float):
    """mapping[key] as a `kind` (float or int); a ConfigError naming the key if it is not one."""
    return _number(key, mapping[key], kind)


def numbers(mapping: Dict[str, str], key: str) -> List[float]:
    """mapping[key] as a comma list of floats; a ConfigError naming the key if one is not."""
    return [_number(key, part, float) for part in mapping[key].split(",")]


def _options(spec: str) -> Dict[str, float]:
    raw = {}
    for part in spec.split(","):
        if "=" not in part:
            raise UsageError(f"malformed field option {part!r} (expected name=value)")
        k, v = part.split("=", 1)
        raw[k.strip()] = v
    return {k: number(raw, k) for k in raw}


def _family_params(opts: Dict[str, float]) -> FamilyParams:
    """FamilyParams from float options; beta and mass default to 1."""
    if "eta" not in opts:
        raise UsageError("family data needs eta")
    return FamilyParams(
        eta=opts["eta"],
        beta=opts.get("beta", 1.0),
        mass=opts.get("mass", 1.0),
        kappa_prime=opts.get("kappa_prime"),
        theta=opts.get("theta"),
        delta=opts.get("delta"),
        gamma=opts.get("gamma"),
    )


def build_field(spec: str, grid: Grid) -> np.ndarray:
    """Materialize an init.u0 / init.v0 spec string on the grid ('steady' handled by caller)."""
    spec = spec.strip()
    name, _, rest = spec.partition(":")
    x = grid.centers
    extent = grid.spec.extent
    if name == "constant":
        return np.full(grid.cells, _number("constant", rest, float))
    if name == "cosine":
        opts = _options(rest)
        base = opts.get("base", 1.0)
        amp = opts.get("amp", 0.0)
        mode = opts.get("mode", 1.0)
        return base + amp * np.cos(mode * math.pi * x / extent)
    if name == "gauss":
        opts = _options(rest)
        base = opts.get("base", 0.0)
        amp = opts.get("amp", 1.0)
        width = opts.get("width", 0.2)
        center = opts.get("center", 0.0)
        xi = x / extent
        return base + amp * np.exp(-(((xi - center) / width) ** 2))
    if name == "family_u":
        return concentrated_u(_family_params(_options(rest)), grid)
    if name == "family_v":
        return concentrated_v(_family_params(_options(rest)), grid)
    raise UsageError(f"unknown field spec {spec!r}")


def _field(key: str, spec: str, grid: Grid) -> np.ndarray:
    """build_field(spec, grid); a malformed spec is a ConfigError naming its key."""
    try:
        return build_field(spec, grid)
    except (ConfigError, UsageError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def domain_from(mapping: Dict[str, str]) -> DomainSpec:
    kind = mapping["domain.kind"]
    if kind not in (INTERVAL, BALL):
        raise ConfigError(f"domain.kind must be 'interval' or 'ball', got {kind!r}")
    return DomainSpec(
        kind=kind,
        R=number(mapping, "domain.R"),
        n=number(mapping, "domain.n", int),
        cells=number(mapping, "domain.cells", int),
    )


def params_from(mapping: Dict[str, str]) -> ModelParams:
    return ModelParams(
        **{f.name: number(mapping, f"params.{f.name}") for f in fields(ModelParams)}
    )


def family_from(mapping: Dict[str, str]):
    """Grid, model parameters, family and eta list of a `ksfv family` configuration.

    The family's beta is params.beta and its eta the first of family.eta_list.
    """
    merged = with_defaults(mapping)
    for key in ("family.eta_list", "family.mass"):
        if key not in merged:
            raise UsageError(f"family scan needs {key}")
    grid = make_grid(domain_from(merged))
    params = params_from(merged)
    etas = numbers(merged, "family.eta_list")
    opts = {
        name: number(merged, f"family.{name}")
        for name in ("mass", "kappa_prime", "theta", "delta", "gamma")
        if f"family.{name}" in merged
    }
    fp = _family_params({"eta": etas[0], "beta": params.beta, **opts})
    return grid, params, fp, etas


def run_config_from(mapping: Dict[str, str]):
    """Build a RunConfig (and its grid) from a merged configuration mapping."""
    from .solver import RunConfig, steady_signal  # local import to avoid a cycle

    merged = with_defaults(mapping)
    dom = domain_from(merged)
    grid = make_grid(dom)
    params = params_from(merged)

    # the density family inherits beta from the model unless given explicitly
    u_spec = merged["init.u0"]
    if u_spec.startswith("family_u:") and "beta=" not in u_spec:
        u_spec += f",beta={params.beta}"
    u0 = _field("init.u0", u_spec, grid)
    if "init.mass" in merged:
        target = number(merged, "init.mass")
        current = integrate(u0, grid)
        if current <= 0.0:
            raise ConfigError("cannot rescale a zero-mass u0 to init.mass")
        u0 = u0 * (target / current)

    v_spec = merged["init.v0"]
    v0 = steady_signal(u0, grid) if v_spec == "steady" else _field("init.v0", v_spec, grid)

    cfg = RunConfig(
        domain=dom,
        params=params,
        u0=u0,
        v0=v0,
        t_end=number(merged, "run.t_end"),
        cfl=number(merged, "run.cfl"),
        dt_max=number(merged, "run.dt_max") if "run.dt_max" in merged else None,
        dt_min=number(merged, "run.dt_min"),
        blowup_cap=number(merged, "run.blowup_cap"),
        diag_every=number(merged, "run.diag_every", int),
    )
    return cfg, grid, merged
