"""Finite-volume simulator and verification toolkit for a chemotaxis system
with logarithmic diffusion, power-law drift sensitivity, and polynomial damping.
"""

__version__ = "0.1.0"

from .core import (
    BALL,
    INTERVAL,
    DomainSpec,
    Grid,
    ModelParams,
    State,
    integrate,
    linf,
    make_grid,
)
from .nonlin import (
    ConditionReport,
    FunctionalTable,
    Overrides,
    RatioSpec,
    build_table,
    check_eps_condition,
    check_growth_condition,
    damping_is_weak,
    diffusivity,
    diffusivity_reg,
    growth,
    growth_reg,
    ratio,
    sensitivity,
)
from .discrete import div_cells, grad_faces
from .energy import (
    EnergyBreakdown,
    boundary_cutoff_weight,
    dissipation,
    energy_floor,
    log_weight,
    lyapunov,
    lyapunov_steady,
    radial_weight_inequality,
    steady_residual,
)
from .families import (
    FamilyParams,
    concentrated_u,
    concentrated_v,
    energy_scan,
    fit_divergence_exponent,
    initial_data_below,
    mass_normalizer,
    moment_integral,
)
from .solver import (
    DiagnosticsRow,
    RunConfig,
    RunResult,
    Termination,
    TableCache,
    TerminationInfo,
    cfl_dt,
    continuous_dependence,
    epsilon_convergence_scan,
    run,
    steady_signal,
    step,
)
from .sweep import SweepSpec, classify_run, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
