"""Geometry, fields, parameters, and exact discrete integration.

Two domain shapes are supported: a 1-D interval of length 2R (cells indexed
left to right) and a radially symmetric ball of radius R in dimension n >= 2,
reduced to the radial coordinate. Grids are cell-centered with faces at
i*h; radial cell volumes are exact shell volumes, so the discrete integral of
a constant reproduces |Omega| to rounding. The r=0 face has zero area, which
encodes the symmetry condition of the radial Laplacian without ghost cells.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, UsageError

INTERVAL = "interval"
BALL = "ball"

# the grid-only factors of the solver's CFL rates (Grid.rate_geometry)
RateGeometry = namedtuple("RateGeometry", "diff_geom adv_l adv_r adv_geom")


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2*pi for n=2, 4*pi for n=3)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class ModelParams:
    """Exponents and coefficients of the model nonlinearities.

    alpha  -- exponent of the logarithmic diffusivity ln^alpha(1+u), >= 1
    beta   -- exponent of the power-law drift sensitivity psi_c*u^beta, >= 1
    kappa  -- damping exponent of the growth term a - b*u^kappa, >= 2
    a, b   -- growth ceiling (>= 0) and damping strength (> 0)
    eps    -- regularization shift: diffusivity becomes ln^alpha(1+u+eps) and
              the growth term is cut off smoothly beyond u = 1/(2*eps)
    s0     -- anchor of the energy integrands G and H (both vanish there)
    psi_c  -- sensitivity coefficient (the band c1 u^beta <= psi <= c2 u^beta
              is collapsed to psi = psi_c * u^beta so the energy is single-valued)
    """

    alpha: float = 1.0
    beta: float = 1.0
    kappa: float = 2.0
    a: float = 0.0
    b: float = 1.0
    eps: float = 0.0
    s0: float = 1.0
    psi_c: float = 1.0

    def __post_init__(self):
        # each check is a chained comparison, so NaN and inf fail it too
        inf = math.inf
        if not (1.0 <= self.alpha < inf):
            raise ConfigError(f"alpha must be finite and >= 1, got {self.alpha}")
        if not (1.0 <= self.beta < inf):
            raise ConfigError(f"beta must be finite and >= 1, got {self.beta}")
        if not (2.0 <= self.kappa < inf):
            raise ConfigError(f"kappa must be finite and >= 2, got {self.kappa}")
        if not (0.0 <= self.a < inf):
            raise ConfigError(f"a must be finite and >= 0, got {self.a}")
        if not (0.0 < self.b < inf):
            raise ConfigError(f"b must be finite and > 0, got {self.b}")
        if not (0.0 <= self.eps < inf):
            raise ConfigError(f"eps must be finite and >= 0, got {self.eps}")
        if not (0.0 < self.s0 < inf):
            raise ConfigError(f"s0 must be finite and > 0, got {self.s0}")
        if not (0.0 < self.psi_c < inf):
            raise ConfigError(f"psi_c must be finite and > 0, got {self.psi_c}")


@dataclass(frozen=True)
class DomainSpec:
    """Domain geometry: interval of length 2R (n=1) or ball of radius R (n>=2)."""

    kind: str
    R: float
    n: int = 1
    cells: int = 64

    def __post_init__(self):
        if self.kind not in (INTERVAL, BALL):
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if not (0.0 < self.R < math.inf):
            raise ConfigError(f"R must be finite and > 0, got {self.R}")
        if not (8 <= self.cells < math.inf):
            raise ConfigError(f"need at least 8 cells, got {self.cells}")
        if self.kind == BALL and not (2 <= self.n < math.inf):
            raise ConfigError("ball domains require ambient dimension n >= 2")
        if self.kind == INTERVAL and self.n != 1:
            raise ConfigError("interval domains have n = 1")

    @property
    def extent(self) -> float:
        """Length of the 1-D computational coordinate."""
        return 2.0 * self.R if self.kind == INTERVAL else self.R

    @property
    def volume(self) -> float:
        """|Omega|: 2R for the interval, omega_n R^n / n for the ball."""
        if self.kind == INTERVAL:
            return 2.0 * self.R
        return unit_sphere_area(self.n) * self.R ** self.n / self.n


@dataclass(frozen=True)
class Grid:
    """Cell-centered grid with exact volumes and face areas.

    trans[j] is the face transmissibility A_j/h with boundary faces zeroed
    (homogeneous Neumann); face_weight[j] = A_j*h is the quadrature weight for
    face-centered squared gradients, chosen so that the discrete identity
    sum(w*|grad v|^2) = -sum(v * div grad v * V) holds exactly.
    """

    spec: DomainSpec
    h: float
    centers: np.ndarray
    faces: np.ndarray
    face_area: np.ndarray
    cell_volume: np.ndarray
    trans: np.ndarray
    face_weight: np.ndarray

    @property
    def cells(self) -> int:
        return self.spec.cells

    @cached_property
    def rate_geometry(self) -> RateGeometry:
        """The grid-only factors of the CFL rates, computed on first use and kept.

        diff_geom = max_i (T_left + T_right)/V_i, which is 2/h^2 on an interval;
        adv_l and adv_r are A h/V of each cell's left and right face, and
        adv_geom = max_i (adv_l + adv_r), the drift bound's factor.
        """
        V = self.cell_volume
        T = self.trans
        th = T * self.h
        adv_l = th[:-1] / V
        adv_r = th[1:] / V
        adv_l.flags.writeable = adv_r.flags.writeable = False
        return RateGeometry(
            float(np.maximum.reduce((T[:-1] + T[1:]) / V)),
            adv_l,
            adv_r,
            float(np.maximum.reduce(adv_l + adv_r)),
        )

    def __getstate__(self):
        # a pickled grid (e.g. in a sweep worker's result) leaves its cached
        # rate factors behind; they are rebuilt on first use
        state = dict(self.__dict__)
        state.pop("rate_geometry", None)
        return state

    def __setstate__(self, state):
        # unpickling (e.g. a result sent back by a sweep worker) makes arrays writeable
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)


def make_grid(spec: DomainSpec) -> Grid:
    """Build the uniform grid for a domain spec. Arrays are frozen after construction."""
    N = spec.cells
    h = spec.extent / N
    faces = np.arange(N + 1, dtype=float) * h
    centers = (np.arange(N, dtype=float) + 0.5) * h
    if spec.kind == INTERVAL:
        area = np.ones(N + 1)
        volume = np.full(N, h)
    else:
        w = unit_sphere_area(spec.n)
        area = w * faces ** (spec.n - 1)
        volume = w * (faces[1:] ** spec.n - faces[:-1] ** spec.n) / spec.n
    trans = area / h
    trans[0] = 0.0
    trans[-1] = 0.0
    weight = area * h
    weight[0] = 0.0
    weight[-1] = 0.0
    for arr in (faces, centers, area, volume, trans, weight):
        arr.flags.writeable = False
    return Grid(spec, h, centers, faces, area, volume, trans, weight)


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Discrete integral over the domain: sum of cell values times exact cell volumes."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.cells,):
        raise UsageError(
            f"field of length {values.shape} does not live on a {grid.cells}-cell grid"
        )
    return float(np.dot(values, grid.cell_volume))


def frozen(x: float) -> np.ndarray:
    """x as a read-only 0-d float64 array, a ufunc operand bound once.

    numpy converts a Python-float operand on every ufunc call and takes a 0-d
    array as it is. +, -, *, /, min, max and the comparisons are correctly
    rounded, so a result is bitwise the one with the Python float.
    """
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


def frozen_exponent(e: float):
    """The exponent e of an array power, bound once: frozen(e), or the float 0.5 itself.

    numpy's power gives bitwise the same result for a 0-d exponent as for the
    Python float (tests/test_solver.py::test_bound_exponents_are_python_floats_bitwise)
    and converts only the float on every call. At 0.5 the float is kept:
    numpy takes its sqrt fast path for it, which is the quicker one.
    """
    return e if e == 0.5 else frozen(e)


def linf(values: np.ndarray) -> float:
    """Max-norm of a cell field."""
    return float(np.max(np.abs(values)))


@dataclass
class State:
    """Cell-centered density u, signal v, and the current time."""

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def copy(self) -> "State":
        return State(self.u.copy(), self.v.copy(), self.t)


def validate_field(values: np.ndarray, grid: Grid, name: str = "field") -> np.ndarray:
    """Coerce to a float array on the grid; reject wrong lengths and non-finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (grid.cells,):
        raise UsageError(f"{name} has shape {arr.shape}, expected ({grid.cells},)")
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{name} contains non-finite values")
    return arr


__all__ = [
    "INTERVAL",
    "BALL",
    "ModelParams",
    "DomainSpec",
    "Grid",
    "State",
    "make_grid",
    "integrate",
    "linf",
    "unit_sphere_area",
    "validate_field",
]
