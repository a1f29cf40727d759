import math

import numpy as np
import pytest

import ksfv
from ksfv.discrete import div_cells, grad_faces, laplacian_apply
from ksfv.errors import DomainError
from ksfv.nonlin import sensitivity
from oracles import chemotactic_flux, diffusive_flux


def interval_grid(cells=32, R=0.5):
    return ksfv.make_grid(ksfv.DomainSpec(ksfv.INTERVAL, R, 1, cells))


def ball_grid(cells=64, n=3, R=1.0):
    return ksfv.make_grid(ksfv.DomainSpec(ksfv.BALL, R, n, cells))


def test_grad_constant_is_zero():
    g = interval_grid()
    assert np.all(grad_faces(np.full(g.cells, 4.2), g) == 0.0)


def test_grad_linear_field():
    g = interval_grid()
    m = 3.7
    f = m * g.centers
    grad = grad_faces(f, g)
    assert np.allclose(grad[1:-1], m)
    assert grad[0] == 0.0 and grad[-1] == 0.0


def test_grad_matches_loop_oracle():
    g = interval_grid(17)
    rng = np.random.default_rng(11)
    f = rng.normal(size=g.cells)
    grad = grad_faces(f, g)
    for j in range(1, g.cells):
        assert grad[j] == (f[j] - f[j - 1]) / g.h
    assert grad[0] == 0.0 and grad[g.cells] == 0.0


def test_div_zero_flux():
    g = ball_grid()
    assert np.all(div_cells(np.zeros(g.cells + 1), g) == 0.0)


@pytest.mark.parametrize("grid", [interval_grid(20), ball_grid(20, 2), ball_grid(20, 3)])
def test_div_into_out_and_work_is_the_allocating_form_bitwise(grid):
    # the lockstep kernel writes each step's divergence into the new u row,
    # with its face products in a scratch array bound to the kernel
    from ksfv.solver import _Kernel, _Model

    rng = np.random.default_rng(22)
    kern = _Kernel(grid, [_Model(ksfv.ModelParams(), None) for _ in range(3)])
    for geom in (grid, kern._geom):  # one field, and the geometry tiled over 3 runs
        cells = len(geom.cell_volume)
        F = rng.choice([-1.0, 1.0], cells + 1) * 10.0 ** rng.uniform(-5.0, 5.0, cells + 1)
        af = geom.face_area * F
        expected = (af[1:] - af[:-1]) / geom.cell_volume
        assert div_cells(F, geom).tobytes() == expected.tobytes()
        out, work = np.full(cells, np.nan), np.full(cells + 1, np.nan)
        assert div_cells(F, geom, out, work) is out
        assert out.tobytes() == expected.tobytes()
        assert work.tobytes() == af.tobytes()


def test_div_telescopes_to_zero_mass():
    g = ball_grid(48, 2)
    rng = np.random.default_rng(5)
    F = rng.normal(size=g.cells + 1)
    F[0] = 0.0
    F[-1] = 0.0
    total = ksfv.integrate(div_cells(F, g), g)
    scale = float(np.sum(np.abs(g.face_area * F)))
    assert abs(total) <= 1e-13 * max(scale, 1.0)


def test_div_radial_linear_flux():
    # flux density r/3 in n=3 has divergence exactly 1 (shell volumes are exact)
    g = ball_grid(64, 3)
    F = g.faces / 3.0
    d = div_cells(F, g)
    assert np.allclose(d, 1.0, atol=1e-12)


def test_summation_by_parts():
    g = ball_grid(40, 2)
    rng = np.random.default_rng(9)
    F = rng.normal(size=g.cells + 1)
    F[0] = F[-1] = 0.0
    w = rng.normal(size=g.cells)
    lhs = ksfv.integrate(w * div_cells(F, g), g)
    rhs = -float(np.sum(g.face_area * F * grad_faces(w, g) * g.h))
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_diffusive_flux_constant_state():
    g = interval_grid()
    p = ksfv.ModelParams(alpha=1, eps=0.1)
    assert np.all(diffusive_flux(np.full(g.cells, 2.0), g, p) == 0.0)


def test_diffusive_flux_formula():
    g = interval_grid(16)
    p = ksfv.ModelParams(alpha=1, eps=0.0)
    s = 1.3
    u = (math.e - 1.0) + s * (g.centers - g.centers[0])
    flux = diffusive_flux(u, g, p)
    u_face = 0.5 * (u[1:] + u[:-1])
    expected = np.log1p(u_face) * s
    assert np.allclose(flux[1:-1], expected, rtol=1e-14)
    assert flux[0] == 0.0 and flux[-1] == 0.0


def test_diffusive_flux_unit_mobility_is_gradient():
    g = interval_grid(16)
    p = ksfv.ModelParams()
    rng = np.random.default_rng(2)
    u = rng.uniform(0.5, 2.0, g.cells)
    flux = diffusive_flux(u, g, p, phi=lambda w: np.ones_like(w))
    assert np.allclose(flux, grad_faces(u, g))


def test_diffusive_flux_rejects_negative():
    g = interval_grid()
    p = ksfv.ModelParams()
    u = np.ones(g.cells)
    u[3] = -1e-9
    with pytest.raises(DomainError):
        diffusive_flux(u, g, p)


def test_chemotactic_flux_zero_cases():
    g = interval_grid()
    p = ksfv.ModelParams(beta=2)
    u = np.ones(g.cells)
    assert np.all(chemotactic_flux(u, np.full(g.cells, 3.0), g, p) == 0.0)
    v = np.linspace(0, 1, g.cells)
    assert np.all(chemotactic_flux(np.zeros(g.cells), v, g, p) == 0.0)


def test_chemotactic_flux_donor_cell():
    # drift toward higher v takes the upstream (lower-v side) density
    g = interval_grid(8)
    p = ksfv.ModelParams(beta=1)
    u = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    v = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    flux = chemotactic_flux(u, v, g, p)
    # face 1 has dv = 1/h > 0: donor is cell 0 with u = 1
    assert flux[1] == pytest.approx(sensitivity(1.0, p) * (1.0 / g.h), rel=1e-14)
    # reversed gradient: donor is the right cell
    v2 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    flux2 = chemotactic_flux(u, v2, g, p)
    assert flux2[1] == pytest.approx(sensitivity(2.0, p) * (-1.0 / g.h), rel=1e-14)


def test_laplacian_consistency_radial():
    # r^2 has radial Laplacian 2n; interior cells converge at order >= 2
    for n in (2, 3):
        def err(cells):
            g = ball_grid(cells, n)
            lap = laplacian_apply(g.centers ** 2, g)
            interior = lap[1:-1]
            return float(np.max(np.abs(interior - 2.0 * n)))

        e1, e2 = err(32), err(64)
        assert e1 < 1e-10 or e1 / e2 > 3.5


def test_upwind_positivity_property():
    # forward-Euler with the CFL step keeps random nonnegative states nonnegative
    from ksfv.solver import cfl_dt, step
    from ksfv.core import State

    rng = np.random.default_rng(123)
    p = ksfv.ModelParams(alpha=1, beta=2, kappa=2, a=0.5, b=1.0, eps=0.05)
    for trial in range(25):
        cells = int(rng.integers(8, 40))
        kind = ksfv.INTERVAL if trial % 2 == 0 else ksfv.BALL
        n = 1 if kind == ksfv.INTERVAL else int(rng.integers(2, 4))
        g = ksfv.make_grid(ksfv.DomainSpec(kind, 1.0, n, cells))
        u = rng.uniform(0.0, 5.0, cells)
        u[rng.integers(0, cells)] = 0.0  # a vacuum cell
        v = rng.uniform(0.0, 3.0, cells)
        s = State(u, v, 0.0)
        # cfl <= 1/3 keeps the three additive rates jointly safe
        dt = cfl_dt(s, g, p, 0.3)
        new = step(s, dt, g, p)
        assert float(np.min(new.u)) >= 0.0
        assert float(np.min(new.v)) >= 0.0
