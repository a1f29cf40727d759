import math

import pytest
from scipy.integrate import quad

from ksfv.errors import DivergenceError, QuadratureError
from ksfv.quadrature import adaptive_simpson, improper_power_integral


@pytest.mark.parametrize(
    "f,a,b,exact",
    [
        (lambda x: x * x, 0.0, 2.0, 8.0 / 3.0),
        (lambda x: math.sin(x), 0.0, math.pi, 2.0),
        (lambda x: math.exp(-x), 0.0, 50.0, 1.0 - math.exp(-50.0)),
        (lambda x: 1.0 / math.sqrt(x + 1e-6), 0.0, 1.0, 2.0 * (math.sqrt(1.0 + 1e-6) - math.sqrt(1e-6))),
    ],
)
def test_adaptive_simpson_analytic(f, a, b, exact):
    assert adaptive_simpson(f, a, b, 1e-12) == pytest.approx(exact, abs=5e-11)


def test_adaptive_simpson_vs_scipy():
    f = lambda x: math.log1p(x) / (x * x + 0.3)
    mine = adaptive_simpson(f, 0.1, 7.0, 1e-12)
    ref, _ = quad(f, 0.1, 7.0, epsabs=1e-13, epsrel=1e-13)
    assert mine == pytest.approx(ref, abs=1e-12)


def test_adaptive_simpson_orientation():
    f = lambda x: x
    assert adaptive_simpson(f, 1.0, 0.0, 1e-12) == pytest.approx(-0.5, abs=1e-13)
    assert adaptive_simpson(f, 1.0, 1.0, 1e-12) == 0.0


def test_moment_integral_closed_forms():
    # antiderivative -1/2 (1+s^2)^-1 gives 1/2; arctan gives pi/2;
    # s = tan(theta) reduces A(3,5) to int sin^2 cos = 1/3
    assert abs(improper_power_integral(2, 4) - 0.5) <= 1e-10
    assert abs(improper_power_integral(1, 2) - math.pi / 2.0) <= 1e-10
    assert abs(improper_power_integral(3, 5) - 1.0 / 3.0) <= 1e-10


def test_moment_integral_beta_function():
    # independent closed form: A(N, lam) = Gamma(N/2) Gamma((lam-N)/2) / (2 Gamma(lam/2))
    for N, lam in [(2.0, 4.0), (3.0, 7.5), (0.7, 2.2), (4.0, 9.0)]:
        exact = (
            math.gamma(N / 2.0)
            * math.gamma((lam - N) / 2.0)
            / (2.0 * math.gamma(lam / 2.0))
        )
        assert improper_power_integral(N, lam) == pytest.approx(exact, abs=2e-10)


def test_moment_integral_divergent():
    with pytest.raises(DivergenceError):
        improper_power_integral(3, 3)
    with pytest.raises(DivergenceError):
        improper_power_integral(4, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_raises_at_once(bad):
    calls = []

    def f(x):
        calls.append(x)
        return bad if x > 0.3 else 1.0

    with pytest.raises(QuadratureError, match="non-finite integrand"):
        adaptive_simpson(f, 0.0, 1.0, 1e-10)
    assert len(calls) == 5
