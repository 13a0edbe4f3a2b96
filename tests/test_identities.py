import math
from dataclasses import replace

import numpy as np
import pytest

from ermakov_lab import PhysParams
from ermakov_lab.errors import ConfigurationError
from ermakov_lab.identities import (
    AnsatzSlice,
    _cumulative_simpson,
    check_coefficient_expansion,
    check_k0_gaussian,
    check_velocity_ansatz,
)

SLICE = AnsatzSlice(delta=1.0, deltadot=0.3, xbardot=0.2, tau=1.0)


@pytest.mark.parametrize("n", [101, 100])
def test_simpson_helpers_match_scipy(n):
    from scipy.integrate import cumulative_simpson, simpson
    x, h = np.linspace(-1.0, 2.0, n, retstep=True)
    f = np.exp(-x * x) * np.cos(3.0 * x)
    assert abs(_cumulative_simpson(f, h)[-1] - simpson(f, x=x)) <= 1e-12
    assert np.max(np.abs(_cumulative_simpson(f, h)
                         - cumulative_simpson(f, x=x, initial=0.0))) <= 1e-12


@pytest.mark.parametrize("field, message", [("delta", "delta must be positive"),
                                            ("tau", "tau must be positive")])
def test_slice_refuses_a_nonpositive_width_or_tau(field, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        replace(SLICE, **{field: 0.0})


class TestK0Gaussian:
    def test_width_two(self):
        # slope scales as delta^-4: k(0) = 1/64 at delta = 2
        assert check_k0_gaussian(2.0) <= 1e-6

    def test_slope_value_recovered(self):
        # independent fit of the bracket over the sample window
        a = AnsatzSlice(delta=2.0)
        xs = np.linspace(-6, 6, 101)
        h = 1e-3
        rho = a.rho
        d1 = (rho(xs - 2 * h) - 8 * rho(xs - h) + 8 * rho(xs + h)
              - rho(xs + 2 * h)) / (12 * h)
        d2 = (-rho(xs - 2 * h) + 16 * rho(xs - h) - 30 * rho(xs)
              + 16 * rho(xs + h) - rho(xs + 2 * h)) / (12 * h * h)
        d3 = (-rho(xs - 2 * h) + 2 * rho(xs - h) - 2 * rho(xs + h)
              + rho(xs + 2 * h)) / (2 * h ** 3)
        r = rho(xs)
        bracket = 0.25 * (d3 / r - 2 * d1 * d2 / r ** 2 + (d1 / r) ** 3)
        slope = np.polyfit(xs, bracket, 1)[0]
        assert slope == pytest.approx(1.0 / 64.0, rel=1e-4)

    def test_odd_symmetry_at_center(self):
        a = AnsatzSlice(delta=1.0)
        h = 1e-3
        rho = a.rho
        d3 = (-rho(-2 * h) + 2 * rho(-h) - 2 * rho(h) + rho(2 * h)) / (2 * h ** 3)
        assert d3 == pytest.approx(0.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ConfigurationError, match="delta0 must be positive"):
            check_k0_gaussian(-1.0)


class TestIntegratingFactor:
    def test_stationary_at_center(self):
        xs = np.array([SLICE.xbar - 0.5, SLICE.xbar, SLICE.xbar + 0.5])
        u = SLICE.u_factor(xs)
        assert u[1] > u[0] and u[1] > u[2]


class TestDecompositionIntegrals:
    def test_zero_width_rate_trivializes_first(self):
        a = AnsatzSlice(delta=1.0, deltadot=0.0, xbardot=0.2, tau=1.0)
        xs = np.linspace(-4, 4, 33)
        w = (np.pi * a.delta ** 2) ** 0.5
        integrand = (a.deltadot / a.delta
                     - a.deltadot / a.delta ** 3 * xs ** 2) * w * a.rho(xs)
        assert np.max(np.abs(integrand)) == 0.0

    def test_window_insensitivity(self):
        # widening the quadrature window cannot move the Gaussian tails
        from scipy.integrate import simpson
        a = SLICE
        w = (np.pi * a.delta ** 2) ** 0.5
        vals = []
        for half in (8.0, 12.0):
            grid = np.linspace(-half * a.delta, half * a.delta, 8001)
            integrand = (-grid ** 2 / (2 * a.tau * a.delta ** 2)
                         + 1 / (2 * a.tau)) * w * a.rho(grid)
            vals.append(simpson(integrand, x=grid))
        assert abs(vals[0] - vals[1]) < 1e-12


class TestVelocityAnsatz:
    def test_gauge_term_diverges(self):
        # a gauge term c/u grows like 1/rho: by e^10 from 4 delta to 6 delta
        d = SLICE.delta
        ratio = SLICE.u_factor(SLICE.xbar + 4 * d) / SLICE.u_factor(SLICE.xbar + 6 * d)
        assert ratio == pytest.approx(math.exp(10.0), rel=1e-12)

    def test_no_measurement_limit(self):
        a = AnsatzSlice(delta=1.0, deltadot=0.3, xbardot=0.2, tau=1e12)
        xs = np.linspace(-4, 4, 33)
        # the sink-free field is the tau = inf slice
        assert np.max(np.abs(a.velocity(xs) - replace(a, tau=math.inf).velocity(xs))) < 1e-11


class TestCoefficientExpansion:
    def test_needs_finite_tau(self):
        with pytest.raises(ConfigurationError):
            check_coefficient_expansion(1.0, 0.3, 0.5, 0.2, PhysParams(tau=math.inf))


class TestDeterminism:
    def test_reports_reproduce_bitwise(self):
        a = check_k0_gaussian(1.3)
        b = check_k0_gaussian(1.3)
        assert a == b
        r1 = check_velocity_ansatz(SLICE)
        r2 = check_velocity_ansatz(SLICE)
        assert r1 == r2
