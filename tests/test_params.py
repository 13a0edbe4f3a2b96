import math
import random

import numpy as np
import pytest

from ermakov_lab import DriveSpec, PhysParams, TAU_INFINITE
from ermakov_lab.errors import ConfigurationError

CONSERVING = DriveSpec(kind="conserving")


def _bench_table(rng):
    """101 samples 0.04 apart, drawn as the ode_sweep benchmark draws them."""
    return tuple((round(0.04 * k, 10), round(rng.uniform(-0.5, 0.5), 6)) for k in range(101))


class TestPhysParams:
    def test_defaults(self):
        p = PhysParams()
        assert p.m == 1.0 and p.hbar == 1.0
        assert p.coeff_variant == "consistent"

    @pytest.mark.parametrize("bad", [
        dict(m=0.0), dict(m=-1.0), dict(hbar=0.0), dict(tau=0.0),
        dict(tau=-2.0), dict(omega=-1.0), dict(coeff_variant="typo"),
        dict(m=math.inf), dict(hbar=math.nan), dict(omega=math.inf),
        dict(lam=math.nan), dict(lam=math.inf), dict(tau=math.nan),
        # the ode's drive term reads lambda/m, and inf * 0 is NaN under the zero drive
        dict(lam=1e300, m=1e-10), dict(lam=-1e300, m=1e-10),
    ])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ConfigurationError):
            PhysParams(**bad)

    def test_lambda_over_m_just_inside_the_float_range(self):
        p = PhysParams(lam=1.7e300, m=1e-8)
        assert p.lam / p.m == pytest.approx(1.7e308)
        with pytest.raises(ConfigurationError, match=r"lambda/m = 1\.8e\+300/1e-08"):
            PhysParams(lam=1.8e300, m=1e-8)

    def test_infinite_tau_sentinel(self):
        p = PhysParams(tau=TAU_INFINITE)
        assert p.inv_tau == 0.0
        assert p.c_tau == 0.0

    def test_coeff_variants(self):
        assert PhysParams(tau=2.0).c_tau == pytest.approx(1.0 / 16.0)
        assert PhysParams(tau=2.0, coeff_variant="paper_literal").c_tau == \
            pytest.approx(1.0 / 64.0)
        # the variants coincide at tau = 1
        assert PhysParams(tau=1.0).c_tau == \
            PhysParams(tau=1.0, coeff_variant="paper_literal").c_tau


class TestOmegaSpec:
    """The omega_spec modulation, PhysParams' eps and omega_m."""

    def test_constant(self):
        p = PhysParams(omega=2.0)
        assert p.omega2(17.3) == 4.0

    def test_sinusoidal(self):
        p = PhysParams(omega=1.0, eps=0.1, omega_m=1.0)
        assert p.omega2(0.0) == pytest.approx(1.0)
        assert p.omega2(math.pi / 2) == pytest.approx(1.1)

    def test_modulation_depth_bound(self):
        with pytest.raises(ConfigurationError):
            PhysParams(omega=1.0, eps=1.0, omega_m=1.0)


class TestDriveSpec:
    def test_zero_and_constant(self):
        assert DriveSpec().value(3.0) == 0.0
        assert DriveSpec(kind="constant", x0=2.5).value(3.0) == 2.5

    def test_sinusoid(self):
        d = DriveSpec(kind="sinusoid", x0=2.0, freq=0.7, phase=0.1)
        assert d.value(1.3) == pytest.approx(2.0 * math.cos(0.7 * 1.3 + 0.1))

    def test_tabulated_interpolation(self):
        d = DriveSpec(kind="tabulated", table=((0.0, 0.0), (1.0, 2.0), (3.0, 2.0)))
        assert d.value(0.5) == pytest.approx(1.0)
        assert d.value(2.0) == pytest.approx(2.0)

    def test_tabulated_requires_increasing_times(self):
        with pytest.raises(ConfigurationError):
            DriveSpec(kind="tabulated", table=((0.0, 0.0), (0.0, 1.0)))

    @pytest.mark.parametrize("table", [((0.0, 0.0), (1.0, math.inf)),
                                       ((0.0, 0.0), (math.nan, 1.0))])
    def test_tabulated_requires_finite_samples(self, table):
        with pytest.raises(ConfigurationError, match="finite"):
            DriveSpec(kind="tabulated", table=table)

    @pytest.mark.parametrize("table", [
        _bench_table(random.Random(7)),
        # irregular spacing, equal neighbours and a sign change
        ((-1.5, 2.0), (-0.2, 2.0), (0.0, -3.25), (1e-9, 0.5), (7.0, 1e3), (7.5, -0.1)),
    ], ids=["bench-table", "irregular"])
    def test_tabulated_lookup_is_np_interp_bitwise(self, table):
        ts = np.array([p[0] for p in table])
        xs = np.array([p[1] for p in table])
        rng = np.random.default_rng(20)
        times = [*ts, *(0.5 * (ts[1:] + ts[:-1])), ts[0] - 1.0, ts[0] - 1e-12,
                 ts[-1] + 1e-12, ts[-1] + 1.0,
                 *rng.uniform(ts[0] - 1.0, ts[-1] + 1.0, 10_000)]
        drive = DriveSpec(kind="tabulated", table=table)
        x_of_t = drive.bind()
        for t in map(float, times):
            assert x_of_t(t, None, None) == float(np.interp(t, ts, xs)), t
        assert drive.value(ts[-1] + 1.0) == xs[-1] and drive.value(ts[0] - 1.0) == xs[0]
        assert math.isnan(x_of_t(math.nan, None, None))

    def test_conserving_needs_state(self):
        with pytest.raises(ConfigurationError):
            CONSERVING.value(0.0)

    def test_conserving_feedback(self):
        p = PhysParams(m=1.5, lam=0.5, tau=2.0)
        x = CONSERVING.value(0.0, p, log_width_rate=0.3, xbar=2.0)
        assert x == pytest.approx((1.5 / 0.5) * (0.3 / 2.0 + 1.0 / 16.0) * 2.0)

    @pytest.mark.parametrize("missing", ["params", "log_width_rate", "xbar"])
    def test_conserving_needs_every_input(self, missing):
        kwargs = dict(params=PhysParams(lam=1.0, tau=2.0), log_width_rate=0.3, xbar=2.0)
        kwargs[missing] = None
        with pytest.raises(ConfigurationError):
            CONSERVING.value(0.0, **kwargs)

    def test_conserving_requires_coupling(self):
        with pytest.raises(ConfigurationError, match=r"requires lambda != 0"):
            CONSERVING.value(0.0, PhysParams(tau=2.0), 0.3, 2.0)
