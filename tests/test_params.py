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


TABLES = pytest.mark.parametrize("table", [
    _bench_table(random.Random(7)),
    # irregular spacing, equal neighbours and a sign change
    ((-1.5, 2.0), (-0.2, 2.0), (0.0, -3.25), (1e-9, 0.5), (7.0, 1e3), (7.5, -0.1)),
], ids=["bench-table", "irregular"])


def _lookup_times(ts):
    """The samples, the midpoints, just inside and beyond both ends, and 10k uniform times."""
    rng = np.random.default_rng(20)
    return np.array([*ts, *(0.5 * (ts[1:] + ts[:-1])), ts[0] - 1.0, ts[0] - 1e-12,
                     ts[-1] + 1e-12, ts[-1] + 1.0,
                     *rng.uniform(ts[0] - 1.0, ts[-1] + 1.0, 10_000)])


def _assert_at_is(drive, times, want):
    """drive.at(times), and bind's X at each time, is `want`, bit for bit (repr tells
    -0.0 from 0.0)."""
    want = list(map(repr, want))
    assert list(map(repr, drive.at(times))) == want
    x_of_t = drive.bind()
    assert [repr(x_of_t(t, None, None)) for t in times.tolist()] == want


class TestPhysParams:
    def test_defaults(self):
        p = PhysParams()
        assert p.m == 1.0 and p.hbar == 1.0

    @pytest.mark.parametrize("bad", [
        dict(m=0.0), dict(m=-1.0), dict(hbar=0.0), dict(tau=0.0),
        dict(tau=-2.0), dict(omega=-1.0),
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
        # C_tau = 1/(4 tau^2), the one width coefficient
        assert PhysParams(tau=2.0).c_tau == 1.0 / 16.0
        assert PhysParams(tau=1.0).c_tau == 0.25


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
    def test_refuses_an_unknown_kind(self):
        with pytest.raises(ConfigurationError, match=r"^unknown drive kind 'square'$"):
            DriveSpec(kind="square")

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

    @TABLES
    def test_tabulated_lookup_is_np_interp_bitwise(self, table):
        ts = np.array([p[0] for p in table])
        xs = np.array([p[1] for p in table])
        drive = DriveSpec(kind="tabulated", table=table)
        for t in map(float, _lookup_times(ts)[:2 * len(ts) + 3]):  # samples, midpoints, ends
            assert drive.value(t) == float(np.interp(t, ts, xs)), t
        assert drive.at(np.array([ts[-1] + 1.0, ts[0] - 1.0])) == [xs[-1], xs[0]]
        assert drive.value(ts[-1] + 1.0) == xs[-1] and drive.value(ts[0] - 1.0) == xs[0]
        assert math.isnan(drive.at(np.array([math.nan]))[0]) and math.isnan(drive.value(math.nan))

    @pytest.mark.parametrize("x0", [2.5, -0.0])
    def test_at_zero_and_constant_are_bind(self, x0):
        times = np.linspace(-1.0, 3.0, 9)
        _assert_at_is(DriveSpec(kind="constant", x0=x0), times, [x0] * 9)
        _assert_at_is(DriveSpec(), times, [0.0] * 9)

    def test_at_sinusoid_is_bind(self):
        rng = np.random.default_rng(21)
        times = rng.uniform(-50.0, 50.0, 1000)
        want = [-1.3 * math.cos(0.7 * t + 0.4) for t in times.tolist()]
        _assert_at_is(DriveSpec(kind="sinusoid", x0=-1.3, freq=0.7, phase=0.4), times, want)

    def test_at_sinusoid_overflowing_phase_is_nan(self):
        # freq*t overflows to +-inf from |t| = 1.8, where math.cos raises: NaN there,
        # and no numpy warning
        d = DriveSpec(kind="sinusoid", x0=2.0, freq=1e308, phase=0.5)
        times = np.array([0.0, 1.0, 1.8, 2.0, -3.0])
        _assert_at_is(d, times, [2.0 * math.cos(0.5), 2.0 * math.cos(1e308 + 0.5)]
                      + [math.nan] * 3)

    @TABLES
    def test_at_tabulated_is_bind(self, table):
        ts = np.array([p[0] for p in table])
        xs = np.array([p[1] for p in table])
        times = _lookup_times(ts)
        want = [float(np.interp(t, ts, xs)) for t in times.tolist()]
        _assert_at_is(DriveSpec(kind="tabulated", table=table), times, want)

    @pytest.mark.parametrize("drive, bound", [
        (DriveSpec(x0=5.0), 0.0),
        (DriveSpec(kind="constant", x0=-2.0), 2.0),
        (DriveSpec(kind="sinusoid", x0=-0.5, freq=3.0), 0.5),
        (DriveSpec(kind="tabulated", x0=9.0, table=((0.0, 0.1), (1.0, -0.3))), 0.3),
        (DriveSpec(kind="conserving", x0=9.0), None),
    ], ids=["zero", "constant", "sinusoid", "tabulated", "conserving"])
    def test_x_bound_is_the_kinds_largest_x(self, drive, bound):
        assert drive.x_bound == bound

    def test_at_refuses_conserving(self):
        with pytest.raises(ConfigurationError, match="reads the state"):
            CONSERVING.at(np.zeros(3))

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
