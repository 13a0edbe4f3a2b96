import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ermakov_lab import (
    DriveSpec,
    ErmakovState,
    PhysParams,
    alpha_from_delta,
    delta_from_alpha,
    els_invariant_rate,
    integrate,
    lewis_invariant,
    measurement_rhs,
)
from ermakov_lab.errors import ConfigurationError, NumericalFailure

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=10, allow_nan=False)


# The classical Ermakov-Pinney pair is the reduced system at 1/tau = 0, lambda = 0.
P_CLASSICAL = PhysParams(tau=math.inf, lam=0.0)
ZERO = DriveSpec()
CONSERVING = DriveSpec(kind="conserving")
SINUSOID = DriveSpec(kind="sinusoid", x0=1.0, freq=0.7)


class TestClassicalRhs:
    def test_unit_stationary(self):
        s = ErmakovState(0, alpha=1, alphadot=0, xbar=1, xbardot=0)
        assert measurement_rhs(s, P_CLASSICAL, ZERO) == (0.0, -1.0)

    def test_free_amplitude(self):
        s = ErmakovState(0, alpha=2, alphadot=0, xbar=0, xbardot=1)
        add, xdd = measurement_rhs(s, PhysParams(tau=math.inf, omega=0.0), ZERO)
        assert xdd == 0.0
        assert add == pytest.approx(0.125)

    def test_modulated_at_zero(self):
        s = ErmakovState(0, alpha=1, alphadot=0, xbar=1, xbardot=0)
        p = PhysParams(tau=math.inf, eps=0.1, omega_m=1.0)
        add, xdd = measurement_rhs(s, p, ZERO)
        assert (xdd, add) == (pytest.approx(-1.0), pytest.approx(0.0))

    def test_nonfinite_rejected(self):
        s = ErmakovState(0, alpha=1, alphadot=0, xbar=math.nan, xbardot=0)
        with pytest.raises(NumericalFailure, match="non-finite state"):
            measurement_rhs(s, P_CLASSICAL, ZERO)


class TestLewisInvariant:
    def test_direct_values(self):
        assert lewis_invariant(1, 0, 1, 0) == pytest.approx(0.5)
        assert lewis_invariant(0, 2, 1, 0) == pytest.approx(2.0)

    def test_alpha_domain(self):
        with pytest.raises(ConfigurationError, match="alpha must be positive"):
            lewis_invariant(1, 0, 0, 0)

    def test_constant_along_closed_form(self):
        # omega = 1: q = cos t, alpha = 1 solve both equations; I = 0.5
        for t in np.linspace(0, 10, 37):
            assert lewis_invariant(math.cos(t), -math.sin(t), 1.0, 0.0) == \
                pytest.approx(0.5, abs=1e-14)


class TestMeasurementRhs:
    def test_classical_limit(self):
        p = PhysParams(tau=math.inf, lam=0.0, omega=1.0)
        s = ErmakovState(0, alpha=1, alphadot=0, xbar=0.3, xbardot=0)
        add, xdd = measurement_rhs(s, p, ZERO)
        assert add == pytest.approx(0.0)
        assert xdd == pytest.approx(-0.3)

    def test_damped_width(self):
        p = PhysParams(tau=1.0, omega=1.0)
        s = ErmakovState(0, alpha=1, alphadot=0, xbar=0, xbardot=0)
        add, _ = measurement_rhs(s, p, ZERO)
        assert add == pytest.approx(-0.25)

    def test_driven_centroid(self):
        p = PhysParams(tau=math.inf, m=1.0, lam=1.0, omega=1.0)
        s = ErmakovState(0, alpha=1, alphadot=0, xbar=1, xbardot=0)
        _, xdd = measurement_rhs(s, p, DriveSpec(kind="constant", x0=2.0))
        assert xdd == pytest.approx(-3.0)

    @given(alpha=positive, alphadot=finite, xbar=finite, xbardot=finite)
    @settings(max_examples=50, deadline=None)
    def test_limit_matches_classical_everywhere(self, alpha, alphadot, xbar, xbardot):
        # 1/tau = 0, lambda = 0 gives exactly q'' = -w2 q, alpha'' = 1/alpha^3 - w2 alpha
        p = PhysParams(tau=math.inf, lam=0.0, omega=1.3)
        s = ErmakovState(0.7, alpha, alphadot, xbar, xbardot)
        modulated = PhysParams(tau=math.inf, lam=0.0, omega=1.3, eps=0.1, omega_m=1.0)
        r = 1.0 / alpha
        for q, w2 in ((p, 1.3 * 1.3), (modulated, modulated.omega2(0.7))):
            add, xdd = measurement_rhs(s, q, ZERO)
            assert add == r * r * r - w2 * alpha
            assert xdd == -w2 * xbar


class TestElsInvariant:
    def test_direct_values(self):
        # lewis_invariant(xbar, xbardot, alpha, alphadot)
        assert lewis_invariant(1, 0, 1, 0) == pytest.approx(0.5)
        assert lewis_invariant(0, 0, 2, 0) == 0.0
        assert lewis_invariant(2, 3, 1, 1) == pytest.approx(2.5)

    @given(alpha=positive, alphadot=finite, xbar=finite, xbardot=finite)
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, alpha, alphadot, xbar, xbardot):
        assert lewis_invariant(xbar, xbardot, alpha, alphadot) >= 0.0


def rate(s, p, d):
    """els_invariant_rate at state s under drive d."""
    x_drive = d.value(s.t, p, s.alphadot / s.alpha, s.xbar)
    return els_invariant_rate(s.alpha, s.alphadot, s.xbar, s.xbardot, p, x_drive)


class TestInvariantRate:
    def test_direct_value(self):
        p = PhysParams(tau=1.0, lam=1.0, m=1.0)
        s = ErmakovState(0, alpha=1, alphadot=0, xbar=1, xbardot=1)
        assert rate(s, p, DriveSpec(kind="constant", x0=1.0)) == pytest.approx(-0.75)

    def test_zero_without_measurement_or_drive(self):
        p = PhysParams(tau=math.inf, lam=0.0)
        s = ErmakovState(0, alpha=1.7, alphadot=0.4, xbar=-2, xbardot=1.1)
        assert rate(s, p, ZERO) == 0.0

    @staticmethod
    def cancellation_bound(s, p):
        """1e-12 relative to the measurement term the conserving drive cancels."""
        r = s.alphadot / s.alpha
        term = (r * p.inv_tau + p.c_tau) * s.alpha * s.xbar \
            * (s.xbardot * s.alpha - s.xbar * s.alphadot)
        return 1e-12 * max(1.0, abs(term))

    @given(alpha=positive, alphadot=finite, xbar=finite, xbardot=finite)
    @example(alpha=9.25, alphadot=9.5, xbar=9.5, xbardot=-1.0)
    @settings(max_examples=50, deadline=None)
    def test_conserving_drive_zeroes_rate(self, alpha, alphadot, xbar, xbardot):
        p = PhysParams(tau=2.0, lam=0.8)
        s = ErmakovState(0, alpha, alphadot, xbar, xbardot)
        assert abs(rate(s, p, CONSERVING)) <= self.cancellation_bound(s, p)

    def test_detuned_drive_exceeds_cancellation_bound(self):
        # 0.1 % off the conserving drive, at the point with a -5036 cancelling term
        p = PhysParams(tau=2.0, lam=0.8)
        s = ErmakovState(0, alpha=9.25, alphadot=9.5, xbar=9.5, xbardot=-1.0)
        x_cons = CONSERVING.value(s.t, p, s.alphadot / s.alpha, s.xbar)
        detuned = DriveSpec(kind="constant", x0=1.001 * x_cons)
        detuned_rate = rate(s, p, detuned)
        assert detuned_rate == pytest.approx(5.04, rel=1e-2)
        assert abs(detuned_rate) > self.cancellation_bound(s, p)

    def test_regular_at_xbar_zero(self):
        p = PhysParams(tau=1.0, lam=1.0)
        s = ErmakovState(0, alpha=1, alphadot=0.5, xbar=0.0, xbardot=1.0)
        d = DriveSpec(kind="constant", x0=1.0)
        assert math.isfinite(rate(s, p, d))

    def test_matches_finite_difference_along_trajectory(self):
        p = PhysParams(tau=2.0, lam=1.0)
        init = ErmakovState(0, 1, 0, 1, 0)
        traj = integrate(init, p,
                         drive=SINUSOID, t_end=5.0, dt=1e-3)
        fd = np.gradient(traj.invariant, traj.t)[1:-1]
        scale = np.max(np.abs(traj.dIdt_analytic))
        assert np.max(np.abs(fd - traj.dIdt_analytic[1:-1])) / scale < 1e-4


class TestConservingDrive:
    # value(t, params, alphadot / alpha, xbar)
    def test_proportional_to_xbar(self):
        p = PhysParams(tau=1.0, lam=2.0)
        assert CONSERVING.value(0, p, 1.0, 0.0) == 0.0

    def test_direct_value(self):
        p = PhysParams(tau=1.0, lam=2.0, m=1.0)
        assert CONSERVING.value(0, p, 1.0, 3.0) == pytest.approx(1.875)

    def test_requires_coupling(self):
        with pytest.raises(ConfigurationError, match="requires lambda != 0"):
            CONSERVING.value(0, PhysParams(tau=1.0, lam=0.0), 0.0, 1.0)


class TestWidthMap:
    def test_direct_values(self):
        p = PhysParams(tau=1.0)
        assert delta_from_alpha(1.0, p) == pytest.approx(2 ** -0.5)
        assert delta_from_alpha(1.0, PhysParams(tau=1.0, hbar=2.0)) == pytest.approx(1.0)

    @given(alpha=positive)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, alpha):
        p = PhysParams(tau=1.0, m=1.3, hbar=0.7)
        assert alpha_from_delta(delta_from_alpha(alpha, p), p) == \
            pytest.approx(alpha, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ConfigurationError, match="alpha must be positive"):
            delta_from_alpha(-1.0, PhysParams(tau=1.0))
        with pytest.raises(ConfigurationError, match="delta must be positive"):
            alpha_from_delta(0.0, PhysParams(tau=1.0))


class TestIntegrate:
    def test_classical_closed_form(self):
        # omega = 1 from (1, 0, 1, 0): q = cos t, alpha = 1, I = 0.5
        p = PhysParams(tau=math.inf)
        traj = integrate(ErmakovState(0, 1, 0, 1, 0), p, t_end=50, dt=1e-3)
        assert np.max(np.abs(traj.invariant - 0.5)) < 5e-7
        assert np.max(np.abs(traj.x - np.cos(traj.t))) < 1e-9

    def test_rk4_order(self):
        # step halving shrinks successive endpoint differences ~16x
        p = PhysParams(tau=0.5, lam=1.0, omega=3.0)
        init = ErmakovState(0, 1, 0, 1, 0)

        def endpoint(dt):
            tr = integrate(init, p,
                           drive=SINUSOID, t_end=20, dt=dt)
            return np.array([tr.alpha[-1], tr.alphadot[-1], tr.x[-1], tr.xdot[-1]])

        d1 = np.linalg.norm(endpoint(1e-3) - endpoint(5e-4))
        d2 = np.linalg.norm(endpoint(5e-4) - endpoint(2.5e-4))
        assert 12 < d1 / d2 < 20

    def test_records_are_uniform_and_monotone(self):
        p = PhysParams(tau=2.0)
        traj = integrate(ErmakovState(0, 1, 0, 1, 0), p,
                         drive=ZERO, t_end=1.0, dt=1e-3, stride=10)
        dts = np.diff(traj.t)
        assert np.all(dts > 0)
        assert np.allclose(dts, dts[0])

    @pytest.mark.parametrize("t0, t_end, dt, ratio", [
        (0.0, 1.0, 0.3, "3.333333333"),
        (0.5, 1.0, 0.3, "1.666666667"),
        (0.0, 1.0, 3.0, "0.3333333333"),  # less than one step
        (0.0, math.inf, 0.1, "inf"),
    ])
    def test_refuses_a_span_of_no_whole_number_of_steps(self, t0, t_end, dt, ratio):
        p = PhysParams(tau=2.0, lam=1.0)
        with pytest.raises(ConfigurationError, match=rf"\(t_end - t0\) / dt = {ratio} "
                                                     "is not a whole number of steps"):
            integrate(ErmakovState(t0, 1, 0, 1, 0), p, drive=SINUSOID, t_end=t_end, dt=dt)

    def test_whole_step_count_keeps_uniform_steps(self):
        # 0.7 / 0.1 = 6.999999999999999 rounds to 7 steps of exactly dt
        tr = integrate(ErmakovState(0, 1, 0, 1, 0), PhysParams(tau=2.0),
                       drive=ZERO, t_end=0.7, dt=0.1)
        assert list(tr.t) == [i * 0.1 for i in range(8)]

    def test_width_collapse_aborts_with_partial(self):
        p = PhysParams(tau=2.0)
        init = ErmakovState(0, alpha=2e-8, alphadot=-1.0, xbar=0, xbardot=0)
        with pytest.raises(NumericalFailure, match="below collapse floor") as exc:
            integrate(init, p, drive=ZERO,
                      t_end=1.0, dt=1e-3)
        partial = exc.value.partial
        assert partial is not None and len(partial) >= 1
        assert partial.alpha[0] == pytest.approx(2e-8)

    def test_alpha_crossing_zero_within_a_step_aborts_with_partial(self):
        # every stage keeps alpha > 0, the step's result does not
        init = ErmakovState(0, 0.9517489413280635, -14.948306159992022, 1, 0)
        with pytest.raises(NumericalFailure, match="below collapse floor") as exc:
            integrate(init, PhysParams(tau=math.inf), t_end=0.1, dt=0.1)
        assert list(exc.value.partial.t) == [0.0]

    # xbardot * alpha overflows in the invariant of the first row
    @pytest.mark.parametrize("init", [ErmakovState(0, 1e160, 0, 1, 1e150),
                                      ErmakovState(0, 1, 0, 1, 1e160)])
    def test_overflow_at_the_first_record_aborts(self, init):
        p = PhysParams(tau=2.0, lam=1.0)
        with pytest.raises(NumericalFailure, match="at t~0") as exc:
            integrate(init, p, drive=CONSERVING, t_end=1.0, dt=1e-3)
        assert len(exc.value.partial) == 0

    def test_huge_width_runs(self):
        # alpha^3 = 1e465 is beyond the float range; (1/alpha)^3 underflows to 0
        traj = integrate(ErmakovState(0, 1e155, 1e150, 1, 0), PhysParams(tau=2.0, lam=1.0),
                         drive=CONSERVING, t_end=1.0, dt=1e-3, stride=10)
        assert len(traj) == 101
        assert all(np.all(np.isfinite(col)) for col in vars(traj).values())

    @staticmethod
    def count_drive_calls(monkeypatch, drive):
        calls = []
        bind = DriveSpec.bind

        def counting_bind(self, params=None):
            x_of = bind(self, params)
            return lambda *a: calls.append(a) or x_of(*a)
        monkeypatch.setattr(DriveSpec, "bind", counting_bind)
        integrate(ErmakovState(0, 1, 0, 1, 0), PhysParams(tau=2.0, lam=1.0),
                  drive=drive, t_end=1.0, dt=0.1, stride=5)
        return len(calls)

    def test_drive_evaluated_once_per_stage_and_row(self, monkeypatch):
        assert self.count_drive_calls(monkeypatch, CONSERVING) == 4 * 10 + 3

    def test_time_only_drive_evaluated_once_per_stage_time_and_row(self, monkeypatch):
        # stages 2 and 3 share the one X at t + dt/2
        assert self.count_drive_calls(monkeypatch, SINUSOID) == 3 * 10 + 3

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("drive", [
        ZERO, DriveSpec(kind="constant", x0=0.7), SINUSOID, CONSERVING,
        DriveSpec(kind="tabulated", table=((0.0, 0.2), (0.33, -0.4), (4.0, 0.9), (9.0, -0.3))),
    ], ids=lambda d: d.kind)
    def test_step_equals_rk4_of_measurement_rhs(self, drive, eps):
        # the stages integrate writes out are measurement_rhs, to the last bit; a
        # reordered operand in one stage moves only some steps' last bits, so each
        # of 100 steps is checked against its own reference step
        p = PhysParams(tau=2.0, lam=1.0, eps=eps, omega_m=1.3)
        dt = 0.1
        half, sixth = 0.5 * dt, dt / 6.0

        def slope(t, a, ad, x, xd):
            add, xdd = measurement_rhs(ErmakovState(t, a, ad, x, xd), p, drive)
            return ad, add, xd, xdd

        def rk4_step(t, y):
            k1 = slope(t, *y)
            k2 = slope(t + half, *(u + half * k for u, k in zip(y, k1)))
            k3 = slope(t + half, *(u + half * k for u, k in zip(y, k2)))
            k4 = slope(t + dt, *(u + dt * k for u, k in zip(y, k3)))
            return [u + sixth * (a + 2.0 * b + 2.0 * c + d)
                    for u, a, b, c, d in zip(y, k1, k2, k3, k4)]

        tr = integrate(ErmakovState(0.3, 1.2, -0.4, 0.9, 0.5), p, drive=drive,
                       t_end=10.3, dt=dt)
        rows = np.column_stack((tr.t, tr.alpha, tr.alphadot, tr.x, tr.xdot)).tolist()
        for (t, *y), (_, *y_next) in zip(rows, rows[1:]):
            assert rk4_step(t, y) == y_next

    def test_deterministic(self):
        p = PhysParams(tau=2.0, lam=1.0)
        args = dict(drive=SINUSOID, t_end=2.0, dt=1e-3)
        t1 = integrate(ErmakovState(0, 1, 0, 1, 0), p, **args)
        t2 = integrate(ErmakovState(0, 1, 0, 1, 0), p, **args)
        assert np.array_equal(t1.invariant, t2.invariant)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_refuses_bad_dt(self, dt):
        # dt = inf would take no step and return the initial row alone
        with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
            integrate(ErmakovState(0, 1, 0, 1, 0), PhysParams(tau=2.0), t_end=1.0, dt=dt)

    def test_rejects_bad_numerics(self):
        p = PhysParams(tau=2.0)
        init = ErmakovState(0, 1, 0, 1, 0)
        with pytest.raises(ConfigurationError):
            integrate(init, p, drive=ZERO,
                      t_end=1.0, dt=-1e-3)
        with pytest.raises(ConfigurationError):
            integrate(init, p, drive=ZERO,
                      t_end=-1.0, dt=1e-3)
