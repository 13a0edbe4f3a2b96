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
from ermakov_lab.params import BLOCK_STEPS

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=10, allow_nan=False)


# The classical Ermakov-Pinney pair is the reduced system at 1/tau = 0, lambda = 0.
P_CLASSICAL = PhysParams(tau=math.inf, lam=0.0)
ZERO = DriveSpec()
CONSERVING = DriveSpec(kind="conserving")
SINUSOID = DriveSpec(kind="sinusoid", x0=1.0, freq=0.7)
TABULATED = DriveSpec(kind="tabulated", table=((0.0, 0.2), (0.33, -0.4), (4.0, 0.9), (9.0, -0.3)))


def random_states(seed, n=50):
    """Arrays alpha, alphadot, xbar, xbardot of n seeded states, alpha in [0.1, 3]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 3.0, n), *rng.uniform(-2.0, 2.0, (3, n))


def assert_elementwise(f, arrays, alpha):
    """f on arrays is f on each entry's floats, bit for bit, and refuses any alpha <= 0."""
    want = [f(*row) for row in zip(*(a.tolist() for a in arrays))]
    assert f(*arrays).tolist() == want
    for bad in (0.0, -1.0):
        alpha[7] = bad
        with pytest.raises(ConfigurationError, match="alpha must be positive"):
            f(*arrays)


def rk4_of_measurement_rhs(p, drive, dt):
    """One RK4 step of measurement_rhs, each of its four slopes one call: the
    reference that integrate's written-out stages must equal to the last bit."""
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
    return rk4_step


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

    def test_collapse_rejected(self):
        s = ErmakovState(0, alpha=5e-9, alphadot=0, xbar=1, xbardot=0)
        with pytest.raises(NumericalFailure, match=r"^alpha=5e-09 below collapse floor 1e-08$"):
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

    def test_arrays(self):
        alpha, alphadot, xbar, xbardot = random_states(31)
        assert_elementwise(lewis_invariant, (xbar, xbardot, alpha, alphadot), alpha)


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

    def test_arrays(self):
        p = PhysParams(tau=2.0, lam=0.8, m=1.3)
        alpha, alphadot, xbar, xbardot = random_states(32)
        x_drive = np.random.default_rng(33).uniform(-1.0, 1.0, alpha.size)

        def f(alpha, alphadot, xbar, xbardot, x_drive):
            return els_invariant_rate(alpha, alphadot, xbar, xbardot, p, x_drive)
        assert_elementwise(f, (alpha, alphadot, xbar, xbardot, x_drive), alpha)

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

    def test_arrays(self):
        p = PhysParams(tau=1.0, m=1.3, hbar=0.7)
        alpha = random_states(34)[0]
        assert_elementwise(lambda a: delta_from_alpha(a, p), (alpha,), alpha)

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

    def test_refuses_a_stride_below_one(self):
        with pytest.raises(ConfigurationError, match=r"^stride must be >= 1$"):
            integrate(ErmakovState(0, 1, 0, 1, 0), PhysParams(tau=2.0), t_end=1.0, dt=0.1,
                      stride=0)

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

    def test_initial_collapse_aborts_with_the_first_row(self):
        # the initial alpha is checked once, before the loop: a start no step can take
        # is bad input, as cli.resolve refuses it
        init = ErmakovState(0.0, 5e-9, 0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError, match=r"^initial alpha=5e-09 below collapse "
                                                     r"floor 1e-08$"):
            integrate(init, PhysParams(tau=2.0), t_end=1.0, dt=1e-3)

    def test_alpha_crossing_zero_within_a_step_aborts_with_partial(self):
        # every stage keeps alpha > 0, the step's result does not
        init = ErmakovState(0, 0.9517489413280635, -14.948306159992022, 1, 0)
        with pytest.raises(NumericalFailure, match="below collapse floor") as exc:
            integrate(init, PhysParams(tau=math.inf), t_end=0.1, dt=0.1)
        assert list(exc.value.partial.t) == [0.0]

    # xbardot * alpha overflows in the invariant of the first row: the set-up forms that
    # row before the loop and refuses it as bad input, so no failure's partial is empty
    @pytest.mark.parametrize("init", [ErmakovState(0, 1e160, 0, 1, 1e150),
                                      ErmakovState(0, 1, 0, 1, 1e160)])
    def test_overflow_at_the_first_record_aborts(self, init):
        p = PhysParams(tau=2.0, lam=1.0)
        with pytest.raises(ConfigurationError, match=r"^initial state is not representable: "
                                                     r"non-finite value in the row recorded "
                                                     r"at t=0$"):
            integrate(init, p, drive=CONSERVING, t_end=1.0, dt=1e-3)

    def test_overflow_mid_run_aborts_at_that_row(self):
        # X = -1e153 pushes the centroid until (xbardot alpha - alphadot xbar)^2 in the
        # invariant overflows at t = 5; the loop itself runs to t_end
        p = PhysParams(omega=0.0, tau=math.inf, lam=1.0)
        push = DriveSpec(kind="constant", x0=-1e153)
        init = ErmakovState(0.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(NumericalFailure, match=r"at t~5\.0: non-finite value in the "
                                                   r"row recorded at t=5\.0$") as exc:
            integrate(init, p, drive=push, t_end=10.0, dt=0.1)
        partial = exc.value.partial
        before = integrate(init, p, drive=push, t_end=4.9, dt=0.1)
        assert len(partial) == len(before) == 50
        assert all(np.array_equal(getattr(partial, k), getattr(before, k)) for k in vars(before))

    def test_bad_row_wins_over_a_later_collapse(self):
        # dt/tau = 2.9 is past RK4's stability limit, so the width oscillates ever
        # wider and collapses in the step from t = 0.3; at xbar = 1e154 the invariant
        # overflows once |alphadot| > 1.34, in the row at t = 0.1
        p = PhysParams(tau=0.0345)
        with pytest.raises(NumericalFailure, match=r"at t~0\.3\d*: alpha=.* below collapse"):
            integrate(ErmakovState(0.0, 1.0, 0.0, 1.0, 0.0), p, t_end=1.0, dt=0.1)
        with pytest.raises(NumericalFailure, match=r"at t~0\.1: non-finite value in the "
                                                   r"row recorded at t=0\.1$") as exc:
            integrate(ErmakovState(0.0, 1.0, 0.0, 1e154, 0.0), p, t_end=1.0, dt=0.1)
        assert list(exc.value.partial.t) == [0.0]

    # From t0 = 0.3 at dt = 0.1, at a stride that records none of the failing steps:
    # each message is pinned whole, so the time it names is formed as t0 + i dt, with
    # i the failing step's start for a stage, its end for the step's result
    @pytest.mark.parametrize("init, p, drive, stride, message, clean_steps", [
        # dt/tau = 3.8 is past RK4's stability limit; a stage of the step from
        # t = 0.3 + 3 * 0.1 collapses
        pytest.param(ErmakovState(0.3, 1.0, 0.0, 1.0, 0.0), PhysParams(tau=0.0264), ZERO, 2,
                     "integration aborted at t~0.6000000000000001: alpha=-34.81876981328189 "
                     "below collapse floor 1e-08", 2, id="stage-collapse"),
        # every stage of the step from t = 0.5 keeps alpha, its result does not
        pytest.param(ErmakovState(0.3, 1.0, 0.0, 1.0, 0.0), PhysParams(tau=0.0271), ZERO, 2,
                     "integration aborted at t~0.6000000000000001: alpha=-0.04719563077135769 "
                     "below collapse floor 1e-08", 2, id="step-end-collapse"),
        # X ramps to 1e308 from t = 0.65: 2 xbar'' of the step from t = 0.6000000000000001
        # overflows, and its result xbardot is -inf
        pytest.param(ErmakovState(0.3, 1.0, 0.0, 1.0, 0.0), PhysParams(tau=2.0, lam=1.0),
                     DriveSpec(kind="tabulated", table=((0.0, 0.0), (0.65, 0.0), (0.7, 1e308))),
                     3, "integration aborted at t~0.7: non-finite state at t=0.7", 3,
                     id="step-end-non-finite"),
        # a start below the floor is refused before the loop, as bad input
        pytest.param(ErmakovState(0.3, 5e-9, 0.0, 1.0, 0.0), PhysParams(tau=2.0), ZERO, 4,
                     "initial alpha=5e-09 below collapse floor 1e-08",
                     None, id="initial-collapse"),
    ])
    def test_failure_time_at_a_stride(self, init, p, drive, stride, message, clean_steps):
        error = ConfigurationError if clean_steps is None else NumericalFailure
        with pytest.raises(error) as exc:
            integrate(init, p, drive=drive, t_end=1.3, dt=0.1, stride=stride)
        assert str(exc.value) == message
        if clean_steps is not None:  # the rows a run that stops before the failing step records
            clean = integrate(init, p, drive=drive, t_end=0.3 + clean_steps * 0.1, dt=0.1,
                              stride=stride)
            partial = exc.value.partial
            assert len(partial) == 2
            assert all(getattr(partial, k).tobytes() == getattr(clean, k).tobytes()
                       for k in vars(clean))

    def test_huge_width_runs(self):
        # alpha^3 = 1e465 is beyond the float range; (1/alpha)^3 underflows to 0
        traj = integrate(ErmakovState(0, 1e155, 1e150, 1, 0), PhysParams(tau=2.0, lam=1.0),
                         drive=CONSERVING, t_end=1.0, dt=1e-3, stride=10)
        assert len(traj) == 101
        assert all(np.all(np.isfinite(col)) for col in vars(traj).values())

    @pytest.mark.parametrize("drive", [CONSERVING, SINUSOID, TABULATED], ids=lambda d: d.kind)
    def test_drive_read_on_arrays_only(self, monkeypatch, drive):
        # 10 steps at stride 5 record 3 rows.  The set-up reads X of the t = 0 row once,
        # by bind's function of (t, r, xbar) on floats (at on one time for a time-only
        # kind).  Then a time-only kind is read by at alone: three tables for the one
        # block of steps, then the X column; the conserving kind's function is called
        # once more, on the recorded columns
        calls, at_times = [], []
        bind, at = DriveSpec.bind, DriveSpec.at

        def counting_bind(self, params=None):
            x_of = bind(self, params)
            return lambda *a: calls.append(a) or x_of(*a)

        def recording_at(self, times):
            at_times.append(times)
            return at(self, times)
        monkeypatch.setattr(DriveSpec, "bind", counting_bind)
        monkeypatch.setattr(DriveSpec, "at", recording_at)
        integrate(ErmakovState(0, 1, 0, 1, 0), PhysParams(tau=2.0, lam=1.0),
                  drive=drive, t_end=1.0, dt=0.1, stride=5)
        assert calls[0] == (0, 0.0, 1)
        if drive.kind == "conserving":
            assert at_times == [] and len(calls) == 2
            assert [type(a) for a in calls[1]] == [np.ndarray] * 3
            assert [a.shape for a in calls[1]] == [(3,)] * 3
        else:
            assert len(calls) == 1
            assert [ts.shape for ts in at_times] == [(1,)] + [(10,)] * 3 + [(3,)]

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("drive", [
        ZERO, DriveSpec(kind="constant", x0=0.7), SINUSOID, CONSERVING, TABULATED,
    ], ids=lambda d: d.kind)
    def test_step_equals_rk4_of_measurement_rhs(self, drive, eps):
        # the stages integrate writes out are measurement_rhs, to the last bit; a
        # reordered operand in one stage moves only some steps' last bits, so each
        # step is checked against its own reference step, over two whole blocks of
        # drive tables and a ragged third, from t0 != 0
        # m, tau and lambda are not powers of 2, so a reordered product moves bits
        p = PhysParams(m=1.3, tau=3.0, lam=0.7, eps=eps, omega_m=1.3)
        dt = 0.1
        rk4_step = rk4_of_measurement_rhs(p, drive, dt)
        n_steps = 2 * BLOCK_STEPS + 37
        tr = integrate(ErmakovState(0.3, 1.2, -0.4, 0.9, 0.5), p, drive=drive,
                       t_end=0.3 + n_steps * dt, dt=dt)
        rows = np.column_stack((tr.t, tr.alpha, tr.alphadot, tr.x, tr.xdot)).tolist()
        assert len(rows) == n_steps + 1
        for (t, *y), (_, *y_next) in zip(rows, rows[1:]):
            assert rk4_step(t, y) == y_next

    @pytest.mark.parametrize("t0", [0.0, 0.3])
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("drive", [
        ZERO, DriveSpec(kind="constant", x0=0.7), SINUSOID, CONSERVING, TABULATED,
    ], ids=lambda d: d.kind)
    def test_every_stride_records_the_stride_1_rows(self, drive, eps, t0):
        # a stride records the stride-1 rows at every stride-th step and the last, bit
        # for bit: the steps between record points form no t, yet omega^2 reads each
        # step's t when eps != 0
        p = PhysParams(m=1.3, tau=3.0, lam=0.7, eps=eps, omega_m=1.3)
        dt, n_steps = 0.1, 2 * BLOCK_STEPS + 37

        def run(stride):
            return integrate(ErmakovState(t0, 1.2, -0.4, 0.9, 0.5), p, drive=drive,
                             t_end=t0 + n_steps * dt, dt=dt, stride=stride)
        every = run(1)
        for stride in (1, 7, BLOCK_STEPS, BLOCK_STEPS + 1, n_steps, n_steps + 5):
            kept = [*range(0, n_steps, stride), n_steps]
            tr = run(stride)
            for k in vars(every):
                assert getattr(tr, k).tobytes() == getattr(every, k)[kept].tobytes(), (stride, k)

    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_conserving_step_equals_rk4_of_measurement_rhs_from_random_states(self, omega):
        # along one trajectory r = alphadot/alpha decays as the width settles, and a
        # reordered feedback in one stage, say (ad * inv_tau) / a for (ad / a) * inv_tau,
        # moves no bit; single steps from 200 seeded states with |r| up to 4 catch it
        rng = np.random.default_rng(41)
        dt = 0.1
        for tau in rng.choice([0.7, 3.0], 200).tolist():
            p = PhysParams(m=1.3, lam=0.7, tau=tau, omega=omega)
            y = [rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0), 0.0]
            tr = integrate(ErmakovState(0.0, *y), p, drive=CONSERVING, t_end=dt, dt=dt)
            y_next = [tr.alpha[1], tr.alphadot[1], tr.x[1], tr.xdot[1]]
            assert rk4_of_measurement_rhs(p, CONSERVING, dt)(0.0, y) == y_next

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
