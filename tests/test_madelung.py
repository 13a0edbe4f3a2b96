import math

import numpy as np
import pytest

from ermakov_lab import (
    DriveSpec,
    Grid,
    PhysParams,
    WavePacket,
    evolve,
    gaussian_packet,
    madelung_decompose,
    observables,
    quantum_force_linearity,
)
from ermakov_lab.errors import ConfigurationError, NumericalFailure

P_FREE = PhysParams(tau=math.inf)
ZERO = DriveSpec()


def point_packet():
    """A 64-point packet nonzero at a single grid point: zero variance."""
    g = Grid(-16, 16, 64)
    psi = np.zeros(g.n, dtype=complex)
    psi[32] = 1.0
    return WavePacket(g, psi)


class TestGrid:
    def test_spacing(self):
        assert Grid(-16, 16, 1024).dx == pytest.approx(0.03125)
        assert Grid(0, 1, 64).dx == pytest.approx(0.015625)

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            Grid(-16, 16, 32)

    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            Grid(1.0, 1.0, 128)

    def test_refuses_a_spacing_that_underflows(self):
        # a span of 32 subnormal steps: 1.6e-322 / 64 rounds to 0
        with pytest.raises(ConfigurationError, match="underflows to 0"):
            Grid(-16 * 5e-324, 16 * 5e-324, 64)


class TestGaussianPacket:
    def test_norm_peak_and_variance(self):
        g = Grid(-16, 16, 1024)
        w = gaussian_packet(g, 0.0, 1.0, p=P_FREE)
        rho = np.abs(w.psi) ** 2
        assert observables(w, P_FREE).norm == pytest.approx(1.0, abs=1e-10)
        assert rho.max() == pytest.approx((2 * np.pi) ** -0.5, rel=1e-10)
        o = observables(w, P_FREE)
        assert o.delta ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_boundary_margin_enforced(self):
        g = Grid(-16, 16, 1024)
        with pytest.raises(ConfigurationError):
            gaussian_packet(g, 10.0, 1.0, p=P_FREE)

    @pytest.mark.parametrize("xbardot0, width_rate0, tau", [
        (30.0, 0.0, 2.0),      # the centroid velocity alone
        (0.0, 1.5, 2.0),       # (1.5 + 0.25) * 8 = 14 at the support's edge
        (0.0, 0.0, 0.03),      # 1/(2 tau) * 8 = 133
        (-12.0, -0.1, 2.0),    # |xbardot0| + |slope| * 8 = 13.2
    ])
    def test_refuses_aliased_phase(self, xbardot0, width_rate0, tau):
        g = Grid(-15, 17, 128)  # pi/dx = 12.57
        with pytest.raises(ConfigurationError, match="Nyquist limit"):
            gaussian_packet(g, 1.0, 1.0, xbardot0=xbardot0, width_rate0=width_rate0,
                            p=PhysParams(tau=tau))

    def test_accepts_phase_below_nyquist(self):
        g = Grid(-15, 17, 128)
        # max |k| = 10 + |0.05 + 0.25| * 8 = 12.4 < 12.57; the curvature may
        # cancel 1/(2 tau) exactly
        gaussian_packet(g, 1.0, 1.0, xbardot0=-10.0, width_rate0=0.05, p=PhysParams(tau=2.0))
        gaussian_packet(g, 1.0, 1.0, xbardot0=12.0, width_rate0=-0.25, p=PhysParams(tau=2.0))

    @pytest.mark.parametrize("grid, delta0, p, message", [
        # span^4 = (32 * 1e150)^4 and (32 * 1e76)^4 overflow, the moments with them
        pytest.param(Grid(1 - 16e150, 1 + 16e150, 128), 1e150, P_FREE, "grid span",
                     id="grid0-1e+150-grid span"),
        pytest.param(Grid(1 - 16e76, 1 + 16e76, 128), 1e76, P_FREE, "grid span",
                     id="grid1-1e+76-grid span"),
        # dx = 0.25: the samples miss the width and the norm
        pytest.param(Grid(-15, 17, 128), 1e-3, P_FREE, "below the grid spacing 0.25",
                     id="grid2-0.001-below the grid spacing 0.25"),
        pytest.param(Grid(-15, 17, 128), 0.1, P_FREE, "below the grid spacing 0.25",
                     id="grid3-0.1-below the grid spacing 0.25"),
        # hbar/2m = 5e299: k_t = (hbar/2m)^2 / delta^4 would be inf in every row
        pytest.param(Grid(-15, 17, 128), 1.0, PhysParams(tau=math.inf, m=1e-300),
                     "initial packet is not representable: non-finite value in the "
                     r"observables recorded at t=0\.0", id="tiny-m"),
    ])
    def test_refuses_unrepresentable_packet(self, grid, delta0, p, message):
        with pytest.raises(ConfigurationError, match=message):
            gaussian_packet(grid, 1.0, delta0, p=p)

    @pytest.mark.parametrize("delta0, p, message", [
        # the variance 1e-300 has a square of 0, which the kurtosis and k_t divide by
        pytest.param(1e-150, PhysParams(tau=2.0), "wavefunction has zero variance or one "
                     "whose square underflows", id="variance-square-underflows"),
        # k_t = (hbar/2m)^2 / delta^4 = 2.5e299 / 1e-32
        pytest.param(1e-8, PhysParams(tau=1e-8, m=1e-150), "non-finite value in the "
                     r"observables recorded at t=0\.0", id="k_t-overflows"),
    ])
    def test_refuses_packet_its_observables_refuse(self, delta0, p, message):
        # the default grid xbar0 -+ 16 delta0 passes every other packet check
        g = Grid(-16 * delta0, 16 * delta0, 64)
        with pytest.raises(ConfigurationError,
                           match="initial packet is not representable: " + message):
            gaussian_packet(g, 0.0, delta0, p=p)

    def test_width_floor_is_one_grid_spacing(self):
        g = Grid(-15, 17, 128)
        with pytest.raises(ConfigurationError, match="below the grid spacing"):
            gaussian_packet(g, 1.0, g.dx * (1 - 1e-12), p=P_FREE)
        o = observables(gaussian_packet(g, 1.0, g.dx, p=P_FREE), P_FREE)
        assert o.norm == pytest.approx(1.0, abs=1e-8)

    def test_finite_span_keeps_the_moments_finite(self):
        # span 1e77: span^4 = 1e308 is finite, and so are the moments; 2e77 overflows
        g = Grid(1 - 0.5e77, 1 + 0.5e77, 128)
        o = observables(gaussian_packet(g, 1.0, 1e77 / 32, p=P_FREE), P_FREE)
        assert math.isfinite(o.excess_kurtosis) and math.isfinite(o.k_t)
        with pytest.raises(ConfigurationError, match=r"grid span x_max - x_min = 2e\+77"):
            gaussian_packet(Grid(1 - 1e77, 1 + 1e77, 128), 1.0, 2e77 / 32, p=P_FREE)

    def test_initial_velocity_field(self):
        p = PhysParams(tau=2.0)
        g = Grid(-16, 16, 1024)
        w = gaussian_packet(g, 0.0, 1.0, xbardot0=0.3, width_rate0=0.2, p=p)
        f = madelung_decompose(w, p)
        sel = f.valid_mask & (np.abs(g.x) < 4)
        slope, intercept = np.polyfit(g.x[sel], f.v_qu[sel], 1)
        assert slope == pytest.approx(0.2 + 0.25, abs=1e-4)
        assert intercept == pytest.approx(0.3, abs=1e-4)


class TestObservables:
    def test_fresh_packet(self):
        g = Grid(2 - 16, 2 + 16, 1024)
        w = gaussian_packet(g, 2.0, 1.0, p=P_FREE)
        o = observables(w, P_FREE)
        assert o.xbar == pytest.approx(2.0, abs=1e-8)
        assert o.delta == pytest.approx(1.0, abs=1e-6)
        assert o.excess_kurtosis == pytest.approx(0.0, abs=1e-6)
        assert o.k_t == pytest.approx(0.25)

    def test_zero_variance_is_degenerate(self):
        with pytest.raises(NumericalFailure, match="zero variance"):
            observables(point_packet(), P_FREE)


class TestMadelungDecompose:
    def test_real_packet_has_zero_velocity(self):
        g = Grid(-16, 16, 1024)
        w = gaussian_packet(g, 0.0, 1.0, p=P_FREE)
        f = madelung_decompose(w, P_FREE)
        assert np.max(np.abs(f.v_qu[f.valid_mask])) <= 1e-8

    def test_bohm_potential_at_center(self):
        g = Grid(-16, 16, 1024)
        w = gaussian_packet(g, 0.0, 1.0, p=P_FREE)
        f = madelung_decompose(w, P_FREE)
        i0 = int(np.argmin(np.abs(g.x)))
        # closed form for a Gaussian: V_qu(xbar) = hbar^2 / (4 m delta^2)
        assert f.V_qu[i0] == pytest.approx(0.25, abs=1e-6)

    def test_density_matches_profile(self):
        g = Grid(-16, 16, 1024)
        w = gaussian_packet(g, 0.0, 1.0, p=P_FREE)
        rho_exact = (2 * np.pi) ** -0.5 * np.exp(-g.x ** 2 / 2)
        assert np.max(np.abs(np.abs(w.psi) ** 2 - rho_exact)) < 1e-12

    def test_roundtrip_up_to_global_phase(self):
        p = PhysParams(tau=2.0)
        g = Grid(-16, 16, 1024)
        w = gaussian_packet(g, 0.0, 1.0, xbardot0=0.5, width_rate0=0.1, p=p)
        f = madelung_decompose(w, p)
        rebuilt = np.sqrt(f.rho) * np.exp(1j * f.S)
        m = f.valid_mask
        phase = w.psi[np.argmax(f.rho)] / rebuilt[np.argmax(f.rho)]
        assert np.max(np.abs(rebuilt[m] * phase - w.psi[m])) < 1e-10


class TestQuantumForceLinearity:
    def test_slope_scales_as_inverse_fourth_power(self):
        g = Grid(-32, 32, 2048)
        w = gaussian_packet(g, 0.0, 2.0, p=P_FREE)
        k_est, _ = quantum_force_linearity(madelung_decompose(w, P_FREE), P_FREE)
        assert k_est == pytest.approx(1.0 / 64.0, rel=1e-3)

    def test_non_gaussian_breaks_linearity(self):
        g = Grid(-16, 16, 1024)
        psi = (1.0 / np.cosh(g.x)).astype(complex)
        psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * g.dx)
        from ermakov_lab.madelung import WavePacket
        f = madelung_decompose(WavePacket(g, psi, 0.0), P_FREE)
        _, max_rel_dev = quantum_force_linearity(f, P_FREE)
        assert max_rel_dev > 0.1

    def test_insufficient_support(self):
        g = Grid(-16, 16, 1024)
        w = gaussian_packet(g, 0.0, 1.0, p=P_FREE)
        f = madelung_decompose(w, P_FREE)
        f.valid_mask[:] = False
        f.valid_mask[500:508] = True
        with pytest.raises(NumericalFailure, match="fewer than 16 valid points"):
            quantum_force_linearity(f, P_FREE)


class TestEvolve:
    def test_zero_variance_is_degenerate(self):
        with pytest.raises(NumericalFailure, match="zero variance"):
            evolve(point_packet(), PhysParams(tau=2.0), ZERO, 1e-4, 5)

    def test_coherent_state_tracks_ode(self):
        # lambda = 0, 1/tau = 0, delta0^4 = hbar^2/(4 m^2 omega^2): rigid motion
        d0 = 2 ** -0.5
        g = Grid(1 - 16 * d0, 1 + 16 * d0, 1024)
        w = gaussian_packet(g, 1.0, d0, p=P_FREE)
        dt = 1e-3
        _, obs = evolve(w, P_FREE, ZERO, dt, int(round(4 * np.pi / dt)), record_stride=20)
        ts = np.array([o.t for o in obs])
        xb = np.array([o.xbar for o in obs])
        dl = np.array([o.delta for o in obs])
        assert np.max(np.abs(xb - np.cos(ts))) < 1e-3
        assert np.max(np.abs(dl - d0)) / d0 < 1e-3

    def test_norm_neutral_sink_long_run(self):
        p = PhysParams(tau=2.0)
        g = Grid(1 - 16, 1 + 16, 1024)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        _, obs = evolve(w, p, ZERO, 1e-3, 10_000, record_stride=100)
        assert max(abs(o.norm - 1.0) for o in obs) <= 1e-6

    def test_single_step_consistency(self):
        # (psi(dt) - psi(0)) / dt approaches the equation right side at O(dt)
        p = PhysParams(tau=2.0)
        g = Grid(-15, 17, 1024)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        rhs = right_side(w, p)
        errs = []
        for dt in (1e-4, 5e-5):
            fin, _ = evolve(w, p, ZERO, dt, 1)
            errs.append(np.max(np.abs((fin.psi - w.psi) / dt - rhs)))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)

    def test_kurtosis_stays_gaussian(self):
        p = PhysParams(tau=2.0)
        g = Grid(1 - 16, 1 + 16, 512)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        dt = g.dx ** 2 / np.pi
        _, obs = evolve(w, p, ZERO, dt, int(round(4 * np.pi / dt)),
                        record_stride=10)
        assert max(abs(o.excess_kurtosis) for o in obs) <= 1e-3

    def test_velocity_slope_tracks_width_rate(self):
        p = PhysParams(tau=2.0)
        g = Grid(1 - 16, 1 + 16, 512)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        dt = g.dx ** 2 / np.pi
        w1, obs1 = evolve(w, p, ZERO, dt, 200)
        w2, _ = evolve(w1, p, ZERO, dt, 1)
        w3, _ = evolve(w2, p, ZERO, dt, 1)
        f = madelung_decompose(w2, p)
        o2 = observables(w2, p)
        deltadot = (observables(w3, p).delta - obs1[-1].delta) / (2 * dt)
        sel = f.valid_mask & (np.abs(g.x - o2.xbar) < 3 * o2.delta)
        slope = np.polyfit(g.x[sel] - o2.xbar, f.v_qu[sel], 1)[0]
        assert slope == pytest.approx(deltadot / o2.delta + 0.25, abs=1e-3)

    @pytest.mark.parametrize("a", [0.02, 0.1])
    def test_unresolved_row_is_refused(self, a):
        # a copy of the packet shifted to the Nyquist wavenumber pi/dx, with amplitude
        # a, holds about a share a^2 / (1 + a^2) of |psi|^2: 4e-4 passes, 1e-2 does not
        p = PhysParams(tau=2.0)
        g = Grid(-15, 17, 128)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        w.psi *= 1.0 + a * (-1.0) ** np.arange(g.n)
        if a * a < 1e-3:
            _, obs = evolve(w, p, ZERO, 0.01, 1)
            assert len(obs) == 2
            return
        with pytest.raises(NumericalFailure, match=r"share 0\.009\d* of \|psi\|\^2 in the band "
                                                   r"\|k\| >= 0\.9 pi/dx exceeds 0\.001 "
                                                   r"at t=0\.0$") as exc:
            evolve(w, p, ZERO, 0.01, 1)
        assert exc.value.partial == []

    def test_divergence_guard(self):
        p = PhysParams(tau=2.0)
        g = Grid(1 - 16, 1 + 16, 512)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        w.psi *= 2.0  # norm 4, outside the trusted window
        # the t = 0 row goes through the same check as every later row
        with pytest.raises(NumericalFailure,
                           match=r"norm .* outside \[0\.5, 2\] at t=0\.0$") as exc:
            evolve(w, p, ZERO, g.dx ** 2 / np.pi, 1)
        assert exc.value.partial == []

    def test_initial_row_is_checked(self):
        # at m = 1e-150, k_t = (hbar/2m)^2 / delta^4 = 2.5e299 / 1e-32 is inf for the
        # packet built at m = 1
        g = Grid(-1.6e-7, 1.6e-7, 128)
        w = gaussian_packet(g, 0.0, 1e-8, p=P_FREE)
        with pytest.raises(NumericalFailure, match="non-finite value in the observables "
                                                   r"recorded at t=0\.0$") as exc:
            evolve(w, PhysParams(tau=math.inf, m=1e-150), ZERO, 1e-3, 5)
        assert exc.value.partial == []

    def test_zero_norm_mid_run_keeps_the_recorded_rows(self):
        # the 1/(2 tau) phase curvature cancelled, dt/tau = 50: the sink factor
        # empties the packet within the run, before its first record point
        tau, dt = 2e-4, 0.01
        p = PhysParams(tau=tau)
        g = Grid(-15, 17, 128)
        w = gaussian_packet(g, 1.0, 1.0, width_rate0=-1.0 / (2 * tau), p=p)
        with pytest.raises(NumericalFailure, match="wavefunction has zero norm") as exc:
            evolve(w, p, ZERO, dt, 40, record_stride=100)
        assert str(exc.value).startswith("evolution aborted at t~")
        assert [o.t for o in exc.value.partial] == [0.0]

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_refuses_bad_dt(self, dt):
        w = gaussian_packet(Grid(1 - 16, 1 + 16, 128), 1.0, 1.0, p=P_FREE)
        with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
            evolve(w, P_FREE, ZERO, dt, 5)

    def test_sink_overflow_is_a_numerical_failure(self):
        g = Grid(1 - 16, 1 + 16, 128)
        w = gaussian_packet(g, 1.0, 1.0, p=P_FREE)
        with pytest.raises(NumericalFailure, match="overflows") as exc:
            evolve(w, PhysParams(tau=1e-200), ZERO, g.dx ** 2 / np.pi, 5)
        assert exc.value.partial == []

    @pytest.mark.parametrize("steps, record_stride", [(5, 0), (-3, 1), (0, 1)])
    def test_refuses_bad_step_counts(self, steps, record_stride):
        w = gaussian_packet(Grid(1 - 16, 1 + 16, 128), 1.0, 1.0, p=P_FREE)
        with pytest.raises(ConfigurationError, match="steps and record_stride must be >= 1"):
            evolve(w, P_FREE, ZERO, 1e-3, steps, record_stride=record_stride)

    def test_refuses_modulated_omega(self):
        w = gaussian_packet(Grid(1 - 16, 1 + 16, 128), 1.0, 1.0, p=P_FREE)
        p = PhysParams(tau=math.inf, eps=0.1, omega_m=1.0)
        with pytest.raises(ConfigurationError, match="constant omega"):
            evolve(w, p, ZERO, 1e-3, 5)

    def test_conserving_drive_runs(self):
        p = PhysParams(tau=2.0, lam=1.0)
        g = Grid(1 - 16, 1 + 16, 512)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        dt = g.dx ** 2 / np.pi
        _, obs = evolve(w, p, DriveSpec(kind="conserving"), dt, 200)
        assert all(math.isfinite(o.xbar) for o in obs)

    def test_nonfinite_amplitude_aborts_between_record_points(self):
        p = PhysParams(tau=2.0, lam=1.0)
        g = Grid(-15, 17, 512)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        # freq * (t + dt/2) overflows on the first step: its drive factor is NaN
        d = DriveSpec(kind="sinusoid", x0=1.0, freq=1e308)
        # caught at the second step, not at the first record point (step 10)
        with pytest.raises(NumericalFailure, match=r"non-finite amplitudes at t=4\.0$") as exc:
            evolve(w, p, d, 4.0, 25, record_stride=10)
        assert [o.t for o in exc.value.partial] == [0.0]

    def test_split_run_matches_single_run(self):
        p = PhysParams(tau=2.0, lam=1.0)
        g = Grid(1 - 16, 1 + 16, 512)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        dt = g.dx ** 2 / np.pi
        d = DriveSpec(kind="sinusoid", x0=0.3, freq=0.6)
        full, _ = evolve(w, p, d, dt, 50, record_stride=10)
        half, _ = evolve(w, p, d, dt, 30, record_stride=10)
        rest, _ = evolve(half, p, d, dt, 20, record_stride=10)
        assert rest.t == pytest.approx(full.t, abs=1e-12)
        assert np.max(np.abs(rest.psi - full.psi)) <= 1e-12


def right_side(w, p):
    """d(psi)/dt at w.t under the zero drive: the kinetic, harmonic and sink
    terms of the equation evolve integrates."""
    g, x, psi = w.grid, w.grid.x, w.psi
    rho = np.abs(psi) ** 2
    xbar = np.sum(x * rho) / np.sum(rho)
    var = np.sum((x - xbar) ** 2 * rho) / np.sum(rho)
    kin = (p.hbar * p.hbar_2m) * np.fft.ifft(g.k * g.k * np.fft.fft(psi))
    pot = 0.5 * p.m * p.omega2(w.t) * x * x * psi
    sink = 0.25 * p.inv_tau * ((x - xbar) ** 2 / var - 1.0) * psi
    return (kin + pot) / (1j * p.hbar) - sink


def reference_evolve(w, p, d, dt, steps, record_stride):
    """Unfused Strang steps: a kinetic half-step on each side of the direct
    complex multiplier exp(amp + i phase).  X is d.value(t), so not for the
    conserving kind."""
    g, x = w.grid, w.grid.x
    kin_half = np.exp(-1j * p.hbar * g.k ** 2 / (2.0 * p.m) * 0.5 * dt)
    sink_gain = 0.5 * math.expm1(dt * p.inv_tau)
    psi = w.psi.astype(complex)
    obs = [observables(w, p)]
    for i in range(steps):
        t = w.t + i * dt
        psi = np.fft.ifft(kin_half * np.fft.fft(psi))
        rho = np.abs(psi) ** 2
        xbar = np.sum(x * rho) / np.sum(rho)
        var = np.sum((x - xbar) ** 2 * rho) / np.sum(rho)
        amp = -sink_gain / (2.0 * var) * (x - xbar) ** 2 + 0.25 * dt * p.inv_tau
        phase = -(dt / p.hbar) * (0.5 * p.m * p.omega2(t) * x * x
                                  + p.lam * x * d.value(t + 0.5 * dt))
        psi = np.fft.ifft(kin_half * np.fft.fft(psi * np.exp(amp + 1j * phase)))
        if (i + 1) % record_stride == 0 or i == steps - 1:
            obs.append(observables(WavePacket(g, psi, w.t + (i + 1) * dt), p))
    return psi, obs


class TestEvolveStep:
    P = PhysParams(tau=2.0, lam=1.0)
    D = DriveSpec(kind="sinusoid", x0=0.3, freq=0.6)

    # n = 100 leaves a ragged last 32-point block of the drive factor
    @pytest.mark.parametrize("n", [100, 512])
    @pytest.mark.parametrize("record_stride", [1, 7])
    def test_matches_unfused_reference(self, n, record_stride):
        g = Grid(1 - 16, 1 + 16, n)
        w = gaussian_packet(g, 1.0, 1.0, p=self.P)
        dt = g.dx ** 2 / np.pi
        fin, obs = evolve(w, self.P, self.D, dt, 50, record_stride=record_stride)
        psi, ref = reference_evolve(w, self.P, self.D, dt, 50, record_stride)
        assert np.max(np.abs(fin.psi - psi)) <= 1e-12
        assert len(obs) == len(ref)
        for o, r in zip(obs, ref):
            for f in ("t", "norm", "xbar", "delta", "excess_kurtosis", "k_t"):
                assert abs(getattr(o, f) - getattr(r, f)) <= 1e-12

    def test_one_forward_fft_per_step_boundary(self, monkeypatch):
        # one FFT pair opens step 1; each step then takes one forward FFT and one
        # inverse FFT, which at every record point, the last step included,
        # transforms the closed state and the next step's opened state as one
        # (2, n) batch
        n, steps = 256, 6
        w = gaussian_packet(Grid(1 - 16, 1 + 16, n), 1.0, 1.0, p=self.P)
        calls = []

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                calls.append((name, a.shape))
                return fn(a, *args, **kwargs)
            return wrapper

        for stride, batched in ((1, steps), (7, 1)):
            calls.clear()
            with monkeypatch.context() as mp:
                for name in ("fft", "ifft"):
                    mp.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
                evolve(w, self.P, self.D, w.grid.dx ** 2 / np.pi, steps, record_stride=stride)
            assert len(calls) == 2 * steps + 2
            assert calls.count(("fft", (n,))) == steps + 1
            assert calls.count(("ifft", (2, n))) == batched
            assert calls.count(("ifft", (n,))) == steps + 1 - batched

    # at stride 7 the last of the 50 steps falls between two record points
    @pytest.mark.parametrize("stride", [1, 7])
    def test_buffers_leave_the_packets_alone(self, stride):
        # evolve transforms into buffers it makes once per call: it writes neither
        # the packet passed in (read-only here) nor the psi an earlier call returned
        g = Grid(1 - 16, 1 + 16, 256)
        w = gaussian_packet(g, 1.0, 1.0, p=self.P)
        w.psi.setflags(write=False)
        psi0 = w.psi.copy()
        dt = g.dx * g.dx / np.pi
        fin, _ = evolve(w, self.P, self.D, dt, 50, record_stride=stride)
        kept = fin.psi.copy()
        again, _ = evolve(w, self.P, self.D, dt, 50, record_stride=stride)
        evolve(fin, self.P, self.D, dt, 50, record_stride=stride)
        assert np.array_equal(w.psi, psi0)
        assert np.array_equal(fin.psi, kept)
        assert np.array_equal(again.psi, kept)

    # n = 100 leaves a ragged last 32-point block of the drive factor; at
    # n = 512 the last row (t = 50 dt) falls between two stride-7 record points
    @pytest.mark.parametrize("n, steps, stride", [(100, 21, 3), (256, 21, 3), (512, 50, 7)],
                             ids=["100", "256", "512"])
    def test_recording_does_not_change_the_evolution(self, n, steps, stride):
        # a record point's batched inverse FFT keeps the operand order of the
        # unbatched halves, so the state it opens is the one a longer stride opens
        g = Grid(1 - 16, 1 + 16, n)
        w = gaussian_packet(g, 1.0, 1.0, p=self.P)
        dt = g.dx * g.dx / np.pi
        fin1, obs1 = evolve(w, self.P, self.D, dt, steps, record_stride=1)
        fin, obs = evolve(w, self.P, self.D, dt, steps, record_stride=stride)
        assert np.array_equal(fin1.psi, fin.psi)
        assert obs == obs1[::stride] + ([obs1[-1]] if steps % stride else [])
