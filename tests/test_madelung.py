import math

import numpy as np
import pytest

from ermakov_lab import (
    DriveSpec,
    ErmakovState,
    Grid,
    Observables,
    PhysParams,
    Trajectory,
    WavePacket,
    evolve,
    gaussian_packet,
    integrate,
    madelung_decompose,
    observables,
    quantum_force_linearity,
)
from ermakov_lab import madelung
from ermakov_lab.errors import ConfigurationError, NumericalFailure
from ermakov_lab.madelung import _moments, _rows
from ermakov_lab.params import BLOCK_STEPS

P_FREE = PhysParams(tau=math.inf)
ZERO = DriveSpec()


def columns(record):
    """The fields of a column record as bytes, equal only when bit for bit equal:
    numpy's array repr rounds, and == takes -0.0 for 0.0."""
    return {f: c.tobytes() for f, c in vars(record).items()}


def count_ffts(mp, calls):
    """Patch evolve's FFT names to append (name, shape, fct, bytes in + out) per call."""
    for name in ("fft", "ifft"):
        def counted(a, fct, out, name=name, fn=getattr(madelung, "_" + name)):
            calls.append((name, a.shape, fct, a.nbytes + out.nbytes))
            return fn(a, fct, out=out)
        mp.setattr(madelung, "_" + name, counted)


def np_fft(a, fct, out):
    """np.fft.fft in the form of the gufunc evolve calls; it applies fct = 1 itself."""
    return np.fft.fft(a, out=out)


def np_ifft(a, fct, out):
    """np.fft.ifft in the form of the gufunc evolve calls; it applies fct = 1/n itself."""
    return np.fft.ifft(a, out=out)


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

    @pytest.mark.parametrize("delta0", [0.0, -1.0])
    def test_refuses_a_nonpositive_width(self, delta0):
        with pytest.raises(ConfigurationError, match=r"^delta0 must be positive$"):
            gaussian_packet(Grid(-16, 16, 1024), 0.0, delta0, p=P_FREE)

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
        # hbar/2m = 5e299: k_t = (hbar/2m)^2 / delta^4 would be inf in every row, the
        # packet's own included, which evolve's set-up checks
        pytest.param(Grid(-15, 17, 128), 1.0, PhysParams(tau=math.inf, m=1e-300),
                     "initial packet is not resolved: non-finite value in the "
                     r"observables recorded at t=0\.0", id="tiny-m"),
    ])
    def test_refuses_unrepresentable_packet(self, grid, delta0, p, message):
        with pytest.raises(ConfigurationError, match=message):
            evolve(gaussian_packet(grid, 1.0, delta0, p=p), p, ZERO, 1e-3, 1)

    @pytest.mark.parametrize("delta0, p, message", [
        # the variance 1e-300 has a square of 0, which the kurtosis and k_t divide by
        pytest.param(1e-150, PhysParams(tau=2.0), "wavefunction has zero variance or one "
                     "whose square underflows", id="variance-square-underflows"),
        # k_t = (hbar/2m)^2 / delta^4 = 2.5e299 / 1e-32
        pytest.param(1e-8, PhysParams(tau=1e-8, m=1e-150), "non-finite value in the "
                     r"observables recorded at t=0\.0", id="k_t-overflows"),
    ])
    def test_refuses_packet_its_observables_refuse(self, delta0, p, message):
        # the default grid xbar0 -+ 16 delta0 passes every other packet check; the
        # packet's row is checked once, by evolve's set-up
        g = Grid(-16 * delta0, 16 * delta0, 64)
        w = gaussian_packet(g, 0.0, delta0, p=p)
        with pytest.raises(NumericalFailure, match=message):
            observables(w, p)
        with pytest.raises(ConfigurationError,
                           match="initial packet is not resolved: " + message):
            evolve(w, p, ZERO, 1e-8, 1)

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

    def test_zero_norm_is_degenerate(self):
        w = point_packet()
        w.psi[:] = 0.0
        with pytest.raises(NumericalFailure, match=r"^wavefunction has zero norm$"):
            observables(w, P_FREE)


class TestMadelungDecompose:
    def test_zero_variance_is_degenerate(self):
        with pytest.raises(NumericalFailure, match=r"^wavefunction has zero variance or one "
                                                   r"whose square underflows: 0$"):
            madelung_decompose(point_packet(), P_FREE)

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
        # the t = 0 row is checked by evolve's set-up: a bad start is bad input
        with pytest.raises(ConfigurationError, match="^initial packet is not resolved: "
                                                     ".*zero variance"):
            evolve(point_packet(), PhysParams(tau=2.0), ZERO, 1e-4, 5)

    def test_coherent_state_tracks_ode(self):
        # lambda = 0, 1/tau = 0, delta0^4 = hbar^2/(4 m^2 omega^2): rigid motion
        d0 = 2 ** -0.5
        g = Grid(1 - 16 * d0, 1 + 16 * d0, 1024)
        w = gaussian_packet(g, 1.0, d0, p=P_FREE)
        dt = 1e-3
        _, obs = evolve(w, P_FREE, ZERO, dt, int(round(4 * np.pi / dt)), record_stride=20)
        assert np.max(np.abs(obs.xbar - np.cos(obs.t))) < 1e-3
        assert np.max(np.abs(obs.delta - d0)) / d0 < 1e-3

    def test_norm_neutral_sink_long_run(self):
        p = PhysParams(tau=2.0)
        g = Grid(1 - 16, 1 + 16, 1024)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        _, obs = evolve(w, p, ZERO, 1e-3, 10_000, record_stride=100)
        assert np.max(np.abs(obs.norm - 1.0)) <= 1e-6

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
        assert np.max(np.abs(obs.excess_kurtosis)) <= 1e-3

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
        deltadot = (observables(w3, p).delta - obs1.delta[-1]) / (2 * dt)
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
        with pytest.raises(ConfigurationError, match=r"^initial packet is not resolved: "
                                                     r"share 0\.009\d* of \|psi\|\^2 in the "
                                                     r"band \|k\| >= 0\.9 pi/dx exceeds "
                                                     r"0\.001 at t=0\.0$"):
            evolve(w, p, ZERO, 0.01, 1)

    def test_divergence_guard(self):
        p = PhysParams(tau=2.0)
        g = Grid(1 - 16, 1 + 16, 512)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        w.psi *= 2.0  # norm 4, outside the trusted window
        # the t = 0 row goes through the same check as every later row, before the
        # first step: a failure there is bad input
        with pytest.raises(ConfigurationError, match=r"^initial packet is not resolved: "
                                                     r"norm .* outside \[0\.5, 2\] at t=0\.0$"):
            evolve(w, p, ZERO, g.dx ** 2 / np.pi, 1)

    def test_initial_row_is_checked(self):
        # at m = 1e-150, k_t = (hbar/2m)^2 / delta^4 = 2.5e299 / 1e-32 is inf for the
        # packet built at m = 1
        g = Grid(-1.6e-7, 1.6e-7, 128)
        w = gaussian_packet(g, 0.0, 1e-8, p=P_FREE)
        with pytest.raises(ConfigurationError, match="^initial packet is not resolved: "
                                                     "non-finite value in the observables "
                                                     r"recorded at t=0\.0$"):
            evolve(w, PhysParams(tau=math.inf, m=1e-150), ZERO, 1e-3, 5)

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
        assert exc.value.partial.t.tolist() == [0.0]

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_refuses_bad_dt(self, dt):
        w = gaussian_packet(Grid(1 - 16, 1 + 16, 128), 1.0, 1.0, p=P_FREE)
        with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
            evolve(w, P_FREE, ZERO, dt, 5)

    def test_sink_overflow_is_a_config_error(self):
        # dt/tau = 2e8: exp(dt/tau) overflows, refused before the first step
        g = Grid(1 - 16, 1 + 16, 128)
        w = gaussian_packet(g, 1.0, 1.0, p=P_FREE)
        with pytest.raises(ConfigurationError, match=r"sink factor exp\(dt/tau\) overflows "
                                                     r"at dt/tau = 1\.99e\+08$"):
            evolve(w, PhysParams(tau=1e-10), ZERO, g.dx ** 2 / np.pi, 5)

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

    # each bound of evolve's set-up, on [-15, 17]: the kinetic phase at (hbar/2m) dt =
    # 5e307, omega^2 = 1e600, the drive phase 1 * 1.1e307 * 17 and the drive
    # coefficient (dt/hbar) lambda = 1e9 * 1e300; a numpy warning would fail the case
    @pytest.mark.parametrize("p, d, dt, message", [
        (PhysParams(tau=math.inf, m=1e-8), ZERO, 1e300, "kinetic phase"),
        (PhysParams(tau=math.inf, omega=1e300), ZERO, 1e300, "harmonic phase"),
        (PhysParams(tau=math.inf, lam=1.0), DriveSpec(kind="constant", x0=1.1e307), 1.0,
         "drive phase"),
        (PhysParams(tau=math.inf, lam=1e300, hbar=1e-11), ZERO, 0.01, "drive coefficient"),
    ], ids=["kinetic", "harmonic", "drive-phase", "drive-coefficient"])
    def test_refuses_each_bound_before_any_step(self, monkeypatch, p, d, dt, message):
        w = gaussian_packet(Grid(-15, 17, 128), 1.0, 1.0, p=P_FREE)
        monkeypatch.setattr(madelung, "_moments", lambda *a: pytest.fail("evolve took a step"))
        with pytest.raises(ConfigurationError, match=f"^{message} .* is beyond the float range$"):
            evolve(w, p, d, dt, 3)

    # the drive phase reads the largest |X| the kind takes: the zero kind's X is 0
    # and the tabulated kind's its table's, whatever x0 holds
    @pytest.mark.parametrize("kind, table", [("zero", ()), ("tabulated", ((0.0, 0.1), (1.0, 0.2)))])
    def test_drive_phase_bound_ignores_an_unread_x0(self, kind, table):
        w = gaussian_packet(Grid(-15, 17, 128), 1.0, 1.0, p=P_FREE)
        p = PhysParams(tau=2.0, lam=1.0)
        fin, obs = evolve(w, p, DriveSpec(kind=kind, x0=1.1e307, table=table), 1.0, 1)
        fin_0, obs_0 = evolve(w, p, DriveSpec(kind=kind, table=table), 1.0, 1)
        assert len(obs) == 2
        assert columns(obs) == columns(obs_0)
        assert fin.psi.tobytes() == fin_0.psi.tobytes()

    def test_conserving_drive_runs(self):
        p = PhysParams(tau=2.0, lam=1.0)
        g = Grid(1 - 16, 1 + 16, 512)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        dt = g.dx ** 2 / np.pi
        _, obs = evolve(w, p, DriveSpec(kind="conserving"), dt, 200)
        assert np.all(np.isfinite(obs.xbar))

    def test_nonfinite_amplitude_aborts_between_record_points(self):
        p = PhysParams(tau=2.0, lam=1.0)
        g = Grid(-15, 17, 512)
        w = gaussian_packet(g, 1.0, 1.0, p=p)
        # freq * (t + dt/2) overflows on the first step: its drive factor is NaN
        d = DriveSpec(kind="sinusoid", x0=1.0, freq=1e308)
        # caught at the second step, not at the first record point (step 10)
        with pytest.raises(NumericalFailure, match=r"non-finite amplitudes at t=4\.0$") as exc:
            evolve(w, p, d, 4.0, 25, record_stride=10)
        assert exc.value.partial.t.tolist() == [0.0]

    def test_drive_read_at_every_step_midpoint(self, monkeypatch):
        # a time-only X is asked of at, in block tables, at the loop's t + dt/2 for
        # every step, t formed as w.t + i*dt: over two whole blocks and a ragged third
        asked = []
        at = DriveSpec.at

        def recording_at(self, times):
            asked.extend(times.tolist())
            return at(self, times)
        monkeypatch.setattr(DriveSpec, "at", recording_at)
        p = PhysParams(tau=2.0, lam=0.5)
        w = gaussian_packet(Grid(-12, 12, 64), 0.5, 1.0, p=p)
        w.t = 0.3
        dt, steps = 1e-3, 2 * BLOCK_STEPS + 37
        evolve(w, p, DriveSpec(kind="sinusoid", x0=0.4, freq=0.7), dt, steps, record_stride=100)
        t = [w.t] + [w.t + i * dt for i in range(1, steps)]
        assert asked == [ti + 0.5 * dt for ti in t]

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
        for f, column in vars(obs).items():
            assert np.max(np.abs(column - [getattr(r, f) for r in ref])) <= 1e-12

    @pytest.mark.parametrize("drive", [D, DriveSpec(kind="conserving")],
                             ids=["sinusoid", "conserving"])
    def test_one_forward_fft_per_step_boundary(self, monkeypatch, drive):
        # one FFT pair opens step 1; each step then takes one forward FFT, and each
        # but the last one inverse FFT, which opens the next step; each check of
        # recorded rows adds one (k, n) inverse FFT that closes them, the final
        # state among them: here one check of the 6 rows or the last row, or two
        # of 4 and 2 rows in batches of 4
        n, steps = 256, 6
        w = gaussian_packet(Grid(1 - 16, 1 + 16, n), 1.0, 1.0, p=self.P)
        calls = []
        for stride, batch, batches in ((1, 32, [6]), (7, 32, [1]), (1, 4, [4, 2])):
            calls.clear()
            with monkeypatch.context() as mp:
                count_ffts(mp, calls)
                mp.setattr(madelung, "_batch_rows", lambda n: batch)
                evolve(w, self.P, drive, w.grid.dx ** 2 / np.pi, steps, record_stride=stride)
            names = [(name, shape) for name, shape, _, _ in calls]
            assert len(calls) == 2 * steps + 1 + len(batches)
            assert names.count(("fft", (n,))) == steps + 1
            assert names.count(("ifft", (n,))) == steps
            assert [shape for name, shape in names if len(shape) == 2] == \
                [(k, n) for k in batches]
            # np.fft's factors, and the bytes in and out of 2S + 1 + R transforms
            assert {(name, fct) for name, _, fct, _ in calls} == {("fft", 1.0), ("ifft", 1 / n)}
            assert sum(b for *_, b in calls) == 2 * 16 * n * (2 * steps + 1 + sum(batches))

    @pytest.mark.parametrize("batch", [None, 1, 3])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_final_packet_is_the_last_row(self, monkeypatch, batch, stride):
        # the returned packet is the state its last row describes; over two blocks of
        # steps at n = 64 that row is closed by a full batch's check (batches of one)
        # or by the check at a block's end (128 rows a batch, or 3)
        g = Grid(1 - 16, 1 + 16, 64)
        w = gaussian_packet(g, 1.0, 1.0, p=self.P)
        if batch is not None:
            monkeypatch.setattr(madelung, "_batch_rows", lambda n: batch)
        fin, obs = evolve(w, self.P, self.D, 0.01, BLOCK_STEPS + 44, record_stride=stride)
        assert fin.t == obs.t[-1]
        # repr pins a float bit for bit, -0.0 against 0.0 included
        assert {f: repr(v) for f, v in vars(observables(fin, self.P)).items()} == \
            {f: repr(float(c[-1])) for f, c in vars(obs).items()}

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
        # a batch's inverse FFT closes each row as the 1-D transform does, so the
        # final state, the last row's close, is the one a longer stride closes
        g = Grid(1 - 16, 1 + 16, n)
        w = gaussian_packet(g, 1.0, 1.0, p=self.P)
        dt = g.dx * g.dx / np.pi
        fin1, obs1 = evolve(w, self.P, self.D, dt, steps, record_stride=1)
        fin, obs = evolve(w, self.P, self.D, dt, steps, record_stride=stride)
        assert np.array_equal(fin1.psi, fin.psi)
        kept = list(range(0, steps + 1, stride)) + ([steps] if steps % stride else [])
        assert columns(obs) == {f: c[kept].tobytes() for f, c in vars(obs1).items()}


def single_row(psi, t, g, p):
    """The observables of one state from 1-D sums: the norm by add.reduce, the
    moments by x.dot(rho), as _moments forms them on every step."""
    norm, xbar, u2, var, rho = _moments(psi, g.x, g.dx)
    u2 *= u2
    m4 = float(u2.dot(rho)) * g.dx / norm
    var2 = var * var
    return (t, norm, xbar, math.sqrt(var), m4 / var2 - 3.0, p.hbar_2m * p.hbar_2m / var2)


def rows_passed(rows):
    """How many rows pass before one is refused for its band share."""
    passed = 0
    try:
        for _ in rows:
            passed += 1
    except NumericalFailure as exc:
        assert "of |psi|^2 in the band" in str(exc)
    return passed


class TestFFTPath:
    """evolve calls numpy's pocketfft gufuncs with np.fft's factors: np.fft's bytes."""

    P = PhysParams(tau=2.0, lam=1.0)

    @pytest.mark.parametrize("n", [64, 100, 256, 1024])
    @pytest.mark.parametrize("shape", [(), (2,)], ids=["1d", "2xn"])
    def test_gufuncs_give_np_fft_bytes(self, n, shape):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((*shape, n)) + 1j * rng.standard_normal((*shape, n))
        out = np.empty_like(a)
        assert madelung._fft(a, 1.0, out=out).tobytes() == np.fft.fft(a).tobytes()
        assert madelung._ifft(a, 1 / n, out=out).tobytes() == np.fft.ifft(a).tobytes()

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("drive", [DriveSpec(kind="sinusoid", x0=0.3, freq=0.6),
                                       DriveSpec(kind="conserving")],
                             ids=["sinusoid", "conserving"])
    def test_evolve_gives_np_fft_bytes(self, monkeypatch, drive, stride):
        g = Grid(1 - 16, 1 + 16, 256)
        w = gaussian_packet(g, 1.0, 1.0, p=self.P)
        dt = g.dx * g.dx / np.pi
        fin, obs = evolve(w, self.P, drive, dt, 50, record_stride=stride)
        monkeypatch.setattr(madelung, "_fft", np_fft)
        monkeypatch.setattr(madelung, "_ifft", np_ifft)
        fin_np, obs_np = evolve(w, self.P, drive, dt, 50, record_stride=stride)
        assert fin.psi.tobytes() == fin_np.psi.tobytes()
        assert columns(obs) == columns(obs_np)


class TestRowBatch:
    P = PhysParams(tau=2.0, lam=1.0)

    # n = 100 is not a power of two; k = 1 is the t = 0 row's batch
    @pytest.mark.parametrize("n", [64, 100, 256, 1024])
    @pytest.mark.parametrize("k", [1, 2, 7, 32])
    def test_batched_row_is_the_single_row(self, monkeypatch, n, k):
        g = Grid(-15, 17, n)
        rng = np.random.default_rng(1000 * n + k)
        psi = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        psi *= np.sqrt(rng.uniform(0.6, 1.9, (k, 1))
                       / (np.sum(np.abs(psi) ** 2, axis=1, keepdims=True) * g.dx))
        band = rng.standard_normal((k, n // 10)) + 1j * rng.standard_normal((k, n // 10))
        band *= rng.uniform(0.0, 1.0, (k, 1))
        ts = (0.1 * np.arange(k)).tolist()
        single = [single_row(s, t, g, self.P) for s, t in zip(psi, ts)]
        # repr pins a float bit for bit, -0.0 against 0.0 included
        assert [repr(r) for r in _rows(psi, ts, g, self.P)] == [repr(r) for r in single]
        assert [repr(observables(WavePacket(g, s, t), self.P))
                for s, t in zip(psi, ts)] == [repr(Observables(*r)) for r in single]
        # each row's band share, rows sorted by it, is pinned bit for bit by the
        # largest BAND_SHARE_MAX that refuses it
        shares = [np.vdot(b, b).real * g.dx / (g.n * r[1]) for b, r in zip(band, single)]
        order = np.argsort(shares)
        psi, band = psi[order], band[order]
        for r, share in enumerate(np.array(shares)[order]):
            monkeypatch.setattr(madelung, "BAND_SHARE_MAX", share)
            assert rows_passed(_rows(psi, ts, g, self.P, band)) == min(r + 1, k)
            monkeypatch.setattr(madelung, "BAND_SHARE_MAX", np.nextafter(share, 0.0))
            assert rows_passed(_rows(psi, ts, g, self.P, band)) == r

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("drive", [DriveSpec(kind="sinusoid", x0=0.3, freq=0.6),
                                       DriveSpec(kind="conserving")],
                             ids=["sinusoid", "conserving"])
    def test_rows_do_not_depend_on_the_batch(self, monkeypatch, batch, stride, drive):
        # 128 rows a batch at n = 64; the run spans two blocks of steps
        g = Grid(1 - 16, 1 + 16, 64)
        w = gaussian_packet(g, 1.0, 1.0, p=self.P)
        steps = BLOCK_STEPS + 44
        fin, obs = evolve(w, self.P, drive, 0.01, steps, record_stride=stride)
        monkeypatch.setattr(madelung, "_batch_rows", lambda n: batch)
        fin_b, obs_b = evolve(w, self.P, drive, 0.01, steps, record_stride=stride)
        assert columns(obs_b) == columns(obs)
        assert fin_b.t == fin.t
        assert fin_b.psi.tobytes() == fin.psi.tobytes()

    def failure(self, monkeypatch, batch, *args, **kwargs):
        """evolve's NumericalFailure as (message, partial), with `batch` rows a batch
        (None: the default)."""
        with monkeypatch.context() as mp:
            if batch is not None:
                mp.setattr(madelung, "_batch_rows", lambda n: batch)
            with pytest.raises(NumericalFailure) as exc:
                evolve(*args, **kwargs)
        return str(exc.value), exc.value.partial

    def test_unresolved_row_inside_a_batch(self, monkeypatch):
        # the row at step 540 is the 28th of its batch of 32, and is reported as a
        # batch of one reports it
        message, partial = self.failure(monkeypatch, None, *unresolved(1000))
        assert message.startswith("evolution aborted at t~0.054: share 0.00104 of |psi|^2 ")
        assert len(partial) == 540
        message_1, partial_1 = self.failure(monkeypatch, 1, *unresolved(1000))
        assert (message_1, columns(partial_1)) == (message, columns(partial))

    # the row at step 540 is the 28th of the third block of 256 steps, whose rows are
    # checked in whole batches and at the block's end, step 768
    @pytest.mark.parametrize("batch, steps_run", [(1, 540), (7, 540), (None, 544),
                                                  (100, 612), (300, 768)])
    def test_no_step_runs_past_the_check_of_a_bad_row(self, monkeypatch, batch, steps_run):
        # evolve takes one _moments per step: it stops at the check of the bad row's batch
        calls = []

        def moments(*args):
            calls.append(None)
            return _moments(*args)

        monkeypatch.setattr(madelung, "_moments", moments)
        message, partial = self.failure(monkeypatch, batch, *unresolved(1000))
        assert len(calls) == steps_run
        assert message.startswith("evolution aborted at t~0.054: share 0.00104 of |psi|^2 ")
        assert len(partial) == 540

    def test_bad_row_wins_over_a_later_step_failure(self, monkeypatch):
        # tau = 1e-3 with the phase curvature cancelled: the norm leaves [0.5, 2] by
        # the first step, and the amplitudes overflow at step 72, before the
        # 128-row batch of n = 64 is full
        p = PhysParams(tau=1e-3, lam=0.5)
        w = gaussian_packet(Grid(0.5 - 16 * 0.9, 0.5 + 16 * 0.9, 64), 0.5, 0.9,
                            width_rate0=-450.0, p=p)
        message, partial = self.failure(monkeypatch, None, w, p, ZERO, 0.02, 150,
                                        record_stride=1000)
        assert message == "evolution aborted at t~1.44: non-finite amplitudes at t=1.44"
        message, partial = self.failure(monkeypatch, None, w, p, ZERO, 0.02, 150)
        assert message.startswith("evolution aborted at t~0.02: norm ")
        assert message.endswith(" outside [0.5, 2] at t=0.02")
        assert len(partial) == 1
        # the same in batches of one row or of 40, where the bad row's batch is checked
        # at step 40, before the step fails
        for batch in (1, 40):
            message_1, partial_1 = self.failure(monkeypatch, batch, w, p, ZERO, 0.02, 150)
            assert (message_1, columns(partial_1)) == (message, columns(partial))


class TestChecker:
    """evolve's recorded rows are closed in (k, n) batches: the bytes of 1-D closes."""

    P = PhysParams(tau=2.0, lam=1.0)

    # k up to _batch_rows(n): 128, 81, 32, 8 and 2 rows, 251 cases
    @pytest.mark.parametrize("n", [64, 100, 256, 1024, 4096])
    def test_batched_inverse_fft_rows_are_the_1d_rows(self, n):
        g = Grid(-15, 17, n)
        w = gaussian_packet(g, 1.0, 1.0, p=self.P)
        kin_half = madelung._setup(w, self.P, ZERO, g.dx * g.dx / np.pi, 1, 1)[0]
        batch = madelung._batch_rows(n)
        rng = np.random.default_rng(n)
        spectra = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
        closed = np.empty((batch, n), complex)
        row = np.empty(n, complex)
        for k in range(1, batch + 1):
            # as evolve's check closes a batch: in place, out= the batch itself
            np.multiply(kin_half, spectra[:k], out=closed[:k])
            madelung._ifft(closed[:k], 1 / n, out=closed[:k])
            for spectrum, state in zip(spectra[:k], closed[:k]):
                madelung._ifft(kin_half * spectrum, 1 / n, out=row)
                assert state.tobytes() == row.tobytes()


def pushed(t_end):
    """integrate's record of a centroid pushed by X = -1e153: the invariant overflows in
    the row at t = 5."""
    return integrate(ErmakovState(0.0, 1.0, 0.0, 0.0, 0.0),
                     PhysParams(omega=0.0, tau=math.inf, lam=1.0),
                     drive=DriveSpec(kind="constant", x0=-1e153), t_end=t_end, dt=0.1)


def unresolved(steps):
    """evolve's arguments for a packet narrowing below dx = 0.125 (tau = 0.01, and
    width_rate0 = -50 cancels the 1/(2 tau) phase curvature): the row at step 540,
    t = 0.054, leaks into the band."""
    p = PhysParams(tau=0.01)
    w = gaussian_packet(Grid(-15, 17, 256), 1.0, 1.0, width_rate0=-50.0, p=p)
    return w, p, ZERO, 1e-4, steps


def narrowed(steps):
    """evolve's record of unresolved(steps)."""
    w, *args = unresolved(steps)
    return evolve(w, *args)[1]


# (run, its failing argument, the time of the failing row, the rows before it,
# the argument that stops the run one row earlier, the kind of record it returns)
@pytest.mark.parametrize("run, failing, t_fail, rows, stopped, record", [
    (pushed, 10.0, "5.0", 50, 4.9, Trajectory),
    (narrowed, 1000, "0.054", 540, 539, Observables),
], ids=["integrate", "evolve"])
def test_partial_is_the_column_record_of_the_rows_before(run, failing, t_fail, rows,
                                                         stopped, record):
    # both solvers' partial is the kind of record they return, numpy columns of the
    # rows before the failing one, the t = 0 row at least: each solver's set-up
    # refuses a bad t = 0 row as bad input
    with pytest.raises(NumericalFailure, match=rf"aborted at t~{t_fail}: ") as exc:
        run(failing)
    partial = exc.value.partial
    assert type(partial) is record and len(partial) == rows >= 1
    for column in vars(partial).values():
        assert column.dtype == float and column.shape == (rows,)
    assert partial.t[-1] < float(t_fail)
    before = run(stopped)
    assert type(before) is record and columns(partial) == columns(before)


def test_fft_counts_of_every_mode(monkeypatch, run_modes):
    # the runs of tests/conftest.py's run_modes: each of the two 5-step 64-point runs
    # opens with one FFT pair, then makes one fft per step and one ifft per step but
    # the last, 11 calls, and checks its 5 rows once, with one (5, n) ifft that moves
    # the bytes of five 1-D calls and closes the final state; cli.resolve's call of
    # evolve's set-up, which checks each one's t = 0 row, adds one fft; the ode runs
    # make none.
    calls = []
    count_ffts(monkeypatch, calls)
    run_modes()
    assert len(calls) == 26
    assert sum(b for *_, b in calls) == 69632
