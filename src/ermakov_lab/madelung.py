"""Full 1-D PDE evolution and Madelung (hydrodynamic) diagnostics.

The wave equation integrated here is the nonlinear measurement Schrodinger
equation: a harmonic Hamiltonian with a classical drive term lambda*x*X(t)
plus a non-Hermitian sink -(i hbar / 4 tau) [(x - xbar)^2 / delta^2 - 1],
where xbar and delta^2 are the instantaneous mean and variance of |psi|^2.
Time stepping is Strang splitting: half-step spectral kinetic factor on a
periodic grid, full-step position-space potential/measurement multiplier,
half-step kinetic.  The closing half-step of one step and the opening
half-step of the next share one forward FFT and are applied as one full
kinetic factor, so a step costs one FFT pair, plus one inverse FFT for the
closed state at a record point.  X(t) is DriveSpec.bind's function, given
the packet's deltadot/delta and mean (read by the conserving kind).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, NumericalFailure
from .params import DriveSpec, PhysParams

#: Relative density floor below which hydrodynamic fields are masked.
RHO_FLOOR = 1e-8


@dataclass(eq=False)
class Grid:
    """Uniform 1-D periodic grid."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ConfigurationError("x_max must exceed x_min")
        if self.n < 64:
            raise ConfigurationError("grid needs at least 64 points")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def x(self) -> np.ndarray:
        try:
            return self.x_min + self.dx * np.arange(self.n)
        except ValueError as exc:  # numpy refuses the size before allocating
            raise ConfigurationError(f"grid of {self.n} points is too large: {exc}") from None

    @cached_property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclass
class WavePacket:
    grid: Grid
    psi: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class Observables:
    t: float
    norm: float
    xbar: float
    delta: float
    excess_kurtosis: float
    k_t: float


@dataclass
class MadelungFields:
    grid: Grid
    rho: np.ndarray
    S: np.ndarray
    v_qu: np.ndarray
    V_qu: np.ndarray
    valid_mask: np.ndarray


def _d2_periodic(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central second derivative with periodic wrap."""
    return (-np.roll(f, 2) + 16 * np.roll(f, 1) - 30 * f
            + 16 * np.roll(f, -1) - np.roll(f, -2)) / (12.0 * dx * dx)


def gaussian_packet(grid: Grid, xbar0: float, delta0: float,
                    xbardot0: float = 0.0, width_rate0: float = 0.0,
                    p: PhysParams = PhysParams()) -> WavePacket:
    """Normalized Gaussian with the velocity field of the evolving ansatz.

    The phase is chosen so that v_qu(x, 0) = (width_rate0/delta0 + 1/(2 tau))
    (x - xbar0) + xbardot0.  Its wavenumber (m/hbar) v_qu must stay below the
    grid's Nyquist limit pi/dx on the packet's support |x - xbar0| <= 8 delta0,
    or the phase would alias.  The grid's span (x_max - x_min)^4 must be
    finite, which keeps the fourth moment of `observables` finite, so must
    (hbar/2m)^2, the numerator of its k_t, and delta0 >= dx, below which the
    samples miss the packet's width and norm.
    """
    if delta0 <= 0:
        raise ConfigurationError("delta0 must be positive")
    if xbar0 - 8 * delta0 < grid.x_min or xbar0 + 8 * delta0 > grid.x_max:
        raise ConfigurationError("packet must sit at least 8*delta0 from the boundaries")
    slope = width_rate0 / delta0 + 0.5 * p.inv_tau
    k_max = (p.m / p.hbar) * (abs(xbardot0) + abs(slope) * 8 * delta0)
    if not k_max < np.pi / grid.dx:
        raise ConfigurationError(f"packet wavenumber up to {k_max:.3g} reaches the grid's "
                                 f"Nyquist limit pi/dx = {np.pi / grid.dx:.3g}")
    if not 0 < 2.0 * np.pi * delta0 * delta0 < math.inf:
        raise ConfigurationError(f"delta0 = {delta0:g} is out of range: 2 pi delta0^2 "
                                 "must be positive and finite")
    span = grid.x_max - grid.x_min
    if not math.isfinite(span * span * span * span):
        raise ConfigurationError(f"grid span x_max - x_min = {span:g} is out of range")
    if delta0 < grid.dx:
        raise ConfigurationError(f"delta0 = {delta0:g} is below the grid spacing {grid.dx:g}")
    if not math.isfinite(p.hbar_2m * p.hbar_2m):
        raise ConfigurationError(f"(hbar/2m)^2 = ({p.hbar_2m:g})^2 is out of range")
    x = grid.x
    u = x - xbar0
    rho = (2.0 * np.pi * delta0 ** 2) ** -0.5 * np.exp(-u * u / (2.0 * delta0 ** 2))
    S = (p.m / p.hbar) * (0.5 * slope * u * u + xbardot0 * u)
    return WavePacket(grid=grid, psi=np.sqrt(rho) * np.exp(1j * S), t=0.0)


def _moments(psi: np.ndarray, x: np.ndarray, dx: float):
    """Norm, mean, squared offsets (x - xbar)^2, variance and density of psi."""
    re, im = psi.real, psi.imag
    rho = re * re + im * im
    norm = float(rho.sum()) * dx
    if norm <= 0:
        raise NumericalFailure("wavefunction has zero norm")
    xbar = float(x @ rho) * dx / norm
    u2 = x - xbar
    u2 *= u2
    var = float(u2 @ rho) * dx / norm
    if var * var == 0.0:  # observables divides by var^2
        raise NumericalFailure(f"wavefunction has zero variance or one whose square "
                               f"underflows: {var:g}")
    return norm, xbar, u2, var, rho


def observables(w: WavePacket, p: PhysParams = PhysParams()) -> Observables:
    """Quadrature moments of rho plus the quantum-force slope k_t."""
    norm, xbar, u2, var, rho = _moments(w.psi, w.grid.x, w.grid.dx)
    m4 = float((u2 * u2) @ rho) * w.grid.dx / norm
    delta = math.sqrt(var)
    return Observables(t=w.t, norm=norm, xbar=xbar, delta=delta,
                       excess_kurtosis=m4 / var ** 2 - 3.0,
                       k_t=p.hbar_2m * p.hbar_2m / (var * var))


def time_derivative(w: WavePacket, p: PhysParams, d: DriveSpec) -> np.ndarray:
    """Right-hand side d(psi)/dt at w.t; a conserving drive raises ConfigurationError."""
    g = w.grid
    _, _, u2, var, _ = _moments(w.psi, g.x, g.dx)
    kin = -(p.hbar ** 2 / (2.0 * p.m)) * np.fft.ifft(-g.k ** 2 * np.fft.fft(w.psi))
    pot = (0.5 * p.m * p.omega2(w.t) * g.x ** 2
           + p.lam * g.x * d.value(w.t)) * w.psi
    sink = 0.25 * p.inv_tau * (u2 / var - 1.0) * w.psi
    return (kin + pot) / (1j * p.hbar) - sink


def evolve(w: WavePacket, p: PhysParams, d: DriveSpec,
           dt: float, steps: int, record_stride: int = 1
           ) -> tuple[WavePacket, list[Observables]]:
    """Strang-split evolution; returns the final packet and recorded observables.

    The harmonic potential is constant: a modulated p (p.eps != 0), steps < 1
    and record_stride < 1 raise ConfigurationError.  The mean and variance
    entering the measurement multiplier are recomputed from the current psi,
    after the step's opening kinetic half-step, before each potential
    application.  The sink factor uses the exactly integrated width path of
    the pure-sink substep (variance decaying at rate 1/tau), which makes the
    substep norm-exact on a Gaussian; it agrees with
    exp(-(dt/4 tau)[(x-xbar)^2/delta^2 - 1]) to O(dt^2).  No renormalization
    is performed; norm drift is a diagnostic.

    The multiplier is applied as three factors: the real sink factor
    exp(amp), exp(-i (dt/hbar) m omega^2 x^2 / 2), built once per call, and
    exp(i c x) with c = -(dt/hbar) lambda X, the outer product of its values
    on the 32-point block starts and on the 32 offsets within a block.  The
    step then takes one forward FFT: a record point closes the step from it
    with the kinetic half-step, and the next step opens from it with the full
    kinetic factor (the closing and opening halves fused).  A step costs one
    FFT pair, plus one inverse FFT at a record point; the result differs from
    unfused stepping by rounding only.  Non-finite amplitudes are detected
    through the norm each step computes (a sum of |psi|^2 >= 0, finite
    exactly when every entry is); they, a non-finite observable and a norm
    outside [0.5, 2] at a record point raise NumericalFailure whose `partial`
    is the list of observables recorded before the failure; so does a sink
    factor exp(dt/tau) that overflows, with an empty list.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    if steps < 1 or record_stride < 1:
        raise ConfigurationError("steps and record_stride must be >= 1")
    if p.eps != 0.0:
        raise ConfigurationError("evolve needs a constant omega (eps = 0)")
    g = w.grid
    cfl = p.m * g.dx ** 2 / (np.pi * p.hbar)
    if dt > cfl:
        warnings.warn(f"dt={dt} exceeds the recommended kinetic bound {cfl:.3g}",
                      stacklevel=2)
    x = g.x
    kin_half = np.exp(-1j * p.hbar * g.k ** 2 / (2.0 * p.m) * 0.5 * dt)
    kin_full = kin_half * kin_half
    cis_harmonic = np.exp(1j * (-(dt / p.hbar) * 0.5 * p.m * p.omega2(w.t) * x * x))
    # x = x_blocks[j] + x_offsets[l] at index 32 j + l; the last block may be ragged
    x_blocks = g.x_min + 32 * g.dx * np.arange(-(-g.n // 32))
    x_offsets = g.dx * np.arange(32)
    drive_coef = -(dt / p.hbar) * p.lam
    # exact pure-sink integral of 1/delta^2(s) over the step, per unit 1/delta^2(0)
    try:
        sink_gain = 0.5 * math.expm1(dt * p.inv_tau)
    except OverflowError as exc:
        raise NumericalFailure(f"sink factor exp(dt/tau) overflows at dt/tau = "
                               f"{dt * p.inv_tau:.3g}", partial=[]) from exc
    sink_const = 0.25 * dt * p.inv_tau
    drive_at = d.bind(p)
    t = w.t
    obs = [observables(w, p)]
    prev_delta = obs[0].delta
    psi = np.fft.ifft(kin_half * np.fft.fft(w.psi))
    for i in range(steps):
        norm, xbar, u2, var, _ = _moments(psi, x, g.dx)
        if not math.isfinite(norm):
            raise NumericalFailure(f"non-finite amplitudes at t={t}", partial=obs)
        delta = math.sqrt(var)
        # deltadot/delta from a backward difference of delta(t), 0 on the first step
        rate = (delta - prev_delta) / dt / delta if i > 0 else 0.0
        c = drive_coef * drive_at(t + 0.5 * dt, rate, xbar)
        u2 *= -sink_gain / (2.0 * var)
        u2 += sink_const
        psi *= np.exp(u2, out=u2)
        psi *= cis_harmonic
        psi *= np.outer(np.exp(1j * c * x_blocks), np.exp(1j * c * x_offsets)).ravel()[:g.n]
        f = np.fft.fft(psi)
        t = w.t + (i + 1) * dt
        prev_delta = delta
        if (i + 1) % record_stride == 0 or i == steps - 1:
            psi = np.fft.ifft(kin_half * f)
            o = observables(WavePacket(g, psi, t), p)
            if not all(map(math.isfinite, (o.norm, o.xbar, o.delta, o.excess_kurtosis, o.k_t))):
                raise NumericalFailure(f"non-finite value in the observables recorded at t={t}",
                                       partial=obs)
            if not (0.5 <= o.norm <= 2.0):
                raise NumericalFailure(f"norm {o.norm} outside [0.5, 2] at t={t}",
                                       partial=obs)
            obs.append(o)
        if i < steps - 1:
            f *= kin_full
            psi = np.fft.ifft(f)
    return WavePacket(grid=g, psi=psi, t=t), obs


def madelung_decompose(w: WavePacket, p: PhysParams) -> MadelungFields:
    """Polar decomposition psi = sqrt(rho) e^{iS} and hydrodynamic fields.

    S is unwrapped cumulatively outward from the grid point nearest the
    density mean; v_qu = (hbar/m) dS/dx by central differences; V_qu is the
    Bohm potential, evaluated only where rho >= RHO_FLOOR * max(rho).
    """
    g = w.grid
    _, xbar, _, _, rho = _moments(w.psi, g.x, g.dx)
    i0 = int(np.argmin(np.abs(g.x - xbar)))
    theta = np.angle(w.psi)
    S = np.empty_like(theta)
    S[i0:] = np.unwrap(theta[i0:])
    S[:i0 + 1] = np.unwrap(theta[i0::-1])[::-1]
    v_qu = (p.hbar / p.m) * np.gradient(S, g.dx)
    sq = np.sqrt(rho)
    mask = rho >= RHO_FLOOR * rho.max()
    V_qu = np.full_like(rho, np.nan)
    curv = _d2_periodic(sq, g.dx)
    V_qu[mask] = -(p.hbar ** 2 / (2.0 * p.m)) * curv[mask] / sq[mask]
    return MadelungFields(grid=g, rho=rho, S=S, v_qu=v_qu, V_qu=V_qu,
                          valid_mask=mask)


def quantum_force_linearity(f: MadelungFields, p: PhysParams) -> tuple[float, float]:
    """(k_est, max_rel_dev): the least-squares slope of the quantum force
    F = -(1/m) dV_qu/dx against (x - xbar), and the largest deviation from it.

    The fit and the deviation maximum are restricted to |x - xbar| <= 4 delta
    inside the valid mask; deviations are relative to max|F| on that window.
    """
    g = f.grid
    norm = float(np.sum(f.rho) * g.dx)
    xbar = float(np.sum(g.x * f.rho) * g.dx) / norm
    delta = math.sqrt(float(np.sum((g.x - xbar) ** 2 * f.rho) * g.dx) / norm)
    sel = f.valid_mask & (np.abs(g.x - xbar) <= 4.0 * delta)
    if np.count_nonzero(sel) < 16:
        raise NumericalFailure("fewer than 16 valid points inside 4 delta")
    # derivative on the contiguous valid block, then restricted to the window
    idx = np.flatnonzero(f.valid_mask)
    Vb = f.V_qu[idx[0]:idx[-1] + 1]
    Fb = -np.gradient(Vb, g.dx) / p.m
    F = np.full(g.n, np.nan)
    F[idx[0]:idx[-1] + 1] = Fb
    s = (g.x - xbar)[sel]
    Fw = F[sel]
    k_est = float(np.sum(Fw * s) / np.sum(s * s))
    dev = np.max(np.abs(Fw - k_est * s)) / np.max(np.abs(Fw))
    return k_est, float(dev)
