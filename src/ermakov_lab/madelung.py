"""Full 1-D PDE evolution and Madelung (hydrodynamic) diagnostics.

The wave equation integrated here is the nonlinear measurement Schrodinger
equation: a harmonic Hamiltonian with a classical drive term lambda*x*X(t)
plus a non-Hermitian sink -(i hbar / 4 tau) [(x - xbar)^2 / delta^2 - 1],
where xbar and delta^2 are the instantaneous mean and variance of |psi|^2.
Time stepping is Strang splitting: half-step spectral kinetic factor on a
periodic grid, full-step position-space potential/measurement multiplier,
half-step kinetic.  The closing half-step of one step and the opening
half-step of the next share one forward FFT and are applied as one full
kinetic factor; at every record point, the last step included, the closed
state and the next step's opened state go through one batched inverse FFT.
A step makes one fft call and one ifft call.  X(t) is DriveSpec.bind's
function, given the packet's deltadot/delta and mean (read by the conserving
kind).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, NumericalFailure
from .params import DriveSpec, PhysParams

#: Relative density floor below which hydrodynamic fields are masked.
RHO_FLOOR = 1e-8

#: Largest share of |psi|^2 a recorded row may hold in the band |k| >= BAND_EDGE pi/dx.
BAND_SHARE_MAX = 1e-3
BAND_EDGE = 0.9


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
        if not self.dx > 0:
            raise ConfigurationError(f"grid spacing (x_max - x_min)/n = "
                                     f"{self.x_max - self.x_min:g}/{self.n} underflows to 0")

    @cached_property
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
    finite, which keeps the fourth moment of `observables` finite, and
    delta0 >= dx, below which the samples miss the packet's width and norm.
    Last, a packet whose own observables fail the check of every row `evolve`
    records (a variance whose square underflows, a k_t beyond the float
    range) is a ConfigurationError here.
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
    x = grid.x
    u = x - xbar0
    two_var = 2.0 * delta0 * delta0
    rho = np.exp(-u * u / two_var) / math.sqrt(np.pi * two_var)
    with np.errstate(over="ignore", invalid="ignore"):  # observables refuses a non-finite psi
        S = (p.m / p.hbar) * (0.5 * slope * u * u + xbardot0 * u)
        w = WavePacket(grid=grid, psi=np.sqrt(rho) * np.exp(1j * S), t=0.0)
    try:
        observables(w, p)
    except NumericalFailure as exc:
        raise ConfigurationError(f"initial packet is not representable: {exc}") from None
    return w


def _moments(psi: np.ndarray, x: np.ndarray, dx: float):
    """Norm, mean, squared offsets (x - xbar)^2, variance and density of psi."""
    re, im = psi.real, psi.imag
    rho = re * re + im * im
    norm = float(np.add.reduce(rho)) * dx
    if norm <= 0:
        raise NumericalFailure("wavefunction has zero norm")
    xbar = float(x.dot(rho)) * dx / norm
    u2 = x - xbar
    u2 *= u2
    var = float(u2.dot(rho)) * dx / norm
    if var * var == 0.0:  # observables divides by var^2
        raise NumericalFailure(f"wavefunction has zero variance or one whose square "
                               f"underflows: {var:g}")
    return norm, xbar, u2, var, rho


def observables(w: WavePacket, p: PhysParams = PhysParams()) -> Observables:
    """Quadrature moments of rho plus the quantum-force slope k_t; a non-finite
    value among them raises NumericalFailure (the one check of a recorded row)."""
    norm, xbar, u2, var, rho = _moments(w.psi, w.grid.x, w.grid.dx)
    u2 *= u2
    m4 = float(u2.dot(rho)) * w.grid.dx / norm
    var2 = var * var
    row = (norm, xbar, math.sqrt(var), m4 / var2 - 3.0, p.hbar_2m * p.hbar_2m / var2)
    if not all(map(math.isfinite, row)):
        raise NumericalFailure(f"non-finite value in the observables recorded at t={w.t}")
    return Observables(w.t, *row)


def evolve(w: WavePacket, p: PhysParams, d: DriveSpec,
           dt: float, steps: int, record_stride: int = 1
           ) -> tuple[WavePacket, list[Observables]]:
    """Strang-split evolution; returns the final packet and recorded observables.

    The harmonic potential is constant: a modulated p (p.eps != 0), a dt that
    is not a positive finite number, steps < 1 and record_stride < 1 raise
    ConfigurationError.  The mean and variance entering the measurement
    multiplier are recomputed from the current psi, after the step's opening
    kinetic half-step, before each potential application.  The sink factor
    uses the exactly integrated width path of the pure-sink substep (variance
    decaying at rate 1/tau), which makes the substep norm-exact on a
    Gaussian; it agrees with exp(-(dt/4 tau)[(x-xbar)^2/delta^2 - 1]) to
    O(dt^2).  No renormalization is performed; norm drift is a diagnostic.

    The multiplier is applied as three factors: the real sink factor
    exp(amp), exp(-i (dt/hbar) m omega^2 x^2 / 2), built once per call, and
    exp(i c x) with c = -(dt/hbar) lambda X, the outer product of its values
    on the 32-point block starts and on the 32 offsets within a block.  The
    step then takes one forward FFT: a record point closes the step from it
    with the kinetic half-step, and the next step opens from it with the full
    kinetic factor (the closing and opening halves fused).  At every record
    point, the last step included, the two go through one inverse FFT of a
    (2, n) batch, so every step makes one fft call and one ifft call; over S
    steps with R record points after t = 0 that is 2S + 2 calls and
    2S + 2 + R transforms.  The result differs from unfused stepping by
    rounding only, and does not depend on record_stride.  Every FFT, and the
    drive factor, writes into buffers made once per call: the packet passed
    in is never written, and the returned psi is a row of this call's own
    (2, n) buffer, which a later call leaves alone.

    Every recorded row, the t = 0 row included, goes through one check: the
    finiteness check of `observables`, the norm window [0.5, 2], and at most
    BAND_SHARE_MAX of |psi|^2 in |k| >= BAND_EDGE pi/dx, read with no FFT from
    the spectrum in hand (a packet narrower than the grid resolves, or a phase
    turning faster, leaks there; dt has no kinetic limit).  Each step also
    detects non-finite amplitudes through the norm it computes (a sum of
    |psi|^2 >= 0, finite exactly when every entry is).  Any failure, of the
    moments or a sink factor exp(dt/tau) that overflows included, raises
    NumericalFailure naming its time, whose `partial` is the rows recorded before it.
    """
    if not 0 < dt < math.inf:
        raise ConfigurationError("dt must be positive and finite")
    if steps < 1 or record_stride < 1:
        raise ConfigurationError("steps and record_stride must be >= 1")
    if p.eps != 0.0:
        raise ConfigurationError("evolve needs a constant omega (eps = 0)")
    g = w.grid
    x = g.x
    kin_half = np.exp((-0.5j * dt * p.hbar_2m) * (g.k * g.k))
    kin_full = kin_half * kin_half
    cis_harmonic = np.exp(1j * (-(dt / p.hbar) * 0.5 * p.m * p.omega2(w.t) * x * x))
    # i x = ix[j] + ix[nb + l] at index 32 j + l (nb block starts, then the 32
    # offsets within a block); the last block may be ragged
    nb = -(-g.n // 32)
    ix = 1j * np.concatenate((g.x_min + 32 * g.dx * np.arange(nb), g.dx * np.arange(32)))
    cis = np.empty(nb + 32, complex)
    cis_blocks, cis_offsets = cis[:nb, None], cis[nb:]
    cis_drive = np.empty((nb, 32), complex)
    drive_flat = cis_drive.ravel()[:g.n]
    f = np.empty(g.n, complex)
    j = np.flatnonzero(np.abs(g.k) >= BAND_EDGE * np.pi / g.dx)  # around n/2, unshifted
    band = f[j[0]:j[-1] + 1]
    # row 0: the closed state of a record point, row 1: the next step opened;
    # closed_opened holds their spectra and states the states, which ifft
    # writes (psi is states[1] throughout)
    closed_opened = np.empty((2, g.n), complex)
    states = np.empty((2, g.n), complex)
    closed, psi = states
    drive_coef = -(dt / p.hbar) * p.lam
    sink_const = 0.25 * dt * p.inv_tau
    drive_at = d.bind(p)
    obs = []

    def record(psi, t):  # f holds the spectrum of psi, up to unit-modulus factors
        o = observables(WavePacket(g, psi, t), p)
        if not 0.5 <= o.norm <= 2.0:
            raise NumericalFailure(f"norm {o.norm} outside [0.5, 2] at t={t}")
        share = np.vdot(band, band).real * g.dx / (g.n * o.norm)  # sum |f|^2 = n norm / dx
        if not share <= BAND_SHARE_MAX:
            raise NumericalFailure(f"share {share:.3g} of |psi|^2 in the band |k| >= "
                                   f"{BAND_EDGE:g} pi/dx exceeds {BAND_SHARE_MAX:g} at t={t}")
        obs.append(o)

    t = w.t
    try:
        # exact pure-sink integral of 1/delta^2(s) over the step, per unit 1/delta^2(0)
        try:
            sink_gain = 0.5 * math.expm1(dt * p.inv_tau)
        except OverflowError as exc:
            raise NumericalFailure(f"sink factor exp(dt/tau) overflows at dt/tau = "
                                   f"{dt * p.inv_tau:.3g}") from exc
        np.fft.fft(w.psi, out=f)
        record(w.psi, t)
        prev_delta = obs[0].delta
        np.fft.ifft(np.multiply(kin_half, f, out=f), out=psi)
        for i in range(steps):
            norm, xbar, u2, var, _ = _moments(psi, x, g.dx)
            if not math.isfinite(norm):
                raise NumericalFailure(f"non-finite amplitudes at t={t}")
            delta = math.sqrt(var)
            # deltadot/delta from a backward difference of delta(t), 0 on the first step
            rate = (delta - prev_delta) / dt / delta if i > 0 else 0.0
            c = drive_coef * drive_at(t + 0.5 * dt, rate, xbar)
            u2 *= -sink_gain / (2.0 * var)
            u2 += sink_const
            psi *= np.exp(u2, out=u2)
            psi *= cis_harmonic
            np.exp(np.multiply(c, ix, out=cis), out=cis)
            np.multiply(cis_blocks, cis_offsets, out=cis_drive)
            psi *= drive_flat
            np.fft.fft(psi, out=f)
            t = w.t + (i + 1) * dt
            prev_delta = delta
            if (i + 1) % record_stride == 0 or i == steps - 1:
                # complex a * b and b * a can differ in the last bit: f * kin_full is
                # the state f *= kin_full opens, so psi does not depend on record_stride
                np.multiply(kin_half, f, out=closed_opened[0])
                np.multiply(f, kin_full, out=closed_opened[1])
                np.fft.ifft(closed_opened, out=states)
                record(closed, t)
            else:
                f *= kin_full
                np.fft.ifft(f, out=psi)
    except NumericalFailure as exc:
        raise NumericalFailure(f"evolution aborted at t~{t}: {exc}", partial=obs) from exc
    return WavePacket(grid=g, psi=closed, t=t), obs


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
    V_qu[mask] = -(p.hbar * p.hbar_2m) * curv[mask] / sq[mask]
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
    u = g.x - xbar
    delta = math.sqrt(float(np.sum(u * u * f.rho) * g.dx) / norm)
    sel = f.valid_mask & (np.abs(u) <= 4.0 * delta)
    if np.count_nonzero(sel) < 16:
        raise NumericalFailure("fewer than 16 valid points inside 4 delta")
    # derivative on the contiguous valid block, then restricted to the window
    idx = np.flatnonzero(f.valid_mask)
    Vb = f.V_qu[idx[0]:idx[-1] + 1]
    Fb = -np.gradient(Vb, g.dx) / p.m
    F = np.full(g.n, np.nan)
    F[idx[0]:idx[-1] + 1] = Fb
    s = u[sel]
    Fw = F[sel]
    k_est = float(np.sum(Fw * s) / np.sum(s * s))
    dev = np.max(np.abs(Fw - k_est * s)) / np.max(np.abs(Fw))
    return k_est, float(dev)
