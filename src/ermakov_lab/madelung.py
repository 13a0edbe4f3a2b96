"""Full 1-D PDE evolution and Madelung (hydrodynamic) diagnostics.

The wave equation integrated here is the nonlinear measurement Schrodinger
equation: a harmonic Hamiltonian with a classical drive term lambda*x*X(t)
plus a non-Hermitian sink -(i hbar / 4 tau) [(x - xbar)^2 / delta^2 - 1],
where xbar and delta^2 are the instantaneous mean and variance of |psi|^2.
Time stepping is Strang splitting: half-step spectral kinetic factor on a
periodic grid, full-step position-space potential/measurement multiplier,
half-step kinetic.  The closing half-step of one step and the opening
half-step of the next share one forward FFT and are applied as one full
kinetic factor.  A step makes one fft call and, but the last, one ifft call,
each straight to the numpy pocketfft gufunc that np.fft.fft or ifft wraps,
with np.fft's factor 1 or 1/n: the same bytes, less the wrapper's Python work
per call (norm, dtypes, axis, out's shape), a sizeable part of a call at a few
hundred points.  The t = 0 row is checked with _setup's bounds, a bad one a
ConfigurationError: gaussian_packet leaves the packet's own moments to that
check.  A record point keeps the step's spectrum; the later rows
are checked in batches, each closed in place with one (k, n) inverse FFT and
checked in one pass, into a table of columns, so a bad row is reported at the
check of its own batch, before any later step.  The last step always records,
and the final state is its row's closed state.  X at each step's midpoint is
read from DriveSpec.at tables made once per block of steps, or for the
conserving kind is bind's function of the packet's deltadot/delta and mean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np
# the transforms np.fft.fft/ifft call since numpy 2.0: (a, fct, out) along the last axis
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft

from .errors import ConfigurationError, NumericalFailure
from .params import DriveSpec, PhysParams, step_blocks

#: Relative density floor below which hydrodynamic fields are masked.
RHO_FLOOR = 1e-8

#: Largest share of |psi|^2 a recorded row may hold in the band |k| >= BAND_EDGE pi/dx.
BAND_SHARE_MAX = 1e-3
BAND_EDGE = 0.9

#: Grid points of recorded rows that evolve checks as one batch.
ROW_POINTS = 8192


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
        except (ValueError, MemoryError) as exc:  # a size beyond numpy's limits or memory
            raise ConfigurationError(f"grid of {self.n} points is too large: {exc}") from None

    @cached_property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def band(self) -> slice:
        """The spectrum's indices at |k| >= BAND_EDGE pi/dx: one run around n/2, unshifted."""
        j = np.flatnonzero(np.abs(self.k) >= BAND_EDGE * np.pi / self.dx)
        return slice(int(j[0]), int(j[-1]) + 1)


@dataclass
class WavePacket:
    grid: Grid
    psi: np.ndarray
    t: float = 0.0


@dataclass
class Observables:
    """Recorded rows of the PDE, a numpy column per field (floats from `observables`)."""

    t: np.ndarray
    norm: np.ndarray
    xbar: np.ndarray
    delta: np.ndarray
    excess_kurtosis: np.ndarray
    k_t: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class MadelungFields:
    """The fields of madelung_decompose on the grid, and the density's mean xbar and
    width delta, the moments of _moments that it reads."""

    grid: Grid
    rho: np.ndarray
    S: np.ndarray
    v_qu: np.ndarray
    V_qu: np.ndarray
    valid_mask: np.ndarray
    xbar: float
    delta: float


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
    The packet's own row is checked by evolve's set-up, _setup, with every row
    evolve records: a variance whose square underflows or a k_t beyond the float
    range is a ConfigurationError there.
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
    with np.errstate(over="ignore", invalid="ignore"):  # _setup refuses a non-finite psi
        S = (p.m / p.hbar) * (0.5 * slope * u * u + xbardot0 * u)
        return WavePacket(grid=grid, psi=np.sqrt(rho) * np.exp(1j * S), t=0.0)


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
    """Quadrature moments of rho plus the quantum-force slope k_t, an Observables of
    floats, by the pass of _rows on the one state w.psi: a zero norm, a variance whose
    square underflows or a non-finite value among them raises NumericalFailure.  For
    library callers: evolve and the CLI form their rows by _rows and do not call it."""
    with np.errstate(all="ignore"):  # a failed moment shows in the row's checks
        return Observables(*next(_rows(w.psi[None], [w.t], w.grid, p)))


def _rows(psi: np.ndarray, ts: list, g: Grid, p: PhysParams, band: np.ndarray | None = None):
    """Observables fields of the states psi, shape (k, n), at the times ts, a tuple per
    row: one batched pass forms the moments of all k rows, then checks and yields each.

    A zero norm, a variance whose square underflows to 0 or a non-finite value raises
    NumericalFailure; given `band`, the states' spectra at |k| >= BAND_EDGE pi/dx, so do
    a norm outside the window [0.5, 2] and more than BAND_SHARE_MAX of |psi|^2 in the
    band.  Each row is bit for bit the 1-D pass of _moments: add.reduce and np.vecdot
    over the last axis sum a row in the order of add.reduce, x.dot(rho) and np.vdot.
    """
    x, dx = g.x, g.dx
    re, im = psi.real, psi.imag
    rho = re * re + im * im
    norm = np.add.reduce(rho, axis=-1) * dx
    xbar = np.vecdot(rho, x) * dx / norm
    u2 = x - xbar[:, None]
    u2 *= u2
    sums2 = np.vecdot(u2, rho)
    u2 *= u2
    sums4 = np.vecdot(u2, rho)
    sums_band = repeat(None) if band is None else np.vecdot(band, band).real.tolist()
    hbar2 = p.hbar_2m * p.hbar_2m
    for t, nm, xb, s2, s4, sb in zip(ts, norm.tolist(), xbar.tolist(), sums2.tolist(),
                                     sums4.tolist(), sums_band):
        if nm <= 0:
            raise NumericalFailure("wavefunction has zero norm")
        var = s2 * dx / nm
        var2 = var * var
        if var2 == 0.0:
            raise NumericalFailure(f"wavefunction has zero variance or one whose square "
                                   f"underflows: {var:g}")
        row = (nm, xb, math.sqrt(var), s4 * dx / nm / var2 - 3.0, hbar2 / var2)
        if not all(map(math.isfinite, row)):
            raise NumericalFailure(f"non-finite value in the observables recorded at t={t}")
        if band is not None:
            if not 0.5 <= nm <= 2.0:
                raise NumericalFailure(f"norm {nm} outside [0.5, 2] at t={t}")
            share = sb * dx / (g.n * nm)  # sum |f|^2 = n norm / dx
            if not share <= BAND_SHARE_MAX:
                raise NumericalFailure(f"share {share:.3g} of |psi|^2 in the band |k| >= "
                                       f"{BAND_EDGE:g} pi/dx exceeds {BAND_SHARE_MAX:g} "
                                       f"at t={t}")
        yield (t, *row)


def _batch_rows(n: int) -> int:
    """Rows per batch of evolve's recorded rows on an n-point grid: ROW_POINTS
    grid points of them, and at least 2."""
    return max(2, ROW_POINTS // n)


def _setup(w: WavePacket, p: PhysParams, d: DriveSpec, dt: float, steps: int, record_stride: int):
    """evolve's checks before its first step, each a ConfigurationError, and what it forms
    there: kin_half, cis_harmonic, the sink gain (exp(dt/tau) - 1)/2, the table of rows
    holding w's t = 0 row, the last check, w.psi's spectrum f and the conserving drive's
    function of bind (None for the other kinds; bind refuses it at lambda = 0).  The
    factors are refused by their entries' finiteness, the gain where exp(dt/tau)
    overflows, the row by _rows against f's band; cli.resolve calls it on every pde and
    compare config."""
    g = w.grid
    if not 0 < dt < math.inf:
        raise ConfigurationError("dt must be positive and finite")
    if steps < 1 or record_stride < 1:
        raise ConfigurationError("steps and record_stride must be >= 1")
    if p.eps != 0.0:
        raise ConfigurationError("evolve needs a constant omega (eps = 0)")
    feedback = d.bind(p) if d.kind == "conserving" else None  # the one kind reading psi
    dt_hbar = dt / p.hbar
    x_bound = d.x_bound  # None for the conserving kind
    if x_bound is not None:
        lam_x = abs(p.lam) * x_bound
        x_far = max(abs(g.x_min), abs(g.x_max))
        if not math.isfinite(dt_hbar * lam_x * x_far):
            raise ConfigurationError(f"drive phase (dt/hbar) |lambda| max|X| max|x| = {dt_hbar:g}"
                                     f" * {lam_x:g} * {x_far:g} is beyond the float range")
    if not math.isfinite(dt_hbar * p.lam):  # inf * X is NaN even for X = 0
        raise ConfigurationError(f"drive coefficient (dt/hbar) lambda = {dt_hbar:g} * "
                                 f"{p.lam:g} is beyond the float range")
    with np.errstate(all="ignore"):  # an overflowing phase gives a NaN factor, refused here
        cis_harmonic = np.exp(1j * (-dt_hbar * 0.5 * p.m * p.omega2(0.0) * g.x * g.x))
        kin_half = np.exp((-0.5j * dt * p.hbar_2m) * (g.k * g.k))
    if not np.isfinite(cis_harmonic).all():
        raise ConfigurationError(f"harmonic phase (dt/hbar) m omega^2 x^2 / 2 = {dt_hbar:g} * "
                                 f"{p.m:g} * {p.omega:g}^2 * x^2 / 2 is beyond the float range")
    if not np.isfinite(kin_half).all():
        raise ConfigurationError(f"kinetic phase dt (hbar/2m) k^2 / 2 = {dt:g} * "
                                 f"{p.hbar_2m:g} * k^2 / 2 is beyond the float range")
    try:  # numpy refuses a size beyond its limits, or beyond memory, before allocating
        rows = np.empty((2 + (steps - 1) // record_stride, 6))
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"{steps} steps record too many rows: {exc}") from None
    try:  # exact pure-sink integral of 1/delta^2(s) over the step, per unit 1/delta^2(0)
        sink_gain = 0.5 * math.expm1(dt * p.inv_tau)
    except OverflowError:
        raise ConfigurationError(f"sink factor exp(dt/tau) overflows at dt/tau = "
                                 f"{dt * p.inv_tau:.3g}") from None
    f = np.empty(g.n, complex)
    with np.errstate(all="ignore"):  # a failed moment shows in the row's checks
        _fft(w.psi, 1.0, out=f)
        try:
            rows[0] = next(_rows(w.psi[None], [w.t], g, p, f[None, g.band]))
        except NumericalFailure as exc:
            raise ConfigurationError(f"initial packet is not resolved: {exc}") from None
    return kin_half, cis_harmonic, sink_gain, rows, f, feedback


def evolve(w: WavePacket, p: PhysParams, d: DriveSpec,
           dt: float, steps: int, record_stride: int = 1
           ) -> tuple[WavePacket, Observables]:
    """Strang-split evolution; returns the final packet and the rows as columns.

    Before the first step, _setup raises ConfigurationError for a bad dt, steps or
    record_stride, a modulated p, a conserving drive at lambda = 0 (it binds that
    kind), a drive phase or coefficient beyond the float range,
    a non-finite harmonic or kinetic factor, more rows than numpy can allocate, a sink
    factor exp(dt/tau) beyond the float range and a t = 0 row failing the check below.
    The mean and variance entering the measurement multiplier are recomputed from the
    current psi, after the step's opening kinetic half-step, before each potential
    application.  The sink factor uses the exactly
    integrated width path of the pure-sink substep (variance decaying at rate 1/tau),
    which makes the substep norm-exact on a Gaussian; it agrees with
    exp(-(dt/4 tau)[(x-xbar)^2/delta^2 - 1]) to O(dt^2).  No renormalization is
    performed; norm drift is a diagnostic.

    The multiplier is applied as three factors: the real sink factor
    exp(amp), exp(-i (dt/hbar) m omega^2 x^2 / 2), built once per call by _setup, and
    exp(i c x) with c = -(dt/hbar) lambda X, the outer product of its values
    on the 32-point block starts and on the 32 offsets within a block.  X is
    read at each step's t + dt/2 from DriveSpec.at tables, one per block of
    step_blocks; the conserving kind calls bind's function once per step.  The
    step then takes one forward FFT, and the next step opens from its spectrum
    f with the full kinetic factor (the closing and opening halves fused) and
    one inverse FFT.  A record point, the last step always among them, copies
    f into a (batch, n) buffer, and the rows' closed states are formed at
    their batch's check (below), by one inverse FFT of the (k, n) batch in
    place; the returned psi is a copy of the last row's.  So every step makes
    one fft call and every step but the last one ifft call; over S steps with
    R record points after t = 0, checked in H batches, that is 2S + 1 + H
    calls and 2S + 1 + R transforms, one close per row.  Each row of a (k, n)
    transform is bit for bit the 1-D transform of that row.  The calls go to
    the module's _fft and _ifft, read once per evolve call: numpy's pocketfft
    gufuncs with the factors 1 and 1/n that np.fft passes them, which skips
    np.fft's Python wrapper, a sizeable part of a call at a few hundred
    points, and keeps its bytes.  The result differs from unfused stepping by
    rounding only, and does not depend on record_stride.  Every FFT, and the
    drive factor, writes into buffers made once per call: the packet passed
    in is never written, and the returned psi is this call's own array,
    which a later call leaves alone.

    Every recorded row, the t = 0 row included, goes through one check: the finiteness
    check of `observables`, the norm window [0.5, 2], and at most BAND_SHARE_MAX of
    |psi|^2 in |k| >= BAND_EDGE pi/dx, read with no FFT from the row's spectrum (a
    packet narrower than the grid resolves, or a phase turning faster, leaks there; dt
    has no kinetic limit).  The t = 0 row is checked by _setup, which cli.resolve also
    runs: a bad one is bad input.  The later rows are checked in batches of up to
    _batch_rows(n), in this process: when the buffer is full and at the end of each
    block of steps, the last step's included.  A check closes the k spectra in place
    with kin_half and one (k, n) inverse FFT, checks the rows in one pass of _rows, and
    writes them into a table made once per call, whose columns are returned.

    Each step also detects non-finite amplitudes through the norm it computes (a sum
    of |psi|^2 >= 0, finite exactly when every entry is).  Any failure, of the moments
    included, raises NumericalFailure naming its time, whose `partial` is the
    Observables of the rows recorded before it, the t = 0 row at least.  A bad
    row is reported at its own time, at the check of its batch, before any later step;
    a step that fails first checks the pending rows, so an earlier bad row still wins.
    """
    g = w.grid
    # rows of (t, norm, xbar, delta, excess_kurtosis, k_t), `done` checked, w's spectrum f
    # and the conserving drive's function of the packet
    kin_half, cis_harmonic, sink_gain, rows, f, feedback = _setup(w, p, d, dt, steps,
                                                                  record_stride)
    x = g.x
    kin_full = kin_half * kin_half
    # i x = ix[j] + ix[nb + l] at index 32 j + l (nb block starts, then the 32
    # offsets within a block); the last block may be ragged
    nb = -(-g.n // 32)
    ix = 1j * np.concatenate((g.x_min + 32 * g.dx * np.arange(nb), g.dx * np.arange(32)))
    cis = np.empty(nb + 32, complex)
    cis_blocks, cis_offsets = cis[:nb, None], cis[nb:]
    cis_drive = np.empty((nb, 32), complex)
    drive_flat = cis_drive.ravel()[:g.n]
    psi = np.empty(g.n, complex)
    # the factors np.fft passes: 1 forward, reciprocal(n) inverse, which is 1.0 / n to the bit
    fft, ifft, inv_n = _fft, _ifft, 1.0 / g.n
    # the spectra of the recorded rows not yet checked, at the times `pending`
    batch = _batch_rows(g.n)
    spectra = np.empty((batch, g.n), complex)
    pending = []
    drive_coef = -(dt / p.hbar) * p.lam
    sink_const = 0.25 * dt * p.inv_tau
    done = 1

    def check():
        """Close the pending rows' spectra in place and check their rows into `rows`;
        raise the first bad row at its own time, else return the last row's state."""
        nonlocal done
        k, first = len(pending), done
        spec = spectra[:k]
        band = spec[:, g.band].copy()
        ifft(np.multiply(kin_half, spec, out=spec), inv_n, out=spec)
        try:
            for row in _rows(spec, pending, g, p, band):
                rows[done] = row
                done += 1
        except NumericalFailure as exc:
            raise NumericalFailure(f"evolution aborted at t~{pending[done - first]}: {exc}",
                                   partial=Observables(*rows[:done].T)) from None
        pending.clear()
        return spec[-1]

    t = w.t
    # a step run past a bad row may overflow: that row's check reports it
    with np.errstate(all="ignore"):
        try:
            ifft(np.multiply(kin_half, f, out=f), inv_n, out=psi)
            for block, xs_h in step_blocks(w.t, dt, steps, d, 0.5 * dt):
                for i, x_h in zip(block, xs_h):
                    norm, xbar, u2, var, _ = _moments(psi, x, g.dx)
                    if not math.isfinite(norm):
                        raise NumericalFailure(f"non-finite amplitudes at t={t}")
                    if feedback:  # deltadot/delta from a backward difference of delta
                        delta = math.sqrt(var)
                        rate = (delta - prev_delta) / dt / delta if i > 0 else 0.0
                        x_h = feedback(t + 0.5 * dt, rate, xbar)
                        prev_delta = delta
                    c = drive_coef * x_h
                    u2 *= -sink_gain / (2.0 * var)
                    u2 += sink_const
                    psi *= np.exp(u2, out=u2)
                    psi *= cis_harmonic
                    np.exp(np.multiply(c, ix, out=cis), out=cis)
                    np.multiply(cis_blocks, cis_offsets, out=cis_drive)
                    psi *= drive_flat
                    fft(psi, 1.0, out=f)
                    t = w.t + (i + 1) * dt
                    last = i == steps - 1
                    if last or (i + 1) % record_stride == 0:
                        spectra[len(pending)] = f
                        pending.append(t)
                    if not last:
                        f *= kin_full
                        ifft(f, inv_n, out=psi)
                    if len(pending) == batch:
                        final = check()
                if pending:
                    final = check()
        except NumericalFailure as exc:
            if exc.partial is not None:  # a bad row, which check reports at its own time
                raise
            if pending:  # an earlier bad row wins over this failure
                check()
            raise NumericalFailure(f"evolution aborted at t~{t}: {exc}",
                                   partial=Observables(*rows[:done].T)) from exc
    return WavePacket(grid=g, psi=final.copy(), t=t), Observables(*rows[:done].T)


def madelung_decompose(w: WavePacket, p: PhysParams) -> MadelungFields:
    """Polar decomposition psi = sqrt(rho) e^{iS} and hydrodynamic fields.

    S is unwrapped cumulatively outward from the grid point nearest the
    density mean; v_qu = (hbar/m) dS/dx by central differences; V_qu is the
    Bohm potential, evaluated only where rho >= RHO_FLOOR * max(rho).
    """
    g = w.grid
    _, xbar, _, var, rho = _moments(w.psi, g.x, g.dx)
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
                          valid_mask=mask, xbar=xbar, delta=math.sqrt(var))


def quantum_force_linearity(f: MadelungFields, p: PhysParams) -> tuple[float, float]:
    """(k_est, max_rel_dev): the least-squares slope of the quantum force
    F = -(1/m) dV_qu/dx against (x - xbar), and the largest deviation from it.

    The fit and the deviation maximum are restricted to |x - f.xbar| <= 4 f.delta
    inside the valid mask; deviations are relative to max|F| on that window.
    """
    g = f.grid
    u = g.x - f.xbar
    sel = f.valid_mask & (np.abs(u) <= 4.0 * f.delta)
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
