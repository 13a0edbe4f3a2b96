"""Full 1-D PDE evolution and Madelung (hydrodynamic) diagnostics.

The wave equation integrated here is the nonlinear measurement Schrodinger
equation: a harmonic Hamiltonian with a classical drive term lambda*x*X(t)
plus a non-Hermitian sink -(i hbar / 4 tau) [(x - xbar)^2 / delta^2 - 1],
where xbar and delta^2 are the instantaneous mean and variance of |psi|^2.
Time stepping is Strang splitting: half-step spectral kinetic factor on a
periodic grid, full-step position-space potential/measurement multiplier,
half-step kinetic.  The closing half-step of one step and the opening
half-step of the next share one forward FFT and are applied as one full
kinetic factor.  A step makes one fft call and one ifft call, each straight
to the numpy pocketfft gufunc that np.fft.fft or ifft wraps, with np.fft's
factor 1 or 1/n: the same bytes, less the wrapper's Python work per call
(norm, dtypes, axis, out's shape), a sizeable part of a call at a few
hundred points.  A record point keeps the step's spectrum; the recorded rows
are handed off in batches to a checker, which closes them with one (k, n)
inverse FFT and checks them in one pass, into a table of columns.  On a
second CPU, for a run with enough rows, the checker is a forked child that
works while the steps go on; a bad row is then reported after at most two
hand-offs of further steps.  X at each step's midpoint is read from
DriveSpec.at tables made once per block of steps, or for the conserving
kind is bind's function of the packet's deltadot/delta and mean.
"""
from __future__ import annotations

import math
import os
import pickle
import threading
import warnings
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

#: Grid points of recorded rows after t = 0 from which evolve checks them in a forked
#: child: below it the fork costs more than the overlap saves.
FORK_POINTS = 1 << 19


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
    """Quadrature moments of rho plus the quantum-force slope k_t, an Observables of
    floats, by the pass of _rows on the one state w.psi: a zero norm, a variance whose
    square underflows or a non-finite value among them raises NumericalFailure."""
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


def _setup(g: Grid, p: PhysParams, d: DriveSpec, dt: float, steps: int, record_stride: int):
    """evolve's checks before its first step, each a ConfigurationError, and what it forms
    there: kin_half, cis_harmonic and the empty table of rows.  The factors are refused by
    the finiteness of their entries; cli.resolve calls it on every pde and compare config."""
    if not 0 < dt < math.inf:
        raise ConfigurationError("dt must be positive and finite")
    if steps < 1 or record_stride < 1:
        raise ConfigurationError("steps and record_stride must be >= 1")
    if p.eps != 0.0:
        raise ConfigurationError("evolve needs a constant omega (eps = 0)")
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
        return kin_half, cis_harmonic, np.empty((2 + (steps - 1) // record_stride, 6))
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"{steps} steps record too many rows: {exc}") from None


def _cpus() -> int:
    """CPUs this process may use for forked workers: one when os.fork or os.sched_getaffinity
    is missing, or while a second thread runs, since forking a threaded process can deadlock."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _fork() -> int:
    """os.fork(), without the warning Python >= 3.12 gives while native threads run (numpy's
    BLAS pool, which is fork-safe); _cpus rules out a second Python thread."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                DeprecationWarning)
        return os.fork()


class _Checker:
    """A forked process that runs check(slot, ts) on every task the parent sends it, in
    order, and sends each result back; it ends at the end of its task pipe."""

    def __init__(self, check):
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = _fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(check, *fds)
        tasks_r, tasks_w, results_r, results_w = fds
        os.close(tasks_r)
        os.close(results_w)
        self.tasks, self.results = open(tasks_w, "wb"), open(results_r, "rb")

    def send(self, slot: int, ts: list) -> None:
        try:
            pickle.dump((slot, ts), self.tasks)
            self.tasks.flush()
        except BrokenPipeError:
            raise self.ended(ts) from None

    def receive(self, ts: list):
        try:
            return pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):
            raise self.ended(ts) from None

    def ended(self, ts: list) -> RuntimeError:
        return RuntimeError(f"evolve's row checker (process {self.pid}) ended before "
                            f"checking the rows at t={ts[0]}..{ts[-1]}")

    def close(self, terminate: bool) -> None:
        """End the process, by SIGTERM if `terminate`, else at the end of its tasks, and reap it."""
        if terminate:
            import signal

            os.kill(self.pid, signal.SIGTERM)
        for pipe in (self.tasks, self.results):
            try:
                pipe.close()
            except OSError:  # unsent bytes of a task to a process that has ended
                pass
        os.waitpid(self.pid, 0)


def _serve(check, tasks_r: int, tasks_w: int, results_r: int, results_w: int):
    """A forked checker's whole life: answer each task until the pipe ends, then exit, 0 at
    that end and 1 otherwise.  It never returns."""
    status = 1
    try:
        os.close(tasks_w)
        os.close(results_r)
        with open(tasks_r, "rb") as tasks, open(results_w, "wb") as results:
            while True:
                try:
                    slot, ts = pickle.load(tasks)
                except EOFError:
                    break
                pickle.dump(check(slot, ts), results)
                results.flush()
        status = 0
    finally:
        os._exit(status)


def _shared(shape: tuple) -> np.ndarray:
    """An empty complex array in an anonymous shared mapping, which a forked child shares."""
    import mmap

    return np.frombuffer(mmap.mmap(-1, 16 * math.prod(shape)), complex).reshape(shape)


def evolve(w: WavePacket, p: PhysParams, d: DriveSpec,
           dt: float, steps: int, record_stride: int = 1
           ) -> tuple[WavePacket, Observables]:
    """Strang-split evolution; returns the final packet and the rows as columns.

    Before the first step, _setup raises ConfigurationError for a bad dt, steps or
    record_stride, a modulated p, a drive phase or coefficient beyond the float range,
    a non-finite harmonic or kinetic factor and more rows than numpy can allocate.
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
    one inverse FFT; the last step instead closes with the kinetic half-step.
    A record point copies f into a slot of a (2, batch, n) ring, and the
    rows' closed states are formed later, by one inverse FFT of a (k, n)
    batch per hand-off (below).  So every step makes one fft call and one
    ifft call; over S steps with R record points after t = 0, handed off in
    H batches, that is 2S + 2 + H calls and 2S + 2 + R transforms.  Each row
    of a (k, n) transform is bit for bit the 1-D transform of that row.  The
    calls go to the module's _fft and _ifft, read once per evolve call:
    numpy's pocketfft gufuncs with the factors 1 and 1/n that np.fft passes
    them, which skips np.fft's Python wrapper, a sizeable part of a call at a
    few hundred points, and keeps its bytes.  The result differs from
    unfused stepping by rounding only, and does not depend on record_stride.
    Every FFT, and the drive factor, writes into buffers made once per call:
    the packet passed in is never written, and the returned psi is this
    call's own buffer, which a later call leaves alone.

    Every recorded row, the t = 0 row included, goes through one check: the finiteness
    check of `observables`, the norm window [0.5, 2], and at most BAND_SHARE_MAX of
    |psi|^2 in |k| >= BAND_EDGE pi/dx, read with no FFT from the row's spectrum (a
    packet narrower than the grid resolves, or a phase turning faster, leaks there; dt
    has no kinetic limit).  The t = 0 row is checked on its own.  The later rows are
    handed off in batches of up to _batch_rows(n): when a slot is full, at the end of
    each block of steps and at the last step.  One checker handles each batch: it
    closes the k spectra with kin_half and one (k, n) inverse FFT, and checks the rows
    in one pass of _rows.  The checker runs in a child forked before the first step,
    fed slot numbers and times over a pipe and sending the rows back over another,
    while the steps go on, when this process may use a second CPU (see _cpus) and the
    rows after t = 0 fill more than one batch and hold FORK_POINTS grid points or
    more; the caller blocks only to refill a slot whose batch is still being checked.
    Otherwise it runs in this process at each hand-off.  The checked rows go into a
    table made once per call, whose columns are returned.  The child ends when its
    pipe ends, after evolve has taken every batch, or by SIGTERM when evolve raises;
    it is reaped on every path, so no process outlives the call.  A tracer in the
    calling process does not see the child's work.

    Each step also detects non-finite amplitudes through the norm it computes (a sum
    of |psi|^2 >= 0, finite exactly when every entry is).  Any failure, of the moments
    or a sink factor exp(dt/tau) that overflows included, raises NumericalFailure
    naming its time, whose `partial` is the Observables of the rows recorded before
    it, empty if the t = 0 row fails.  A bad row is reported at its own time, after at
    most two hand-offs of further steps; a step that fails first hands off and checks
    the pending rows, so an earlier bad row still wins.
    """
    g = w.grid
    # rows of (t, norm, xbar, delta, excess_kurtosis, k_t), `done` of them checked
    kin_half, cis_harmonic, rows = _setup(g, p, d, dt, steps, record_stride)
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
    f = np.empty(g.n, complex)
    psi = np.empty(g.n, complex)
    # the factors np.fft passes: 1 forward, reciprocal(n) inverse, which is 1.0 / n to the bit
    fft, ifft, inv_n = _fft, _ifft, 1.0 / g.n
    j = np.flatnonzero(np.abs(g.k) >= BAND_EDGE * np.pi / g.dx)  # around n/2, unshifted
    j0, j1 = j[0], j[-1] + 1
    # the spectra of the recorded rows, two slots of a batch, shared with a forked checker;
    # `pending` holds the times of the rows in the slot being filled, `handed` those of the
    # slots handed to the child, oldest first
    batch = _batch_rows(g.n)
    n_rows = len(rows) - 1  # after t = 0
    forked = n_rows > batch and n_rows * g.n >= FORK_POINTS and _cpus() > 1
    shape = (2, batch, g.n)
    spectra = _shared(shape) if forked else np.empty(shape, complex)
    slot, pending, handed = 0, [], []
    checker = closed = None
    drive_coef = -(dt / p.hbar) * p.lam
    sink_const = 0.25 * dt * p.inv_tau
    # the one kind that reads the packet; bind refuses it at lambda = 0
    feedback = d.bind(p) if d.kind == "conserving" else None
    done = 0

    def check(s, ts):
        """The checker: close the len(ts) spectra of slot s and check their rows; return
        the rows before the first bad one and that row's message, or None."""
        nonlocal closed
        if closed is None:
            closed = np.empty((batch, g.n), complex)
        k = len(ts)
        spec = spectra[s, :k]
        band = spec[:, j0:j1].copy()
        good = []
        with np.errstate(all="ignore"):  # a failed moment shows in the row's checks
            ifft(np.multiply(kin_half, spec, out=spec), inv_n, out=closed[:k])
            try:
                for row in _rows(closed[:k], ts, g, p, band):
                    good.append(row)
            except NumericalFailure as exc:
                return good, str(exc)
        return good, None

    def take(ts, result):
        """Write a batch's checked rows into rows; raise its bad row at the row's own time."""
        nonlocal done
        good, message = result
        if good:
            rows[done:done + len(good)] = good
            done += len(good)
        if message is not None:
            raise NumericalFailure(f"evolution aborted at t~{ts[len(good)]}: {message}",
                                   partial=Observables(*rows[:done].T))

    def hand_off():
        """Hand the pending rows to the checker: the forked one, or this process's."""
        nonlocal slot
        ts = pending.copy()
        pending.clear()
        if checker is None:
            take(ts, check(slot, ts))
        else:
            checker.send(slot, ts)
            handed.append(ts)
            slot = 1 - slot

    def collect():
        """Take the result of the oldest batch handed to the child, waiting for it."""
        ts = handed.pop(0)
        take(ts, checker.receive(ts))

    t = w.t
    try:
        if forked:
            try:
                checker = _Checker(check)
            except OSError:  # no process or pipe to spare: check the rows here
                pass
        # a step run past a bad row may overflow: that row's check reports it
        with np.errstate(all="ignore"):
            try:
                # exact pure-sink integral of 1/delta^2(s) over the step, per unit 1/delta^2(0)
                try:
                    sink_gain = 0.5 * math.expm1(dt * p.inv_tau)
                except OverflowError as exc:
                    raise NumericalFailure(f"sink factor exp(dt/tau) overflows at dt/tau = "
                                           f"{dt * p.inv_tau:.3g}") from exc
                fft(w.psi, 1.0, out=f)
                rows[0] = next(_rows(w.psi[None], [t], g, p, f[None, j0:j1]))
                done = 1
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
                            if not pending and len(handed) == 2:  # the slot is being checked
                                collect()
                            spectra[slot, len(pending)] = f
                            pending.append(t)
                        if last:  # kin_half * f, in the operand order of the checker's
                            ifft(np.multiply(kin_half, f, out=f), inv_n, out=psi)
                            hand_off()
                        else:
                            f *= kin_full
                            ifft(f, inv_n, out=psi)
                            if len(pending) == batch:
                                hand_off()
                    if pending:
                        hand_off()
                while handed:
                    collect()
            except NumericalFailure as exc:
                if exc.partial is not None:  # a bad row, which take reports at its own time
                    raise
                if pending:  # an earlier bad row wins over this failure
                    hand_off()
                while handed:
                    collect()
                raise NumericalFailure(f"evolution aborted at t~{t}: {exc}",
                                       partial=Observables(*rows[:done].T)) from exc
    except BaseException:
        if checker is not None:
            checker.close(terminate=True)
            checker = None
        raise
    finally:
        if checker is not None:
            checker.close(terminate=False)
    return WavePacket(grid=g, psi=psi, t=t), Observables(*rows[:done].T)


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
