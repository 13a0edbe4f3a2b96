"""Physical parameters, classical drives and the solvers' blocks of steps.

All quantities default to the nondimensional convention hbar = m = 1; every
constant remains an explicit field so dimensional runs stay possible.
DriveSpec holds one formula per drive kind: at for the kinds that read t
alone, bind's feedback for the conserving kind.  The one copy outside it is
integrate's written-out feedback, pinned to bind's by a bitwise test.
step_blocks splits a solver's steps into blocks and tabulates at over each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

#: Sentinel for an infinite measurement time constant (1/tau = 0).
TAU_INFINITE = math.inf


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the measured oscillator, and the one home of the
    coefficients the solvers read: omega2(t), hbar_2m and c_tau.

    m, hbar > 0 and omega >= 0, all finite; lam and lam/m finite; tau > 0 (math.inf
    switches the measurement off); |eps| < 1 and omega_m modulate the
    frequency, omega2(t) = omega^2 (1 + eps sin(omega_m t)).
    """

    m: float = 1.0
    hbar: float = 1.0
    omega: float = 1.0
    lam: float = 0.0
    tau: float = TAU_INFINITE
    eps: float = 0.0
    omega_m: float = 0.0

    def __post_init__(self):
        if not (0 < self.m < math.inf):
            raise ConfigurationError("m must be positive and finite")
        if not (0 < self.hbar < math.inf):
            raise ConfigurationError("hbar must be positive and finite")
        if self.hbar_2m == 0.0:
            raise ConfigurationError(f"hbar/(2m) = {self.hbar:g}/(2*{self.m:g}) underflows to 0")
        if not (0 <= self.omega < math.inf):
            raise ConfigurationError("omega must be non-negative and finite")
        if not math.isfinite(self.lam):
            raise ConfigurationError("lambda must be finite")
        if not math.isfinite(self.lam / self.m):  # the ode's drive term reads lambda/m
            raise ConfigurationError(f"lambda/m = {self.lam:g}/{self.m:g} "
                                     "is beyond the float range")
        if not (self.tau > 0):
            raise ConfigurationError("tau must be positive (math.inf allowed)")
        if not (abs(self.eps) < 1):
            raise ConfigurationError("|eps| must be < 1 so omega^2(t) stays positive")

    def omega2(self, t: float) -> float:
        """The squared frequency omega^2 (1 + eps sin(omega_m t)) at time t; NaN
        where omega_m t overflows, so the solver's finiteness check sees it."""
        if self.eps == 0.0:
            return self.omega * self.omega
        try:
            return self.omega * self.omega * (1.0 + self.eps * math.sin(self.omega_m * t))
        except ValueError:  # math.sin(inf)
            return math.nan

    @property
    def hbar_2m(self) -> float:
        """hbar/(2m): the physical width is sqrt(hbar/2m) alpha."""
        return self.hbar / (2.0 * self.m)

    @property
    def inv_tau(self) -> float:
        """1/tau, exactly zero for the infinite-tau sentinel."""
        return 1.0 / self.tau

    @property
    def c_tau(self) -> float:
        """C_tau = 1/(4 tau^2), added to omega^2 in the width equation."""
        return 0.25 * (self.inv_tau * self.inv_tau)


@dataclass(frozen=True)
class DriveSpec:
    """The classical drive X(t) coupled to the oscillator through lambda*x*X(t).

    Kinds: zero, constant, sinusoid X0*cos(Omega t + phase), tabulated
    (linear interpolation between finite samples at strictly increasing
    times, held constant outside them, as np.interp), and the conserving
    feedback X = (m/lambda)(r/tau + C_tau) xbar that keeps the reduced
    invariant constant, with r = alphadot/alpha = deltadot/delta.

    at(times) gives X at an array of times for the kinds that read t alone:
    integrate's RK4 stages and evolve's drive factor read it from tables made
    once per block of steps, and integrate's recorded X column is one call.
    bind(params) resolves the kind and its constants once and returns the
    function X(t, r, xbar): one call of at for a kind that reads t alone, and
    for the conserving kind, the one that reads r and xbar, the feedback
    formula, which evolve calls once per step and integrate once, on its
    recorded columns.  integrate's stages write the feedback out in bind's
    operand order, pinned to measurement_rhs (and so to bind) by the bitwise
    step test.  value(t, params, r, xbar) is one call of bind's function.
    x_bound, the largest |X| of a kind that reads t alone, is the one bound
    that cli.resolve's and evolve's float-range checks read.
    """

    kind: str = "zero"
    x0: float = 0.0
    freq: float = 0.0
    phase: float = 0.0
    table: tuple = field(default=())

    _KINDS = ("zero", "constant", "sinusoid", "conserving", "tabulated")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigurationError(f"unknown drive kind {self.kind!r}")
        if self.kind == "tabulated":
            self._samples  # built here, so a bad table fails at construction

    @cached_property
    def _samples(self) -> tuple[np.ndarray, np.ndarray]:  # built once per drive
        """Sample times and values as the float arrays at's np.interp reads, checked
        as it needs them.  The checks run on Python floats: numpy reductions here would
        load code that an ode run otherwise never touches, and add to its peak RSS."""
        ts = [float(p[0]) for p in self.table]
        xs = [float(p[1]) for p in self.table]
        if len(ts) < 2:
            raise ConfigurationError("tabulated drive needs at least two samples")
        if not all(map(math.isfinite, ts + xs)):
            raise ConfigurationError("tabulated drive samples must be finite")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ConfigurationError("tabulated drive times must be strictly increasing")
        return np.array(ts), np.array(xs)

    @property
    def x_bound(self) -> float | None:
        """The largest |X| the drive takes: 0 for zero, |x0| for constant and sinusoid,
        max |table X| for tabulated, None for conserving, whose X follows the packet."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "tabulated":
            return max(map(abs, self._samples[1].tolist()))
        return None if self.kind == "conserving" else abs(self.x0)

    def bind(self, params: PhysParams | None = None):
        """X as a function of (t, r, xbar): at's X at the one time t for a kind that
        reads t alone; the conserving kind needs params, lambda != 0."""
        if self.kind != "conserving":
            at = self.at
            return lambda t, r, xbar: at(np.array([t]))[0]
        if params is None:
            raise ConfigurationError("conserving drive needs params, log_width_rate and xbar")
        if params.lam == 0:
            raise ConfigurationError("conserving drive requires lambda != 0")
        gain, inv_tau, c_tau = params.m / params.lam, params.inv_tau, params.c_tau
        return lambda t, r, xbar: gain * (r * inv_tau + c_tau) * xbar

    def at(self, times: np.ndarray) -> list:
        """X at each of `times` for the kinds that read t alone; the conserving kind
        is refused.  The sinusoid maps math.cos over the phases (numpy's cos is not
        bit-equal to it), with NaN where a phase overflows; the tabulated kind
        interpolates on the arrays of _samples, made once per drive."""
        if self.kind == "zero":
            return [0.0] * len(times)
        if self.kind == "constant":
            return [self.x0] * len(times)
        if self.kind == "sinusoid":
            x0, cos = self.x0, math.cos
            with np.errstate(over="ignore", invalid="ignore"):
                phases = (self.freq * times + self.phase).tolist()
            try:
                return [x0 * c for c in map(cos, phases)]
            except ValueError:  # math.cos(inf): NaN, which the solvers' finiteness checks see
                return [x0 * cos(ph) if math.isfinite(ph) else math.nan for ph in phases]
        if self.kind == "tabulated":
            return np.interp(times, *self._samples).tolist()
        raise ConfigurationError("the conserving drive reads the state, not t alone")

    def value(self, t: float, params: PhysParams | None = None,
              log_width_rate: float | None = None, xbar: float | None = None) -> float:
        """X(t); the conserving kind also needs params, r = log_width_rate and xbar."""
        if self.kind == "conserving" and (log_width_rate is None or xbar is None):
            raise ConfigurationError("conserving drive needs params, log_width_rate and xbar")
        return self.bind(params)(t, log_width_rate, xbar)


#: Steps per block of a solver's loop: a drive that reads t alone is tabulated
#: by DriveSpec.at once per block.
BLOCK_STEPS = 256


def step_blocks(t0: float, dt: float, n_steps: int, drive: DriveSpec, *offsets):
    """Per block of BLOCK_STEPS steps, its step indices and, for each offset, X by DriveSpec.at
    at each step's t0 + i*dt + offset, or for the conserving kind a None per step."""
    for i0 in range(0, n_steps, BLOCK_STEPS):
        i1 = min(i0 + BLOCK_STEPS, n_steps)
        ts = t0 + np.arange(i0, i1) * dt
        yield range(i0, i1), *(drive.at(ts + offset) if drive.kind != "conserving"
                               else [None] * (i1 - i0) for offset in offsets)
