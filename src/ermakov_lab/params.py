"""Physical parameters and classical drives.

All quantities default to the nondimensional convention hbar = m = 1; every
constant remains an explicit field so dimensional runs stay possible.
DriveSpec holds every drive formula, the conserving feedback included.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConfigurationError

#: Sentinel for an infinite measurement time constant (1/tau = 0).
TAU_INFINITE = math.inf

#: Damping-coefficient variants for the reduced width equation.
COEFF_CONSISTENT = "consistent"        # 1/(4 tau^2)
COEFF_PAPER_LITERAL = "paper_literal"  # 1/(4 tau^4)

_VARIANTS = (COEFF_CONSISTENT, COEFF_PAPER_LITERAL)


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the measured oscillator, and the one home of the
    coefficients the solvers read: omega2(t), hbar_2m and c_tau.

    m, hbar > 0 and omega >= 0, all finite; lam and lam/m finite; tau > 0 (math.inf
    switches the measurement off); coeff_variant selects 1/(4 tau^2) vs
    1/(4 tau^4) in the width equation; |eps| < 1 and omega_m modulate the
    frequency, omega2(t) = omega^2 (1 + eps sin(omega_m t)).
    """

    m: float = 1.0
    hbar: float = 1.0
    omega: float = 1.0
    lam: float = 0.0
    tau: float = TAU_INFINITE
    coeff_variant: str = COEFF_CONSISTENT
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
        if self.coeff_variant not in _VARIANTS:
            raise ConfigurationError(
                f"coeff_variant must be one of {_VARIANTS}, got {self.coeff_variant!r}"
            )
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
        """Coefficient added to omega^2 in the width equation."""
        q = self.inv_tau * self.inv_tau
        if self.coeff_variant == COEFF_CONSISTENT:
            return 0.25 * q
        return 0.25 * q * q


@dataclass(frozen=True)
class DriveSpec:
    """The classical drive X(t) coupled to the oscillator through lambda*x*X(t).

    Kinds: zero, constant, sinusoid X0*cos(Omega t + phase), tabulated
    (linear interpolation between finite samples at strictly increasing
    times, held constant outside them, as np.interp), and the conserving
    feedback X = (m/lambda)(r/tau + C_tau) xbar that keeps the reduced
    invariant constant, with r = alphadot/alpha = deltadot/delta.

    bind(params) resolves the kind and its constants once and returns the
    function X(t, r, xbar): integrate calls it at each distinct stage time of
    a step (t, t + dt/2, t + dt), and per stage for the conserving kind, the
    one kind that reads r and xbar; evolve calls it once per step.
    value(t, params, r, xbar) is one call of it.
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
    def _samples(self) -> tuple[list, list, list]:  # built once per drive
        """Sample times, values and the slope of each interval, as np.interp forms it."""
        ts = [float(p[0]) for p in self.table]
        xs = [float(p[1]) for p in self.table]
        if len(ts) < 2:
            raise ConfigurationError("tabulated drive needs at least two samples")
        if not all(map(math.isfinite, ts + xs)):
            raise ConfigurationError("tabulated drive samples must be finite")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ConfigurationError("tabulated drive times must be strictly increasing")
        slopes = [(xs[j + 1] - xs[j]) / (ts[j + 1] - ts[j]) for j in range(len(ts) - 1)]
        return ts, xs, slopes

    def bind(self, params: PhysParams | None = None):
        """X as a function of (t, r, xbar); the conserving kind needs params, lambda != 0."""
        if self.kind == "zero":
            return lambda t, r, xbar: 0.0
        if self.kind == "constant":
            x0 = self.x0
            return lambda t, r, xbar: x0
        if self.kind == "sinusoid":
            x0, freq, phase, cos = self.x0, self.freq, self.phase, math.cos

            def sinusoid(t, r, xbar):
                try:
                    return x0 * cos(freq * t + phase)
                except ValueError:  # math.cos(inf): NaN, which the solvers' finiteness checks see
                    return math.nan
            return sinusoid
        if self.kind == "tabulated":
            ts, xs, slopes = self._samples
            last = len(ts) - 1

            def tabulated(t, r, xbar):
                j = bisect_right(ts, t) - 1  # ts[j] <= t < ts[j + 1]; last for t >= ts[-1]
                if j < 0:
                    return xs[0]
                if j == last:
                    return xs[j] if t == t else t  # a NaN time gives NaN, as in np.interp
                if t == ts[j]:
                    return xs[j]
                return slopes[j] * (t - ts[j]) + xs[j]
            return tabulated
        # conserving
        if params is None:
            raise ConfigurationError("conserving drive needs params, log_width_rate and xbar")
        if params.lam == 0:
            raise ConfigurationError("conserving drive requires lambda != 0")
        gain, inv_tau, c_tau = params.m / params.lam, params.inv_tau, params.c_tau
        return lambda t, r, xbar: gain * (r * inv_tau + c_tau) * xbar

    def value(self, t: float, params: PhysParams | None = None,
              log_width_rate: float | None = None, xbar: float | None = None) -> float:
        """X(t); the conserving kind also needs params, r = log_width_rate and xbar."""
        if self.kind == "conserving" and (log_width_rate is None or xbar is None):
            raise ConfigurationError("conserving drive needs params, log_width_rate and xbar")
        return self.bind(params)(t, log_width_rate, xbar)
