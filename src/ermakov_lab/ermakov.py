"""The reduced width/centroid system and its invariant.

One system is integrated with fixed-step RK4:

    alpha'' = 1/alpha^3 - alpha'/tau - (omega^2(t) + C_tau) alpha,
    xbar''  = -omega^2(t) xbar - (lambda/m) X(t),

carrying the Lewis invariant I = [(xbar' alpha - alpha' xbar)^2 + (xbar/alpha)^2] / 2
and its analytic rate, which the conserving drive zeroes identically.  At
1/tau = 0, lambda = 0 it is the classical Ermakov-Pinney pair
q'' = -omega^2(t) q, alpha'' = 1/alpha^3 - omega^2(t) alpha with q = xbar,
and I is constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailure
from .params import DriveSpec, PhysParams

#: Width below which the 1/alpha^3 term is considered a collapse.
ALPHA_MIN = 1e-8


@dataclass(frozen=True)
class ErmakovState:
    t: float
    alpha: float
    alphadot: float
    xbar: float
    xbardot: float


def _rhs(p: PhysParams, drive):
    """The accelerations as f(t, alpha, alphadot, xbar, xbardot) -> (alpha'', xbar''),
    with the constants resolved once and omega^2 read from p.omega2 only when
    it is modulated; drive is the bound X(t, r, xbar) of DriveSpec.bind.

    f checks only alpha < ALPHA_MIN, which keeps alphadot/alpha and 1/alpha^3
    defined; a non-finite argument propagates to the result.
    """
    inv_tau, c_tau, lam_m = p.inv_tau, p.c_tau, p.lam / p.m
    w2_const = p.omega2(0.0)
    omega2 = None if p.eps == 0.0 else p.omega2

    def f(t, alpha, alphadot, xbar, xbardot):
        if alpha < ALPHA_MIN:
            raise NumericalFailure(f"alpha={alpha} below collapse floor {ALPHA_MIN}")
        w2 = w2_const if omega2 is None else omega2(t)
        x_drive = drive(t, alphadot / alpha, xbar)
        r = 1.0 / alpha  # (1/alpha)^3 underflows to 0 where alpha^3 would overflow
        return (r * r * r - inv_tau * alphadot - (w2 + c_tau) * alpha,
                -w2 * xbar - lam_m * x_drive)
    return f


def measurement_rhs(s: ErmakovState, p: PhysParams, d: DriveSpec) -> tuple[float, float]:
    """Accelerations (alpha'', xbar'') with omega^2 = p.omega2(s.t)."""
    vals = (s.t, s.alpha, s.alphadot, s.xbar, s.xbardot)
    if not all(math.isfinite(v) for v in vals):
        raise NumericalFailure(f"non-finite state {s}")
    return _rhs(p, d.bind(p))(*vals)


def lewis_invariant(q: float, qdot: float, alpha: float, alphadot: float) -> float:
    """Lewis invariant of the pair (q, alpha)."""
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    u, v = qdot * alpha - alphadot * q, q / alpha
    return 0.5 * (u * u + v * v)


def els_invariant_rate(alpha: float, alphadot: float, xbar: float, xbardot: float,
                       p: PhysParams, x_drive: float) -> float:
    """Analytic dI/dt along the measurement flow, given the drive value X.

    Evaluated in the cancelled form, regular at xbar = 0 and free of powers
    of alpha:
      dI/dt = [((alpha'/alpha)/tau + C_tau) xbar - lambda X/m] alpha (xbar' alpha - xbar alpha').
    """
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    gap = (alphadot / alpha * p.inv_tau + p.c_tau) * xbar - p.lam * x_drive / p.m
    return gap * alpha * (xbardot * alpha - xbar * alphadot)


def delta_from_alpha(alpha: float, p: PhysParams) -> float:
    """Physical width delta = sqrt(hbar/2m) alpha."""
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    return math.sqrt(p.hbar_2m) * alpha


def alpha_from_delta(delta: float, p: PhysParams) -> float:
    """Inverse of delta_from_alpha."""
    if delta <= 0:
        raise ConfigurationError("delta must be positive")
    return delta / math.sqrt(p.hbar_2m)


@dataclass
class Trajectory:
    """Uniformly sampled trajectory of the reduced system (x/xdot: the centroid)."""

    t: np.ndarray
    alpha: np.ndarray
    alphadot: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    delta: np.ndarray
    invariant: np.ndarray
    dIdt_analytic: np.ndarray
    drive: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def dIdt_numeric(self) -> np.ndarray:
        """Centered finite difference of the invariant (one-sided at the ends),
        taken in times scaled to the span so the spacing products of a tiny dt
        do not underflow.  A non-finite difference raises NumericalFailure."""
        span = self.t[-1] - self.t[0]
        with np.errstate(over="ignore"):
            rate = np.gradient(self.invariant, self.t / span) / span
        if not np.all(np.isfinite(rate)):
            raise NumericalFailure("non-finite value in the finite-difference dI/dt")
        return rate


def _whole_steps(span: float, dt: float, name: str) -> int:
    """span / dt, or the ConfigurationError `<name> = <ratio> is not a whole number of
    steps` unless that ratio is finite and within 1e-9 (relative) of a whole number."""
    n = span / dt
    if not (math.isfinite(n) and abs(n - round(n)) <= 1e-9 * n):
        raise ConfigurationError(f"{name} = {n:.10g} is not a whole number of steps")
    return round(n)


def _package(rows):
    cols = np.array(rows, dtype=float).reshape(-1, 9).T
    return Trajectory(t=cols[0], alpha=cols[1], alphadot=cols[2],
                      x=cols[3], xdot=cols[4], delta=cols[5],
                      invariant=cols[6], dIdt_analytic=cols[7], drive=cols[8])


def integrate(init: ErmakovState,
              params: PhysParams,
              drive: DriveSpec | None = None,
              t_end: float = 10.0,
              dt: float = 1e-3,
              stride: int = 1) -> Trajectory:
    """Integrate the reduced system with fixed-step RK4.

    drive defaults to zero; omega^2(t) is params.omega2, constant unless
    params.eps != 0.  The classical pair is params.tau = inf, params.lam = 0
    with a zero drive.
    Runs whole steps of dt only: a dt that is not a positive finite number,
    or (t_end - t0)/dt not within 1e-9 (relative) of a whole number, is a
    ConfigurationError, as the CLI refuses such a numerics.t_end.  Records
    every `stride` steps, always including the initial and final states.

    The drive and the constants are resolved once per call and
    the step runs on four plain floats.  Each RK4 stage checks only its own
    alpha against ALPHA_MIN; each step checks its result for a non-finite
    value and for alpha < ALPHA_MIN; each recorded row is checked for a
    non-finite value.  These are the only failure signals: a width collapse
    or a non-finite value raises NumericalFailure whose `partial` is the
    Trajectory of the rows recorded before it.
    """
    if not 0 < dt < math.inf:
        raise ConfigurationError("dt must be positive and finite")
    if t_end <= init.t:
        raise ConfigurationError("t_end must exceed the initial time")
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    n_steps = _whole_steps(t_end - init.t, dt, "(t_end - t0) / dt")
    drive_at = (DriveSpec() if drive is None else drive).bind(params)
    f = _rhs(params, drive_at)

    isfinite = math.isfinite

    def record(t, a, ad, x, xd):
        inv = lewis_invariant(x, xd, a, ad)
        x_t = drive_at(t, ad / a, x)
        # + 0.0 records a vanishing rate as 0, never -0
        rate = els_invariant_rate(a, ad, x, xd, params, x_t) + 0.0
        row = (t, a, ad, x, xd, delta_from_alpha(a, params), inv, rate, x_t)
        if not all(map(isfinite, row)):
            raise NumericalFailure(f"non-finite value in the row recorded at t={t}")
        return row

    t = init.t
    a, ad, x, xd = init.alpha, init.alphadot, init.xbar, init.xbardot
    rows = []
    half, sixth = 0.5 * dt, dt / 6.0
    try:
        rows.append(record(t, a, ad, x, xd))
        for i in range(n_steps):
            # stage i has slope (ad_i, add_i, xd_i, xdd_i), with ad_1, xd_1 = ad, xd
            add1, xdd1 = f(t, a, ad, x, xd)
            a2, ad2 = a + half * ad, ad + half * add1
            x2, xd2 = x + half * xd, xd + half * xdd1
            add2, xdd2 = f(t + half, a2, ad2, x2, xd2)
            a3, ad3 = a + half * ad2, ad + half * add2
            x3, xd3 = x + half * xd2, xd + half * xdd2
            add3, xdd3 = f(t + half, a3, ad3, x3, xd3)
            a4, ad4 = a + dt * ad3, ad + dt * add3
            x4, xd4 = x + dt * xd3, xd + dt * xdd3
            add4, xdd4 = f(t + dt, a4, ad4, x4, xd4)
            a, ad, x, xd = (a + sixth * (ad + 2 * ad2 + 2 * ad3 + ad4),
                            ad + sixth * (add1 + 2 * add2 + 2 * add3 + add4),
                            x + sixth * (xd + 2 * xd2 + 2 * xd3 + xd4),
                            xd + sixth * (xdd1 + 2 * xdd2 + 2 * xdd3 + xdd4))
            t = init.t + (i + 1) * dt
            if not (isfinite(a) and isfinite(ad) and isfinite(x) and isfinite(xd)):
                raise NumericalFailure(f"non-finite state at t={t}")
            if a < ALPHA_MIN:  # the stages check only their own alpha
                raise NumericalFailure(f"alpha={a} below collapse floor {ALPHA_MIN}")
            if (i + 1) % stride == 0 or i == n_steps - 1:
                rows.append(record(t, a, ad, x, xd))
    except NumericalFailure as exc:
        raise NumericalFailure(f"integration aborted at t~{t}: {exc}",
                               partial=_package(rows)) from exc
    return _package(rows)
