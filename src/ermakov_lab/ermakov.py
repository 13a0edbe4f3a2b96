"""The reduced width/centroid system and its invariant.

One system is integrated with fixed-step RK4:

    alpha'' = 1/alpha^3 - alpha'/tau - (omega^2(t) + C_tau) alpha,
    xbar''  = -omega^2(t) xbar - (lambda/m) X(t),

carrying the Lewis invariant I = [(xbar' alpha - alpha' xbar)^2 + (xbar/alpha)^2] / 2
and its analytic rate, which the conserving drive zeroes identically.  At
1/tau = 0, lambda = 0 it is the classical Ermakov-Pinney pair
q'' = -omega^2(t) q, alpha'' = 1/alpha^3 - omega^2(t) alpha with q = xbar,
and I is constant.

measurement_rhs is the one written-out formula for the accelerations.  Each
of integrate's four RK4 stages repeats it inline, in its operand order, so a
step makes no Python call but the drive's: X is read at t, t + dt/2 (once for
stages 2 and 3 unless the kind reads the state) and t + dt.
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


def _collapse(alpha: float) -> NumericalFailure:
    return NumericalFailure(f"alpha={alpha} below collapse floor {ALPHA_MIN}")


def measurement_rhs(s: ErmakovState, p: PhysParams, d: DriveSpec) -> tuple[float, float]:
    """Accelerations (alpha'', xbar'') with omega^2 = p.omega2(s.t): the one
    written-out formula, whose operand order every stage of `integrate` repeats.

    A non-finite state value raises NumericalFailure, as does alpha < ALPHA_MIN,
    which keeps alphadot/alpha and 1/alpha^3 defined.
    """
    t, alpha, alphadot, xbar = s.t, s.alpha, s.alphadot, s.xbar
    if not all(math.isfinite(v) for v in (t, alpha, alphadot, xbar, s.xbardot)):
        raise NumericalFailure(f"non-finite state {s}")
    if alpha < ALPHA_MIN:
        raise _collapse(alpha)
    w2 = p.omega2(t)
    x_drive = d.bind(p)(t, alphadot / alpha, xbar)
    r = 1.0 / alpha  # (1/alpha)^3 underflows to 0 where alpha^3 would overflow
    return (r * r * r - p.inv_tau * alphadot - (w2 + p.c_tau) * alpha,
            -w2 * xbar - p.lam / p.m * x_drive)


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

    The drive and the constants are resolved once per call and the step runs
    on four plain floats, each stage writing out measurement_rhs in its
    operand order.  omega^2 + C_tau is formed once per call when omega is
    constant, and once per step at each of t, t + dt/2 and t + dt when it is
    modulated.  The drive is the only call a stage makes: the kinds that read
    t alone evaluate X once at t + dt/2 for stages 2 and 3 (3 calls a step),
    the conserving kind, which reads the state, once per stage (4 calls a
    step).  Each RK4 stage checks only its own alpha against ALPHA_MIN, before
    its drive; each step checks its result for a non-finite value and for
    alpha < ALPHA_MIN; each recorded row is checked for a non-finite value.
    These are the only failure signals: a width collapse or a non-finite
    value raises NumericalFailure whose `partial` is the Trajectory of the
    rows recorded before it.
    """
    if not 0 < dt < math.inf:
        raise ConfigurationError("dt must be positive and finite")
    if t_end <= init.t:
        raise ConfigurationError("t_end must exceed the initial time")
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    n_steps = _whole_steps(t_end - init.t, dt, "(t_end - t0) / dt")
    drive_at = (DriveSpec() if drive is None else drive).bind(params)
    # every kind but the conserving feedback reads t alone: stages 2 and 3,
    # both at t + dt/2, then share one X
    own_mid_drive = drive is not None and drive.kind == "conserving"
    inv_tau, c_tau, lam_m = params.inv_tau, params.c_tau, params.lam / params.m
    omega2 = params.omega2 if params.eps != 0.0 else None
    # -omega^2 and omega^2 + C_tau at t, t + dt/2 and t + dt: once per call
    # when omega is constant, else once per step at each of the three times
    w2 = params.omega2(init.t)
    nw2_0 = nw2_h = nw2_1 = -w2
    k_0 = k_h = k_1 = w2 + c_tau
    alpha_min = ALPHA_MIN

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
            # stage i has slope (ad_i, add_i, xd_i, xdd_i), with ad_1, xd_1 = ad, xd;
            # each stage is measurement_rhs written out, in its operand order
            t_h, t_1 = t + half, t + dt
            if omega2 is not None:
                w2, w2_h, w2_1 = omega2(t), omega2(t_h), omega2(t_1)
                nw2_0, nw2_h, nw2_1 = -w2, -w2_h, -w2_1
                k_0, k_h, k_1 = w2 + c_tau, w2_h + c_tau, w2_1 + c_tau
            if a < alpha_min:
                raise _collapse(a)
            x_drive = drive_at(t, ad / a, x)
            r = 1.0 / a
            add1 = r * r * r - inv_tau * ad - k_0 * a
            xdd1 = nw2_0 * x - lam_m * x_drive
            a2, ad2 = a + half * ad, ad + half * add1
            x2, xd2 = x + half * xd, xd + half * xdd1
            if a2 < alpha_min:
                raise _collapse(a2)
            x_drive = drive_at(t_h, ad2 / a2, x2)
            r = 1.0 / a2
            add2 = r * r * r - inv_tau * ad2 - k_h * a2
            xdd2 = nw2_h * x2 - lam_m * x_drive
            a3, ad3 = a + half * ad2, ad + half * add2
            x3, xd3 = x + half * xd2, xd + half * xdd2
            if a3 < alpha_min:
                raise _collapse(a3)
            if own_mid_drive:
                x_drive = drive_at(t_h, ad3 / a3, x3)
            r = 1.0 / a3
            add3 = r * r * r - inv_tau * ad3 - k_h * a3
            xdd3 = nw2_h * x3 - lam_m * x_drive
            a4, ad4 = a + dt * ad3, ad + dt * add3
            x4, xd4 = x + dt * xd3, xd + dt * xdd3
            if a4 < alpha_min:
                raise _collapse(a4)
            x_drive = drive_at(t_1, ad4 / a4, x4)
            r = 1.0 / a4
            add4 = r * r * r - inv_tau * ad4 - k_1 * a4
            xdd4 = nw2_1 * x4 - lam_m * x_drive
            a, ad, x, xd = (a + sixth * (ad + 2.0 * ad2 + 2.0 * ad3 + ad4),
                            ad + sixth * (add1 + 2.0 * add2 + 2.0 * add3 + add4),
                            x + sixth * (xd + 2.0 * xd2 + 2.0 * xd3 + xd4),
                            xd + sixth * (xdd1 + 2.0 * xdd2 + 2.0 * xdd3 + xdd4))
            t = init.t + (i + 1) * dt
            if not (isfinite(a) and isfinite(ad) and isfinite(x) and isfinite(xd)):
                raise NumericalFailure(f"non-finite state at t={t}")
            if a < alpha_min:  # the stages check only their own alpha
                raise _collapse(a)
            if (i + 1) % stride == 0 or i == n_steps - 1:
                rows.append(record(t, a, ad, x, xd))
    except NumericalFailure as exc:
        raise NumericalFailure(f"integration aborted at t~{t}: {exc}",
                               partial=_package(rows)) from exc
    return _package(rows)
