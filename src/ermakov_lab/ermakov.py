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
of integrate's four RK4 stages repeats it inline, in its operand order, and
makes no call: a drive that reads t alone is read from tables of X at every
step's t, t + dt/2 and t + dt, made by step_blocks once per block of
BLOCK_STEPS steps, and the conserving feedback is written out as bind forms it.
The loop records the state alone, at record points found by one compare of
the step index, and forms a step's time only where a row, a failure or a
modulated omega^2 reads it; the invariant, its rate, the width and X are
formed as numpy columns after it, by the same functions on arrays.  Before
it, _setup refuses a bad start, its t = 0 row included, as ConfigurationError,
as madelung's _setup does for evolve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailure
from .params import DriveSpec, PhysParams, step_blocks

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
    """Lewis invariant of the pair (q, alpha), of floats or elementwise of arrays."""
    if np.any(alpha <= 0):
        raise ConfigurationError("alpha must be positive")
    u, v = qdot * alpha - alphadot * q, q / alpha
    return 0.5 * (u * u + v * v)


def els_invariant_rate(alpha: float, alphadot: float, xbar: float, xbardot: float,
                       p: PhysParams, x_drive: float) -> float:
    """Analytic dI/dt along the measurement flow, given the drive value X (floats or arrays).

    Evaluated in the cancelled form, regular at xbar = 0 and free of powers
    of alpha:
      dI/dt = [((alpha'/alpha)/tau + C_tau) xbar - lambda X/m] alpha (xbar' alpha - xbar alpha').
    """
    if np.any(alpha <= 0):
        raise ConfigurationError("alpha must be positive")
    gap = (alphadot / alpha * p.inv_tau + p.c_tau) * xbar - p.lam * x_drive / p.m
    return gap * alpha * (xbardot * alpha - xbar * alphadot)


def delta_from_alpha(alpha: float, p: PhysParams) -> float:
    """Physical width delta = sqrt(hbar/2m) alpha, of a float or elementwise of an array."""
    if np.any(alpha <= 0):
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


def _trajectory(rows: list, params: PhysParams, x_column) -> Trajectory:
    """The Trajectory of the recorded rows, a flat list of (t, alpha, alphadot,
    xbar, xbardot) per row: delta, I, dI/dt and X = x_column(t, r, xbar) are
    formed as columns.  The first row holding a non-finite value raises
    NumericalFailure naming its time, whose `partial` is the rows before it."""
    t, a, ad, x, xd = np.array(rows, dtype=float).reshape(-1, 5).T
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite row below
        inv = lewis_invariant(x, xd, a, ad)
        x_t = np.asarray(x_column(t, ad / a, x), dtype=float)
        # + 0.0 records a vanishing rate as 0, never -0
        rate = els_invariant_rate(a, ad, x, xd, params, x_t) + 0.0
        cols = np.array((t, a, ad, x, xd, delta_from_alpha(a, params), inv, rate, x_t))
    bad = np.flatnonzero(~np.isfinite(cols).all(axis=0))
    if bad.size:
        t_bad = rows[5 * bad[0]]
        raise NumericalFailure(f"integration aborted at t~{t_bad}: non-finite value in "
                               f"the row recorded at t={t_bad}",
                               partial=Trajectory(*cols[:, :bad[0]]))
    return Trajectory(*cols)


def _setup(init: ErmakovState, params: PhysParams, drive: DriveSpec | None,
           t_end: float, dt: float, stride: int):
    """integrate's checks before its first step, each a ConfigurationError, and what it
    forms there: the step count, the drive (zero for None), x_column, X of the recorded
    rows (bind refuses a conserving drive at lambda = 0), and the rows list holding the
    t = 0 row, checked last as _trajectory checks every row, on floats.  cli.resolve
    calls it on every ode and compare config."""
    if not 0 < dt < math.inf:
        raise ConfigurationError("dt must be positive and finite")
    if t_end <= init.t:
        raise ConfigurationError("t_end must exceed the initial time")
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    n_steps = _whole_steps(t_end - init.t, dt, "(t_end - t0) / dt")
    if init.alpha < ALPHA_MIN:
        raise ConfigurationError(f"initial alpha={init.alpha} below collapse floor {ALPHA_MIN}")
    drive = DriveSpec() if drive is None else drive
    x_of = drive.bind(params)
    x_column = x_of if drive.kind == "conserving" else lambda t, r, xbar: drive.at(t)
    # the t = 0 row on floats, by the functions _trajectory forms the columns by
    rows = [init.t, init.alpha, init.alphadot, init.xbar, init.xbardot]
    t, a, ad, x, xd = rows
    x_t = x_of(t, ad / a, x)
    row = (*rows, delta_from_alpha(a, params), lewis_invariant(x, xd, a, ad),
           els_invariant_rate(a, ad, x, xd, params, x_t), x_t)
    if not all(map(math.isfinite, row)):
        raise ConfigurationError(f"initial state is not representable: non-finite value "
                                 f"in the row recorded at t={t}")
    return n_steps, drive, x_column, rows


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
    Before the first step, _setup raises ConfigurationError for a dt that is not
    positive and finite, a t_end - t0 that is not within 1e-9 (relative) of whole
    steps, a stride below 1, an initial alpha below ALPHA_MIN, a conserving drive at
    lambda = 0 and a non-finite t = 0 row.  Records every `stride` steps, always including the initial and final states.
    Step i runs from t0 + i dt, a time formed only where it is read: in a
    recorded row, in a failure's message, and at each step's end when omega
    is modulated, as the next step's t for omega^2.  A record point is found
    by comparing the step index with that of the next recorded row, the last
    step always among them.

    The drive and the constants are resolved once per call and the step runs
    on four plain floats, each stage writing out measurement_rhs in its
    operand order.  omega^2 + C_tau is formed once per call when omega is
    constant, and once per step at each of t, t + dt/2 and t + dt when it is
    modulated.  No stage calls the drive.  The steps run in the blocks of
    step_blocks; at the start of each, a kind that reads t alone is sampled by
    DriveSpec.at at every step's t, t + dt/2 (shared by stages 2 and 3) and
    t + dt.  The conserving kind, which reads the state, is written out in
    each stage as bind forms it, (m/lambda)(r/tau + C_tau) xbar with
    r = alphadot/alpha.  The loop records the state alone; after it, delta,
    I, dI/dt and X are formed as columns, X by DriveSpec.at on the recorded
    times, or by one call of bind's conserving function on the columns.
    alpha < ALPHA_MIN is a failure for stages 2 to 4 before their drive and
    each step's result; each step's result and each recorded row are checked
    for a non-finite value.  These are the only failure checks: a width
    collapse or a non-finite value raises NumericalFailure whose `partial` is
    the Trajectory of the rows recorded before it, the t = 0 row at least, the
    earliest failure winning.  Its message
    names the start of the step whose stage failed, or the end of the step
    whose result did.
    """
    n_steps, drive, x_column, rows = _setup(init, params, drive, t_end, dt, stride)
    # the conserving feedback, the one kind that reads the state, is written out in
    # each stage as bind forms it; the others are tabulated
    feedback = drive.kind == "conserving"
    gain = params.m / params.lam if feedback else 0.0
    inv_tau, c_tau, lam_m = params.inv_tau, params.c_tau, params.lam / params.m
    modulated = params.eps != 0.0
    omega2 = params.omega2
    # -omega^2 and omega^2 + C_tau at t, t + dt/2 and t + dt: once per call
    # when omega is constant, else once per step at each of the three times
    w2 = omega2(init.t)
    nw2_0 = nw2_h = nw2_1 = -w2
    k_0 = k_h = k_1 = w2 + c_tau
    alpha_min = ALPHA_MIN

    isfinite = math.isfinite
    t0 = t = init.t  # t, omega^2's step start, is formed at a step's end only if modulated
    a, ad, x, xd = init.alpha, init.alphadot, init.xbar, init.xbardot
    half, sixth = 0.5 * dt, dt / 6.0
    # rec: the step whose end is the next recorded row, every stride-th and the last
    last = n_steps - 1
    rec = min(stride - 1, last)
    try:
        for steps, xs_0, xs_h, xs_1 in step_blocks(t0, dt, n_steps, drive, 0.0, half, dt):
            for i, x_0, x_h, x_1 in zip(steps, xs_0, xs_h, xs_1):
                # stage i has slope (ad_i, add_i, xd_i, xdd_i), with ad_1, xd_1 = ad, xd;
                # each stage is measurement_rhs written out, in its operand order
                if modulated:
                    w2, w2_h, w2_1 = omega2(t), omega2(t + half), omega2(t + dt)
                    nw2_0, nw2_h, nw2_1 = -w2, -w2_h, -w2_1
                    k_0, k_h, k_1 = w2 + c_tau, w2_h + c_tau, w2_1 + c_tau
                r = 1.0 / a
                add1 = r * r * r - inv_tau * ad - k_0 * a
                xdd1 = nw2_0 * x - lam_m * (gain * (ad / a * inv_tau + c_tau) * x
                                            if feedback else x_0)
                a2, ad2 = a + half * ad, ad + half * add1
                x2, xd2 = x + half * xd, xd + half * xdd1
                if a2 < alpha_min:
                    raise _collapse(a2)
                r = 1.0 / a2
                add2 = r * r * r - inv_tau * ad2 - k_h * a2
                xdd2 = nw2_h * x2 - lam_m * (gain * (ad2 / a2 * inv_tau + c_tau) * x2
                                             if feedback else x_h)
                a3, ad3 = a + half * ad2, ad + half * add2
                x3, xd3 = x + half * xd2, xd + half * xdd2
                if a3 < alpha_min:
                    raise _collapse(a3)
                r = 1.0 / a3
                add3 = r * r * r - inv_tau * ad3 - k_h * a3
                xdd3 = nw2_h * x3 - lam_m * (gain * (ad3 / a3 * inv_tau + c_tau) * x3
                                             if feedback else x_h)
                a4, ad4 = a + dt * ad3, ad + dt * add3
                x4, xd4 = x + dt * xd3, xd + dt * xdd3
                if a4 < alpha_min:
                    raise _collapse(a4)
                r = 1.0 / a4
                add4 = r * r * r - inv_tau * ad4 - k_1 * a4
                xdd4 = nw2_1 * x4 - lam_m * (gain * (ad4 / a4 * inv_tau + c_tau) * x4
                                             if feedback else x_1)
                a, ad, x, xd = (a + sixth * (ad + 2.0 * ad2 + 2.0 * ad3 + ad4),
                                ad + sixth * (add1 + 2.0 * add2 + 2.0 * add3 + add4),
                                x + sixth * (xd + 2.0 * xd2 + 2.0 * xd3 + xd4),
                                xd + sixth * (xdd1 + 2.0 * xdd2 + 2.0 * xdd3 + xdd4))
                if not (isfinite(a) and isfinite(ad) and isfinite(x) and isfinite(xd)):
                    i += 1  # a failure at step i's end: except reports the time it ends
                    raise NumericalFailure(f"non-finite state at t={t0 + i * dt}")
                if a < alpha_min:  # the stages check only their own alpha
                    i += 1
                    raise _collapse(a)
                if i == rec or modulated:
                    t = t0 + (i + 1) * dt
                    if i == rec:
                        rows += (t, a, ad, x, xd)
                        rec += stride
                        if rec > last:
                            rec = last
    except NumericalFailure as exc:
        partial = _trajectory(rows, params, x_column)  # a bad row recorded before raises
        t = t0 + i * dt  # the start of step i, the time a stage fails at
        raise NumericalFailure(f"integration aborted at t~{t}: {exc}", partial=partial) from exc
    return _trajectory(rows, params, x_column)
