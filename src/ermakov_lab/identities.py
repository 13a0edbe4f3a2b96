"""Numerical certification of the algebraic steps behind the reduced model.

Each check recomputes one link of the derivation chain (Gaussian quantum-force
slope, integrating factor, the three decomposition integrals, the velocity
ansatz, the coefficient expansion) with an independent quadrature or
finite-difference oracle and returns the worst residual; the bounds it must
meet are the rows of criteria.py.  Nothing here is symbolic; the checks
certify, they do not prove.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ermakov import ErmakovState, measurement_rhs
from .errors import ConfigurationError
from .params import _VARIANTS, DriveSpec, PhysParams


@dataclass(frozen=True)
class AnsatzSlice:
    """One time slice of the Gaussian ansatz: width/centroid data plus tau.

    Provides the density, the linear coefficient p, the inhomogeneity r of
    the first-order velocity ODE, and the integrating factor u.
    """

    xbar: float = 0.0
    xbardot: float = 0.0
    delta: float = 1.0
    deltadot: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")
        if self.tau <= 0:
            raise ConfigurationError("tau must be positive")

    def rho(self, x):
        u = np.asarray(x) - self.xbar
        return ((2.0 * np.pi * self.delta ** 2) ** -0.5
                * np.exp(-u * u / (2.0 * self.delta ** 2)))

    def p(self, x):
        return -(np.asarray(x) - self.xbar) / self.delta ** 2

    def r(self, x):
        u = np.asarray(x) - self.xbar
        d, dd, tau = self.delta, self.deltadot, self.tau
        return (dd / d - dd / d ** 3 * u * u - u / d ** 2 * self.xbardot
                - u * u / (2.0 * tau * d ** 2) + 1.0 / (2.0 * tau))

    def u_factor(self, x):
        """Integrating factor exp(int p dx) with the gauge fixed at xbar."""
        u = np.asarray(x) - self.xbar
        return np.exp(-u * u / (2.0 * self.delta ** 2))

    def velocity(self, x, with_sink_term: bool = True):
        """The closed-form velocity field; with_sink_term adds (x-xbar)/(2 tau)."""
        u = np.asarray(x) - self.xbar
        slope = self.deltadot / self.delta
        if with_sink_term:
            slope += 1.0 / (2.0 * self.tau)
        return slope * u + self.xbardot


def _cumulative_simpson(f: np.ndarray, h: float) -> np.ndarray:
    """Running integral of uniform samples f with step h, starting at 0.

    Each interval integrates the quadratic through three neighbouring
    samples: forward h/12 (5 f_i + 8 f_{i+1} - f_{i+2}) on even intervals,
    backward h/12 (5 f_{i+1} + 8 f_i - f_{i-1}) on odd ones and on the last.
    A forward/backward pair sums to Simpson's panel h/3 (f_i + 4 f_{i+1} + f_{i+2}),
    so the last entry is the composite Simpson integral, its odd last interval
    (for an even number of samples) taking the backward quadratic.
    """
    parts = np.empty(len(f) - 1)
    parts[1:] = h / 12.0 * (5.0 * f[2:] + 8.0 * f[1:-1] - f[:-2])
    parts[0:-1:2] = h / 12.0 * (5.0 * f[:-2:2] + 8.0 * f[1:-1:2] - f[2::2])
    return np.concatenate(([0.0], np.cumsum(parts)))


def _chebyshev(center: float, half_width: float, n: int = 33) -> np.ndarray:
    return center + half_width * np.cos(np.pi * np.arange(n) / (n - 1))


def _d1(f, x, h):
    """Five-point fourth-order first derivative."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def _d2(f, x, h):
    """Five-point fourth-order second derivative."""
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


def _d3(f, x, h):
    """Third derivative: five-point stencil, Richardson-extrapolated to O(h^4)."""

    def base(hh):
        return (-f(x - 2 * hh) + 2 * f(x - hh) - 2 * f(x + hh)
                + f(x + 2 * hh)) / (2 * hh ** 3)

    return (4.0 * base(0.5 * h) - base(h)) / 3.0


def check_k0_gaussian(delta0: float, p: PhysParams = PhysParams()) -> float:
    """Quantum-force bracket on the initial Gaussian equals k0 (x - xbar).

    The bracket (hbar^2/4m^2)[rho'''/rho - 2 rho' rho''/rho^2 + (rho'/rho)^3]
    is evaluated by central differences and compared with
    k0 = hbar^2 / (4 m^2 delta0^4) times (x - xbar).
    """
    if delta0 <= 0:
        raise ConfigurationError("delta0 must be positive")
    a = AnsatzSlice(delta=delta0)
    xs = _chebyshev(a.xbar, 4.0 * delta0)
    h = delta0 / 200.0
    rho = a.rho(xs)
    d1 = _d1(a.rho, xs, h)
    d2 = _d2(a.rho, xs, h)
    d3 = _d3(a.rho, xs, h)
    pref = p.hbar_2m * p.hbar_2m
    bracket = pref * (d3 / rho - 2.0 * d1 * d2 / rho ** 2 + (d1 / rho) ** 3)
    k0 = pref / delta0 ** 4
    return float(np.max(np.abs(bracket - k0 * (xs - a.xbar))))


def check_integrating_factor(a: AnsatzSlice) -> tuple[float, float]:
    """(i) du/dx = p u pointwise; (ii) u / [(pi delta^2)^{1/2} rho] constant.

    The factor for (ii) is rebuilt from cumulative Simpson quadrature of p
    (exact for the linear p up to roundoff); the constant itself is gauge.
    """
    xs = _chebyshev(a.xbar, 4.0 * a.delta)
    h = a.delta / 200.0
    res_def = float(np.max(np.abs(_d1(a.u_factor, xs, h) - a.p(xs) * a.u_factor(xs))))

    grid, step = np.linspace(a.xbar - 4.0 * a.delta, a.xbar + 4.0 * a.delta, 4001,
                             retstep=True)
    anti = _cumulative_simpson(a.p(grid), step)
    u_num = np.exp(anti)
    ratio = u_num / ((np.pi * a.delta ** 2) ** 0.5 * a.rho(grid))
    res_ratio = float((ratio.max() - ratio.min()) / ratio.mean())
    return res_def, res_ratio


def check_decomposition_integrals(a: AnsatzSlice) -> tuple[float, float, float]:
    """The three pieces of int r u dx.

    I1, I2: the claimed antiderivatives are differentiated pointwise and
    compared with their integrands.  I3: the definite integral over
    |x - xbar| <= 8 delta vanishes (Gaussian second-moment identity).
    """
    w = (np.pi * a.delta ** 2) ** 0.5
    xs = _chebyshev(a.xbar, 4.0 * a.delta)
    h = a.delta / 200.0
    d, dd = a.delta, a.deltadot

    def anti1(x):
        return w * a.rho(x) * (dd / d) * (np.asarray(x) - a.xbar)

    def integrand1(x):
        u = np.asarray(x) - a.xbar
        return (dd / d - dd / d ** 3 * u * u) * w * a.rho(x)

    res1 = float(np.max(np.abs(_d1(anti1, xs, h) - integrand1(xs))))

    def anti2(x):
        return w * a.xbardot * a.rho(x)

    def integrand2(x):
        u = np.asarray(x) - a.xbar
        return -(u / d ** 2) * a.xbardot * w * a.rho(x)

    res2 = float(np.max(np.abs(_d1(anti2, xs, h) - integrand2(xs))))

    grid, step = np.linspace(a.xbar - 8.0 * a.delta, a.xbar + 8.0 * a.delta, 8001,
                             retstep=True)
    u = grid - a.xbar
    integrand3 = (-u * u / (2.0 * a.tau * d ** 2) + 1.0 / (2.0 * a.tau)) * w * a.rho(grid)
    res3 = float(abs(_cumulative_simpson(integrand3, step)[-1]))
    return res1, res2, res3


def check_velocity_ansatz(a: AnsatzSlice) -> float:
    """Quadrature reconstruction of the velocity field from the first-order ODE.

    v = [int r u dx] / u is accumulated from far in the left tail.  Quadrature
    of the width/centroid pieces alone reproduces the closed form without the
    sink term; quadrature of the full inhomogeneity reproduces the
    sink-corrected form; the larger of the two residuals is returned.
    """
    d = a.delta
    grid, step = np.linspace(a.xbar - 10.0 * d, a.xbar + 10.0 * d, 40001,
                             retstep=True)
    u_fac = a.u_factor(grid)
    uu = grid - a.xbar
    # width/centroid pieces of r only: quadrature reproduces the
    # closed form without the sink term
    r12 = (a.deltadot / d - a.deltadot / d ** 3 * uu * uu
           - uu / d ** 2 * a.xbardot)
    v12 = _cumulative_simpson(r12 * u_fac, step) / u_fac
    # full r: the sink piece integrates to (x - xbar)/(2 tau) pointwise,
    # even though its definite integral vanishes
    v_full = _cumulative_simpson(a.r(grid) * u_fac, step) / u_fac
    window = np.abs(uu) <= 4.0 * d
    res12 = np.max(np.abs(v12[window]
                          - a.velocity(grid, with_sink_term=False)[window]))
    res_full = np.max(np.abs(v_full[window]
                             - a.velocity(grid, with_sink_term=True)[window]))
    return float(max(res12, res_full))


def check_coefficient_expansion(delta: float, deltadot: float,
                                xbar: float, xbardot: float,
                                p: PhysParams) -> dict[str, float]:
    """Which damping coefficient closes the linear-in-(x - xbar) balance.

    Assembles d(v)/dt + v dv/dx + omega^2 x + (lambda/m) X - k (x - xbar)
    from the closed-form velocity field and returns the magnitude of the
    surviving (x - xbar) slope per coefficient variant.  The width and
    centroid accelerations are the integrator's own: measurement_rhs at
    alpha = delta/s, alpha' = delta'/s with s = sqrt(hbar/2m), so
    delta'' = s alpha'', under each variant.  It runs with the zero drive:
    the centroid acceleration's -(lambda/m) X enters d(v)/dt and cancels the
    balance's (lambda/m) X exactly, so no drive changes the slope.
    """
    if p.inv_tau == 0.0:
        raise ConfigurationError("the expansion check needs a finite tau")
    it = p.inv_tau
    w2 = p.omega2(0.0)
    k = p.hbar_2m * p.hbar_2m / delta ** 4
    s = math.sqrt(p.hbar_2m)
    state = ErmakovState(0.0, delta / s, deltadot / s, xbar, xbardot)
    slope_v = deltadot / delta + 0.5 * it
    xs = _chebyshev(xbar, 4.0 * delta)
    out = {}
    for variant in _VARIANTS:
        alphaddot, xbarddot = measurement_rhs(state, replace(p, coeff_variant=variant),
                                              DriveSpec())
        deltaddot = s * alphaddot
        dv_dt = ((deltaddot / delta - (deltadot / delta) ** 2) * (xs - xbar)
                 - slope_v * xbardot + xbarddot)
        v = slope_v * (xs - xbar) + xbardot
        lhs = dv_dt + v * slope_v + w2 * xs - k * (xs - xbar)
        slope, intercept = np.polyfit(xs - xbar, lhs, 1)
        out[variant] = float(max(abs(slope), abs(intercept) / (4.0 * delta)))
    return out
