"""The Gaussian image of evolve's Strang step: an oracle at round-off for a Gaussian start.

Write psi = exp(-A (x - q)^2 + i k0 (x - q) + gamma) with Re A > 0, so that xbar = q
and delta^2 = 1 / (4 Re A).  Each factor of evolve's step maps such a psi to another:
- kinetic over a time s: 1/A <- 1/A + 2i hbar s / m, and q <- q + (hbar k0 / m) s;
- the sink exp(sink_const - sink_gain (x - xbar)^2 / (2 delta^2)), centred on the
  measured xbar = q: A <- A + sink_gain / (2 delta^2);
- the harmonic factor exp(-i beta x^2), beta = dt m omega^2 / (2 hbar):
  A <- A + i beta, and k0 <- k0 - 2 beta q;
- the drive exp(i c x), c = -(dt/hbar) lambda X: k0 <- k0 + c.
gaussian_packet starts from A = 1/(4 delta0^2) - i (m/hbar) slope / 2, with its slope
width_rate0/delta0 + 1/(2 tau), and k0 = (m/hbar) xbardot0.  evolve opens with half a
kinetic step and closes each recorded row with another, so the map follows the xbar
and delta of every row it records, up to rounding and the grid's own spatial error.
"""
import json
import math

import numpy as np
import pytest

from ermakov_lab import DriveSpec, Grid, PhysParams, evolve, gaussian_packet
from ermakov_lab.cli import main


def gaussian_map(p, d, xbar0, delta0, dt, steps, stride=1, xbardot0=0.0, width_rate0=0.0):
    """(t, xbar, delta) columns of the rows evolve records from gaussian_packet's packet
    at t = 0, by the closed-form image of its step.  X is read at each step's midpoint
    or, for the conserving kind, from evolve's backward difference of the map's own delta."""
    hbar, m = p.hbar, p.m

    def kinetic(a, q, k0, s):
        return 1.0 / (1.0 / a + 2j * hbar * s / m), q + hbar * k0 * s / m, k0

    slope = width_rate0 / delta0 + 0.5 * p.inv_tau
    a = 1.0 / (4.0 * delta0 * delta0) - 0.5j * (m / hbar) * slope
    q, k0 = xbar0, m / hbar * xbardot0
    sink_gain = 0.5 * math.expm1(dt * p.inv_tau)
    beta = dt * m * p.omega2(0.0) / (2.0 * hbar)
    coef = -(dt / hbar) * p.lam
    feedback = d.bind(p) if d.kind == "conserving" else None
    xs = None if feedback else d.at(np.arange(steps) * dt + 0.5 * dt)
    rows = [(0.0, xbar0, delta0)]
    a, q, k0 = kinetic(a, q, k0, 0.5 * dt)
    for i in range(steps):
        var = 0.25 / a.real
        if feedback:
            delta = math.sqrt(var)
            x = feedback((i + 0.5) * dt, (delta - prev) / dt / delta if i > 0 else 0.0, q)
            prev = delta
        else:
            x = xs[i]
        a += sink_gain / (2.0 * var) + 1j * beta
        k0 += coef * x - 2.0 * beta * q
        if (i + 1) % stride == 0 or i == steps - 1:
            a_row, q_row, _ = kinetic(a, q, k0, 0.5 * dt)
            rows.append(((i + 1) * dt, q_row, math.sqrt(0.25 / a_row.real)))
        a, q, k0 = kinetic(a, q, k0, dt)
    return np.array(rows).T


def gap(t, xbar, delta, p, d, dt, stride, xbar0, delta0, **init):
    """The largest |PDE - map| over the recorded xbar and delta of a run from t = 0."""
    t_map, xbar_map, delta_map = gaussian_map(p, d, xbar0, delta0, dt, round(t[-1] / dt),
                                              stride, **init)
    assert np.allclose(t, t_map, rtol=0, atol=1e-9 * dt)
    return max(np.max(np.abs(xbar - xbar_map)), np.max(np.abs(delta - delta_map)))


DRIVES = [
    DriveSpec(),
    DriveSpec(kind="constant", x0=0.5),
    DriveSpec(kind="sinusoid", x0=1.0, freq=0.7, phase=0.3),
    DriveSpec(kind="tabulated", table=((0.0, 0.0), (1.0, 1.0), (2.5, -0.5), (4.0, 0.25))),
    DriveSpec(kind="conserving"),
]


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("drive", DRIVES, ids=[d.kind for d in DRIVES])
def test_evolve_is_the_gaussian_map(drive, stride):
    # tau = 2, lambda = 1 on [-15, 17] at n = 128, dt = m dx^2 / (pi hbar), 300 steps:
    # only rounding and the grid's spatial error part the PDE from the map
    p = PhysParams(tau=2.0, lam=1.0)
    g = Grid(-15.0, 17.0, 128)
    dt = g.dx * g.dx / math.pi
    _, obs = evolve(gaussian_packet(g, 1.0, 1.0, p=p), p, drive, dt, 300,
                    record_stride=stride)
    assert len(obs) == 2 + 299 // stride
    assert gap(obs.t, obs.xbar, obs.delta, p, drive, dt, stride, 1.0, 1.0) <= 1e-12


def run_cli(tmp_path, tau, init, dt, t_end, grid):
    """The exit code of a pde run from `init` and its largest gap from the map."""
    out = tmp_path / "out"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mode": "pde", "params": {"tau": tau}, "init": init,
                                "numerics": {"dt": dt, "t_end": t_end, "grid": grid},
                                "output": {"directory": str(out)}}))
    code = main(["run", str(path)])
    t, _, xbar, delta, *_ = np.loadtxt(out / "observables.csv", delimiter=",", skiprows=2).T
    return code, gap(t, xbar, delta, PhysParams(tau=tau), DriveSpec(), dt, 1, **init)


# Two known mismatches, pinned with the exit code each gets today: both runs exit 0
# with rows far from the packet's path, and a larger grid brings each to the map.
def test_wrap_round_exits_0_off_the_map(tmp_path):
    # delta0 = 0.3 in a box of +-16 delta0: the packet breathes out in the well past the
    # box and wraps round, which the band share does not see; a box 3 times as wide at
    # the same dx holds it
    init = {"xbar0": 0.0, "delta0": 0.3}
    code, off = run_cli(tmp_path, 5.0, init, 0.004, 4.0,
                        {"x_min": -4.8, "x_max": 4.8, "n": 128})
    assert code == 0 and 5e-3 < off < 2e-2
    code, off = run_cli(tmp_path, 5.0, init, 0.004, 4.0,
                        {"x_min": -14.4, "x_max": 14.4, "n": 384})
    assert code == 0 and off < 1e-12


def test_narrowed_to_dx_exits_0_off_the_map(tmp_path):
    # tau = 0.01 narrows the packet to its steady width 0.100, one dx = 0.099 at n = 128
    # (width_rate0 = -delta0 / (2 tau) starts it with no phase curvature), where the grid
    # no longer resolves it, yet too little of |psi|^2 lies near pi/dx for the band share
    # to refuse a row; at 2n it is resolved
    init = {"xbar0": 1.0, "delta0": 0.396, "width_rate0": -19.8}
    code, off = run_cli(tmp_path, 0.01, init, 0.002, 1.0, {"n": 128})
    assert code == 0 and 1e-2 < off < 5e-2
    code, off = run_cli(tmp_path, 0.01, init, 0.002, 1.0, {"n": 256})
    assert code == 0 and off < 1e-12
