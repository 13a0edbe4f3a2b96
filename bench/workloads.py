"""Seeded workload generator and the benchmark's own ODE reference.

A workload is a list of `ermakov-lab` calls (argv lists for
`ermakov_lab.cli.main`) over config files generated from the seed, plus the
list of operations those calls perform.  One operation is one solver run:
one sweep value or one `run`.  Every generated value stays in a range where
no operation should fail: the packet sits at least 8 widths from the grid
edges, dt is under the kinetic bound m dx^2 / (pi hbar), and no drive is
strong enough to collapse the width.

This module imports nothing from the lab, so the reference integration below
is independent of the code it checks.
"""
from __future__ import annotations

import bisect
import json
import math
import random
from pathlib import Path

WORKLOADS = ("ode_sweep", "pde_compare", "pde_record")

# Grid shared by both PDE workloads; the packet starts at xbar0 in [0.5, 2]
# with delta0 = 1, so it is more than 8 widths from either edge.
_GRID = {"x_min": -15.0, "x_max": 17.0}


def _sinusoid(rng: random.Random) -> dict:
    # freq well below the oscillator frequency 1 keeps the forced response
    # under x0 / (1 - freq^2) < 1.4.
    return {"kind": "sinusoid", "x0": round(rng.uniform(0.2, 0.5), 6),
            "freq": round(rng.uniform(0.4, 0.8), 6),
            "phase": round(rng.uniform(0.0, 2 * math.pi), 6)}


def _ode_sweep(rng: random.Random, work: Path):
    taus = set()
    while len(taus) < 8:
        taus.add(round(rng.uniform(0.5, 8.0), 3))
    taus = sorted(taus)
    # 101 samples over [0, t_end]; sample times fall on step boundaries.
    table = [[round(0.04 * k, 10), round(rng.uniform(-0.5, 0.5), 6)] for k in range(101)]
    base = {
        "mode": "ode", "system": "measurement",
        "params": {"tau": 1.0, "lambda": 1.0},
        "init": {"alpha0": 1.0, "alphadot0": 0.0,
                 "xbar0": round(rng.uniform(0.5, 2.0), 6), "xbardot0": 0.0},
        "numerics": {"dt": 1e-3, "t_end": 4.0},
    }
    configs, calls, ops = {}, [], []
    values = ",".join(repr(v) for v in taus)
    for name, drive in (("ode_tabulated", {"kind": "tabulated", "table": table}),
                        ("ode_conserving", {"kind": "conserving"})):
        cfg = json.loads(json.dumps(base))
        cfg["drive"] = drive
        cfg["output"] = {"directory": str(work / name), "stride": 100}
        configs[name] = cfg
        for tau in taus:
            ops.append({"kind": "ode", "call": len(calls), "config": name,
                        "tau": tau, "rows": 41,
                        "csv": str(work / name / f"tau_{tau:g}" / "trajectory.csv")})
        calls.append(["sweep", str(work / f"{name}.json"),
                      "--param", "params.tau", "--values", values])
    return configs, calls, ops


def _pde_compare(rng: random.Random, work: Path):
    cfg = {
        "mode": "compare",
        "params": {"tau": 2.0, "lambda": 1.0},
        "drive": _sinusoid(rng),
        "init": {"delta0": 1.0, "xbar0": round(rng.uniform(0.5, 2.0), 6),
                 "xbardot0": 0.0, "width_rate0": 0.0},
        "numerics": {"dt": 2.5e-4, "t_end": 2.5, "grid": dict(_GRID, n=1024)},
        "output": {"directory": str(work / "compare"), "stride": 100},
    }
    ops = [{"kind": "compare", "call": 0, "config": "compare", "rows": 101,
            "csv": str(work / "compare" / "compare.csv")}]
    return {"compare": cfg}, [["run", str(work / "compare.json")]], ops


def _pde_record(rng: random.Random, work: Path):
    cfg = {
        "mode": "pde",
        "params": {"tau": 2.0, "lambda": 1.0},
        "drive": _sinusoid(rng),
        "init": {"delta0": 1.0, "xbar0": round(rng.uniform(0.5, 2.0), 6),
                 "xbardot0": 0.0, "width_rate0": 0.0},
        "numerics": {"dt": 1e-3, "t_end": 10.0, "grid": dict(_GRID, n=256)},
        "output": {"directory": str(work / "record"), "stride": 1, "snapshots": True},
    }
    n = cfg["numerics"]["grid"]["n"]
    ops = [{"kind": "pde", "call": 0, "config": "record", "rows": 10001,
            "n": n, "dx": (_GRID["x_max"] - _GRID["x_min"]) / n,
            "csv": str(work / "record" / "observables.csv"),
            "fields": str(work / "record" / "fields_final.csv")}]
    return {"record": cfg}, [["run", str(work / "record.json")]], ops


_GENERATORS = {"ode_sweep": _ode_sweep, "pde_compare": _pde_compare,
             "pde_record": _pde_record}


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's configs under `work`; return its plan.

    The plan holds the configs, the argv of each `ermakov-lab` call, the
    operations with the files they must leave, and for ODE operations the
    reference endpoint they must reach.
    """
    rng = random.Random(f"{workload}:{seed}")
    configs, calls, ops = _GENERATORS[workload](rng, work)
    work.mkdir(parents=True, exist_ok=True)
    for name, cfg in configs.items():
        (work / f"{name}.json").write_text(json.dumps(cfg, indent=1) + "\n")
    for op in ops:
        if op["kind"] == "ode":
            op["reference"] = reference_endpoint(configs[op["config"]], op["tau"])
    return {"workload": workload, "seed": seed, "configs": configs,
            "calls": calls, "operations": ops}


def reference_endpoint(cfg: dict, tau: float, refine: int = 2) -> list[float]:
    """(alpha, alphadot, xbar, xbardot) at t_end of the measurement system.

    Classical RK4 on plain floats at dt/refine, written from the equations
      alpha'' = 1/alpha^3 - alpha'/tau - (omega^2 + 1/(4 tau^2)) alpha,
      xbar''  = -omega^2 xbar - (lambda/m) X(t),
    with hbar = m = omega = 1.  X is the tabulated drive interpolated
    linearly, or the conserving drive
      X = (m/lambda) (alpha'/(alpha tau) + 1/(4 tau^2)) xbar.
    """
    lam = cfg["params"]["lambda"]
    c_tau = 0.25 / (tau * tau)
    drive = cfg["drive"]
    if drive["kind"] == "tabulated":
        ts = [p[0] for p in drive["table"]]
        xs = [p[1] for p in drive["table"]]

        def x_drive(t, a, ad, x):
            if t <= ts[0]:
                return xs[0]
            if t >= ts[-1]:
                return xs[-1]
            j = bisect.bisect_right(ts, t) - 1
            f = (t - ts[j]) / (ts[j + 1] - ts[j])
            return xs[j] + f * (xs[j + 1] - xs[j])
    elif drive["kind"] == "conserving":
        def x_drive(t, a, ad, x):
            return (ad / (a * tau) + c_tau) * x / lam
    else:
        raise ValueError(f"no reference for drive {drive['kind']!r}")

    def rhs(t, a, ad, x, xd):
        return (ad, a ** -3 - ad / tau - (1.0 + c_tau) * a,
                xd, -x - lam * x_drive(t, a, ad, x))

    init = cfg["init"]
    y = (init["alpha0"], init["alphadot0"], init["xbar0"], init["xbardot0"])
    n = int(round(cfg["numerics"]["t_end"] / cfg["numerics"]["dt"])) * refine
    h = cfg["numerics"]["t_end"] / n
    for i in range(n):
        t = i * h
        k1 = rhs(t, *y)
        k2 = rhs(t + h / 2, *(a + h / 2 * b for a, b in zip(y, k1)))
        k3 = rhs(t + h / 2, *(a + h / 2 * b for a, b in zip(y, k2)))
        k4 = rhs(t + h, *(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
    return list(y)
